// Type-erased RangeIndex — the runtime face of the contract.
//
// The LIF synthesizer (§3.1) grid-searches over heterogeneous candidate
// types (RMIs with different top models, B-Tree variants); benches and
// servers want to hold "whichever index won" without threading template
// parameters everywhere. AnyRangeIndex erases any built RangeIndex over
// uint64_t keys behind one virtual hop per lookup. Build() is *not*
// erased — config types differ per index, so candidates are built
// concretely and then moved in.

#ifndef LI_INDEX_ANY_RANGE_INDEX_H_
#define LI_INDEX_ANY_RANGE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "index/approx.h"
#include "index/range_index.h"
#include "index/snapshottable.h"
#include "snapshot/snapshot.h"

namespace li::index {

class AnyRangeIndex {
 public:
  using key_type = uint64_t;

  AnyRangeIndex() = default;

  /// Wraps a built index by move (or copy, for copyable index types).
  template <typename I>
    requires RangeIndex<std::remove_cvref_t<I>> &&
             std::same_as<typename std::remove_cvref_t<I>::key_type,
                          uint64_t> &&
             (!std::same_as<std::remove_cvref_t<I>, AnyRangeIndex>)
  explicit AnyRangeIndex(I&& impl)
      : impl_(std::make_unique<Holder<std::remove_cvref_t<I>>>(
            std::forward<I>(impl))) {}

  AnyRangeIndex(AnyRangeIndex&&) noexcept = default;
  AnyRangeIndex& operator=(AnyRangeIndex&&) noexcept = default;

  /// True when no index has been wrapped yet; lookups then answer 0 like
  /// an index built over an empty key array.
  bool empty() const { return impl_ == nullptr; }

  Approx ApproxPos(const key_type& key) const {
    return impl_ ? impl_->ApproxPos(key) : Approx{};
  }
  size_t Lookup(const key_type& key) const {
    return impl_ ? impl_->Lookup(key) : 0;
  }
  /// Alias kept so erased indexes drop into existing lower_bound call sites.
  size_t LowerBound(const key_type& key) const { return Lookup(key); }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }

  void LookupBatch(std::span<const key_type> keys,
                   std::span<size_t> out) const {
    if (impl_ != nullptr) {
      impl_->LookupBatch(keys, out);
    } else {
      for (size_t i = 0; i < out.size(); ++i) out[i] = 0;
    }
  }

  // ---- Persistence (docs/PERSISTENCE.md) ----
  // The erased writer side: sections of whichever concrete index is
  // wrapped, plus its SnapshotKindName tag so a loader (the LIF winner
  // persistence in lif/synthesizer.h) can dispatch back to the concrete
  // OpenSnapshot. Opening is inherently type-directed and therefore not
  // erased here.

  /// The wrapped index's snapshot kind tag ("" when it has none or the
  /// wrapper is empty).
  const char* SnapshotKind() const {
    return impl_ ? impl_->SnapshotKind() : "";
  }

  /// Writes the wrapped index's sections; Unimplemented when the wrapped
  /// type has no section protocol (or nothing is wrapped).
  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    if (impl_ == nullptr) {
      return Status::FailedPrecondition("AnyRangeIndex: empty");
    }
    return impl_->WriteSections(writer, prefix);
  }

  Status WriteSnapshot(const std::string& path) const {
    return index::WriteSnapshotViaSections(*this, path);
  }

 private:
  struct Iface {
    virtual ~Iface() = default;
    virtual Approx ApproxPos(const key_type& key) const = 0;
    virtual size_t Lookup(const key_type& key) const = 0;
    virtual size_t SizeBytes() const = 0;
    virtual void LookupBatch(std::span<const key_type> keys,
                             std::span<size_t> out) const = 0;
    virtual const char* SnapshotKind() const = 0;
    virtual Status WriteSections(snapshot::SnapshotWriter& writer,
                                 const std::string& prefix) const = 0;
  };

  template <typename I>
  struct Holder final : Iface {
    template <typename U>
    explicit Holder(U&& v) : impl(std::forward<U>(v)) {}

    Approx ApproxPos(const key_type& key) const override {
      return impl.ApproxPos(key);
    }
    size_t Lookup(const key_type& key) const override {
      return impl.Lookup(key);
    }
    size_t SizeBytes() const override { return impl.SizeBytes(); }
    void LookupBatch(std::span<const key_type> keys,
                     std::span<size_t> out) const override {
      index::LookupBatch(impl, keys, out);
    }
    const char* SnapshotKind() const override {
      if constexpr (requires {
                      { I::SnapshotKindName() } -> std::convertible_to<
                          const char*>;
                    }) {
        return I::SnapshotKindName();
      } else {
        return "";
      }
    }
    Status WriteSections(snapshot::SnapshotWriter& writer,
                         const std::string& prefix) const override {
      if constexpr (SectionSnapshottable<I>) {
        return impl.WriteSections(writer, prefix);
      } else {
        return Status::Unimplemented(
            "AnyRangeIndex: wrapped index has no section snapshot "
            "protocol");
      }
    }

    I impl;
  };

  std::unique_ptr<const Iface> impl_;
};


}  // namespace li::index

#endif  // LI_INDEX_ANY_RANGE_INDEX_H_
