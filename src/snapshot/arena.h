// Relocatable arena + flat owned-or-mapped array storage.
//
// `Arena` is the staging buffer behind `SnapshotWriter`: one contiguous
// 64-byte-aligned allocation addressed by *offsets*, never pointers, so
// the whole region can be grown (realloc-style) or written to disk and
// later mmapped at an arbitrary base address without fixups. 64-byte
// alignment matches the SIMD kernels' cache-line-aligned load
// expectations (docs/SIMD.md) and is preserved in the on-disk layout:
// every section payload starts on a 64-byte file offset, and mmap bases
// are page-aligned, so mapped arrays are at least as aligned as their
// staged counterparts.
//
// `FlatVec<T>` is the owned-or-mapped flat array the hot index structures
// store their state in (RMI leaf tables, bloom bitmaps, hash slot
// arrays). It replaces std::vector in those structures so an index can be
// EITHER freshly built (owning one aligned heap block, mutable) OR opened
// zero-copy from a snapshot (a read-only view into an mmapped file, plus
// a shared keepalive that pins the mapping) — with identical read-path
// code and layout in both modes. T must be trivially copyable: flat
// layouts are the point.

#ifndef LI_SNAPSHOT_ARENA_H_
#define LI_SNAPSHOT_ARENA_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace li::snapshot {

/// Cache-line / SIMD-lane alignment used throughout the snapshot layer:
/// arena allocations, section file offsets, and FlatVec owned buffers.
inline constexpr size_t kArenaAlign = 64;

namespace internal {
struct AlignedDelete {
  void operator()(uint8_t* p) const {
    ::operator delete[](p, std::align_val_t{kArenaAlign});
  }
};
using AlignedBuf = std::unique_ptr<uint8_t[], AlignedDelete>;

inline AlignedBuf AlignedAlloc(size_t n) {
  return AlignedBuf(static_cast<uint8_t*>(
      ::operator new[](n, std::align_val_t{kArenaAlign})));
}
}  // namespace internal

/// Growable bump allocator addressed by offsets. Offsets handed out by
/// AllocBytes/Append remain valid across growth (the backing block moves;
/// the offsets do not) — resolve them lazily via at()/data() and never
/// cache raw pointers across allocations.
class Arena {
 public:
  Arena() = default;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Reserves `n` zero-initialized bytes at the next `align`-aligned
  /// offset and returns that offset. `align` must be a power of two and
  /// at most kArenaAlign (the block base guarantees no more).
  uint64_t AllocBytes(size_t n, size_t align = kArenaAlign) {
    assert(align != 0 && (align & (align - 1)) == 0 && align <= kArenaAlign);
    const size_t off = (size_ + (align - 1)) & ~(align - 1);
    Reserve(off + n);
    if (off > size_) std::memset(buf_.get() + size_, 0, off - size_);
    std::memset(buf_.get() + off, 0, n);
    size_ = off + n;
    return off;
  }

  /// Copies `n` bytes from `src` into the arena at the next aligned
  /// offset; returns the offset.
  uint64_t Append(const void* src, size_t n, size_t align = kArenaAlign) {
    const uint64_t off = AllocBytes(n, align);
    if (n != 0) std::memcpy(buf_.get() + off, src, n);
    return off;
  }

  uint8_t* at(uint64_t off) { return buf_.get() + off; }
  const uint8_t* at(uint64_t off) const { return buf_.get() + off; }
  const uint8_t* data() const { return buf_.get(); }
  size_t size() const { return size_; }

 private:
  void Reserve(size_t need) {
    if (need <= cap_) return;
    size_t cap = cap_ == 0 ? 4096 : cap_;
    while (cap < need) cap *= 2;
    internal::AlignedBuf grown = internal::AlignedAlloc(cap);
    if (size_ != 0) std::memcpy(grown.get(), buf_.get(), size_);
    buf_ = std::move(grown);
    cap_ = cap;
  }

  internal::AlignedBuf buf_;
  size_t size_ = 0;
  size_t cap_ = 0;
};

/// Flat array of trivially-copyable T in one of three storage modes:
///  * owned   — one kArenaAlign-aligned heap block, mutable (built state);
///  * adopted — takes over a std::vector's buffer without copying
///              (bulk-build paths that naturally produce a vector);
///  * view    — non-owning read-only window (an mmapped snapshot
///              section), pinned by a shared keepalive.
/// Reads are identical in all modes; mutation asserts !mapped(). Copying
/// deep-copies owned/adopted storage but shares a view (a view is already
/// immutable); moves always transfer.
template <typename T>
class FlatVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "FlatVec requires trivially copyable elements");

 public:
  using value_type = T;

  FlatVec() = default;
  FlatVec(FlatVec&& o) noexcept { MoveFrom(std::move(o)); }
  FlatVec& operator=(FlatVec&& o) noexcept {
    if (this != &o) MoveFrom(std::move(o));
    return *this;
  }
  FlatVec(const FlatVec& o) { CopyFrom(o); }
  FlatVec& operator=(const FlatVec& o) {
    if (this != &o) CopyFrom(o);
    return *this;
  }

  /// Wraps an immutable span whose lifetime is guaranteed by `keepalive`
  /// (typically the snapshot mapping).
  static FlatVec View(std::span<const T> s,
                      std::shared_ptr<const void> keepalive) {
    FlatVec v;
    v.ptr_ = const_cast<T*>(s.data());
    v.size_ = s.size();
    v.mapped_ = true;
    v.keepalive_ = std::move(keepalive);
    return v;
  }

  /// Takes over `src`'s buffer with no copy; the vector is stored in the
  /// keepalive. The result is still read-only-after-adopt on the mutation
  /// API (mapped() == false, but prefer rebuilding over mutating adopted
  /// storage — alignment is whatever the vector provided).
  static FlatVec Adopt(std::vector<T>&& src) {
    auto holder = std::make_shared<std::vector<T>>(std::move(src));
    FlatVec v;
    v.ptr_ = holder->data();
    v.size_ = holder->size();
    v.mapped_ = false;
    v.adopted_ = true;
    v.keepalive_ = std::move(holder);
    return v;
  }

  void assign(size_t n, const T& fill) {
    ReallocOwned(n);
    for (size_t i = 0; i < n; ++i) ptr_[i] = fill;
  }

  void clear() {
    buf_.reset();
    keepalive_.reset();
    ptr_ = nullptr;
    size_ = 0;
    mapped_ = false;
    adopted_ = false;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True when this is a zero-copy view into a snapshot mapping.
  bool mapped() const { return mapped_; }

  const T* data() const { return ptr_; }
  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + size_; }
  const T& operator[](size_t i) const { return ptr_[i]; }

  T* mutable_data() {
    assert(!mapped_ && "cannot mutate a mapped snapshot view");
    return ptr_;
  }
  T& operator[](size_t i) {
    assert(!mapped_ && "cannot mutate a mapped snapshot view");
    return ptr_[i];
  }

  std::span<const T> span() const { return {ptr_, size_}; }

 private:
  void ReallocOwned(size_t n) {
    buf_ = n == 0 ? nullptr : internal::AlignedAlloc(n * sizeof(T));
    keepalive_.reset();
    ptr_ = reinterpret_cast<T*>(buf_.get());
    size_ = n;
    mapped_ = false;
    adopted_ = false;
  }

  void MoveFrom(FlatVec&& o) {
    buf_ = std::move(o.buf_);
    keepalive_ = std::move(o.keepalive_);
    ptr_ = std::exchange(o.ptr_, nullptr);
    size_ = std::exchange(o.size_, 0);
    mapped_ = std::exchange(o.mapped_, false);
    adopted_ = std::exchange(o.adopted_, false);
  }

  void CopyFrom(const FlatVec& o) {
    if (o.mapped_) {
      // Views are immutable; share the window and its keepalive.
      buf_.reset();
      keepalive_ = o.keepalive_;
      ptr_ = o.ptr_;
      size_ = o.size_;
      mapped_ = true;
      adopted_ = false;
      return;
    }
    ReallocOwned(o.size_);
    if (o.size_ != 0) std::memcpy(ptr_, o.ptr_, o.size_ * sizeof(T));
  }

  internal::AlignedBuf buf_;                 // owned mode
  std::shared_ptr<const void> keepalive_;    // view / adopted modes
  T* ptr_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  bool adopted_ = false;
};

}  // namespace li::snapshot

#endif  // LI_SNAPSHOT_ARENA_H_
