// Lightweight Status / Result types for fallible construction paths.
//
// Lookup paths in this library are noexcept and never allocate; builders
// (training, index construction) return Status so callers can surface
// configuration errors without exceptions, following the RocksDB idiom.

#ifndef LI_COMMON_STATUS_H_
#define LI_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace li {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
};

/// A cheap, movable status object. `ok()` is the common fast path.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "UNKNOWN";
    switch (code_) {
      case StatusCode::kOk: name = "OK"; break;
      case StatusCode::kInvalidArgument: name = "INVALID_ARGUMENT"; break;
      case StatusCode::kNotFound: name = "NOT_FOUND"; break;
      case StatusCode::kFailedPrecondition: name = "FAILED_PRECONDITION"; break;
      case StatusCode::kInternal: name = "INTERNAL"; break;
      case StatusCode::kUnimplemented: name = "UNIMPLEMENTED"; break;
    }
    return std::string(name) + ": " + msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// Result<T>: a value or a Status. Minimal expected-like wrapper.
template <typename T>
class Result {
 public:
  Result(T value) : ok_(true), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : ok_(false), status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return ok_; }
  const Status& status() const { return status_; }
  T& value() {
    assert(ok_);
    return value_;
  }
  const T& value() const {
    assert(ok_);
    return value_;
  }
  T&& take() {
    assert(ok_);
    return std::move(value_);
  }

 private:
  bool ok_;
  T value_{};
  Status status_;
};

#define LI_RETURN_IF_ERROR(expr)                \
  do {                                          \
    ::li::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                  \
  } while (0)

}  // namespace li

#endif  // LI_COMMON_STATUS_H_
