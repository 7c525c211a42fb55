// Status / Result error model, in the style of RocksDB's rocksdb::Status.
//
// Fallible operations in the embellish library never throw across public API
// boundaries; they return a Status (or Result<T> when a value is produced).
// Use the EMB_RETURN_NOT_OK / EMB_ASSIGN_OR_RETURN macros to propagate.

#ifndef EMBELLISH_COMMON_STATUS_H_
#define EMBELLISH_COMMON_STATUS_H_

#include <cassert>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>

namespace embellish {

/// \brief Canonical error codes for the embellish library.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kCorruption = 5,
  kNotSupported = 6,
  kInternal = 7,
  kCryptoError = 8,
  kIoError = 9,
  kUnavailable = 10,
  kBusy = 11,
};

/// \brief Human-readable name of a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// \brief Result of a fallible operation that produces no value.
///
/// A default-constructed Status is OK. Error statuses carry a code and a
/// message. Statuses are cheap to copy (message is shared via std::string's
/// value semantics; error paths are not hot paths in this library).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status CryptoError(std::string msg) {
    return Status(StatusCode::kCryptoError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Busy(std::string msg) {
    return Status(StatusCode::kBusy, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const { return code_ == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsCryptoError() const { return code_ == StatusCode::kCryptoError; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsBusy() const { return code_ == StatusCode::kBusy; }

  /// \brief "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// \brief Writes status.ToString(), so test failures print the code and
///        message.
std::ostream& operator<<(std::ostream& os, const Status& status);

/// \brief Result of a fallible operation that produces a T on success.
///
/// Implicitly constructible from both T and Status so producers can
/// `return value;` or `return Status::X(...)`.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "OK Result must carry a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// \brief Access the value; must only be called when ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// \brief Returns the value, or `fallback` when this Result is an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace embellish

/// \brief Propagate a non-OK Status to the caller.
#define EMB_RETURN_NOT_OK(expr)                \
  do {                                         \
    ::embellish::Status _st = (expr);          \
    if (!_st.ok()) return _st;                 \
  } while (false)

/// \brief Evaluate a Result<T> expression; bind value or propagate error.
#define EMB_ASSIGN_OR_RETURN(lhs, expr)        \
  EMB_ASSIGN_OR_RETURN_IMPL(                   \
      EMB_STATUS_CONCAT(_emb_result_, __LINE__), lhs, expr)

#define EMB_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()

#define EMB_STATUS_CONCAT_INNER(a, b) a##b
#define EMB_STATUS_CONCAT(a, b) EMB_STATUS_CONCAT_INNER(a, b)

#endif  // EMBELLISH_COMMON_STATUS_H_
