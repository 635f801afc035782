// Lightweight Status / Result<T> error-propagation types.
//
// Hot simulation paths avoid exceptions; fallible operations return
// Status (void result) or Result<T>. Both carry an error code plus a
// human-readable message. Modeled on the C++ Core Guidelines advice to
// make error paths explicit and cheap when not taken.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace sma {

enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kUnrecoverable,   // data loss: more failures than the code tolerates
  kCorruption,      // content verification mismatch
  kInternal,
  kIoError,           // disk I/O failed (fail-stop or transient error)
  kUnreadableSector,  // latent media error: this element cannot be read
  kNotFound,          // lookup by name/key matched nothing
  kAlreadyExists,     // registration would shadow an existing entry
};

/// Human-readable name of an ErrorCode ("OK", "InvalidArgument", ...).
constexpr std::string_view to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kInvalidArgument: return "InvalidArgument";
    case ErrorCode::kOutOfRange: return "OutOfRange";
    case ErrorCode::kFailedPrecondition: return "FailedPrecondition";
    case ErrorCode::kUnrecoverable: return "Unrecoverable";
    case ErrorCode::kCorruption: return "Corruption";
    case ErrorCode::kInternal: return "Internal";
    case ErrorCode::kIoError: return "IoError";
    case ErrorCode::kUnreadableSector: return "UnreadableSector";
    case ErrorCode::kNotFound: return "NotFound";
    case ErrorCode::kAlreadyExists: return "AlreadyExists";
  }
  return "Unknown";
}

/// Success-or-error status for operations with no payload.
class [[nodiscard]] Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != ErrorCode::kOk && "use Status::ok() for success");
  }

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == ErrorCode::kOk; }
  explicit operator bool() const { return is_ok(); }

  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string to_string() const {
    if (is_ok()) return "OK";
    std::string s(sma::to_string(code_));
    s += ": ";
    s += message_;
    return s;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

inline Status invalid_argument(std::string msg) {
  return Status(ErrorCode::kInvalidArgument, std::move(msg));
}
inline Status out_of_range(std::string msg) {
  return Status(ErrorCode::kOutOfRange, std::move(msg));
}
inline Status failed_precondition(std::string msg) {
  return Status(ErrorCode::kFailedPrecondition, std::move(msg));
}
inline Status unrecoverable(std::string msg) {
  return Status(ErrorCode::kUnrecoverable, std::move(msg));
}
inline Status corruption(std::string msg) {
  return Status(ErrorCode::kCorruption, std::move(msg));
}
inline Status internal_error(std::string msg) {
  return Status(ErrorCode::kInternal, std::move(msg));
}
inline Status io_error(std::string msg) {
  return Status(ErrorCode::kIoError, std::move(msg));
}
inline Status unreadable_sector(std::string msg) {
  return Status(ErrorCode::kUnreadableSector, std::move(msg));
}
inline Status not_found(std::string msg) {
  return Status(ErrorCode::kNotFound, std::move(msg));
}
inline Status already_exists(std::string msg) {
  return Status(ErrorCode::kAlreadyExists, std::move(msg));
}

/// Value-or-error. Construct from a T for success or a Status for failure.
template <typename T>
class [[nodiscard]] Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(T value) : payload_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : payload_(std::move(status)) {
    assert(!std::get<Status>(payload_).is_ok() &&
           "Result constructed from OK status carries no value");
  }

  bool is_ok() const { return std::holds_alternative<T>(payload_); }
  explicit operator bool() const { return is_ok(); }

  const T& value() const& {
    assert(is_ok());
    return std::get<T>(payload_);
  }
  T& value() & {
    assert(is_ok());
    return std::get<T>(payload_);
  }
  T&& take() && {
    assert(is_ok());
    return std::get<T>(std::move(payload_));
  }

  /// Status of the error branch; Status::ok() when holding a value.
  Status status() const {
    if (is_ok()) return Status::ok();
    return std::get<Status>(payload_);
  }

  const T& value_or(const T& fallback) const& {
    return is_ok() ? std::get<T>(payload_) : fallback;
  }

 private:
  std::variant<T, Status> payload_;
};

/// Propagate a non-OK Status out of the calling function.
#define SMA_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::sma::Status sma_status_ = (expr);        \
    if (!sma_status_.is_ok()) return sma_status_; \
  } while (false)

}  // namespace sma
