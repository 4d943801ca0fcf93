// Error model for the serve subsystem (dsprofd).
//
// Everything inside src/serve/ reports failures by value: a Status carries a
// machine-checkable code plus a human-readable message. The rest of dsprof
// throws dsprof::Error for violated invariants — appropriate for an offline
// analyzer where a corrupt experiment file is fatal — but a long-lived daemon
// must survive a hostile or broken client: a truncated frame, a bad magic, an
// oversized length prefix, or a mid-batch disconnect tears down *that
// session* with a clean error, never the server. The wire decoders, the
// session reader and the session reducer therefore catch the bytestream
// layer's Error, and any other std::exception such as std::bad_alloc, at the
// subsystem boundary: the decoders and the reader convert it to
// Status::Malformed, the reducer counts the batch as dropped.
#pragma once

#include <string>

#include "support/common.hpp"

namespace dsprof::serve {

enum class StatusCode : u8 {
  Ok = 0,
  Timeout,        // recv deadline expired (caller may retry)
  Disconnected,   // peer closed or shut down the transport
  BadMagic,       // frame header magic mismatch
  BadVersion,     // unsupported protocol version
  FrameTooLarge,  // length prefix exceeds the payload cap
  Malformed,      // payload failed to decode (truncated, corrupt)
  Overloaded,     // server refused work due to backpressure policy
  Refused,        // protocol violation (e.g. batch before handshake)
  IoError,        // OS-level transport failure
};

const char* status_code_name(StatusCode c);

struct [[nodiscard]] Status {
  StatusCode code = StatusCode::Ok;
  std::string message;

  bool ok() const { return code == StatusCode::Ok; }
  /// Timeouts are the one transient failure: clients retry them with
  /// backoff; every other non-Ok code is terminal for the attempt.
  bool retryable() const { return code == StatusCode::Timeout; }

  std::string to_string() const {
    std::string s = status_code_name(code);
    if (!message.empty()) s += ": " + message;
    return s;
  }

  static Status make(StatusCode c, std::string msg) { return {c, std::move(msg)}; }
};

inline Status ok_status() { return {}; }

}  // namespace dsprof::serve
