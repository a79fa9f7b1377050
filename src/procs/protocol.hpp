// Worker wire protocol (DESIGN.md §13): length-prefixed, checksummed
// frames over a pipe pair, plus a flat key/value payload codec.
//
// The framing is deliberately paranoid: a worker process can die mid-write
// (crash, OOM kill, SIGKILL from the supervisor), and the parent must be
// able to tell a *torn* frame apart from a clean end-of-stream — a torn
// frame means "this worker's answer is lost, retry the job elsewhere",
// while a clean EOF at a frame boundary means the worker exited on
// purpose. Every frame therefore carries a magic word, a bounded payload
// length, and an FNV-1a checksum of the payload; any violation surfaces as
// ReadStatus::Garbled rather than silently feeding corrupt bytes into the
// job decoder.
//
// Payloads are WireMap key/value blobs (string -> string with typed
// accessors). Nested records (programs, attempts, trace series) are
// encoded as WireMap blobs stored under indexed keys — no external
// serialization library, matching the hand-written JSON elsewhere in the
// tree.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace buffy::procs {

/// A malformed frame or payload: checksum mismatch, truncated header,
/// missing/ill-typed key. The supervisor treats this as a worker fault
/// (kill + retry), never as an answer.
struct ProtocolError : Error {
  using Error::Error;
};

/// How a frame read ended.
enum class ReadStatus {
  Ok,       // a whole, checksum-valid frame landed
  Eof,      // clean end-of-stream at a frame boundary (worker exited)
  Timeout,  // the deadline expired mid-wait (worker hung or is slow)
  Garbled,  // bad magic/length/checksum, or EOF inside a frame (torn write)
};

/// Upper bound on one frame's payload; larger lengths are Garbled. Sized
/// for model sources + full traces with lots of headroom.
constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

/// Writes one frame (header + payload) to `fd`. Returns false when the
/// pipe is closed or the write fails (worker already dead); the caller
/// must have SIGPIPE ignored or blocked.
bool writeFrame(int fd, std::string_view payload);

/// Reads one frame from `fd` into `payload`. `deadlineMs` < 0 blocks
/// forever (the worker side); otherwise the whole frame must arrive within
/// the deadline or the read reports Timeout. A header promising more than
/// kMaxFramePayload bytes is Garbled.
ReadStatus readFrame(int fd, std::string& payload, int deadlineMs);

/// Test seam and fault-injection helper: writes a frame whose checksum is
/// deliberately wrong (GarbledFrame fault) or truncates the payload after
/// the header (PartialWrite fault, models a crash mid-write).
bool writeGarbledFrame(int fd, std::string_view payload);
bool writePartialFrame(int fd, std::string_view payload);

/// Flat key -> value payload with typed accessors. Encode/decode round
/// trips exactly; decode validates structure and throws ProtocolError on
/// any malformation.
class WireMap {
 public:
  void set(const std::string& key, std::string value);
  void setInt(const std::string& key, std::int64_t value);
  void setUint(const std::string& key, std::uint64_t value);
  void setBool(const std::string& key, bool value);
  void setDouble(const std::string& key, double value);

  [[nodiscard]] bool has(const std::string& key) const;
  /// Throws ProtocolError when the key is absent.
  [[nodiscard]] const std::string& get(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> maybe(const std::string& key) const;
  [[nodiscard]] std::int64_t getInt(const std::string& key) const;
  [[nodiscard]] std::uint64_t getUint(const std::string& key) const;
  [[nodiscard]] bool getBool(const std::string& key) const;
  [[nodiscard]] double getDouble(const std::string& key) const;

  [[nodiscard]] std::string encode() const;
  static WireMap decode(std::string_view bytes);

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace buffy::procs
