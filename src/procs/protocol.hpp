// Worker pipe framing (DESIGN.md §13): one integrity envelope
// (support/wire_map.hpp) per frame over a pipe pair.
//
// The framing is deliberately paranoid: a worker process can die mid-write
// (crash, OOM kill, SIGKILL from the supervisor), and the parent must be
// able to tell a *torn* frame apart from a clean end-of-stream — a torn
// frame means "this worker's answer is lost, retry the job elsewhere",
// while a clean EOF at a frame boundary means the worker exited on
// purpose. Every frame therefore carries the envelope's magic word, a
// bounded payload length, and a 64-bit FNV-1a checksum of the payload; any
// violation surfaces as ReadStatus::Garbled rather than silently feeding
// corrupt bytes into the job decoder. Payloads are WireMap blobs.
#pragma once

#include <string>
#include <string_view>

namespace buffy::procs {

/// How a frame read ended.
enum class ReadStatus {
  Ok,       // a whole, checksum-valid frame landed
  Eof,      // clean end-of-stream at a frame boundary (worker exited)
  Timeout,  // the deadline expired mid-wait (worker hung or is slow)
  Garbled,  // bad magic/length/checksum, or EOF inside a frame (torn write)
};

/// Writes one frame (envelope around `payload`) to `fd`. Returns false when
/// the pipe is closed or the write fails (worker already dead); the caller
/// must have SIGPIPE ignored or blocked.
bool writeFrame(int fd, std::string_view payload);

/// Reads one frame from `fd` into `payload`. `deadlineMs` < 0 blocks
/// forever (the worker side); otherwise the whole frame must arrive within
/// the deadline or the read reports Timeout. A header promising more than
/// kMaxEnvelopePayload bytes is Garbled before anything is allocated, and
/// `payload` is only written on Ok.
ReadStatus readFrame(int fd, std::string& payload, int deadlineMs);

/// Test seam and fault-injection helper: writes a frame whose checksum is
/// deliberately wrong (GarbledFrame fault) or truncates the payload after
/// the header (PartialWrite fault, models a crash mid-write).
bool writeGarbledFrame(int fd, std::string_view payload);
bool writePartialFrame(int fd, std::string_view payload);

}  // namespace buffy::procs
