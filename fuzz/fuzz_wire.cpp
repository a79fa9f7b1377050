// Fuzz target: the wire decoder surface of the worker pipe (DESIGN.md
// §13). The supervisor hands every checksum-valid reply to WireMap::decode
// and decodeResult, and the `buffy --worker` loop hands every job frame to
// decodeJob. A worker that crashes mid-write or corrupts its own memory
// can put arbitrary bytes on the pipe, so those decoders face arbitrary
// input; readFrame itself faces arbitrary headers (magic, forged lengths,
// bad checksums).
//
// Invariant: the only exception that may escape is ProtocolError (a
// buffy::Error subclass) — anything else (std::bad_alloc from a forged
// entry count, std::out_of_range, length overflow, sanitizer report) is a
// bug in the decoder, and would take the supervising process down with
// the worker.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "procs/protocol.hpp"
#include "procs/wire.hpp"

namespace {

/// Feeds raw bytes through a pipe into readFrame, exactly as a worker's
/// stdout would deliver them: a closed write end is the EOF/torn-frame
/// case.
void fuzzReadFrame(const std::uint8_t* data, std::size_t size) {
  int fds[2];
  if (::pipe(fds) != 0) return;
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fds[1], data + written, size - written);
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  ::close(fds[1]);
  std::string payload;
  // The write end is already closed, so a blocking read drains the
  // buffered bytes and then sees EOF — no deadline needed, no hang
  // possible. Forged lengths above kMaxFramePayload must be Garbled, not
  // allocated.
  (void)buffy::procs::readFrame(fds[0], payload, /*deadlineMs=*/-1);
  ::close(fds[0]);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > 65536) return 0;  // pipe capacity; keeps single runs fast
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  try {
    const buffy::procs::WireMap map = buffy::procs::WireMap::decode(bytes);
    // A structurally valid WireMap is what the worker loop and the
    // supervisor feed into the record codecs; both must reject ill-typed
    // fields cleanly.
    try {
      (void)buffy::procs::decodeJob(map);
    } catch (const buffy::procs::ProtocolError&) {
    }
    try {
      (void)buffy::procs::decodeResult(map);
    } catch (const buffy::procs::ProtocolError&) {
    }
  } catch (const buffy::procs::ProtocolError&) {
    // Malformed payload rejected with a structured error: expected.
  }

  fuzzReadFrame(data, size);
  return 0;
}
