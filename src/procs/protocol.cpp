#include "procs/protocol.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "support/wire_map.hpp"

namespace buffy::procs {

namespace {

/// Writes all of `data` to `fd`, retrying short writes and EINTR. False on
/// any hard error (EPIPE when the peer died).
bool writeAll(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads exactly `want` bytes within the deadline. Returns Ok/Eof/Timeout;
/// Eof here means the stream ended before `want` bytes arrived (the caller
/// decides whether that is clean or torn based on how much landed).
ReadStatus readExact(int fd, char* out, std::size_t want, std::size_t& got,
                     const std::chrono::steady_clock::time_point* deadline) {
  got = 0;
  while (got < want) {
    if (deadline != nullptr) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= *deadline) return ReadStatus::Timeout;
      const auto leftMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                              *deadline - now)
                              .count();
      struct pollfd pfd = {fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1,
                            static_cast<int>(leftMs > 0 ? leftMs : 1));
      if (pr < 0) {
        if (errno == EINTR) continue;
        return ReadStatus::Eof;
      }
      if (pr == 0) return ReadStatus::Timeout;
    }
    const ssize_t n = ::read(fd, out + got, want - got);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return ReadStatus::Eof;
    }
    if (n == 0) return ReadStatus::Eof;
    got += static_cast<std::size_t>(n);
  }
  return ReadStatus::Ok;
}

}  // namespace

bool writeFrame(int fd, std::string_view payload) {
  return writeAll(fd, sealEnvelope(payload));
}

bool writeGarbledFrame(int fd, std::string_view payload) {
  // One checksum bit flipped: the frame arrives whole but can never
  // validate.
  std::string frame = sealEnvelope(payload);
  frame.back() = static_cast<char>(frame.back() ^ 1);
  return writeAll(fd, frame);
}

bool writePartialFrame(int fd, std::string_view payload) {
  // A torn write: full header promising `size` bytes, then only half of
  // them. The reader sees EOF inside the frame once the writer exits.
  const std::string frame = sealEnvelope(payload);
  return writeAll(fd, std::string_view(frame).substr(
                          0, kEnvelopeHeaderBytes + payload.size() / 2));
}

ReadStatus readFrame(int fd, std::string& payload, int deadlineMs) {
  std::chrono::steady_clock::time_point deadline;
  const std::chrono::steady_clock::time_point* deadlinePtr = nullptr;
  if (deadlineMs >= 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(deadlineMs);
    deadlinePtr = &deadline;
  }

  std::string frame(kEnvelopeHeaderBytes, '\0');
  std::size_t got = 0;
  ReadStatus status =
      readExact(fd, frame.data(), frame.size(), got, deadlinePtr);
  if (status == ReadStatus::Timeout) return ReadStatus::Timeout;
  if (status == ReadStatus::Eof) {
    // EOF before any header byte is a clean shutdown; EOF inside the
    // header is a torn write.
    return got == 0 ? ReadStatus::Eof : ReadStatus::Garbled;
  }
  try {
    frame.resize(kEnvelopeHeaderBytes + envelopePayloadLength(frame) +
                 kEnvelopeTrailerBytes);
    status = readExact(fd, frame.data() + kEnvelopeHeaderBytes,
                       frame.size() - kEnvelopeHeaderBytes, got, deadlinePtr);
    if (status == ReadStatus::Timeout) return ReadStatus::Timeout;
    if (status == ReadStatus::Eof) return ReadStatus::Garbled;
    payload = openEnvelope(frame);
  } catch (const DecodeError&) {
    return ReadStatus::Garbled;
  }
  return ReadStatus::Ok;
}

}  // namespace buffy::procs
