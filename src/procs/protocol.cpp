#include "procs/protocol.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace buffy::procs {

namespace {

constexpr std::uint32_t kMagic = 0x42756679;  // "Bufy"

std::uint32_t fnv1a(std::string_view bytes) {
  std::uint32_t hash = 2166136261u;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 16777619u;
  }
  return hash;
}

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t readU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

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

std::string header(std::string_view payload, std::uint32_t checksum) {
  std::string head;
  head.reserve(12);
  putU32(head, kMagic);
  putU32(head, static_cast<std::uint32_t>(payload.size()));
  putU32(head, checksum);
  return head;
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
  return writeAll(fd, header(payload, fnv1a(payload))) &&
         writeAll(fd, payload);
}

bool writeGarbledFrame(int fd, std::string_view payload) {
  // Checksum off by one: the frame arrives whole but can never validate.
  return writeAll(fd, header(payload, fnv1a(payload) + 1)) &&
         writeAll(fd, payload);
}

bool writePartialFrame(int fd, std::string_view payload) {
  // A torn write: full header promising `size` bytes, then only half of
  // them. The reader sees EOF inside the frame once the writer exits.
  return writeAll(fd, header(payload, fnv1a(payload))) &&
         writeAll(fd, payload.substr(0, payload.size() / 2));
}

ReadStatus readFrame(int fd, std::string& payload, int deadlineMs) {
  std::chrono::steady_clock::time_point deadline;
  const std::chrono::steady_clock::time_point* deadlinePtr = nullptr;
  if (deadlineMs >= 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(deadlineMs);
    deadlinePtr = &deadline;
  }

  unsigned char head[12];
  std::size_t got = 0;
  ReadStatus status =
      readExact(fd, reinterpret_cast<char*>(head), sizeof head, got,
                deadlinePtr);
  if (status == ReadStatus::Timeout) return ReadStatus::Timeout;
  if (status == ReadStatus::Eof) {
    // EOF before any header byte is a clean shutdown; EOF inside the
    // header is a torn write.
    return got == 0 ? ReadStatus::Eof : ReadStatus::Garbled;
  }
  if (readU32(head) != kMagic) return ReadStatus::Garbled;
  const std::uint32_t size = readU32(head + 4);
  const std::uint32_t checksum = readU32(head + 8);
  if (size > kMaxFramePayload) return ReadStatus::Garbled;

  payload.resize(size);
  status = readExact(fd, payload.data(), size, got, deadlinePtr);
  if (status == ReadStatus::Timeout) return ReadStatus::Timeout;
  if (status == ReadStatus::Eof) return ReadStatus::Garbled;
  if (fnv1a(payload) != checksum) return ReadStatus::Garbled;
  return ReadStatus::Ok;
}

// ---- WireMap ------------------------------------------------------------

void WireMap::set(const std::string& key, std::string value) {
  entries_[key] = std::move(value);
}

void WireMap::setInt(const std::string& key, std::int64_t value) {
  set(key, std::to_string(value));
}

void WireMap::setUint(const std::string& key, std::uint64_t value) {
  set(key, std::to_string(value));
}

void WireMap::setBool(const std::string& key, bool value) {
  set(key, value ? "1" : "0");
}

void WireMap::setDouble(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  set(key, buf);
}

bool WireMap::has(const std::string& key) const {
  return entries_.count(key) != 0;
}

const std::string& WireMap::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw ProtocolError("wire payload missing key '" + key + "'");
  }
  return it->second;
}

std::optional<std::string> WireMap::maybe(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::int64_t WireMap::getInt(const std::string& key) const {
  const std::string& text = get(key);
  try {
    std::size_t pos = 0;
    const std::int64_t value = std::stoll(text, &pos);
    if (pos != text.size()) throw ProtocolError("");
    return value;
  } catch (const std::exception&) {
    throw ProtocolError("wire key '" + key + "' is not an integer: " + text);
  }
}

std::uint64_t WireMap::getUint(const std::string& key) const {
  const std::string& text = get(key);
  try {
    if (!text.empty() && text[0] == '-') throw ProtocolError("");
    std::size_t pos = 0;
    const std::uint64_t value = std::stoull(text, &pos);
    if (pos != text.size()) throw ProtocolError("");
    return value;
  } catch (const std::exception&) {
    throw ProtocolError("wire key '" + key + "' is not unsigned: " + text);
  }
}

bool WireMap::getBool(const std::string& key) const {
  const std::string& text = get(key);
  if (text == "1") return true;
  if (text == "0") return false;
  throw ProtocolError("wire key '" + key + "' is not a bool: " + text);
}

double WireMap::getDouble(const std::string& key) const {
  const std::string& text = get(key);
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size()) throw ProtocolError("");
    return value;
  } catch (const std::exception&) {
    throw ProtocolError("wire key '" + key + "' is not a number: " + text);
  }
}

std::string WireMap::encode() const {
  std::string out;
  putU32(out, static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [key, value] : entries_) {
    putU32(out, static_cast<std::uint32_t>(key.size()));
    out += key;
    putU32(out, static_cast<std::uint32_t>(value.size()));
    out += value;
  }
  return out;
}

WireMap WireMap::decode(std::string_view bytes) {
  WireMap map;
  std::size_t off = 0;
  auto need = [&](std::size_t n) {
    if (off + n > bytes.size()) {
      throw ProtocolError("wire payload truncated");
    }
  };
  auto u32 = [&]() {
    need(4);
    const std::uint32_t v =
        readU32(reinterpret_cast<const unsigned char*>(bytes.data()) + off);
    off += 4;
    return v;
  };
  auto str = [&]() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(bytes.substr(off, n));
    off += n;
    return s;
  };
  const std::uint32_t count = u32();
  // An entry needs at least two length words; a count the remaining bytes
  // cannot possibly hold is forged, not merely truncated — reject it
  // before looping.
  if (count > (bytes.size() - off) / 8) {
    throw ProtocolError("wire payload entry count exceeds payload size");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key = str();
    std::string value = str();
    if (!map.entries_.emplace(std::move(key), std::move(value)).second) {
      // Same-binary peers never emit duplicates (encode walks a std::map);
      // a duplicate key means forged input with ambiguous last-wins
      // semantics — refuse rather than guess.
      throw ProtocolError("wire payload has duplicate key");
    }
  }
  if (off != bytes.size()) {
    throw ProtocolError("wire payload has trailing bytes");
  }
  return map;
}

}  // namespace buffy::procs
