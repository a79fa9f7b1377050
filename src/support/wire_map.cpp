#include "support/wire_map.hpp"

#include <charconv>
#include <cstdio>

namespace buffy {

namespace {

constexpr std::string_view kMagic = "BFY1";

/// Appends the low `width` bytes of `v`, little-endian.
void putLe(std::string& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Little-endian unsigned of `width` bytes at `at`; the caller has checked
/// that they exist.
std::uint64_t readLe(std::string_view bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

/// All of `text` as a T; DecodeError naming `key` and what was expected
/// on anything else (an empty or partly numeric text, a sign on an
/// unsigned, an out-of-range value).
template <typename T>
T parseWhole(const std::string& key, const std::string& text,
             const char* what) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto parsed = std::from_chars(text.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end) {
    throw DecodeError("wire key '" + key + "' is not " + what + ": " + text);
  }
  return value;
}

}  // namespace

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
    throw DecodeError("wire payload missing key '" + key + "'");
  }
  return it->second;
}

std::int64_t WireMap::getInt(const std::string& key) const {
  return parseWhole<std::int64_t>(key, get(key), "an integer");
}

std::uint64_t WireMap::getUint(const std::string& key) const {
  return parseWhole<std::uint64_t>(key, get(key), "unsigned");
}

bool WireMap::getBool(const std::string& key) const {
  const std::string& text = get(key);
  if (text == "1") return true;
  if (text == "0") return false;
  throw DecodeError("wire key '" + key + "' is not a bool: " + text);
}

double WireMap::getDouble(const std::string& key) const {
  return parseWhole<double>(key, get(key), "a number");
}

std::string WireMap::encode() const {
  std::string out;
  putLe(out, entries_.size(), 4);
  for (const auto& [key, value] : entries_) {
    putLe(out, key.size(), 4);
    out += key;
    putLe(out, value.size(), 4);
    out += value;
  }
  return out;
}

WireMap WireMap::decode(std::string_view bytes) {
  WireMap map;
  std::size_t off = 0;
  auto need = [&](std::size_t n) {
    if (n > bytes.size() - off) {
      throw DecodeError("wire payload truncated");
    }
  };
  auto u32 = [&]() {
    need(4);
    const auto v = static_cast<std::uint32_t>(readLe(bytes, off, 4));
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
    throw DecodeError("wire payload entry count exceeds payload size");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key = str();
    std::string value = str();
    if (!map.entries_.emplace(std::move(key), std::move(value)).second) {
      // Encode walks a std::map and never emits duplicates; a duplicate
      // key means forged input with ambiguous last-wins semantics —
      // refuse rather than guess.
      throw DecodeError("wire payload has duplicate key");
    }
  }
  if (off != bytes.size()) {
    throw DecodeError("wire payload has trailing bytes");
  }
  return map;
}

// ---- envelope -----------------------------------------------------------

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return hash;
}

std::string sealEnvelope(std::string_view payload) {
  std::string out;
  out.reserve(kEnvelopeHeaderBytes + payload.size() + kEnvelopeTrailerBytes);
  out += kMagic;
  putLe(out, payload.size(), 4);
  out += payload;
  putLe(out, fnv1a64(payload), 8);
  return out;
}

std::uint32_t envelopePayloadLength(std::string_view header) {
  if (header.size() < kEnvelopeHeaderBytes) {
    throw DecodeError("envelope header truncated");
  }
  if (header.substr(0, kMagic.size()) != kMagic) {
    throw DecodeError("envelope has a wrong magic");
  }
  const auto length = static_cast<std::uint32_t>(readLe(header, 4, 4));
  if (length > kMaxEnvelopePayload) {
    throw DecodeError("envelope payload length " + std::to_string(length) +
                      " exceeds the cap");
  }
  return length;
}

std::string_view openEnvelope(std::string_view sealed) {
  const std::uint32_t length = envelopePayloadLength(sealed);
  if (sealed.size() != kEnvelopeHeaderBytes + length + kEnvelopeTrailerBytes) {
    throw DecodeError("envelope size disagrees with its declared length");
  }
  const std::string_view payload = sealed.substr(kEnvelopeHeaderBytes, length);
  if (fnv1a64(payload) != readLe(sealed, kEnvelopeHeaderBytes + length, 8)) {
    throw DecodeError("envelope checksum mismatch");
  }
  return payload;
}

}  // namespace buffy
