#include "support/wire_map.hpp"

#include <cassert>
#include <charconv>
#include <type_traits>
#include <vector>

namespace buffy {

namespace {

constexpr std::string_view kMagic = "BFY1";

/// Appends the low `width` bytes of `v`, little-endian.
void putLe(std::string& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Overwrites the 4 bytes at `at` with `v`, little-endian.
void patchLe32(std::string& out, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 4; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
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

/// Room for any number's text: "-2.2250738585072014e-308" is the longest.
constexpr std::size_t kNumberChars = 32;

/// `value` as a payload writes it. For a double, the general format at 17
/// significant digits prints exactly what printf's "%.17g" does.
template <typename T>
std::string_view numberText(char (&buf)[kNumberChars], T value) {
  std::to_chars_result done{};
  if constexpr (std::is_floating_point_v<T>) {
    done = std::to_chars(buf, buf + kNumberChars, value,
                         std::chars_format::general, 17);
  } else {
    done = std::to_chars(buf, buf + kNumberChars, value);
  }
  return {buf, static_cast<std::size_t>(done.ptr - buf)};
}

/// All of `text` as a T; DecodeError naming `key` and what was expected
/// on anything else.
template <typename T>
T parseWhole(std::string_view key, std::string_view text, const char* what) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto parsed = std::from_chars(text.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end) {
    throw DecodeError("wire key '" + std::string(key) + "' is not " + what +
                      ": " + std::string(text));
  }
  return value;
}

}  // namespace

// ---- typed fields -------------------------------------------------------

std::int64_t parseWireInt(std::string_view key, std::string_view text) {
  return parseWhole<std::int64_t>(key, text, "an integer");
}

std::uint64_t parseWireUint(std::string_view key, std::string_view text) {
  return parseWhole<std::uint64_t>(key, text, "unsigned");
}

bool parseWireBool(std::string_view key, std::string_view text) {
  if (text == "1") return true;
  if (text == "0") return false;
  throw DecodeError("wire key '" + std::string(key) +
                    "' is not a bool: " + std::string(text));
}

double parseWireDouble(std::string_view key, std::string_view text) {
  return parseWhole<double>(key, text, "a number");
}

std::string_view requireWireField(std::string_view key,
                                  const std::optional<std::string_view>& text) {
  if (!text) {
    throw DecodeError("wire payload missing key '" + std::string(key) + "'");
  }
  return *text;
}

// ---- WireWriter ---------------------------------------------------------

WireWriter::WireWriter(std::string& out) : out_(out), countAt_(out.size()) {
  putLe(out_, 0, 4);
}

void WireWriter::putKey(std::string_view key) {
  assert(count_ == 0 ||
         std::string_view(out_).substr(lastKeyAt_, lastKeySize_) < key);
  putLe(out_, key.size(), 4);
  lastKeyAt_ = out_.size();
  lastKeySize_ = key.size();
  out_ += key;
  ++count_;
}

void WireWriter::put(std::string_view key, std::string_view value) {
  putKey(key);
  putLe(out_, value.size(), 4);
  out_ += value;
}

void WireWriter::putInt(std::string_view key, std::int64_t value) {
  char buf[kNumberChars];
  put(key, numberText(buf, value));
}

void WireWriter::putUint(std::string_view key, std::uint64_t value) {
  char buf[kNumberChars];
  put(key, numberText(buf, value));
}

void WireWriter::putBool(std::string_view key, bool value) {
  put(key, value ? "1" : "0");
}

void WireWriter::putDouble(std::string_view key, double value) {
  char buf[kNumberChars];
  put(key, numberText(buf, value));
}

std::string& WireWriter::openValue(std::string_view key) {
  putKey(key);
  valueAt_ = out_.size();
  putLe(out_, 0, 4);
  return out_;
}

void WireWriter::closeValue() {
  patchLe32(out_, valueAt_, out_.size() - valueAt_ - 4);
}

void WireWriter::finish() { patchLe32(out_, countAt_, count_); }

// ---- WireReader ---------------------------------------------------------

WireReader::WireReader(std::string_view payload) : bytes_(payload) {
  left_ = readU32();
  // An entry needs at least two length words; a count the remaining bytes
  // cannot possibly hold is forged, not merely truncated — reject it
  // before anything loops over it.
  if (left_ > (bytes_.size() - off_) / 8) {
    throw DecodeError("wire payload entry count exceeds payload size");
  }
}

std::uint32_t WireReader::readU32() {
  if (4 > bytes_.size() - off_) throw DecodeError("wire payload truncated");
  const auto v = static_cast<std::uint32_t>(readLe(bytes_, off_, 4));
  off_ += 4;
  return v;
}

std::string_view WireReader::readBytes() {
  const std::uint32_t n = readU32();
  if (n > bytes_.size() - off_) throw DecodeError("wire payload truncated");
  const std::string_view out = bytes_.substr(off_, n);
  off_ += n;
  return out;
}

bool WireReader::next(std::string_view& key, std::string_view& value) {
  if (left_ == 0) {
    if (off_ != bytes_.size()) {
      throw DecodeError("wire payload has trailing bytes");
    }
    if (!ordered_) requireDistinctKeys();
    return false;
  }
  --left_;
  key = readBytes();
  value = readBytes();
  // Writers emit keys in increasing order, where one comparison per entry
  // rules out a repeat; any other order pays a sort at the end.
  if (!first_ && !(lastKey_ < key)) ordered_ = false;
  first_ = false;
  lastKey_ = key;
  return true;
}

void WireReader::requireDistinctKeys() const {
  // Encoders never emit duplicates; a duplicate key means forged input
  // with ambiguous last-wins semantics — refuse rather than guess. The
  // first pass validated the framing, so the rescan only collects keys.
  std::vector<std::string_view> keys;
  WireReader again(bytes_);
  while (again.left_ > 0) {
    --again.left_;
    keys.push_back(again.readBytes());
    (void)again.readBytes();
  }
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    throw DecodeError("wire payload has duplicate key");
  }
}

// ---- WireMap ------------------------------------------------------------

void WireMap::set(const std::string& key, std::string value) {
  entries_[key] = std::move(value);
}

void WireMap::setInt(const std::string& key, std::int64_t value) {
  char buf[kNumberChars];
  set(key, std::string(numberText(buf, value)));
}

void WireMap::setUint(const std::string& key, std::uint64_t value) {
  char buf[kNumberChars];
  set(key, std::string(numberText(buf, value)));
}

void WireMap::setBool(const std::string& key, bool value) {
  set(key, value ? "1" : "0");
}

void WireMap::setDouble(const std::string& key, double value) {
  char buf[kNumberChars];
  set(key, std::string(numberText(buf, value)));
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
  return parseWireInt(key, get(key));
}

std::uint64_t WireMap::getUint(const std::string& key) const {
  return parseWireUint(key, get(key));
}

bool WireMap::getBool(const std::string& key) const {
  return parseWireBool(key, get(key));
}

double WireMap::getDouble(const std::string& key) const {
  return parseWireDouble(key, get(key));
}

std::string WireMap::encode() const {
  std::string out;
  WireWriter writer(out);
  for (const auto& [key, value] : entries_) writer.put(key, value);
  writer.finish();
  return out;
}

WireMap WireMap::decode(std::string_view bytes) {
  WireMap map;
  WireReader reader(bytes);
  std::string_view key;
  std::string_view value;
  while (reader.next(key, value)) {
    map.entries_.emplace(key, value);
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
  const std::size_t start = beginEnvelope(out);
  out += payload;
  endEnvelope(out, start);
  return out;
}

std::size_t beginEnvelope(std::string& out) {
  const std::size_t start = out.size();
  out += kMagic;
  putLe(out, 0, 4);
  return start;
}

void endEnvelope(std::string& out, std::size_t start) {
  const std::size_t payloadAt = start + kEnvelopeHeaderBytes;
  const std::size_t length = out.size() - payloadAt;
  patchLe32(out, start + kMagic.size(), length);
  putLe(out, fnv1a64(std::string_view(out).substr(payloadAt, length)), 8);
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
