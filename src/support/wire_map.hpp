// Serialized records (DESIGN.md §13, §14): the flat key/value payload codec
// and the integrity envelope that both the worker pipe frame and the
// verdict cache's disk record travel in. No external serialization library.
//
// Envelope layout, integers little-endian:
//   magic "BFY1" | u32 payload length | payload | u64 FNV-1a(payload)
// The checksum trails the payload so a reader can stream a frame: read the
// fixed header, then exactly `length` + 8 more bytes.
//
// Payload layout, lengths u32 little-endian:
//   entry count | (key length | key | value length | value)...
// Entries are written in key order (byte-wise, std::string's order), and a
// value may itself be a payload (nested records: attempts, traces). Every
// writer goes through WireWriter and every reader through WireReader, so
// the format has one implementation; WireMap is the keyed container over
// them, and the verdict records, cache keys and disk records are written
// and read in one pass straight through them.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace buffy {

/// Writes one payload, in one pass, at the end of a caller's buffer. Keys
/// must come in strictly increasing order, the order WireMap::encode
/// writes. Numbers are written as text: integers in decimal, doubles as
/// printf's "%.17g" prints them, bools as "1"/"0".
class WireWriter {
 public:
  /// Starts a payload at the end of `out`.
  explicit WireWriter(std::string& out);

  void put(std::string_view key, std::string_view value);
  void putInt(std::string_view key, std::int64_t value);
  void putUint(std::string_view key, std::uint64_t value);
  void putBool(std::string_view key, bool value);
  void putDouble(std::string_view key, double value);

  /// Starts `key`'s value in place: what the caller appends to the
  /// returned buffer (a nested payload, say) until closeValue() is the
  /// value.
  std::string& openValue(std::string_view key);
  void closeValue();

  /// Writes the entry count; the payload is complete.
  void finish();

 private:
  void putKey(std::string_view key);

  std::string& out_;
  std::size_t countAt_;
  std::size_t valueAt_ = 0;  // where the open value's length word sits
  std::size_t lastKeyAt_ = 0;
  std::size_t lastKeySize_ = 0;
  std::uint32_t count_ = 0;
};

/// Reads one payload, in one pass, as views into its bytes. Structure is
/// validated: an entry count the payload cannot hold throws at
/// construction, and a truncated entry, a repeated key or trailing bytes
/// throw DecodeError before next() reports the end. Entries come back in
/// payload order; any order is accepted.
class WireReader {
 public:
  explicit WireReader(std::string_view payload);

  /// The next entry; false after the last.
  bool next(std::string_view& key, std::string_view& value);

 private:
  [[nodiscard]] std::uint32_t readU32();
  [[nodiscard]] std::string_view readBytes();
  /// The check an out-of-order payload needs: no key is repeated.
  void requireDistinctKeys() const;

  std::string_view bytes_;
  std::size_t off_ = 0;
  std::uint32_t left_ = 0;
  std::string_view lastKey_;
  bool first_ = true;
  bool ordered_ = true;
};

/// Typed field text, parsed whole. Each throws DecodeError naming `key` on
/// an empty or partly numeric text, a sign on an unsigned, or an
/// out-of-range value; a bool is exactly "1" or "0".
std::int64_t parseWireInt(std::string_view key, std::string_view text);
std::uint64_t parseWireUint(std::string_view key, std::string_view text);
bool parseWireBool(std::string_view key, std::string_view text);
double parseWireDouble(std::string_view key, std::string_view text);

/// A present field's text; DecodeError naming `key` when it is absent.
std::string_view requireWireField(std::string_view key,
                                  const std::optional<std::string_view>& text);

/// Reads a record's payload in one pass, keeping the value of each key in
/// `names` (sorted) in the matching slot of the result and handing every
/// other entry to `other(key, value)`.
template <std::size_t N, typename Other>
std::array<std::optional<std::string_view>, N> readWireFields(
    std::string_view payload, const std::array<std::string_view, N>& names,
    Other&& other) {
  std::array<std::optional<std::string_view>, N> values;
  WireReader reader(payload);
  std::string_view key;
  std::string_view value;
  while (reader.next(key, value)) {
    const auto it = std::lower_bound(names.begin(), names.end(), key);
    if (it != names.end() && *it == key) {
      values[static_cast<std::size_t>(it - names.begin())] = value;
    } else {
      other(key, value);
    }
  }
  return values;
}

/// Flat key -> value payload with typed accessors. Encode/decode round
/// trips exactly; decode validates structure (entry counts the payload
/// cannot hold, duplicate keys, trailing bytes) and every accessor throws
/// DecodeError on a missing or ill-typed value.
class WireMap {
 public:
  void set(const std::string& key, std::string value);
  void setInt(const std::string& key, std::int64_t value);
  void setUint(const std::string& key, std::uint64_t value);
  void setBool(const std::string& key, bool value);
  void setDouble(const std::string& key, double value);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const std::string& get(const std::string& key) const;
  [[nodiscard]] std::int64_t getInt(const std::string& key) const;
  [[nodiscard]] std::uint64_t getUint(const std::string& key) const;
  [[nodiscard]] bool getBool(const std::string& key) const;
  [[nodiscard]] double getDouble(const std::string& key) const;

  /// Every entry, in key order.
  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  [[nodiscard]] std::string encode() const;
  static WireMap decode(std::string_view bytes);

 private:
  std::map<std::string, std::string> entries_;
};

/// 64-bit FNV-1a over `bytes`, starting from `seed`.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = 14695981039346656037ull);

/// Magic + payload length.
constexpr std::size_t kEnvelopeHeaderBytes = 8;
/// The checksum after the payload.
constexpr std::size_t kEnvelopeTrailerBytes = 8;
/// Upper bound on one envelope's payload; a larger declared length is
/// malformed. Sized for model sources + full traces with lots of headroom.
constexpr std::uint32_t kMaxEnvelopePayload = 64u * 1024u * 1024u;

/// Wraps `payload` in an envelope.
std::string sealEnvelope(std::string_view payload);

/// Writes an envelope in place: beginEnvelope appends its header to `out`
/// and returns where it starts; whatever the caller appends next is the
/// payload, and endEnvelope fills in the length and appends the checksum.
std::size_t beginEnvelope(std::string& out);
void endEnvelope(std::string& out, std::size_t start);

/// The payload length an envelope's first kEnvelopeHeaderBytes declare.
/// Throws DecodeError on a short header, a wrong magic, or a length past
/// kMaxEnvelopePayload — before anything is allocated for the payload.
std::uint32_t envelopePayloadLength(std::string_view header);

/// The payload of one whole envelope. Throws DecodeError on a bad header,
/// a size that disagrees with the declared length (truncated or trailing
/// bytes), or a checksum mismatch.
std::string_view openEnvelope(std::string_view sealed);

}  // namespace buffy
