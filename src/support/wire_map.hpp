// Serialized records (DESIGN.md §13, §14): the flat key/value payload codec
// and the integrity envelope that both the worker pipe frame and the
// verdict cache's disk record travel in. No external serialization library.
//
// Envelope layout, integers little-endian:
//   magic "BFY1" | u32 payload length | payload | u64 FNV-1a(payload)
// The checksum trails the payload so a reader can stream a frame: read the
// fixed header, then exactly `length` + 8 more bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace buffy {

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

/// The payload length an envelope's first kEnvelopeHeaderBytes declare.
/// Throws DecodeError on a short header, a wrong magic, or a length past
/// kMaxEnvelopePayload — before anything is allocated for the payload.
std::uint32_t envelopePayloadLength(std::string_view header);

/// The payload of one whole envelope. Throws DecodeError on a bad header,
/// a size that disagrees with the declared length (truncated or trailing
/// bytes), or a checksum mismatch.
std::string_view openEnvelope(std::string_view sealed);

}  // namespace buffy
