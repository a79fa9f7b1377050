#include "ir/term_hash.hpp"

#include <algorithm>
#include <array>
#include <vector>

namespace buffy::ir {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// One multiply + avalanche per 64-bit lane instead of the byte-at-a-time
// FNV loop: every interned term is hashed, and the lane-wise mix is ~8x
// cheaper while staying a pure deterministic function of the value
// (cross-run stability is the only contract; see the header).
constexpr std::uint64_t mixU64(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * kFnvPrime;
  h ^= h >> 31;
  return h;
}

std::uint64_t mixBytes(std::uint64_t h, std::string_view s) {
  h = mixU64(h, s.size());
  std::size_t i = 0;
  // Little-endian lane assembly via shifts (compilers lower this to a
  // plain load); byte order is pinned so the hash never depends on host
  // endianness.
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t lane = 0;
    for (int b = 0; b < 8; ++b) {
      lane |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(s[i + static_cast<std::size_t>(b)]))
              << (8 * b);
    }
    h = mixU64(h, lane);
  }
  if (i < s.size()) {
    std::uint64_t lane = 0;
    for (int b = 0; i < s.size(); ++i, ++b) {
      lane |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[i]))
              << (8 * b);
    }
    h = mixU64(h, lane);
  }
  return h;
}

constexpr std::uint64_t mixFields(TermKind kind, Sort sort,
                                  std::uint64_t value) {
  std::uint64_t h = kFnvOffset;
  h = mixU64(h, (static_cast<std::uint64_t>(kind) << 8) |
                    static_cast<std::uint64_t>(sort));
  return mixU64(h, value);
}

constexpr std::size_t kKinds = static_cast<std::size_t>(TermKind::Ite) + 1;
constexpr std::size_t kArities = TermArgs::kCapacity + 1;

constexpr std::size_t prefixIndex(TermKind kind, Sort sort,
                                  std::size_t arity) {
  return (static_cast<std::size_t>(kind) * 2 + static_cast<std::size_t>(sort)) *
             kArities +
         arity;
}

// The hash of an operator term (value 0, no name) before its arguments'
// hashes are mixed in, for every kind, sort and arity. Interning mixes
// only the arguments onto it.
constexpr auto kOperatorPrefix = [] {
  std::array<std::uint64_t, kKinds * 2 * kArities> table{};
  for (std::size_t k = 0; k < kKinds; ++k) {
    for (const Sort sort : {Sort::Int, Sort::Bool}) {
      for (std::size_t arity = 0; arity < kArities; ++arity) {
        const auto kind = static_cast<TermKind>(k);
        std::uint64_t h = mixFields(kind, sort, 0);
        h = mixU64(h, 0);  // the empty name's length; it has no lanes
        table[prefixIndex(kind, sort, arity)] = mixU64(h, arity);
      }
    }
  }
  return table;
}();

}  // namespace

std::uint64_t structuralHash(TermKind kind, Sort sort, std::int64_t value,
                             std::string_view name,
                             std::span<const TermRef> args) {
  std::uint64_t h = 0;
  if (value == 0 && name.empty()) {
    h = kOperatorPrefix[prefixIndex(kind, sort, args.size())];
  } else {
    h = mixFields(kind, sort, static_cast<std::uint64_t>(value));
    h = mixBytes(h, name);
    h = mixU64(h, args.size());
  }
  for (const TermRef arg : args) h = mixU64(h, arg->hash);
  // Kept off 0 so every stored hash matches the one cache directories
  // written before hashes moved onto the term were keyed by.
  return h == 0 ? 1 : h;
}

std::uint64_t hashSet(std::span<const TermRef> terms) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(terms.size());
  for (const TermRef term : terms) hashes.push_back(term->hash);
  std::sort(hashes.begin(), hashes.end());
  std::uint64_t h = mixU64(kFnvOffset, hashes.size());
  for (const std::uint64_t each : hashes) h = mixU64(h, each);
  return h;
}

}  // namespace buffy::ir
