// Unit bounds: constraints that bound one variable by one constant. The
// encoding optimizer seeds its interval analysis with them (DESIGN.md §9),
// and the enumerator reads each variable's domain from them (DESIGN.md §7).
// One recognizer serves both, so a bound one of them sees the other sees
// too.
#pragma once

#include <cstdint>
#include <optional>

#include "ir/term.hpp"

namespace buffy::ir {

/// A closed integer interval with optional (= unbounded) endpoints.
/// Booleans use the subsets of [0, 1].
struct Interval {
  std::optional<std::int64_t> lo;
  std::optional<std::int64_t> hi;

  [[nodiscard]] bool singleton() const { return lo && hi && *lo == *hi; }
  [[nodiscard]] bool empty() const { return lo && hi && *lo > *hi; }
  [[nodiscard]] bool contains(std::int64_t v) const {
    return (!lo || *lo <= v) && (!hi || v <= *hi);
  }
};

/// A unit-bound assertion shape: one Int variable against one constant
/// (Le/Lt/Eq in either orientation), a bare Bool variable, or its
/// negation.
struct SeedShape {
  TermRef var = nullptr;
  std::optional<std::int64_t> lo;
  std::optional<std::int64_t> hi;
};

/// The unit bound `s` states, if it has that shape.
[[nodiscard]] std::optional<SeedShape> seedShape(TermRef s);

/// Tightens `iv` with a seed shape's bounds.
void tighten(Interval& iv, const SeedShape& shape);

}  // namespace buffy::ir
