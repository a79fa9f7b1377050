// Unit bounds and the interval domain built on them. A unit bound is a
// constraint that bounds one variable by one constant. The encoding
// optimizer seeds its interval analysis with them (DESIGN.md §9), and the
// enumerator reads each variable's domain from them and derives saturation
// thresholds with the same interval rules (DESIGN.md §7). One recognizer
// and one set of rules serve both, so a fact one of them sees the other
// sees too.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

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
  /// A Bool interval that excludes 0 / excludes 1.
  [[nodiscard]] bool definitelyTrue() const { return lo && *lo >= 1; }
  [[nodiscard]] bool definitelyFalse() const { return hi && *hi <= 0; }
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

/// The interval of `t` given its arguments' intervals (`args[i]` belongs
/// to `t->args[i]`), sound over mathematical integers: an endpoint that
/// would overflow int64 is dropped (unbounded) rather than wrapped.
/// Constants are exact; a variable gets its sort's full range, which
/// callers replace with its domain. Arithmetic follows the lowering
/// (Euclidean div/mod, x/0 = x%0 = 0). Boolean connectives and comparisons
/// are decided where their arguments decide them; an ite with a decided
/// guard takes its branch, and the min/max shapes `ite(x <= y, x, y)` /
/// `ite(y <= x, x, y)` keep the bound either side gives (capacity clamps
/// and `min(incoming, room)` live on them). An empty result — inputs the
/// node cannot see together — reads as unknown.
[[nodiscard]] Interval nodeInterval(TermRef t, std::span<const Interval> args);

}  // namespace buffy::ir
