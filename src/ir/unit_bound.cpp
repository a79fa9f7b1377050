#include "ir/unit_bound.hpp"

#include <algorithm>
#include <cstdlib>

namespace buffy::ir {

std::optional<SeedShape> seedShape(TermRef s) {
  if (s->kind == TermKind::Var && s->sort == Sort::Bool) {
    return SeedShape{s, 1, 1};
  }
  if (s->kind == TermKind::Not && s->args[0]->kind == TermKind::Var) {
    return SeedShape{s->args[0], 0, 0};
  }
  if (s->kind != TermKind::Le && s->kind != TermKind::Lt &&
      s->kind != TermKind::Eq) {
    return std::nullopt;
  }
  const TermRef a = s->args[0];
  const TermRef b = s->args[1];
  if (a->kind == TermKind::Var && a->sort == Sort::Int &&
      b->kind == TermKind::ConstInt) {
    if (s->kind == TermKind::Le) return SeedShape{a, std::nullopt, b->value};
    if (s->kind == TermKind::Eq) return SeedShape{a, b->value, b->value};
    if (const auto hi = foldSub(b->value, 1)) {  // a < c  ⇒  a <= c-1
      return SeedShape{a, std::nullopt, *hi};
    }
    return std::nullopt;
  }
  if (b->kind == TermKind::Var && b->sort == Sort::Int &&
      a->kind == TermKind::ConstInt) {
    if (s->kind == TermKind::Le) return SeedShape{b, a->value, std::nullopt};
    if (s->kind == TermKind::Eq) return SeedShape{b, a->value, a->value};
    if (const auto lo = foldAdd(a->value, 1)) {  // c < b  ⇒  c+1 <= b
      return SeedShape{b, *lo, std::nullopt};
    }
    return std::nullopt;
  }
  return std::nullopt;
}

void tighten(Interval& iv, const SeedShape& shape) {
  if (shape.lo) iv.lo = iv.lo ? std::max(*iv.lo, *shape.lo) : *shape.lo;
  if (shape.hi) iv.hi = iv.hi ? std::min(*iv.hi, *shape.hi) : *shape.hi;
}

namespace {

using Bound = std::optional<std::int64_t>;

Bound bAdd(Bound a, Bound b) {
  if (!a || !b) return std::nullopt;
  return foldAdd(*a, *b);
}

Bound bSub(Bound a, Bound b) {
  if (!a || !b) return std::nullopt;
  return foldSub(*a, *b);
}

Bound bNeg(Bound a) {
  if (!a) return std::nullopt;
  return foldNeg(*a);
}

/// min/max requiring both bounds (hulls: an absent side wins).
Bound hullMin(Bound a, Bound b) {
  if (!a || !b) return std::nullopt;
  return std::min(*a, *b);
}

Bound hullMax(Bound a, Bound b) {
  if (!a || !b) return std::nullopt;
  return std::max(*a, *b);
}

/// min/max where an absent side loses (for the min/max ite pattern: the
/// result is <= both arguments, so any present upper bound applies).
Bound presentMin(Bound a, Bound b) {
  if (!a) return b;
  if (!b) return a;
  return std::min(*a, *b);
}

Bound presentMax(Bound a, Bound b) {
  if (!a) return b;
  if (!b) return a;
  return std::max(*a, *b);
}

Interval exactInterval(std::int64_t v) { return Interval{v, v}; }
Interval anyBool() { return Interval{0, 1}; }
Interval boolInterval(bool v) { return exactInterval(v ? 1 : 0); }

Interval decidedOr(std::optional<bool> d) {
  return d ? boolInterval(*d) : anyBool();
}

/// a < b, a <= b and a == b when the intervals decide them.
std::optional<bool> ltDecided(const Interval& a, const Interval& b) {
  if (a.hi && b.lo && *a.hi < *b.lo) return true;
  if (a.lo && b.hi && *a.lo >= *b.hi) return false;
  return std::nullopt;
}

std::optional<bool> leDecided(const Interval& a, const Interval& b) {
  if (a.hi && b.lo && *a.hi <= *b.lo) return true;
  if (a.lo && b.hi && *a.lo > *b.hi) return false;
  return std::nullopt;
}

std::optional<bool> eqDecided(const Interval& a, const Interval& b) {
  if ((a.hi && b.lo && *a.hi < *b.lo) || (b.hi && a.lo && *b.hi < *a.lo)) {
    return false;
  }
  if (a.singleton() && b.singleton() && *a.lo == *b.lo) return true;
  return std::nullopt;
}

Interval ivAdd(const Interval& a, const Interval& b) {
  return Interval{bAdd(a.lo, b.lo), bAdd(a.hi, b.hi)};
}

Interval ivSub(const Interval& a, const Interval& b) {
  return Interval{bSub(a.lo, b.hi), bSub(a.hi, b.lo)};
}

Interval ivNeg(const Interval& a) {
  return Interval{bNeg(a.hi), bNeg(a.lo)};
}

Interval ivMul(const Interval& a, const Interval& b) {
  if (!a.lo || !a.hi || !b.lo || !b.hi) return {};
  const Bound c1 = foldMul(*a.lo, *b.lo);
  const Bound c2 = foldMul(*a.lo, *b.hi);
  const Bound c3 = foldMul(*a.hi, *b.lo);
  const Bound c4 = foldMul(*a.hi, *b.hi);
  if (!c1 || !c2 || !c3 || !c4) return {};
  return Interval{std::min({*c1, *c2, *c3, *c4}),
                  std::max({*c1, *c2, *c3, *c4})};
}

/// Euclidean modulo is always >= 0 (and 0 when the divisor is 0).
Interval ivMod(const Interval& a, const Interval& b) {
  Interval out{std::int64_t{0}, std::nullopt};
  if (b.lo && b.hi) {
    const std::int64_t maxAbs =
        std::max(*b.lo == INT64_MIN ? INT64_MAX : std::abs(*b.lo),
                 *b.hi == INT64_MIN ? INT64_MAX : std::abs(*b.hi));
    out.hi = maxAbs > 0 ? maxAbs - 1 : 0;
  }
  if (a.lo && *a.lo >= 0 && a.hi) out.hi = presentMin(out.hi, a.hi);
  return out;
}

Interval ivDiv(const Interval& a, const Interval& b) {
  // Only the common shape matters: non-negative numerator, positive
  // divisor — the quotient shrinks toward zero.
  if (a.lo && *a.lo >= 0 && b.lo && *b.lo >= 1) {
    return Interval{std::int64_t{0}, a.hi};
  }
  return {};
}

}  // namespace

Interval nodeInterval(TermRef t, std::span<const Interval> args) {
  const auto iv = [&]() -> Interval {
    switch (t->kind) {
      case TermKind::ConstInt:
      case TermKind::ConstBool:
        return exactInterval(t->value);
      case TermKind::Var:
        return t->sort == Sort::Bool ? anyBool() : Interval{};
      case TermKind::Add: return ivAdd(args[0], args[1]);
      case TermKind::Sub: return ivSub(args[0], args[1]);
      case TermKind::Mul: return ivMul(args[0], args[1]);
      case TermKind::Div: return ivDiv(args[0], args[1]);
      case TermKind::Mod: return ivMod(args[0], args[1]);
      case TermKind::Neg: return ivNeg(args[0]);
      case TermKind::Eq: return decidedOr(eqDecided(args[0], args[1]));
      case TermKind::Lt: return decidedOr(ltDecided(args[0], args[1]));
      case TermKind::Le: return decidedOr(leDecided(args[0], args[1]));
      case TermKind::And: {
        const Interval& a = args[0];
        const Interval& b = args[1];
        if (a.definitelyFalse() || b.definitelyFalse()) {
          return boolInterval(false);
        }
        if (a.definitelyTrue() && b.definitelyTrue()) {
          return boolInterval(true);
        }
        return anyBool();
      }
      case TermKind::Or: {
        const Interval& a = args[0];
        const Interval& b = args[1];
        if (a.definitelyTrue() || b.definitelyTrue()) {
          return boolInterval(true);
        }
        if (a.definitelyFalse() && b.definitelyFalse()) {
          return boolInterval(false);
        }
        return anyBool();
      }
      case TermKind::Not: {
        if (args[0].definitelyTrue()) return boolInterval(false);
        if (args[0].definitelyFalse()) return boolInterval(true);
        return anyBool();
      }
      case TermKind::Implies: {
        const Interval& a = args[0];
        const Interval& b = args[1];
        if (a.definitelyFalse() || b.definitelyTrue()) {
          return boolInterval(true);
        }
        if (a.definitelyTrue() && b.definitelyFalse()) {
          return boolInterval(false);
        }
        return anyBool();
      }
      case TermKind::Ite: {
        const TermRef c = t->args[0];
        const Interval& x = args[1];
        const Interval& y = args[2];
        if (args[0].definitelyTrue()) return x;
        if (args[0].definitelyFalse()) return y;
        if (c->kind == TermKind::Le || c->kind == TermKind::Lt) {
          if (c->args[0] == t->args[1] && c->args[1] == t->args[2]) {  // min
            return Interval{hullMin(x.lo, y.lo), presentMin(x.hi, y.hi)};
          }
          if (c->args[0] == t->args[2] && c->args[1] == t->args[1]) {  // max
            return Interval{presentMax(x.lo, y.lo), hullMax(x.hi, y.hi)};
          }
        }
        return Interval{hullMin(x.lo, y.lo), hullMax(x.hi, y.hi)};
      }
    }
    return Interval{};
  }();
  if (iv.empty()) return t->sort == Sort::Bool ? anyBool() : Interval{};
  return iv;
}

}  // namespace buffy::ir
