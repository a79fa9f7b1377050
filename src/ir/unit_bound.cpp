#include "ir/unit_bound.hpp"

#include <algorithm>

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

}  // namespace buffy::ir
