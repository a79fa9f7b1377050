#include "ir/term_eval.hpp"

#include <algorithm>
#include <vector>

#include "support/error.hpp"

namespace buffy::ir {

namespace {

std::uint64_t toU(std::int64_t v) { return static_cast<std::uint64_t>(v); }
std::int64_t wrap(std::uint64_t v) { return static_cast<std::int64_t>(v); }

constexpr const char* kMixedArenas =
    "evalTerms: terms from more than one arena";

}  // namespace

std::int64_t evalTerm(TermRef term, const Assignment& assignment) {
  return evalTerms({&term, 1}, assignment).front();
}

std::vector<std::int64_t> evalTerms(std::span<const TermRef> terms,
                                    const Assignment& assignment) {
  // The memo is indexed by term id. Every reachable id is at most the
  // largest root's, because an argument is interned before its term.
  std::uint32_t top = 0;
  for (const TermRef t : terms) top = std::max(top, t->id);
  std::vector<std::int64_t> memo(top + 1, 0);
  // The term whose value memo[id] holds; nullptr until it is evaluated.
  std::vector<TermRef> owner(top + 1, nullptr);
  const auto known = [&owner](TermRef t) {
    const TermRef held = owner[t->id];
    if (held != nullptr && held != t) {
      throw Error(kMixedArenas);
    }
    return held != nullptr;
  };
  std::vector<TermRef> stack(terms.begin(), terms.end());
  while (!stack.empty()) {
    const TermRef t = stack.back();
    if (known(t)) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const TermRef arg : t->args) {
      if (arg->id >= t->id) {
        throw Error(kMixedArenas);
      }
      if (!known(arg)) {
        stack.push_back(arg);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();

    auto arg = [&](std::size_t i) { return memo[t->args[i]->id]; };
    std::int64_t v = 0;
    switch (t->kind) {
      case TermKind::ConstInt:
      case TermKind::ConstBool:
        v = t->value;
        break;
      case TermKind::Var: {
        const auto it = assignment.find(t->name);
        v = it != assignment.end() ? it->second : 0;
        break;
      }
      // Arithmetic wraps (two's complement) instead of invoking signed
      // overflow UB; trace extraction can see arbitrary model values.
      case TermKind::Add: v = wrap(toU(arg(0)) + toU(arg(1))); break;
      case TermKind::Sub: v = wrap(toU(arg(0)) - toU(arg(1))); break;
      case TermKind::Mul: v = wrap(toU(arg(0)) * toU(arg(1))); break;
      case TermKind::Div: v = euclideanDiv(arg(0), arg(1)); break;
      case TermKind::Mod: v = euclideanMod(arg(0), arg(1)); break;
      case TermKind::Neg: v = wrap(0ULL - toU(arg(0))); break;
      case TermKind::Eq: v = arg(0) == arg(1) ? 1 : 0; break;
      case TermKind::Lt: v = arg(0) < arg(1) ? 1 : 0; break;
      case TermKind::Le: v = arg(0) <= arg(1) ? 1 : 0; break;
      case TermKind::And: v = (arg(0) != 0 && arg(1) != 0) ? 1 : 0; break;
      case TermKind::Or: v = (arg(0) != 0 || arg(1) != 0) ? 1 : 0; break;
      case TermKind::Not: v = arg(0) == 0 ? 1 : 0; break;
      case TermKind::Implies: v = (arg(0) == 0 || arg(1) != 0) ? 1 : 0; break;
      case TermKind::Ite: v = arg(0) != 0 ? arg(1) : arg(2); break;
    }
    memo[t->id] = v;
    owner[t->id] = t;
  }
  std::vector<std::int64_t> values;
  values.reserve(terms.size());
  for (const TermRef t : terms) values.push_back(memo[t->id]);
  return values;
}

}  // namespace buffy::ir
