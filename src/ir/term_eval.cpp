#include "ir/term_eval.hpp"

#include <unordered_map>
#include <vector>

#include "support/error.hpp"

namespace buffy::ir {

namespace {

std::uint64_t toU(std::int64_t v) { return static_cast<std::uint64_t>(v); }
std::int64_t wrap(std::uint64_t v) { return static_cast<std::int64_t>(v); }

}  // namespace

std::int64_t evalTerm(TermRef term, const Assignment& assignment) {
  return evalTerms({&term, 1}, assignment).front();
}

std::vector<std::int64_t> evalTerms(std::span<const TermRef> terms,
                                    const Assignment& assignment) {
  std::unordered_map<const Term*, std::int64_t> memo;
  std::vector<TermRef> stack(terms.begin(), terms.end());
  while (!stack.empty()) {
    const TermRef t = stack.back();
    if (memo.count(t) != 0) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const TermRef arg : t->args) {
      if (memo.count(arg) == 0) {
        stack.push_back(arg);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();

    auto arg = [&](std::size_t i) { return memo.at(t->args[i]); };
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
    memo.emplace(t, v);
  }
  std::vector<std::int64_t> values;
  values.reserve(terms.size());
  for (const TermRef t : terms) values.push_back(memo.at(t));
  return values;
}

}  // namespace buffy::ir
