#include "enumerate/enumerator.hpp"

#include <algorithm>
#include <unordered_map>

#include "ir/unit_bound.hpp"

namespace buffy::enumerate {

namespace {

using ir::TermKind;
using ir::TermRef;

/// The search polls its stop predicate once per this many assignments.
constexpr std::uint64_t kPollInterval = 4096;

/// The top-level conjuncts of `constraints`, with nested Ands split.
std::vector<TermRef> flattenAnds(std::span<const TermRef> constraints) {
  std::vector<TermRef> out;
  std::vector<TermRef> stack(constraints.rbegin(), constraints.rend());
  while (!stack.empty()) {
    const TermRef t = stack.back();
    stack.pop_back();
    if (t->kind == TermKind::And) {
      stack.push_back(t->args[1]);
      stack.push_back(t->args[0]);
    } else {
      out.push_back(t);
    }
  }
  return out;
}

}  // namespace

Enumerator::Enumerator(std::span<const ir::TermRef> constraints) {
  compile(constraints);
}

void Enumerator::decide(Status status, std::string reason) {
  decided_.emplace();
  decided_->status = status;
  decided_->reason = std::move(reason);
}

void Enumerator::compile(std::span<const ir::TermRef> constraints) {
  const std::vector<TermRef> conjuncts = flattenAnds(constraints);

  // Domains from the unit-bound conjuncts.
  std::unordered_map<TermRef, ir::Interval> domain;
  for (const TermRef c : conjuncts) {
    if (c->sort != ir::Sort::Bool) {
      decide(Status::Declined, "constraint is not boolean");
      return;
    }
    if (c->isFalse()) {
      decide(Status::Unsat);
      return;
    }
    const auto shape = ir::seedShape(c);
    if (!shape) continue;
    auto [it, inserted] = domain.try_emplace(shape->var);
    if (inserted && shape->var->sort == ir::Sort::Bool) {
      it->second = ir::Interval{0, 1};
    }
    ir::tighten(it->second, *shape);
    if (it->second.empty()) {
      decide(Status::Unsat);
      return;
    }
  }

  // A variable's domain: its unit bounds, or {0, 1} for a Bool.
  const auto domainOf = [&domain](TermRef v) {
    const auto it = domain.find(v);
    if (it != domain.end()) return it->second;
    return v->sort == ir::Sort::Bool ? ir::Interval{0, 1} : ir::Interval{};
  };

  // Every node the conjuncts reach. The walk declines at the first
  // unbounded variable and as soon as the work seen so far passes the
  // bound, so a problem bound for Z3 pays little here.
  std::vector<TermRef> nodes;
  std::unordered_map<TermRef, std::uint32_t> slot;
  std::uint64_t assignments = 1;
  std::vector<TermRef> stack(conjuncts.begin(), conjuncts.end());
  while (!stack.empty()) {
    const TermRef t = stack.back();
    stack.pop_back();
    if (!slot.try_emplace(t, 0).second) continue;
    nodes.push_back(t);
    if (t->kind == TermKind::Var) {
      const ir::Interval iv = domainOf(t);
      if (!iv.lo || !iv.hi) {
        decide(Status::Declined, "unbounded variable " + t->name);
        return;
      }
      const auto width = ir::foldSub(*iv.hi, *iv.lo);
      if (!width || static_cast<std::uint64_t>(*width) >= kMaxWork) {
        decide(Status::Declined, "work above 2^24");
        return;
      }
      assignments *= static_cast<std::uint64_t>(*width) + 1;
    }
    // Both factors are at most kMaxWork, so the product cannot wrap.
    if (assignments > kMaxWork ||
        assignments * nodes.size() > kMaxWork) {
      decide(Status::Declined, "work above 2^24");
      return;
    }
    for (const TermRef arg : t->args) stack.push_back(arg);
  }

  // Slots in term-id order, which is topological (a term's arguments are
  // interned before it) and puts the variables in creation order. A
  // node's level is one past its deepest variable's position.
  std::sort(nodes.begin(), nodes.end(),
            [](TermRef a, TermRef b) { return a->id < b->id; });
  std::vector<std::size_t> level(nodes.size(), 0);
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    slot[nodes[i]] = i;
    if (nodes[i]->kind != TermKind::Var) continue;
    const ir::Interval iv = domainOf(nodes[i]);
    vars_.push_back(nodes[i]);
    varSlot_.push_back(i);
    lo_.push_back(*iv.lo);
    hi_.push_back(*iv.hi);
    level[i] = vars_.size();
  }
  values_.assign(nodes.size(), 0);
  const std::size_t levels = vars_.size() + 1;
  std::vector<std::vector<Op>> byLevel(levels);
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    const TermRef t = nodes[i];
    if (t->isConst()) {
      values_[i] = t->value;
      continue;
    }
    if (t->kind == TermKind::Var) continue;
    Op op{t->kind, i, 0, 0, 0};
    std::uint32_t* const operand[] = {&op.a, &op.b, &op.c};
    for (std::size_t k = 0; k < t->args.size(); ++k) {
      const std::uint32_t s = slot.at(t->args[k]);
      *operand[k] = s;
      level[i] = std::max(level[i], level[s]);
    }
    if (t->args.size() == 1) op.b = op.a;
    byLevel[level[i]].push_back(op);
  }
  std::vector<std::vector<std::uint32_t>> checksByLevel(levels);
  for (const TermRef c : conjuncts) {
    const std::uint32_t s = slot.at(c);
    checksByLevel[level[s]].push_back(s);
  }
  for (std::size_t l = 0; l < levels; ++l) {
    opStart_.push_back(ops_.size());
    ops_.insert(ops_.end(), byLevel[l].begin(), byLevel[l].end());
    checkStart_.push_back(checks_.size());
    checks_.insert(checks_.end(), checksByLevel[l].begin(),
                   checksByLevel[l].end());
  }
  opStart_.push_back(ops_.size());
  checkStart_.push_back(checks_.size());

  // Level 0 holds what no variable touches (folds the arena kept
  // symbolic because they overflow, and their consumers).
  if (!evalLevel(0)) {
    decide(Status::Declined, "int64 overflow");
  } else if (!checksPass(0)) {
    decide(Status::Unsat);
  }
}

bool Enumerator::evalLevel(std::size_t level) {
  std::int64_t* const v = values_.data();
  for (std::size_t i = opStart_[level]; i < opStart_[level + 1]; ++i) {
    const Op& op = ops_[i];
    const std::int64_t a = v[op.a];
    const std::int64_t b = v[op.b];
    std::optional<std::int64_t> r;
    switch (op.kind) {
      case TermKind::Add: r = ir::foldAdd(a, b); break;
      case TermKind::Sub: r = ir::foldSub(a, b); break;
      case TermKind::Mul: r = ir::foldMul(a, b); break;
      case TermKind::Neg: r = ir::foldNeg(a); break;
      case TermKind::Div:
        // INT64_MIN div -1 is the one quotient that does not fit.
        if (a == INT64_MIN && b == -1) return false;
        r = ir::euclideanDiv(a, b);
        break;
      case TermKind::Mod: r = ir::euclideanMod(a, b); break;
      case TermKind::Eq: r = a == b ? 1 : 0; break;
      case TermKind::Lt: r = a < b ? 1 : 0; break;
      case TermKind::Le: r = a <= b ? 1 : 0; break;
      case TermKind::And: r = (a != 0 && b != 0) ? 1 : 0; break;
      case TermKind::Or: r = (a != 0 || b != 0) ? 1 : 0; break;
      case TermKind::Not: r = a == 0 ? 1 : 0; break;
      case TermKind::Implies: r = (a == 0 || b != 0) ? 1 : 0; break;
      case TermKind::Ite: r = a != 0 ? b : v[op.c]; break;
      case TermKind::ConstInt:
      case TermKind::ConstBool:
      case TermKind::Var: break;  // leaves are never operations
    }
    if (!r) return false;
    v[op.dst] = *r;
  }
  return true;
}

bool Enumerator::checksPass(std::size_t level) const {
  for (std::size_t i = checkStart_[level]; i < checkStart_[level + 1]; ++i) {
    if (values_[checks_[i]] == 0) return false;
  }
  return true;
}

Outcome Enumerator::run(const std::function<bool()>& stop) {
  if (decided_) return *decided_;
  Outcome out;
  if (stop()) {
    out.status = Status::Stopped;
    return out;
  }
  const std::size_t n = vars_.size();
  std::vector<std::int64_t> cur(lo_);
  std::size_t k = 0;
  std::uint64_t tried = 0;
  while (n != 0) {
    if (++tried % kPollInterval == 0 && stop()) {
      out.status = Status::Stopped;
      return out;
    }
    values_[varSlot_[k]] = cur[k];
    if (!evalLevel(k + 1)) {
      out.status = Status::Declined;
      out.reason = "int64 overflow";
      return out;
    }
    if (checksPass(k + 1)) {
      if (k + 1 == n) break;
      ++k;
      cur[k] = lo_[k];
      continue;
    }
    while (cur[k] == hi_[k]) {
      if (k == 0) {
        out.status = Status::Unsat;
        return out;
      }
      --k;
    }
    ++cur[k];
  }
  out.status = Status::Sat;
  for (std::size_t i = 0; i < n; ++i) out.model[vars_[i]->name] = cur[i];
  return out;
}

}  // namespace buffy::enumerate
