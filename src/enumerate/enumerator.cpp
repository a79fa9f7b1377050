#include "enumerate/enumerator.hpp"

#include <algorithm>

#include "ir/unit_bound.hpp"

namespace buffy::enumerate {

namespace {

using ir::Interval;
using ir::TermKind;
using ir::TermRef;

/// The search polls its stop predicate once per this many assignments.
constexpr std::uint64_t kPollInterval = 4096;

constexpr const char* kMixedArenas = "terms from more than one arena";

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

std::uint64_t hashKey(const std::int64_t* key, std::size_t width) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ width;
  for (std::size_t i = 0; i < width; ++i) {
    h ^= static_cast<std::uint64_t>(key[i]);
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
  }
  return h;
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

  // Every node the conjuncts reach, in a table indexed by term id: an
  // argument is interned before its term, so no reachable id exceeds the
  // largest conjunct's. A second term on a taken id, or an argument whose
  // id is not below its term's, comes from another arena.
  std::uint32_t top = 0;
  for (const TermRef c : conjuncts) top = std::max(top, c->id);
  std::vector<TermRef> owner(top + 1, nullptr);
  std::vector<TermRef> walkVars;  // in the walk's (depth-first) order
  std::vector<TermRef> stack(conjuncts.begin(), conjuncts.end());
  while (!stack.empty()) {
    const TermRef t = stack.back();
    stack.pop_back();
    if (owner[t->id] == t) continue;
    if (owner[t->id] != nullptr) {
      decide(Status::Declined, kMixedArenas);
      return;
    }
    owner[t->id] = t;
    if (t->kind == TermKind::Var) walkVars.push_back(t);
    for (const TermRef arg : t->args) {
      if (arg->id >= t->id) {
        decide(Status::Declined, kMixedArenas);
        return;
      }
      stack.push_back(arg);
    }
  }

  // Slots in term-id order, which is topological and puts the variables
  // in creation order. A node's level is one past its deepest variable's
  // position.
  std::vector<TermRef> nodes;
  std::vector<std::uint32_t> slotOf(top + 1, 0);
  for (const TermRef t : owner) {
    if (t == nullptr) continue;
    slotOf[t->id] = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(t);
  }
  std::vector<std::size_t> level(nodes.size(), 0);
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i]->kind != TermKind::Var) continue;
    vars_.push_back(nodes[i]);
    varSlot_.push_back(i);
    level[i] = vars_.size();
  }
  // A variable's position in vars_.
  const auto varIndex = [&](TermRef v) { return level[slotOf[v->id]] - 1; };

  // Domains: each variable's unit bounds, within {0, 1} for a Bool.
  std::vector<Interval> varDomains;
  for (const TermRef v : vars_) {
    varDomains.push_back(v->sort == ir::Sort::Bool ? Interval{0, 1}
                                                   : Interval{});
  }
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
    Interval& domain = varDomains[varIndex(shape->var)];
    ir::tighten(domain, *shape);
    if (domain.empty()) {
      decide(Status::Unsat);
      return;
    }
  }
  // The first variable the walk met without a lower bound declines the
  // problem.
  for (const TermRef v : walkVars) {
    if (!varDomains[varIndex(v)].lo) {
      decide(Status::Declined, "unbounded variable " + v->name);
      return;
    }
  }
  for (const Interval& iv : varDomains) {
    lo_.push_back(*iv.lo);
    hi_.push_back(iv.hi.value_or(*iv.lo));  // saturate() sets one-sided
  }

  std::vector<ArgSlots> args(nodes.size(), ArgSlots{});
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
    for (std::size_t k = 0; k < t->args.size(); ++k) {
      args[i][k] = slotOf[t->args[k]->id];
      level[i] = std::max(level[i], level[args[i][k]]);
    }
    for (std::size_t k = t->args.size(); k < 3; ++k) args[i][k] = args[i][0];
    byLevel[level[i]].push_back(Op{t->kind, i, args[i][0], args[i][1],
                                   args[i][2]});
  }
  std::vector<std::vector<std::uint32_t>> checksByLevel(levels);
  std::vector<char> isCheck(nodes.size(), 0);
  for (const TermRef c : conjuncts) {
    const std::uint32_t s = slotOf[c->id];
    if (isCheck[s] != 0) continue;
    isCheck[s] = 1;
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
    return;
  }
  if (!checksPass(0)) {
    decide(Status::Unsat);
    return;
  }
  if (!saturate(nodes, args, isCheck, varDomains)) return;
  buildDeadSets(level);
}

std::vector<Enumerator::Domain> Enumerator::domains() const {
  std::vector<Domain> out;
  if (decided_) return out;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    out.push_back(Domain{vars_[i], lo_[i], hi_[i]});
  }
  return out;
}

bool Enumerator::saturate(std::span<const TermRef> nodes,
                          const std::vector<ArgSlots>& args,
                          const std::vector<char>& isCheck,
                          const std::vector<Interval>& varDomains) {
  std::vector<std::size_t> oneSided;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (!varDomains[i].hi) oneSided.push_back(i);
  }
  if (oneSided.empty()) return true;

  // Every node's interval with each variable over its own domain (the
  // one-sided ones at [lo, ∞)).
  const std::size_t n = nodes.size();
  std::vector<std::uint32_t> varIndex(n, 0);
  for (std::uint32_t i = 0; i < vars_.size(); ++i) varIndex[varSlot_[i]] = i;
  std::vector<Interval> base(n);
  const auto intervalAt = [&](std::uint32_t s, const std::vector<Interval>& iv) {
    const TermRef t = nodes[s];
    if (t->kind == TermKind::Var) return varDomains[varIndex[s]];
    const Interval in[3] = {iv[args[s][0]], iv[args[s][1]], iv[args[s][2]]};
    return ir::nodeInterval(t, std::span<const Interval>(in, t->args.size()));
  };
  for (std::uint32_t s = 0; s < n; ++s) base[s] = intervalAt(s, base);

  std::vector<Interval> iv = base;
  std::vector<char> dep(n, 0);
  std::vector<char> inCone(n, 0);
  std::vector<std::uint32_t> cone;
  for (const std::size_t i : oneSided) {
    // The variable's forward cone, ascending: slots are topological, so
    // one pass over the slots after its own finds every reader.
    const std::uint32_t sv = varSlot_[i];
    cone.assign(1, sv);
    inCone[sv] = 1;
    for (std::uint32_t s = sv + 1; s < n; ++s) {
      const ArgSlots& a = args[s];
      if (!nodes[s]->args.empty() &&
          (inCone[a[0]] | inCone[a[1]] | inCone[a[2]]) != 0) {
        inCone[s] = 1;
        cone.push_back(s);
      }
    }

    // True when, with v in [u, ∞), no conjunct depends on v: a node with a
    // singleton interval does not, an ite with a decided guard depends
    // only through its branch, any other node when an argument does.
    const auto insensitive = [&](std::int64_t u) {
      iv[sv] = Interval{u, std::nullopt};
      dep[sv] = 1;
      for (const std::uint32_t s : cone) {
        if (s == sv) continue;
        const TermRef t = nodes[s];
        iv[s] = intervalAt(s, iv);
        const ArgSlots& a = args[s];
        if (iv[s].singleton()) {
          dep[s] = 0;
        } else if (t->kind == TermKind::Ite && iv[a[0]].definitelyTrue()) {
          dep[s] = dep[a[1]];
        } else if (t->kind == TermKind::Ite && iv[a[0]].definitelyFalse()) {
          dep[s] = dep[a[2]];
        } else {
          dep[s] = static_cast<char>(dep[a[0]] | dep[a[1]] | dep[a[2]]);
        }
        if (dep[s] != 0 && isCheck[s] != 0) return false;
      }
      return true;
    };

    // Doubling, then bisection between the last failure and the first
    // success; only tested values are ever taken.
    const std::int64_t lo = lo_[i];
    std::optional<std::int64_t> threshold;
    if (insensitive(lo)) {
      threshold = lo;
    } else {
      std::int64_t fail = lo;
      for (std::int64_t step = 1; step <= kMaxThreshold; step *= 2) {
        const auto candidate = ir::foldAdd(lo, step);
        if (!candidate) break;
        if (insensitive(*candidate)) {
          threshold = candidate;
          break;
        }
        fail = *candidate;
      }
      while (threshold && *threshold - fail > 1) {
        const std::int64_t mid = fail + (*threshold - fail) / 2;
        if (insensitive(mid)) {
          threshold = mid;
        } else {
          fail = mid;
        }
      }
    }
    for (const std::uint32_t s : cone) {
      iv[s] = base[s];
      dep[s] = 0;
      inCone[s] = 0;
    }
    if (!threshold) {
      decide(Status::Declined, "no saturation threshold for " + vars_[i]->name);
      return false;
    }
    hi_[i] = *threshold;
    ++saturated_;
  }
  return true;
}

void Enumerator::buildDeadSets(const std::vector<std::size_t>& level) {
  // A slot is live at cut k when it is computed at a level in [1, k] and
  // an operation at a level above k reads it. Level-0 slots never change.
  std::vector<std::size_t> lastReader(level);
  for (const Op& op : ops_) {
    for (const std::uint32_t a : {op.a, op.b, op.c}) {
      lastReader[a] = std::max(lastReader[a], level[op.dst]);
    }
  }
  const std::size_t cuts = vars_.size();
  const auto liveUntil = [&](std::uint32_t s) {
    return level[s] == 0 ? 0 : std::min(lastReader[s], cuts);
  };
  // Each cut's width, from a difference array over the slots' spans.
  std::vector<std::int64_t> width(cuts + 1, 0);
  for (std::uint32_t s = 0; s < level.size(); ++s) {
    if (level[s] < liveUntil(s)) {
      ++width[level[s]];
      --width[liveUntil(s)];
    }
  }
  std::size_t slots = 0;
  for (std::size_t k = 1; k < cuts; ++k) {
    width[k] += width[k - 1];
    slots += static_cast<std::size_t>(width[k]);
    liveWidth_ = std::max(liveWidth_, static_cast<std::uint64_t>(width[k]));
  }
  // The slot lists and key buffers count against the byte cap; a problem
  // whose cuts alone would pass it is searched without the memo.
  memoBytes_ = slots * (sizeof(std::uint32_t) + sizeof(std::int64_t));
  if (memoBytes_ > kMaxMemoBytes) return;
  dead_.resize(cuts);
  for (std::size_t k = 1; k < cuts; ++k) {
    dead_[k].live.reserve(static_cast<std::size_t>(width[k]));
    dead_[k].key.assign(static_cast<std::size_t>(width[k]), 0);
  }
  for (std::uint32_t s = 0; s < level.size(); ++s) {
    for (std::size_t k = level[s]; k < liveUntil(s); ++k) {
      dead_[k].live.push_back(s);
    }
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

bool Enumerator::refuted(DeadSet& dead) {
  const std::size_t width = dead.live.size();
  for (std::size_t i = 0; i < width; ++i) {
    dead.key[i] = values_[dead.live[i]];
  }
  dead.hash = hashKey(dead.key.data(), width);
  if (dead.count == 0) return false;
  const std::size_t mask = dead.table.size() - 1;
  for (std::size_t b = dead.hash & mask;; b = (b + 1) & mask) {
    const std::uint32_t entry = dead.table[b];
    if (entry == 0) return false;
    const std::int64_t* stored = dead.pool.data() + (entry - 1) * width;
    if (std::equal(stored, stored + width, dead.key.data())) return true;
  }
}

void Enumerator::storeRefuted(DeadSet& dead) {
  if (memoBytes_ >= kMaxMemoBytes) return;
  const std::size_t width = dead.live.size();
  const std::size_t bytesBefore =
      dead.pool.capacity() * sizeof(std::int64_t) +
      dead.table.capacity() * sizeof(std::uint32_t);
  const auto place = [&dead](std::uint64_t hash, std::uint32_t entry) {
    const std::size_t mask = dead.table.size() - 1;
    std::size_t b = hash & mask;
    while (dead.table[b] != 0) b = (b + 1) & mask;
    dead.table[b] = entry;
  };
  if ((dead.count + 1) * 2 > dead.table.size()) {
    dead.table.assign(std::max<std::size_t>(16, dead.table.size() * 2), 0);
    for (std::uint32_t e = 0; e < dead.count; ++e) {
      place(hashKey(dead.pool.data() + e * width, width), e + 1);
    }
  }
  dead.pool.insert(dead.pool.end(), dead.key.begin(), dead.key.end());
  ++dead.count;
  place(dead.hash, dead.count);
  memoBytes_ += dead.pool.capacity() * sizeof(std::int64_t) +
                dead.table.capacity() * sizeof(std::uint32_t) - bytesBefore;
}

Outcome Enumerator::run(const std::function<bool()>& stop) {
  Outcome out;
  if (decided_) {
    out = *decided_;
  } else if (stop()) {
    out.status = Status::Stopped;
  } else {
    const std::size_t n = vars_.size();
    std::vector<std::int64_t> cur(lo_);
    std::size_t k = 0;
    std::uint64_t& evaluations = out.stats.evaluations;
    const auto finish = [&](Status status, const char* reason = "") {
      out.status = status;
      out.reason = reason;
    };
    out.status = Status::Sat;
    while (n != 0) {
      if (++out.stats.visited % kPollInterval == 0 && stop()) {
        finish(Status::Stopped);
        break;
      }
      values_[varSlot_[k]] = cur[k];
      evaluations += 1 + opStart_[k + 2] - opStart_[k + 1];
      if (evaluations > kMaxEvaluations) {
        finish(Status::Declined, "evaluations above 2^27");
        break;
      }
      if (!evalLevel(k + 1)) {
        finish(Status::Declined, "int64 overflow");
        break;
      }
      if (checksPass(k + 1)) {
        if (k + 1 == n) break;
        if (dead_.empty() || !refuted(dead_[k + 1])) {
          ++k;
          cur[k] = lo_[k];
          continue;
        }
        ++out.stats.memoHits;
      }
      while (cur[k] == hi_[k] && k != 0) {
        if (!dead_.empty()) storeRefuted(dead_[k]);
        --k;
      }
      if (cur[k] == hi_[k]) {
        finish(Status::Unsat);
        break;
      }
      ++cur[k];
    }
    if (out.status == Status::Sat) {
      for (std::size_t i = 0; i < n; ++i) out.model[vars_[i]->name] = cur[i];
    }
  }
  for (const DeadSet& dead : dead_) out.stats.deadEntries += dead.count;
  out.stats.liveWidth = liveWidth_;
  out.stats.saturated = saturated_;
  return out;
}

}  // namespace buffy::enumerate
