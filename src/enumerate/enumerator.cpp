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
constexpr const char* kOverflow = "int64 overflow";
constexpr const char* kNotBoolean = "constraint is not boolean";

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

/// One past the largest conjunct's id: an argument is interned before its
/// term, so no node the conjuncts reach has a larger id.
std::size_t idBound(std::span<const TermRef> conjuncts) {
  std::uint32_t top = 0;
  for (const TermRef c : conjuncts) top = std::max(top, c->id);
  return std::size_t{top} + 1;
}

/// Marks in `owner` (indexed by term id, sized by idBound) every node
/// `conjuncts` reach, depth-first from the last conjunct, and appends the
/// variables to `vars` in the order the walk meets them. False when two
/// reachable terms share an id, or an argument's id is not below its
/// term's: the terms come from more than one arena.
bool reach(std::span<const TermRef> conjuncts, std::vector<TermRef>& owner,
           std::vector<TermRef>* vars) {
  std::vector<TermRef> stack(conjuncts.begin(), conjuncts.end());
  while (!stack.empty()) {
    const TermRef t = stack.back();
    stack.pop_back();
    if (owner[t->id] == t) continue;
    if (owner[t->id] != nullptr) return false;
    owner[t->id] = t;
    if (vars != nullptr && t->kind == TermKind::Var) vars->push_back(t);
    for (const TermRef arg : t->args) {
      if (arg->id >= t->id) return false;
      stack.push_back(arg);
    }
  }
  return true;
}

/// Groups `items` by level with a stable counting sort: level l's items
/// land in out[start[l] .. start[l + 1]), in their order in `items`.
template <typename T, typename LevelOf>
void groupByLevel(const std::vector<T>& items, std::size_t levels,
                  const LevelOf& levelOf, std::vector<T>& out,
                  std::vector<std::uint32_t>& start) {
  start.assign(levels + 1, 0);
  for (const T& item : items) ++start[levelOf(item) + 1];
  for (std::size_t l = 0; l < levels; ++l) start[l + 1] += start[l];
  std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
  out.resize(items.size());
  for (const T& item : items) out[next[levelOf(item)]++] = item;
}

/// Term id to slot, by open addressing: the reach table of the few nodes a
/// delta adds to its layout.
class IdMap {
 public:
  struct Entry {
    TermRef term = nullptr;
    std::uint32_t id = 0;
    std::uint32_t slot = 0;
  };

  explicit IdMap(std::size_t expected) {
    std::size_t size = 16;
    while (size < 2 * expected) size *= 2;
    table_.resize(size);
  }

  /// The entry of the term with `id`; its `term` is null when none was
  /// added.
  Entry& find(std::uint32_t id) {
    const std::size_t mask = table_.size() - 1;
    std::size_t b = (id * 2654435769u) & mask;
    while (table_[b].term != nullptr && table_[b].id != id) {
      b = (b + 1) & mask;
    }
    return table_[b];
  }

  /// Adds `t` unless a term with its id is there already; returns that
  /// term, or null when `t` was added.
  TermRef insert(TermRef t) {
    if ((count_ + 1) * 2 > table_.size()) {
      std::vector<Entry> old(table_.size() * 2);
      old.swap(table_);
      for (const Entry& e : old) {
        if (e.term != nullptr) find(e.id) = e;
      }
    }
    Entry& e = find(t->id);
    if (e.term != nullptr) return e.term;
    e = Entry{t, t->id, 0};
    ++count_;
    return nullptr;
  }

 private:
  std::vector<Entry> table_;
  std::size_t count_ = 0;
};

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

// ---- the layout -------------------------------------------------------------

void Layout::decide(Stage stage, Status status, std::string reason) {
  decided_ = Decision{stage, status, std::move(reason)};
}

std::optional<Status> Layout::tighten(std::span<const TermRef> conjuncts,
                                      std::vector<Interval>& domains) const {
  for (const TermRef c : conjuncts) {
    if (c->sort != ir::Sort::Bool) return Status::Declined;
    if (c->isFalse()) return Status::Unsat;
    const auto shape = ir::seedShape(c);
    if (!shape) continue;
    Interval& domain = domains[varIndex(shape->var)];
    ir::tighten(domain, *shape);
    if (domain.empty()) return Status::Unsat;
  }
  return std::nullopt;
}

Layout::Layout(std::span<const TermRef> constraints)
    : conjuncts_(flattenAnds(constraints)) {
  owner_.assign(idBound(conjuncts_), nullptr);
  if (!reach(conjuncts_, owner_, nullptr)) {
    decide(Stage::Walk, Status::Declined, kMixedArenas);
    return;
  }

  // Slots in term-id order, which is topological and puts the variables
  // in creation order.
  slotOf_.assign(owner_.size(), 0);
  for (const TermRef t : owner_) {
    if (t == nullptr) continue;
    slotOf_[t->id] = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(t);
  }
  const std::size_t n = nodes_.size();
  level_.assign(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (nodes_[i]->kind != TermKind::Var) continue;
    vars_.push_back(nodes_[i]);
    varSlot_.push_back(i);
    level_[i] = static_cast<std::uint32_t>(vars_.size());
  }

  // Domains: each variable's unit bounds, within {0, 1} for a Bool.
  for (const TermRef v : vars_) {
    domains_.push_back(v->sort == ir::Sort::Bool ? Interval{0, 1}
                                                 : Interval{});
  }
  if (const auto status = tighten(conjuncts_, domains_)) {
    decide(Stage::Conjunct, *status, *status == Status::Declined
                                          ? kNotBoolean
                                          : "");
    return;
  }

  const std::size_t levels = vars_.size() + 1;
  args_.assign(n, ArgSlots{});
  values_.assign(n, 0);
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const TermRef t = nodes_[i];
    if (t->isConst()) {
      values_[i] = t->value;
      continue;
    }
    if (t->kind == TermKind::Var) continue;
    ArgSlots& a = args_[i];
    for (std::size_t k = 0; k < t->args.size(); ++k) {
      a[k] = slotOf_[t->args[k]->id];
      level_[i] = std::max(level_[i], level_[a[k]]);
    }
    for (std::size_t k = t->args.size(); k < 3; ++k) a[k] = a[0];
    ops.push_back(Op{t->kind, i, a[0], a[1], a[2]});
  }
  groupByLevel(ops, levels, [this](const Op& op) { return level_[op.dst]; },
               ops_, opStart_);
  isCheck_.assign(n, 0);
  std::vector<std::uint32_t> checks;
  for (const TermRef c : conjuncts_) {
    const std::uint32_t s = slotOf_[c->id];
    if (isCheck_[s] != 0) continue;
    isCheck_[s] = 1;
    checks.push_back(s);
  }
  groupByLevel(checks, levels, [this](std::uint32_t s) { return level_[s]; },
               checks_, checkStart_);

  // Level 0 holds what no variable touches (folds the arena kept
  // symbolic because they overflow, and their consumers).
  if (!evalOps(ops_.data(), ops_.data() + opStart_[1], values_.data())) {
    decide(Stage::LevelZero, Status::Declined, kOverflow);
    return;
  }
  for (std::uint32_t i = 0; i < checkStart_[1]; ++i) {
    if (values_[checks_[i]] == 0) {
      decide(Stage::LevelZero, Status::Unsat);
      return;
    }
  }

  // A slot is live at cut k when it is computed at a level in [1, k] and
  // an operation at a level above k reads it. Level-0 slots never change.
  lastReader_ = level_;
  for (const Op& op : ops_) {
    for (const std::uint32_t a : {op.a, op.b, op.c}) {
      lastReader_[a] = std::max(lastReader_[a], level_[op.dst]);
    }
  }
  // Each cut's width, from a difference array over the slots' spans.
  const std::size_t cuts = vars_.size();
  std::vector<std::int32_t> change(cuts + 1, 0);
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::size_t until = liveUntil(level_[s], lastReader_[s]);
    if (level_[s] < until) {
      ++change[level_[s]];
      --change[until];
    }
  }
  liveStart_.assign(cuts + 1, 0);
  std::int32_t width = 0;
  for (std::size_t k = 0; k < cuts; ++k) {
    width += change[k];
    liveStart_[k + 1] = liveStart_[k] + static_cast<std::uint32_t>(width);
  }
  live_.resize(liveStart_[cuts]);
  std::vector<std::uint32_t> next(liveStart_.begin(), liveStart_.end() - 1);
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::size_t until = liveUntil(level_[s], lastReader_[s]);
    for (std::size_t k = level_[s]; k < until; ++k) live_[next[k]++] = s;
  }
}

bool Layout::evalOps(const Op* op, const Op* end, std::int64_t* v) {
  for (; op != end; ++op) {
    const std::int64_t a = v[op->a];
    const std::int64_t b = v[op->b];
    std::optional<std::int64_t> r;
    switch (op->kind) {
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
      case TermKind::Ite: r = a != 0 ? b : v[op->c]; break;
      case TermKind::ConstInt:
      case TermKind::ConstBool:
      case TermKind::Var: break;  // leaves are never operations
    }
    if (!r) return false;
    v[op->dst] = *r;
  }
  return true;
}

// ---- the extension ----------------------------------------------------------

Enumerator::Enumerator(std::span<const TermRef> constraints)
    : Enumerator(std::make_shared<const Layout>(constraints), {}) {
  setupNodes_ += layout_->nodes();
}

Enumerator::Enumerator(std::shared_ptr<const Layout> layout,
                       std::span<const TermRef> delta)
    : layout_(std::move(layout)) {
  extend(flattenAnds(delta));
}

void Enumerator::decide(Status status, std::string reason) {
  decided_.emplace();
  decided_->status = status;
  decided_->reason = std::move(reason);
}

Enumerator::Walk Enumerator::walkDelta(
    std::span<const TermRef> conjuncts,
    std::vector<std::uint32_t>& conjunctSlots) {
  const Layout& base = *layout_;
  const std::size_t known = base.owner_.size();
  IdMap fresh(4 * conjuncts.size());
  std::vector<std::uint32_t> ids;
  std::vector<TermRef> stack(conjuncts.begin(), conjuncts.end());
  while (!stack.empty()) {
    const TermRef t = stack.back();
    stack.pop_back();
    if (t->id < known && base.owner_[t->id] != nullptr) {
      if (base.owner_[t->id] == t) continue;
      return Walk::MixedArenas;
    }
    const TermRef seen = fresh.insert(t);
    if (seen == t) continue;
    if (seen != nullptr) return Walk::MixedArenas;
    if (t->kind == TermKind::Var) return Walk::NewVariable;
    ids.push_back(t->id);
    for (const TermRef arg : t->args) {
      if (arg->id >= t->id) return Walk::MixedArenas;
      stack.push_back(arg);
    }
  }

  // The delta's slots follow the layout's in term-id order. Both halves
  // stay topological: no layout node reads a delta node.
  std::sort(ids.begin(), ids.end());
  const auto first = static_cast<std::uint32_t>(base.nodes_.size());
  deltaNodes_.reserve(ids.size());
  for (const std::uint32_t id : ids) {
    IdMap::Entry& e = fresh.find(id);
    e.slot = first + static_cast<std::uint32_t>(deltaNodes_.size());
    deltaNodes_.push_back(e.term);
  }
  const auto slotOf = [&](TermRef t) {
    return t->id < known && base.owner_[t->id] == t ? base.slotOf_[t->id]
                                                     : fresh.find(t->id).slot;
  };
  deltaArgs_.assign(deltaNodes_.size(), ArgSlots{});
  for (std::size_t i = 0; i < deltaNodes_.size(); ++i) {
    const TermRef t = deltaNodes_[i];
    for (std::size_t k = 0; k < t->args.size(); ++k) {
      deltaArgs_[i][k] = slotOf(t->args[k]);
    }
    for (std::size_t k = t->args.size(); k < 3; ++k) {
      deltaArgs_[i][k] = deltaArgs_[i][0];
    }
  }
  for (const TermRef c : conjuncts) conjunctSlots.push_back(slotOf(c));
  return Walk::Ok;
}

void Enumerator::extend(const std::vector<TermRef>& delta) {
  const Layout& base = *layout_;
  const auto bothHalves = [&base, &delta] {
    std::vector<TermRef> all = base.conjuncts_;
    all.insert(all.end(), delta.begin(), delta.end());
    return all;
  };
  // A fresh compile's decisions, earliest stage first: a walk decline from
  // either half; the conjunct loop, the layout's conjuncts before the
  // delta's; the first unbounded variable; level 0; saturation.
  if (base.decided_ && base.decided_->stage == Layout::Stage::Walk) {
    decide(Status::Declined, kMixedArenas);
    return;
  }
  std::vector<std::uint32_t> conjunctSlots;
  switch (walkDelta(delta, conjunctSlots)) {
    case Walk::Ok: break;
    case Walk::MixedArenas:
      decide(Status::Declined, kMixedArenas);
      return;
    case Walk::NewVariable: {
      // Variables are searched in creation order, so the delta's would
      // reorder the layout's: lay out both halves afresh.
      layout_ = std::make_shared<const Layout>(bothHalves());
      setupNodes_ = layout_->nodes();
      extend({});
      return;
    }
  }
  setupNodes_ += deltaNodes_.size();
  if (base.decided_ && base.decided_->stage == Layout::Stage::Conjunct) {
    decide(base.decided_->status, base.decided_->reason);
    return;
  }

  std::vector<Interval> varDomains = base.domains_;
  if (const auto status = base.tighten(delta, varDomains)) {
    decide(*status, *status == Status::Declined ? kNotBoolean : "");
    return;
  }
  if (std::any_of(varDomains.begin(), varDomains.end(),
                  [](const Interval& iv) { return !iv.lo; })) {
    // The first variable a fresh walk of both halves meets without a lower
    // bound declines the problem; the walk starts from the last conjunct,
    // so it may be the delta that names it.
    const std::vector<TermRef> all = bothHalves();
    std::vector<TermRef> owner(idBound(all), nullptr);
    std::vector<TermRef> walkVars;
    (void)reach(all, owner, &walkVars);
    for (const TermRef v : walkVars) {
      if (!varDomains[base.varIndex(v)].lo) {
        decide(Status::Declined, "unbounded variable " + v->name);
        return;
      }
    }
  }
  for (const Interval& iv : varDomains) {
    lo_.push_back(*iv.lo);
    hi_.push_back(iv.hi.value_or(*iv.lo));  // saturate() sets one-sided
  }

  layOutDelta(conjunctSlots);
  // Level 0: an overflow in either half comes before a false check.
  const bool overflow =
      (base.decided_ && base.decided_->status == Status::Declined) ||
      !Layout::evalOps(deltaOps_.data(), deltaOps_.data() + deltaOpStart_[1],
                       values_.data());
  if (overflow) {
    decide(Status::Declined, kOverflow);
    return;
  }
  if (base.decided_ || !checksPass(0)) {
    decide(Status::Unsat);
    return;
  }

  if (std::any_of(varDomains.begin(), varDomains.end(),
                  [](const Interval& iv) { return !iv.hi; })) {
    std::vector<TermRef> nodes = base.nodes_;
    nodes.insert(nodes.end(), deltaNodes_.begin(), deltaNodes_.end());
    std::vector<ArgSlots> args = base.args_;
    args.insert(args.end(), deltaArgs_.begin(), deltaArgs_.end());
    std::vector<char> isCheck = base.isCheck_;
    isCheck.resize(nodes.size(), 0);
    for (const std::uint32_t s : deltaChecks_) isCheck[s] = 1;
    if (!saturate(nodes, args, isCheck, varDomains)) return;
  }
  buildDeadSets();
}

void Enumerator::layOutDelta(const std::vector<std::uint32_t>& conjunctSlots) {
  const Layout& base = *layout_;
  const auto first = static_cast<std::uint32_t>(base.nodes_.size());
  const std::size_t levels = base.vars_.size() + 1;
  const auto levelOf = [&](std::uint32_t s) {
    return s < first ? base.level_[s] : deltaLevel_[s - first];
  };
  values_.reserve(first + deltaNodes_.size());
  values_.assign(base.values_.begin(), base.values_.end());
  values_.resize(first + deltaNodes_.size(), 0);
  deltaLevel_.assign(deltaNodes_.size(), 0);
  std::vector<Op> ops;
  for (std::uint32_t i = 0; i < deltaNodes_.size(); ++i) {
    const TermRef t = deltaNodes_[i];
    if (t->isConst()) {
      values_[first + i] = t->value;
      continue;
    }
    const ArgSlots& a = deltaArgs_[i];
    for (const std::uint32_t s : a) {
      deltaLevel_[i] = std::max(deltaLevel_[i], levelOf(s));
    }
    ops.push_back(Op{t->kind, first + i, a[0], a[1], a[2]});
  }
  groupByLevel(ops, levels, [&](const Op& op) { return levelOf(op.dst); },
               deltaOps_, deltaOpStart_);

  // The delta's conjuncts that are not checks already, each once.
  std::vector<std::uint32_t> checks;
  for (const std::uint32_t s : conjunctSlots) {
    if (s < first && base.isCheck_[s] != 0) continue;
    checks.push_back(s);
  }
  std::sort(checks.begin(), checks.end());
  checks.erase(std::unique(checks.begin(), checks.end()), checks.end());
  groupByLevel(checks, levels, levelOf, deltaChecks_, deltaCheckStart_);
}

std::vector<Enumerator::Domain> Enumerator::domains() const {
  std::vector<Domain> out;
  if (decided_) return out;
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    out.push_back(Domain{layout_->vars_[i], lo_[i], hi_[i]});
  }
  return out;
}

bool Enumerator::saturate(std::span<const TermRef> nodes,
                          std::span<const ArgSlots> args,
                          std::span<const char> isCheck,
                          const std::vector<Interval>& varDomains) {
  const Layout& base = *layout_;
  std::vector<std::size_t> oneSided;
  for (std::size_t i = 0; i < varDomains.size(); ++i) {
    if (!varDomains[i].hi) oneSided.push_back(i);
  }

  // Every node's interval with each variable over its own domain (the
  // one-sided ones at [lo, ∞)).
  const std::size_t n = nodes.size();
  std::vector<std::uint32_t> varIndex(n, 0);
  for (std::uint32_t i = 0; i < base.varSlot_.size(); ++i) {
    varIndex[base.varSlot_[i]] = i;
  }
  const auto intervalAt = [&](std::uint32_t s, const std::vector<Interval>& iv) {
    const TermRef t = nodes[s];
    if (t->kind == TermKind::Var) return varDomains[varIndex[s]];
    const Interval in[3] = {iv[args[s][0]], iv[args[s][1]], iv[args[s][2]]};
    return ir::nodeInterval(t, std::span<const Interval>(in, t->args.size()));
  };
  std::vector<Interval> baseIv(n);
  for (std::uint32_t s = 0; s < n; ++s) baseIv[s] = intervalAt(s, baseIv);

  std::vector<Interval> iv = baseIv;
  std::vector<char> dep(n, 0);
  std::vector<char> inCone(n, 0);
  // The probe that last changed each node's interval or dependence.
  std::vector<std::uint32_t> changedIn(n, 0);
  std::uint32_t probe = 0;
  std::vector<std::uint32_t> cone;
  for (const std::size_t i : oneSided) {
    // The variable's forward cone, ascending: slots are topological, so
    // one pass over the slots after its own finds every reader.
    const std::uint32_t sv = base.varSlot_[i];
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
    // only through its branch, any other node when an argument does. A
    // node is re-evaluated only when an argument changed in this probe;
    // one that stops early leaves the cone after that point stale, so the
    // next probe re-evaluates it whatever its arguments did.
    std::size_t staleFrom = cone.size();
    const auto insensitive = [&](std::int64_t u) {
      ++probe;
      iv[sv] = Interval{u, std::nullopt};
      dep[sv] = 1;
      changedIn[sv] = probe;
      const std::size_t stale = staleFrom;
      staleFrom = cone.size();
      for (std::size_t p = 1; p < cone.size(); ++p) {
        const std::uint32_t s = cone[p];
        const ArgSlots& a = args[s];
        if (p >= stale || changedIn[a[0]] == probe ||
            changedIn[a[1]] == probe || changedIn[a[2]] == probe) {
          const TermKind kind = nodes[s]->kind;
          const Interval next = intervalAt(s, iv);
          char d = 0;
          if (next.singleton()) {
            d = 0;
          } else if (kind == TermKind::Ite && iv[a[0]].definitelyTrue()) {
            d = dep[a[1]];
          } else if (kind == TermKind::Ite && iv[a[0]].definitelyFalse()) {
            d = dep[a[2]];
          } else {
            d = static_cast<char>(dep[a[0]] | dep[a[1]] | dep[a[2]]);
          }
          if (next.lo != iv[s].lo || next.hi != iv[s].hi || d != dep[s]) {
            iv[s] = next;
            dep[s] = d;
            changedIn[s] = probe;
          }
        }
        if (dep[s] != 0 && isCheck[s] != 0) {
          staleFrom = p + 1;
          return false;
        }
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
      iv[s] = baseIv[s];
      dep[s] = 0;
      inCone[s] = 0;
    }
    if (!threshold) {
      decide(Status::Declined,
             "no saturation threshold for " + base.vars_[i]->name);
      return false;
    }
    hi_[i] = *threshold;
    ++saturated_;
  }
  return true;
}

void Enumerator::buildDeadSets() {
  const Layout& base = *layout_;
  const auto first = static_cast<std::uint32_t>(base.nodes_.size());
  const std::size_t cuts = base.vars_.size();

  // The cuts the delta makes each slot live at, [from, to): a layout slot
  // a delta operation reads past its layout span, and a delta slot over
  // its own span.
  struct Span {
    std::uint32_t slot;
    std::size_t from;
    std::size_t to;
  };
  std::vector<Span> spans;
  std::vector<std::uint32_t> lastReader(deltaLevel_);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reads;
  for (const Op& op : deltaOps_) {
    const std::uint32_t level = deltaLevel_[op.dst - first];
    for (const std::uint32_t a : {op.a, op.b, op.c}) {
      if (a >= first) {
        lastReader[a - first] = std::max(lastReader[a - first], level);
      } else if (level > base.lastReader_[a]) {
        reads.emplace_back(a, level);
      }
    }
  }
  std::sort(reads.begin(), reads.end());
  for (std::size_t r = 0; r < reads.size(); ++r) {
    if (r + 1 < reads.size() && reads[r + 1].first == reads[r].first) continue;
    const std::uint32_t s = reads[r].first;  // the last, highest reader
    const std::size_t was = Layout::liveUntil(base.level_[s], base.lastReader_[s]);
    const std::size_t until = Layout::liveUntil(base.level_[s], reads[r].second);
    if (was < until) spans.push_back(Span{s, was, until});
  }
  for (std::uint32_t i = 0; i < deltaLevel_.size(); ++i) {
    const std::size_t until = Layout::liveUntil(deltaLevel_[i], lastReader[i]);
    if (deltaLevel_[i] < until) {
      spans.push_back(Span{first + i, deltaLevel_[i], until});
    }
  }

  extraStart_.assign(cuts + 1, 0);
  for (const Span& span : spans) {
    for (std::size_t k = span.from; k < span.to; ++k) ++extraStart_[k + 1];
  }
  for (std::size_t k = 0; k < cuts; ++k) extraStart_[k + 1] += extraStart_[k];
  const auto width = [&](std::size_t k) {
    return base.liveStart_[k + 1] - base.liveStart_[k] + extraStart_[k + 1] -
           extraStart_[k];
  };
  for (std::size_t k = 1; k < cuts; ++k) {
    liveWidth_ = std::max<std::uint64_t>(liveWidth_, width(k));
  }
  // The slot lists and key buffers count against the byte cap; a problem
  // whose cuts alone would pass it is searched without the memo.
  const std::size_t slots = base.live_.size() + extraStart_[cuts];
  memoBytes_ = slots * (sizeof(std::uint32_t) + sizeof(std::int64_t));
  if (memoBytes_ > kMaxMemoBytes) return;
  extraLive_.resize(extraStart_[cuts]);
  std::vector<std::uint32_t> next(extraStart_.begin(), extraStart_.end() - 1);
  for (const Span& span : spans) {
    for (std::size_t k = span.from; k < span.to; ++k) {
      extraLive_[next[k]++] = span.slot;
    }
  }
  keys_.assign(slots, 0);
  dead_.resize(cuts);
  std::size_t key = 0;
  for (std::size_t k = 1; k < cuts; ++k) {
    DeadSet& dead = dead_[k];
    dead.live = std::span<const std::uint32_t>(base.live_)
                    .subspan(base.liveStart_[k],
                             base.liveStart_[k + 1] - base.liveStart_[k]);
    dead.extra = std::span<const std::uint32_t>(extraLive_)
                     .subspan(extraStart_[k], extraStart_[k + 1] - extraStart_[k]);
    dead.key = keys_.data() + key;
    key += width(k);
  }
}

bool Enumerator::evalLevel(std::size_t level) {
  const Layout& base = *layout_;
  const Op* ops = base.ops_.data();
  const Op* delta = deltaOps_.data();
  return Layout::evalOps(ops + base.opStart_[level],
                         ops + base.opStart_[level + 1], values_.data()) &&
         Layout::evalOps(delta + deltaOpStart_[level],
                         delta + deltaOpStart_[level + 1], values_.data());
}

bool Enumerator::checksPass(std::size_t level) const {
  const Layout& base = *layout_;
  for (std::size_t i = base.checkStart_[level]; i < base.checkStart_[level + 1];
       ++i) {
    if (values_[base.checks_[i]] == 0) return false;
  }
  for (std::size_t i = deltaCheckStart_[level];
       i < deltaCheckStart_[level + 1]; ++i) {
    if (values_[deltaChecks_[i]] == 0) return false;
  }
  return true;
}

bool Enumerator::refuted(DeadSet& dead) {
  const std::size_t width = dead.live.size() + dead.extra.size();
  std::int64_t* key = dead.key;
  for (const std::uint32_t s : dead.live) *key++ = values_[s];
  for (const std::uint32_t s : dead.extra) *key++ = values_[s];
  dead.hash = hashKey(dead.key, width);
  if (dead.count == 0) return false;
  const std::size_t mask = dead.table.size() - 1;
  for (std::size_t b = dead.hash & mask;; b = (b + 1) & mask) {
    const std::uint32_t entry = dead.table[b];
    if (entry == 0) return false;
    const std::int64_t* stored = dead.pool.data() + (entry - 1) * width;
    if (std::equal(stored, stored + width, dead.key)) return true;
  }
}

void Enumerator::storeRefuted(DeadSet& dead) {
  if (memoBytes_ >= kMaxMemoBytes) return;
  const std::size_t width = dead.live.size() + dead.extra.size();
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
  dead.pool.insert(dead.pool.end(), dead.key, dead.key + width);
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
    const Layout& base = *layout_;
    const std::size_t n = lo_.size();
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
      values_[base.varSlot_[k]] = cur[k];
      evaluations += 1 + base.opStart_[k + 2] - base.opStart_[k + 1] +
                     deltaOpStart_[k + 2] - deltaOpStart_[k + 1];
      if (evaluations > kMaxEvaluations) {
        finish(Status::Declined, "evaluations above 2^27");
        break;
      }
      if (!evalLevel(k + 1)) {
        finish(Status::Declined, kOverflow);
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
      for (std::size_t i = 0; i < n; ++i) {
        out.model[base.vars_[i]->name] = cur[i];
      }
    }
  }
  for (const DeadSet& dead : dead_) out.stats.deadEntries += dead.count;
  out.stats.liveWidth = liveWidth_;
  out.stats.saturated = saturated_;
  return out;
}

}  // namespace buffy::enumerate
