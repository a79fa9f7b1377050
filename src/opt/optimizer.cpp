#include "opt/optimizer.hpp"

#include <algorithm>
#include <chrono>

namespace buffy::opt {

namespace {

using ir::seedShape;
using ir::Sort;
using ir::TermKind;
using ir::TermRef;
using ir::tighten;

/// Flatten/linearize gathers stop descending past this many leaves so a
/// pathological chain cannot make one rewrite quadratic.
constexpr std::size_t kMaxLeaves = 256;

Interval topInterval() { return {}; }
Interval anyBool() { return Interval{0, 1}; }

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Distinct DAG nodes reachable from both root sets.
std::size_t countNodes(std::span<const TermRef> a,
                       std::span<const TermRef> b) {
  std::unordered_set<TermRef> seen;
  std::vector<TermRef> stack;
  for (const TermRef r : a) stack.push_back(r);
  for (const TermRef r : b) stack.push_back(r);
  while (!stack.empty()) {
    const TermRef t = stack.back();
    stack.pop_back();
    if (!seen.insert(t).second) continue;
    for (const TermRef arg : t->args) stack.push_back(arg);
  }
  return seen.size();
}

}  // namespace

Optimizer::Optimizer(ir::TermArena& arena, std::vector<ir::TermRef> structural,
                     OptOptions options)
    : arena_(arena), structural_(std::move(structural)), options_(options) {
  if (options_.enabled && options_.rewrite) seedIntervals();
}

// ---------------------------------------------------------------------------
// Interval seeding (structural unit bounds only)
// ---------------------------------------------------------------------------

void Optimizer::seedIntervals() {
  for (const TermRef s : structural_) {
    const auto shape = seedShape(s);
    if (!shape) continue;
    auto [it, inserted] = seed_.try_emplace(
        shape->var,
        shape->var->sort == Sort::Bool ? anyBool() : topInterval());
    tighten(it->second, *shape);
    seedVar_.emplace(s, shape->var);
  }

  for (const auto& [v, iv] : seed_) {
    if (iv.empty()) {
      structuralUnsat_ = true;
    } else if (iv.singleton()) {
      pinnedWitness_[v->name] = *iv.lo;
    }
  }
}

// ---------------------------------------------------------------------------
// Interval analysis
// ---------------------------------------------------------------------------

Interval Optimizer::computeInterval(ir::TermRef t) const {
  if (t->kind == TermKind::Var) {
    // Query-local bounds already include the structural seed baseline.
    if (queryMode_) {
      const auto qit = qseed_.find(t);
      if (qit != qseed_.end()) return qit->second;
    }
    const auto it = seed_.find(t);
    if (it != seed_.end()) return it->second;
    return t->sort == Sort::Bool ? anyBool() : topInterval();
  }
  const auto& cache = queryMode_ ? qival_ : ival_;
  Interval args[3];
  for (std::size_t i = 0; i < t->args.size(); ++i) {
    args[i] = cache.at(t->args[i]);
  }
  return ir::nodeInterval(t, std::span<const Interval>(args, t->args.size()));
}

Interval Optimizer::intervalOf(ir::TermRef root) {
  auto& cache = queryMode_ ? qival_ : ival_;
  const auto hit = cache.find(root);
  if (hit != cache.end()) return hit->second;
  std::vector<TermRef> stack{root};
  while (!stack.empty()) {
    const TermRef t = stack.back();
    if (cache.count(t) != 0) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const TermRef arg : t->args) {
      if (cache.count(arg) == 0) {
        stack.push_back(arg);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    Interval iv = computeInterval(t);
    // A (non-seed) empty interval means the analysis proved the node's
    // value range empty under inconsistent inputs; weaken to unknown
    // rather than letting later decisions read nonsense bounds.
    if (iv.empty()) iv = t->sort == Sort::Bool ? anyBool() : topInterval();
    cache.emplace(t, iv);
  }
  return cache.at(root);
}

// ---------------------------------------------------------------------------
// Rewriting
// ---------------------------------------------------------------------------

ir::TermRef Optimizer::rebuild(ir::TermRef t) {
  auto& cache = queryMode_ ? qrw_ : rw_;
  auto ra = [&](std::size_t i) { return cache.at(t->args[i]); };
  switch (t->kind) {
    case TermKind::Add: return arena_.add(ra(0), ra(1));
    case TermKind::Sub: return arena_.sub(ra(0), ra(1));
    case TermKind::Mul: return arena_.mul(ra(0), ra(1));
    case TermKind::Div: return arena_.div(ra(0), ra(1));
    case TermKind::Mod: return arena_.mod(ra(0), ra(1));
    case TermKind::Neg: return arena_.neg(ra(0));
    case TermKind::Eq: return arena_.eq(ra(0), ra(1));
    case TermKind::Lt: return arena_.lt(ra(0), ra(1));
    case TermKind::Le: return arena_.le(ra(0), ra(1));
    case TermKind::And: return arena_.mkAnd(ra(0), ra(1));
    case TermKind::Or: return arena_.mkOr(ra(0), ra(1));
    case TermKind::Not: return arena_.mkNot(ra(0));
    case TermKind::Implies: return arena_.implies(ra(0), ra(1));
    case TermKind::Ite: return arena_.ite(ra(0), ra(1), ra(2));
    default: return t;  // leaves
  }
}

ir::TermRef Optimizer::flattenBool(ir::TermRef t) {
  auto& cache = queryMode_ ? qrw_ : rw_;
  const TermKind k = t->kind;
  std::vector<TermRef> leaves;
  std::vector<TermRef> work{cache.at(t->args[0]), cache.at(t->args[1])};
  while (!work.empty()) {
    const TermRef n = work.back();
    work.pop_back();
    if (n->kind == k && leaves.size() + work.size() < kMaxLeaves) {
      work.push_back(n->args[0]);
      work.push_back(n->args[1]);
    } else {
      leaves.push_back(n);
    }
  }
  std::sort(leaves.begin(), leaves.end(),
            [](TermRef a, TermRef b) { return a->id < b->id; });
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  const std::unordered_set<TermRef> present(leaves.begin(), leaves.end());
  for (const TermRef n : leaves) {
    if (n->kind == TermKind::Not && present.count(n->args[0]) != 0) {
      return arena_.boolConst(k == TermKind::Or);  // x ∧ ¬x / x ∨ ¬x
    }
  }
  return k == TermKind::And ? arena_.andAll(leaves) : arena_.orAll(leaves);
}

ir::TermRef Optimizer::linearize(ir::TermRef t) {
  struct Item {
    TermRef n;
    std::int64_t c;
  };
  auto& cache = queryMode_ ? qrw_ : rw_;
  std::unordered_map<TermRef, std::int64_t> coeff;
  std::int64_t constant = 0;
  bool ok = true;
  std::vector<Item> work;
  if (t->kind == TermKind::Neg) {
    work.push_back({cache.at(t->args[0]), -1});
  } else {
    work.push_back({cache.at(t->args[0]), 1});
    work.push_back({cache.at(t->args[1]), t->kind == TermKind::Sub ? -1 : 1});
  }
  std::size_t steps = 0;
  while (ok && !work.empty()) {
    const Item item = work.back();
    work.pop_back();
    if (++steps > 4 * kMaxLeaves || coeff.size() > kMaxLeaves) {
      ok = false;
      break;
    }
    const TermRef n = item.n;
    const std::int64_t c = item.c;
    if (c == 0) continue;
    switch (n->kind) {
      case TermKind::ConstInt: {
        const auto scaled = ir::foldMul(c, n->value);
        const auto acc = scaled ? ir::foldAdd(constant, *scaled)
                                : std::nullopt;
        if (!acc) { ok = false; break; }
        constant = *acc;
        break;
      }
      case TermKind::Add:
        work.push_back({n->args[0], c});
        work.push_back({n->args[1], c});
        break;
      case TermKind::Sub: {
        const auto nc = ir::foldNeg(c);
        if (!nc) { ok = false; break; }
        work.push_back({n->args[0], c});
        work.push_back({n->args[1], *nc});
        break;
      }
      case TermKind::Neg: {
        const auto nc = ir::foldNeg(c);
        if (!nc) { ok = false; break; }
        work.push_back({n->args[0], *nc});
        break;
      }
      case TermKind::Mul: {
        const TermRef lhs = n->args[0];
        const TermRef rhs = n->args[1];
        if (lhs->kind == TermKind::ConstInt) {
          const auto m = ir::foldMul(c, lhs->value);
          if (!m) { ok = false; break; }
          work.push_back({rhs, *m});
        } else if (rhs->kind == TermKind::ConstInt) {
          const auto m = ir::foldMul(c, rhs->value);
          if (!m) { ok = false; break; }
          work.push_back({lhs, *m});
        } else {
          const auto acc = ir::foldAdd(coeff[n], c);
          if (!acc) { ok = false; break; }
          coeff[n] = *acc;
        }
        break;
      }
      default: {
        const auto acc = ir::foldAdd(coeff[n], c);
        if (!acc) { ok = false; break; }
        coeff[n] = *acc;
        break;
      }
    }
  }
  if (ok) {
    for (const auto& [n, c] : coeff) {
      if (c == INT64_MIN) ok = false;  // |c| below is not representable
    }
  }
  if (!ok) return rebuild(t);

  std::vector<Item> items;
  items.reserve(coeff.size());
  for (const auto& [n, c] : coeff) {
    if (c != 0) items.push_back({n, c});
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.n->id < b.n->id; });
  TermRef pos = nullptr;
  TermRef neg = nullptr;
  for (const Item& item : items) {
    const std::int64_t mag = item.c > 0 ? item.c : -item.c;
    const TermRef piece =
        mag == 1 ? item.n : arena_.mul(arena_.intConst(mag), item.n);
    TermRef& acc = item.c > 0 ? pos : neg;
    acc = acc != nullptr ? arena_.add(acc, piece) : piece;
  }
  if (pos == nullptr && neg == nullptr) return arena_.intConst(constant);
  TermRef out;
  if (neg == nullptr) {
    out = pos;
  } else if (pos == nullptr) {
    out = arena_.sub(arena_.intConst(constant), neg);
    constant = 0;
  } else {
    out = arena_.sub(pos, neg);
  }
  if (constant != 0) out = arena_.add(out, arena_.intConst(constant));
  return out;
}

ir::TermRef Optimizer::rewriteNode(ir::TermRef t) {
  // Decide the whole node from its interval first (computed over the
  // *original* children, so the facts are the seeds' — not artifacts of
  // this rewrite).
  const Interval iv = intervalOf(t);
  if (!t->isConst()) {
    if (t->sort == Sort::Bool) {
      if (iv.definitelyTrue() || iv.definitelyFalse()) {
        if (t->kind == TermKind::Eq || t->kind == TermKind::Lt ||
            t->kind == TermKind::Le) {
          ++comparisonsDecided_;
        }
        return arena_.boolConst(iv.definitelyTrue());
      }
    } else if (iv.singleton()) {
      return arena_.intConst(*iv.lo);
    }
  }
  auto& cache = queryMode_ ? qrw_ : rw_;
  auto ra = [&](std::size_t i) { return cache.at(t->args[i]); };
  switch (t->kind) {
    case TermKind::Ite: {
      const Interval ci = intervalOf(t->args[0]);
      if (ci.definitelyTrue()) {
        ++itesCollapsed_;
        return ra(1);
      }
      if (ci.definitelyFalse()) {
        ++itesCollapsed_;
        return ra(2);
      }
      return arena_.ite(ra(0), ra(1), ra(2));
    }
    case TermKind::Div:
    case TermKind::Mod: {
      const TermRef rb = ra(1);
      if (rb->kind == TermKind::ConstInt && rb->value > 0) {
        const Interval ai = intervalOf(t->args[0]);
        if (ai.lo && ai.hi && *ai.lo >= 0 && *ai.hi < rb->value) {
          // a ∈ [0, c-1]: a div c == 0, a mod c == a.
          return t->kind == TermKind::Div ? arena_.intConst(0) : ra(0);
        }
      }
      return rebuild(t);
    }
    case TermKind::And:
    case TermKind::Or:
      return flattenBool(t);
    case TermKind::Add:
    case TermKind::Sub:
    case TermKind::Neg:
      return linearize(t);
    default:
      return rebuild(t);
  }
}

ir::TermRef Optimizer::rewritten(ir::TermRef root) {
  if (!options_.enabled || !options_.rewrite) return root;
  auto& cache = queryMode_ ? qrw_ : rw_;
  std::vector<TermRef> stack{root};
  while (!stack.empty()) {
    const TermRef t = stack.back();
    if (cache.count(t) != 0) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const TermRef arg : t->args) {
      if (cache.count(arg) == 0) {
        stack.push_back(arg);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    cache.emplace(t, rewriteNode(t));
  }
  return cache.at(root);
}

// ---------------------------------------------------------------------------
// Cone-of-influence slicing
// ---------------------------------------------------------------------------

void Optimizer::collectVars(ir::TermRef root,
                            std::unordered_set<ir::TermRef>& out) const {
  std::unordered_set<TermRef> seen;
  std::vector<TermRef> stack{root};
  while (!stack.empty()) {
    const TermRef t = stack.back();
    stack.pop_back();
    if (!seen.insert(t).second) continue;
    if (t->kind == TermKind::Var) out.insert(t);
    for (const TermRef arg : t->args) stack.push_back(arg);
  }
}

void Optimizer::ensureComponents() {
  if (componentsBuilt_) return;
  componentsBuilt_ = true;

  assertVars_.resize(structural_.size());
  assertComponent_.assign(structural_.size(), -1);

  // Union-find over variables; assertions connect every variable they
  // mention.
  std::unordered_map<TermRef, TermRef> parent;
  auto find = [&](TermRef v) {
    TermRef root = v;
    while (true) {
      const auto it = parent.find(root);
      if (it == parent.end() || it->second == root) break;
      root = it->second;
    }
    // Path compression.
    TermRef walk = v;
    while (walk != root) {
      TermRef& next = parent[walk];
      const TermRef tmp = next;
      next = root;
      walk = tmp;
    }
    return root;
  };

  for (std::size_t i = 0; i < structural_.size(); ++i) {
    std::unordered_set<TermRef> vars;
    collectVars(structural_[i], vars);
    assertVars_[i].assign(vars.begin(), vars.end());
    std::sort(assertVars_[i].begin(), assertVars_[i].end(),
              [](TermRef a, TermRef b) { return a->id < b->id; });
    TermRef first = nullptr;
    for (const TermRef v : assertVars_[i]) {
      parent.try_emplace(v, v);
      if (first == nullptr) {
        first = v;
      } else {
        parent[find(v)] = find(first);
      }
    }
  }

  std::unordered_map<TermRef, int> byRoot;
  for (std::size_t i = 0; i < structural_.size(); ++i) {
    if (assertVars_[i].empty()) continue;  // constant assertion: always kept
    const TermRef root = find(assertVars_[i][0]);
    const auto [it, inserted] =
        byRoot.try_emplace(root, static_cast<int>(components_.size()));
    if (inserted) components_.emplace_back();
    Component& comp = components_[static_cast<std::size_t>(it->second)];
    comp.assertIdx.push_back(i);
    assertComponent_[i] = it->second;
    for (const TermRef v : assertVars_[i]) {
      if (varComponent_.try_emplace(v, it->second).second) {
        comp.vars.push_back(v);
      }
    }
  }
}

void Optimizer::certify(Component& comp) {
  if (comp.state != 0) return;
  // Candidate 1: each variable at the tightest seeded endpoint (the lower
  // bound where present — arrival counts at 0, bytes at 1, havoced state
  // at its floor). Candidate 2: everything at 0.
  ir::Assignment candidate;
  for (const TermRef v : comp.vars) {
    std::int64_t value = 0;
    const auto it = seed_.find(v);
    if (it != seed_.end()) {
      if (it->second.lo) {
        value = *it->second.lo;
      } else if (it->second.hi) {
        value = std::min<std::int64_t>(0, *it->second.hi);
      }
    }
    candidate[v->name] = value;
  }
  const ir::Assignment zeros;  // evalTerms defaults absent variables to 0
  const ir::Assignment* const attempts[] = {&candidate, &zeros};
  std::vector<TermRef> asserts;
  asserts.reserve(comp.assertIdx.size());
  for (const std::size_t idx : comp.assertIdx) {
    asserts.push_back(structural_[idx]);
  }
  for (const ir::Assignment* attempt : attempts) {
    const std::vector<std::int64_t> values = ir::evalTerms(asserts, *attempt);
    if (std::find(values.begin(), values.end(), 0) == values.end()) {
      comp.state = 1;
      if (attempt == &zeros) {
        comp.witness.clear();
        for (const TermRef v : comp.vars) comp.witness[v->name] = 0;
      } else {
        comp.witness = candidate;
      }
      return;
    }
  }
  comp.state = 2;
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

Optimizer::Plan Optimizer::plan(std::span<const ir::TermRef> delta) {
  Plan p;
  OptStats& st = p.stats;
  st.assertionsBefore = structural_.size() + delta.size();
  st.nodesBefore = countNodes(structural_, delta);

  if (!options_.enabled) {
    p.structural = structural_;
    p.delta.assign(delta.begin(), delta.end());
    st.assertionsAfter = st.assertionsBefore;
    st.nodesAfter = st.nodesBefore;
    return p;
  }

  if (structuralUnsat_) {
    // The unit bounds contradict on their own: every query is UNSAT.
    p.structural = {arena_.falseTerm()};
    st.assertionsAfter = 1;
    st.nodesAfter = 1;
    return p;
  }

  // Pass 1: cone-of-influence slicing at variable-component granularity.
  const auto sliceStart = std::chrono::steady_clock::now();
  std::vector<char> keepAssert(structural_.size(), 1);
  if (options_.slice) {
    ensureComponents();
    std::unordered_set<TermRef> rootVars;
    for (const TermRef d : delta) collectVars(d, rootVars);
    std::vector<char> hit(components_.size(), 0);
    for (const TermRef v : rootVars) {
      const auto it = varComponent_.find(v);
      if (it != varComponent_.end()) hit[static_cast<std::size_t>(it->second)] = 1;
    }
    for (std::size_t ci = 0; ci < components_.size(); ++ci) {
      if (hit[ci] != 0) continue;
      Component& comp = components_[ci];
      certify(comp);
      if (comp.state != 1) continue;  // not certified: keep (sound default)
      for (const std::size_t idx : comp.assertIdx) keepAssert[idx] = 0;
      st.assertionsSliced += comp.assertIdx.size();
      for (const auto& [name, value] : comp.witness) {
        p.droppedWitness.emplace(name, value);
      }
    }
  }
  st.passes.push_back({"slice", secondsSince(sliceStart)});

  // Pass 2: interval-driven rewriting.
  const auto rewriteStart = std::chrono::steady_clock::now();
  const std::size_t cmpBefore = comparisonsDecided_;
  const std::size_t iteBefore = itesCollapsed_;
  // Query-local seeding: unit bounds in this delta (workload pins such as
  // "no arrivals after step 0", query side conditions) tighten the seed
  // intervals for this plan only. The delta seed assertions are kept
  // verbatim below — they still constrain the solver — so rewriting the
  // rest of the problem under them is an equivalence, and the scratch
  // memos keep one query's facts away from the caches shared by every
  // plan of this engine.
  qseed_.clear();
  qival_.clear();
  qrw_.clear();
  std::unordered_set<TermRef> deltaSeeds;
  bool deltaUnsat = false;
  if (options_.rewrite) {
    for (const TermRef d : delta) {
      const auto shape = seedShape(d);
      if (!shape) continue;
      auto [it, inserted] = qseed_.try_emplace(shape->var, topInterval());
      if (inserted) {
        const auto base = seed_.find(shape->var);
        it->second = base != seed_.end() ? base->second
                     : shape->var->sort == Sort::Bool ? anyBool()
                                                      : topInterval();
      }
      tighten(it->second, *shape);
      deltaSeeds.insert(d);
    }
    for (const auto& [v, iv] : qseed_) {
      if (iv.empty()) deltaUnsat = true;
    }
  }

  // The kept structural slice, rewritten under the seed facts — and, when
  // the delta is consistent, further specialized under its bounds (the
  // soundness side conditions share the per-step state terms with the
  // query, so this is where most of the node reduction happens). Seed
  // assertions are the facts the rewriter assumes; they must not simplify
  // under themselves and are kept verbatim. A constant-pinned variable is
  // the one exception: it is inlined everywhere and restored by the
  // witness, so its bounds carry no further information.
  queryMode_ = !deltaUnsat && !qseed_.empty();
  bool rewroteFalse = false;
  for (std::size_t i = 0; i < structural_.size(); ++i) {
    if (keepAssert[i] == 0) continue;
    TermRef r = structural_[i];
    const auto seeded = seedVar_.find(r);
    if (seeded != seedVar_.end()) {
      if (pinnedWitness_.count(seeded->second->name) != 0) continue;
    } else if (options_.rewrite) {
      r = rewritten(r);
      if (r->isTrue()) continue;
    }
    if (r->isFalse()) {
      rewroteFalse = true;
      break;
    }
    p.structural.push_back(r);
  }

  if (rewroteFalse) {
    p.structural = {arena_.falseTerm()};
  } else if (deltaUnsat) {
    // The delta's unit bounds contradict the structural seeds (or each
    // other): this query is UNSAT on its own.
    p.delta = {arena_.falseTerm()};
  } else {
    for (const TermRef d : delta) {
      const TermRef r = options_.rewrite && deltaSeeds.count(d) == 0
                            ? rewritten(d)
                            : d;
      if (r->isTrue()) continue;
      p.delta.push_back(r);
    }
  }
  queryMode_ = false;
  st.comparisonsDecided = comparisonsDecided_ - cmpBefore;
  st.itesCollapsed = itesCollapsed_ - iteBefore;
  st.passes.push_back({"rewrite", secondsSince(rewriteStart)});

  // Constant-pinned variables vanish from the encoding entirely; restore
  // them for trace extraction.
  if (options_.rewrite) {
    for (const auto& [name, value] : pinnedWitness_) {
      p.droppedWitness.emplace(name, value);
    }
  }

  st.assertionsAfter = p.structural.size() + p.delta.size();
  st.nodesAfter = countNodes(p.structural, p.delta);
  return p;
}

}  // namespace buffy::opt
