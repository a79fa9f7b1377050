// Memoized enumeration of finite-domain problems (DESIGN.md §7).
//
// The paper's analyses have small input spaces, and every buffer is
// finite, so the distinct states a run can reach at one time step grow
// far more slowly than its input sequences. A depth-first search that
// remembers which states it has already refuted decides them in well
// under a millisecond to a few hundred, where a general solver takes tens
// of milliseconds to tens of seconds.
//
// Domains. Every Int variable needs a constant lower bound from a
// top-level unit-bound conjunct (ir::seedShape); Bool variables range over
// {0, 1}. A variable with a lower bound only gets a saturation threshold U
// derived by interval analysis (ir::nodeInterval): the least value, found
// by doubling then bisection, such that with the variable in [U, ∞) and
// every other variable over its own domain no conjunct's value depends on
// it. The search then covers
// [lo, U]. Clamping each such variable of any model to min(v, U), one at a
// time, keeps every conjunct's truth value, so SAT and UNSAT both carry
// over. A variable without a lower bound, or one whose threshold is not
// found below lo + kMaxThreshold, declines the problem. An empty domain or
// a constant-false conjunct makes it Unsat outright.
//
// Search. Variables are assigned in term-id order (creation order, which
// is roughly time-step order), one level per variable. Each node is
// evaluated once per assignment of its deepest variable, and each
// top-level conjunct is checked as soon as its last variable is bound: a
// false one prunes every extension of the prefix. Arithmetic is exact
// (ir::foldAdd/foldSub/foldMul/foldNeg); an int64 overflow declines the
// problem rather than answer from a wrapped value. Division and modulo by
// zero are 0, as in the Z3 lowering.
//
// Memoization. After the first k variables are bound, the rest of the
// search reads only the "live" slots of cut k: nodes computed at a level
// <= k that an operation at a later level reads. When the subtree below a
// prefix is exhausted with no model, the tuple of its live values goes
// into cut k's dead set, and any later prefix reaching the same tuple is
// skipped. Only subtrees without a model are pruned, so the model found is
// still the lexicographically first one. The dead sets and the cuts'
// slot lists share a byte cap (kMaxMemoBytes); past it the search goes on
// without storing, and a problem whose slot lists alone would pass it is
// searched without the memo.
//
// Budget. The search counts node evaluations and declines once they pass
// kMaxEvaluations, so a problem too large to enumerate goes on to Z3.
//
// Set-up. A problem is laid out in two halves (DESIGN.md §7). A Layout
// holds the constraints an engine asks every query under (its assumptions
// and soundness constraints): the reach walk, the slots and their levels,
// the operations and checks grouped by level, the domains, the level-0
// values and the liveness of every cut. An Enumerator extends a layout by
// one query's delta, laying out only the nodes the layout does not hold,
// and answers exactly what a fresh layout of both halves would: the same
// status, reason, model and search counters. A layout's side tables are
// vectors indexed by term id, sized by the largest conjunct's id plus one
// (ir/term.hpp); an extension finds its own few nodes in a hash table by
// id. So every constraint must come from one arena: ids from a second
// arena would collide. A problem whose DAG mixes arenas is declined with
// "terms from more than one arena".
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ir/term.hpp"
#include "ir/term_eval.hpp"
#include "ir/unit_bound.hpp"

namespace buffy::enumerate {

/// The search's evaluation budget: node evaluations (one per operation
/// run, plus one per assignment tried). The crossover against Z3 that sets
/// it is in DESIGN.md §7 and EXPERIMENTS.md ("Enumerate first").
inline constexpr std::uint64_t kMaxEvaluations = std::uint64_t{1} << 27;

/// The byte cap shared by one search's dead sets and slot lists.
inline constexpr std::size_t kMaxMemoBytes = std::size_t{64} << 20;

/// How far above its lower bound a one-sided variable's saturation
/// threshold may lie.
inline constexpr std::int64_t kMaxThreshold = std::int64_t{1} << 20;

enum class Status {
  Sat,       // `model` satisfies every constraint
  Unsat,     // no assignment in the bounds satisfies them
  Declined,  // not enumerable (see `reason`): solve it some other way
  Stopped,   // the stop predicate fired before an answer
};

/// What one search did.
struct SearchStats {
  /// Assignments tried (search-tree nodes).
  std::uint64_t visited = 0;
  /// Node evaluations charged to the budget (kMaxEvaluations).
  std::uint64_t evaluations = 0;
  /// Prefixes skipped because their live values were already refuted.
  std::uint64_t memoHits = 0;
  /// Keys stored in the dead sets.
  std::uint64_t deadEntries = 0;
  /// The widest cut: live slots in its key.
  std::uint64_t liveWidth = 0;
  /// Variables given a saturation threshold.
  std::uint64_t saturated = 0;
};

struct Outcome {
  Status status = Status::Declined;
  /// Sat: a value for every variable of the problem (Bools as 0/1).
  ir::Assignment model;
  /// Declined: why ("unbounded variable x", "no saturation threshold for
  /// x", "evaluations above 2^27", "int64 overflow", "terms from more than
  /// one arena").
  std::string reason;
  SearchStats stats;
};

class Enumerator;

/// The structural half of a problem, laid out once and shared, immutable,
/// by every query an engine asks under it. Construction records the first
/// decision a fresh compile of these constraints alone would take (mixed
/// arenas, a non-Boolean or constant-false conjunct, an empty domain, a
/// level-0 overflow or false check) without taking it: a query's delta can
/// still change what comes first. An unbounded variable is not recorded, as
/// a delta may bound it.
class Layout {
 public:
  explicit Layout(std::span<const ir::TermRef> constraints);

  /// DAG nodes laid out (the slots).
  [[nodiscard]] std::size_t nodes() const { return nodes_.size(); }

 private:
  friend class Enumerator;

  struct Op {
    ir::TermKind kind;
    std::uint32_t dst;
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t c;
  };
  /// Each node's argument slots; unused entries repeat the first.
  using ArgSlots = std::array<std::uint32_t, 3>;

  /// How far a fresh compile got before deciding: a decision of an earlier
  /// stage, from either half, wins over one of a later stage.
  enum class Stage { Walk, Conjunct, LevelZero };
  struct Decision {
    Stage stage;
    Status status;
    std::string reason;
  };

  void decide(Stage stage, Status status, std::string reason = {});
  [[nodiscard]] std::uint32_t varIndex(ir::TermRef var) const {
    return level_[slotOf_[var->id]] - 1;
  }
  /// A fresh compile's conjunct loop over `conjuncts`: each unit bound
  /// tightens its variable's domain. Returns Declined at a non-Boolean
  /// conjunct, Unsat at a constant-false one or an emptied domain.
  std::optional<Status> tighten(std::span<const ir::TermRef> conjuncts,
                                std::vector<ir::Interval>& domains) const;
  /// Runs operations in order into `v`; false on an int64 overflow.
  static bool evalOps(const Op* op, const Op* end, std::int64_t* v);
  /// The first cut a slot is no longer live at: it is live at every cut k
  /// with level <= k < liveUntil. Level-0 slots never change.
  static std::size_t liveUntil(std::size_t level, std::size_t lastReader) {
    return level == 0 ? 0 : lastReader;
  }

  std::optional<Decision> decided_;
  /// The constraints, with nested Ands split, in order.
  std::vector<ir::TermRef> conjuncts_;
  /// The reach table: each reachable term at its id, and its slot.
  std::vector<ir::TermRef> owner_;
  std::vector<std::uint32_t> slotOf_;
  /// Slots in term-id order (topological, variables in creation order).
  std::vector<ir::TermRef> nodes_;
  /// A node's level is one past its deepest variable's position.
  std::vector<std::uint32_t> level_;
  std::vector<ArgSlots> args_;
  std::vector<char> isCheck_;
  std::vector<ir::TermRef> vars_;
  std::vector<std::uint32_t> varSlot_;
  /// Each variable's unit bounds, within {0, 1} for a Bool.
  std::vector<ir::Interval> domains_;
  /// Operations grouped by level — level k runs once variable k-1 is
  /// bound, level 0 needs no variable — in term-id order within a level.
  std::vector<Op> ops_;
  std::vector<std::uint32_t> opStart_;
  /// Top-level conjunct slots, grouped by level the same way.
  std::vector<std::uint32_t> checks_;
  std::vector<std::uint32_t> checkStart_;
  /// Constants and level-0 results; the rest is written by the search.
  std::vector<std::int64_t> values_;
  /// The highest level of an operation reading each slot (its own level
  /// when none does).
  std::vector<std::uint32_t> lastReader_;
  /// Each cut's live slots, ascending: cut k's are live_[liveStart_[k] ..
  /// liveStart_[k + 1]).
  std::vector<std::uint32_t> live_;
  std::vector<std::uint32_t> liveStart_;
};

/// One problem, compiled for enumeration: a layout extended by a query's
/// delta. Construction decides whether it qualifies (domains and
/// saturation thresholds); run() searches.
class Enumerator {
 public:
  /// A layout of all the constraints with an empty delta.
  explicit Enumerator(std::span<const ir::TermRef> constraints);
  /// The problem `layout`'s constraints and `delta` make together. Lays out
  /// only the nodes `delta` adds; a delta that reaches a variable the layout
  /// lacks is laid out afresh with the layout's constraints.
  Enumerator(std::shared_ptr<const Layout> layout,
             std::span<const ir::TermRef> delta);
  // The dead sets point into this object's own key and slot buffers.
  Enumerator(const Enumerator&) = delete;
  Enumerator& operator=(const Enumerator&) = delete;

  /// False when the problem is declined; run() then says why.
  [[nodiscard]] bool qualifies() const {
    return !decided_ || decided_->status != Status::Declined;
  }

  /// DAG nodes this construction laid out: the delta's own, plus the
  /// layout's when it built one.
  [[nodiscard]] std::uint64_t setupNodes() const { return setupNodes_; }

  /// One variable's search range: its unit bounds, with a one-sided
  /// variable's derived threshold as the upper end.
  struct Domain {
    ir::TermRef var;
    std::int64_t lo;
    std::int64_t hi;
  };
  /// The box run() searches, in search order (term-id order). Empty when
  /// construction declined or decided the problem.
  [[nodiscard]] std::vector<Domain> domains() const;

  /// Searches for the first satisfying assignment. `stop` is polled before
  /// the first assignment and then every 4,096 assignments; when it
  /// returns true the search ends with Status::Stopped. An overflow met
  /// during the search, or an exhausted evaluation budget, declines the
  /// problem.
  [[nodiscard]] Outcome run(const std::function<bool()>& stop);

 private:
  using Op = Layout::Op;
  using ArgSlots = Layout::ArgSlots;

  /// One cut's dead set: open addressing over keys stored back to back.
  struct DeadSet {
    /// The slots whose values make up the key: the layout's live slots,
    /// then those the delta makes live.
    std::span<const std::uint32_t> live;
    std::span<const std::uint32_t> extra;
    /// The current prefix's key and its hash (filled before the lookup,
    /// stored when the prefix's subtree is exhausted).
    std::int64_t* key = nullptr;
    std::uint64_t hash = 0;
    std::vector<std::int64_t> pool;
    /// 1 + key index; 0 marks an empty bucket. A power of two in size.
    std::vector<std::uint32_t> table;
    std::uint32_t count = 0;
  };

  enum class Walk { Ok, MixedArenas, NewVariable };

  void extend(const std::vector<ir::TermRef>& delta);
  /// Finds the nodes the delta's conjuncts reach that the layout does not
  /// hold (deltaNodes_, in term-id order) and their argument slots, and
  /// gives each conjunct's slot in `conjunctSlots`. Stops at a term from
  /// another arena or at a variable.
  [[nodiscard]] Walk walkDelta(std::span<const ir::TermRef> conjuncts,
                               std::vector<std::uint32_t>& conjunctSlots);
  /// Levels, operations, values and checks of the delta's nodes.
  void layOutDelta(const std::vector<std::uint32_t>& conjunctSlots);
  /// Gives every one-sided variable its threshold (hi_); false when one
  /// has none (the problem is then declined).
  [[nodiscard]] bool saturate(std::span<const ir::TermRef> nodes,
                              std::span<const ArgSlots> args,
                              std::span<const char> isCheck,
                              const std::vector<ir::Interval>& varDomains);
  void buildDeadSets();
  [[nodiscard]] bool evalLevel(std::size_t level);
  [[nodiscard]] bool checksPass(std::size_t level) const;
  [[nodiscard]] bool refuted(DeadSet& dead);
  void storeRefuted(DeadSet& dead);
  void decide(Status status, std::string reason = {});

  std::shared_ptr<const Layout> layout_;
  std::uint64_t setupNodes_ = 0;
  /// Set by construction when the problem is declined or already decided.
  std::optional<Outcome> decided_;

  std::vector<std::int64_t> lo_;
  std::vector<std::int64_t> hi_;
  /// One value per DAG node under the current prefix: the layout's slots,
  /// then the delta's.
  std::vector<std::int64_t> values_;
  /// The delta's nodes, in term-id order, at slots from layout_->nodes().
  std::vector<ir::TermRef> deltaNodes_;
  std::vector<std::uint32_t> deltaLevel_;
  std::vector<ArgSlots> deltaArgs_;
  /// The delta's operations and checks, grouped by level like the
  /// layout's; each level runs the layout's first.
  std::vector<Op> deltaOps_;
  std::vector<std::uint32_t> deltaOpStart_;
  std::vector<std::uint32_t> deltaChecks_;
  std::vector<std::uint32_t> deltaCheckStart_;
  /// Slots the delta makes live, per cut (CSR like Layout::live_).
  std::vector<std::uint32_t> extraLive_;
  std::vector<std::uint32_t> extraStart_;
  /// dead_[k] guards cut k (k variables bound), for 0 < k < vars; empty
  /// when the search runs without the memo. Their keys share `keys_`.
  std::vector<DeadSet> dead_;
  std::vector<std::int64_t> keys_;
  /// Memo bytes: slot lists, key buffers and stored keys with their
  /// tables.
  std::size_t memoBytes_ = 0;
  std::uint64_t saturated_ = 0;
  std::uint64_t liveWidth_ = 0;
};

}  // namespace buffy::enumerate
