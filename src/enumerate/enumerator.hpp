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
// Set-up. Construction keeps its side tables (the reach walk's, the slot
// of each term) in vectors indexed by term id, sized by the largest
// constraint's id plus one (ir/term.hpp), and finds each one-sided
// variable's forward cone in one pass over the slots after its own. So
// every constraint must come from one arena: ids from a second arena would
// collide. A problem whose DAG mixes arenas is declined with "terms from
// more than one arena".
#pragma once

#include <array>
#include <cstdint>
#include <functional>
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

/// One problem, compiled for enumeration. Construction decides whether it
/// qualifies (domains and saturation thresholds); run() searches.
class Enumerator {
 public:
  explicit Enumerator(std::span<const ir::TermRef> constraints);

  /// False when the problem is declined; run() then says why.
  [[nodiscard]] bool qualifies() const {
    return !decided_ || decided_->status != Status::Declined;
  }

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
  struct Op {
    ir::TermKind kind;
    std::uint32_t dst;
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t c;
  };

  /// One cut's dead set: open addressing over keys stored back to back.
  struct DeadSet {
    /// The slots whose values make up the key, ascending.
    std::vector<std::uint32_t> live;
    /// The current prefix's key and its hash (filled before the lookup,
    /// stored when the prefix's subtree is exhausted).
    std::vector<std::int64_t> key;
    std::uint64_t hash = 0;
    std::vector<std::int64_t> pool;
    /// 1 + key index; 0 marks an empty bucket. A power of two in size.
    std::vector<std::uint32_t> table;
    std::uint32_t count = 0;
  };

  /// Each node's argument slots; unused entries repeat the first.
  using ArgSlots = std::array<std::uint32_t, 3>;

  void compile(std::span<const ir::TermRef> constraints);
  /// Gives every one-sided variable its threshold (hi_); false when one
  /// has none (the problem is then declined).
  [[nodiscard]] bool saturate(std::span<const ir::TermRef> nodes,
                              const std::vector<ArgSlots>& args,
                              const std::vector<char>& isCheck,
                              const std::vector<ir::Interval>& varDomains);
  void buildDeadSets(const std::vector<std::size_t>& level);
  [[nodiscard]] bool evalLevel(std::size_t level);
  [[nodiscard]] bool checksPass(std::size_t level) const;
  [[nodiscard]] bool refuted(DeadSet& dead);
  void storeRefuted(DeadSet& dead);
  void decide(Status status, std::string reason = {});

  /// Set by construction when the problem is declined or already decided.
  std::optional<Outcome> decided_;

  std::vector<ir::TermRef> vars_;  // term-id order
  std::vector<std::uint32_t> varSlot_;  // each variable's node slot
  std::vector<std::int64_t> lo_;
  std::vector<std::int64_t> hi_;
  /// One value per DAG node under the current prefix (constants preset).
  std::vector<std::int64_t> values_;
  /// Operations grouped by level — level k runs once variable k-1 is
  /// bound, level 0 needs no variable — in term-id order within a level.
  std::vector<Op> ops_;
  std::vector<std::size_t> opStart_;
  /// Top-level conjunct slots, grouped by level the same way.
  std::vector<std::uint32_t> checks_;
  std::vector<std::size_t> checkStart_;
  /// dead_[k] guards cut k (k variables bound), for 0 < k < vars; empty
  /// when the search runs without the memo.
  std::vector<DeadSet> dead_;
  /// Memo bytes: slot lists, key buffers and stored keys with their
  /// tables.
  std::size_t memoBytes_ = 0;
  std::uint64_t saturated_ = 0;
  std::uint64_t liveWidth_ = 0;
};

}  // namespace buffy::enumerate
