// Solver-agnostic encoding optimizer (DESIGN.md §9): runs between symbolic
// evaluation and every backend, over the hash-consed term DAG.
//
// Three passes:
//  1. Cone-of-influence slicing — structural assertions are grouped into
//     variable-connected components; components disjoint from the query's
//     cone are dropped, but only when a concrete assignment certifies them
//     satisfiable (dropping an unsatisfiable side constraint would flip an
//     UNSAT verdict). The certifying assignment is returned so solver
//     models can be completed for trace extraction and witness replay.
//  2. Interval analysis + rewriting — integer ranges seeded by the
//     structural unit bounds (buffer capacities, per-step arrival bounds,
//     packet-byte bounds) propagate through the DAG and decide
//     comparisons, collapse ites with decidable guards, flatten and
//     deduplicate And/Or/Add trees, and strength-reduce div/mod by
//     constants. Every rewrite is an equivalence *under the seed facts*,
//     which are kept verbatim in the output, so the optimized problem is
//     equisatisfiable with the original and shares its models.
//  3. Shared-subterm emission lives in the text backends (SMT-LIB `let`
//     bindings, Dafny `var :=`), not here — the DAG is already shared.
//
// The optimizer is built once per Encoding from the *structural*
// constraint set (assumptions + soundness) and then plans each query's
// delta. Its shared interval and rewrite memos only ever hold results
// under structural seed facts, so they stay valid across rebindWorkload
// and across every query one engine plans. Unit bounds found in one
// query's delta (workload pins like "no arrivals after step 0", query side
// conditions) additionally specialize that plan: they tighten the seed
// intervals in scratch memos scoped to the plan, and the delta seed
// assertions are kept verbatim, so the specialization is an equivalence
// and nothing query-local ever reaches the shared memos.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/term.hpp"
#include "ir/term_eval.hpp"
#include "ir/unit_bound.hpp"

namespace buffy::opt {

struct OptOptions {
  /// Master switch (the CLI's --no-opt clears it).
  bool enabled = true;
  /// Pass 1: cone-of-influence slicing of structural assertions.
  bool slice = true;
  /// Pass 2: interval-driven rewriting.
  bool rewrite = true;
};

struct PassTiming {
  std::string pass;  // "slice" or "rewrite"
  double seconds = 0.0;
};

/// Before/after accounting for one planned query.
struct OptStats {
  std::size_t nodesBefore = 0;
  std::size_t nodesAfter = 0;
  std::size_t assertionsBefore = 0;
  std::size_t assertionsAfter = 0;
  /// Structural assertions dropped by slicing (certified satisfiable).
  std::size_t assertionsSliced = 0;
  /// Eq/Lt/Le nodes decided by interval facts during this plan.
  std::size_t comparisonsDecided = 0;
  /// Ite nodes collapsed to one branch during this plan.
  std::size_t itesCollapsed = 0;
  std::vector<PassTiming> passes;
};

/// The optimizer's interval domain (shared with the enumerator's bounds).
using Interval = ir::Interval;

class Optimizer {
 public:
  /// `structural` is the per-encoding constraint set (assumptions +
  /// soundness) that every query is solved under.
  Optimizer(ir::TermArena& arena, std::vector<ir::TermRef> structural,
            OptOptions options);

  /// The optimized problem for one query delta.
  struct Plan {
    /// Sliced + rewritten structural assertions (in original order),
    /// additionally specialized under this query's delta bounds. Together
    /// with `delta` this is the standalone problem: every solve path, text
    /// emission, and the before/after stats use it.
    std::vector<ir::TermRef> structural;
    /// Rewritten per-query constraints (workload delta + query),
    /// specialized under the delta's own unit bounds (which are kept
    /// verbatim here, so the specialization is an equivalence).
    std::vector<ir::TermRef> delta;
    /// Satisfying values for every variable the plan removed from the
    /// problem (sliced components, constant-pinned variables). Merged into
    /// solver models before trace extraction so traces and witness replay
    /// see a total, consistent assignment.
    ir::Assignment droppedWitness;
    OptStats stats;
  };

  [[nodiscard]] Plan plan(std::span<const ir::TermRef> delta);

  /// The interval derived for `t` from the structural seed facts (plus the
  /// current query's delta bounds while a plan is being built).
  /// (Also the rewriting oracle; exposed for tests.)
  [[nodiscard]] Interval intervalOf(ir::TermRef t);

  /// The rewritten form of `t` under the seed facts (identity when the
  /// rewrite pass is disabled). Exposed for tests.
  [[nodiscard]] ir::TermRef rewritten(ir::TermRef t);

  /// True when the structural seed bounds are contradictory on their own
  /// (every query is then UNSAT / VERIFIED).
  [[nodiscard]] bool structuralUnsat() const { return structuralUnsat_; }

  [[nodiscard]] const OptOptions& options() const { return options_; }

 private:
  struct Component {
    std::vector<std::size_t> assertIdx;
    std::vector<ir::TermRef> vars;
    int state = 0;  // 0 = unexamined, 1 = droppable, 2 = must keep
    ir::Assignment witness;
  };

  void seedIntervals();
  void ensureComponents();
  void certify(Component& comp);
  [[nodiscard]] Interval computeInterval(ir::TermRef t) const;
  [[nodiscard]] ir::TermRef rewriteNode(ir::TermRef t);
  [[nodiscard]] ir::TermRef flattenBool(ir::TermRef t);
  [[nodiscard]] ir::TermRef linearize(ir::TermRef t);
  [[nodiscard]] ir::TermRef rebuild(ir::TermRef t);
  void collectVars(ir::TermRef root,
                   std::unordered_set<ir::TermRef>& out) const;

  ir::TermArena& arena_;
  std::vector<ir::TermRef> structural_;
  OptOptions options_;

  // Interval/rewrite state (shared across plans; the memos are keyed by
  // interned term identity, so results stay valid as the arena grows).
  std::unordered_map<ir::TermRef, Interval> seed_;
  std::unordered_map<ir::TermRef, Interval> ival_;
  std::unordered_map<ir::TermRef, ir::TermRef> rw_;
  /// Structural assertions that contributed seed facts, mapped to the
  /// variable they bound. Kept verbatim in plans (a seed would otherwise
  /// decide itself to `true` and unsoundly drop the bound it states).
  std::unordered_map<ir::TermRef, ir::TermRef> seedVar_;
  /// Variables whose seed interval is a single value: inlined as constants
  /// everywhere and restored through the plan witness.
  ir::Assignment pinnedWitness_;
  bool structuralUnsat_ = false;
  std::size_t comparisonsDecided_ = 0;
  std::size_t itesCollapsed_ = 0;

  // Query-local rewriting state. Unit bounds found in one plan's delta
  // tighten the seed intervals for that plan only; while `queryMode_` is
  // set, interval and rewrite lookups go through these scratch memos
  // instead of the shared caches above, so one query's facts never leak
  // into the next query's plan.
  std::unordered_map<ir::TermRef, Interval> qseed_;
  std::unordered_map<ir::TermRef, Interval> qival_;
  std::unordered_map<ir::TermRef, ir::TermRef> qrw_;
  bool queryMode_ = false;

  // Slicing state.
  bool componentsBuilt_ = false;
  std::vector<Component> components_;
  std::vector<std::vector<ir::TermRef>> assertVars_;
  std::vector<int> assertComponent_;  // -1 for variable-free assertions
  std::unordered_map<ir::TermRef, int> varComponent_;
};

}  // namespace buffy::opt
