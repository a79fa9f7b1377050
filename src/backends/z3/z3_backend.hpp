// Z3 backend: lowers the solver-agnostic term IR to Z3 expressions through
// the native Z3 C++ API (the paper's primary backend, §4) and runs
// satisfiability / verification queries.
//
// Every query is a one-shot solve: check() lowers the constraints into a
// fresh solver built from the tactic pipeline
//   simplify -> propagate-values -> solve-eqs -> smt
// so Z3's preprocessing runs over the whole (query-specialized) problem.
// enumerateOrCheck() first decides a finite-domain problem by memoized
// enumeration (enumerate/enumerator.hpp) and hands every other problem to
// the same pipeline. checkSmtLib() reparses SMT-LIB2 text into
// Z3's default solver — a structurally different solve, used as the last
// rung of the retry ladder. The Z3 context is built at the first query
// that reaches Z3, so a backend whose queries all enumerate never builds
// one.
//
// Resilience (DESIGN.md §8): every query runs under a SolveBudget
// (wall-clock timeout, Z3 rlimit, memory cap, random seed), queries can be
// cooperatively cancelled from another thread via interrupt(), and a
// test-only FaultPlan can inject deterministic failures.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "backends/fault_plan.hpp"
#include "enumerate/enumerator.hpp"
#include "ir/term.hpp"
#include "ir/term_eval.hpp"

namespace buffy::backends {

enum class SolveStatus { Sat, Unsat, Unknown };

/// Resource limits applied to a single solver query. Unset fields mean
/// "unlimited" (and seed 0, Z3's default). Implicitly convertible from a
/// bare timeout for the common case.
struct SolveBudget {
  /// Wall-clock limit per query, milliseconds.
  std::optional<unsigned> timeoutMs;
  /// Z3 resource limit ("rlimit") — a deterministic work counter, unlike
  /// the wall clock, so budget-exhaustion tests reproduce exactly.
  std::optional<unsigned> rlimit;
  /// Z3 memory cap, megabytes.
  std::optional<unsigned> maxMemoryMb;
  /// Z3 random seed (retry/escalation re-rolls this on Unknown).
  std::optional<unsigned> randomSeed;

  SolveBudget() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate sugar — every
  // pre-budget call site passed a bare optional timeout.
  SolveBudget(std::optional<unsigned> timeout) : timeoutMs(timeout) {}
};

struct SolveResult {
  SolveStatus status = SolveStatus::Unknown;
  /// Variable assignment extracted from the model (Sat only). Variables the
  /// solver left unconstrained are omitted (treated as 0 downstream).
  ir::Assignment model;
  /// Variables whose model value is a numeral that does not fit int64 —
  /// they are *absent* from `model`, and downstream trace evaluation would
  /// silently misreport them, so the extraction records them here instead
  /// of dropping them on the floor.
  std::vector<std::string> overflowVars;
  /// Wall-clock seconds spent inside the solver.
  double seconds = 0.0;
  /// The part of `seconds` spent constructing the enumerator (domains,
  /// saturation thresholds, dead-set layout); 0 when none was built.
  double setupSeconds = 0.0;
  /// DAG nodes that construction laid out: the structural layout's and the
  /// delta's when the attempt built the layout, the delta's own after
  /// that; 0 when no enumerator was built.
  std::uint64_t setupNodes = 0;
  /// Z3's reason when status == Unknown (e.g. "timeout").
  std::string reason;
  /// Z3 resource units consumed by this query alone (the context's
  /// "rlimit count" statistic across the check; best-effort, 0 when
  /// unavailable).
  std::uint64_t rlimitUsed = 0;
  /// True when status == Unknown because the query was cancelled via
  /// interrupt() rather than because the solver gave up or ran out of
  /// budget — retry ladders must not re-run cancelled queries.
  bool canceled = false;
  /// Test-only fault-injection tag (FaultAction::Kind::CorruptWitness):
  /// instructs the analysis layer to perturb the extracted witness trace
  /// so the replay cross-check can be exercised deterministically.
  bool corruptWitness = false;
  /// True when the enumeration, not Z3, answered the query (or
  /// would have, for an injected Unknown).
  bool enumerated = false;
  /// What the enumeration did, also when it declined mid-search and Z3
  /// answered instead (all zero when no search ran).
  enumerate::SearchStats search;
};

class Z3Backend {
 public:
  Z3Backend();
  ~Z3Backend();
  Z3Backend(const Z3Backend&) = delete;
  Z3Backend& operator=(const Z3Backend&) = delete;

  /// Checks satisfiability of the conjunction of `constraints` (one-shot:
  /// fresh preprocessing solver, fresh lowering).
  SolveResult check(std::span<const ir::TermRef> constraints,
                    SolveBudget budget = {});

  /// The problem a declined enumeration hands to Z3, built only then.
  using PlannedProblem = std::function<std::span<const ir::TermRef>()>;

  /// The retry ladder's first rung: decides the conjunction by memoized
  /// enumeration when it qualifies (DESIGN.md §7). Otherwise — also when
  /// the search meets an int64 overflow or exhausts its evaluation budget
  /// — the same attempt runs check() on `planned()`, an equisatisfiable
  /// form of the problem (the constraints themselves when `planned` is
  /// empty). The attempt's seconds include the enumerator's set-up
  /// (domains, saturation thresholds) and any declined search. An
  /// enumeration is an attempt like a Z3 check: it takes the same fault
  /// slot, stops on interrupt(), returns Unknown "timeout" when
  /// `budget.timeoutMs` runs out, ignores the rlimit and memory cap, and
  /// reports `rlimitUsed` 0.
  SolveResult enumerateOrCheck(std::span<const ir::TermRef> constraints,
                               SolveBudget budget = {},
                               const PlannedProblem& planned = {});

  /// The same for the conjunction of `structural` and `delta`, where an
  /// engine asks many queries under one `structural` set: `layout` holds
  /// its enumerate::Layout across the queries. An attempt that finds it
  /// empty lays the structural constraints out and leaves the layout
  /// there; every attempt lays out only the nodes its delta adds.
  SolveResult enumerateOrCheck(
      std::shared_ptr<const enumerate::Layout>& layout,
      std::span<const ir::TermRef> structural,
      std::span<const ir::TermRef> delta, SolveBudget budget = {},
      const PlannedProblem& planned = {});

  /// Parses SMT-LIB2 text (e.g. from the smtlib backend) and checks it —
  /// the emission/reparse path of the backend-comparison ablation and the
  /// last rung of the Unknown-escalation ladder.
  SolveResult checkSmtLib(const std::string& smtlib, SolveBudget budget = {});

  /// Cooperative cancellation, callable from ANY thread (the only
  /// thread-safe entry point of the backend). Cancels the in-flight query,
  /// if one is running, via Z3_interrupt, and permanently cancels the
  /// backend: every later query returns immediately with an Unknown result
  /// whose `canceled` flag is set. One-way by design — an interrupted Z3
  /// context is not reliably reusable, and the only caller (firstOnly
  /// synthesis) discards the engine's remaining work anyway.
  void interrupt();
  /// True once interrupt() has been called.
  [[nodiscard]] bool interrupted() const;

  /// Installs the test-only fault-injection plan (see fault_plan.hpp).
  /// Pass nullptr to clear. Faults are consumed by check / checkSmtLib in
  /// order, counted per scope.
  void setFaultPlan(FaultPlanPtr plan);
  /// Names the scope for subsequent checks' fault lookups (default "").
  void setFaultScope(std::string scope);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace buffy::backends
