// Portfolio solver racing (DESIGN.md §12): one query, several solving
// strategies launched concurrently, first *sound* verdict wins and
// cooperatively interrupts the losers. Replaces the serial retry ladder as
// the escalation story for hard queries — the ladder itself becomes one
// portfolio member (and the deterministic fallback when nothing sound
// lands).
//
// Members:
//   * "ladder"      — the full PR-2 retry/escalation ladder (DESIGN.md §8),
//                     member 0 and the fallback answer.
//   * "z3-seed-<S>" — single-shot Z3 with a pinned random seed and the
//                     ladder disabled: Unknowns from unlucky heuristic
//                     choices often vanish under a different seed.
//   * "smtlib"      — emit + reparse through a fresh one-shot solver, a
//                     different preprocessing pipeline.
//   * "chc"         — the unbounded CHC/Spacer path (verify-only, gated;
//                     see PortfolioOptions::chc). A Spacer "Proved" holds
//                     at EVERY step, hence at every step of the bounded
//                     horizon — sound. Violated/Unknown never win: a CHC
//                     counterexample may lie beyond the horizon.
//
// The race-soundness rule lives in RaceGroup: an Unknown (or canceled, or
// witness-mismatched) member result can never win while a sibling is still
// running; among sound answers chronology decides.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "procs/supervisor.hpp"

namespace buffy::core {

struct PortfolioOptions {
  /// Worker threads for the race; 0 = one per member.
  std::size_t threads = 0;
  /// Seeds for the "z3-seed-<S>" members.
  std::vector<unsigned> seeds = {5, 23};
  /// Include the emit+reparse one-shot member.
  bool smtlib = true;
  /// Include the CHC/Spacer unbounded member. Auto-skipped unless the
  /// query is inside its fragment: verify discipline, textual query that
  /// never mentions the horizon constant T (under CHC the per-state view
  /// has horizon 1, so any T-dependent text would silently change
  /// meaning), empty bounded workload, concrete initial state.
  bool chc = true;
  /// Fault-scope prefix for deterministic test injection: each member's
  /// engine runs under scope "<prefix><member name>".
  std::string faultScopePrefix = "race:";
  /// Crash isolation (DESIGN.md §13): when set, each member's solve runs
  /// in a supervised `buffy --worker` subprocess instead of on the racing
  /// thread. Members silently stay in-process when the problem is not
  /// describable (contract networks, programmatic workloads without
  /// matching specs, non-textual queries) or the supervisor has degraded.
  /// The CHC member always runs in-process.
  procs::Supervisor* supervisor = nullptr;
  /// CLI-format workload specs equivalent to the Workload argument —
  /// workloads cross the process boundary only as re-parseable text.
  std::vector<std::string> workloadSpecs;
};

/// Per-member log, indexed like the member list.
struct PortfolioMemberReport {
  std::string name;
  /// Verdict name when the member finished, "" otherwise.
  std::string verdict;
  bool started = false;
  bool finished = false;
  bool sound = false;
  bool won = false;
  std::string error;
  double seconds = 0.0;
  /// True when the member's answer came from the verdict cache — including
  /// the synthetic "cache" member a pre-race hit reports as the sole
  /// winner (the hit short-circuits the whole race).
  bool cached = false;
  /// Crash-isolation accounting; empty on the in-process path.
  std::optional<procs::JobStats> isolation;
};

struct PortfolioResult {
  /// The winning member's result, or the deterministic fallback (the
  /// lowest-index member that finished — the ladder, when it did).
  AnalysisResult result;
  /// Winning member name; "" when no sound answer landed.
  std::string winner;
  std::vector<PortfolioMemberReport> members;
  double seconds = 0.0;
};

/// Races the portfolio over one shared CompilationUnit. Each member builds
/// its own Analysis engine (one Z3 context per thread); the unit is
/// compiled once.
class Portfolio {
 public:
  Portfolio(pipeline::CompilationUnitPtr unit, AnalysisOptions options);

  /// FPerf-style ∃ race (no CHC member — it answers ∀ questions only).
  PortfolioResult check(const Query& query, const Workload& workload,
                        const PortfolioOptions& opts = {});
  /// Verification ∀ race.
  PortfolioResult verify(const Query& query, const Workload& workload,
                         const PortfolioOptions& opts = {});

 private:
  PortfolioResult race(const Query& query, const Workload& workload,
                       const PortfolioOptions& opts, bool forVerify);

  pipeline::CompilationUnitPtr unit_;
  AnalysisOptions options_;
};

}  // namespace buffy::core
