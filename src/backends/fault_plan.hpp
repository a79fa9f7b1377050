// Deterministic fault injection for the solver back-ends — the test-only
// seam behind the resilience layer (DESIGN.md §8). A FaultPlan maps
// (scope, nth-check-within-scope) to an action the backend performs
// instead of (or around) the real solver call:
//
//   * ForceUnknown    — skip the solve, return Unknown with a given reason
//                       (models a timeout / rlimit exhaustion / solver
//                       giving up);
//   * Throw           — throw BackendError (models a solver crash);
//   * Delay           — sleep before solving (models a slow query, for
//                       exercising wall-clock budgets);
//   * CorruptWitness  — solve normally but tag the result so the analysis
//                       layer perturbs the extracted witness trace (models
//                       an unsound model extraction, for exercising the
//                       witness-replay cross-check).
//
// Process-level worker faults (DESIGN.md §13) ride in the same plan but
// are interpreted by the `buffy --worker` loop, keyed on (scope, attempt
// ordinal) instead of (scope, nth solver check); solver backends treat
// them as no-ops so a degraded in-process fallback never trips on them:
//
//   * CrashBeforeReply — the worker process exits without answering
//                        (models a solver segfault / OOM kill);
//   * Hang             — the worker stops responding until killed (models
//                        a wedged solver pipe, exercises the supervisor's
//                        deadline kill);
//   * GarbledFrame     — the reply frame arrives with a bad checksum
//                        (models memory corruption on the wire);
//   * PartialWrite     — the worker dies mid-write, tearing the frame.
//
// Scopes make injection deterministic under parallelism: the synthesizer
// scopes every candidate by its enumeration index, so "fault the 2nd check
// of candidate 7" hits the same solver call regardless of which worker
// thread evaluates it or how many threads run. The empty scope covers
// checks made outside any scope (plain Analysis use).
//
// Plans are immutable once handed to a backend (shared by all worker
// backends via shared_ptr<const FaultPlan>); the per-scope check counters
// live in each backend. Production code never installs a plan — the hook
// costs one null pointer test per check.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace buffy::backends {

struct FaultAction {
  enum class Kind {
    ForceUnknown,
    Throw,
    Delay,
    CorruptWitness,
    // Process-level worker faults, interpreted by the worker loop only.
    CrashBeforeReply,
    Hang,
    GarbledFrame,
    PartialWrite,
  };
  Kind kind = Kind::ForceUnknown;
  /// Reason string for ForceUnknown (mirrors Z3's reason_unknown) and
  /// message suffix for Throw.
  std::string reason = "injected fault";
  /// Sleep duration for Delay; for ForceUnknown a nonzero value sleeps
  /// before giving up (a solver burning its budget).
  unsigned delayMs = 0;
};

class FaultPlan {
 public:
  /// Schedules `action` for the nth check (0-based) made under `scope`.
  FaultPlan& at(std::string scope, std::size_t nthCheck, FaultAction action) {
    actions_[std::make_pair(std::move(scope), nthCheck)] = std::move(action);
    return *this;
  }

  /// Convenience: ForceUnknown with `reason` at (scope, nthCheck).
  FaultPlan& forceUnknown(std::string scope, std::size_t nthCheck,
                          std::string reason = "injected timeout") {
    return at(std::move(scope), nthCheck,
              FaultAction{FaultAction::Kind::ForceUnknown, std::move(reason),
                          0});
  }

  [[nodiscard]] std::optional<FaultAction> actionFor(
      const std::string& scope, std::size_t nthCheck) const {
    const auto it = actions_.find(std::make_pair(scope, nthCheck));
    if (it == actions_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] bool empty() const { return actions_.empty(); }

  /// Every scheduled (scope, nth) -> action entry; the worker layer
  /// serializes plans through this.
  [[nodiscard]] const std::map<std::pair<std::string, std::size_t>,
                               FaultAction>&
  actions() const {
    return actions_;
  }

 private:
  std::map<std::pair<std::string, std::size_t>, FaultAction> actions_;
};

using FaultPlanPtr = std::shared_ptr<const FaultPlan>;

}  // namespace buffy::backends
