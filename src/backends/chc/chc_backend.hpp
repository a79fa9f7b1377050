// CHC / Spacer backend (paper §4 "Back-end for model checkers" and §7:
// "with loop invariants for the loop that executes the program over many
// timesteps ... we could scale Buffy's analysis to an arbitrarily-bounded
// time horizon, an improvement over tools like FPerf").
//
// The transition system extracted by core/transition is encoded as
// Constrained Horn Clauses over an unknown inductive invariant Inv:
//
//     Inv(init)                                           (initiation)
//     Inv(s) ∧ step(s, in, s')          ⇒ Inv(s')          (consecution)
//     Inv(s) ∧ ¬property(s)             ⇒ Bad              (safety)
//     Inv(s) ∧ step-constraints ∧ ¬assert ⇒ Bad            (in-program asserts)
//
// and handed to Z3's Spacer engine. `Proved` means the property holds at
// EVERY time step of EVERY execution — no horizon bound, the direct answer
// to Figure 6's exponential wall.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "core/query.hpp"
#include "core/transition.hpp"

namespace buffy::backends {

class ChcInterruptHandle;

enum class ChcStatus { Proved, Violated, Unknown };

const char* chcStatusName(ChcStatus status);

struct ChcResult {
  ChcStatus status = ChcStatus::Unknown;
  double seconds = 0.0;
  std::string detail;  // reason when Unknown

  [[nodiscard]] bool proved() const { return status == ChcStatus::Proved; }
};

/// Proves that `property` (a boolean term over the system's *pre-state*
/// variables) holds in every reachable state, and that every in-program
/// assert holds at every step. When `interrupt` is non-null the query
/// registers with it so it can be cancelled from another thread; an
/// interrupted query returns Unknown/"interrupted", whether Spacer answers
/// unknown or raises. A query that runs out of `timeoutMs` returns
/// Unknown/"timeout". Any other Spacer failure throws BackendError.
ChcResult proveSafety(const core::TransitionSystem& system,
                      ir::TermRef property,
                      std::optional<unsigned> timeoutMs = 60000,
                      ChcInterruptHandle* interrupt = nullptr);

/// Cross-thread cooperative cancellation for a Spacer query, mirroring
/// Analysis::interrupt's discipline: interrupt() is callable from ANY
/// thread, cancels the in-flight query (if one is registered), and
/// permanently cancels the handle — queries started after it return
/// Unknown/"interrupted" without touching the solver. `buffy prove`
/// fires it from its shutdown token on SIGINT/SIGTERM.
class ChcInterruptHandle {
 public:
  void interrupt();
  [[nodiscard]] bool interrupted() const { return interrupted_.load(); }

  /// RAII registration of the in-flight query's z3::context (backend
  /// internal): registers on construction, unregisters on destruction —
  /// which must happen before the context dies, so a cross-thread
  /// interrupt can never land on a destroyed context. Null handle = no-op.
  class Registration {
   public:
    Registration(ChcInterruptHandle* handle, void* ctx);
    ~Registration();
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;

   private:
    ChcInterruptHandle* handle_;
  };

 private:
  /// Guards `activeCtx_` against the register/interrupt/unregister race
  /// (same argument as the job layer's hook mutex).
  std::mutex mu_;
  void* activeCtx_ = nullptr;  // z3::context* of the in-flight query
  std::atomic<bool> interrupted_{false};
};

/// Convenience driver: network -> transition system -> Spacer.
class UnboundedAnalysis {
 public:
  UnboundedAnalysis(core::Network network,
                    core::TransitionOptions options = {});

  /// Property text over state-variable names using the query syntax with
  /// index [0] denoting "the current state", e.g.
  ///   "rr.cdeq.0[0] >= 0 & rr.ibs.0.pkts[0] <= 6".
  ChcResult prove(const std::string& propertyExpr,
                  std::optional<unsigned> timeoutMs = 60000);
  /// Programmatic property over the pre-state (1-step SeriesView).
  ChcResult prove(const core::Query& property,
                  std::optional<unsigned> timeoutMs = 60000);

  [[nodiscard]] const core::TransitionSystem& system() const {
    return *system_;
  }
  /// State-variable names (for property authoring).
  [[nodiscard]] std::vector<std::string> stateNames() const;

  /// Cancels the in-flight prove() (if any) from any thread and
  /// permanently cancels this analysis — later prove() calls return
  /// Unknown/"interrupted" immediately.
  void interrupt() { interrupt_.interrupt(); }
  [[nodiscard]] bool interrupted() const { return interrupt_.interrupted(); }

 private:
  std::unique_ptr<core::TransitionSystem> system_;
  /// Caps the property text's nesting like the model's (DESIGN.md §10).
  CompileBudget budget_;
  std::map<std::string, std::vector<ir::TermRef>> stateSeries_;
  ChcInterruptHandle interrupt_;
};

}  // namespace buffy::backends
