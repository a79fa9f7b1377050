#include "backends/z3/z3_backend.hpp"

#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include <z3++.h>

#include "backends/z3/z3_lowering.hpp"
#include "enumerate/enumerator.hpp"
#include "support/error.hpp"

namespace buffy::backends {

namespace {

/// Applies the full budget on every query. All four parameters are always
/// set (to Z3's documented defaults when the budget leaves them open) so a
/// previous query's escalated budget never leaks into the next one.
void applyBudget(z3::solver& solver, const SolveBudget& budget) {
  z3::params params(solver.ctx());
  params.set("timeout", budget.timeoutMs.value_or(4294967295u));
  params.set("rlimit", budget.rlimit.value_or(0u));      // 0 = unlimited
  params.set("max_memory", budget.maxMemoryMb.value_or(4294967295u));
  params.set("random_seed", budget.randomSeed.value_or(0u));
  solver.set(params);
}

/// Best-effort read of the "rlimit count" statistic: the running total of
/// the solver's Z3 context, not of one check.
std::uint64_t readRlimit(z3::solver& solver) {
  try {
    const z3::stats stats = solver.statistics();
    for (unsigned i = 0; i < stats.size(); ++i) {
      if (stats.key(i) == "rlimit count") {
        return stats.is_uint(i)
                   ? static_cast<std::uint64_t>(stats.uint_value(i))
                   : static_cast<std::uint64_t>(stats.double_value(i));
      }
    }
  } catch (const z3::exception&) {
    // Statistics are diagnostics only; never fail a solve over them.
  }
  return 0;
}

/// Z3 reports a budget that runs out inside a preprocessing tactic or the
/// smt kernel's search as "canceled". Only interrupt() cancels a query, so
/// when the backend's own flag is clear such a reason means the budget was
/// exhausted.
bool saysCanceled(const std::string& reason) {
  return reason.find("cancel") != std::string::npos ||
         reason.find("interrupt") != std::string::npos;
}

/// The reason reported for an exhausted budget (Z3's own text for an
/// rlimit).
std::string exhaustedReason(const SolveBudget& budget) {
  if (budget.rlimit) return "max. resource limit exceeded";
  return budget.timeoutMs ? "timeout" : "resource limit exceeded";
}

/// A fresh solver running the one-shot preprocessing pipeline.
z3::solver preprocessingSolver(z3::context& ctx) {
  const z3::tactic pipeline =
      z3::tactic(ctx, "simplify") & z3::tactic(ctx, "propagate-values") &
      z3::tactic(ctx, "solve-eqs") & z3::tactic(ctx, "smt");
  return pipeline.mk_solver();
}

SolveResult canceledResult() {
  SolveResult result;
  result.status = SolveStatus::Unknown;
  result.reason = "canceled";
  result.canceled = true;
  return result;
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

struct Z3Backend::Impl {
  /// Built by the first query that reaches Z3.
  std::optional<z3::context> ctx;

  z3::context& context() {
    if (!ctx) ctx.emplace();
    return *ctx;
  }

  // --- cooperative cancellation (DESIGN.md §8) ---------------------------
  // `cancelled` short-circuits every query at our layer; Z3_interrupt is
  // only issued while a check is in flight (`solving`, guarded by
  // `interruptMutex`) because interrupting an idle Z3 context poisons it
  // permanently (every later API call throws "canceled").
  std::atomic<bool> cancelled{false};
  std::mutex interruptMutex;
  bool solving = false;  // guarded by interruptMutex

  // --- test-only fault injection ----------------------------------------
  FaultPlanPtr faultPlan;
  std::string faultScope;
  std::map<std::string, std::size_t> faultCounters;

  /// Consumes the next fault slot for the current scope. Returns the
  /// injected action, if any. ForceUnknown and Throw are handled here;
  /// Delay sleeps and falls through to the real solve; CorruptWitness
  /// falls through and is tagged onto the result by runSolver's caller.
  std::optional<FaultAction> consumeFault(SolveResult* result) {
    if (!faultPlan) return std::nullopt;
    const std::size_t nth = faultCounters[faultScope]++;
    auto action = faultPlan->actionFor(faultScope, nth);
    if (!action) return std::nullopt;
    switch (action->kind) {
      case FaultAction::Kind::ForceUnknown:
        // A nonzero delay models the realistic shape: the solver burns
        // (part of) its budget before giving up.
        if (action->delayMs != 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(action->delayMs));
        }
        result->status = SolveStatus::Unknown;
        result->reason = action->reason;
        return action;
      case FaultAction::Kind::Throw:
        throw BackendError("injected fault: " + action->reason);
      case FaultAction::Kind::Delay:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(action->delayMs));
        return action;
      case FaultAction::Kind::CorruptWitness:
        return action;
      case FaultAction::Kind::CrashBeforeReply:
      case FaultAction::Kind::Hang:
      case FaultAction::Kind::GarbledFrame:
      case FaultAction::Kind::PartialWrite:
        // Process-level faults belong to the worker loop (DESIGN.md §13).
        // When a job degrades to in-process execution the plan still
        // carries them; the solver must not trip on entries it cannot
        // model.
        return std::nullopt;
    }
    return action;
  }

  /// Runs solver.check() under the cancellation protocol and extracts the
  /// result. May be cancelled from another thread at any point.
  SolveResult runSolver(z3::solver& solver, const SolveBudget& budget) {
    SolveResult result;
    if (cancelled.load()) return canceledResult();
    const std::uint64_t rlimitBefore = readRlimit(solver);

    const auto start = std::chrono::steady_clock::now();
    z3::check_result status = z3::unknown;
    {
      const std::lock_guard<std::mutex> lock(interruptMutex);
      if (cancelled.load()) return canceledResult();
      solving = true;
    }
    try {
      status = solver.check();
    } catch (const z3::exception& e) {
      {
        const std::lock_guard<std::mutex> lock(interruptMutex);
        solving = false;
      }
      if (cancelled.load()) return canceledResult();
      throw;
    }
    {
      const std::lock_guard<std::mutex> lock(interruptMutex);
      solving = false;
    }
    result.seconds = secondsSince(start);
    // readRlimit returns 0 when the statistic is unavailable; clamp so the
    // delta never wraps.
    const std::uint64_t rlimitNow = readRlimit(solver);
    result.rlimitUsed = rlimitNow > rlimitBefore ? rlimitNow - rlimitBefore : 0;

    switch (status) {
      case z3::sat: {
        result.status = SolveStatus::Sat;
        const z3::model model = solver.get_model();
        for (unsigned i = 0; i < model.num_consts(); ++i) {
          const z3::func_decl decl = model.get_const_decl(i);
          const z3::expr value = model.get_const_interp(decl);
          const std::string name = decl.name().str();
          if (value.is_numeral()) {
            std::int64_t v = 0;
            if (value.is_numeral_i64(v)) {
              result.model[name] = v;
            } else {
              result.overflowVars.push_back(name);
            }
          } else if (value.is_bool()) {
            result.model[name] = value.is_true() ? 1 : 0;
          }
        }
        break;
      }
      case z3::unsat:
        result.status = SolveStatus::Unsat;
        break;
      case z3::unknown:
        result.status = SolveStatus::Unknown;
        if (cancelled.load()) return canceledResult();
        result.reason = solver.reason_unknown();
        if (saysCanceled(result.reason)) {
          result.reason = exhaustedReason(budget);
        }
        break;
    }
    return result;
  }

  /// The query protocol every entry point shares: consumes the next fault
  /// slot, then returns what `run` answers. A z3 exception that reports an
  /// exhausted budget is an Unknown answer, not an error. `enumerates`
  /// tags the answers no engine produced (a forced Unknown, a query
  /// cancelled before it started) with the engine the attempt would have
  /// used.
  template <typename Run>
  SolveResult oneShot(const SolveBudget& budget, const char* errorPrefix,
                      bool enumerates, const Run& run) {
    SolveResult injected = cancelled.load() ? canceledResult() : SolveResult{};
    injected.enumerated = enumerates;
    if (injected.canceled) return injected;
    const auto fault = consumeFault(&injected);
    if (fault && fault->kind == FaultAction::Kind::ForceUnknown) {
      return injected;
    }
    try {
      SolveResult result = run();
      if (fault && fault->kind == FaultAction::Kind::CorruptWitness) {
        result.corruptWitness = true;
      }
      return result;
    } catch (const z3::exception& e) {
      if (cancelled.load()) return canceledResult();
      if (!saysCanceled(e.msg())) {
        throw BackendError(std::string(errorPrefix) + e.msg());
      }
      SolveResult result;
      result.reason = exhaustedReason(budget);
      return result;
    }
  }

  /// check(): lowers the constraints into a fresh preprocessing solver.
  SolveResult checkZ3(std::span<const ir::TermRef> constraints,
                      const SolveBudget& budget) {
    z3::context& ctx = context();
    z3::solver solver = preprocessingSolver(ctx);
    applyBudget(solver, budget);
    std::unordered_map<const ir::Term*, z3::expr> memo;
    for (const ir::TermRef c : constraints) {
      if (c->sort != ir::Sort::Bool) {
        throw BackendError("constraint is not boolean");
      }
      solver.add(lowerTerm(ctx, c, memo));
    }
    return runSolver(solver, budget);
  }

  /// Runs a qualifying enumeration under the cancellation and timeout
  /// protocol. A declined search (an overflow, an exhausted budget) leaves
  /// `result.enumerated` false with its time and counters filled in.
  SolveResult runEnumeration(enumerate::Enumerator& problem,
                             const SolveBudget& budget) {
    const auto start = std::chrono::steady_clock::now();
    // Z3 reads a timeout of 0 as "no timeout"; so does the enumeration.
    const bool timed = budget.timeoutMs && *budget.timeoutMs != 0;
    const auto deadline =
        start + std::chrono::milliseconds(budget.timeoutMs.value_or(0));
    const enumerate::Outcome outcome = problem.run([&] {
      return cancelled.load() ||
             (timed && std::chrono::steady_clock::now() >= deadline);
    });
    SolveResult result;
    result.enumerated = true;
    switch (outcome.status) {
      case enumerate::Status::Declined:
        result.enumerated = false;
        break;
      case enumerate::Status::Sat:
        result.status = SolveStatus::Sat;
        result.model = outcome.model;
        break;
      case enumerate::Status::Unsat:
        result.status = SolveStatus::Unsat;
        break;
      case enumerate::Status::Stopped:
        if (cancelled.load()) {
          result = canceledResult();
          result.enumerated = true;
        } else {
          result.reason = "timeout";
        }
        break;
    }
    result.seconds = secondsSince(start);
    result.search = outcome.stats;
    return result;
  }
};

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

Z3Backend::Z3Backend() : impl_(std::make_unique<Impl>()) {}
Z3Backend::~Z3Backend() = default;

SolveResult Z3Backend::check(std::span<const ir::TermRef> constraints,
                             SolveBudget budget) {
  return impl_->oneShot(budget, "z3: ", false,
                        [&] { return impl_->checkZ3(constraints, budget); });
}

SolveResult Z3Backend::enumerateOrCheck(
    std::span<const ir::TermRef> constraints, SolveBudget budget,
    const PlannedProblem& planned) {
  std::shared_ptr<const enumerate::Layout> layout;
  return enumerateOrCheck(layout, constraints, {}, budget, planned);
}

SolveResult Z3Backend::enumerateOrCheck(
    std::shared_ptr<const enumerate::Layout>& layout,
    std::span<const ir::TermRef> structural,
    std::span<const ir::TermRef> delta, SolveBudget budget,
    const PlannedProblem& planned) {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t setUpNodes = 0;
  if (!layout) {
    layout = std::make_shared<const enumerate::Layout>(structural);
    setUpNodes = layout->nodes();
  }
  enumerate::Enumerator problem(layout, delta);
  const double setUpSeconds = secondsSince(start);
  setUpNodes += problem.setupNodes();
  return impl_->oneShot(budget, "z3: ", problem.qualifies(), [&] {
    SolveResult searched;
    if (problem.qualifies()) searched = impl_->runEnumeration(problem, budget);
    searched.seconds += setUpSeconds;
    searched.setupSeconds = setUpSeconds;
    searched.setupNodes = setUpNodes;
    if (searched.enumerated) return searched;
    std::vector<ir::TermRef> whole;
    if (!planned) {
      whole.assign(structural.begin(), structural.end());
      whole.insert(whole.end(), delta.begin(), delta.end());
    }
    SolveResult result = impl_->checkZ3(planned ? planned() : whole, budget);
    result.seconds += searched.seconds;
    result.setupSeconds = setUpSeconds;
    result.setupNodes = setUpNodes;
    result.search = searched.search;
    return result;
  });
}

SolveResult Z3Backend::checkSmtLib(const std::string& smtlib,
                                   SolveBudget budget) {
  return impl_->oneShot(budget, "z3 (smtlib parse): ", false, [&] {
    z3::context& ctx = impl_->context();
    z3::solver solver(ctx);
    applyBudget(solver, budget);
    const z3::expr_vector assertions = ctx.parse_string(smtlib.c_str());
    for (unsigned i = 0; i < assertions.size(); ++i) {
      solver.add(assertions[i]);
    }
    return impl_->runSolver(solver, budget);
  });
}

void Z3Backend::interrupt() {
  impl_->cancelled.store(true);
  const std::lock_guard<std::mutex> lock(impl_->interruptMutex);
  if (impl_->solving) {
    impl_->ctx->interrupt();  // a Z3 check in flight built the context
  }
}

bool Z3Backend::interrupted() const { return impl_->cancelled.load(); }

void Z3Backend::setFaultPlan(FaultPlanPtr plan) {
  impl_->faultPlan = std::move(plan);
  impl_->faultCounters.clear();
}

void Z3Backend::setFaultScope(std::string scope) {
  impl_->faultScope = std::move(scope);
}

}  // namespace buffy::backends
