#include "backends/z3/z3_backend.hpp"

#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <z3++.h>

#include "backends/z3/z3_lowering.hpp"
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

/// Best-effort read of the solver's cumulative "rlimit count" statistic.
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

bool reasonMeansCanceled(const std::string& reason) {
  return reason.find("cancel") != std::string::npos ||
         reason.find("interrupt") != std::string::npos;
}

SolveResult canceledResult() {
  SolveResult result;
  result.status = SolveStatus::Unknown;
  result.reason = "canceled";
  result.canceled = true;
  return result;
}

}  // namespace

struct Z3Backend::Impl {
  z3::context ctx;

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

  /// Memoized lowering shared with the CHC backend.
  z3::expr lower(ir::TermRef root,
                 std::unordered_map<const ir::Term*, z3::expr>& memo) {
    return lowerTerm(ctx, root, memo);
  }

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
  SolveResult runSolver(z3::solver& solver, std::uint64_t rlimitBefore) {
    SolveResult result;
    if (cancelled.load()) return canceledResult();

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
      throw BackendError(std::string("z3: ") + e.msg());
    }
    {
      const std::lock_guard<std::mutex> lock(interruptMutex);
      solving = false;
    }
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    // readRlimit returns 0 when the statistic is unavailable; clamp so the
    // delta never wraps when rlimitBefore reflects earlier session queries.
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
        result.reason = solver.reason_unknown();
        if (cancelled.load() || reasonMeansCanceled(result.reason)) {
          result.canceled = true;
        }
        break;
    }
    return result;
  }
};

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

struct Z3Backend::Session::Impl {
  Z3Backend::Impl* backend;
  z3::solver solver;
  SolveBudget defaultBudget;
  /// Persists across queries: terms lowered for one query are reused by
  /// every later query on the same arena.
  std::unordered_map<const ir::Term*, z3::expr> memo;
  std::size_t queries = 0;
  /// Cumulative "rlimit count" after the previous query, for per-query
  /// consumption deltas.
  std::uint64_t rlimitSeen = 0;

  explicit Impl(Z3Backend::Impl* b) : backend(b), solver(b->ctx) {}

  void assertAll(std::span<const ir::TermRef> constraints) {
    for (const ir::TermRef c : constraints) {
      if (c->sort != ir::Sort::Bool) {
        throw BackendError("constraint is not boolean");
      }
      solver.add(backend->lower(c, memo));
    }
  }
};

Z3Backend::Session::Session(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

Z3Backend::Session::~Session() = default;

void Z3Backend::Session::assertBase(
    std::span<const ir::TermRef> constraints) {
  try {
    impl_->assertAll(constraints);
  } catch (const z3::exception& e) {
    if (impl_->backend->cancelled.load()) return;  // engine is being torn down
    throw BackendError(std::string("z3: ") + e.msg());
  }
}

SolveResult Z3Backend::Session::check(
    std::span<const ir::TermRef> extra,
    const std::optional<SolveBudget>& budget) {
  Z3Backend::Impl* backend = impl_->backend;
  if (backend->cancelled.load()) return canceledResult();

  SolveResult injected;
  const auto fault = backend->consumeFault(&injected);
  if (fault && fault->kind == FaultAction::Kind::ForceUnknown) {
    ++impl_->queries;
    return injected;
  }

  try {
    applyBudget(impl_->solver, budget.value_or(impl_->defaultBudget));
    impl_->solver.push();
    SolveResult result;
    try {
      impl_->assertAll(extra);
      result = backend->runSolver(impl_->solver, impl_->rlimitSeen);
    } catch (...) {
      impl_->solver.pop();
      throw;
    }
    impl_->solver.pop();
    impl_->rlimitSeen += result.rlimitUsed;
    ++impl_->queries;
    if (fault && fault->kind == FaultAction::Kind::CorruptWitness) {
      result.corruptWitness = true;
    }
    return result;
  } catch (const z3::exception& e) {
    // A cancellation racing with lowering/push/pop surfaces as a z3
    // "canceled" exception rather than an unknown check result.
    if (backend->cancelled.load() || reasonMeansCanceled(e.msg())) {
      return canceledResult();
    }
    throw BackendError(std::string("z3: ") + e.msg());
  }
}

std::size_t Z3Backend::Session::queryCount() const { return impl_->queries; }

std::size_t Z3Backend::Session::loweredTermCount() const {
  return impl_->memo.size();
}

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

Z3Backend::Z3Backend() : impl_(std::make_unique<Impl>()) {}
Z3Backend::~Z3Backend() = default;

std::unique_ptr<Z3Backend::Session> Z3Backend::openSession(
    std::span<const ir::TermRef> base, SolveBudget budget) {
  try {
    auto impl = std::make_unique<Session::Impl>(impl_.get());
    impl->defaultBudget = budget;
    applyBudget(impl->solver, budget);
    impl->assertAll(base);
    return std::unique_ptr<Session>(new Session(std::move(impl)));
  } catch (const z3::exception& e) {
    throw BackendError(std::string("z3: ") + e.msg());
  }
}

SolveResult Z3Backend::check(std::span<const ir::TermRef> constraints,
                             SolveBudget budget) {
  if (impl_->cancelled.load()) return canceledResult();
  SolveResult injected;
  const auto fault = impl_->consumeFault(&injected);
  if (fault && fault->kind == FaultAction::Kind::ForceUnknown) {
    return injected;
  }
  try {
    z3::solver solver(impl_->ctx);
    applyBudget(solver, budget);
    std::unordered_map<const ir::Term*, z3::expr> memo;
    for (const ir::TermRef c : constraints) {
      if (c->sort != ir::Sort::Bool) {
        throw BackendError("constraint is not boolean");
      }
      solver.add(impl_->lower(c, memo));
    }
    SolveResult result = impl_->runSolver(solver, 0);
    if (fault && fault->kind == FaultAction::Kind::CorruptWitness) {
      result.corruptWitness = true;
    }
    return result;
  } catch (const z3::exception& e) {
    if (impl_->cancelled.load() || reasonMeansCanceled(e.msg())) {
      return canceledResult();
    }
    throw BackendError(std::string("z3: ") + e.msg());
  }
}

SolveResult Z3Backend::checkSmtLib(const std::string& smtlib,
                                   SolveBudget budget) {
  if (impl_->cancelled.load()) return canceledResult();
  SolveResult injected;
  const auto fault = impl_->consumeFault(&injected);
  if (fault && fault->kind == FaultAction::Kind::ForceUnknown) {
    return injected;
  }
  try {
    z3::solver solver(impl_->ctx);
    applyBudget(solver, budget);
    const z3::expr_vector assertions =
        impl_->ctx.parse_string(smtlib.c_str());
    for (unsigned i = 0; i < assertions.size(); ++i) {
      solver.add(assertions[i]);
    }
    SolveResult result = impl_->runSolver(solver, 0);
    if (fault && fault->kind == FaultAction::Kind::CorruptWitness) {
      result.corruptWitness = true;
    }
    return result;
  } catch (const z3::exception& e) {
    if (impl_->cancelled.load() || reasonMeansCanceled(e.msg())) {
      return canceledResult();
    }
    throw BackendError(std::string("z3 (smtlib parse): ") + e.msg());
  }
}

void Z3Backend::interrupt() {
  impl_->cancelled.store(true);
  const std::lock_guard<std::mutex> lock(impl_->interruptMutex);
  if (impl_->solving) {
    impl_->ctx.interrupt();
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
