#include "backends/chc/chc_backend.hpp"

#include <chrono>

#include <z3++.h>

#include "backends/z3/z3_lowering.hpp"
#include "support/error.hpp"

namespace buffy::backends {

const char* chcStatusName(ChcStatus status) {
  switch (status) {
    case ChcStatus::Proved: return "PROVED";
    case ChcStatus::Violated: return "VIOLATED";
    case ChcStatus::Unknown: return "UNKNOWN";
  }
  return "?";
}

namespace {

z3::sort z3Sort(z3::context& ctx, ir::Sort sort) {
  return sort == ir::Sort::Int ? ctx.int_sort() : ctx.bool_sort();
}

}  // namespace

void ChcInterruptHandle::interrupt() {
  interrupted_.store(true);
  const std::lock_guard<std::mutex> lock(mu_);
  if (activeCtx_) static_cast<z3::context*>(activeCtx_)->interrupt();
}

ChcInterruptHandle::Registration::Registration(ChcInterruptHandle* handle,
                                               void* ctx)
    : handle_(handle) {
  if (!handle_) return;
  const std::lock_guard<std::mutex> lock(handle_->mu_);
  handle_->activeCtx_ = ctx;
}

ChcInterruptHandle::Registration::~Registration() {
  if (!handle_) return;
  const std::lock_guard<std::mutex> lock(handle_->mu_);
  handle_->activeCtx_ = nullptr;
}

ChcResult proveSafety(const core::TransitionSystem& system,
                      ir::TermRef property,
                      std::optional<unsigned> timeoutMs,
                      ChcInterruptHandle* interrupt) {
  if (property->sort != ir::Sort::Bool) {
    throw BackendError("chc: property must be boolean");
  }
  const auto interruptedResult = [](double seconds) {
    ChcResult result;
    result.status = ChcStatus::Unknown;
    result.seconds = seconds;
    result.detail = "interrupted";
    return result;
  };
  if (interrupt && interrupt->interrupted()) return interruptedResult(0.0);
  auto start = std::chrono::steady_clock::now();
  try {
    z3::context ctx;
    const ChcInterruptHandle::Registration registration(interrupt, &ctx);
    z3::fixedpoint fp(ctx);
    {
      z3::params params(ctx);
      params.set("engine", ctx.str_symbol("spacer"));
      if (timeoutMs) params.set("timeout", *timeoutMs);
      fp.set(params);
    }

    std::unordered_map<const ir::Term*, z3::expr> memo;

    // The invariant relation over the state vector.
    z3::sort_vector sorts(ctx);
    for (const auto& sv : system.state) sorts.push_back(z3Sort(ctx, sv.sort));
    z3::func_decl inv = ctx.function("Inv", sorts, ctx.bool_sort());
    z3::func_decl bad = z3::function("Bad", 0, nullptr, ctx.bool_sort());
    fp.register_relation(inv);
    fp.register_relation(bad);

    auto invApp = [&](const std::function<z3::expr(
                          const core::TransitionSystem::StateVar&)>& pick) {
      z3::expr_vector args(ctx);
      for (const auto& sv : system.state) args.push_back(pick(sv));
      return inv(args);
    };

    // Universally quantified variables of the rules: pre-state + inputs.
    z3::expr_vector bound(ctx);
    for (const auto& sv : system.state) {
      bound.push_back(lowerTerm(ctx, sv.pre, memo));
    }
    for (const ir::TermRef input : system.inputs) {
      bound.push_back(lowerTerm(ctx, input, memo));
    }

    // Step constraints (arrival bounds, assumes, soundness, model
    // nondeterminism).
    z3::expr stepGuard = ctx.bool_val(true);
    for (const ir::TermRef c : system.constraints) {
      stepGuard = stepGuard && lowerTerm(ctx, c, memo);
    }

    // (1) Initiation: Inv(init). Init values are constants — a fact.
    {
      z3::expr rule = invApp([&](const auto& sv) {
        return lowerTerm(ctx, sv.init, memo);
      });
      fp.add_rule(rule, ctx.str_symbol("init"));
    }

    // (2) Consecution: Inv(pre) ∧ step ⇒ Inv(post).
    {
      const z3::expr pre = invApp(
          [&](const auto& sv) { return lowerTerm(ctx, sv.pre, memo); });
      const z3::expr post = invApp(
          [&](const auto& sv) { return lowerTerm(ctx, sv.post, memo); });
      z3::expr rule = z3::forall(bound, z3::implies(pre && stepGuard, post));
      fp.add_rule(rule, ctx.str_symbol("step"));
    }

    // (3) Safety: Inv(pre) ∧ ¬property ⇒ Bad.
    {
      const z3::expr pre = invApp(
          [&](const auto& sv) { return lowerTerm(ctx, sv.pre, memo); });
      const z3::expr prop = lowerTerm(ctx, property, memo);
      z3::expr rule = z3::forall(bound, z3::implies(pre && !prop, bad()));
      fp.add_rule(rule, ctx.str_symbol("safety"));
    }

    // (4) In-program asserts: Inv(pre) ∧ step ∧ ¬assert ⇒ Bad.
    for (std::size_t i = 0; i < system.obligations.size(); ++i) {
      const z3::expr pre = invApp(
          [&](const auto& sv) { return lowerTerm(ctx, sv.pre, memo); });
      const z3::expr obl = lowerTerm(ctx, system.obligations[i], memo);
      z3::expr rule =
          z3::forall(bound, z3::implies(pre && stepGuard && !obl, bad()));
      fp.add_rule(rule,
                  ctx.str_symbol(("assert" + std::to_string(i)).c_str()));
    }

    // Z3 (4.8.12) drops an interrupt() issued before fixedpoint::query
    // starts, so one that landed while the rules were built is caught
    // here. The window left is inside Z3: from this check until the query
    // is far enough in to honour an interrupt.
    if (interrupt && interrupt->interrupted()) {
      return interruptedResult(0.0);
    }
    ChcResult result;
    start = std::chrono::steady_clock::now();
    z3::expr query = bad();
    const z3::check_result status = fp.query(query);
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    switch (status) {
      case z3::sat:
        result.status = ChcStatus::Violated;  // Bad is reachable
        break;
      case z3::unsat:
        result.status = ChcStatus::Proved;  // inductive invariant found
        break;
      case z3::unknown:
        result.status = ChcStatus::Unknown;
        result.detail = interrupt && interrupt->interrupted()
                            ? "interrupted"
                            : fp.reason_unknown();
        break;
    }
    return result;
  } catch (const z3::exception& e) {
    // Spacer may raise ("canceled") instead of answering unknown when its
    // context is interrupted mid-query, and it raises the same when its
    // own timeout fires.
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (interrupt && interrupt->interrupted()) {
      return interruptedResult(seconds);
    }
    if (timeoutMs && std::string(e.msg()).find("canceled") !=
                         std::string::npos) {
      ChcResult result;
      result.status = ChcStatus::Unknown;
      result.seconds = seconds;
      result.detail = "timeout";
      return result;
    }
    throw BackendError(std::string("z3 (spacer): ") + e.msg());
  }
}

UnboundedAnalysis::UnboundedAnalysis(core::Network network,
                                     core::TransitionOptions options)
    : system_(core::buildTransitionSystem(network, options)),
      budget_(options.budget) {
  for (const auto& sv : system_->state) {
    stateSeries_[sv.name] = {sv.pre};
  }
}

ChcResult UnboundedAnalysis::prove(const std::string& propertyExpr,
                                   std::optional<unsigned> timeoutMs) {
  return prove(core::Query::expr(propertyExpr), timeoutMs);
}

ChcResult UnboundedAnalysis::prove(const core::Query& property,
                                   std::optional<unsigned> timeoutMs) {
  const core::SeriesView view(&stateSeries_, 1);
  const ir::TermRef prop = property.build(view, system_->arena, budget_);
  return proveSafety(*system_, prop, timeoutMs, &interrupt_);
}

std::vector<std::string> UnboundedAnalysis::stateNames() const {
  std::vector<std::string> out;
  out.reserve(system_->state.size());
  for (const auto& sv : system_->state) out.push_back(sv.name);
  return out;
}

}  // namespace buffy::backends
