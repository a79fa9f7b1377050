// The Z3 column of the Figure 6-regime benches (fig6_verification_time,
// ablate_chc): a verify query decided by one Z3Backend::check of the
// optimizer's plan, as the Z3 rungs of `buffy verify` solve it, with a
// timeout and no retry ladder. `buffy verify` itself enumerates these
// problems first (DESIGN.md §7), so this column is what keeps the
// monolithic solver's cost in T visible.
#pragma once

#include <utility>
#include <vector>

#include "backends/z3/z3_backend.hpp"
#include "core/analysis.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/encoder.hpp"

namespace buffy::bench {

/// Checks the negation of `query` (with the program's asserts) over
/// `network` at `horizon` through Z3, cut at `timeoutMs`: Unsat means
/// VERIFIED.
inline backends::SolveResult z3VerifyPlanned(core::Network network,
                                             const core::Query& query,
                                             int horizon,
                                             unsigned timeoutMs) {
  core::AnalysisOptions opts;
  opts.horizon = horizon;
  const pipeline::CompilerDriver driver(core::pipelineOptionsFor(opts));
  const pipeline::CompilationUnitPtr unit = driver.compile(std::move(network));
  const auto enc = pipeline::buildEncoding(*unit, core::Workload{}, nullptr);
  std::vector<ir::TermRef> structural = enc->assumptions;
  structural.insert(structural.end(), enc->soundness.begin(),
                    enc->soundness.end());
  opt::Optimizer optimizer(enc->arena, structural, opts.opt);
  ir::TermRef goal = query.build(enc->seriesView(), enc->arena);
  for (const auto& obligation : enc->obligations) {
    goal = enc->arena.mkAnd(goal, obligation.cond);
  }
  std::vector<ir::TermRef> delta = enc->workloadTerms;
  delta.push_back(enc->arena.mkNot(goal));
  const opt::Optimizer::Plan plan = optimizer.plan(delta);
  std::vector<ir::TermRef> problem = plan.structural;
  problem.insert(problem.end(), plan.delta.begin(), plan.delta.end());
  backends::Z3Backend z3;
  return z3.check(problem, backends::SolveBudget(timeoutMs));
}

/// The verify verdict a z3VerifyPlanned status stands for.
inline const char* verifyVerdictName(backends::SolveStatus status) {
  switch (status) {
    case backends::SolveStatus::Sat: return "VIOLATED";
    case backends::SolveStatus::Unsat: return "VERIFIED";
    case backends::SolveStatus::Unknown: return "UNKNOWN";
  }
  return "?";
}

}  // namespace buffy::bench
