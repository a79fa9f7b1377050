// Fuzz target: the whole front half of the pipeline — recovery parse,
// elaboration, typecheck, semantic passes, transforms, and one symbolic
// step of relation extraction (buildTransitionSystem), all under a tiny
// CompileBudget. Each input is also read as `--query` text over one fixed
// library model (round robin, two queues) and rendered through
// Analysis::toSmtLib: query parse, encoding, optimizer and emitter. No
// solver is invoked.
//
// Invariant: the only exceptions that may escape any stage are
// buffy::Error subclasses (structured input/analysis failures) — anything
// else (std::bad_alloc, std::out_of_range, segfault, stack overflow,
// sanitizer report) is a bug.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/analysis.hpp"
#include "core/network.hpp"
#include "core/transition.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "models/library.hpp"
#include "pipeline/driver.hpp"
#include "sem/passes.hpp"
#include "support/budget.hpp"
#include "support/diagnostics.hpp"
#include "support/error.hpp"

namespace {

buffy::CompileBudget fuzzBudget() {
  buffy::CompileBudget b;
  b.maxNestingDepth = 64;
  b.maxExprTerms = 512;
  b.maxAstNodes = 1 << 15;
  b.maxUnrolledStmts = 1 << 12;
  b.maxInlinedStmts = 1 << 12;
  b.maxExecStmts = 1 << 14;
  b.maxTermNodes = 1 << 16;
  return b;
}

/// The query half's engine options: the harness budget, horizon 3.
buffy::core::AnalysisOptions queryOptions() {
  buffy::core::AnalysisOptions options;
  options.horizon = 3;
  options.budget = fuzzBudget();
  return options;
}

/// The round-robin library model, compiled once for every input.
const buffy::pipeline::CompilationUnitPtr& queryUnit() {
  static const buffy::pipeline::CompilationUnitPtr unit = [] {
    buffy::core::ProgramSpec spec;
    spec.instance = "rr";
    spec.source = buffy::models::kRoundRobin;
    spec.compile.constants["N"] = 2;
    buffy::core::BufferSpec in;
    in.param = "ibs";
    in.capacity = 4;
    buffy::core::BufferSpec out;
    out.param = "ob";
    out.role = buffy::core::BufferSpec::Role::Output;
    spec.buffers = {in, out};
    buffy::core::Network net;
    net.add(spec);
    return buffy::pipeline::CompilerDriver(
               buffy::core::pipelineOptionsFor(queryOptions()))
        .compile(net);
  }();
  return unit;
}

/// One engine renders every input's query: building one per input would
/// spend nearly all the run setting up Z3. Reset whenever an input trips
/// the harness budget, so a full term arena cannot reject later inputs.
std::unique_ptr<buffy::core::Analysis>& queryEngine() {
  static std::unique_ptr<buffy::core::Analysis> engine;
  if (!engine) {
    engine = std::make_unique<buffy::core::Analysis>(queryUnit(),
                                                     queryOptions());
  }
  return engine;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > 16384) return 0;  // keep single runs fast
  const std::string src(reinterpret_cast<const char*>(data), size);
  const buffy::CompileBudget budget = fuzzBudget();

  try {
    (void)queryEngine()->toSmtLib(buffy::core::Query::expr(src),
                                  /*forVerify=*/false);
  } catch (const buffy::BudgetExceeded&) {
    queryEngine().reset();
  } catch (const buffy::Error&) {
    // Malformed or unknown-series query: expected.
  }

  try {
    // Batched front half, exactly as the CLI drives it.
    buffy::DiagnosticEngine diag;
    buffy::lang::Ast prog = buffy::lang::parseRecover(src, diag, budget);
    buffy::lang::CompileOptions copts;
    copts.constants["N"] = 2;
    copts.constants["K"] = 3;
    (void)buffy::lang::elaborate(prog, copts, diag);
    const auto symbols = buffy::lang::typecheck(prog, copts, diag);
    if (diag.hasErrors()) return 0;

    buffy::DiagnosticEngine semDiag;
    buffy::sem::BufferRoles roles;
    buffy::sem::checkWellFormed(prog, roles, semDiag);
    buffy::sem::checkGhostNonInterference(prog, symbols.monitors, semDiag);
    buffy::sem::checkDefiniteAssignment(prog, semDiag);

    // Synthesize a BufferSpec per buffer parameter so the network accepts
    // the program, then extract one symbolic step (parse -> transforms ->
    // evaluator -> term arena, no Z3).
    buffy::core::ProgramSpec spec;
    spec.source = src;
    spec.compile = copts;
    bool first = true;
    for (const auto& [param, type] : symbols.paramTypes) {
      if (!type.isBufferLike()) continue;
      buffy::core::BufferSpec b;
      b.param = param;
      b.capacity = 3;
      b.maxArrivalsPerStep = 2;
      b.role = first ? buffy::core::BufferSpec::Role::Input
                     : buffy::core::BufferSpec::Role::Output;
      first = false;
      spec.buffers.push_back(b);
    }
    buffy::core::Network net;
    net.add(spec);
    buffy::core::TransitionOptions topts;
    topts.budget = budget;
    (void)buffy::core::buildTransitionSystem(net, topts);
  } catch (const buffy::Error&) {
    // Structured failure on malformed/bomb input: expected.
  }
  return 0;
}
