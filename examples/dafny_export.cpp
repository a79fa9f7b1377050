// Multiple back-ends (§4): compile the Figure 4 scheduler once and emit it
// for two other verification tool chains —
//   * a Dafny method (unrolled, inlined, structured havoc arrivals —
//     exactly the manual translation §6.1 describes), and
//   * a standard SMT-LIB2 script of the starvation check, consumable by
//     any SMT solver.
//
// Writes fq_scheduler.dfy and fq_starvation.smt2 into the directory given
// as the only argument, or into the current directory without one:
//
//   build/examples/dafny_export [output-dir]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "backends/dafny/dafny_emitter.hpp"
#include "core/analysis.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "models/library.hpp"
#include "transform/transforms.hpp"

using namespace buffy;

namespace {

/// Writes `text` to `path`; false, with a message, when it cannot.
bool writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (out) return true;
  std::fprintf(stderr, "dafny_export: cannot write %s\n", path.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? std::string(argv[1]) + "/" : "";
  constexpr int kQueues = 2;
  constexpr int kHorizon = 4;

  // --- Dafny back-end ---
  lang::Ast prog = lang::parse(models::kFairQueueBuggy);
  lang::CompileOptions copts;
  copts.constants["N"] = kQueues;
  copts.defaultListCapacity = kQueues;
  lang::checkOrThrow(prog, copts);
  transform::inlineFunctions(prog);
  transform::foldConstants(prog);

  backends::DafnyOptions dopts;
  dopts.horizon = kHorizon;
  dopts.maxArrivalsPerStep = 2;
  dopts.inputParams = {"ibs"};
  dopts.finalAssert = "cdeq[0] <= " + std::to_string(kHorizon);
  const std::string dafny = emitDafny(prog, dopts);
  if (!writeFile(dir + "fq_scheduler.dfy", dafny)) return 1;
  std::printf("wrote %sfq_scheduler.dfy (%zu bytes); first lines:\n",
              dir.c_str(), dafny.size());
  std::printf("%s...\n\n", dafny.substr(0, 400).c_str());

  // --- SMT-LIB2 back-end ---
  core::ProgramSpec spec;
  spec.instance = "fq";
  spec.source = models::kFairQueueBuggy;
  spec.compile = copts;
  spec.buffers = {
      {.param = "ibs", .role = core::BufferSpec::Role::Input, .capacity = 6,
       .maxArrivalsPerStep = 3},
      {.param = "ob", .role = core::BufferSpec::Role::Output, .capacity = 32},
  };
  core::Network net;
  net.add(spec);
  core::AnalysisOptions opts;
  opts.horizon = kHorizon;
  core::Analysis analysis(net, opts);
  backends::SmtLibOptions sopts;
  sopts.comment = "Buffy: FQ starvation check (Figure 4 scheduler), T=4";
  const std::string smt =
      analysis.toSmtLib(core::Query::expr("fq.cdeq.0[T-1] >= T-1"),
                        /*forVerify=*/false, sopts);
  if (!writeFile(dir + "fq_starvation.smt2", smt)) return 1;
  const auto lines = std::count(smt.begin(), smt.end(), '\n');
  std::printf("wrote %sfq_starvation.smt2 (%zu bytes, %zu lines)\n",
              dir.c_str(), smt.size(), static_cast<std::size_t>(lines));

  // Prove the round trip works: solve the emitted script through Z3's
  // SMT-LIB parser.
  const auto result =
      analysis.checkViaSmtLib(core::Query::expr("fq.cdeq.0[T-1] >= T-1"));
  std::printf("re-solved via SMT-LIB text: %s (%.3fs)\n",
              core::verdictName(result.verdict), result.solveSeconds);
  return 0;
}
