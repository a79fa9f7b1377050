// Ablation D (paper §4 "Back-end for model checkers" + §7): bounded
// verification vs CHC/Spacer.
//
// Figure 6 shows monolithic bounded verification cost exploding with the
// time horizon T. The paper's proposed way out is to translate the
// program into a transition system / Constrained Horn Clauses and let a
// model checker (Spacer) synthesize the loop invariant — proving the
// property for an UNBOUNDED horizon in one query.
//
// This bench runs the same conservation property both ways:
//   * bounded: verify at T = 1, 2, 3, ... until the 30 s wall. The Z3
//     column is the Figure 6 regime: one Z3Backend::check of the
//     optimizer's plan per horizon, with a per-row timeout at the wall
//     and no retry ladder, stopped at the first row past it. The shape
//     check reads it. The enumerate column is what `buffy verify` does
//     with the same query (DESIGN.md §7): memoized enumeration of the raw
//     problem, every row VERIFIED.
//   * unbounded: one Spacer query (T = ∞).
#include <algorithm>
#include <cstdio>
#include <string>

#include "backends/chc/chc_backend.hpp"
#include "core/analysis.hpp"
#include "models/library.hpp"
#include "z3_column.hpp"

using namespace buffy;

namespace {

core::Network rrNet() {
  core::ProgramSpec spec;
  spec.instance = "rr";
  spec.source = models::kRoundRobin;
  spec.compile.constants["N"] = 2;
  spec.compile.defaultListCapacity = 2;
  spec.buffers = {
      {.param = "ibs", .role = core::BufferSpec::Role::Input, .capacity = 4,
       .maxArrivalsPerStep = 2},
      {.param = "ob", .role = core::BufferSpec::Role::Output, .capacity = 16},
  };
  core::Network net;
  net.add(spec);
  return net;
}

/// Bounded form of conservation (over recorded series up to T).
core::Query boundedConservation() {
  return core::Query::custom(
      "conservation", [](const core::SeriesView& view, ir::TermArena& arena) {
        ir::TermRef arrived = arena.intConst(0);
        ir::TermRef out = arena.intConst(0);
        for (int t = 0; t < view.horizon(); ++t) {
          for (const char* buf : {"rr.ibs.0", "rr.ibs.1"}) {
            arrived = arena.add(arrived,
                                view.find(std::string(buf) + ".arrived")
                                    ->at(static_cast<std::size_t>(t)));
          }
          out = arena.add(out, view.find("rr.ob.out")->at(
                                   static_cast<std::size_t>(t)));
        }
        const int last = view.horizon() - 1;
        ir::TermRef backlog = arena.intConst(0);
        ir::TermRef dropped = arena.intConst(0);
        for (const char* buf : {"rr.ibs.0", "rr.ibs.1"}) {
          backlog = arena.add(backlog,
                              view.find(std::string(buf) + ".backlog")
                                  ->at(static_cast<std::size_t>(last)));
          dropped = arena.add(dropped,
                              view.find(std::string(buf) + ".dropped")
                                  ->at(static_cast<std::size_t>(last)));
        }
        return arena.eq(arrived,
                        arena.add(out, arena.add(backlog, dropped)));
      });
}

/// Unbounded form: over the ghost cumulative counters in the state vector.
const char* kStateConservation =
    "rr.ibs.0.arrivedTotal[0] + rr.ibs.1.arrivedTotal[0] == "
    "rr.ob.outTotal[0] + rr.ibs.0.pkts[0] + rr.ibs.1.pkts[0] + "
    "rr.ibs.0.dropped[0] + rr.ibs.1.dropped[0] + rr.ob.pkts[0] + "
    "rr.ob.dropped[0]";

}  // namespace

int main() {
  std::printf(
      "Ablation D: bounded unrolling vs CHC/Spacer (packet conservation on "
      "the round-robin scheduler)\n\n");

  std::printf("bounded verification (Figure 6 regime):\n");
  std::printf("%8s | %10s | %10s || %10s | %10s\n", "T", "z3", "time (s)",
              "enumerate", "time (s)");
  std::printf("---------+------------+------------++------------+-----------"
              "\n");
  constexpr unsigned kWallSeconds = 30;
  bool boundedOk = true;
  double lastBounded = 0.0;
  bool z3Running = true;
  bool wallNoted = false;
  for (int horizon = 1; horizon <= 8; ++horizon) {
    char z3Cells[64];
    std::snprintf(z3Cells, sizeof z3Cells, "%10s | %10s", "--", "--");
    if (z3Running) {
      const backends::SolveResult z3 = bench::z3VerifyPlanned(
          rrNet(), boundedConservation(), horizon, 1000 * kWallSeconds);
      std::snprintf(z3Cells, sizeof z3Cells, "%10s | %10.3f",
                    bench::verifyVerdictName(z3.status), z3.seconds);
      lastBounded = z3.seconds;
      if (z3.status == backends::SolveStatus::Unknown) {
        // Solver timeout: the strongest possible form of the wall.
        lastBounded = std::max(lastBounded, double{kWallSeconds});
        z3Running = false;
      } else {
        boundedOk = boundedOk && z3.status == backends::SolveStatus::Unsat;
        z3Running = z3.seconds <= kWallSeconds;
      }
    }
    core::AnalysisOptions opts;
    opts.horizon = horizon;
    opts.timeoutMs = 120000;
    core::Analysis analysis(rrNet(), opts);
    const auto result = analysis.verify(boundedConservation());
    std::printf("%8d | %s || %10s | %10.3f\n", horizon, z3Cells,
                core::verdictName(result.verdict), result.solveSeconds);
    if (!z3Running && !wallNoted) {
      std::printf("  (z3 column stops: past the %u s wall — the Figure 6 "
                  "wall)\n",
                  kWallSeconds);
      wallNoted = true;
    }
  }

  std::printf("\nunbounded verification (CHC / Spacer):\n");
  backends::UnboundedAnalysis unbounded(rrNet());
  const auto proof = unbounded.prove(kStateConservation, 120000);
  std::printf("%8s | %10s | %10.3f\n", "infinity",
              backends::chcStatusName(proof.status), proof.seconds);

  // And the backend still refutes false properties (soundness check).
  const auto refuted = unbounded.prove("rr.cdeq.0[0] < 3", 120000);
  std::printf("%8s | %10s | %10.3f   (false property 'cdeq0 < 3')\n",
              "infinity", backends::chcStatusName(refuted.status),
              refuted.seconds);

  const bool ok = boundedOk && proof.proved() &&
                  refuted.status == backends::ChcStatus::Violated &&
                  proof.seconds < lastBounded;
  std::printf(
      "\nshape check (bounded z3 verifies until the wall; Spacer proves "
      "T=infinity faster than the last bounded z3 step): %s\n",
      ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
