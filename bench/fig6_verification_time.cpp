// Figure 6 of the paper: verification time vs total time steps (T).
//
// The paper verified the (manually translated) FQ scheduler in Dafny after
// full loop unrolling and method inlining and observed verification time
// growing exponentially with T. Dafny is not installed here, so per
// DESIGN.md §1 we discharge the same unrolled/inlined encoding through Z3
// directly (which is also what Dafny's own pipeline bottoms out in).
//
// Two proof obligations are swept over T:
//   * conservation — every arrived packet is serviced, queued, or dropped
//     (the kind of frame condition any Dafny spec of the scheduler needs);
//   * no-starvation — the RFC-fixed scheduler keeps serving the backlogged
//     queue (cdeq1 >= min(3, (T-1)/3) under the §6.1 workload).
//
// The conservation proof is printed as two series side by side. The Z3
// series is the paper's curve: one Z3Backend::check of the planned problem
// per horizon, with a per-row timeout and no retry ladder, stopped at the
// first row past the 30 s wall. Its expected shape is super-linear
// (≈exponential) growth in T — the scalability wall motivating §5's
// modular analysis — and the shape check runs on it. The enumerate series
// is what `buffy verify` does with the same query (DESIGN.md §7): memoized
// enumeration of the raw problem, through T=9, every row VERIFIED. Its
// setup column is the part of the time spent constructing the enumerator
// (domains, thresholds, dead-set layout) before the search.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/sweep.hpp"
#include "models/library.hpp"
#include "z3_column.hpp"

using namespace buffy;

namespace {

core::Network fqNet(const char* source) {
  core::ProgramSpec spec;
  spec.instance = "fq";
  spec.source = source;
  spec.compile.constants["N"] = 2;
  spec.compile.defaultListCapacity = 2;
  spec.buffers = {
      {.param = "ibs", .role = core::BufferSpec::Role::Input, .capacity = 6,
       .maxArrivalsPerStep = 3},
      {.param = "ob", .role = core::BufferSpec::Role::Output, .capacity = 32},
  };
  core::Network net;
  net.add(spec);
  return net;
}

core::Workload starvationWorkload(int horizon) {
  core::Workload w;
  w.add(core::Workload::perStepCount("fq.ibs.0", 0, 1));
  w.add(core::Workload::countAtStep("fq.ibs.1", 0, 3, 3));
  for (int t = 1; t < horizon; ++t) {
    w.add(core::Workload::countAtStep("fq.ibs.1", t, 0, 0));
  }
  return w;
}

core::Query conservationQuery() {
  return core::Query::custom(
      "conservation", [](const core::SeriesView& view, ir::TermArena& arena) {
        ir::TermRef arrived = arena.intConst(0);
        ir::TermRef out = arena.intConst(0);
        for (int t = 0; t < view.horizon(); ++t) {
          for (const char* buf : {"fq.ibs.0", "fq.ibs.1"}) {
            arrived = arena.add(arrived,
                                view.find(std::string(buf) + ".arrived")
                                    ->at(static_cast<std::size_t>(t)));
          }
          out = arena.add(out, view.find("fq.ob.out")->at(
                                   static_cast<std::size_t>(t)));
        }
        const int last = view.horizon() - 1;
        ir::TermRef backlog = arena.intConst(0);
        ir::TermRef dropped = arena.intConst(0);
        for (const char* buf : {"fq.ibs.0", "fq.ibs.1"}) {
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

}  // namespace

int main() {
  std::printf(
      "Figure 6: verification time vs time horizon T (monolithic unrolling "
      "+ inlining; Z3 standing in for Dafny, see DESIGN.md)\n\n");

  bool shapeOk = true;

  // Conservation (buggy FQ) stays serial: the Z3 series exists to FIND the
  // Figure-6 wall, so each horizon's time gates whether the next runs at
  // all. A row is cut at the wall itself, so the series costs at most
  // about two walls.
  {
    constexpr unsigned kWallSeconds = 30;
    constexpr unsigned kRowTimeoutMs = 1000 * kWallSeconds;
    std::printf("property: conservation (buggy FQ)\n");
    std::printf("%3s | %10s | %10s || %10s | %10s | %9s | %9s | %10s | "
                "%5s\n",
                "T", "z3", "time (s)", "enumerate", "time (s)", "setup (s)",
                "engine", "visited", "width");
    std::printf("----+------------+------------++------------+------------+"
                "-----------+-----------+------------+------\n");
    double first = -1.0;
    double last = 0.0;
    bool z3Running = true;
    bool wallNoted = false;
    for (int horizon = 1; horizon <= 9; ++horizon) {
      char z3Cells[64] = "         -- |         --";
      if (z3Running) {
        const backends::SolveResult z3 =
            bench::z3VerifyPlanned(fqNet(models::kFairQueueBuggy),
                                   conservationQuery(), horizon, kRowTimeoutMs);
        std::snprintf(z3Cells, sizeof z3Cells, "%10s | %10.3f",
                      bench::verifyVerdictName(z3.status), z3.seconds);
        if (first < 0) first = z3.seconds;
        last = z3.seconds;
        if (z3.status == backends::SolveStatus::Unknown) {
          // Solver timeout: the strongest possible form of the wall.
          last = std::max(last, double{kWallSeconds});
          z3Running = false;
        } else {
          shapeOk = shapeOk && z3.status == backends::SolveStatus::Unsat;
          z3Running = z3.seconds <= kWallSeconds;
        }
      }
      core::AnalysisOptions opts;
      opts.horizon = horizon;
      core::Analysis analysis(fqNet(models::kFairQueueBuggy), opts);
      const auto result = analysis.verify(conservationQuery());
      const core::SolveAttempt* attempt =
          result.attempts.empty() ? nullptr : &result.attempts.back();
      std::printf("%3d | %s || %10s | %10.3f | %9.4f | %9s | %10llu | "
                  "%5llu\n",
                  horizon, z3Cells, core::verdictName(result.verdict),
                  result.solveSeconds,
                  attempt != nullptr ? attempt->setupSeconds : 0.0,
                  attempt != nullptr ? attempt->solver.c_str() : "-",
                  static_cast<unsigned long long>(
                      attempt != nullptr ? attempt->visited : 0),
                  static_cast<unsigned long long>(
                      attempt != nullptr ? attempt->liveWidth : 0));
      shapeOk = shapeOk && result.verdict == core::Verdict::Verified;
      if (!z3Running && !wallNoted) {
        std::printf("  (z3 series stops: past the %u s wall — the "
                    "Figure 6 wall)\n",
                    kWallSeconds);
        wallNoted = true;
      }
    }
    // The Z3 series must show the blow-up.
    shapeOk = shapeOk && last > 20 * std::max(first, 0.001);
    std::printf("\n");
  }

  // No-starvation sweep (fixed FQ) is bounded at every horizon, so it runs
  // through the sharded HorizonSweep (DESIGN.md §12): horizons claimed
  // dynamically by workers, one compiled engine per horizon shared by the
  // queries there.
  {
    std::printf("property: no-starvation (fixed FQ), sharded sweep\n");
    core::AnalysisOptions opts;
    opts.timeoutMs = 120000;
    core::HorizonSweep sweep(fqNet(models::kFairQueueFixed), opts);
    core::SweepOptions sopts;
    sopts.fromHorizon = 1;
    sopts.toHorizon = 9;
    sopts.shards = 4;
    sopts.verify = true;
    const std::vector<core::Query> queries = {
        core::Query::expr("fq.cdeq.1[T-1] >= min(3, (T-1)/3)")};
    const auto result = sweep.run(
        queries, [](int h) { return starvationWorkload(h); }, sopts);
    std::printf("%3s | %10s | %10s | %9s | %5s\n", "T", "verdict",
                "time (s)", "engine", "shard");
    std::printf("----+------------+------------+-----------+------\n");
    for (const auto& p : result.points) {
      std::printf("%3d | %10s | %10.3f | %9s | %5zu\n", p.horizon,
                  p.verdict.c_str(), p.solveSeconds,
                  p.solver.empty() ? "-" : p.solver.c_str(), p.shard);
      shapeOk = shapeOk && p.verdict == "VERIFIED";
    }
    std::printf("  (%zu shards, %.3f s total)\n", result.shards,
                result.seconds);
    std::printf("\n");
  }

  std::printf("shape check (all proofs Verified until the wall; "
              "conservation cost in z3 explodes with T): %s\n",
              shapeOk ? "PASS" : "FAIL");
  return shapeOk ? 0 : 1;
}
