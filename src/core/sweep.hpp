// Horizon sharding (DESIGN.md §12): the Figure-6-style sweep — the same
// queries answered at every horizon in [from, to] — run over a JobPool of
// `shards` workers. Horizons are the job index space (dynamic claiming, so
// a slow horizon does not stall the others); within one horizon the worker
// compiles the network once, builds one engine, and answers every query
// through it — compilation, encoding and the optimizer's shared memos are
// paid once per horizon instead of once per (horizon, query) as the serial
// fresh-engine baseline pays them.
//
// Results are keyed (horizon, query) and returned in that order, so the
// sweep report is identical under any shard count.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "procs/supervisor.hpp"

namespace buffy::core {

struct SweepOptions {
  int fromHorizon = 1;
  int toHorizon = 4;
  /// Worker shards (clamped to the horizon count by the pool).
  std::size_t shards = 1;
  /// Query discipline: verify (∀) instead of check (∃).
  bool verify = false;
  /// Crash isolation (DESIGN.md §13): when set, each horizon's whole
  /// query batch runs in a supervised `buffy --worker` subprocess (one
  /// engine per horizon, exactly like the in-process shard body). Horizons
  /// stay in-process when the problem is not describable or the
  /// supervisor has degraded. The fault scope of horizon H's job is
  /// "sweep:h<H>".
  procs::Supervisor* supervisor = nullptr;
  /// CLI-format workload specs equivalent to the workload builder —
  /// workloads cross the process boundary only as re-parseable text.
  std::vector<std::string> workloadSpecs;
};

struct SweepPoint {
  int horizon = 0;
  std::string query;
  /// Verdict name, or "error: ..." when the horizon's engine failed.
  std::string verdict;
  double solveSeconds = 0.0;
  bool canceled = false;
  /// The engine of the point's last solver attempt ("enumerate" or "z3");
  /// empty when no solver ran (a cache hit, an error).
  std::string solver;
  /// Which worker answered this point (informational; the report content
  /// is shard-invariant).
  std::size_t shard = 0;
  /// True when the point was answered from the verdict cache (in-process
  /// or inside the isolated worker) instead of the solver.
  bool cached = false;
  /// Crash-isolation accounting for the point's horizon job (identical
  /// for every point of one horizon); empty on the in-process path.
  std::optional<procs::JobStats> isolation;
};

struct SweepResult {
  /// One point per (horizon, query), ordered by horizon then query index.
  std::vector<SweepPoint> points;
  std::size_t shards = 1;
  double seconds = 0.0;
};

class HorizonSweep {
 public:
  /// Per-horizon workload builder (a workload may reference specific steps,
  /// so it must be rebuilt when the horizon changes).
  using WorkloadFn = std::function<Workload(int horizon)>;

  HorizonSweep(Network network, AnalysisOptions baseOptions)
      : network_(std::move(network)), options_(baseOptions) {}

  /// Runs every query at every horizon. `workloadFor` may be null (empty
  /// workload everywhere). A failing horizon marks its points
  /// "error: ..." and the sweep continues — per-horizon fault isolation.
  SweepResult run(const std::vector<Query>& queries,
                  const WorkloadFn& workloadFor, const SweepOptions& opts);

 private:
  Network network_;
  AnalysisOptions options_;
};

}  // namespace buffy::core
