#include "core/sweep.hpp"

#include <chrono>
#include <exception>
#include <memory>

#include "jobs/job.hpp"
#include "pipeline/driver.hpp"
#include "procs/shutdown.hpp"
#include "support/error.hpp"

namespace buffy::core {

SweepResult HorizonSweep::run(const std::vector<Query>& queries,
                              const WorkloadFn& workloadFor,
                              const SweepOptions& opts) {
  if (opts.fromHorizon < 1 || opts.toHorizon < opts.fromHorizon) {
    throw AnalysisError("sweep: horizon range must satisfy 1 <= from <= to");
  }
  if (queries.empty()) {
    throw AnalysisError("sweep: no queries");
  }

  const std::size_t horizons =
      static_cast<std::size_t>(opts.toHorizon - opts.fromHorizon + 1);
  const std::size_t q = queries.size();

  SweepResult result;
  result.shards = opts.shards == 0 ? 1 : opts.shards;
  result.points.resize(horizons * q);

  const auto start = std::chrono::steady_clock::now();

  const bool isolate =
      opts.supervisor != nullptr && opts.supervisor->available() &&
      procs::describable(
          network_,
          workloadFor ? workloadFor(opts.fromHorizon) : Workload{},
          opts.workloadSpecs, queries);

  auto record = [](SweepPoint& point, const AnalysisResult& r) {
    point.verdict = verdictName(r.verdict);
    point.solveSeconds = r.solveSeconds;
    point.canceled = r.canceled;
    point.cached = r.cached;
    if (!r.attempts.empty()) point.solver = r.attempts.back().solver;
  };

  jobs::JobPool pool;
  jobs::JobPool::RunSpec spec;
  spec.jobs = horizons;
  spec.workers = result.shards;
  spec.body = [&](jobs::JobContext& ctx, std::size_t idx) {
    const int horizon = opts.fromHorizon + static_cast<int>(idx);
    SweepPoint* points = &result.points[idx * q];
    for (std::size_t i = 0; i < q; ++i) {
      points[i].horizon = horizon;
      points[i].query = queries[i].description();
      points[i].shard = ctx.worker();
    }
    if (procs::shutdownRequested()) {
      // A shutdown signal landed: don't start new horizons; mark them
      // canceled so the partial report says what was cut short.
      for (std::size_t i = 0; i < q; ++i) {
        points[i].verdict = verdictName(Verdict::Unknown);
        points[i].canceled = true;
      }
      return;
    }
    AnalysisOptions o = options_;
    o.horizon = horizon;
    try {
      if (isolate) {
        // Ship the horizon's whole query batch to one worker: the worker
        // builds one engine per horizon, the same amortization as the
        // in-process body below.
        procs::WireJob job;
        job.network = network_;
        job.options = o;
        job.verify = opts.verify;
        for (const auto& query : queries) {
          job.queries.push_back(query.description());
        }
        job.workloadSpecs = opts.workloadSpecs;
        job.faultScope = "sweep:h" + std::to_string(horizon);
        const std::vector<AnalysisResult> results = procs::solveIsolated(
            *opts.supervisor, ctx, std::move(job),
            points[0].isolation.emplace());
        for (std::size_t i = 0; i < q; ++i) record(points[i], results[i]);
      } else {
        // One front-half compile + one engine per horizon, shared by every
        // query at that horizon (the sharded sweep's whole advantage over a
        // fresh engine per point).
        const pipeline::CompilerDriver driver(pipelineOptionsFor(o));
        const pipeline::CompilationUnitPtr unit = driver.compile(network_);
        Analysis engine(unit, o);
        const jobs::ScopedInterrupt guard(ctx,
                                          [&engine] { engine.interrupt(); });
        const procs::ShutdownToken stopToken(
            [&engine] { engine.interrupt(); });
        engine.setWorkload(workloadFor ? workloadFor(horizon) : Workload{});
        for (std::size_t i = 0; i < q; ++i) {
          record(points[i], opts.verify ? engine.verify(queries[i])
                                        : engine.check(queries[i]));
        }
      }
    } catch (const std::exception& e) {
      // Per-horizon fault isolation: the shard records the error on every
      // unanswered point of this horizon and moves on to its next claim.
      for (std::size_t i = 0; i < q; ++i) {
        if (points[i].verdict.empty()) {
          points[i].verdict = std::string("error: ") + e.what();
        }
      }
    }
    // One job per horizon: its points share the job's counters.
    for (std::size_t i = 1; i < q; ++i) {
      points[i].isolation = points[0].isolation;
    }
  };
  pool.run(spec);

  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace buffy::core
