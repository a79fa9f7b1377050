#include "core/sweep.hpp"

#include <chrono>
#include <exception>
#include <memory>

#include "jobs/job.hpp"
#include "pipeline/driver.hpp"
#include "procs/shutdown.hpp"
#include "procs/worker.hpp"
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

  // Isolation eligibility is a property of the whole sweep: every query
  // must survive as text and the network/workload must be describable on
  // the wire ("true" is Query::always's description, and parses).
  bool isolate = opts.isolate && opts.supervisor != nullptr &&
                 opts.supervisor->available();
  for (const auto& query : queries) {
    isolate = isolate &&
              (query.textual() || query.description() == "true");
  }
  isolate = isolate &&
            procs::describable(
                network_, workloadFor ? workloadFor(opts.fromHorizon)
                                      : Workload{},
                opts.workloadSpecs);

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
    try {
      if (isolate) {
        // Ship the horizon's whole query batch to one worker: the worker
        // builds one engine per horizon, the same amortization as the
        // in-process body below.
        const procs::Supervisor::JobPtr handle =
            opts.supervisor->createJob();
        const jobs::ScopedInterrupt guard(ctx,
                                          [handle] { handle->cancel(); });
        const procs::ShutdownToken stopToken([handle] { handle->cancel(); });
        procs::WireJob wire;
        wire.programs = network_.instances();
        wire.connections = network_.connections();
        AnalysisOptions o = options_;
        o.horizon = horizon;
        procs::applyOptionsToJob(o, wire);
        wire.verify = opts.verify;
        for (const auto& query : queries) {
          wire.queries.push_back(query.description());
        }
        wire.workloadSpecs = opts.workloadSpecs;
        wire.faultScope = "sweep:h" + std::to_string(horizon);
        const procs::WireResult reply = handle->run(
            wire,
            [](const procs::WireJob& job) { return procs::serveJob(job); });
        const procs::JobStats js = handle->stats();
        for (std::size_t i = 0; i < q; ++i) {
          points[i].isolated = true;
          points[i].retries = js.retries;
          points[i].restarts = js.restarts;
          points[i].kills = js.kills;
          points[i].degraded = js.degraded;
        }
        if (!reply.error.empty()) {
          throw AnalysisError("worker: " + reply.error);
        }
        if (reply.verdicts.size() != q) {
          throw AnalysisError("worker answered " +
                              std::to_string(reply.verdicts.size()) +
                              " of " + std::to_string(q) + " queries");
        }
        for (std::size_t i = 0; i < q; ++i) {
          points[i].verdict = reply.verdicts[i].verdict;
          points[i].solveSeconds = reply.verdicts[i].solveSeconds;
          points[i].canceled = reply.verdicts[i].canceled;
          points[i].cached = reply.verdicts[i].cached;
        }
        if (options_.cache) {
          // The worker reported each verdict with its cache key; replay
          // the conclusive ones into the parent's cache so later points
          // (and later runs) hit in memory, not just via the disk tier.
          for (const auto& wv : reply.verdicts) {
            procs::populateCache(*options_.cache, wv);
          }
        }
      } else {
        AnalysisOptions o = options_;
        o.horizon = horizon;
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
          const AnalysisResult r = opts.verify ? engine.verify(queries[i])
                                               : engine.check(queries[i]);
          points[i].verdict = verdictName(r.verdict);
          points[i].solveSeconds = r.solveSeconds;
          points[i].canceled = r.canceled;
          points[i].cached = r.cached;
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
  };
  pool.run(spec);

  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace buffy::core
