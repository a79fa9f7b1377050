// The reusable job layer (DESIGN.md §12): the firstOnly cancellation
// machinery that grew inside the synthesizer, lifted out so every consumer
// that fans work across threads — candidate enumeration and horizon
// sharding — shares one implementation of the hard part: cooperative
// interrupt with deterministic result selection.
//
// A JobPool runs an index space [0, jobs) over a fixed set of workers.
// Results are keyed by job index, never by completion order, so a
// consumer's report is identical under any thread count. The one
// cancellation primitive is cutAt(c), a monotone cutoff: job c "won", and
// every job with a HIGHER index can no longer matter. In-flight higher jobs
// are interrupted through their worker's published hook; unclaimed higher
// jobs are skipped. Jobs at or below the cutoff always run to completion
// (the publish-claim-before-checking-cutoff ordering below).
//
// Per-job solver budgets stay the consumer's business: a job body builds
// its engine with whatever SolveBudget it wants and publishes an interrupt
// hook; the pool only decides WHEN to fire it.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

namespace buffy::jobs {

class JobPool;

/// One worker's handle into the pool: where the interrupt hook is
/// published. Passed to the worker setup and to every job body the worker
/// runs; valid only inside JobPool::run.
class JobContext {
 public:
  /// This worker's index in [0, workers).
  [[nodiscard]] std::size_t worker() const { return worker_; }

  /// Publishes `hook` as this worker's interrupt hook, replacing (and
  /// returning) the previous one; pass nullptr to retract. The pool fires
  /// the hook from cutAt — on the canceller's thread — whenever this
  /// worker's in-flight job must stop. The hook must therefore be
  /// callable from any thread (Analysis::interrupt is). The exchange is
  /// mutex-ordered against an in-flight interrupt: after onInterrupt
  /// returns, the displaced hook will never be fired again, so whatever it
  /// pointed at may be destroyed.
  std::function<void()> onInterrupt(std::function<void()> hook);

 private:
  friend class JobPool;
  JobContext(JobPool& pool, std::size_t worker)
      : pool_(pool), worker_(worker) {}

  JobPool& pool_;
  std::size_t worker_;
};

/// Replaces the worker's interrupt hook for a scope and restores the
/// previous hook on exit — the "fresh engine per job" pattern: publish the
/// short-lived engine so an interrupt lands on the query actually in
/// flight, unpublish before the engine dies so no interrupt can land on a
/// destroyed engine.
class ScopedInterrupt {
 public:
  ScopedInterrupt(JobContext& ctx, std::function<void()> hook)
      : ctx_(ctx), previous_(ctx.onInterrupt(std::move(hook))) {}
  ~ScopedInterrupt() { ctx_.onInterrupt(std::move(previous_)); }
  ScopedInterrupt(const ScopedInterrupt&) = delete;
  ScopedInterrupt& operator=(const ScopedInterrupt&) = delete;

 private:
  JobContext& ctx_;
  std::function<void()> previous_;
};

class JobPool {
 public:
  /// Sentinel: "no job" / "no cutoff".
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  struct RunSpec {
    /// Size of the index space; the body runs once per claimed index.
    std::size_t jobs = 0;
    /// Worker threads (clamped to [1, jobs]). Worker 0 runs on the calling
    /// thread when workers == 1; otherwise all workers are spawned threads.
    std::size_t workers = 1;
    /// Optional once-per-worker setup, before its first claim — build the
    /// persistent engine, publish its interrupt hook. Returning false
    /// retires the worker (its share of the queue drains to the others);
    /// a throw retires it too.
    std::function<bool(JobContext&)> setup;
    /// The job body. Claims arrive in fetch-add order; a body is only
    /// invoked for claims that survived the cutoff check.
    std::function<void(JobContext&, std::size_t index)> body;
  };

  JobPool() = default;
  JobPool(const JobPool&) = delete;
  JobPool& operator=(const JobPool&) = delete;

  /// Runs the index space to completion (or to the cutoff) and joins
  /// every worker. May be called once per pool instance.
  void run(const RunSpec& spec);

  /// Deterministic winner cutoff: monotonically lowers the cutoff to
  /// `cut` (CAS-min — concurrent calls resolve to the lowest index) and
  /// interrupts every worker whose in-flight job index is above it.
  /// Callable from job bodies and from outside threads.
  void cutAt(std::size_t cut);

  /// The current cutoff (kNone until the first cutAt).
  [[nodiscard]] std::size_t cutoff() const { return cutoff_.load(); }

  /// Jobs whose body ran to completion (claims skipped by the cutoff are
  /// not counted).
  [[nodiscard]] std::size_t completed() const { return completed_.load(); }

 private:
  friend class JobContext;

  /// Published interrupt hook + in-flight job index of one worker.
  ///
  /// `mu` guards `hook` against the publish/interrupt/unpublish race: a
  /// canceller must never fire a hook whose owner has already retired it
  /// (and destroyed what it points at), and a worker must not destroy a
  /// per-job engine while an interrupt on it is in flight. `current` is an
  /// atomic, not mutex-guarded: workers store their claim *before*
  /// re-checking the cutoff, pairing with cutAt's cutoff store + current
  /// load (both seq_cst) so every racing claim either becomes visible to
  /// the canceller or observes the new cutoff itself — a job at or below
  /// the cutoff can never be wrongly interrupted. Idle workers
  /// (current == kNone) are never interrupted by cutAt: a worker between
  /// jobs may still claim an index below the cutoff.
  struct WorkerSlot {
    std::mutex mu;
    std::function<void()> hook;  // guarded by mu
    std::atomic<std::size_t> current{kNone};
  };

  void workerLoop(const RunSpec& spec, std::size_t w);
  void interruptSlot(WorkerSlot& slot);

  /// Guards the slot vector's STRUCTURE (build in run() vs iteration in
  /// cutAt, which is callable from outside threads even while
  /// run() is still starting up). Individual slots have their own mutex;
  /// workers address their slot lock-free — the vector never changes
  /// after run() releases this mutex, and worker threads are created
  /// after the build (happens-before via thread start).
  std::mutex slotsMu_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> cutoff_{kNone};
  std::atomic<std::size_t> completed_{0};
};

}  // namespace buffy::jobs
