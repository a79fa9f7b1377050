// Worker supervision (DESIGN.md §13): owns a pool of `buffy --worker`
// subprocesses, ships them serialized jobs, and turns every way a worker
// can fail into either a retry or an error result:
//
//   * reply Ok            -> answer (worker goes back to the idle pool);
//   * reply Ok but error  -> clean in-worker failure, NO retry (the job
//                            itself is broken, not the worker);
//   * Eof (worker died)   -> restart + retry;
//   * Timeout (hang)      -> SIGTERM->SIGKILL + retry;
//   * Garbled (torn/corrupt frame) -> kill + retry;
//   * every attempt failed one of these ways -> an error result: a job
//                            that kills workers is never rerun in the
//                            parent;
//   * no worker can be spawned (binary missing, spawning fails)
//                         -> the caller's in-process fallback.
//
// A retry re-sends the job unchanged: the worker's own §8 ladder already
// escalates within an attempt, so a worker crash cannot change a verdict.
// Every transition is counted in ProcsStats for the CLI's --json report.
// Jobs are handed out as shared Job handles whose cancel() is thread-safe
// (kills the attached worker) — the process-level twin of
// Analysis::interrupt, driven by the same ScopedInterrupt hooks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "jobs/job.hpp"
#include "procs/process.hpp"
#include "procs/wire.hpp"

namespace buffy::procs {

struct SupervisorOptions {
  /// Worker executable; empty means this binary (/proc/self/exe).
  std::string workerBinary;
  /// Retries after the first attempt (attempts = 1 + maxRetries).
  unsigned maxRetries = 2;
};

/// Supervision counters, aggregated across jobs (CLI --json "procs").
struct ProcsStats {
  std::uint64_t jobs = 0;
  std::uint64_t workersSpawned = 0;
  std::uint64_t workersReaped = 0;
  std::uint64_t restarts = 0;        // worker died (Eof) -> respawned
  std::uint64_t retries = 0;         // job attempts after the first
  std::uint64_t kills = 0;           // deadline/garble kills
  std::uint64_t protocolErrors = 0;  // garbled/torn/malformed frames
  std::uint64_t degradedJobs = 0;    // jobs answered by the fallback
  bool degraded = false;             // supervisor gave up on spawning
};

/// Per-job supervision counters (sweep point reports).
struct JobStats {
  unsigned retries = 0;
  unsigned restarts = 0;
  unsigned kills = 0;
  /// No worker could be spawned: the in-process fallback answered.
  bool degraded = false;
};

class Supervisor {
 public:
  /// In-process fallback: runs the job when no worker can be spawned.
  using Fallback = std::function<WireResult(const WireJob&)>;

  /// Compile/encode allowance added to a job's derived deadline.
  static constexpr int kDeadlineSlackMs = 2000;

  explicit Supervisor(SupervisorOptions options);
  /// Shuts every idle worker down (EOF, then SIGTERM->SIGKILL).
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// One supervised job. run() may be called once; cancel() from any
  /// thread, before or during run().
  class Job {
   public:
    /// Runs `job` through a worker with retries. When every attempt's
    /// worker died, hung or garbled its reply, returns an error result.
    /// Only when no worker could be spawned at all does `fallback` answer
    /// (or an error result when no fallback is given). A canceled job
    /// returns one canceled Unknown verdict per query, matching in-process
    /// interrupt semantics.
    WireResult run(WireJob job, const Fallback& fallback);
    /// Thread-safe: kills the attached worker (if any) and makes run()
    /// return canceled verdicts instead of starting new attempts.
    void cancel();
    [[nodiscard]] bool canceled() const {
      return canceled_.load(std::memory_order_acquire);
    }
    [[nodiscard]] JobStats stats() const;

   private:
    friend class Supervisor;
    explicit Job(Supervisor* owner) : owner_(owner) {}

    void count(unsigned JobStats::*counter);

    Supervisor* owner_;
    std::atomic<bool> canceled_{false};
    mutable std::mutex mutex_;  // guards worker_ + stats_
    WorkerProcess* worker_ = nullptr;
    JobStats stats_;
  };
  using JobPtr = std::shared_ptr<Job>;

  JobPtr createJob();

  /// False when the worker binary is missing or spawning has degraded —
  /// callers can skip straight to the in-process path.
  [[nodiscard]] bool available() const;

  [[nodiscard]] ProcsStats stats() const;

  /// Graceful shutdown of the idle pool (also run by the destructor).
  void shutdownWorkers();

 private:
  std::unique_ptr<WorkerProcess> checkout();
  void checkin(std::unique_ptr<WorkerProcess> worker);
  void discard(std::unique_ptr<WorkerProcess> worker, bool viaKill);
  void count(std::uint64_t ProcsStats::*counter);

  /// Forks a worker on the dedicated spawner thread (lazily started).
  /// PR_SET_PDEATHSIG binds a child's lifetime to the thread that forked
  /// it, so forking from a pool/job thread would SIGKILL the worker the
  /// moment that thread drains its work — poisoning the idle pool for
  /// every later job that tries to reuse it. The spawner thread lives
  /// until the supervisor is destroyed, making thread death and process
  /// death the same event for every worker.
  std::unique_ptr<WorkerProcess> spawnWorker();
  void spawnerLoop();

  SupervisorOptions options_;
  std::string binary_;

  mutable std::mutex mutex_;  // guards idle_, stats_, spawnFailures_
  std::deque<std::unique_ptr<WorkerProcess>> idle_;
  ProcsStats stats_;
  unsigned spawnFailures_ = 0;
  bool degraded_ = false;

  std::mutex spawnMutex_;  // guards the spawn queue + spawner lifecycle
  std::condition_variable spawnCv_;
  std::deque<std::promise<std::unique_ptr<WorkerProcess>>> spawnQueue_;
  bool spawnerExit_ = false;
  std::thread spawner_;
};

/// The isolated solve behind `--sweep --isolate` horizons (DESIGN.md §12,
/// §13). Runs `job` through `supervisor` while `ctx` and
/// the shutdown watcher can cancel it; the in-process fallback (serveJob)
/// runs only when no worker can be spawned. `job.options.cache` is the
/// caller's cache: its settings travel with the job, and the worker's
/// conclusive answers are stored back into it. Returns one result per
/// query and records the job's counters in `stats`; throws AnalysisError
/// ("worker: ...") when the job came back without an answer per query.
std::vector<core::AnalysisResult> solveIsolated(Supervisor& supervisor,
                                                jobs::JobContext& ctx,
                                                WireJob job, JobStats& stats);

}  // namespace buffy::procs
