#include "procs/supervisor.hpp"

#include <algorithm>
#include <csignal>

#include <unistd.h>

#include "procs/shutdown.hpp"
#include "procs/worker.hpp"

namespace buffy::procs {

namespace {

/// SIGTERM -> SIGKILL escalation grace.
constexpr int kTermGraceMs = 200;
/// Consecutive spawn failures before the supervisor degrades permanently
/// (every later job goes straight to the fallback).
constexpr unsigned kMaxSpawnFailures = 3;
/// Idle workers kept warm for reuse.
constexpr std::size_t kMaxIdleWorkers = 8;

/// Canceled Unknown verdicts, one per query (matching what an in-process
/// engine returns after Analysis::interrupt).
WireResult canceledResult(const WireJob& job) {
  WireResult result;
  for (std::size_t i = 0; i < job.queries.size(); ++i) {
    core::AnalysisResult r;
    r.detail = "canceled";
    r.canceled = true;
    result.verdicts.push_back(std::move(r));
  }
  return result;
}

/// Wall-clock deadline for one attempt, -1 for none.
int deadlineFor(const WireJob& job) {
  // A job without a solver timeout (unset, or 0, which Z3 reads as "no
  // timeout") may run as long as it does in-process: no deadline.
  const std::optional<unsigned>& timeoutMs = job.options.timeoutMs;
  if (!timeoutMs || *timeoutMs == 0) return -1;
  // Per-query solver timeout x queries x the in-engine retry ladder's
  // worst case + compile slack.
  const std::uint64_t queries = std::max<std::size_t>(1, job.queries.size());
  const std::uint64_t ladder =
      job.options.retry.enabled ? core::RetryPolicy::kLadderBudgets : 1;
  const std::uint64_t ms =
      static_cast<std::uint64_t>(*timeoutMs) * queries * ladder +
      static_cast<std::uint64_t>(Supervisor::kDeadlineSlackMs);
  return static_cast<int>(std::min<std::uint64_t>(ms, 0x7fffffff));
}

}  // namespace

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)) {
  // Frame writes into an already-dead worker must fail with EPIPE, not
  // kill the whole analysis process.
  std::signal(SIGPIPE, SIG_IGN);
  binary_ = options_.workerBinary.empty() ? selfExePath()
                                          : options_.workerBinary;
  // A missing/non-executable binary degrades the supervisor up front, so
  // available() lets callers choose the in-process path before queueing a
  // single doomed job.
  if (binary_.empty() || access(binary_.c_str(), X_OK) != 0) {
    degraded_ = true;
    stats_.degraded = true;
  }
}

Supervisor::~Supervisor() {
  shutdownWorkers();
  // Stop the spawner last: its exit delivers PDEATHSIG to any worker it
  // forked that somehow survived shutdown — a final no-orphan backstop.
  {
    std::lock_guard<std::mutex> lock(spawnMutex_);
    spawnerExit_ = true;
  }
  spawnCv_.notify_all();
  if (spawner_.joinable()) spawner_.join();
}

bool Supervisor::available() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !binary_.empty() && !degraded_;
}

ProcsStats Supervisor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Supervisor::shutdownWorkers() {
  std::deque<std::unique_ptr<WorkerProcess>> workers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    workers.swap(idle_);
  }
  for (auto& worker : workers) {
    worker->shutdown(kTermGraceMs);
  }
  if (!workers.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.workersReaped += workers.size();
  }
}

Supervisor::JobPtr Supervisor::createJob() {
  return JobPtr(new Job(this));
}

std::unique_ptr<WorkerProcess> Supervisor::checkout() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (degraded_ || binary_.empty()) return nullptr;
    while (!idle_.empty()) {
      auto worker = std::move(idle_.front());
      idle_.pop_front();
      // A worker can die while parked (OOM kill, external signal); a
      // corpse handed to a job would burn one of its retries on a
      // guaranteed EPIPE. Probe (and reap) here so parked deaths cost a
      // respawn, not a retry.
      if (worker->probeAlive()) return worker;
      ++stats_.workersReaped;
    }
  }
  auto worker = spawnWorker();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!worker) {
    if (++spawnFailures_ >= kMaxSpawnFailures) {
      degraded_ = true;
      stats_.degraded = true;
    }
    return nullptr;
  }
  spawnFailures_ = 0;
  ++stats_.workersSpawned;
  return worker;
}

std::unique_ptr<WorkerProcess> Supervisor::spawnWorker() {
  std::promise<std::unique_ptr<WorkerProcess>> reply;
  auto spawned = reply.get_future();
  {
    std::lock_guard<std::mutex> lock(spawnMutex_);
    if (spawnerExit_) return nullptr;
    if (!spawner_.joinable()) {
      spawner_ = std::thread([this] { spawnerLoop(); });
    }
    spawnQueue_.push_back(std::move(reply));
  }
  spawnCv_.notify_all();
  return spawned.get();
}

void Supervisor::spawnerLoop() {
  std::unique_lock<std::mutex> lock(spawnMutex_);
  for (;;) {
    spawnCv_.wait(lock,
                  [this] { return !spawnQueue_.empty() || spawnerExit_; });
    if (spawnerExit_) {
      for (auto& request : spawnQueue_) request.set_value(nullptr);
      spawnQueue_.clear();
      return;
    }
    auto request = std::move(spawnQueue_.front());
    spawnQueue_.pop_front();
    lock.unlock();
    auto worker = std::make_unique<WorkerProcess>();
    if (!worker->spawn(binary_)) worker.reset();
    request.set_value(std::move(worker));
    lock.lock();
  }
}

void Supervisor::checkin(std::unique_ptr<WorkerProcess> worker) {
  if (!worker || !worker->alive()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (idle_.size() < kMaxIdleWorkers) {
      idle_.push_back(std::move(worker));
      return;
    }
  }
  // Pool full: clean shutdown outside the lock.
  worker->shutdown(kTermGraceMs);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.workersReaped;
}

void Supervisor::discard(std::unique_ptr<WorkerProcess> worker, bool viaKill) {
  if (!worker) return;
  if (viaKill) {
    worker->terminate(kTermGraceMs);
  } else {
    worker->kill();  // already dead: reap without grace
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.workersReaped;
}

void Supervisor::count(std::uint64_t ProcsStats::*counter) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++(stats_.*counter);
}

void Supervisor::Job::count(unsigned JobStats::*counter) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++(stats_.*counter);
}

WireResult Supervisor::Job::run(WireJob job, const Fallback& fallback) {
  Supervisor& sup = *owner_;
  sup.count(&ProcsStats::jobs);

  // How the last attempt that reached a worker ended; empty while none has.
  std::string failure;
  unsigned attempts = 0;
  for (unsigned attempt = 0; attempt <= sup.options_.maxRetries; ++attempt) {
    if (canceled()) return canceledResult(job);
    if (attempt > 0) {
      sup.count(&ProcsStats::retries);
      count(&JobStats::retries);
    }

    auto worker = sup.checkout();
    if (!worker) break;  // spawn failed / degraded
    ++attempts;

    // The attempt ordinal keys deterministic worker-fault injection.
    job.attempt = attempt;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (canceled_.load(std::memory_order_acquire)) {
        // canceled between the check above and attach: don't start.
        sup.discard(std::move(worker), true);
        return canceledResult(job);
      }
      worker_ = worker.get();
    }

    WireMap frame;
    frame.set("type", "job");
    frame.set("job", encodeJob(job));
    const bool sent = worker->send(frame.encode());

    std::string payload;
    ReadStatus status = ReadStatus::Eof;
    if (sent) status = worker->read(payload, deadlineFor(job));

    {
      std::lock_guard<std::mutex> lock(mutex_);
      worker_ = nullptr;
    }
    if (canceled()) {
      sup.discard(std::move(worker), true);
      return canceledResult(job);
    }

    if (status == ReadStatus::Ok) {
      try {
        WireResult result = decodeResult(WireMap::decode(payload));
        sup.checkin(std::move(worker));
        return result;  // including clean in-worker errors: no retry
      } catch (const DecodeError&) {
        status = ReadStatus::Garbled;  // checksummed but malformed
      }
    }

    switch (status) {
      case ReadStatus::Eof:
        // Worker died before (or instead of) answering: crash.
        sup.discard(std::move(worker), false);
        sup.count(&ProcsStats::restarts);
        count(&JobStats::restarts);
        failure = "crash";
        break;
      case ReadStatus::Timeout:
        // Hung worker: deadline kill.
        sup.discard(std::move(worker), true);
        sup.count(&ProcsStats::kills);
        count(&JobStats::kills);
        failure = "deadline kill";
        break;
      case ReadStatus::Garbled:
        // Torn or corrupt frame: the worker's stream state is untrusted.
        sup.discard(std::move(worker), true);
        sup.count(&ProcsStats::protocolErrors);
        sup.count(&ProcsStats::kills);
        count(&JobStats::kills);
        failure = "garbled reply";
        break;
      case ReadStatus::Ok:
        break;  // unreachable: handled above
    }
  }

  if (canceled()) return canceledResult(job);

  WireResult result;
  if (!failure.empty()) {
    // The job took down every worker it reached: rerunning it in this
    // process could take the caller down the same way.
    result.error = "no answer after " + std::to_string(attempts) +
                   " attempt(s) (last: " + failure + ")";
    return result;
  }

  // No worker could be obtained: degrade to in-process.
  sup.count(&ProcsStats::degradedJobs);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.degraded = true;
  }
  if (fallback) return fallback(job);
  result.error = "no worker could be spawned and no in-process fallback";
  return result;
}

void Supervisor::Job::cancel() {
  canceled_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mutex_);
  if (worker_ != nullptr) {
    // The attached worker is mid-solve on our job: SIGKILL it so the
    // blocked read in run() returns immediately. Reaping happens on the
    // running thread (signalKill never touches the pipes it is reading).
    worker_->signalKill();
  }
}

JobStats Supervisor::Job::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<core::AnalysisResult> solveIsolated(Supervisor& supervisor,
                                                jobs::JobContext& ctx,
                                                WireJob job, JobStats& stats) {
  // The caller's cache stays here; the worker builds its own from the
  // settings.
  const std::shared_ptr<cache::VerdictCache> cache =
      std::move(job.options.cache);
  if (cache) job.cache = cache->options();
  const std::size_t queries = job.queries.size();

  const Supervisor::JobPtr handle = supervisor.createJob();
  WireResult reply;
  {
    const jobs::ScopedInterrupt guard(ctx, [handle] { handle->cancel(); });
    const ShutdownToken stopToken([handle] { handle->cancel(); });
    reply = handle->run(std::move(job), serveJob);
  }
  stats = handle->stats();
  if (!reply.error.empty()) throw AnalysisError("worker: " + reply.error);
  if (reply.verdicts.size() != queries) {
    throw AnalysisError("worker answered " +
                        std::to_string(reply.verdicts.size()) + " of " +
                        std::to_string(queries) + " queries");
  }
  if (cache) {
    // Feed the caller's memory tier, so later points hit without a disk
    // round-trip.
    for (const auto& result : reply.verdicts) {
      core::storeVerdict(*cache, result);
    }
  }
  return std::move(reply.verdicts);
}

}  // namespace buffy::procs
