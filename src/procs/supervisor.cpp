#include "procs/supervisor.hpp"

#include <algorithm>
#include <csignal>
#include <ctime>

#include <unistd.h>

namespace buffy::procs {

namespace {

void sleepMs(int ms) {
  if (ms <= 0) return;
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1'000'000L;
  nanosleep(&ts, nullptr);
}

/// Canceled Unknown verdicts, one per query (matching what an in-process
/// engine returns after Analysis::interrupt).
WireResult canceledResult(const WireJob& job) {
  WireResult result;
  const std::size_t n = std::max<std::size_t>(1, job.queries.size());
  for (std::size_t i = 0; i < n; ++i) {
    WireVerdict v;
    v.verdict = "UNKNOWN";
    v.detail = "canceled";
    v.canceled = true;
    result.verdicts.push_back(std::move(v));
  }
  return result;
}

unsigned scalePow(unsigned base, unsigned factor, unsigned power) {
  std::uint64_t value = base;
  for (unsigned i = 0; i < power; ++i) {
    value *= std::max(1u, factor);
    if (value > 0x7fffffffu) return 0x7fffffffu;
  }
  return static_cast<unsigned>(value);
}

}  // namespace

ProcsStats& ProcsStats::operator+=(const ProcsStats& other) {
  jobs += other.jobs;
  workersSpawned += other.workersSpawned;
  workersReaped += other.workersReaped;
  restarts += other.restarts;
  retries += other.retries;
  kills += other.kills;
  timeouts += other.timeouts;
  protocolErrors += other.protocolErrors;
  degradedJobs += other.degradedJobs;
  degraded = degraded || other.degraded;
  return *this;
}

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
    worker->shutdown(options_.termGraceMs);
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
    if (++spawnFailures_ >= options_.maxSpawnFailures) {
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
    if (idle_.size() < options_.maxIdleWorkers) {
      idle_.push_back(std::move(worker));
      return;
    }
  }
  // Pool full: clean shutdown outside the lock.
  worker->shutdown(options_.termGraceMs);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.workersReaped;
}

void Supervisor::discard(std::unique_ptr<WorkerProcess> worker, bool viaKill) {
  if (!worker) return;
  if (viaKill) {
    worker->terminate(options_.termGraceMs);
  } else {
    worker->kill();  // already dead: reap without grace
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.workersReaped;
}

int Supervisor::deadlineFor(const WireJob& job, unsigned attempt) const {
  if (options_.jobDeadlineMs > 0) {
    return static_cast<int>(
        scalePow(static_cast<unsigned>(options_.jobDeadlineMs),
                 options_.escalateFactor, attempt));
  }
  // A job without a solver timeout (unset, or 0, which Z3 reads as "no
  // timeout") may run as long as it does in-process: no deadline.
  if (!job.timeoutMs || *job.timeoutMs == 0) return -1;
  // Derived: per-query solver timeout x queries x the in-engine retry
  // ladder's worst case + compile slack. The escalation for retry attempts
  // is already baked into job.timeoutMs by run().
  const std::uint64_t queries = std::max<std::size_t>(1, job.queries.size());
  const std::uint64_t ladder =
      job.retryEnabled ? core::RetryPolicy::kLadderBudgets : 1;
  const std::uint64_t ms = static_cast<std::uint64_t>(*job.timeoutMs) *
                               queries * ladder +
                           static_cast<std::uint64_t>(options_.deadlineSlackMs);
  return static_cast<int>(std::min<std::uint64_t>(ms, 0x7fffffff));
}

WireResult Supervisor::Job::run(WireJob job, const Fallback& fallback) {
  Supervisor& sup = *owner_;
  {
    std::lock_guard<std::mutex> lock(sup.mutex_);
    ++sup.stats_.jobs;
  }

  const std::optional<unsigned> baseTimeout = job.timeoutMs;
  const std::optional<unsigned> baseRlimit = job.rlimit;

  for (unsigned attempt = 0; attempt <= sup.options_.maxRetries; ++attempt) {
    if (canceled()) return canceledResult(job);
    if (attempt > 0) {
      {
        std::lock_guard<std::mutex> lock(sup.mutex_);
        ++sup.stats_.retries;
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.retries;
      }
      sleepMs(std::min(sup.options_.backoffCapMs,
                       sup.options_.backoffBaseMs << (attempt - 1)));
    }

    auto worker = sup.checkout();
    if (!worker) break;  // spawn failed / degraded: fall through

    // Escalate the solver budget with each retry (the process-level twin
    // of the in-engine escalate rung), and stamp the attempt ordinal that
    // keys deterministic worker-fault injection.
    job.attempt = attempt;
    if (baseTimeout) {
      job.timeoutMs = scalePow(*baseTimeout, sup.options_.escalateFactor,
                               attempt);
    }
    if (baseRlimit) {
      job.rlimit = scalePow(*baseRlimit, sup.options_.escalateFactor,
                            attempt);
    }

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
    if (sent) {
      status = worker->read(payload, sup.deadlineFor(job, attempt));
    }

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
      } catch (const ProtocolError&) {
        status = ReadStatus::Garbled;  // checksummed but malformed
      }
    }

    switch (status) {
      case ReadStatus::Eof:
        // Worker died before (or instead of) answering: crash.
        sup.discard(std::move(worker), false);
        {
          std::lock_guard<std::mutex> lock(sup.mutex_);
          ++sup.stats_.restarts;
        }
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.restarts;
        }
        break;
      case ReadStatus::Timeout:
        // Hung worker: deadline kill.
        sup.discard(std::move(worker), true);
        {
          std::lock_guard<std::mutex> lock(sup.mutex_);
          ++sup.stats_.timeouts;
          ++sup.stats_.kills;
        }
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.kills;
        }
        break;
      case ReadStatus::Garbled:
        // Torn or corrupt frame: the worker's stream state is untrusted.
        sup.discard(std::move(worker), true);
        {
          std::lock_guard<std::mutex> lock(sup.mutex_);
          ++sup.stats_.protocolErrors;
          ++sup.stats_.kills;
        }
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.kills;
        }
        break;
      case ReadStatus::Ok:
        break;  // unreachable: handled above
    }
  }

  if (canceled()) return canceledResult(job);

  // Retries exhausted or no worker available: degrade to in-process.
  {
    std::lock_guard<std::mutex> lock(sup.mutex_);
    ++sup.stats_.degradedJobs;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.degraded = true;
  }
  if (fallback) return fallback(job);
  WireResult result;
  result.error = "worker attempts exhausted and no in-process fallback";
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

}  // namespace buffy::procs
