#include "jobs/job.hpp"

#include <algorithm>
#include <exception>
#include <thread>

namespace buffy::jobs {

std::function<void()> JobContext::onInterrupt(std::function<void()> hook) {
  JobPool::WorkerSlot& slot = *pool_.slots_[worker_];
  const std::lock_guard<std::mutex> lock(slot.mu);
  std::swap(slot.hook, hook);
  return hook;
}

void JobPool::run(const RunSpec& spec) {
  if (spec.jobs == 0 || !spec.body) return;
  const std::size_t workers =
      std::min(std::max<std::size_t>(spec.workers, 1), spec.jobs);
  {
    const std::lock_guard<std::mutex> lock(slotsMu_);
    slots_.clear();
    slots_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      slots_.push_back(std::make_unique<WorkerSlot>());
    }
  }

  if (workers == 1) {
    workerLoop(spec, 0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([this, &spec, w] { workerLoop(spec, w); });
  }
  for (auto& t : threads) t.join();
}

void JobPool::workerLoop(const RunSpec& spec, std::size_t w) {
  WorkerSlot& slot = *slots_[w];
  JobContext ctx(*this, w);
  if (spec.setup) {
    // A worker that cannot set up retires without claiming anything; the
    // others drain its share of the queue.
    try {
      if (!spec.setup(ctx)) {
        ctx.onInterrupt(nullptr);
        return;
      }
    } catch (...) {
      ctx.onInterrupt(nullptr);
      return;
    }
  }
  while (true) {
    const std::size_t idx = next_.fetch_add(1);
    if (idx >= spec.jobs) break;
    // Publish the claim before checking the cutoff: either a canceller
    // observes the claim (and interrupts only if it is past the cutoff),
    // or this load observes the new cutoff and skips — so a job at or
    // below the cutoff can never be wrongly canceled.
    slot.current.store(idx);
    // A job past an already-decided winner cannot matter.
    if (idx > cutoff_.load()) continue;
    spec.body(ctx, idx);
    completed_.fetch_add(1);
  }
  slot.current.store(kNone);
  ctx.onInterrupt(nullptr);
}

void JobPool::cutAt(std::size_t cut) {
  std::size_t cur = cutoff_.load();
  while (cut < cur && !cutoff_.compare_exchange_weak(cur, cut)) {
  }
  // Stop workers burning time on jobs that can no longer matter.
  const std::lock_guard<std::mutex> lock(slotsMu_);
  for (const auto& slot : slots_) {
    const std::size_t inFlight = slot->current.load();
    if (inFlight == kNone || inFlight <= cut) continue;
    interruptSlot(*slot);
  }
}

void JobPool::interruptSlot(WorkerSlot& slot) {
  const std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.hook) slot.hook();
}

}  // namespace buffy::jobs
