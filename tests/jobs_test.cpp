// Job-layer tests (DESIGN.md §12): JobPool claim and cutoff semantics.
// These are pure threading tests — no solver — so they are cheap enough to
// hammer under TSan (the `jobs` ctest label feeds the thread-sanitizer CI
// job).
#include "jobs/job.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace buffy::jobs {
namespace {

TEST(JobPool, RunsEveryJobOnce) {
  std::vector<std::atomic<int>> hits(32);
  JobPool pool;
  JobPool::RunSpec spec;
  spec.jobs = hits.size();
  spec.workers = 4;
  spec.body = [&](JobContext&, std::size_t idx) { hits[idx].fetch_add(1); };
  pool.run(spec);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.completed(), hits.size());
  EXPECT_EQ(pool.cutoff(), JobPool::kNone);
}

TEST(JobPool, SingleWorkerRunsInlineInClaimOrder) {
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  JobPool pool;
  JobPool::RunSpec spec;
  spec.jobs = 8;
  spec.workers = 1;
  spec.body = [&](JobContext& ctx, std::size_t idx) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(ctx.worker(), 0u);
    order.push_back(idx);
  };
  pool.run(spec);
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(JobPool, CutoffSkipsHigherUnclaimedJobs) {
  // Single worker, claims arrive in index order: job 2 cuts, so 3..7 are
  // skipped and completed() counts only the jobs whose body ran.
  std::vector<std::size_t> ran;
  JobPool pool;
  JobPool::RunSpec spec;
  spec.jobs = 8;
  spec.workers = 1;
  spec.body = [&](JobContext&, std::size_t idx) {
    ran.push_back(idx);
    if (idx == 2) pool.cutAt(2);
  };
  pool.run(spec);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(pool.completed(), 3u);
  EXPECT_EQ(pool.cutoff(), 2u);
}

TEST(JobPool, CutoffResolvesToLowestIndex) {
  // Every job tries to cut at its own index; CAS-min must resolve the
  // final cutoff to the lowest job index under any schedule.
  JobPool pool;
  JobPool::RunSpec spec;
  spec.jobs = 16;
  spec.workers = 4;
  spec.body = [&](JobContext&, std::size_t idx) { pool.cutAt(idx); };
  pool.run(spec);
  EXPECT_EQ(pool.cutoff(), 0u);
}

TEST(JobPool, JobsAtOrBelowCutoffAreNeverInterrupted) {
  // Worker A claims job 0 and blocks until released; worker B runs job 1
  // and cuts at 0. Job 0 is AT the cutoff: it must run to completion and
  // its interrupt hook must never fire.
  std::atomic<bool> release{false};
  std::atomic<int> hookFired{0};
  JobPool pool;
  JobPool::RunSpec spec;
  spec.jobs = 2;
  spec.workers = 2;
  spec.body = [&](JobContext& ctx, std::size_t idx) {
    if (idx == 0) {
      const ScopedInterrupt guard(ctx, [&] { hookFired.fetch_add(1); });
      while (!release.load()) std::this_thread::yield();
    } else {
      pool.cutAt(0);
      release.store(true);
    }
  };
  pool.run(spec);
  EXPECT_EQ(hookFired.load(), 0);
  EXPECT_EQ(pool.completed(), 2u);
}

TEST(JobPool, CutInterruptsInFlightJobAboveCutoff) {
  // Job 1 blocks until its own interrupt hook fires; job 0 cuts at 0,
  // which must interrupt the in-flight job 1 through the published hook.
  std::atomic<bool> interrupted{false};
  std::atomic<bool> job1Started{false};
  JobPool pool;
  JobPool::RunSpec spec;
  spec.jobs = 2;
  spec.workers = 2;
  spec.body = [&](JobContext& ctx, std::size_t idx) {
    if (idx == 1) {
      const ScopedInterrupt guard(ctx, [&] { interrupted.store(true); });
      job1Started.store(true);
      while (!interrupted.load()) std::this_thread::yield();
    } else {
      while (!job1Started.load()) std::this_thread::yield();
      pool.cutAt(0);
    }
  };
  pool.run(spec);
  EXPECT_TRUE(interrupted.load());
}

TEST(JobPool, SetupFailureRetiresWorkerAndDrainsQueue) {
  // Worker 1's setup fails; worker 0 must still run the whole index space.
  std::atomic<std::size_t> ran{0};
  std::mutex mu;
  std::set<std::size_t> workers;
  JobPool pool;
  JobPool::RunSpec spec;
  spec.jobs = 12;
  spec.workers = 2;
  spec.setup = [&](JobContext& ctx) { return ctx.worker() != 1; };
  spec.body = [&](JobContext& ctx, std::size_t) {
    ran.fetch_add(1);
    const std::lock_guard<std::mutex> lock(mu);
    workers.insert(ctx.worker());
  };
  pool.run(spec);
  EXPECT_EQ(ran.load(), 12u);
  EXPECT_EQ(workers.count(1), 0u);
}

TEST(JobPool, HookExchangeIsSafeAgainstConcurrentCancel) {
  // Publish/retract hooks in a tight loop on every job while an outside
  // thread cuts at 0: no hook may fire after it was retracted (the flag it
  // writes is stack-local to the job body). TSan validates the mutex
  // ordering; the assert validates the exchange contract.
  JobPool pool;
  JobPool::RunSpec spec;
  spec.jobs = 200;
  spec.workers = 4;
  spec.body = [&](JobContext& ctx, std::size_t) {
    bool alive = true;
    {
      const ScopedInterrupt guard(ctx, [&alive] { EXPECT_TRUE(alive); });
      std::this_thread::yield();
    }
    alive = false;
  };
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    pool.cutAt(0);
  });
  pool.run(spec);
  canceller.join();
  EXPECT_EQ(pool.cutoff(), 0u);
}

}  // namespace
}  // namespace buffy::jobs
