// Differential tests for engine reuse: one Analysis answering a sequence
// of mixed check/verify queries (with workloads re-bound as deltas in
// between) must be verdict- and trace-identical to a fresh Analysis per
// query.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "helpers.hpp"
#include "support/error.hpp"

namespace buffy::core {
namespace {

using buffy::testing::schedulerNet;
using buffy::testing::starvationWorkload;

/// Pins the arrival counts of both queues to an exact per-step pattern
/// (deterministic: every reachable trace is unique, so Sat models can be
/// compared exactly).
Workload exactWorkload(const std::string& inst, const std::vector<int>& q0,
                       const std::vector<int>& q1) {
  Workload w;
  for (std::size_t t = 0; t < q0.size(); ++t) {
    w.add(Workload::countAtStep(inst + ".ibs.0", static_cast<int>(t), q0[t],
                                q0[t]));
    w.add(Workload::countAtStep(inst + ".ibs.1", static_cast<int>(t), q1[t],
                                q1[t]));
  }
  return w;
}

struct Step {
  Workload workload;
  std::string query;
  bool forVerify = false;
};

/// Runs the step sequence once through a single reused Analysis
/// (rebindWorkload between steps) and once through a fresh Analysis per
/// step; returns both result lists.
std::pair<std::vector<AnalysisResult>, std::vector<AnalysisResult>> runBoth(
    const Network& net, const AnalysisOptions& opts,
    const std::vector<Step>& steps) {
  std::vector<AnalysisResult> incremental;
  Analysis session(net, opts);
  for (const Step& step : steps) {
    session.rebindWorkload(step.workload);
    const Query q = Query::expr(step.query);
    incremental.push_back(step.forVerify ? session.verify(q)
                                         : session.check(q));
  }

  std::vector<AnalysisResult> fresh;
  for (const Step& step : steps) {
    Analysis analysis(net, opts);
    analysis.setWorkload(step.workload);
    const Query q = Query::expr(step.query);
    fresh.push_back(step.forVerify ? analysis.verify(q) : analysis.check(q));
  }
  return {std::move(incremental), std::move(fresh)};
}

TEST(IncrementalSession, MixedQuerySequenceMatchesFreshSolver) {
  const Network net = schedulerNet(models::kFairQueueBuggy, "fq", 2);
  AnalysisOptions opts;
  opts.horizon = 4;

  std::vector<Step> steps;
  // Deterministic workload A: steady queue 0, burst on queue 1.
  steps.push_back({exactWorkload("fq", {1, 1, 1, 1}, {2, 0, 0, 0}),
                   "fq.cdeq.0[T-1] >= 1", false});
  steps.push_back({exactWorkload("fq", {1, 1, 1, 1}, {2, 0, 0, 0}),
                   "fq.cdeq.0[T-1] + fq.cdeq.1[T-1] <= T", true});
  // Workload B re-bound onto the same encoding: silent queue 0.
  steps.push_back({exactWorkload("fq", {0, 0, 0, 0}, {2, 0, 0, 0}),
                   "fq.cdeq.0[T-1] > 0", false});  // unsat now
  steps.push_back({exactWorkload("fq", {0, 0, 0, 0}, {2, 0, 0, 0}),
                   "fq.cdeq.0[T-1] == 0", true});
  // Workload C: the starvation shape, loose pacing (non-deterministic).
  steps.push_back({starvationWorkload("fq", 4), "fq.cdeq.1[T-1] <= 1",
                   false});
  steps.push_back({starvationWorkload("fq", 4), "fq.cdeq.1[T-1] >= 2",
                   true});  // violated: pacing can starve queue 1
  // Back to workload A — the engine must not have been poisoned by the
  // intermediate deltas.
  steps.push_back({exactWorkload("fq", {1, 1, 1, 1}, {2, 0, 0, 0}),
                   "fq.cdeq.0[T-1] >= 1", false});
  steps.push_back({exactWorkload("fq", {1, 1, 1, 1}, {2, 0, 0, 0}),
                   "fq.cdeq.1[T-1] >= T", false});

  const auto [incremental, fresh] = runBoth(net, opts, steps);
  ASSERT_EQ(incremental.size(), fresh.size());
  for (std::size_t i = 0; i < incremental.size(); ++i) {
    EXPECT_EQ(incremental[i].verdict, fresh[i].verdict)
        << "step " << i << ": " << steps[i].query;
  }
}

TEST(IncrementalSession, DeterministicWorkloadTracesMatchExactly) {
  // Under an exact (deterministic) workload the monitor series have a
  // unique reachable value per step, so the model-derived traces of the
  // rebound and fresh engines must agree entry-for-entry with the
  // concrete simulation.
  const Network net = schedulerNet(models::kFairQueueBuggy, "fq", 2);
  AnalysisOptions opts;
  opts.horizon = 3;
  const std::vector<int> q0 = {1, 0, 1};
  const std::vector<int> q1 = {2, 0, 0};

  ConcreteArrivals arrivals;
  for (int t = 0; t < 3; ++t) {
    arrivals["fq.ibs.0"].push_back(
        std::vector<ConcretePacket>(static_cast<std::size_t>(q0[t])));
    arrivals["fq.ibs.1"].push_back(
        std::vector<ConcretePacket>(static_cast<std::size_t>(q1[t])));
  }
  Analysis sim(net, opts);
  const Trace truth = sim.simulate(arrivals);

  Analysis session(net, opts);
  session.rebindWorkload(exactWorkload("fq", q0, q1));
  Analysis freshEngine(net, opts);
  freshEngine.setWorkload(exactWorkload("fq", q0, q1));

  const std::vector<std::string> series = {"fq.cdeq.0", "fq.cdeq.1"};
  for (int round = 0; round < 3; ++round) {
    const auto inc = session.check(Query::always());
    const auto fre = freshEngine.check(Query::always());
    ASSERT_EQ(inc.verdict, Verdict::Satisfiable);
    ASSERT_EQ(fre.verdict, Verdict::Satisfiable);
    for (const std::string& s : series) {
      for (int t = 0; t < 3; ++t) {
        EXPECT_EQ(inc.trace->at(s, t), truth.at(s, t))
            << s << "[" << t << "] round " << round;
        EXPECT_EQ(fre.trace->at(s, t), truth.at(s, t))
            << s << "[" << t << "] round " << round;
      }
    }
  }
}

TEST(IncrementalSession, RebindBuildsEncodingOnDemand) {
  // rebindWorkload on a virgin Analysis builds the encoding, and the
  // arena/encoding survive re-binding (same object, new workload terms).
  Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2), {});
  analysis.rebindWorkload(exactWorkload("rr", {1, 1, 1, 1}, {0, 0, 0, 0}));
  const Encoding* enc = &analysis.encoding();
  const std::size_t termsBefore = enc->arena.size();
  EXPECT_FALSE(enc->workloadTerms.empty());

  analysis.rebindWorkload(Workload{});
  EXPECT_EQ(&analysis.encoding(), enc);
  EXPECT_TRUE(enc->workloadTerms.empty());
  // A re-bind to constraints the arena has already interned adds no terms.
  analysis.rebindWorkload(exactWorkload("rr", {1, 1, 1, 1}, {0, 0, 0, 0}));
  EXPECT_EQ(enc->arena.size(), termsBefore);
}

TEST(IncrementalSession, SetWorkloadStillLockedAfterEncoding) {
  // setWorkload keeps its build-time contract; rebindWorkload is the
  // post-encoding path.
  Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2), {});
  analysis.check(Query::always());
  EXPECT_THROW(analysis.setWorkload(Workload{}), AnalysisError);
  analysis.rebindWorkload(exactWorkload("rr", {1, 1, 1, 1}, {0, 0, 0, 0}));
  EXPECT_EQ(analysis.check(Query::expr("rr.cdeq.0[T-1] >= 1")).verdict,
            Verdict::Satisfiable);
}

}  // namespace
}  // namespace buffy::core
