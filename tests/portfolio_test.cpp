// Portfolio racing + horizon sharding (DESIGN.md §12).
//
// The load-bearing property is SCHEDULE INVARIANCE: whatever the thread
// count and however FaultPlan delays skew the member schedule, the
// portfolio's verdict equals the serial engine's verdict, and a sweep's
// report is identical under any shard count. These tests run under the
// TSan CI job (labels jobs/resilience), so they double as the data-race
// stress for the job layer with real solver engines behind the hooks.
#include "core/portfolio.hpp"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backends/fault_plan.hpp"
#include "core/sweep.hpp"
#include "helpers.hpp"
#include "pipeline/driver.hpp"
#include "support/error.hpp"

namespace buffy::core {
namespace {

using buffy::testing::schedulerNet;
using buffy::testing::starvationWorkload;

AnalysisOptions fastOpts(int horizon) {
  AnalysisOptions opts;
  opts.horizon = horizon;
  return opts;
}

pipeline::CompilationUnitPtr unitFor(const Network& net,
                                     const AnalysisOptions& opts) {
  const pipeline::CompilerDriver driver(pipelineOptionsFor(opts));
  return driver.compile(net);
}

/// rr queue 0 gets a packet every step, queue 1 is free — queue 0 is
/// guaranteed service under round robin.
Workload rrWorkload() {
  Workload w;
  w.add(Workload::perStepCount("rr.ibs.0", 1, 1));
  w.add(Workload::perStepCount("rr.ibs.1", 0, 1));
  return w;
}

TEST(Portfolio, RaceVerdictMatchesSerialVerify) {
  const Network net = schedulerNet(models::kRoundRobin, "rr", 2, 4, 2);
  const AnalysisOptions opts = fastOpts(4);
  const Query query = Query::expr("rr.cdeq.0[T-1] >= 1");

  Analysis serial(unitFor(net, opts), opts);
  serial.setWorkload(rrWorkload());
  const AnalysisResult baseline = serial.verify(query);
  ASSERT_EQ(baseline.verdict, Verdict::Verified);

  Portfolio portfolio(unitFor(net, opts), opts);
  const PortfolioResult raced =
      portfolio.verify(query, rrWorkload(), PortfolioOptions{});
  EXPECT_EQ(raced.result.verdict, baseline.verdict);
  EXPECT_FALSE(raced.winner.empty());
  // Every configured member is logged: ladder, two seed variants, smtlib
  // (and chc only if the query qualifies — this one mentions T, so no).
  ASSERT_EQ(raced.members.size(), 4u);
  EXPECT_EQ(raced.members[0].name, "ladder");
  bool someWon = false;
  for (const auto& m : raced.members) someWon = someWon || m.won;
  EXPECT_TRUE(someWon);
}

TEST(Portfolio, ChcMemberJoinsForHorizonFreeVerify) {
  // A textual query without the horizon constant is eligible for the
  // CHC/Spacer member; Proved-everywhere must agree with bounded verify.
  const Network net = schedulerNet(models::kRoundRobin, "rr", 2, 4, 2);
  const AnalysisOptions opts = fastOpts(3);
  const Query query = Query::expr("rr.cdeq.0[0] >= 0");

  Portfolio portfolio(unitFor(net, opts), opts);
  const PortfolioResult raced =
      portfolio.verify(query, Workload{}, PortfolioOptions{});
  EXPECT_EQ(raced.result.verdict, Verdict::Verified);
  ASSERT_EQ(raced.members.size(), 5u);
  EXPECT_EQ(raced.members.back().name, "chc");
}

TEST(Portfolio, VerdictInvariantUnderThreadsAndInjectedDelays) {
  // The TSan stress: delays injected into individual members skew the
  // schedule arbitrarily; the verdict may come from a different member
  // each time but must always be the serial verdict.
  const Network net = schedulerNet(models::kFairQueueBuggy, "fq", 2);
  AnalysisOptions opts = fastOpts(5);
  const Query query = Query::expr("fq.cdeq.1[T-1] >= 2");

  Analysis serial(unitFor(net, opts), opts);
  serial.setWorkload(starvationWorkload("fq", 5));
  const AnalysisResult baseline = serial.verify(query);
  ASSERT_EQ(baseline.verdict, Verdict::Violated);

  const std::vector<std::string> delayScopes = {"race:ladder",
                                                "race:z3-seed-5"};
  for (const auto& scope : delayScopes) {
    auto plan = std::make_shared<backends::FaultPlan>();
    plan->at(scope, 0,
             {backends::FaultAction::Kind::Delay, "slow member", 25});
    AnalysisOptions faulted = opts;
    faulted.faultPlan = plan;
    Portfolio portfolio(unitFor(net, faulted), faulted);
    PortfolioOptions popts;
    popts.chc = false;  // spacer timing is noise here
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{0}}) {
      popts.threads = threads;
      const PortfolioResult raced =
          portfolio.verify(query, starvationWorkload("fq", 5), popts);
      EXPECT_EQ(raced.result.verdict, baseline.verdict)
          << "scope=" << scope << " threads=" << threads;
    }
  }
}

TEST(Portfolio, UnknownNeverWinsWhileASiblingCanAnswer) {
  // The ladder is forced Unknown on every rung (initial, reseed, smtlib
  // fallback) and finishes first; the delayed seed member must still win
  // with the sound verdict. Unknown never beats a running sibling.
  const Network net = schedulerNet(models::kRoundRobin, "rr", 2, 4, 2);
  AnalysisOptions opts = fastOpts(4);
  auto plan = std::make_shared<backends::FaultPlan>();
  for (std::size_t nth = 0; nth < 8; ++nth) {
    plan->forceUnknown("race:ladder", nth);
  }
  plan->at("race:z3-seed-5", 0,
           {backends::FaultAction::Kind::Delay, "slow seed", 25});
  opts.faultPlan = plan;

  Portfolio portfolio(unitFor(net, opts), opts);
  PortfolioOptions popts;
  popts.seeds = {5};
  popts.smtlib = false;
  popts.chc = false;
  const Query query = Query::expr("rr.cdeq.0[T-1] >= 1");
  const PortfolioResult raced =
      portfolio.verify(query, rrWorkload(), popts);
  EXPECT_EQ(raced.result.verdict, Verdict::Verified);
  EXPECT_EQ(raced.winner, "z3-seed-5");
  ASSERT_EQ(raced.members.size(), 2u);
  EXPECT_TRUE(raced.members[0].finished);
  EXPECT_FALSE(raced.members[0].sound);
  EXPECT_FALSE(raced.members[0].won);
}

TEST(Portfolio, AllUnknownFallsBackToTheLadderDeterministically) {
  const Network net = schedulerNet(models::kRoundRobin, "rr", 2, 4, 2);
  AnalysisOptions opts = fastOpts(4);
  auto plan = std::make_shared<backends::FaultPlan>();
  for (std::size_t nth = 0; nth < 8; ++nth) {
    plan->forceUnknown("race:ladder", nth);
    plan->forceUnknown("race:z3-seed-5", nth);
  }
  opts.faultPlan = plan;

  Portfolio portfolio(unitFor(net, opts), opts);
  PortfolioOptions popts;
  popts.seeds = {5};
  popts.smtlib = false;
  popts.chc = false;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    popts.threads = threads;
    const PortfolioResult raced = portfolio.verify(
        Query::expr("rr.cdeq.0[T-1] >= 1"), rrWorkload(), popts);
    EXPECT_EQ(raced.result.verdict, Verdict::Unknown) << threads;
    // No sound answer: the fallback is the lowest-index member, the
    // ladder — identical under any schedule.
    EXPECT_TRUE(raced.winner.empty()) << threads;
  }
}

TEST(Portfolio, DifferentialVerdictsAcrossModels) {
  // Race verdict == serial verdict on all four sound verdicts across the
  // scheduler models (the in-library half of the examples/models
  // differential; the CLI half lives in cli_test).
  struct Case {
    const char* source;
    const char* instance;
    const char* query;
    bool verify;
    Verdict expected;
  };
  const std::vector<Case> cases = {
      {models::kFairQueueBuggy, "fq",
       "fq.cdeq.0[T-1] >= T-1 & fq.cdeq.1[T-1] <= 1 & "
       "fq.ibs.1.backlog[T-1] > 0",
       false, Verdict::Satisfiable},
      {models::kFairQueueFixed, "fq",
       "fq.cdeq.0[T-1] >= T-1 & fq.cdeq.1[T-1] <= 1 & "
       "fq.ibs.1.backlog[T-1] > 0",
       false, Verdict::Unsatisfiable},
      {models::kFairQueueBuggy, "fq", "fq.cdeq.1[T-1] >= 2", true,
       Verdict::Violated},
      {models::kFairQueueFixed, "fq", "fq.cdeq.1[T-1] >= 2", true,
       Verdict::Verified},
  };
  for (const auto& c : cases) {
    const Network net = schedulerNet(c.source, c.instance, 2);
    const AnalysisOptions opts = fastOpts(5);
    const Query query = Query::expr(c.query);
    const Workload workload = starvationWorkload(c.instance, 5);

    Analysis serial(unitFor(net, opts), opts);
    serial.setWorkload(workload);
    const AnalysisResult baseline =
        c.verify ? serial.verify(query) : serial.check(query);
    ASSERT_EQ(baseline.verdict, c.expected) << c.query;

    Portfolio portfolio(unitFor(net, opts), opts);
    PortfolioOptions popts;
    popts.chc = false;
    const PortfolioResult raced =
        c.verify ? portfolio.verify(query, workload, popts)
                 : portfolio.check(query, workload, popts);
    EXPECT_EQ(raced.result.verdict, baseline.verdict) << c.query;
  }
}

TEST(HorizonSweep, ReportIsShardCountInvariant) {
  const Network net = schedulerNet(models::kRoundRobin, "rr", 2, 4, 2);
  const std::vector<Query> queries = {Query::expr("rr.cdeq.0[T-1] >= 0"),
                                      Query::expr("rr.cdeq.0[T-1] >= 1")};
  HorizonSweep sweep(net, fastOpts(1));
  const HorizonSweep::WorkloadFn workloadAt = [](int) { return rrWorkload(); };

  SweepOptions one;
  one.fromHorizon = 1;
  one.toHorizon = 4;
  one.shards = 1;
  one.verify = true;
  SweepOptions three = one;
  three.shards = 3;

  const SweepResult serial = sweep.run(queries, workloadAt, one);
  const SweepResult sharded = sweep.run(queries, workloadAt, three);

  ASSERT_EQ(serial.points.size(), 8u);
  ASSERT_EQ(sharded.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(sharded.points[i].horizon, serial.points[i].horizon) << i;
    EXPECT_EQ(sharded.points[i].query, serial.points[i].query) << i;
    EXPECT_EQ(sharded.points[i].verdict, serial.points[i].verdict) << i;
    EXPECT_EQ(sharded.points[i].verdict, "VERIFIED") << i;
  }
  EXPECT_EQ(sharded.shards, 3u);
}

TEST(HorizonSweep, RejectsEmptyAndBackwardRanges) {
  const Network net = schedulerNet(models::kRoundRobin, "rr", 2, 4, 2);
  HorizonSweep sweep(net, fastOpts(1));
  SweepOptions bad;
  bad.fromHorizon = 3;
  bad.toHorizon = 2;
  EXPECT_THROW(sweep.run({Query::expr("rr.cdeq.0[0] >= 0")}, nullptr, bad),
               AnalysisError);
  SweepOptions ok;
  EXPECT_THROW(sweep.run({}, nullptr, ok), AnalysisError);
}

}  // namespace
}  // namespace buffy::core
