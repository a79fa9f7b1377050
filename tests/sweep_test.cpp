// Horizon sharding (DESIGN.md §12): a sweep's report is identical under
// any shard count. The `jobs` label runs these under the TSan CI job.
#include "core/sweep.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "support/error.hpp"

namespace buffy::core {
namespace {

using buffy::testing::schedulerNet;

AnalysisOptions fastOpts(int horizon) {
  AnalysisOptions opts;
  opts.horizon = horizon;
  return opts;
}

/// rr queue 0 gets a packet every step, queue 1 is free — queue 0 is
/// guaranteed service under round robin.
Workload rrWorkload() {
  Workload w;
  w.add(Workload::perStepCount("rr.ibs.0", 1, 1));
  w.add(Workload::perStepCount("rr.ibs.1", 0, 1));
  return w;
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
