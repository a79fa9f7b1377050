// Exhaustive differential testing: for every concrete workload in a small
// space, the interpreter's trace and both Z3 solve paths (native one-shot
// and SMT-LIB emit+reparse) must agree exactly, under check and verify.
// This closes the loop between the two consumers of the symbolic
// evaluator — constant folding (simulation) and solving — and between the
// Buffy pipeline and the hand-written FPerf baseline.
#include <gtest/gtest.h>

#include "fperf/fperf_common.hpp"
#include "helpers.hpp"

namespace buffy::core {
namespace {

using buffy::testing::schedulerNet;

/// Pins the arrival counts of both queues to an exact per-step pattern.
Workload exactWorkload(const std::string& inst,
                       const std::vector<int>& q0,
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

struct Scenario {
  const char* source;
  const char* inst;
  std::vector<int> q0;
  std::vector<int> q1;
};

/// Prints e.g. `fq_q0_010_q1_200`. CTest names each case after this
/// text; gtest's default byte dump would embed the (ASLR-randomised)
/// pointers and change the names on every build.
void PrintTo(const Scenario& sc, std::ostream* os) {
  *os << sc.inst << "_q0_";
  for (int n : sc.q0) *os << n;
  *os << "_q1_";
  for (int n : sc.q1) *os << n;
}

class ExhaustiveDifferential : public ::testing::TestWithParam<Scenario> {};

TEST_P(ExhaustiveDifferential, SolverMatchesInterpreterExactly) {
  const Scenario& sc = GetParam();
  const int horizon = static_cast<int>(sc.q0.size());
  Network net = schedulerNet(sc.source, sc.inst, 2);

  // 1. Interpreter ground truth.
  ConcreteArrivals arrivals;
  for (int t = 0; t < horizon; ++t) {
    arrivals[std::string(sc.inst) + ".ibs.0"].push_back(
        std::vector<ConcretePacket>(static_cast<std::size_t>(sc.q0[t])));
    arrivals[std::string(sc.inst) + ".ibs.1"].push_back(
        std::vector<ConcretePacket>(static_cast<std::size_t>(sc.q1[t])));
  }
  AnalysisOptions opts;
  opts.horizon = horizon;
  Analysis sim(net, opts);
  const Trace truth = sim.simulate(arrivals);

  // 2. The solver, constrained to the same workload, must consider the
  //    exact monitor sequence reachable and any deviation in the final
  //    counters unreachable (the workload is deterministic): ∃ through
  //    check, ∀ through verify, each on the native one-shot path and on
  //    the SMT-LIB emit+reparse path.
  std::string exactQuery;
  for (int t = 0; t < horizon; ++t) {
    for (int q = 0; q < 2; ++q) {
      const std::string series =
          std::string(sc.inst) + ".cdeq." + std::to_string(q);
      if (!exactQuery.empty()) exactQuery += " & ";
      exactQuery += series + "[" + std::to_string(t) +
                    "] == " + std::to_string(truth.at(series, t));
    }
  }
  const std::string series0 = std::string(sc.inst) + ".cdeq.0";
  const std::string final0 = series0 + "[T-1]";
  const std::string truth0 = std::to_string(truth.at(series0, horizon - 1));
  struct Case {
    std::string query;
    bool forVerify;
    Verdict expected;
  };
  const std::vector<Case> cases = {
      {exactQuery, false, Verdict::Satisfiable},
      {final0 + " != " + truth0, false, Verdict::Unsatisfiable},
      {final0 + " == " + truth0, true, Verdict::Verified},
      {final0 + " != " + truth0, true, Verdict::Violated},
  };
  Analysis engine(net, opts);
  engine.setWorkload(exactWorkload(sc.inst, sc.q0, sc.q1));
  for (const Case& c : cases) {
    const Query query = Query::expr(c.query);
    const AnalysisResult native =
        c.forVerify ? engine.verify(query) : engine.check(query);
    EXPECT_EQ(native.verdict, c.expected) << "native: " << c.query;
    EXPECT_EQ(engine.solveViaSmtLib(query, c.forVerify).verdict, c.expected)
        << "smtlib: " << c.query;
  }

  // 3. The FPerf baseline agrees on the final cdeq0 (FQ scenarios only).
  if (std::string(sc.source) == models::kFairQueueBuggy) {
    fperf::Params params;
    params.N = 2;
    params.T = horizon;
    params.C = 6;
    params.maxEnq = 3;
    std::vector<fperf::ArrivalBound> bounds;
    for (int t = 0; t < horizon; ++t) {
      bounds.push_back({.q = 0, .t = t, .lo = sc.q0[t], .hi = sc.q0[t]});
      bounds.push_back({.q = 1, .t = t, .lo = sc.q1[t], .hi = sc.q1[t]});
    }
    const std::int64_t expected = truth.at(series0, horizon - 1);
    EXPECT_TRUE(fperf::checkFq(params, bounds, expected).sat);
    EXPECT_FALSE(fperf::checkFq(params, bounds, expected + 1).sat);
  }
}

std::vector<Scenario> allScenarios() {
  std::vector<Scenario> out;
  // Every q0 pattern in {0,1}^3 with a couple of q1 burst shapes, for the
  // buggy FQ (the interesting dynamics) and round-robin.
  for (int mask = 0; mask < 8; ++mask) {
    const std::vector<int> q0 = {(mask >> 0) & 1, (mask >> 1) & 1,
                                 (mask >> 2) & 1};
    out.push_back({models::kFairQueueBuggy, "fq", q0, {2, 0, 0}});
  }
  out.push_back({models::kRoundRobin, "rr", {1, 1, 1}, {2, 0, 1}});
  out.push_back({models::kRoundRobin, "rr", {0, 2, 0}, {1, 1, 1}});
  out.push_back({models::kStrictPriority, "sp", {1, 0, 1}, {1, 1, 1}});
  return out;
}

INSTANTIATE_TEST_SUITE_P(SmallSpace, ExhaustiveDifferential,
                         ::testing::ValuesIn(allScenarios()));

}  // namespace
}  // namespace buffy::core
