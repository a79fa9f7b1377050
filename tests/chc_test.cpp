// Tests of the CHC/Spacer backend: unbounded-horizon safety proofs.
#include "backends/chc/chc_backend.hpp"

#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "support/error.hpp"

namespace buffy::backends {
namespace {

using buffy::testing::schedulerNet;

core::Network rrNet() {
  return schedulerNet(models::kRoundRobin, "rr", 2, /*capacity=*/4,
                      /*maxArrivals=*/2);
}

TEST(Chc, ProvesSimpleInvariants) {
  UnboundedAnalysis analysis(rrNet());
  EXPECT_TRUE(analysis.prove("rr.cdeq.0[0] >= 0").proved());
  EXPECT_TRUE(analysis
                  .prove("rr.ibs.0.pkts[0] >= 0 & rr.ibs.0.pkts[0] <= 4")
                  .proved());
  EXPECT_TRUE(analysis.prove("rr.next[0] >= 0 & rr.next[0] < 2").proved());
}

TEST(Chc, ProvesConservationUnbounded) {
  // The property whose *bounded* proof cost explodes exponentially in T
  // (Figure 6); Spacer proves it for ALL T at once.
  UnboundedAnalysis analysis(rrNet());
  const auto result = analysis.prove(
      "rr.ibs.0.arrivedTotal[0] + rr.ibs.1.arrivedTotal[0] == "
      "rr.ob.outTotal[0] + rr.ibs.0.pkts[0] + rr.ibs.1.pkts[0] + "
      "rr.ibs.0.dropped[0] + rr.ibs.1.dropped[0] + rr.ob.pkts[0] + "
      "rr.ob.dropped[0]");
  EXPECT_TRUE(result.proved()) << result.detail;
}

TEST(Chc, RefutesFalseProperty) {
  UnboundedAnalysis analysis(rrNet());
  // cdeq grows without bound, so any constant cap is eventually violated.
  const auto result = analysis.prove("rr.cdeq.0[0] < 3");
  EXPECT_EQ(result.status, ChcStatus::Violated);
}

TEST(Chc, WorkGuaranteeUnderWorkload) {
  // With queue 0 receiving exactly one packet per step (as a per-step
  // workload rule), service keeps up: its backlog never exceeds 1.
  core::TransitionOptions opts;
  opts.stepWorkload.add(core::Workload::perStepCount("sp.ibs.0", 1, 1));
  UnboundedAnalysis analysis(
      schedulerNet(models::kStrictPriority, "sp", 2, 4, 2), opts);
  EXPECT_TRUE(analysis.prove("sp.ibs.0.pkts[0] <= 1").proved());
  // ...but queue 1's backlog is NOT bounded by any constant.
  EXPECT_EQ(analysis.prove("sp.ibs.1.pkts[0] <= 3").status,
            ChcStatus::Violated);
}

TEST(Chc, InProgramAssertsChecked) {
  core::ProgramSpec spec;
  spec.instance = "p";
  spec.source = R"(
p(buffer a, buffer b) {
  global monitor int steps;
  steps = steps + 1;
  assert(steps >= 1);
})";
  spec.buffers = {
      {.param = "a", .role = core::BufferSpec::Role::Input, .capacity = 2},
      {.param = "b", .role = core::BufferSpec::Role::Output, .capacity = 2},
  };
  core::Network net;
  net.add(spec);
  {
    UnboundedAnalysis ok(net);
    EXPECT_TRUE(ok.prove(core::Query::always()).proved());
  }
  core::ProgramSpec bad = spec;
  bad.source = R"(
p(buffer a, buffer b) {
  global monitor int steps;
  steps = steps + 1;
  assert(steps <= 3);
})";
  core::Network badNet;
  badNet.add(bad);
  {
    UnboundedAnalysis failing(badNet);
    // Violated at step 4 — unreachable for any bounded check with T <= 3,
    // but the CHC backend has no horizon.
    EXPECT_EQ(failing.prove(core::Query::always()).status,
              ChcStatus::Violated);
  }
}

TEST(Chc, FqListInvariants) {
  // The FQ pointer lists stay within capacity forever.
  UnboundedAnalysis analysis(
      schedulerNet(models::kFairQueueBuggy, "fq", 2, 4, 2));
  EXPECT_TRUE(
      analysis.prove("fq.nq.len[0] >= 0 & fq.nq.len[0] <= 2").proved());
  EXPECT_TRUE(
      analysis.prove("fq.oq.len[0] >= 0 & fq.oq.len[0] <= 2").proved());
}

TEST(Chc, CompositionSupported) {
  // Two forwarders in a chain: total egress never exceeds total ingress,
  // over an unbounded horizon, across the composition.
  const char* fwd = R"(
fwd(buffer src, buffer snk) {
  move-p(src, snk, backlog-p(src));
})";
  auto spec = [&](const char* inst) {
    core::ProgramSpec s;
    s.instance = inst;
    s.source = fwd;
    s.buffers = {
        {.param = "src", .role = core::BufferSpec::Role::Input,
         .capacity = 4, .maxArrivalsPerStep = 2},
        {.param = "snk", .role = core::BufferSpec::Role::Output,
         .capacity = 4},
    };
    return s;
  };
  core::Network net;
  net.add(spec("a")).add(spec("b"));
  net.connect("a", "snk", "b", "src");
  UnboundedAnalysis analysis(net);
  EXPECT_TRUE(
      analysis.prove("b.snk.outTotal[0] <= a.src.arrivedTotal[0]").proved());
}

TEST(Chc, NonBooleanPropertyRejected) {
  UnboundedAnalysis analysis(rrNet());
  EXPECT_THROW(analysis.prove("rr.cdeq.0[0] + 1"), Error);
}

TEST(Chc, StateNamesExposed) {
  UnboundedAnalysis analysis(rrNet());
  const auto names = analysis.stateNames();
  EXPECT_EQ(names.size(), 12u);
}

TEST(Chc, InterruptStopsARunningProof) {
  // Spacer takes 17-18 s to refute this on the list-model fq_buggy (Z3
  // 4.8.12, 4-core host), about 60 times the interrupt's delay. An
  // interrupt from another thread must end the proof early with
  // Unknown/"interrupted" — Spacer raises "canceled" — and never throw.
  core::TransitionOptions opts;
  opts.model = buffers::ModelKind::List;
  UnboundedAnalysis analysis(schedulerNet(models::kFairQueueBuggy, "fq", 2),
                             opts);
  std::thread interrupter([&analysis] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    analysis.interrupt();
  });
  ChcResult result;
  EXPECT_NO_THROW(
      result = analysis.prove("fq.cdeq.0[0] <= fq.cdeq.1[0] + 22", 60000));
  interrupter.join();
  EXPECT_EQ(result.status, ChcStatus::Unknown);
  EXPECT_EQ(result.detail, "interrupted");
  EXPECT_LT(result.seconds, 5.0);
}

TEST(Chc, InterruptDuringSetUpIsNotLost) {
  // Z3 drops an interrupt that lands before the Spacer query starts, so
  // one that lands while the rules are built must still stop the proof.
  // Spacer needs about 2 s for this refutation, so a lost interrupt shows
  // up as a verdict. Set-up takes about 1 ms in an optimized build and
  // 8 ms or more under ASan. The delays stop at 2 ms: an interrupt that
  // lands in the first milliseconds of the query makes Z3 4.8.12 leak
  // memory, which LeakSanitizer reports (a later one does not).
  for (const int delayUs : {0, 100, 250, 500, 750, 1000, 1500, 2000}) {
    SCOPED_TRACE("interrupt after " + std::to_string(delayUs) + " us");
    core::TransitionOptions opts;
    opts.model = buffers::ModelKind::List;
    UnboundedAnalysis analysis(
        schedulerNet(models::kFairQueueBuggy, "fq", 2), opts);
    std::thread interrupter([&analysis, delayUs] {
      std::this_thread::sleep_for(std::chrono::microseconds(delayUs));
      analysis.interrupt();
    });
    ChcResult result;
    EXPECT_NO_THROW(
        result = analysis.prove("fq.cdeq.0[0] <= fq.cdeq.1[0] + 10", 20000));
    interrupter.join();
    EXPECT_EQ(result.status, ChcStatus::Unknown);
    EXPECT_EQ(result.detail, "interrupted");
  }
}

TEST(Chc, StatusNames) {
  EXPECT_STREQ(chcStatusName(ChcStatus::Proved), "PROVED");
  EXPECT_STREQ(chcStatusName(ChcStatus::Violated), "VIOLATED");
  EXPECT_STREQ(chcStatusName(ChcStatus::Unknown), "UNKNOWN");
}

}  // namespace
}  // namespace buffy::backends
