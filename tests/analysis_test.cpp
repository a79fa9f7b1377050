// Integration tests: the full parse -> transform -> encode -> solve
// pipeline on the paper's models.
#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include "cache/verdict_cache.hpp"
#include "helpers.hpp"
#include "ir/term_eval.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/encoder.hpp"
#include "support/error.hpp"

namespace buffy::core {
namespace {

using buffy::testing::schedulerNet;
using buffy::testing::starvationWorkload;

AnalysisOptions fastOpts(int horizon,
                         buffers::ModelKind model = buffers::ModelKind::List) {
  AnalysisOptions opts;
  opts.horizon = horizon;
  opts.model = model;
  return opts;
}

// ---------------------------------------------------------------------------
// §6.1: the FQ scheduler case study
// ---------------------------------------------------------------------------

TEST(FqCaseStudy, BuggySchedulerStarves) {
  Analysis analysis(schedulerNet(models::kFairQueueBuggy, "fq", 2),
                    fastOpts(5));
  analysis.setWorkload(starvationWorkload("fq", 5));
  const auto result = analysis.check(Query::expr(
      "fq.cdeq.0[T-1] >= T-1 & fq.cdeq.1[T-1] <= 1 & "
      "fq.ibs.1.backlog[T-1] > 0"));
  ASSERT_EQ(result.verdict, Verdict::Satisfiable);
  ASSERT_TRUE(result.trace.has_value());
  EXPECT_GE(result.trace->at("fq.cdeq.0", 4), 4);
}

TEST(FqCaseStudy, FixedSchedulerDoesNotStarve) {
  Analysis analysis(schedulerNet(models::kFairQueueFixed, "fq", 2),
                    fastOpts(5));
  analysis.setWorkload(starvationWorkload("fq", 5));
  const auto result = analysis.check(Query::expr(
      "fq.cdeq.0[T-1] >= T-1 & fq.cdeq.1[T-1] <= 1 & "
      "fq.ibs.1.backlog[T-1] > 0"));
  EXPECT_EQ(result.verdict, Verdict::Unsatisfiable);
}

TEST(FqCaseStudy, FixedSchedulerFairnessVerifies) {
  // Under the starvation workload, the fixed scheduler guarantees queue 1
  // at least 2 services over 5 steps.
  Analysis analysis(schedulerNet(models::kFairQueueFixed, "fq", 2),
                    fastOpts(5));
  analysis.setWorkload(starvationWorkload("fq", 5));
  const auto result = analysis.verify(Query::expr("fq.cdeq.1[T-1] >= 2"));
  EXPECT_EQ(result.verdict, Verdict::Verified);
}

TEST(FqCaseStudy, ViolatedVerifyProducesCounterexample) {
  Analysis analysis(schedulerNet(models::kFairQueueBuggy, "fq", 2),
                    fastOpts(5));
  analysis.setWorkload(starvationWorkload("fq", 5));
  const auto result = analysis.verify(Query::expr("fq.cdeq.1[T-1] >= 2"));
  ASSERT_EQ(result.verdict, Verdict::Violated);
  ASSERT_TRUE(result.trace.has_value());
  EXPECT_LT(result.trace->at("fq.cdeq.1", 4), 2);
}

// ---------------------------------------------------------------------------
// Scheduler guarantees
// ---------------------------------------------------------------------------

TEST(RoundRobin, WorkConservingAndFair) {
  Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2), fastOpts(6));
  Workload both;
  both.add(Workload::perStepCount("rr.ibs.0", 1, 2))
      .add(Workload::perStepCount("rr.ibs.1", 1, 2));
  analysis.setWorkload(both);
  // With both queues always backlogged, neither queue can take more than
  // half the service (rounded up).
  EXPECT_EQ(analysis.verify(Query::expr("rr.cdeq.0[T-1] <= T/2 + 1")).verdict,
            Verdict::Verified);
  EXPECT_EQ(analysis.verify(Query::expr("rr.cdeq.1[T-1] <= T/2 + 1")).verdict,
            Verdict::Verified);
  // And the link is fully used: one dequeue every step.
  EXPECT_EQ(analysis
                .verify(Query::expr(
                    "rr.cdeq.0[T-1] + rr.cdeq.1[T-1] == T"))
                .verdict,
            Verdict::Verified);
}

TEST(StrictPriority, HighPriorityMonopolizes) {
  Analysis analysis(schedulerNet(models::kStrictPriority, "sp", 2),
                    fastOpts(5));
  Workload both;
  both.add(Workload::perStepCount("sp.ibs.0", 1, 1))
      .add(Workload::perStepCount("sp.ibs.1", 1, 1));
  analysis.setWorkload(both);
  // Starvation of queue 1 is guaranteed (not just possible).
  EXPECT_EQ(analysis.verify(Query::expr("sp.cdeq.1[T-1] == 0")).verdict,
            Verdict::Verified);
  EXPECT_EQ(analysis.verify(Query::expr("sp.cdeq.0[T-1] == T")).verdict,
            Verdict::Verified);
}

TEST(StrictPriority, LowPriorityServedWhenHighIdle) {
  Analysis analysis(schedulerNet(models::kStrictPriority, "sp", 2),
                    fastOpts(4));
  Workload w;
  w.add(Workload::perStepCount("sp.ibs.0", 0, 0))
      .add(Workload::perStepCount("sp.ibs.1", 1, 1));
  analysis.setWorkload(w);
  EXPECT_EQ(analysis.verify(Query::expr("sp.cdeq.1[T-1] == T")).verdict,
            Verdict::Verified);
}

// ---------------------------------------------------------------------------
// Packet conservation (a global invariant of the buffer semantics)
// ---------------------------------------------------------------------------

TEST(Conservation, ArrivalsEqualServicePlusBacklogPlusDrops) {
  // Kept at T=3: the monolithic-unrolling proof cost grows exponentially
  // in T (the Figure 6 effect; see bench/fig6_verification_time).
  Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2,
                                 /*capacity=*/3),
                    fastOpts(3));
  const Query conservation = Query::custom(
      "conservation", [](const SeriesView& view, ir::TermArena& arena) {
        ir::TermRef arrived = arena.intConst(0);
        ir::TermRef out = arena.intConst(0);
        for (int t = 0; t < view.horizon(); ++t) {
          for (const char* buf : {"rr.ibs.0", "rr.ibs.1"}) {
            arrived = arena.add(
                arrived, view.find(std::string(buf) + ".arrived")
                             ->at(static_cast<std::size_t>(t)));
          }
          out = arena.add(out, view.find("rr.ob.out")->at(
                                   static_cast<std::size_t>(t)));
        }
        const int last = view.horizon() - 1;
        ir::TermRef backlog = arena.intConst(0);
        ir::TermRef dropped = arena.intConst(0);
        for (const char* buf : {"rr.ibs.0", "rr.ibs.1"}) {
          backlog = arena.add(backlog,
                              view.find(std::string(buf) + ".backlog")
                                  ->at(static_cast<std::size_t>(last)));
          dropped = arena.add(dropped,
                              view.find(std::string(buf) + ".dropped")
                                  ->at(static_cast<std::size_t>(last)));
        }
        return arena.eq(arrived,
                        arena.add(out, arena.add(backlog, dropped)));
      });
  EXPECT_EQ(analysis.verify(conservation).verdict, Verdict::Verified);
}

// ---------------------------------------------------------------------------
// Buffer model precision (paper §3)
// ---------------------------------------------------------------------------

TEST(Precision, CounterModelAgreesOnCountQueries) {
  // The FQ starvation query only involves counts, so the counter model
  // must reach the same verdicts as the list model.
  for (const auto model :
       {buffers::ModelKind::List, buffers::ModelKind::Counter}) {
    Analysis analysis(schedulerNet(models::kFairQueueBuggy, "fq", 2),
                      fastOpts(5, model));
    analysis.setWorkload(starvationWorkload("fq", 5));
    const auto result = analysis.check(
        Query::expr("fq.cdeq.0[T-1] >= T-1 & fq.cdeq.1[T-1] <= 1"));
    EXPECT_EQ(result.verdict, Verdict::Satisfiable)
        << (model == buffers::ModelKind::List ? "list" : "counter");
  }
}

TEST(Precision, ListModelSupportsContentFilters) {
  // A classifier program: packets with val==1 go to the second output.
  const char* source = R"(
cls(buffer inb, buffer hi, buffer lo) {
  global monitor int mhi;
  mhi = mhi + backlog-p(inb |> val == 1);
  move-p(inb, lo, backlog-p(inb));
})";
  ProgramSpec spec;
  spec.instance = "cls";
  spec.source = source;
  spec.buffers = {
      {.param = "inb", .role = BufferSpec::Role::Input, .capacity = 4,
       .schema = {{"val"}}, .maxArrivalsPerStep = 2},
      {.param = "hi", .role = BufferSpec::Role::Output, .capacity = 8},
      {.param = "lo", .role = BufferSpec::Role::Output, .capacity = 8},
  };
  Network net;
  net.add(spec);
  Analysis analysis(net, fastOpts(3));
  Workload w;
  w.add(Workload::fieldRange("cls.inb", "val", 0, 1));
  analysis.setWorkload(w);
  const auto result =
      analysis.check(Query::expr("cls.mhi[T-1] >= 2"));
  EXPECT_EQ(result.verdict, Verdict::Satisfiable);
}

// ---------------------------------------------------------------------------
// SMT-LIB path equivalence
// ---------------------------------------------------------------------------

TEST(Backends, SmtLibPathAgreesWithNative) {
  Analysis analysis(schedulerNet(models::kFairQueueBuggy, "fq", 2),
                    fastOpts(4));
  analysis.setWorkload(starvationWorkload("fq", 4));
  const Query query = Query::expr("fq.cdeq.0[T-1] >= T-1");
  const auto native = analysis.check(query);
  const auto viaText = analysis.checkViaSmtLib(query);
  EXPECT_EQ(native.verdict, viaText.verdict);
  const std::string text = analysis.toSmtLib(query, false);
  EXPECT_NE(text.find("(check-sat)"), std::string::npos);
  EXPECT_NE(text.find("declare-const"), std::string::npos);
}

// ---------------------------------------------------------------------------
// API surface
// ---------------------------------------------------------------------------

TEST(AnalysisApi, InputAndMonitorNames) {
  Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 3), fastOpts(2));
  const auto inputs = analysis.inputBufferNames();
  ASSERT_EQ(inputs.size(), 3u);
  EXPECT_EQ(inputs[2], "rr.ibs.2");
  const auto monitors = analysis.monitorNames();
  ASSERT_EQ(monitors.size(), 1u);
  EXPECT_EQ(monitors[0], "rr.cdeq");
}

TEST(AnalysisApi, WorkloadLockedAfterEncoding) {
  Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2), fastOpts(2));
  analysis.check(Query::always());
  EXPECT_THROW(analysis.setWorkload(Workload{}), AnalysisError);
}

TEST(AnalysisApi, EncodingStatsAvailable) {
  Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2), fastOpts(3));
  const Encoding& enc = analysis.encoding();
  EXPECT_EQ(enc.horizon, 3);
  EXPECT_FALSE(enc.series.empty());
  EXPECT_FALSE(enc.assumptions.empty());
  EXPECT_GT(enc.arena.size(), 100u);
}

TEST(AnalysisApi, BadHorizonRejected) {
  EXPECT_THROW(
      Analysis(schedulerNet(models::kRoundRobin, "rr", 2), fastOpts(0)),
      AnalysisError);
}

TEST(AnalysisApi, InProgramAssertsCheckedByVerify) {
  ProgramSpec spec;
  spec.instance = "p";
  spec.source = R"(
p(buffer a, buffer b) {
  global monitor int steps;
  steps = steps + 1;
  assert(steps <= 2);
})";
  spec.buffers = {
      {.param = "a", .role = BufferSpec::Role::Input, .capacity = 2},
      {.param = "b", .role = BufferSpec::Role::Output, .capacity = 2},
  };
  Network net;
  net.add(spec);
  {
    Analysis ok(net, fastOpts(2));
    EXPECT_EQ(ok.verify(Query::always()).verdict, Verdict::Verified);
  }
  {
    Analysis bad(net, fastOpts(4));
    EXPECT_EQ(bad.verify(Query::always()).verdict, Verdict::Violated);
  }
}

TEST(AnalysisApi, SymbolicInitialState) {
  // With empty initial queues and zero arrivals, nothing can leave; with a
  // havoced initial state, service from pre-existing backlog is possible.
  Workload silent;
  silent.add(Workload::perStepCount("rr.ibs.0", 0, 0));
  silent.add(Workload::perStepCount("rr.ibs.1", 0, 0));
  const Query served = Query::expr("rr.ob.out[0] == 1");
  {
    Analysis empty(schedulerNet(models::kRoundRobin, "rr", 2), fastOpts(2));
    empty.setWorkload(silent);
    EXPECT_EQ(empty.check(served).verdict, Verdict::Unsatisfiable);
  }
  for (const auto model :
       {buffers::ModelKind::List, buffers::ModelKind::Counter}) {
    AnalysisOptions opts = fastOpts(2, model);
    opts.symbolicInitialState = true;
    Analysis havoced(schedulerNet(models::kRoundRobin, "rr", 2), opts);
    havoced.setWorkload(silent);
    EXPECT_EQ(havoced.check(served).verdict, Verdict::Satisfiable);
    // But backlog can never exceed capacity, even initially.
    Analysis bounded(schedulerNet(models::kRoundRobin, "rr", 2), opts);
    bounded.setWorkload(silent);
    EXPECT_EQ(bounded.verify(Query::expr("rr.ibs.0.backlog[0] <= 6")).verdict,
              Verdict::Verified);
  }
}

TEST(AnalysisApi, SymbolicInitialStateSimulationRejected) {
  AnalysisOptions opts = fastOpts(2);
  opts.symbolicInitialState = true;
  Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2), opts);
  EXPECT_THROW(analysis.simulate({}), AnalysisError);
}

// ---------------------------------------------------------------------------
// Engine layout: the structural constraints are laid out once per engine
// ---------------------------------------------------------------------------

/// A Figure 6-style batch of nine ∀ properties of the RFC-fixed FQ under
/// the §6.1 workload (perfbench's `sweep`).
std::vector<Query> sweepProperties() {
  std::vector<Query> out;
  for (const char* text : {
           "fq.cdeq.1[T-1] >= min(3, (T-1)/3)",
           "fq.cdeq.0[T-1] >= 0",
           "fq.cdeq.1[T-1] >= 0",
           "fq.cdeq.0[T-1] <= T",
           "fq.cdeq.1[T-1] <= T",
           "fq.cdeq.0[T-1] + fq.cdeq.1[T-1] <= 2 * T",
           "sum(fq.cdeq.0, 0, T) >= 0",
           "fq.ibs.0.backlog[T-1] >= 0",
           "fq.ibs.1.dropped[T-1] >= 0",
       }) {
    out.push_back(Query::expr(text));
  }
  return out;
}

std::unique_ptr<Analysis> fixedFqEngine(const AnalysisOptions& opts) {
  auto engine = std::make_unique<Analysis>(
      schedulerNet(models::kFairQueueFixed, "fq", 2), opts);
  engine->setWorkload(starvationWorkload("fq", opts.horizon));
  return engine;
}

TEST(EngineLayout, LaterQueriesLayOutOnlyTheirDelta) {
  const auto engine = fixedFqEngine(fastOpts(4));
  std::uint64_t first = 0;
  for (const Query& q : sweepProperties()) {
    SCOPED_TRACE(q.description());
    const AnalysisResult r = engine->verify(q);
    ASSERT_EQ(r.attempts.size(), 1u);
    const SolveAttempt& attempt = r.attempts.front();
    EXPECT_EQ(attempt.solver, "enumerate");
    if (first == 0) {
      first = attempt.setupNodes;
      ASSERT_GT(first, 0u);
    } else {
      EXPECT_LE(attempt.setupNodes * 100, first * 15) << attempt.setupNodes;
    }
    // A fresh engine answers the same, with the same search.
    const AnalysisResult expected = fixedFqEngine(fastOpts(4))->verify(q);
    EXPECT_EQ(r.verdict, expected.verdict);
    EXPECT_EQ(r.verdict, Verdict::Verified);
    ASSERT_EQ(expected.attempts.size(), 1u);
    const SolveAttempt& e = expected.attempts.front();
    EXPECT_EQ(attempt.visited, e.visited);
    EXPECT_EQ(attempt.memoHits, e.memoHits);
    EXPECT_EQ(attempt.deadEntries, e.deadEntries);
    EXPECT_EQ(attempt.liveWidth, e.liveWidth);
    EXPECT_GE(e.setupNodes, first * 85 / 100);
  }
}

TEST(EngineLayout, CacheHitBuildsNoLayout) {
  AnalysisOptions opts = fastOpts(4);
  opts.cache = std::make_shared<cache::VerdictCache>();
  const Query hit = Query::expr("fq.cdeq.0[T-1] <= T");
  const Query miss = Query::expr("fq.cdeq.1[T-1] <= T");
  ASSERT_EQ(fixedFqEngine(opts)->verify(hit).verdict, Verdict::Verified);
  const auto engine = fixedFqEngine(opts);
  const AnalysisResult cached = engine->verify(hit);
  ASSERT_TRUE(cached.cached);
  EXPECT_TRUE(cached.attempts.empty());
  // The first query that misses lays out the whole problem, as a fresh
  // engine's first query does...
  const AnalysisResult solved = engine->verify(miss);
  ASSERT_FALSE(solved.cached);
  ASSERT_EQ(solved.attempts.size(), 1u);
  const AnalysisResult expected = fixedFqEngine(fastOpts(4))->verify(miss);
  ASSERT_EQ(expected.attempts.size(), 1u);
  EXPECT_EQ(solved.attempts.front().setupNodes,
            expected.attempts.front().setupNodes);
  // ...and the next only its own delta.
  const AnalysisResult next =
      engine->verify(Query::expr("fq.ibs.0.backlog[T-1] >= 0"));
  ASSERT_EQ(next.attempts.size(), 1u);
  EXPECT_LT(next.attempts.front().setupNodes * 5,
            solved.attempts.front().setupNodes);
}

// Property sweep: RR fairness bound holds across queue counts and horizons.
class RrFairness : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RrFairness, BoundHolds) {
  const auto [n, horizon] = GetParam();
  Analysis analysis(schedulerNet(models::kRoundRobin, "rr", n),
                    fastOpts(horizon));
  Workload all;
  for (int q = 0; q < n; ++q) {
    all.add(Workload::perStepCount("rr.ibs." + std::to_string(q), 1, 2));
  }
  analysis.setWorkload(all);
  // Everyone backlogged: queue 0 gets at most ceil(T/N) services.
  const std::string bound =
      "rr.cdeq.0[T-1] <= " + std::to_string((horizon + n - 1) / n);
  EXPECT_EQ(analysis.verify(Query::expr(bound)).verdict, Verdict::Verified)
      << "N=" << n << " T=" << horizon;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RrFairness,
                         ::testing::Values(std::pair{2, 4}, std::pair{2, 6},
                                           std::pair{3, 4}, std::pair{3, 6}));

// ---------------------------------------------------------------------------
// Witness traces: every series evaluated under one memo
// ---------------------------------------------------------------------------

BufferSpec buffer(const char* param, BufferSpec::Role role, int capacity,
                  int maxArrivals = 0) {
  BufferSpec spec;
  spec.param = param;
  spec.role = role;
  spec.capacity = capacity;
  if (maxArrivals > 0) spec.maxArrivalsPerStep = maxArrivals;
  return spec;
}

/// §6.2: AIMD sender -> token-bucket path server -> delay server, with the
/// delayed acks fed back to the sender.
Network ccacNet() {
  using Role = BufferSpec::Role;
  ProgramSpec cca;
  cca.source = models::kAimdCca;
  cca.compile.constants["RTO"] = 3;
  cca.buffers = {buffer("ind", Role::Input, 16, 4),
                 buffer("inack", Role::Input, 16),
                 buffer("out", Role::Output, 16),
                 buffer("ackdrain", Role::Output, 16)};
  ProgramSpec path;
  path.source = models::kPathServer;
  path.compile.constants["RATE"] = 2;
  path.compile.constants["BUCKET"] = 4;
  path.buffers = {buffer("pin", Role::Input, 3),
                  buffer("pout", Role::Output, 16)};
  ProgramSpec delay;
  delay.source = models::kDelayServer;
  delay.buffers = {buffer("din", Role::Input, 16),
                   buffer("dout", Role::Output, 16)};
  Network net;
  net.add(cca).add(path).add(delay);
  net.connect("aimd", "out", "path", "pin");
  net.connect("path", "pout", "delay", "din");
  net.connect("delay", "dout", "aimd", "inack");
  return net;
}

/// Solves `query` over the whole encoding with Z3 and checks that one
/// evalTerms pass over every series gives each step exactly what
/// per-term evaluation gives.
void expectOnePassTraceMatches(Network net, int horizon,
                               const Workload& workload,
                               const std::string& query) {
  AnalysisOptions options;
  options.horizon = horizon;
  const pipeline::CompilerDriver driver(pipelineOptionsFor(options));
  const auto unit = driver.compile(std::move(net));
  const auto enc = pipeline::buildEncoding(*unit, workload, nullptr);
  std::vector<ir::TermRef> problem = enc->assumptions;
  problem.insert(problem.end(), enc->soundness.begin(), enc->soundness.end());
  problem.insert(problem.end(), enc->workloadTerms.begin(),
                 enc->workloadTerms.end());
  problem.push_back(Query::expr(query).build(enc->seriesView(), enc->arena));
  backends::Z3Backend z3;
  const auto witness = z3.check(problem);
  ASSERT_EQ(witness.status, backends::SolveStatus::Sat);

  std::vector<ir::TermRef> terms;
  for (const auto& [name, series] : enc->series) {
    terms.insert(terms.end(), series.begin(), series.end());
  }
  ASSERT_GT(terms.size(), 10u * static_cast<std::size_t>(horizon));
  const std::vector<std::int64_t> values =
      ir::evalTerms(terms, witness.model);
  ASSERT_EQ(values.size(), terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(values[i], ir::evalTerm(terms[i], witness.model)) << i;
  }
}

TEST(WitnessTrace, OnePassEqualsPerTermEvaluationOnFq) {
  expectOnePassTraceMatches(
      schedulerNet(models::kFairQueueBuggy, "fq", 2), 6,
      starvationWorkload("fq", 6),
      "fq.cdeq.0[T-1] >= T-1 & fq.cdeq.1[T-1] <= 1");
}

TEST(WitnessTrace, OnePassEqualsPerTermEvaluationOnCcac) {
  Workload always;
  always.add(Workload::perStepCount("aimd.ind", 4, 4));
  expectOnePassTraceMatches(ccacNet(), 7, always,
                            "path.pin.dropped[T-1] > 0");
}

}  // namespace
}  // namespace buffy::core
