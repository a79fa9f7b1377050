// Exhaustive enumeration (DESIGN.md §7): which problems qualify, what the
// search answers, how an enumerated attempt keeps the solver protocol
// (fault slots, cancellation, timeouts), and a differential check of the
// enumerator against Z3 on every example model.
#include "enumerate/enumerator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <fstream>
#include <sstream>
#include <thread>

#include "backends/z3/z3_backend.hpp"
#include "core/analysis.hpp"
#include "ir/term_eval.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/encoder.hpp"
#include "support/error.hpp"

#ifndef BUFFY_MODELS_DIR
#error "BUFFY_MODELS_DIR must be defined by the build"
#endif

namespace buffy::enumerate {
namespace {

using backends::FaultAction;
using backends::SolveStatus;
using ir::Sort;
using ir::TermRef;

const std::function<bool()> kNeverStop = [] { return false; };

class EnumerateTest : public ::testing::Test {
 protected:
  /// `v` in [lo, hi] as two unit-bound conjuncts.
  void bound(std::vector<TermRef>& cs, TermRef v, std::int64_t lo,
             std::int64_t hi) {
    cs.push_back(arena.ge(v, arena.intConst(lo)));
    cs.push_back(arena.le(v, arena.intConst(hi)));
  }

  ir::TermArena arena;
};

TEST_F(EnumerateTest, FindsTheFirstSatisfyingAssignment) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  std::vector<TermRef> cs;
  bound(cs, x, 0, 9);
  bound(cs, y, 0, 9);
  cs.push_back(arena.eq(arena.add(x, y), arena.intConst(12)));
  cs.push_back(arena.lt(y, x));
  Enumerator problem(cs);
  ASSERT_TRUE(problem.qualifies());
  const Outcome out = problem.run(kNeverStop);
  ASSERT_EQ(out.status, Status::Sat);
  // Variables in creation order, values ascending: x = 7 is the first x
  // with a y < x summing to 12.
  EXPECT_EQ(out.model.at("x"), 7);
  EXPECT_EQ(out.model.at("y"), 5);
  for (const TermRef c : cs) EXPECT_EQ(ir::evalTerm(c, out.model), 1);
}

TEST_F(EnumerateTest, ExhaustedDomainIsUnsat) {
  const TermRef x = arena.var("x", Sort::Int);
  std::vector<TermRef> cs;
  bound(cs, x, 0, 9);
  cs.push_back(arena.eq(arena.mul(x, arena.intConst(2)), arena.intConst(7)));
  Enumerator problem(cs);
  ASSERT_TRUE(problem.qualifies());
  EXPECT_EQ(problem.run(kNeverStop).status, Status::Unsat);
}

TEST_F(EnumerateTest, NestedTopLevelAndsAreFlattened) {
  // The bounds sit inside one conjunction; they still count as top-level.
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef both = arena.mkAnd(arena.ge(x, arena.intConst(3)),
                                   arena.le(x, arena.intConst(4)));
  const std::vector<TermRef> cs = {
      both, arena.lt(arena.intConst(3), x)};
  Enumerator problem(cs);
  ASSERT_TRUE(problem.qualifies());
  const Outcome out = problem.run(kNeverStop);
  ASSERT_EQ(out.status, Status::Sat);
  EXPECT_EQ(out.model.at("x"), 4);
}

TEST_F(EnumerateTest, UnboundedVariableDeclines) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  std::vector<TermRef> cs;
  bound(cs, x, 0, 3);
  cs.push_back(arena.ge(y, arena.intConst(0)));  // no upper bound
  cs.push_back(arena.lt(x, y));
  Enumerator problem(cs);
  EXPECT_FALSE(problem.qualifies());
  const Outcome out = problem.run(kNeverStop);
  EXPECT_EQ(out.status, Status::Declined);
  EXPECT_EQ(out.reason, "unbounded variable y");
}

TEST_F(EnumerateTest, BoundInsideADisjunctionDoesNotCount) {
  const TermRef x = arena.var("x", Sort::Int);
  const std::vector<TermRef> cs = {
      arena.ge(x, arena.intConst(0)),
      arena.mkOr(arena.le(x, arena.intConst(3)),
                 arena.le(x, arena.intConst(5)))};
  EXPECT_FALSE(Enumerator(cs).qualifies());
}

TEST_F(EnumerateTest, WorkAboveTheBoundDeclines) {
  std::vector<TermRef> cs;
  TermRef sum = arena.intConst(0);
  for (int i = 0; i < 3; ++i) {
    const TermRef v = arena.var("v" + std::to_string(i), Sort::Int);
    bound(cs, v, 0, 1023);  // 2^30 assignments
    sum = arena.add(sum, v);
  }
  cs.push_back(arena.eq(sum, arena.intConst(-1)));
  Enumerator problem(cs);
  EXPECT_FALSE(problem.qualifies());
  EXPECT_EQ(problem.run(kNeverStop).reason, "work above 2^24");
}

TEST_F(EnumerateTest, WorkCountsNodesAsWellAsAssignments) {
  // 2^20 assignments qualify over a small DAG...
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  std::vector<TermRef> cs;
  bound(cs, x, 0, 1023);
  bound(cs, y, 0, 1023);
  cs.push_back(arena.le(arena.add(x, y), arena.intConst(5000)));
  EXPECT_TRUE(Enumerator(cs).qualifies());
  // ...but not over one of more than 16 nodes.
  TermRef chain = arena.add(x, y);
  for (int i = 1; i <= 16; ++i) chain = arena.add(chain, arena.intConst(i));
  cs.back() = arena.le(chain, arena.intConst(5000));
  EXPECT_FALSE(Enumerator(cs).qualifies());
}

TEST_F(EnumerateTest, EmptyRangeIsUnsat) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  const std::vector<TermRef> cs = {
      arena.ge(x, arena.intConst(5)), arena.le(x, arena.intConst(3)),
      arena.lt(x, y)};  // y is unbounded: the empty range decides first
  Enumerator problem(cs);
  ASSERT_TRUE(problem.qualifies());
  EXPECT_EQ(problem.run(kNeverStop).status, Status::Unsat);
}

TEST_F(EnumerateTest, OverflowDeclines) {
  // x = 0 fails the constraint; x = 1 overflows before a model is found.
  const TermRef x = arena.var("x", Sort::Int);
  std::vector<TermRef> cs;
  bound(cs, x, 0, 1);
  cs.push_back(
      arena.lt(arena.add(x, arena.intConst(INT64_MAX)), arena.intConst(0)));
  Enumerator problem(cs);
  ASSERT_TRUE(problem.qualifies());
  const Outcome out = problem.run(kNeverStop);
  EXPECT_EQ(out.status, Status::Declined);
  EXPECT_EQ(out.reason, "int64 overflow");

  // The attempt then goes to Z3, which has unbounded integers.
  backends::Z3Backend backend;
  const auto result = backend.enumerateOrCheck(cs);
  EXPECT_FALSE(result.enumerated);
  EXPECT_EQ(result.status, SolveStatus::Unsat);

  // INT64_MIN div -1 is the one overflowing quotient.
  const TermRef d = arena.var("d", Sort::Int);
  std::vector<TermRef> div;
  bound(div, d, -1, -1);
  div.push_back(arena.lt(arena.div(arena.intConst(INT64_MIN), d),
                         arena.intConst(0)));
  EXPECT_EQ(Enumerator(div).run(kNeverStop).reason, "int64 overflow");
}

TEST_F(EnumerateTest, BoolVariablesRangeOverZeroAndOne) {
  const TermRef p = arena.var("p", Sort::Bool);
  const TermRef q = arena.var("q", Sort::Bool);
  const TermRef r = arena.var("r", Sort::Bool);
  const std::vector<TermRef> cs = {
      arena.mkOr(p, q), arena.mkNot(p), arena.implies(q, arena.mkNot(r)),
      arena.eq(arena.ite(r, arena.intConst(1), arena.intConst(2)),
               arena.intConst(2))};
  Enumerator problem(cs);
  ASSERT_TRUE(problem.qualifies());
  const Outcome out = problem.run(kNeverStop);
  ASSERT_EQ(out.status, Status::Sat);
  EXPECT_EQ(out.model.at("p"), 0);
  EXPECT_EQ(out.model.at("q"), 1);
  EXPECT_EQ(out.model.at("r"), 0);

  const std::vector<TermRef> none = {p, arena.mkNot(p)};
  EXPECT_EQ(Enumerator(none).run(kNeverStop).status, Status::Unsat);
}

TEST_F(EnumerateTest, ConstantProblems) {
  EXPECT_EQ(Enumerator(std::vector<TermRef>{arena.trueTerm()})
                .run(kNeverStop)
                .status,
            Status::Sat);
  EXPECT_EQ(Enumerator(std::vector<TermRef>{arena.falseTerm()})
                .run(kNeverStop)
                .status,
            Status::Unsat);
  EXPECT_EQ(Enumerator(std::vector<TermRef>{arena.intConst(1)})
                .run(kNeverStop)
                .reason,
            "constraint is not boolean");
}

// The DivisionSemanticsMatchIr and DivisionByZeroGuardedToZero cases of
// z3_backend_test, with the operands as pinned variables so the
// enumerator evaluates the division instead of the arena folding it.
TEST_F(EnumerateTest, DivisionAndModuloMatchZ3) {
  backends::Z3Backend z3;
  for (const std::int64_t a : {7, -7}) {
    for (const std::int64_t b : {2, -2, 0}) {
      for (const bool isMod : {false, true}) {
        ir::TermArena local;
        const TermRef va = local.var("a", Sort::Int);
        const TermRef vb = local.var("b", Sort::Int);
        const TermRef x = local.var("x", Sort::Int);
        const std::vector<TermRef> cs = {
            local.eq(va, local.intConst(a)), local.eq(vb, local.intConst(b)),
            local.ge(x, local.intConst(-10)), local.le(x, local.intConst(10)),
            local.eq(x, isMod ? local.mod(va, vb) : local.div(va, vb))};
        const auto enumerated = z3.enumerateOrCheck(cs);
        const auto checked = z3.check(cs);
        ASSERT_TRUE(enumerated.enumerated);
        ASSERT_EQ(enumerated.status, SolveStatus::Sat);
        ASSERT_EQ(checked.status, SolveStatus::Sat);
        EXPECT_EQ(enumerated.model.at("x"), checked.model.at("x"))
            << a << (isMod ? " mod " : " div ") << b;
        EXPECT_EQ(enumerated.model.at("x"),
                  isMod ? ir::euclideanMod(a, b) : ir::euclideanDiv(a, b));
      }
    }
  }
}

// ---- the solver protocol around an enumerated attempt -------------------

TEST_F(EnumerateTest, EnumeratedAttemptReportsItsEngine) {
  const TermRef x = arena.var("x", Sort::Int);
  std::vector<TermRef> cs;
  bound(cs, x, 0, 5);
  cs.push_back(arena.gt(x, arena.intConst(3)));
  backends::Z3Backend backend;
  const auto result = backend.enumerateOrCheck(cs);
  EXPECT_TRUE(result.enumerated);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.at("x"), 4);
  EXPECT_EQ(result.rlimitUsed, 0u);
  EXPECT_FALSE(backend.check(cs).enumerated);
}

/// Two variables over [0, 1023] and no solution: every one of the 2^20
/// assignments is tried, which takes milliseconds.
std::vector<TermRef> slowUnsat(ir::TermArena& arena) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  return {arena.ge(x, arena.intConst(0)), arena.le(x, arena.intConst(1023)),
          arena.ge(y, arena.intConst(0)), arena.le(y, arena.intConst(1023)),
          arena.eq(arena.add(x, y), arena.intConst(-1))};
}

TEST_F(EnumerateTest, TimeoutReturnsUnknown) {
  const std::vector<TermRef> cs = slowUnsat(arena);
  ASSERT_TRUE(Enumerator(cs).qualifies());
  backends::Z3Backend backend;
  const auto result = backend.enumerateOrCheck(cs, backends::SolveBudget(1u));
  EXPECT_TRUE(result.enumerated);
  EXPECT_EQ(result.status, SolveStatus::Unknown);
  EXPECT_EQ(result.reason, "timeout");
  EXPECT_FALSE(result.canceled);
  // A timeout of 0 means none, as for Z3.
  EXPECT_EQ(backend.enumerateOrCheck(cs, backends::SolveBudget(0u)).status,
            SolveStatus::Unsat);
}

TEST_F(EnumerateTest, InterruptReturnsCanceledUnknown) {
  const std::vector<TermRef> cs = slowUnsat(arena);
  {
    backends::Z3Backend backend;
    backend.interrupt();  // no Z3 context exists; nothing may touch one
    const auto result = backend.enumerateOrCheck(cs);
    EXPECT_EQ(result.status, SolveStatus::Unknown);
    EXPECT_TRUE(result.canceled);
    EXPECT_TRUE(result.enumerated);
  }
  {
    // Interrupted while the attempt sits in an injected delay: the search
    // stops at its first poll.
    auto plan = std::make_shared<backends::FaultPlan>();
    plan->at("", 0, FaultAction{FaultAction::Kind::Delay, "", 300});
    backends::Z3Backend backend;
    backend.setFaultPlan(plan);
    std::thread canceller([&backend] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      backend.interrupt();
    });
    const auto result = backend.enumerateOrCheck(cs);
    canceller.join();
    EXPECT_EQ(result.status, SolveStatus::Unknown);
    EXPECT_TRUE(result.canceled);
    EXPECT_TRUE(result.enumerated);
  }
}

TEST_F(EnumerateTest, EnumeratedAttemptConsumesItsFaultSlot) {
  const TermRef x = arena.var("x", Sort::Int);
  std::vector<TermRef> cs;
  bound(cs, x, 0, 5);
  auto plan = std::make_shared<backends::FaultPlan>();
  plan->forceUnknown("", 0, "flaky");
  plan->at("", 1,
           FaultAction{FaultAction::Kind::Throw, "solver-crash", 0});
  plan->at("", 2, FaultAction{FaultAction::Kind::CorruptWitness, "", 0});
  backends::Z3Backend backend;
  backend.setFaultPlan(plan);

  const auto forced = backend.enumerateOrCheck(cs);
  EXPECT_EQ(forced.status, SolveStatus::Unknown);
  EXPECT_EQ(forced.reason, "flaky");
  EXPECT_TRUE(forced.enumerated);
  EXPECT_THROW((void)backend.enumerateOrCheck(cs), BackendError);
  const auto corrupt = backend.enumerateOrCheck(cs);
  EXPECT_EQ(corrupt.status, SolveStatus::Sat);
  EXPECT_TRUE(corrupt.corruptWitness);
  const auto clean = backend.enumerateOrCheck(cs);  // slot 3: no fault
  EXPECT_EQ(clean.status, SolveStatus::Sat);
  EXPECT_FALSE(clean.corruptWitness);
}

// ---- differential: every example model against Z3 ----------------------

struct ModelConfig {
  const char* name;
  std::map<std::string, std::int64_t> constants;
  std::vector<core::BufferSpec> buffers;
  int horizon;
  const char* query;
};

core::BufferSpec input(const char* param, int capacity, int maxArrivals) {
  core::BufferSpec spec;
  spec.param = param;
  spec.role = core::BufferSpec::Role::Input;
  spec.capacity = capacity;
  spec.maxArrivalsPerStep = maxArrivals;
  return spec;
}

core::BufferSpec output(const char* param, int capacity) {
  core::BufferSpec spec;
  spec.param = param;
  spec.role = core::BufferSpec::Role::Output;
  spec.capacity = capacity;
  return spec;
}

/// The golden-test scopes (tests/golden_test.cpp), one per example model.
std::vector<ModelConfig> goldenScopes() {
  return {
      {"aimd", {{"RTO", 3}},
       {input("ind", 8, 2), input("inack", 8, 2), output("out", 16),
        output("ackdrain", 16)},
       4, "aimd.mcwnd[T-1] >= 0"},
      {"delay_server", {}, {input("din", 8, 2), output("dout", 16)}, 4,
       "delay.mreleased[T-1] >= 0"},
      {"drr", {{"N", 2}, {"QUANTUM", 2}},
       {input("ibs", 6, 2), output("ob", 16)}, 4, "drr.bdeq.0[T-1] >= 0"},
      {"fq_buggy", {{"N", 2}}, {input("ibs", 6, 3), output("ob", 32)}, 5,
       "fq.cdeq.0[T-1] >= T-1"},
      {"fq_fixed", {{"N", 2}}, {input("ibs", 6, 3), output("ob", 32)}, 5,
       "fq.cdeq.0[T-1] >= T-1"},
      {"path_server", {{"RATE", 1}, {"BUCKET", 2}},
       {input("pin", 8, 2), output("pout", 16)}, 4,
       "path.mserved[T-1] >= 0"},
      {"round_robin", {{"N", 2}}, {input("ibs", 6, 2), output("ob", 16)}, 4,
       "rr.cdeq.0[T-1] >= 0"},
      {"strict_priority", {{"N", 2}}, {input("ibs", 6, 2), output("ob", 16)},
       4, "sp.cdeq.0[T-1] >= 0"},
  };
}

std::string readModel(const std::string& name) {
  std::ifstream in(std::string(BUFFY_MODELS_DIR) + "/" + name + ".bfy");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The planned standalone problem Analysis solves for one query: the
/// optimizer's plan of the query delta (the query for check; its negation
/// together with the in-program obligations for verify).
std::vector<TermRef> plannedProblem(core::Encoding& enc,
                                    opt::Optimizer& optimizer,
                                    const core::Query& query,
                                    bool forVerify) {
  std::vector<TermRef> delta = enc.workloadTerms;
  TermRef q = query.build(enc.seriesView(), enc.arena);
  if (forVerify) {
    for (const auto& obligation : enc.obligations) {
      q = enc.arena.mkAnd(q, obligation.cond);
    }
    q = enc.arena.mkNot(q);
  }
  delta.push_back(q);
  const opt::Optimizer::Plan plan = optimizer.plan(delta);
  std::vector<TermRef> standalone = plan.structural;
  standalone.insert(standalone.end(), plan.delta.begin(), plan.delta.end());
  return standalone;
}

TEST(EnumerateDifferential, EveryExampleModelAgreesWithZ3) {
  std::vector<std::string> enumerated;
  for (const ModelConfig& m : goldenScopes()) {
    core::ProgramSpec spec;
    spec.source = readModel(m.name);
    spec.compile.constants = m.constants;
    if (m.constants.count("N") != 0) {
      spec.compile.defaultListCapacity =
          std::max<int>(2, static_cast<int>(m.constants.at("N")));
    }
    spec.buffers = m.buffers;
    core::Network net;
    net.add(spec);
    core::AnalysisOptions options;
    options.horizon = m.horizon;
    const pipeline::CompilerDriver driver(core::pipelineOptionsFor(options));
    const pipeline::CompilationUnitPtr unit = driver.compile(std::move(net));
    const auto enc = pipeline::buildEncoding(*unit, core::Workload{}, nullptr);
    std::vector<TermRef> structural = enc->assumptions;
    structural.insert(structural.end(), enc->soundness.begin(),
                      enc->soundness.end());
    opt::Optimizer optimizer(enc->arena, structural, opt::OptOptions{});

    for (const bool forVerify : {false, true}) {
      SCOPED_TRACE(std::string(m.name) + (forVerify ? " verify" : " check"));
      const std::vector<TermRef> problem = plannedProblem(
          *enc, optimizer, core::Query::expr(m.query), forVerify);
      Enumerator enumerator(problem);
      if (!enumerator.qualifies()) continue;
      const Outcome out = enumerator.run(kNeverStop);
      ASSERT_TRUE(out.status == Status::Sat || out.status == Status::Unsat)
          << out.reason;
      backends::Z3Backend z3;
      const SolveStatus expected = z3.check(problem).status;
      EXPECT_EQ(out.status == Status::Sat ? SolveStatus::Sat
                                          : SolveStatus::Unsat,
                expected);
      if (out.status == Status::Sat) {
        for (const TermRef c : problem) {
          EXPECT_EQ(ir::evalTerm(c, out.model), 1);
        }
      }
      enumerated.push_back(std::string(m.name) +
                           (forVerify ? "/verify" : "/check"));
    }
  }
  // The finite-domain schedulers enumerate at these scopes; the havoc
  // variables of path_server and delay_server keep them on Z3.
  for (const char* name : {"round_robin/check", "round_robin/verify",
                           "strict_priority/check", "drr/verify"}) {
    EXPECT_NE(std::find(enumerated.begin(), enumerated.end(), name),
              enumerated.end())
        << name;
  }
  for (const char* name : {"path_server/check", "delay_server/check"}) {
    EXPECT_EQ(std::find(enumerated.begin(), enumerated.end(), name),
              enumerated.end())
        << name;
  }
}

}  // namespace
}  // namespace buffy::enumerate
