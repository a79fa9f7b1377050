#include "backends/z3/z3_backend.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace buffy::backends {
namespace {

class Z3Test : public ::testing::Test {
 protected:
  ir::TermArena arena;
  Z3Backend backend;
};

TEST_F(Z3Test, TrivialSat) {
  const std::vector<ir::TermRef> cs = {arena.trueTerm()};
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);
}

TEST_F(Z3Test, TrivialUnsat) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.lt(x, arena.intConst(0)), arena.gt(x, arena.intConst(0))};
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Unsat);
}

TEST_F(Z3Test, ModelExtraction) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef p = arena.var("p", ir::Sort::Bool);
  const std::vector<ir::TermRef> cs = {
      arena.eq(x, arena.intConst(42)), p};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.at("x"), 42);
  EXPECT_EQ(result.model.at("p"), 1);
  EXPECT_GE(result.seconds, 0.0);
}

TEST_F(Z3Test, ModelSatisfiesConstraintsViaTermEval) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef y = arena.var("y", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.eq(arena.add(x, y), arena.intConst(10)),
      arena.lt(x, y),
      arena.ge(x, arena.intConst(0))};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  for (const ir::TermRef c : cs) {
    EXPECT_EQ(ir::evalTerm(c, result.model), 1);
  }
}

TEST_F(Z3Test, DivisionSemanticsMatchIr) {
  // Z3's div/mod on the lowered terms must agree with our Euclidean fold.
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  for (const std::int64_t a : {7, -7}) {
    for (const std::int64_t b : {2, -2}) {
      const ir::TermRef q =
          arena.div(arena.var("a" + std::to_string(a) + std::to_string(b),
                              ir::Sort::Int),
                    arena.intConst(b));
      (void)q;
      const std::vector<ir::TermRef> cs = {
          arena.eq(x, arena.div(arena.intConst(a), arena.intConst(b)))};
      const auto result = backend.check(cs);
      ASSERT_EQ(result.status, SolveStatus::Sat);
      EXPECT_EQ(result.model.at("x"), ir::euclideanDiv(a, b))
          << a << " div " << b;
    }
  }
}

TEST_F(Z3Test, DivisionByZeroGuardedToZero) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef z = arena.var("z", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.eq(z, arena.intConst(0)),
      arena.eq(x, arena.div(arena.intConst(5), z))};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.at("x"), 0);
}

TEST_F(Z3Test, IteLowering) {
  const ir::TermRef p = arena.var("p", ir::Sort::Bool);
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.mkNot(p),
      arena.eq(x, arena.ite(p, arena.intConst(1), arena.intConst(2)))};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.at("x"), 2);
}

TEST_F(Z3Test, NonBooleanConstraintRejected) {
  const std::vector<ir::TermRef> cs = {arena.intConst(1)};
  EXPECT_THROW(backend.check(cs), BackendError);
}

TEST_F(Z3Test, SmtLibParseAndSolve) {
  const auto result = backend.checkSmtLib(
      "(declare-const a Int)(assert (> a 5))(assert (< a 7))");
  EXPECT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.at("a"), 6);
}

TEST_F(Z3Test, SmtLibParseErrorThrows) {
  EXPECT_THROW(backend.checkSmtLib("(assert (nonsense"), BackendError);
}

TEST_F(Z3Test, ModelOverflowRecordedNotDropped) {
  // A model value that does not fit int64 must be reported, not silently
  // skipped (it would otherwise surface as a stale/absent trace entry).
  const auto result = backend.checkSmtLib(
      "(declare-const a Int)(assert (= a 36893488147419103232))");  // 2^65
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.count("a"), 0u);
  ASSERT_EQ(result.overflowVars.size(), 1u);
  EXPECT_EQ(result.overflowVars[0], "a");
}

TEST_F(Z3Test, LargeDagLowersStackSafely) {
  ir::TermRef acc = arena.var("v", ir::Sort::Int);
  for (int i = 0; i < 50000; ++i) acc = arena.add(acc, arena.intConst(1));
  const std::vector<ir::TermRef> cs = {arena.eq(acc, arena.intConst(50000))};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.at("v"), 0);
}

// --- Resilience layer (DESIGN.md §8) --------------------------------

TEST_F(Z3Test, BudgetReportsRlimitConsumption) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.eq(x, arena.intConst(7))};
  SolveBudget budget;
  budget.rlimit = 100000000;
  const auto result = backend.check(cs, budget);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_GT(result.rlimitUsed, 0u);
}

TEST_F(Z3Test, TinyRlimitYieldsUnknownNotCrash) {
  // A deliberately hard problem under a starvation-level rlimit: the
  // solver must give up cleanly (Unknown), never abort. Deterministic,
  // unlike a wall-clock timeout.
  std::string smt = "(declare-const a Int)(declare-const b Int)"
                    "(declare-const c Int)"
                    "(assert (and (> a 1) (> b 1) (> c 1)"
                    " (= (* a a a) (+ (* b b b) (* c c c)))))";
  SolveBudget budget;
  budget.rlimit = 1000;
  const auto result = backend.checkSmtLib(smt, budget);
  EXPECT_EQ(result.status, SolveStatus::Unknown);
  EXPECT_FALSE(result.canceled);
  EXPECT_FALSE(result.reason.empty());
}

TEST_F(Z3Test, ExhaustedRlimitIsUnknownNotCanceled) {
  // The same cubic problem through the preprocessing solver. Z3 says
  // "canceled" when the rlimit runs out inside a tactic; only interrupt()
  // cancels, so this must read as an exhausted budget the retry ladder may
  // escalate.
  const ir::TermRef a = arena.var("a", ir::Sort::Int);
  const ir::TermRef b = arena.var("b", ir::Sort::Int);
  const ir::TermRef c = arena.var("c", ir::Sort::Int);
  const ir::TermRef one = arena.intConst(1);
  const auto cube = [&](ir::TermRef v) {
    return arena.mul(v, arena.mul(v, v));
  };
  const std::vector<ir::TermRef> cs = {
      arena.gt(a, one), arena.gt(b, one), arena.gt(c, one),
      arena.eq(cube(a), arena.add(cube(b), cube(c)))};
  SolveBudget budget;
  budget.rlimit = 1000;
  const auto result = backend.check(cs, budget);
  EXPECT_EQ(result.status, SolveStatus::Unknown);
  EXPECT_FALSE(result.canceled);
  EXPECT_EQ(result.reason.find("cancel"), std::string::npos) << result.reason;
  EXPECT_FALSE(backend.interrupted());
}

TEST_F(Z3Test, RlimitUsedCountsOneCheckNotTheContext) {
  // The context's rlimit counter keeps running across checks; each result
  // must report only its own use.
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef y = arena.var("y", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.eq(arena.add(x, y), arena.intConst(10)), arena.lt(x, y),
      arena.ge(x, arena.intConst(0))};
  const auto first = backend.check(cs);
  ASSERT_EQ(first.status, SolveStatus::Sat);
  EXPECT_GT(first.rlimitUsed, 0u);
  for (int i = 0; i < 2; ++i) {
    const auto again = backend.check(cs);
    ASSERT_EQ(again.status, SolveStatus::Sat);
    EXPECT_EQ(again.rlimitUsed, first.rlimitUsed) << "check " << i + 2;
  }
}

TEST_F(Z3Test, RandomSeedIsAccepted) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.gt(x, arena.intConst(0))};
  SolveBudget budget;
  budget.randomSeed = 17;
  EXPECT_EQ(backend.check(cs, budget).status, SolveStatus::Sat);
}

TEST_F(Z3Test, InterruptIsPermanentAndCanceledResultsSayWhy) {
  const std::vector<ir::TermRef> cs = {arena.trueTerm()};
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);
  backend.interrupt();
  EXPECT_TRUE(backend.interrupted());
  const auto result = backend.check(cs);
  EXPECT_EQ(result.status, SolveStatus::Unknown);
  EXPECT_TRUE(result.canceled);
  // Still cancelled on the next query, on either solve path.
  EXPECT_TRUE(backend.check(cs).canceled);
  EXPECT_TRUE(backend.checkSmtLib("(assert true)").canceled);
}

TEST_F(Z3Test, FaultPlanForcesUnknownAtScopedOrdinal) {
  auto plan = std::make_shared<FaultPlan>();
  plan->forceUnknown("", 1, "injected");
  backend.setFaultPlan(plan);
  const std::vector<ir::TermRef> cs = {arena.trueTerm()};
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);  // ordinal 0
  const auto faulted = backend.check(cs);                 // ordinal 1
  EXPECT_EQ(faulted.status, SolveStatus::Unknown);
  EXPECT_EQ(faulted.reason, "injected");
  EXPECT_FALSE(faulted.canceled);
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);  // ordinal 2
}

TEST_F(Z3Test, FaultPlanThrowAndScopes) {
  auto plan = std::make_shared<FaultPlan>();
  plan->at("s1", 0, {FaultAction::Kind::Throw, "boom", 0});
  backend.setFaultPlan(plan);
  const std::vector<ir::TermRef> cs = {arena.trueTerm()};
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);  // default scope
  backend.setFaultScope("s1");
  EXPECT_THROW(backend.check(cs), BackendError);
  backend.setFaultScope("");
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);
}

TEST_F(Z3Test, CorruptWitnessTagPropagates) {
  auto plan = std::make_shared<FaultPlan>();
  plan->at("", 0, {FaultAction::Kind::CorruptWitness, "", 0});
  backend.setFaultPlan(plan);
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.eq(x, arena.intConst(5))};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_TRUE(result.corruptWitness);
  EXPECT_EQ(result.model.at("x"), 5);  // the model itself is untouched
}

}  // namespace
}  // namespace buffy::backends
