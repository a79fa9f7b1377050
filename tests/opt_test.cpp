// Unit tests for the encoding optimizer (DESIGN.md §9): interval seeding,
// interval-driven rewriting, cone-of-influence slicing, and plan
// invariants.
#include "opt/optimizer.hpp"

#include <gtest/gtest.h>

#include "ir/term_eval.hpp"

namespace buffy::opt {
namespace {

using ir::Sort;
using ir::TermRef;

class OptTest : public ::testing::Test {
 protected:
  Optimizer make(std::vector<TermRef> structural, OptOptions options = {}) {
    return Optimizer(arena, std::move(structural), options);
  }

  ir::TermArena arena;
};

TEST_F(OptTest, SeedsIntervalsFromUnitBounds) {
  const TermRef x = arena.var("x", Sort::Int);
  auto opt = make({arena.ge(x, arena.intConst(0)),
                   arena.le(x, arena.intConst(5))});
  const Interval iv = opt.intervalOf(x);
  ASSERT_TRUE(iv.lo && iv.hi);
  EXPECT_EQ(*iv.lo, 0);
  EXPECT_EQ(*iv.hi, 5);

  const Interval sum = opt.intervalOf(arena.add(x, x));
  ASSERT_TRUE(sum.lo && sum.hi);
  EXPECT_EQ(*sum.lo, 0);
  EXPECT_EQ(*sum.hi, 10);
}

TEST_F(OptTest, StrictBoundsSeedTightened) {
  const TermRef x = arena.var("x", Sort::Int);
  auto opt = make({arena.lt(x, arena.intConst(5)),
                   arena.lt(arena.intConst(0), x)});
  const Interval iv = opt.intervalOf(x);
  ASSERT_TRUE(iv.lo && iv.hi);
  EXPECT_EQ(*iv.lo, 1);
  EXPECT_EQ(*iv.hi, 4);
}

TEST_F(OptTest, DecidesComparisonsFromIntervals) {
  const TermRef x = arena.var("x", Sort::Int);
  auto opt = make({arena.ge(x, arena.intConst(0)),
                   arena.le(x, arena.intConst(5))});
  EXPECT_EQ(opt.rewritten(arena.le(x, arena.intConst(10))),
            arena.trueTerm());
  EXPECT_EQ(opt.rewritten(arena.lt(x, arena.intConst(0))),
            arena.falseTerm());
  EXPECT_EQ(opt.rewritten(arena.eq(x, arena.intConst(42))),
            arena.falseTerm());
  // Undecidable comparisons survive.
  const TermRef open = arena.le(x, arena.intConst(3));
  EXPECT_EQ(opt.rewritten(open), open);
}

TEST_F(OptTest, CollapsesItesWithDecidedGuards) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  const TermRef z = arena.var("z", Sort::Int);
  auto opt = make({arena.ge(x, arena.intConst(0)),
                   arena.le(x, arena.intConst(5))});
  EXPECT_EQ(opt.rewritten(arena.ite(arena.le(x, arena.intConst(9)), y, z)),
            y);
  EXPECT_EQ(opt.rewritten(arena.ite(arena.lt(x, arena.intConst(0)), y, z)),
            z);
}

TEST_F(OptTest, StrengthReducesDivModByConstants) {
  const TermRef x = arena.var("x", Sort::Int);
  auto opt = make({arena.ge(x, arena.intConst(0)),
                   arena.le(x, arena.intConst(5))});
  // x in [0, 5] and 8 > 5: x mod 8 == x, x div 8 == 0.
  EXPECT_EQ(opt.rewritten(arena.mod(x, arena.intConst(8))), x);
  EXPECT_EQ(opt.rewritten(arena.div(x, arena.intConst(8))),
            arena.intConst(0));
  // 4 <= 5: both must survive.
  EXPECT_EQ(opt.rewritten(arena.mod(x, arena.intConst(4)))->kind,
            ir::TermKind::Mod);
}

TEST_F(OptTest, FlattensAndDeduplicatesBooleanTrees) {
  const TermRef p = arena.var("p", Sort::Bool);
  const TermRef q = arena.var("q", Sort::Bool);
  auto opt = make({});
  const TermRef a = arena.mkAnd(arena.mkAnd(p, q), arena.mkAnd(q, p));
  const TermRef b = arena.mkAnd(p, q);
  EXPECT_EQ(opt.rewritten(a), opt.rewritten(b));
  // Complementary literals collapse the connective.
  EXPECT_EQ(opt.rewritten(arena.mkAnd(arena.mkOr(p, q),
                                      arena.mkAnd(p, arena.mkNot(p)))),
            arena.falseTerm());
  EXPECT_EQ(opt.rewritten(arena.mkOr(arena.mkAnd(p, q),
                                     arena.mkOr(p, arena.mkNot(p)))),
            arena.trueTerm());
}

TEST_F(OptTest, LinearizesAdditionChains) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  auto opt = make({});
  // (x + y) - x + 1 - 1 == y after coefficient cancellation.
  const TermRef t = arena.sub(
      arena.add(arena.sub(arena.add(x, y), x), arena.intConst(1)),
      arena.intConst(1));
  EXPECT_EQ(opt.rewritten(t), y);
}

TEST_F(OptTest, PinnedVariablesAreInlined) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  const std::vector<TermRef> structural = {arena.eq(x, arena.intConst(3))};
  auto opt = make(structural);
  const std::vector<TermRef> delta = {arena.le(x, y)};
  const auto plan = opt.plan(delta);
  // The seed assertion is dropped (x is pinned) and the delta sees x = 3.
  EXPECT_TRUE(plan.structural.empty());
  ASSERT_EQ(plan.delta.size(), 1u);
  EXPECT_EQ(plan.delta[0], arena.le(arena.intConst(3), y));
  ASSERT_TRUE(plan.droppedWitness.count("x"));
  EXPECT_EQ(plan.droppedWitness.at("x"), 3);
}

TEST_F(OptTest, SlicesDisconnectedSatisfiableComponents) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  const std::vector<TermRef> structural = {
      arena.ge(x, arena.intConst(0)), arena.le(x, arena.intConst(5)),
      arena.ge(y, arena.intConst(2)), arena.le(y, arena.intConst(7)),
      arena.le(arena.add(y, y), arena.intConst(14))};
  auto opt = make(structural);
  const std::vector<TermRef> delta = {arena.eq(x, arena.intConst(4))};
  const auto plan = opt.plan(delta);
  EXPECT_EQ(plan.stats.assertionsSliced, 3u);
  // Only x's component survives, in original order and verbatim (seeds are
  // kept as written).
  EXPECT_EQ(plan.structural,
            (std::vector<TermRef>{structural[0], structural[1]}));
  // The sliced component's variables get certified satisfying values.
  ASSERT_TRUE(plan.droppedWitness.count("y"));
  const std::int64_t yv = plan.droppedWitness.at("y");
  EXPECT_GE(yv, 2);
  EXPECT_LE(yv, 7);
  EXPECT_FALSE(plan.droppedWitness.count("x"));
}

TEST_F(OptTest, KeepsComponentsItCannotCertify) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  // y + y <= -1 && 1 <= y + y is unsatisfiable but not seed-shaped, so the
  // slicer cannot certify it away — dropping it would flip an UNSAT.
  const std::vector<TermRef> structural = {
      arena.le(arena.add(y, y), arena.intConst(-1)),
      arena.le(arena.intConst(1), arena.add(y, y))};
  auto opt = make(structural);
  const std::vector<TermRef> delta = {arena.eq(x, arena.intConst(4))};
  const auto plan = opt.plan(delta);
  EXPECT_EQ(plan.stats.assertionsSliced, 0u);
  EXPECT_EQ(plan.structural.size(), 2u);
}

TEST_F(OptTest, ContradictorySeedsShortCircuitToFalse) {
  const TermRef x = arena.var("x", Sort::Int);
  auto opt = make({arena.le(x, arena.intConst(0)),
                   arena.ge(x, arena.intConst(1))});
  EXPECT_TRUE(opt.structuralUnsat());
  const std::vector<TermRef> delta = {arena.ge(x, arena.intConst(0))};
  const auto plan = opt.plan(delta);
  ASSERT_EQ(plan.structural.size(), 1u);
  EXPECT_EQ(plan.structural[0], arena.falseTerm());
  EXPECT_TRUE(plan.delta.empty());
}

TEST_F(OptTest, DisabledOptimizerPassesThrough) {
  const TermRef x = arena.var("x", Sort::Int);
  OptOptions off;
  off.enabled = false;
  const std::vector<TermRef> structural = {arena.ge(x, arena.intConst(0))};
  auto opt = make(structural, off);
  const std::vector<TermRef> delta = {arena.le(x, arena.intConst(9))};
  const auto plan = opt.plan(delta);
  EXPECT_EQ(plan.structural, structural);
  EXPECT_EQ(plan.delta, delta);
  EXPECT_TRUE(plan.droppedWitness.empty());
}

TEST_F(OptTest, PlanStatsAccounting) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  const std::vector<TermRef> structural = {
      arena.ge(x, arena.intConst(0)), arena.le(x, arena.intConst(5)),
      arena.ge(y, arena.intConst(0)), arena.le(y, arena.intConst(5))};
  auto opt = make(structural);
  const std::vector<TermRef> delta = {
      arena.mkAnd(arena.le(x, arena.intConst(9)),
                  arena.eq(x, arena.intConst(2)))};
  const auto plan = opt.plan(delta);
  EXPECT_EQ(plan.stats.assertionsBefore, structural.size() + delta.size());
  EXPECT_LE(plan.stats.assertionsAfter, plan.stats.assertionsBefore);
  EXPECT_LE(plan.stats.nodesAfter, plan.stats.nodesBefore);
  EXPECT_GE(plan.stats.comparisonsDecided, 1u);
  EXPECT_EQ(plan.stats.passes.size(), 2u);
  EXPECT_EQ(plan.stats.passes[0].pass, "slice");
  EXPECT_EQ(plan.stats.passes[1].pass, "rewrite");
}

TEST_F(OptTest, RewritesPreserveEvaluationUnderSeeds) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  auto opt = make({arena.ge(x, arena.intConst(0)),
                   arena.le(x, arena.intConst(5)),
                   arena.ge(y, arena.intConst(0)),
                   arena.le(y, arena.intConst(3))});
  const TermRef t = arena.ite(
      arena.le(x, arena.intConst(7)),
      arena.add(arena.mod(x, arena.intConst(8)), arena.mul(y, y)),
      arena.intConst(-1));
  const TermRef r = opt.rewritten(t);
  EXPECT_NE(t, r);  // something simplified
  for (std::int64_t xv = 0; xv <= 5; ++xv) {
    for (std::int64_t yv = 0; yv <= 3; ++yv) {
      const ir::Assignment asg = {{"x", xv}, {"y", yv}};
      EXPECT_EQ(ir::evalTerm(t, asg), ir::evalTerm(r, asg));
    }
  }
}

TEST_F(OptTest, DeltaBoundsSpecializeTheQuery) {
  const TermRef n = arena.var("n", Sort::Int);
  const TermRef a = arena.var("a", Sort::Int);
  const TermRef b = arena.var("b", Sort::Int);
  auto opt = make({arena.ge(n, arena.intConst(0)),
                   arena.le(n, arena.intConst(3))});
  // The workload pins n to 0 for this query only; the guard lt(0, n) is
  // then decidably false and the ite collapses to its else branch.
  const TermRef pin = arena.le(n, arena.intConst(0));
  const TermRef probe = arena.le(
      arena.ite(arena.lt(arena.intConst(0), n), a, b), arena.intConst(5));
  const std::vector<TermRef> delta{pin, probe};
  const auto plan = opt.plan(delta);
  ASSERT_EQ(plan.delta.size(), 2u);
  EXPECT_EQ(plan.delta[0], pin);  // seed assertion kept verbatim
  EXPECT_EQ(plan.delta[1], arena.le(b, arena.intConst(5)));
  EXPECT_GE(plan.stats.itesCollapsed, 1u);
}

TEST_F(OptTest, DeltaSeedsDoNotLeakAcrossPlans) {
  const TermRef n = arena.var("n", Sort::Int);
  auto opt = make({arena.ge(n, arena.intConst(0)),
                   arena.le(n, arena.intConst(3))});
  // Plan 1 pins n = 0 via its delta.
  const std::vector<TermRef> first{arena.le(n, arena.intConst(0))};
  (void)opt.plan(first);
  // Plan 2 must see only the structural bounds: under a leaked n = 0,
  // eq(n + n, 0) would fold to true and vanish.
  const TermRef probe = arena.eq(arena.add(n, n), arena.intConst(0));
  const std::vector<TermRef> second{probe};
  const auto plan = opt.plan(second);
  ASSERT_EQ(plan.delta.size(), 1u);
  EXPECT_FALSE(plan.delta[0]->isTrue());
  EXPECT_FALSE(plan.delta[0]->isFalse());
}

TEST_F(OptTest, ContradictoryDeltaBoundsCollapseTheDelta) {
  const TermRef n = arena.var("n", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  const std::vector<TermRef> structural{arena.ge(n, arena.intConst(0)),
                                        arena.le(n, arena.intConst(3))};
  auto opt = make(structural);
  // n <= -1 contradicts the structural 0 <= n: the query is UNSAT on its
  // own, and the delta collapses to `false` while the structural set is
  // rewritten under the structural facts only.
  const std::vector<TermRef> delta{arena.le(n, arena.intConst(-1)),
                                   arena.le(y, arena.intConst(7))};
  const auto plan = opt.plan(delta);
  ASSERT_EQ(plan.delta.size(), 1u);
  EXPECT_TRUE(plan.delta[0]->isFalse());
  EXPECT_EQ(plan.structural, structural);  // seeds kept verbatim
}

}  // namespace
}  // namespace buffy::opt
