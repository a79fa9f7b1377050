#include "ir/term.hpp"

#include <gtest/gtest.h>

#include "ir/term_eval.hpp"
#include "ir/term_printer.hpp"
#include "support/error.hpp"

namespace buffy::ir {
namespace {

class TermTest : public ::testing::Test {
 protected:
  TermArena arena;
};

TEST_F(TermTest, HashConsingSharesIdenticalNodes) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef a = arena.add(x, arena.intConst(1));
  const TermRef b = arena.add(x, arena.intConst(1));
  EXPECT_EQ(a, b);
}

TEST_F(TermTest, ConstantFoldingArithmetic) {
  EXPECT_EQ(arena.add(arena.intConst(2), arena.intConst(3))->value, 5);
  EXPECT_EQ(arena.sub(arena.intConst(2), arena.intConst(3))->value, -1);
  EXPECT_EQ(arena.mul(arena.intConst(4), arena.intConst(3))->value, 12);
  EXPECT_EQ(arena.neg(arena.intConst(7))->value, -7);
}

TEST_F(TermTest, OverflowingFoldsStaySymbolic) {
  // Solver integers are mathematical: a fold whose exact value does not
  // fit in 64 bits must keep the node symbolic instead of wrapping.
  const TermRef maxT = arena.intConst(INT64_MAX);
  const TermRef minT = arena.intConst(INT64_MIN);
  EXPECT_EQ(arena.add(maxT, arena.intConst(1))->kind, TermKind::Add);
  EXPECT_EQ(arena.sub(minT, arena.intConst(1))->kind, TermKind::Sub);
  EXPECT_EQ(arena.mul(maxT, arena.intConst(2))->kind, TermKind::Mul);
  EXPECT_EQ(arena.neg(minT)->kind, TermKind::Neg);
  EXPECT_EQ(arena.div(minT, arena.intConst(-1))->kind, TermKind::Div);
  // Representable results at the boundary still fold.
  EXPECT_EQ(arena.add(maxT, arena.intConst(0)), maxT);
  EXPECT_EQ(arena.sub(maxT, arena.intConst(1))->value, INT64_MAX - 1);
  EXPECT_EQ(arena.neg(maxT)->value, -INT64_MAX);

  EXPECT_EQ(foldAdd(INT64_MAX, 1), std::nullopt);
  EXPECT_EQ(foldSub(INT64_MIN, 1), std::nullopt);
  EXPECT_EQ(foldMul(INT64_MAX, 2), std::nullopt);
  EXPECT_EQ(foldNeg(INT64_MIN), std::nullopt);
  EXPECT_EQ(foldAdd(INT64_MAX, -1), INT64_MAX - 1);
}

TEST_F(TermTest, IdentityRules) {
  const TermRef x = arena.var("x", Sort::Int);
  EXPECT_EQ(arena.add(x, arena.intConst(0)), x);
  EXPECT_EQ(arena.add(arena.intConst(0), x), x);
  EXPECT_EQ(arena.sub(x, arena.intConst(0)), x);
  EXPECT_EQ(arena.sub(x, x)->value, 0);
  EXPECT_EQ(arena.mul(x, arena.intConst(1)), x);
  EXPECT_TRUE(arena.mul(x, arena.intConst(0))->isZero());
  EXPECT_EQ(arena.div(x, arena.intConst(1)), x);
  EXPECT_TRUE(arena.mod(x, arena.intConst(1))->isZero());
}

TEST_F(TermTest, EuclideanDivMod) {
  // SMT-LIB semantics: mod result is non-negative.
  EXPECT_EQ(euclideanDiv(7, 2), 3);
  EXPECT_EQ(euclideanMod(7, 2), 1);
  EXPECT_EQ(euclideanDiv(-7, 2), -4);
  EXPECT_EQ(euclideanMod(-7, 2), 1);
  EXPECT_EQ(euclideanDiv(7, -2), -3);
  EXPECT_EQ(euclideanMod(7, -2), 1);
  EXPECT_EQ(euclideanDiv(-7, -2), 4);
  EXPECT_EQ(euclideanMod(-7, -2), 1);
  // Invariant: a == b * div(a,b) + mod(a,b).
  for (const auto [a, b] : {std::pair{13, 5}, {-13, 5}, {13, -5}, {-13, -5}}) {
    EXPECT_EQ(a, b * euclideanDiv(a, b) + euclideanMod(a, b));
  }
  // Division by zero is defined as 0.
  EXPECT_EQ(euclideanDiv(5, 0), 0);
  EXPECT_EQ(euclideanMod(5, 0), 0);
  // A divisor of INT64_MIN: |b| does not fit in int64, the remainder does.
  EXPECT_EQ(euclideanDiv(-1, INT64_MIN), 1);
  EXPECT_EQ(euclideanMod(-1, INT64_MIN), INT64_MAX);
  EXPECT_EQ(euclideanMod(INT64_MIN + 1, INT64_MIN), 1);
}

TEST_F(TermTest, BooleanSimplification) {
  const TermRef p = arena.var("p", Sort::Bool);
  EXPECT_EQ(arena.mkAnd(p, arena.trueTerm()), p);
  EXPECT_TRUE(arena.mkAnd(p, arena.falseTerm())->isFalse());
  EXPECT_EQ(arena.mkOr(p, arena.falseTerm()), p);
  EXPECT_TRUE(arena.mkOr(p, arena.trueTerm())->isTrue());
  EXPECT_EQ(arena.mkNot(arena.mkNot(p)), p);
  EXPECT_TRUE(arena.implies(p, p)->isTrue());
  EXPECT_EQ(arena.implies(arena.trueTerm(), p), p);
}

TEST_F(TermTest, ComparisonFolding) {
  EXPECT_TRUE(arena.lt(arena.intConst(1), arena.intConst(2))->isTrue());
  EXPECT_TRUE(arena.le(arena.intConst(2), arena.intConst(2))->isTrue());
  EXPECT_TRUE(arena.eq(arena.intConst(2), arena.intConst(3))->isFalse());
  const TermRef x = arena.var("x", Sort::Int);
  EXPECT_TRUE(arena.eq(x, x)->isTrue());
  EXPECT_TRUE(arena.le(x, x)->isTrue());
  EXPECT_TRUE(arena.lt(x, x)->isFalse());
}

TEST_F(TermTest, IteSimplification) {
  const TermRef c = arena.var("c", Sort::Bool);
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  EXPECT_EQ(arena.ite(arena.trueTerm(), x, y), x);
  EXPECT_EQ(arena.ite(arena.falseTerm(), x, y), y);
  EXPECT_EQ(arena.ite(c, x, x), x);
  // Boolean-branch ite collapses to connectives.
  const TermRef p = arena.var("p", Sort::Bool);
  EXPECT_EQ(arena.ite(c, arena.trueTerm(), p), arena.mkOr(c, p));
  EXPECT_EQ(arena.ite(c, p, arena.falseTerm()), arena.mkAnd(c, p));
}

TEST_F(TermTest, MinMax) {
  EXPECT_EQ(arena.min(arena.intConst(3), arena.intConst(5))->value, 3);
  EXPECT_EQ(arena.max(arena.intConst(3), arena.intConst(5))->value, 5);
  const TermRef x = arena.var("x", Sort::Int);
  EXPECT_EQ(arena.min(x, x), x);
}

TEST_F(TermTest, VarSortConflictRejected) {
  arena.var("v", Sort::Int);
  EXPECT_THROW(arena.var("v", Sort::Bool), Error);
}

TEST_F(TermTest, FreshVarsDistinct) {
  const TermRef a = arena.freshVar("h", Sort::Int);
  const TermRef b = arena.freshVar("h", Sort::Int);
  EXPECT_NE(a, b);
  EXPECT_NE(a->name, b->name);
}

TEST_F(TermTest, VariablesTracked) {
  arena.var("a", Sort::Int);
  arena.var("b", Sort::Bool);
  arena.var("a", Sort::Int);  // duplicate
  EXPECT_EQ(arena.variables().size(), 2u);
}

TEST_F(TermTest, EqSortMismatchThrows) {
  EXPECT_THROW(arena.eq(arena.intConst(1), arena.trueTerm()), Error);
  EXPECT_THROW(
      arena.ite(arena.trueTerm(), arena.intConst(1), arena.trueTerm()), Error);
}

TEST_F(TermTest, SExprPrinting) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef e = arena.add(x, arena.intConst(-2));
  EXPECT_EQ(toSExpr(e), "(+ x (- 2))");
}

TEST_F(TermTest, DagSizeCountsSharedOnce) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef sum = arena.add(x, x);  // folds? no: add(x,x) is a node
  const TermRef expr = arena.mul(sum, sum);
  // nodes: x, (+ x x), (* s s) = 3
  EXPECT_EQ(dagSize(expr), 3u);
}

TEST_F(TermTest, EvalTermFullCoverage) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef p = arena.var("p", Sort::Bool);
  const Assignment env = {{"x", 10}, {"p", 1}};
  EXPECT_EQ(evalTerm(arena.add(x, arena.intConst(5)), env), 15);
  EXPECT_EQ(evalTerm(arena.div(x, arena.intConst(3)), env), 3);
  EXPECT_EQ(evalTerm(arena.mod(x, arena.intConst(3)), env), 1);
  EXPECT_EQ(evalTerm(arena.ite(p, x, arena.intConst(0)), env), 10);
  EXPECT_EQ(evalTerm(arena.implies(p, arena.lt(x, arena.intConst(5))), env),
            0);
  // Missing variables default to 0.
  EXPECT_EQ(evalTerm(arena.add(arena.var("zz", Sort::Int), arena.intConst(1)),
                     env),
            1);
}

TEST_F(TermTest, DeepChainIsStackSafe) {
  // 100k-deep addition chain: iterative eval must not overflow the stack.
  TermRef acc = arena.var("x", Sort::Int);
  for (int i = 0; i < 100000; ++i) acc = arena.add(acc, arena.var("y", Sort::Int));
  EXPECT_EQ(evalTerm(acc, {{"x", 1}, {"y", 1}}), 100001);
}

TEST_F(TermTest, EarlierTermsKeepAddressAndFieldsAsTheArenaGrows) {
  // Terms live in blocks that never move: a TermRef taken early still
  // reads the same node after the arena has grown past 100,000 terms.
  const std::string longName = "a_variable_name_past_the_small_string_size";
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var(longName, Sort::Int);
  const TermRef c = arena.intConst(-42);
  const TermRef pick = arena.ite(arena.lt(x, y), x, c);
  struct Seen {
    TermRef ref;
    TermKind kind;
    std::uint32_t id;
    std::int64_t value;
    std::string name;
    std::vector<TermRef> args;
  };
  std::vector<Seen> seen;
  for (const TermRef t : {x, y, c, pick, pick->args[0]}) {
    seen.push_back(Seen{t, t->kind, t->id, t->value, t->name,
                        std::vector<TermRef>(t->args.begin(), t->args.end())});
  }
  TermRef acc = pick;
  for (int i = 0; i < 100000; ++i) acc = arena.add(acc, arena.intConst(i));
  ASSERT_GT(arena.size(), 100000u);
  for (const Seen& s : seen) {
    EXPECT_EQ(s.ref->kind, s.kind);
    EXPECT_EQ(s.ref->id, s.id);
    EXPECT_EQ(s.ref->value, s.value);
    EXPECT_EQ(s.ref->name, s.name);
    EXPECT_EQ(std::vector<TermRef>(s.ref->args.begin(), s.ref->args.end()),
              s.args);
  }
  // Interning still finds them, and ids stay creation indices.
  EXPECT_EQ(arena.var("x", Sort::Int), x);
  EXPECT_EQ(arena.ite(arena.lt(x, y), x, c), pick);
  EXPECT_EQ(acc->id, arena.size() - 1);
  ASSERT_EQ(pick->args.size(), 3u);
  EXPECT_EQ(pick->args[1], x);
  EXPECT_EQ(pick->args[2], c);
  EXPECT_EQ(evalTerm(pick, {{"x", 1}, {longName, 2}}), 1);
}

TEST_F(TermTest, EvalTermsRejectsTermsFromTwoArenas) {
  // The memo is indexed by term id, so a DAG reading a second arena's term
  // must fail loudly rather than read a colliding entry.
  TermArena other;
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = other.var("y", Sort::Int);  // the same id as x
  ASSERT_EQ(x->id, y->id);
  const TermRef mixed = arena.add(x, y);
  EXPECT_THROW((void)evalTerm(mixed, {{"x", 1}, {"y", 2}}), Error);
  const std::vector<TermRef> roots = {arena.add(x, arena.intConst(1)),
                                      other.add(y, other.intConst(1))};
  EXPECT_THROW((void)evalTerms(roots, {{"x", 1}, {"y", 2}}), Error);
}

// Property-style sweep: folding agrees with direct evaluation for a grid
// of operand values.
class FoldProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FoldProperty, FoldMatchesEval) {
  TermArena arena;
  const auto [a, b] = GetParam();
  const TermRef ta = arena.intConst(a);
  const TermRef tb = arena.intConst(b);
  EXPECT_EQ(arena.add(ta, tb)->value, a + b);
  EXPECT_EQ(arena.sub(ta, tb)->value, a - b);
  EXPECT_EQ(arena.mul(ta, tb)->value, a * b);
  EXPECT_EQ(arena.div(ta, tb)->value, euclideanDiv(a, b));
  EXPECT_EQ(arena.mod(ta, tb)->value, euclideanMod(a, b));
  EXPECT_EQ(arena.lt(ta, tb)->isTrue(), a < b);
  EXPECT_EQ(arena.le(ta, tb)->isTrue(), a <= b);
  EXPECT_EQ(arena.eq(ta, tb)->isTrue(), a == b);
  EXPECT_EQ(arena.min(ta, tb)->value, std::min(a, b));
  EXPECT_EQ(arena.max(ta, tb)->value, std::max(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FoldProperty,
    ::testing::Values(std::pair{0, 0}, std::pair{1, 0}, std::pair{0, 1},
                      std::pair{-3, 2}, std::pair{3, -2}, std::pair{-3, -2},
                      std::pair{7, 7}, std::pair{-100, 13},
                      std::pair{42, -1}, std::pair{5, 3}));

}  // namespace
}  // namespace buffy::ir
