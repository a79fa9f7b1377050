// Memoized enumeration (DESIGN.md §7): which problems qualify, the
// saturation thresholds of one-sided variables, the search budget, what
// the search answers against a plain brute-force reference, how an
// enumerated attempt keeps the solver protocol (fault slots,
// cancellation, timeouts), a differential check of the enumerator
// against Z3 on every example model, and that a layout extended by a
// delta answers what a fresh compile of both halves does.
#include "enumerate/enumerator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <thread>

#include "backends/z3/z3_backend.hpp"
#include "core/analysis.hpp"
#include "ir/term_eval.hpp"
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
  cs.push_back(arena.le(y, arena.intConst(9)));  // no lower bound
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
      arena.le(x, arena.intConst(9)),
      arena.mkOr(arena.ge(x, arena.intConst(0)),
                 arena.ge(x, arena.intConst(2)))};
  EXPECT_FALSE(Enumerator(cs).qualifies());
}

// ---- saturation of one-sided variables ----------------------------------

TEST_F(EnumerateTest, OneSidedVariableSaturatesAtItsDerivedThreshold) {
  // x < y decides true for every y >= 4, whatever x in [0, 3] is.
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  std::vector<TermRef> cs;
  bound(cs, x, 0, 3);
  cs.push_back(arena.ge(y, arena.intConst(0)));  // no upper bound
  cs.push_back(arena.lt(x, y));
  Enumerator problem(cs);
  ASSERT_TRUE(problem.qualifies());
  const auto box = problem.domains();
  ASSERT_EQ(box.size(), 2u);
  EXPECT_EQ(box[1].var, y);
  EXPECT_EQ(box[1].lo, 0);
  EXPECT_EQ(box[1].hi, 4);
  const Outcome out = problem.run(kNeverStop);
  ASSERT_EQ(out.status, Status::Sat);
  EXPECT_EQ(out.model.at("x"), 0);
  EXPECT_EQ(out.model.at("y"), 1);
  EXPECT_EQ(out.stats.saturated, 1u);

  // Models far up the one-sided range stay inside the box: the threshold
  // lies past them.
  cs.back() = arena.lt(arena.add(x, arena.intConst(100)), y);
  const Outcome far = Enumerator(cs).run(kNeverStop);
  ASSERT_EQ(far.status, Status::Sat);
  EXPECT_EQ(far.model.at("y"), 101);
}

TEST_F(EnumerateTest, SaturationSeesThroughMinAndMax) {
  // The path server's service, max(0, min(tokens, backlog) - waste): for
  // waste >= 2 it is 0 whatever tokens (unbounded above) is, but only the
  // min/max rule keeps the upper bound of min(tokens, backlog) that says
  // so.
  const TermRef tokens = arena.var("tokens", Sort::Int);
  const TermRef backlog = arena.var("backlog", Sort::Int);
  const TermRef waste = arena.var("waste", Sort::Int);
  const TermRef zero = arena.intConst(0);
  std::vector<TermRef> cs;
  cs.push_back(arena.ge(tokens, zero));
  bound(cs, backlog, 0, 2);
  cs.push_back(arena.ge(waste, zero));
  const TermRef avail = arena.ite(arena.le(tokens, backlog), tokens, backlog);
  const TermRef less = arena.sub(avail, waste);
  const TermRef serve = arena.ite(arena.le(less, zero), zero, less);
  cs.push_back(arena.eq(serve, arena.intConst(0)));
  Enumerator problem(cs);
  ASSERT_TRUE(problem.qualifies());
  const Outcome out = problem.run(kNeverStop);
  ASSERT_EQ(out.status, Status::Sat);
  EXPECT_EQ(out.stats.saturated, 2u);
  for (const auto& d : problem.domains()) {
    if (d.var == waste) {
      EXPECT_EQ(d.hi, 2);  // serve is 0 from there on
    } else if (d.var == tokens) {
      EXPECT_EQ(d.hi, 3);  // min picks backlog past 2
    }
  }
}

TEST_F(EnumerateTest, PeriodicReadHasNoThreshold) {
  // y % 5 never stops depending on y.
  const TermRef y = arena.var("y", Sort::Int);
  const std::vector<TermRef> cs = {
      arena.ge(y, arena.intConst(0)),
      arena.eq(arena.mod(y, arena.intConst(5)), arena.intConst(3))};
  Enumerator problem(cs);
  EXPECT_FALSE(problem.qualifies());
  EXPECT_EQ(problem.run(kNeverStop).reason, "no saturation threshold for y");
  // Z3 answers it in the same attempt.
  backends::Z3Backend backend;
  const auto result = backend.enumerateOrCheck(cs);
  EXPECT_FALSE(result.enumerated);
  EXPECT_EQ(result.status, SolveStatus::Sat);
}

TEST_F(EnumerateTest, ProbeAfterAnEarlyExitRecomputesTheStaleCone) {
  // y has a lower bound only. max(y, 5) is built before the check y != 0,
  // and the check max(y, 5) <= 10 after it. The probe at y >= 0 stops at
  // y != 0 and never reaches the later check. At y >= 1, max(y, 5) keeps
  // the interval and dependence the stopped probe gave it, so only the
  // mark the stopped probe left makes this one re-evaluate the later
  // check, which depends on y until y >= 11.
  const TermRef y = arena.var("y", Sort::Int);
  std::vector<TermRef> cs;
  cs.push_back(arena.ge(y, arena.intConst(0)));
  const TermRef highest = arena.max(y, arena.intConst(5));
  cs.push_back(arena.ne(y, arena.intConst(0)));
  cs.push_back(arena.le(highest, arena.intConst(10)));
  Enumerator problem(cs);
  ASSERT_TRUE(problem.qualifies());
  const auto box = problem.domains();
  ASSERT_EQ(box.size(), 1u);
  EXPECT_EQ(box[0].lo, 0);
  EXPECT_EQ(box[0].hi, 11);
  const Outcome out = problem.run(kNeverStop);
  ASSERT_EQ(out.status, Status::Sat);
  EXPECT_EQ(out.model.at("y"), 1);
  EXPECT_EQ(out.stats.saturated, 1u);
}

// ---- the search budget --------------------------------------------------

/// x*2^20 + y*2^10 + z == -1 over [0, 1023]^3: every prefix reaches a
/// distinct partial sum, so nothing merges and the search would evaluate
/// about 3 * 2^30 nodes.
std::vector<TermRef> unmergeable(ir::TermArena& arena) {
  std::vector<TermRef> cs;
  TermRef sum = arena.intConst(0);
  std::int64_t weight = std::int64_t{1} << 20;
  for (int i = 0; i < 3; ++i) {
    const TermRef v = arena.var("v" + std::to_string(i), Sort::Int);
    cs.push_back(arena.ge(v, arena.intConst(0)));
    cs.push_back(arena.le(v, arena.intConst(1023)));
    sum = arena.add(sum, arena.mul(v, arena.intConst(weight)));
    weight /= 1024;
  }
  cs.push_back(arena.eq(sum, arena.intConst(-1)));
  return cs;
}

TEST_F(EnumerateTest, WorkAboveTheBoundDeclines) {
  const std::vector<TermRef> cs = unmergeable(arena);
  EXPECT_TRUE(Enumerator(cs).qualifies());  // the budget is spent, not predicted
  // The search declines and the same attempt goes on to Z3.
  backends::Z3Backend backend;
  const auto result = backend.enumerateOrCheck(cs);
  EXPECT_FALSE(result.enumerated);
  EXPECT_EQ(result.status, SolveStatus::Unsat);
  EXPECT_GT(result.search.evaluations, kMaxEvaluations);
  EXPECT_GT(result.search.visited, 0u);
}

TEST_F(EnumerateTest, WorkCountsNodesAsWellAsAssignments) {
  // x*2048 + y <= -1 over [0, 2047]^2: 2^22 assignments at five
  // evaluations each (the assignment, the sum, y's two bounds and the
  // comparison) fit the budget...
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  std::vector<TermRef> cs;
  bound(cs, x, 0, 2047);
  bound(cs, y, 0, 2047);
  const TermRef sum = arena.add(arena.mul(x, arena.intConst(2048)), y);
  cs.push_back(arena.le(sum, arena.intConst(-1)));
  const Outcome small = Enumerator(cs).run(kNeverStop);
  EXPECT_EQ(small.status, Status::Unsat);
  EXPECT_LE(small.stats.evaluations, kMaxEvaluations);
  // ...but not with 32 more nodes to evaluate per assignment.
  TermRef chain = sum;
  for (int i = 1; i <= 32; ++i) chain = arena.add(chain, arena.intConst(i));
  cs.back() = arena.le(chain, arena.intConst(-1));
  const Outcome large = Enumerator(cs).run(kNeverStop);
  EXPECT_EQ(large.status, Status::Declined);
  EXPECT_EQ(large.reason, "evaluations above 2^27");
  EXPECT_GT(large.stats.evaluations, kMaxEvaluations);
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

// ---- brute-force reference --------------------------------------------

/// A random time-layered problem: a backlog and a service counter updated
/// once per step from that step's input, in the clamp/drain/threshold
/// shapes of the library models, with checks along the way. Some inputs
/// have a lower bound only. Steps revisit backlog values, so cuts share
/// live values and the memo has work to do.
struct Layered {
  std::vector<TermRef> cs;
  std::vector<TermRef> oneSided;
};

Layered layeredProblem(ir::TermArena& arena, std::mt19937& rng) {
  const auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
  const auto num = [&arena](std::int64_t v) { return arena.intConst(v); };
  Layered p;
  const std::int64_t cap = 2 + pick(3);
  TermRef backlog = num(pick(2));
  TermRef served = num(0);
  const int steps = 2 + pick(4);
  for (int t = 0; t < steps; ++t) {
    const TermRef a = arena.var("a" + std::to_string(t), Sort::Int);
    const std::int64_t lo = pick(2);
    p.cs.push_back(arena.ge(a, num(lo)));
    if (pick(3) == 0) {
      p.oneSided.push_back(a);
    } else {
      p.cs.push_back(arena.le(a, num(lo + pick(3))));
    }
    switch (pick(4)) {
      case 0:  // admit, clamped at the capacity
        backlog = arena.min(arena.add(backlog, a), num(cap));
        break;
      case 1: {  // serve what the input allows
        const TermRef out = arena.min(backlog, a);
        backlog = arena.sub(backlog, out);
        served = arena.add(served, out);
        break;
      }
      case 2:  // drain, floored at zero
        backlog = arena.max(num(0), arena.sub(backlog, a));
        break;
      default:  // a threshold: one more packet once the input reaches 2
        backlog = arena.ite(arena.le(num(2), a),
                            arena.min(arena.add(backlog, num(1)), num(cap)),
                            backlog);
        break;
    }
    if (pick(3) == 0) p.cs.push_back(arena.le(backlog, num(cap - pick(2))));
  }
  switch (pick(3)) {
    case 0: p.cs.push_back(arena.eq(backlog, num(pick(static_cast<int>(cap) + 2)))); break;
    case 1: p.cs.push_back(arena.le(num(pick(4)), served)); break;
    default:
      p.cs.push_back(arena.mkAnd(arena.le(num(1), backlog),
                                 arena.le(num(pick(3)), served)));
      break;
  }
  return p;
}

/// The lexicographically first assignment of `box` (first variable most
/// significant, values ascending) satisfying every constraint, by plain
/// evaluation under ir::evalTerms.
std::optional<ir::Assignment> bruteForce(
    const std::vector<Enumerator::Domain>& box,
    std::span<const TermRef> cs) {
  std::vector<std::int64_t> cur;
  for (const auto& d : box) cur.push_back(d.lo);
  for (;;) {
    ir::Assignment a;
    for (std::size_t i = 0; i < box.size(); ++i) a[box[i].var->name] = cur[i];
    const std::vector<std::int64_t> values = ir::evalTerms(cs, a);
    if (std::all_of(values.begin(), values.end(),
                    [](std::int64_t v) { return v == 1; })) {
      return a;
    }
    std::size_t i = box.size();
    while (i > 0 && cur[i - 1] == box[i - 1].hi) {
      cur[i - 1] = box[i - 1].lo;
      --i;
    }
    if (i == 0) return std::nullopt;
    ++cur[i - 1];
  }
}

TEST(EnumerateBruteForce, FirstModelMatchesPlainSearchPastEveryThreshold) {
  std::size_t compared = 0;
  std::size_t unsat = 0;
  std::uint64_t memoHits = 0;
  std::uint64_t saturated = 0;
  for (unsigned seed = 0; seed < 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    ir::TermArena arena;
    const Layered p = layeredProblem(arena, rng);
    Enumerator problem(p.cs);
    if (!problem.qualifies()) continue;
    const Outcome out = problem.run(kNeverStop);
    ASSERT_TRUE(out.status == Status::Sat || out.status == Status::Unsat)
        << out.reason;
    // Widen each derived threshold a few values: plain search over the
    // wider box must find the same first model, or none.
    std::vector<Enumerator::Domain> box = problem.domains();
    std::uint64_t size = 1;
    for (auto& d : box) {
      if (std::find(p.oneSided.begin(), p.oneSided.end(), d.var) !=
          p.oneSided.end()) {
        d.hi += 3;
      }
      size *= static_cast<std::uint64_t>(d.hi - d.lo + 1);
    }
    if (size > 4096) continue;
    const auto expected = bruteForce(box, p.cs);
    ASSERT_EQ(out.status == Status::Sat, expected.has_value());
    if (expected) {
      EXPECT_EQ(out.model, *expected);
    } else {
      ++unsat;
    }
    ++compared;
    memoHits += out.stats.memoHits;
    saturated += out.stats.saturated;
  }
  EXPECT_GE(compared, 500u);
  EXPECT_GE(unsat, 50u);
  EXPECT_GT(memoHits, 0u);
  EXPECT_GT(saturated, 0u);
}

TEST_F(EnumerateTest, MemoSkipsPrefixesThatReachARefutedState) {
  // A counter clamped at 3 and an impossible final value: after the first
  // few steps every prefix lands on one of four counter values, each
  // refuted once.
  std::vector<TermRef> cs;
  TermRef count = arena.intConst(0);
  for (int t = 0; t < 12; ++t) {
    const TermRef a = arena.var("a" + std::to_string(t), Sort::Int);
    bound(cs, a, 0, 2);
    count = arena.min(arena.add(count, a), arena.intConst(3));
  }
  cs.push_back(arena.eq(count, arena.intConst(4)));
  const Outcome out = Enumerator(cs).run(kNeverStop);
  EXPECT_EQ(out.status, Status::Unsat);
  EXPECT_GT(out.stats.memoHits, 0u);
  EXPECT_EQ(out.stats.liveWidth, 1u);
  // 3^12 = 531,441 assignments without the memo; with it, a few per
  // counter value and step.
  EXPECT_LT(out.stats.visited, 200u);
}

// ---- term ids: sparse, and from one arena only ---------------------------

/// Eight steps of a counter clamped at 3, some inputs bounded below only,
/// a Bool gate and checks along the way. `pad` runs before every term the
/// problem interns; it may intern terms of its own that share none with
/// the problem.
std::vector<TermRef> paddedCounter(ir::TermArena& arena,
                                   const std::function<void()>& pad) {
  const auto num = [&](std::int64_t v) {
    pad();
    return arena.intConst(v);
  };
  std::vector<TermRef> cs;
  TermRef count = num(0);
  for (int t = 0; t < 8; ++t) {
    pad();
    const TermRef a = arena.var("a" + std::to_string(t), Sort::Int);
    cs.push_back(arena.le(num(t % 2), a));
    if (t % 3 != 2) cs.push_back(arena.le(a, num(2)));
    pad();
    const TermRef gate = arena.var("g" + std::to_string(t), Sort::Bool);
    pad();
    count = arena.ite(gate, arena.min(arena.add(count, a), num(3)), count);
    if (t % 4 == 3) {
      pad();
      cs.push_back(arena.le(num(1), count));
    }
  }
  pad();
  cs.push_back(arena.eq(count, num(3)));
  return cs;
}

void expectSameOutcome(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.stats.visited, b.stats.visited);
  EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
  EXPECT_EQ(a.stats.memoHits, b.stats.memoHits);
  EXPECT_EQ(a.stats.deadEntries, b.stats.deadEntries);
  EXPECT_EQ(a.stats.liveWidth, b.stats.liveWidth);
  EXPECT_EQ(a.stats.saturated, b.stats.saturated);
}

TEST_F(EnumerateTest, SparseIdsChangeNothing) {
  // The tables are indexed by term id: a problem whose terms sit far apart
  // in a large arena must search exactly as it does in a fresh one.
  const std::vector<TermRef> dense = paddedCounter(arena, [] {});
  ir::TermArena padded;
  int padding = 0;
  const auto pad = [&] {
    // Unrelated terms, none of them shared with the problem.
    const TermRef p = padded.var("pad" + std::to_string(padding), Sort::Int);
    TermRef acc = p;
    for (int i = 0; i < 150; ++i) {
      acc = padded.add(acc, padded.intConst(1000000 + padding * 150 + i));
    }
    ++padding;
  };
  const std::vector<TermRef> sparse = paddedCounter(padded, pad);
  ASSERT_GT(padded.size(), 10 * arena.size());

  Enumerator a(dense);
  Enumerator b(sparse);
  ASSERT_TRUE(a.qualifies());
  ASSERT_TRUE(b.qualifies());
  const auto boxA = a.domains();
  const auto boxB = b.domains();
  ASSERT_EQ(boxA.size(), boxB.size());
  for (std::size_t i = 0; i < boxA.size(); ++i) {
    EXPECT_EQ(boxA[i].var->name, boxB[i].var->name);
    EXPECT_EQ(boxA[i].lo, boxB[i].lo);
    EXPECT_EQ(boxA[i].hi, boxB[i].hi);
  }
  const Outcome outA = a.run(kNeverStop);
  const Outcome outB = b.run(kNeverStop);
  ASSERT_EQ(outA.status, Status::Sat);
  EXPECT_GT(outA.stats.saturated, 0u);
  expectSameOutcome(outA, outB);

  // The same with the final value out of reach: the whole space is
  // refuted through the memo.
  std::vector<TermRef> denseUnsat = dense;
  std::vector<TermRef> sparseUnsat = sparse;
  denseUnsat.push_back(arena.mkNot(dense.back()));
  sparseUnsat.push_back(padded.mkNot(sparse.back()));
  const Outcome unsatA = Enumerator(denseUnsat).run(kNeverStop);
  const Outcome unsatB = Enumerator(sparseUnsat).run(kNeverStop);
  EXPECT_EQ(unsatA.status, Status::Unsat);
  expectSameOutcome(unsatA, unsatB);
}

TEST_F(EnumerateTest, TermsFromTwoArenasDecline) {
  // x and y share an id in their own arenas, so a constraint reading both
  // would alias them in any id-indexed table.
  ir::TermArena other;
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = other.var("y", Sort::Int);
  ASSERT_EQ(x->id, y->id);
  std::vector<TermRef> cs;
  bound(cs, x, 0, 3);
  cs.push_back(other.ge(y, other.intConst(0)));
  cs.push_back(other.le(y, other.intConst(3)));
  cs.push_back(arena.lt(x, y));
  Enumerator problem(cs);
  EXPECT_FALSE(problem.qualifies());
  EXPECT_TRUE(problem.domains().empty());
  const Outcome out = problem.run(kNeverStop);
  EXPECT_EQ(out.status, Status::Declined);
  EXPECT_EQ(out.reason, "terms from more than one arena");
  EXPECT_THROW((void)ir::evalTerms(cs, {{"x", 0}, {"y", 1}}), Error);

  // A term of the other arena whose id lies above its reader's: no id is
  // shared, but id order is no longer topological.
  for (int i = 0; i < 100; ++i) (void)other.intConst(100 + i);
  const TermRef late = other.var("late", Sort::Int);
  ASSERT_GT(late->id, arena.size());
  const std::vector<TermRef> reads = {arena.le(arena.intConst(0), late)};
  EXPECT_EQ(Enumerator(reads).run(kNeverStop).reason,
            "terms from more than one arena");
  EXPECT_THROW((void)ir::evalTerm(reads.front(), {{"late", 1}}), Error);
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
  /// A property every run has (check SAT, verify UNSAT) and one no run
  /// has (check UNSAT, verify SAT).
  const char* holds;
  const char* impossible;
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
       4, "aimd.mcwnd[T-1] >= 1", "aimd.msent[T-1] > 2*T"},
      {"delay_server", {}, {input("din", 8, 2), output("dout", 16)}, 4,
       "delay.mreleased[T-1] <= 2*T", "delay.mreleased[0] > 2"},
      {"drr", {{"N", 2}, {"QUANTUM", 2}},
       {input("ibs", 6, 2), output("ob", 16)}, 4,
       "drr.bdeq.0[1] + drr.bdeq.1[1] <= 4",
       "drr.bdeq.0[1] + drr.bdeq.1[1] > 4"},
      {"fq_buggy", {{"N", 2}}, {input("ibs", 6, 3), output("ob", 32)}, 5,
       "fq.cdeq.0[T-1] <= T", "fq.cdeq.0[T-1] + fq.cdeq.1[T-1] > T"},
      {"fq_fixed", {{"N", 2}}, {input("ibs", 6, 3), output("ob", 32)}, 5,
       "fq.cdeq.0[T-1] <= T", "fq.cdeq.0[T-1] + fq.cdeq.1[T-1] > T"},
      {"path_server", {{"RATE", 1}, {"BUCKET", 2}},
       {input("pin", 8, 2), output("pout", 16)}, 4,
       "path.mserved[T-1] <= T", "path.mserved[T-1] > T"},
      {"round_robin", {{"N", 2}}, {input("ibs", 6, 2), output("ob", 16)}, 4,
       "rr.cdeq.0[T-1] + rr.cdeq.1[T-1] <= T", "rr.cdeq.0[T-1] > T"},
      {"strict_priority", {{"N", 2}}, {input("ibs", 6, 2), output("ob", 16)},
       4, "sp.cdeq.0[T-1] + sp.cdeq.1[T-1] <= T", "sp.cdeq.1[T-1] > T"},
  };
}

std::string readModel(const std::string& name) {
  std::ifstream in(std::string(BUFFY_MODELS_DIR) + "/" + name + ".bfy");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The raw standalone problem the initial rung enumerates for one query:
/// the encoding's assumptions and soundness constraints, the workload, and
/// the query (for verify, its negation together with the in-program
/// obligations).
std::vector<TermRef> rawProblem(core::Encoding& enc, const core::Query& query,
                                bool forVerify) {
  std::vector<TermRef> cs = enc.assumptions;
  cs.insert(cs.end(), enc.soundness.begin(), enc.soundness.end());
  cs.insert(cs.end(), enc.workloadTerms.begin(), enc.workloadTerms.end());
  TermRef q = query.build(enc.seriesView(), enc.arena);
  if (forVerify) {
    for (const auto& obligation : enc.obligations) {
      q = enc.arena.mkAnd(q, obligation.cond);
    }
    q = enc.arena.mkNot(q);
  }
  cs.push_back(q);
  return cs;
}

/// The search counters of every golden cell: goldenScopes() order, check
/// before verify, the holding property first. The search order and the
/// memo alone decide them, so a change to how problems are compiled (term
/// layout, side tables) must leave all of them as they are.
struct PinnedCounters {
  const char* model;
  bool forVerify;
  bool holds;
  std::uint64_t visited;
  std::uint64_t memoHits;
  std::uint64_t deadEntries;
  std::uint64_t liveWidth;
  std::uint64_t saturated;
};

constexpr PinnedCounters kPinned[] = {
    {"aimd", false, true, 8, 0, 0, 10, 0},
    {"aimd", false, false, 1518, 230, 505, 11, 0},
    {"aimd", true, true, 480, 228, 159, 10, 0},
    {"aimd", true, false, 8, 0, 0, 11, 0},
    {"delay_server", false, true, 8, 0, 0, 3, 4},
    {"delay_server", false, false, 6, 0, 3, 1, 4},
    {"delay_server", true, true, 1240, 353, 131, 3, 4},
    {"delay_server", true, false, 8, 0, 0, 1, 4},
    {"drr", false, true, 8, 0, 0, 26, 0},
    {"drr", false, false, 120, 0, 39, 26, 0},
    {"drr", true, true, 120, 0, 39, 26, 0},
    {"drr", true, false, 8, 0, 0, 26, 0},
    {"fq_buggy", false, true, 10, 0, 0, 25, 0},
    {"fq_buggy", false, false, 17336, 6375, 4333, 25, 0},
    {"fq_buggy", true, true, 17336, 6375, 4333, 25, 0},
    {"fq_buggy", true, false, 10, 0, 0, 25, 0},
    {"fq_fixed", false, true, 10, 0, 0, 25, 0},
    {"fq_fixed", false, false, 15056, 5037, 3763, 25, 0},
    {"fq_fixed", true, true, 15056, 5037, 3763, 25, 0},
    {"fq_fixed", true, false, 10, 0, 0, 25, 0},
    {"path_server", false, true, 8, 0, 0, 4, 4},
    {"path_server", false, false, 255, 137, 85, 4, 4},
    {"path_server", true, true, 255, 137, 85, 4, 4},
    {"path_server", true, false, 8, 0, 0, 4, 4},
    {"round_robin", false, true, 8, 0, 0, 12, 0},
    {"round_robin", false, false, 1392, 332, 463, 12, 0},
    {"round_robin", true, true, 1392, 332, 463, 12, 0},
    {"round_robin", true, false, 8, 0, 0, 12, 0},
    {"strict_priority", false, true, 8, 0, 0, 9, 0},
    {"strict_priority", false, false, 630, 289, 209, 7, 0},
    {"strict_priority", true, true, 945, 391, 314, 9, 0},
    {"strict_priority", true, false, 8, 0, 0, 7, 0},
};

TEST(EnumerateDifferential, EveryExampleModelAgreesWithZ3) {
  std::uint64_t saturated = 0;
  std::size_t cell = 0;
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

    for (const bool forVerify : {false, true}) {
      for (const bool holds : {true, false}) {
        const char* query = holds ? m.holds : m.impossible;
        SCOPED_TRACE(std::string(m.name) + (forVerify ? " verify " : " check ") +
                     query);
        const std::vector<TermRef> problem =
            rawProblem(*enc, core::Query::expr(query), forVerify);
        // Every example model enumerates at its golden scope, havoced
        // path_server and delay_server included.
        Enumerator enumerator(problem);
        ASSERT_TRUE(enumerator.qualifies())
            << enumerator.run(kNeverStop).reason;
        const Outcome out = enumerator.run(kNeverStop);
        ASSERT_TRUE(out.status == Status::Sat || out.status == Status::Unsat)
            << out.reason;
        // check SAT iff the property can hold; verify SAT iff it can fail.
        EXPECT_EQ(out.status == Status::Sat, holds != forVerify);
        ASSERT_LT(cell, std::size(kPinned));
        const PinnedCounters& pin = kPinned[cell++];
        EXPECT_STREQ(pin.model, m.name);
        EXPECT_EQ(pin.forVerify, forVerify);
        EXPECT_EQ(pin.holds, holds);
        EXPECT_EQ(out.stats.visited, pin.visited);
        EXPECT_EQ(out.stats.memoHits, pin.memoHits);
        EXPECT_EQ(out.stats.deadEntries, pin.deadEntries);
        EXPECT_EQ(out.stats.liveWidth, pin.liveWidth);
        EXPECT_EQ(out.stats.saturated, pin.saturated);
        backends::Z3Backend z3;
        EXPECT_EQ(out.status == Status::Sat ? SolveStatus::Sat
                                            : SolveStatus::Unsat,
                  z3.check(problem).status);
        if (out.status == Status::Sat) {
          for (const TermRef c : problem) {
            EXPECT_EQ(ir::evalTerm(c, out.model), 1);
          }
        }
        saturated += out.stats.saturated;
      }
    }
  }
  EXPECT_GT(saturated, 0u);  // the havoc models' one-sided variables
  EXPECT_EQ(cell, std::size(kPinned));
}

// ---- layouts: the structural half laid out once, extended per query -----

/// Every field of two outcomes, as one comparison.
bool sameOutcome(const Outcome& a, const Outcome& b) {
  return a.status == b.status && a.model == b.model && a.reason == b.reason &&
         a.stats.visited == b.stats.visited &&
         a.stats.evaluations == b.stats.evaluations &&
         a.stats.memoHits == b.stats.memoHits &&
         a.stats.deadEntries == b.stats.deadEntries &&
         a.stats.liveWidth == b.stats.liveWidth &&
         a.stats.saturated == b.stats.saturated;
}

std::string describe(const Outcome& o) {
  return std::to_string(static_cast<int>(o.status)) + " '" + o.reason +
         "' visited " + std::to_string(o.stats.visited) + " evaluations " +
         std::to_string(o.stats.evaluations) + " memo " +
         std::to_string(o.stats.memoHits) + " dead " +
         std::to_string(o.stats.deadEntries) + " width " +
         std::to_string(o.stats.liveWidth) + " saturated " +
         std::to_string(o.stats.saturated);
}

/// `cs` solved as a layout of its first `split` constraints extended by
/// the rest.
Outcome solvedAtSplit(std::span<const TermRef> cs, std::size_t split) {
  const auto layout = std::make_shared<const Layout>(cs.first(split));
  return Enumerator(layout, cs.subspan(split)).run(kNeverStop);
}

TEST(EnumerateLayout, DifferentialCellsAgreeAtEverySplitPoint) {
  std::size_t cells = 0;
  std::size_t splits = 0;
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
    for (const bool forVerify : {false, true}) {
      for (const bool holds : {true, false}) {
        const char* query = holds ? m.holds : m.impossible;
        SCOPED_TRACE(std::string(m.name) + (forVerify ? " verify " : " check ") +
                     query);
        const std::vector<TermRef> problem =
            rawProblem(*enc, core::Query::expr(query), forVerify);
        const Outcome fresh = Enumerator(problem).run(kNeverStop);
        ++cells;
        for (std::size_t split = 0; split <= problem.size(); ++split) {
          const Outcome extended = solvedAtSplit(problem, split);
          ++splits;
          if (!sameOutcome(fresh, extended)) {
            ADD_FAILURE() << "split " << split << " of " << problem.size()
                          << ": " << describe(extended) << " against "
                          << describe(fresh);
            break;
          }
        }
      }
    }
  }
  EXPECT_EQ(cells, std::size(kPinned));
  EXPECT_GT(splits, 10 * cells);
}

TEST(EnumerateLayout, BruteForceProblemsAgreeAtASeededSplitPoint) {
  std::size_t saturated = 0;
  for (unsigned seed = 0; seed < 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    ir::TermArena arena;
    const Layered p = layeredProblem(arena, rng);
    std::mt19937 pick(seed + 7919);
    const std::size_t split = pick() % (p.cs.size() + 1);
    Enumerator fresh(p.cs);
    const auto layout =
        std::make_shared<const Layout>(std::span(p.cs).first(split));
    Enumerator extended(layout, std::span(p.cs).subspan(split));
    ASSERT_EQ(fresh.qualifies(), extended.qualifies());
    const auto freshBox = fresh.domains();
    const auto extendedBox = extended.domains();
    ASSERT_EQ(freshBox.size(), extendedBox.size());
    for (std::size_t i = 0; i < freshBox.size(); ++i) {
      EXPECT_EQ(freshBox[i].var, extendedBox[i].var);
      EXPECT_EQ(freshBox[i].lo, extendedBox[i].lo);
      EXPECT_EQ(freshBox[i].hi, extendedBox[i].hi);
    }
    const Outcome a = fresh.run(kNeverStop);
    const Outcome b = extended.run(kNeverStop);
    EXPECT_TRUE(sameOutcome(a, b))
        << "split " << split << ": " << describe(b) << " against "
        << describe(a);
    saturated += a.stats.saturated;
  }
  EXPECT_GT(saturated, 0u);
}

TEST_F(EnumerateTest, DeltaWithANewVariableIsLaidOutAfresh) {
  // y is created before x, so a fresh compile searches y first: appending
  // it after the layout's x would change the search order.
  const TermRef y = arena.var("y", Sort::Int);
  const TermRef x = arena.var("x", Sort::Int);
  std::vector<TermRef> structural;
  bound(structural, x, 0, 5);
  structural.push_back(arena.le(arena.intConst(2), arena.add(x, x)));
  std::vector<TermRef> delta;
  bound(delta, y, 0, 5);
  delta.push_back(arena.eq(arena.add(x, y), arena.intConst(6)));
  std::vector<TermRef> all = structural;
  all.insert(all.end(), delta.begin(), delta.end());

  const auto layout = std::make_shared<const Layout>(structural);
  Enumerator extended(layout, delta);
  Enumerator fresh(all);
  EXPECT_EQ(extended.setupNodes(), fresh.setupNodes());
  const auto box = extended.domains();
  ASSERT_EQ(box.size(), 2u);
  EXPECT_EQ(box[0].var, y);
  const Outcome out = extended.run(kNeverStop);
  ASSERT_EQ(out.status, Status::Sat);
  EXPECT_EQ(out.model.at("y"), 1);
  EXPECT_EQ(out.model.at("x"), 5);
  EXPECT_TRUE(sameOutcome(out, fresh.run(kNeverStop)));
  // The caller's layout is left as it was, for the next delta.
  EXPECT_LT(layout->nodes(), fresh.setupNodes());
}

TEST_F(EnumerateTest, DeltaBoundsAStructuralVariable) {
  // x has no lower bound in the structural half: the layout does not
  // decline, because the delta may bound it.
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef w = arena.var("w", Sort::Int);
  const std::vector<TermRef> structural = {arena.le(x, arena.intConst(9)),
                                           arena.le(w, arena.intConst(9))};
  const auto layout = std::make_shared<const Layout>(structural);
  const std::vector<TermRef> bounds = {arena.ge(x, arena.intConst(2)),
                                       arena.ge(w, arena.intConst(4)),
                                       arena.lt(w, x)};
  Enumerator bounded(layout, bounds);
  ASSERT_TRUE(bounded.qualifies());
  const Outcome out = bounded.run(kNeverStop);
  ASSERT_EQ(out.status, Status::Sat);
  EXPECT_EQ(out.model.at("x"), 5);
  EXPECT_EQ(out.model.at("w"), 4);
  std::vector<TermRef> all = structural;
  all.insert(all.end(), bounds.begin(), bounds.end());
  EXPECT_TRUE(sameOutcome(out, Enumerator(all).run(kNeverStop)));

  // Left unbounded, the variable named is the one a fresh walk of both
  // halves meets first. It starts from the delta's last conjunct, w < x,
  // and meets x there; the structural half alone would meet w first.
  const std::vector<TermRef> order = {arena.lt(w, x)};
  EXPECT_EQ(Enumerator(layout, {}).run(kNeverStop).reason,
            "unbounded variable w");
  const Outcome declined = Enumerator(layout, order).run(kNeverStop);
  EXPECT_EQ(declined.reason, "unbounded variable x");
  all = structural;
  all.push_back(order.front());
  EXPECT_TRUE(sameOutcome(declined, Enumerator(all).run(kNeverStop)));
}

TEST_F(EnumerateTest, DeltaFromAnotherArenaDeclines) {
  // y takes x's id in its own arena: the delta's walk must see the clash
  // with the layout's table, as a fresh walk of both halves does.
  ir::TermArena other;
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = other.var("y", Sort::Int);
  ASSERT_EQ(x->id, y->id);
  std::vector<TermRef> structural;
  bound(structural, x, 0, 3);
  const auto layout = std::make_shared<const Layout>(structural);
  const std::vector<TermRef> delta = {other.ge(y, other.intConst(0))};
  Enumerator extended(layout, delta);
  EXPECT_FALSE(extended.qualifies());
  const Outcome out = extended.run(kNeverStop);
  EXPECT_EQ(out.reason, "terms from more than one arena");
  std::vector<TermRef> all = structural;
  all.push_back(delta.front());
  EXPECT_TRUE(sameOutcome(out, Enumerator(all).run(kNeverStop)));

  // The walk's decline comes before any decision of the structural half,
  // a constant-false conjunct's included.
  const std::vector<TermRef> falsified = {arena.falseTerm(),
                                          arena.ge(x, arena.intConst(0))};
  const auto unsat = std::make_shared<const Layout>(falsified);
  EXPECT_EQ(Enumerator(unsat, delta).run(kNeverStop).reason,
            "terms from more than one arena");
}

TEST_F(EnumerateTest, ConstantFalseStructuralConjunctDecidesFirst) {
  // The structural conjuncts come first in the conjunct loop: a false one
  // decides the problem before the delta's non-Boolean conjunct or its
  // empty range.
  const TermRef x = arena.var("x", Sort::Int);
  const std::vector<TermRef> structural = {arena.ge(x, arena.intConst(0)),
                                           arena.falseTerm()};
  const auto layout = std::make_shared<const Layout>(structural);
  const std::vector<TermRef> deltas[] = {
      {arena.intConst(1)},
      {arena.le(x, arena.intConst(-1))},
      {arena.lt(x, arena.intConst(3))},
  };
  for (const auto& delta : deltas) {
    std::vector<TermRef> all = structural;
    all.insert(all.end(), delta.begin(), delta.end());
    const Outcome out = Enumerator(layout, delta).run(kNeverStop);
    EXPECT_EQ(out.status, Status::Unsat);
    EXPECT_TRUE(sameOutcome(out, Enumerator(all).run(kNeverStop)));
  }
  // A delta's own non-Boolean conjunct still declines a clean layout.
  std::vector<TermRef> clean;
  bound(clean, x, 0, 3);
  const Outcome declined =
      Enumerator(std::make_shared<const Layout>(clean),
                 std::vector<TermRef>{arena.intConst(1)})
          .run(kNeverStop);
  EXPECT_EQ(declined.reason, "constraint is not boolean");
}

TEST_F(EnumerateTest, ExtensionLaysOutOnlyTheDeltasNewNodes) {
  const TermRef x = arena.var("x", Sort::Int);
  const TermRef y = arena.var("y", Sort::Int);
  std::vector<TermRef> structural;
  bound(structural, x, 0, 3);
  bound(structural, y, 0, 3);
  const TermRef sum = arena.add(x, y);
  structural.push_back(arena.le(sum, arena.intConst(5)));
  const auto layout = std::make_shared<const Layout>(structural);
  EXPECT_EQ(Enumerator(structural).setupNodes(), layout->nodes());
  // sum >= 4 adds the comparison and the constant 4; sum is the layout's.
  const std::vector<TermRef> delta = {arena.ge(sum, arena.intConst(4))};
  Enumerator extended(layout, delta);
  EXPECT_EQ(extended.setupNodes(), 2u);
  const Outcome out = extended.run(kNeverStop);
  ASSERT_EQ(out.status, Status::Sat);
  EXPECT_EQ(out.model.at("x"), 1);
  EXPECT_EQ(out.model.at("y"), 3);
  // A delta of the layout's own nodes adds none.
  EXPECT_EQ(Enumerator(layout, structural).setupNodes(), 0u);
}

}  // namespace
}  // namespace buffy::enumerate
