// Fuzz target: the memoized enumerator (DESIGN.md §7) against Z3 and
// against plain search. The first byte picks one of two shapes:
//
//  * a small term DAG over at most four variables: Int variables over
//    narrow ranges (some next to the int64 limits, some with a lower bound
//    only, some with no lower bound) or Bool variables, arithmetic
//    including mul/div/mod, constants near the int64 limits, comparisons,
//    boolean connectives and ites;
//  * a time-layered DAG: up to eight steps, each with one input variable
//    (two-sided, or bounded below only) that updates two state terms
//    through the clamp/drain/threshold shapes of the library models, with
//    checks along the way. Steps revisit state values, so cuts share live
//    values and the memo prunes.
//
// Each problem's arena is padded with unrelated terms before and between
// its own, a number drawn from a generator seeded by the input, so term
// ids are sparse the way they are in an encoding that answers many
// queries; the problem a given input decodes to is the same.
//
// Invariants: the problem laid out as a prefix of its constraints (an
// enumerate::Layout) extended by the rest, at a split point the input
// draws, answers exactly what a fresh compile does: status, reason, model
// and every search counter; whenever the enumerator answers,
// Z3Backend::check gives the same status (or Unknown within its timeout);
// every model the enumerator returns satisfies every constraint under
// ir::evalTerm; and on a small box of small values — each derived
// threshold widened by two — plain search under ir::evalTerms finds the
// same first model, or none. A disagreement aborts.
#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "backends/z3/z3_backend.hpp"
#include "enumerate/enumerator.hpp"
#include "ir/term_eval.hpp"

namespace {

using buffy::enumerate::Enumerator;
using buffy::enumerate::Layout;
using buffy::enumerate::Outcome;
using buffy::ir::Sort;
using buffy::ir::TermRef;

constexpr std::int64_t kConstants[] = {
    0,         1,         -1,        2,          3,         -7,
    64,        1 << 20,   INT64_MAX, INT64_MIN,  INT64_MAX - 1,
    INT64_MIN + 1,        INT64_MAX / 2,         INT64_MIN / 2,
    INT64_C(3037000500),  -INT64_C(3037000500)};

/// Values up to this magnitude cannot overflow the brute force's
/// evaluation of these DAGs when they hold no product: ir::evalTerms wraps
/// where the enumerator declines, and the widened box reaches values the
/// enumerator never evaluates.
constexpr std::int64_t kSmall = std::int64_t{1} << 20;

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  std::uint8_t byte() { return at_ < size_ ? data_[at_++] : 0; }
  [[nodiscard]] bool done() const { return at_ >= size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t at_ = 0;
};

/// Interns a random number (0 to 63) of terms that no problem reads: a
/// fresh variable summed with constants far from any the decoders pick.
class Padding {
 public:
  Padding(buffy::ir::TermArena& arena, const std::uint8_t* data,
          std::size_t size)
      : arena_(arena) {
    for (std::size_t i = 0; i < size; ++i) {
      state_ = (state_ ^ data[i]) * 1099511628211ULL;  // FNV-1a
    }
  }

  void operator()() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const int terms = static_cast<int>(state_ >> 58);
    TermRef acc = arena_.var("pad" + std::to_string(vars_++), Sort::Int);
    for (int i = 0; i < terms; ++i) {
      acc = arena_.add(acc, arena_.intConst(1000003 + i));
    }
  }

 private:
  buffy::ir::TermArena& arena_;
  std::uint64_t state_ = 14695981039346656037ULL;
  int vars_ = 0;
};

struct Problem {
  std::vector<TermRef> ints;
  std::vector<TermRef> bools;
  std::vector<TermRef> constraints;
  /// Variables with a lower bound only.
  std::vector<TermRef> oneSided;
  /// False once a constant or a bound leaves [-kSmall, kSmall], or a
  /// product appears.
  bool small = true;
};

TermRef pick(const std::vector<TermRef>& from, std::uint8_t b) {
  return from[b % from.size()];
}

void noteValue(Problem& p, std::int64_t v) {
  if (v < -kSmall || v > kSmall) p.small = false;
}

Problem decodeSmall(buffy::ir::TermArena& arena, Reader& in,
                    Padding& pad) {
  Problem p;
  p.ints.push_back(arena.intConst(0));
  p.bools.push_back(arena.trueTerm());
  const int vars = 1 + in.byte() % 4;
  for (int i = 0; i < vars; ++i) {
    pad();
    const std::uint8_t kind = in.byte();
    const std::string name = "v" + std::to_string(i);
    if (kind % 4 == 0) {
      p.bools.push_back(arena.var(name, Sort::Bool));
      continue;
    }
    const TermRef v = arena.var(name, Sort::Int);
    std::int64_t lo = static_cast<std::int8_t>(in.byte());
    if (kind % 4 == 3) {  // a range next to one of the int64 limits
      lo = (kind & 0x10) != 0 ? INT64_MAX - 4 : INT64_MIN;
    }
    const std::int64_t hi = lo + in.byte() % 5;
    noteValue(p, lo);
    noteValue(p, hi);
    switch (kind >> 5) {
      case 7:  // bounded below only: saturates or declines
        p.constraints.push_back(arena.le(arena.intConst(lo), v));
        p.oneSided.push_back(v);
        break;
      case 6:  // bounded above only: must decline
        p.constraints.push_back(arena.le(v, arena.intConst(hi)));
        break;
      default:
        p.constraints.push_back(arena.le(arena.intConst(lo), v));
        p.constraints.push_back(arena.le(v, arena.intConst(hi)));
        break;
    }
    p.ints.push_back(v);
  }
  for (int op = 0; op < 24 && !in.done(); ++op) {
    pad();
    const std::uint8_t code = in.byte();
    const TermRef a = pick(p.ints, in.byte());
    const TermRef b = pick(p.ints, in.byte());
    const TermRef c = pick(p.bools, in.byte());
    const TermRef d = pick(p.bools, in.byte());
    switch (code % 16) {
      case 0: p.ints.push_back(arena.add(a, b)); break;
      case 1: p.ints.push_back(arena.sub(a, b)); break;
      case 2:  // products of small values can still leave int64
        p.ints.push_back(arena.mul(a, b));
        p.small = false;
        break;
      case 3: p.ints.push_back(arena.div(a, b)); break;
      case 4: p.ints.push_back(arena.mod(a, b)); break;
      case 5: p.ints.push_back(arena.neg(a)); break;
      case 6: p.ints.push_back(arena.ite(c, a, b)); break;
      case 7: {
        const std::int64_t k = kConstants[in.byte() % std::size(kConstants)];
        noteValue(p, k);
        p.ints.push_back(arena.intConst(k));
        break;
      }
      case 8: p.bools.push_back(arena.eq(a, b)); break;
      case 9: p.bools.push_back(arena.lt(a, b)); break;
      case 10: p.bools.push_back(arena.le(a, b)); break;
      case 11: p.bools.push_back(arena.mkAnd(c, d)); break;
      case 12: p.bools.push_back(arena.mkOr(c, d)); break;
      case 13: p.bools.push_back(arena.mkNot(c)); break;
      case 14: p.bools.push_back(arena.implies(c, d)); break;
      default: p.bools.push_back(arena.eq(c, d)); break;
    }
  }
  // The last one to three boolean nodes are the query constraints.
  const std::size_t extra = 1 + in.byte() % 3;
  for (std::size_t i = 0; i < extra && i < p.bools.size(); ++i) {
    p.constraints.push_back(p.bools[p.bools.size() - 1 - i]);
  }
  return p;
}

Problem decodeLayered(buffy::ir::TermArena& arena, Reader& in,
                      Padding& pad) {
  Problem p;
  const auto num = [&arena](std::int64_t v) { return arena.intConst(v); };
  const std::int64_t cap = 1 + in.byte() % 4;
  TermRef state[2] = {num(0), num(in.byte() % 3)};
  const int steps = 2 + in.byte() % 7;
  for (int t = 0; t < steps; ++t) {
    pad();
    const std::uint8_t kind = in.byte();
    const TermRef a = arena.var("a" + std::to_string(t), Sort::Int);
    const std::int64_t lo = kind % 3;
    p.constraints.push_back(arena.le(num(lo), a));
    if ((kind & 0xc0) == 0xc0) {
      p.oneSided.push_back(a);
    } else {
      p.constraints.push_back(arena.le(a, num(lo + (kind >> 3) % 3)));
    }
    const std::uint8_t code = in.byte();
    TermRef& s = state[code & 1];
    TermRef& other = state[1 - (code & 1)];
    switch ((code >> 1) % 6) {
      case 0:  // admit, clamped at the capacity
        s = arena.min(arena.add(s, a), num(cap));
        break;
      case 1: {  // serve what the input allows, counted in the other
        const TermRef out = arena.min(s, a);
        s = arena.sub(s, out);
        other = arena.min(arena.add(other, out), num(cap + 2));
        break;
      }
      case 2:  // drain, floored at zero
        s = arena.max(num(0), arena.sub(s, a));
        break;
      case 3:  // a threshold on the input
        s = arena.ite(arena.le(num(2), a), arena.min(arena.add(s, num(1)),
                                                      num(cap)),
                      s);
        break;
      case 4:  // the path server's service: max(0, min(s, other) - a)
        s = arena.max(num(0), arena.sub(arena.min(s, other), a));
        break;
      default:  // a parity read: never saturates
        s = arena.ite(arena.eq(arena.mod(a, num(2)), num(0)), s, other);
        break;
    }
    const std::uint8_t check = in.byte();
    if (check % 4 == 0) {
      p.constraints.push_back(arena.le(state[check >> 7], num(cap)));
    } else if (check % 4 == 1) {
      p.constraints.push_back(arena.ne(state[check >> 7], num(check % 3)));
    }
  }
  const std::uint8_t query = in.byte();
  const TermRef target = num(query % (cap + 3));
  switch ((query >> 4) % 3) {
    case 0: p.constraints.push_back(arena.eq(state[0], target)); break;
    case 1: p.constraints.push_back(arena.le(target, state[1])); break;
    default:
      p.constraints.push_back(
          arena.mkAnd(arena.le(num(1), state[0]), arena.eq(state[1], target)));
      break;
  }
  return p;
}

void fail(const char* what) {
  std::fprintf(stderr, "fuzz_enumerate: %s\n", what);
  std::abort();
}

/// Plain search in the enumerator's order: the first satisfying
/// assignment of `box`, or none.
std::optional<buffy::ir::Assignment> bruteForce(
    const std::vector<Enumerator::Domain>& box,
    const std::vector<TermRef>& constraints) {
  std::vector<std::int64_t> cur;
  for (const auto& d : box) cur.push_back(d.lo);
  for (;;) {
    buffy::ir::Assignment a;
    for (std::size_t i = 0; i < box.size(); ++i) a[box[i].var->name] = cur[i];
    const std::vector<std::int64_t> values =
        buffy::ir::evalTerms(constraints, a);
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

bool sameOutcome(const Outcome& a, const Outcome& b) {
  return a.status == b.status && a.model == b.model && a.reason == b.reason &&
         a.stats.visited == b.stats.visited &&
         a.stats.evaluations == b.stats.evaluations &&
         a.stats.memoHits == b.stats.memoHits &&
         a.stats.deadEntries == b.stats.deadEntries &&
         a.stats.liveWidth == b.stats.liveWidth &&
         a.stats.saturated == b.stats.saturated;
}

/// The enumerator's box with each derived threshold widened by two, when
/// it holds at most 2,048 assignments of small values.
std::optional<std::vector<Enumerator::Domain>> smallBox(
    const Enumerator& enumerator, const Problem& p) {
  if (!p.small) return std::nullopt;
  std::vector<Enumerator::Domain> box = enumerator.domains();
  std::uint64_t size = 1;
  for (auto& d : box) {
    if (std::find(p.oneSided.begin(), p.oneSided.end(), d.var) !=
        p.oneSided.end()) {
      d.hi += 2;
    }
    if (d.lo < -kSmall || d.hi > kSmall) return std::nullopt;
    size *= static_cast<std::uint64_t>(d.hi - d.lo + 1);
    if (size > 2048) return std::nullopt;
  }
  return box;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  buffy::ir::TermArena arena;
  Padding pad(arena, data, size);
  pad();
  Reader in(data, size);
  const Problem p = (in.byte() & 1) == 0 ? decodeSmall(arena, in, pad)
                                         : decodeLayered(arena, in, pad);

  Enumerator enumerator(p.constraints);
  const Outcome out = enumerator.run([] { return false; });

  // Split point 0 extends an empty layout by the whole problem; the last
  // one lays it all out with an empty delta.
  const std::span<const TermRef> all(p.constraints);
  const std::size_t split = in.byte() % (all.size() + 1);
  Enumerator extended(std::make_shared<const Layout>(all.first(split)),
                      all.subspan(split));
  if (!sameOutcome(out, extended.run([] { return false; }))) {
    fail("a layout extended by the rest disagrees with a fresh compile");
  }
  using buffy::enumerate::Status;
  if (out.status == Status::Stopped) fail("stopped without a stop request");
  if (out.status == Status::Declined) return 0;

  if (out.status == Status::Sat) {
    for (const TermRef c : p.constraints) {
      if (buffy::ir::evalTerm(c, out.model) != 1) {
        fail("enumerated model violates a constraint");
      }
    }
  }
  if (const auto box = smallBox(enumerator, p)) {
    const auto expected = bruteForce(*box, p.constraints);
    if (expected.has_value() != (out.status == Status::Sat)) {
      fail("enumeration and plain search disagree on satisfiability");
    }
    if (expected && *expected != out.model) {
      fail("enumeration and plain search find different first models");
    }
  }
  // One backend for the whole run: every check is a fresh one-shot solver.
  static buffy::backends::Z3Backend z3;
  const auto checked = z3.check(p.constraints, buffy::backends::SolveBudget(
                                                   2000u));
  using buffy::backends::SolveStatus;
  if (checked.status == SolveStatus::Unknown) return 0;
  if ((checked.status == SolveStatus::Sat) != (out.status == Status::Sat)) {
    fail("enumeration and Z3 disagree");
  }
  return 0;
}
