// Fuzz target: the exhaustive enumerator (DESIGN.md §7) against Z3. Each
// input decodes into a small term DAG over at most four bounded variables:
// Int variables over narrow ranges (some next to the int64 limits) or
// Bool variables, arithmetic including mul/div/mod, constants near the
// int64 limits, comparisons, boolean connectives and ites.
//
// Invariants: whenever the enumerator answers, Z3Backend::check gives the
// same status (or Unknown within its timeout), and every model the
// enumerator returns satisfies every constraint under ir::evalTerm. A
// disagreement aborts.
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "backends/z3/z3_backend.hpp"
#include "enumerate/enumerator.hpp"
#include "ir/term_eval.hpp"

namespace {

using buffy::ir::Sort;
using buffy::ir::TermRef;

constexpr std::int64_t kConstants[] = {
    0,         1,         -1,        2,          3,         -7,
    64,        1 << 20,   INT64_MAX, INT64_MIN,  INT64_MAX - 1,
    INT64_MIN + 1,        INT64_MAX / 2,         INT64_MIN / 2,
    INT64_C(3037000500),  -INT64_C(3037000500)};

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

struct Problem {
  std::vector<TermRef> ints;
  std::vector<TermRef> bools;
  std::vector<TermRef> constraints;
};

TermRef pick(const std::vector<TermRef>& from, std::uint8_t b) {
  return from[b % from.size()];
}

Problem decode(buffy::ir::TermArena& arena, Reader& in) {
  Problem p;
  p.ints.push_back(arena.intConst(0));
  p.bools.push_back(arena.trueTerm());
  const int vars = 1 + in.byte() % 4;
  for (int i = 0; i < vars; ++i) {
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
    p.constraints.push_back(arena.le(arena.intConst(lo), v));
    if ((kind & 0xe0) != 0xe0) {  // else unbounded above: must decline
      p.constraints.push_back(arena.le(v, arena.intConst(hi)));
    }
    p.ints.push_back(v);
  }
  for (int op = 0; op < 24 && !in.done(); ++op) {
    const std::uint8_t code = in.byte();
    const TermRef a = pick(p.ints, in.byte());
    const TermRef b = pick(p.ints, in.byte());
    const TermRef c = pick(p.bools, in.byte());
    const TermRef d = pick(p.bools, in.byte());
    switch (code % 16) {
      case 0: p.ints.push_back(arena.add(a, b)); break;
      case 1: p.ints.push_back(arena.sub(a, b)); break;
      case 2: p.ints.push_back(arena.mul(a, b)); break;
      case 3: p.ints.push_back(arena.div(a, b)); break;
      case 4: p.ints.push_back(arena.mod(a, b)); break;
      case 5: p.ints.push_back(arena.neg(a)); break;
      case 6: p.ints.push_back(arena.ite(c, a, b)); break;
      case 7:
        p.ints.push_back(arena.intConst(
            kConstants[in.byte() % std::size(kConstants)]));
        break;
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

void fail(const char* what) {
  std::fprintf(stderr, "fuzz_enumerate: %s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  buffy::ir::TermArena arena;
  Reader in(data, size);
  const Problem p = decode(arena, in);

  buffy::enumerate::Enumerator enumerator(p.constraints);
  const buffy::enumerate::Outcome out =
      enumerator.run([] { return false; });
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
