// Exhaustive enumeration of small finite-domain problems (DESIGN.md §7).
//
// The paper's analyses have tiny input spaces: the §6.1 FQ queries under
// their workload have 64 possible arrival sequences, and the Figure 6
// conservation proof at T=2 has 256. A general solver spends tens of
// milliseconds on each; evaluating the term DAG on every assignment
// decides them in well under one.
//
// A problem qualifies when every variable has a constant lower and upper
// bound from a top-level unit-bound conjunct (ir::seedShape; Bool
// variables range over {0, 1}) and its work — assignments × DAG nodes —
// is at most kMaxWork. An empty domain or a constant-false conjunct makes
// it Unsat outright. Anything else is declined and goes to Z3.
//
// The search assigns variables in term-id order (creation order, which is
// roughly time-step order). Each node is evaluated once per assignment of
// its deepest variable, so assignments that share a prefix share its
// values, and each top-level conjunct is checked as soon as its last
// variable is bound: a false one prunes every extension of the prefix.
// Arithmetic is exact (ir::foldAdd/foldSub/foldMul/foldNeg); an int64
// overflow declines the whole problem rather than answer from a wrapped
// value. Division and modulo by zero are 0, as in the Z3 lowering.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ir/term.hpp"
#include "ir/term_eval.hpp"

namespace buffy::enumerate {

/// The largest problem enumerated: assignments × DAG nodes. The crossover
/// against Z3 that sets it is in EXPERIMENTS.md ("Exhaustive
/// enumeration").
inline constexpr std::uint64_t kMaxWork = std::uint64_t{1} << 24;

enum class Status {
  Sat,       // `model` satisfies every constraint
  Unsat,     // no assignment in the bounds satisfies them
  Declined,  // not enumerable (see `reason`): solve it some other way
  Stopped,   // the stop predicate fired before an answer
};

struct Outcome {
  Status status = Status::Declined;
  /// Sat: a value for every variable of the problem (Bools as 0/1).
  ir::Assignment model;
  /// Declined: why ("unbounded variable x", "work above 2^24", "int64
  /// overflow").
  std::string reason;
};

/// One problem, compiled for enumeration. Construction decides whether it
/// qualifies (one walk of the DAG, which stops at the first reason to
/// decline); run() searches.
class Enumerator {
 public:
  explicit Enumerator(std::span<const ir::TermRef> constraints);

  /// False when the problem is declined; run() then says why.
  [[nodiscard]] bool qualifies() const {
    return !decided_ || decided_->status != Status::Declined;
  }

  /// Searches for the first satisfying assignment. `stop` is polled before
  /// the first assignment and then every 4,096 assignments; when it
  /// returns true the search ends with Status::Stopped. An overflow met
  /// during the search declines the problem.
  [[nodiscard]] Outcome run(const std::function<bool()>& stop);

 private:
  struct Op {
    ir::TermKind kind;
    std::uint32_t dst;
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t c;
  };

  void compile(std::span<const ir::TermRef> constraints);
  [[nodiscard]] bool evalLevel(std::size_t level);
  [[nodiscard]] bool checksPass(std::size_t level) const;
  void decide(Status status, std::string reason = {});

  /// Set by construction when the problem is declined or already decided.
  std::optional<Outcome> decided_;

  std::vector<ir::TermRef> vars_;  // term-id order
  std::vector<std::uint32_t> varSlot_;  // each variable's node slot
  std::vector<std::int64_t> lo_;
  std::vector<std::int64_t> hi_;
  /// One value per DAG node under the current prefix (constants preset).
  std::vector<std::int64_t> values_;
  /// Operations grouped by level — level k runs once variable k-1 is
  /// bound, level 0 needs no variable — in term-id order within a level.
  std::vector<Op> ops_;
  std::vector<std::size_t> opStart_;
  /// Top-level conjunct slots, grouped by level the same way.
  std::vector<std::uint32_t> checks_;
  std::vector<std::size_t> checkStart_;
};

}  // namespace buffy::enumerate
