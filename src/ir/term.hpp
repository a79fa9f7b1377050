// The solver-agnostic intermediate representation: a hash-consed DAG of
// integer/boolean terms. Every backend (Z3, SMT-LIB2 text, concrete
// interpretation) consumes this IR; the symbolic evaluator and the buffer
// models produce it.
//
// Construction performs aggressive local simplification (constant folding,
// identity/absorption rules, ite collapsing), so a program evaluated over
// all-constant inputs folds to constants — that is how the concrete
// interpreter backend reuses the symbolic evaluator.
//
// Division and modulo follow the SMT-LIB Euclidean convention (the result
// of `mod` is always non-negative) so that folded constants agree with the
// Z3 backend; division by zero is defined as 0 (the Z3 lowering guards it
// the same way).
//
// Storage is dense. An arena keeps its terms contiguously, in blocks that
// never move, each term with its arguments inline (no operator takes more
// than three). A term's id is its creation index, and its arguments are
// interned before it, so ids are a topological order of the DAG. A pass
// over the terms reachable from some roots can therefore keep its side
// tables in vectors indexed by id, sized by the largest root id plus one.
// Such a table holds only terms of one arena: ids from a second arena
// collide. ir::evalTerms and the enumerator check this and fail loudly.
//
// Every term also carries its canonical structural hash (Term::hash,
// ir/term_hash.hpp), computed once when it is interned from its fields
// and its arguments' hashes. The intern table probes with it, and the
// verdict cache's keys combine it (DESIGN.md §14), so a term's identity
// and its cross-run-stable hash both cost a field read.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace buffy::ir {

enum class Sort : std::uint8_t { Int, Bool };

enum class TermKind : std::uint8_t {
  ConstInt,
  ConstBool,
  Var,
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Neg,
  Eq,   // over Int or Bool operands
  Lt,
  Le,
  And,
  Or,
  Not,
  Implies,
  Ite,  // args: cond, then, else (then/else share a sort)
};

struct Term;
/// Non-owning reference to an interned term. Terms live as long as their
/// TermArena.
using TermRef = const Term*;

/// A term's arguments, stored inline. It reads like a const
/// std::vector<TermRef>.
class TermArgs {
 public:
  /// The widest operator, Ite, takes three.
  static constexpr std::size_t kCapacity = 3;

  TermArgs() = default;
  explicit TermArgs(std::span<const TermRef> args)
      : size_(static_cast<std::uint8_t>(args.size())) {
    assert(args.size() <= kCapacity);
    std::copy(args.begin(), args.end(), items_.begin());
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  const TermRef& operator[](std::size_t i) const { return items_[i]; }
  [[nodiscard]] const TermRef* data() const { return items_.data(); }
  [[nodiscard]] const TermRef* begin() const { return items_.data(); }
  [[nodiscard]] const TermRef* end() const { return items_.data() + size_; }

 private:
  std::array<TermRef, kCapacity> items_{};
  std::uint8_t size_ = 0;
};

struct Term {
  TermKind kind;
  Sort sort;
  std::uint32_t id;          // dense, per-arena creation index
  std::uint64_t hash;        // structural, cross-run stable (term_hash.hpp)
  std::int64_t value = 0;    // ConstInt / ConstBool payload
  std::string name;          // Var payload
  TermArgs args;

  [[nodiscard]] bool isConst() const {
    return kind == TermKind::ConstInt || kind == TermKind::ConstBool;
  }
  [[nodiscard]] bool isTrue() const {
    return kind == TermKind::ConstBool && value != 0;
  }
  [[nodiscard]] bool isFalse() const {
    return kind == TermKind::ConstBool && value == 0;
  }
  [[nodiscard]] bool isZero() const {
    return kind == TermKind::ConstInt && value == 0;
  }
};

/// Euclidean division/modulo used across folding and backends.
std::int64_t euclideanDiv(std::int64_t a, std::int64_t b);
std::int64_t euclideanMod(std::int64_t a, std::int64_t b);

/// Checked 64-bit arithmetic: nullopt when the exact result is not
/// representable. Solver integers are mathematical integers, so folding a
/// wrapped value would disagree with the backends — callers keep the
/// symbolic node instead.
std::optional<std::int64_t> foldAdd(std::int64_t a, std::int64_t b);
std::optional<std::int64_t> foldSub(std::int64_t a, std::int64_t b);
std::optional<std::int64_t> foldMul(std::int64_t a, std::int64_t b);
std::optional<std::int64_t> foldNeg(std::int64_t a);

/// Owns and interns terms for one analysis run.
class TermArena {
 public:
  TermArena();
  ~TermArena();
  TermArena(const TermArena&) = delete;
  TermArena& operator=(const TermArena&) = delete;

  // --- leaves ---
  TermRef intConst(std::int64_t v);
  TermRef boolConst(bool v);
  TermRef trueTerm() { return true_; }
  TermRef falseTerm() { return false_; }
  /// Returns the variable named `name`, creating it on first use. Throws
  /// buffy::Error if it exists with a different sort.
  TermRef var(const std::string& name, Sort sort);
  /// Creates a fresh variable with a unique suffix derived from `stem`.
  TermRef freshVar(const std::string& stem, Sort sort);

  // --- integer operations ---
  TermRef add(TermRef a, TermRef b);
  TermRef sub(TermRef a, TermRef b);
  TermRef mul(TermRef a, TermRef b);
  TermRef div(TermRef a, TermRef b);
  TermRef mod(TermRef a, TermRef b);
  TermRef neg(TermRef a);
  TermRef min(TermRef a, TermRef b);
  TermRef max(TermRef a, TermRef b);
  TermRef sum(std::span<const TermRef> terms);

  // --- comparisons ---
  TermRef eq(TermRef a, TermRef b);
  TermRef ne(TermRef a, TermRef b);
  TermRef lt(TermRef a, TermRef b);
  TermRef le(TermRef a, TermRef b);
  TermRef gt(TermRef a, TermRef b) { return lt(b, a); }
  TermRef ge(TermRef a, TermRef b) { return le(b, a); }

  // --- boolean operations ---
  TermRef mkAnd(TermRef a, TermRef b);
  TermRef mkOr(TermRef a, TermRef b);
  TermRef mkNot(TermRef a);
  TermRef implies(TermRef a, TermRef b);
  TermRef andAll(std::span<const TermRef> terms);
  TermRef orAll(std::span<const TermRef> terms);

  // --- conditional ---
  TermRef ite(TermRef cond, TermRef thenT, TermRef elseT);
  /// ite over booleans, expressed via and/or when profitable.
  TermRef boolIte(TermRef cond, TermRef thenT, TermRef elseT) {
    return ite(cond, thenT, elseT);
  }

  /// All variables created so far (in creation order).
  [[nodiscard]] const std::vector<TermRef>& variables() const {
    return vars_;
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Caps the number of distinct interned nodes; creating a node past the
  /// limit throws buffy::BudgetExceeded. 0 (the default) disables the cap.
  /// Because every producer (evaluator, buffer models, optimizer, encoders)
  /// goes through intern(), this one check bounds term growth everywhere.
  void setNodeLimit(std::size_t limit) { nodeLimit_ = limit; }
  [[nodiscard]] std::size_t nodeLimit() const { return nodeLimit_; }

 private:
  /// Interning is the hottest path of encoding construction, so the table
  /// is open-addressed and keyed by the candidate's structural hash (the
  /// value the new term stores): a hit probes with a string_view/span and
  /// allocates nothing.
  struct Slot {
    std::uint64_t hash = 0;
    TermRef term = nullptr;  // nullptr marks an empty slot
  };

  TermRef intern(TermKind kind, Sort sort, std::int64_t value,
                 std::string_view name, std::span<const TermRef> args);
  TermRef mkBin(TermKind kind, Sort sort, TermRef a, TermRef b);

  static bool matches(const Term& term, TermKind kind, Sort sort,
                      std::int64_t value, std::string_view name,
                      std::span<const TermRef> args);
  void growTable();

  /// Raw storage for `capacity` terms, constructed in place in id order.
  struct Block {
    struct Free {
      void operator()(Term* terms) const { ::operator delete(terms); }
    };
    std::unique_ptr<Term, Free> terms;
    std::size_t capacity = 0;
  };

  /// The intern table and term blocks a thread keeps for its next arena
  /// (spare()): the largest a destroyed arena left, within a cap. A new
  /// arena clears the kept table and starts on it and the kept blocks, so
  /// it grows no table its thread has needed before. Engines are built
  /// one after another; freeing an arena's memory let malloc trim the
  /// heap top, and the next arena, and the query layers after it,
  /// faulted the same pages back in.
  struct Storage {
    std::vector<Slot> table;
    std::vector<Block> blocks;
  };
  /// This thread's kept storage; null once the thread's thread_locals are
  /// destroyed.
  static Storage* spare();

  /// Fills blocks_[index] next, allocating it when index is past the
  /// last block. The first block is small, so an arena of a few dozen
  /// terms (a concrete replay, a synthesis prescreen) stays small, and
  /// each later block doubles up to kMaxBlockTerms.
  void startBlock(std::size_t index);

  /// Constants in [kSmallMin, kSmallMax) are looked up in smallInts_
  /// instead of the intern table, once interned.
  static constexpr std::int64_t kSmallMin = -16;
  static constexpr std::int64_t kSmallMax = 128;

  std::vector<Slot> table_;  // power-of-two capacity, linear probing
  std::size_t tableUsed_ = 0;
  /// Every term, in creation order (the i-th constructed term has id i),
  /// in blocks that never move, so a TermRef stays valid.
  std::vector<Block> blocks_;
  std::size_t block_ = 0;  // the block being filled
  Term* next_ = nullptr;   // its next free slot
  Term* end_ = nullptr;    // one past its last slot
  std::size_t size_ = 0;
  std::array<TermRef, kSmallMax - kSmallMin> smallInts_{};
  std::vector<TermRef> vars_;
  std::unordered_map<std::string, TermRef> varByName_;
  std::uint64_t freshCounter_ = 0;
  std::size_t nodeLimit_ = 0;  // 0 = unlimited
  TermRef true_ = nullptr;
  TermRef false_ = nullptr;
};

}  // namespace buffy::ir
