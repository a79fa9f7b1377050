#include "ir/term.hpp"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <memory>
#include <new>

#include "ir/term_hash.hpp"
#include "support/error.hpp"

namespace buffy::ir {

std::int64_t euclideanDiv(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;  // defined as 0; the Z3 lowering guards identically
  if (b == -1) return foldNeg(a).value_or(a);  // INT64_MIN / -1 is UB in C++
  std::int64_t q = a / b;
  const std::int64_t r = a % b;
  if (r < 0) q += (b > 0 ? -1 : 1);
  return q;
}

std::int64_t euclideanMod(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (b == -1) return 0;  // INT64_MIN % -1 is UB in C++; result is always 0
  std::int64_t r = a % b;
  // r + |b| without negating b: -INT64_MIN does not fit, the sum does.
  if (r < 0) r = b > 0 ? r + b : r - b;
  return r;
}

std::optional<std::int64_t> foldAdd(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) return std::nullopt;
  return out;
}

std::optional<std::int64_t> foldSub(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_sub_overflow(a, b, &out)) return std::nullopt;
  return out;
}

std::optional<std::int64_t> foldMul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) return std::nullopt;
  return out;
}

std::optional<std::int64_t> foldNeg(std::int64_t a) {
  return foldSub(0, a);
}

bool TermArena::matches(const Term& term, TermKind kind, Sort sort,
                        std::int64_t value, std::string_view name,
                        std::span<const TermRef> args) {
  if (term.kind != kind || term.sort != sort || term.value != value) {
    return false;
  }
  if (term.name != name) return false;
  if (term.args.size() != args.size()) return false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (term.args[i] != args[i]) return false;
  }
  return true;
}

namespace {
constexpr std::size_t kFirstTableSlots = 1024;
constexpr std::size_t kFirstBlockTerms = 64;
constexpr std::size_t kMaxBlockTerms = 2048;
// The most storage a thread keeps for its next arena: a table of 8,192
// slots (128 KiB) and 704 KiB of blocks, enough for every paper encoding.
constexpr std::size_t kMaxSpareSlots = 8192;
constexpr std::size_t kMaxSpareTerms = 8192;

// Set when this thread's spare storage is destroyed. Trivially
// destructible, so it can still be read by an arena that outlives the
// thread's other thread_locals (one owned by a static object, say).
thread_local bool spareGone = false;
}  // namespace

TermArena::Storage* TermArena::spare() {
  struct Holder {
    Storage storage;
    ~Holder() { spareGone = true; }
  };
  if (spareGone) return nullptr;
  thread_local Holder holder;
  return &holder.storage;
}

void TermArena::growTable() {
  const std::size_t capacity =
      table_.empty() ? kFirstTableSlots : table_.size() * 2;
  std::vector<Slot> grown(capacity);
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : table_) {
    if (slot.term == nullptr) continue;
    std::size_t i = slot.hash & mask;
    while (grown[i].term != nullptr) i = (i + 1) & mask;
    grown[i] = slot;
  }
  table_ = std::move(grown);
}

TermArena::TermArena() {
  if (Storage* spare = TermArena::spare()) {
    table_ = std::move(spare->table);
    std::fill(table_.begin(), table_.end(), Slot{});
    blocks_ = std::move(spare->blocks);
    *spare = Storage{};
  }
  if (table_.empty()) growTable();
  startBlock(0);
  true_ = intern(TermKind::ConstBool, Sort::Bool, 1, "", {});
  false_ = intern(TermKind::ConstBool, Sort::Bool, 0, "", {});
}

TermArena::~TermArena() {
  std::size_t remaining = size_;
  std::size_t capacity = 0;
  for (const Block& block : blocks_) {
    const std::size_t built = std::min(remaining, block.capacity);
    std::destroy_n(block.terms.get(), built);
    remaining -= built;
    capacity += block.capacity;
  }
  // Keep the largest table and blocks, within bounds, for the next arena.
  Storage* spare = TermArena::spare();
  if (spare == nullptr) return;
  if (table_.size() <= kMaxSpareSlots && table_.size() > spare->table.size()) {
    spare->table = std::move(table_);
  }
  std::size_t spareCapacity = 0;
  for (const Block& block : spare->blocks) spareCapacity += block.capacity;
  if (capacity <= kMaxSpareTerms && capacity > spareCapacity) {
    // Under ASan a stale TermRef into kept storage still faults.
    for (const Block& block : blocks_) {
      ASAN_POISON_MEMORY_REGION(block.terms.get(),
                                block.capacity * sizeof(Term));
    }
    spare->blocks = std::move(blocks_);
  }
}

void TermArena::startBlock(std::size_t index) {
  if (index == blocks_.size()) {
    const std::size_t capacity =
        blocks_.empty() ? kFirstBlockTerms
                        : std::min(blocks_.back().capacity * 2, kMaxBlockTerms);
    blocks_.push_back(Block{
        std::unique_ptr<Term, Block::Free>(
            static_cast<Term*>(::operator new(capacity * sizeof(Term)))),
        capacity});
  }
  block_ = index;
  next_ = blocks_[index].terms.get();
  end_ = next_ + blocks_[index].capacity;
  ASAN_UNPOISON_MEMORY_REGION(next_, blocks_[index].capacity * sizeof(Term));
}

TermRef TermArena::intern(TermKind kind, Sort sort, std::int64_t value,
                          std::string_view name,
                          std::span<const TermRef> args) {
  // Keep the load factor below 3/4 so probe chains stay short.
  if (tableUsed_ * 4 >= table_.size() * 3) growTable();
  const std::uint64_t hash = structuralHash(kind, sort, value, name, args);
  const std::size_t mask = table_.size() - 1;
  std::size_t i = hash & mask;
  while (table_[i].term != nullptr) {
    if (table_[i].hash == hash &&
        matches(*table_[i].term, kind, sort, value, name, args)) {
      return table_[i].term;  // hit: zero allocations
    }
    i = (i + 1) & mask;
  }

  // Only genuinely new nodes count against the limit; cache hits are free.
  if (nodeLimit_ != 0 && size_ >= nodeLimit_) {
    throw BudgetExceeded("term-nodes", nodeLimit_, SourceLoc{});
  }

  if (next_ == end_) startBlock(block_ + 1);
  const TermRef ref = new (next_) Term{kind, sort,
                                       static_cast<std::uint32_t>(size_),
                                       hash, value, std::string(name),
                                       TermArgs(args)};
  ++next_;
  ++size_;
  table_[i] = Slot{hash, ref};
  ++tableUsed_;
  return ref;
}

TermRef TermArena::intConst(std::int64_t v) {
  if (v >= kSmallMin && v < kSmallMax) {
    TermRef& small = smallInts_[static_cast<std::size_t>(v - kSmallMin)];
    if (small == nullptr) {
      small = intern(TermKind::ConstInt, Sort::Int, v, "", {});
    }
    return small;
  }
  return intern(TermKind::ConstInt, Sort::Int, v, "", {});
}

TermRef TermArena::boolConst(bool v) { return v ? true_ : false_; }

TermRef TermArena::var(const std::string& name, Sort sort) {
  const auto it = varByName_.find(name);
  if (it != varByName_.end()) {
    if (it->second->sort != sort) {
      throw Error("variable '" + name + "' requested with conflicting sort");
    }
    return it->second;
  }
  const TermRef v = intern(TermKind::Var, sort, 0, name, {});
  varByName_.emplace(name, v);
  vars_.push_back(v);
  return v;
}

TermRef TermArena::freshVar(const std::string& stem, Sort sort) {
  while (true) {
    const std::string name = stem + "#" + std::to_string(freshCounter_++);
    if (varByName_.count(name) == 0) return var(name, sort);
  }
}

TermRef TermArena::mkBin(TermKind kind, Sort sort, TermRef a, TermRef b) {
  const TermRef args[] = {a, b};
  return intern(kind, sort, 0, "", args);
}

// ---------------------------------------------------------------------------
// Integer operations
// ---------------------------------------------------------------------------

TermRef TermArena::add(TermRef a, TermRef b) {
  if (a->isConst() && b->isConst()) {
    if (const auto v = foldAdd(a->value, b->value)) return intConst(*v);
  }
  if (a->isZero()) return b;
  if (b->isZero()) return a;
  return mkBin(TermKind::Add, Sort::Int, a, b);
}

TermRef TermArena::sub(TermRef a, TermRef b) {
  if (a->isConst() && b->isConst()) {
    if (const auto v = foldSub(a->value, b->value)) return intConst(*v);
  }
  if (b->isZero()) return a;
  if (a == b) return intConst(0);
  return mkBin(TermKind::Sub, Sort::Int, a, b);
}

TermRef TermArena::mul(TermRef a, TermRef b) {
  if (a->isConst() && b->isConst()) {
    if (const auto v = foldMul(a->value, b->value)) return intConst(*v);
  }
  if (a->isZero() || b->isZero()) return intConst(0);
  if (a->kind == TermKind::ConstInt && a->value == 1) return b;
  if (b->kind == TermKind::ConstInt && b->value == 1) return a;
  return mkBin(TermKind::Mul, Sort::Int, a, b);
}

TermRef TermArena::div(TermRef a, TermRef b) {
  if (a->isConst() && b->isConst()) {
    // INT64_MIN / -1 is the one quotient that does not fit in 64 bits;
    // keep it symbolic so the fold never disagrees with the backends.
    if (a->value != INT64_MIN || b->value != -1) {
      return intConst(euclideanDiv(a->value, b->value));
    }
  }
  if (b->kind == TermKind::ConstInt && b->value == 1) return a;
  return mkBin(TermKind::Div, Sort::Int, a, b);
}

TermRef TermArena::mod(TermRef a, TermRef b) {
  if (a->isConst() && b->isConst()) {
    return intConst(euclideanMod(a->value, b->value));
  }
  if (b->kind == TermKind::ConstInt && b->value == 1) return intConst(0);
  return mkBin(TermKind::Mod, Sort::Int, a, b);
}

TermRef TermArena::neg(TermRef a) {
  if (a->isConst()) {
    if (const auto v = foldNeg(a->value)) return intConst(*v);
  }
  const TermRef args[] = {a};
  return intern(TermKind::Neg, Sort::Int, 0, "", args);
}

TermRef TermArena::min(TermRef a, TermRef b) {
  if (a == b) return a;
  return ite(le(a, b), a, b);
}

TermRef TermArena::max(TermRef a, TermRef b) {
  if (a == b) return a;
  return ite(le(a, b), b, a);
}

TermRef TermArena::sum(std::span<const TermRef> terms) {
  TermRef acc = intConst(0);
  for (const TermRef t : terms) acc = add(acc, t);
  return acc;
}

// ---------------------------------------------------------------------------
// Comparisons
// ---------------------------------------------------------------------------

TermRef TermArena::eq(TermRef a, TermRef b) {
  if (a->sort != b->sort) throw Error("eq: sort mismatch");
  if (a == b) return true_;
  if (a->isConst() && b->isConst()) return boolConst(a->value == b->value);
  if (a->sort == Sort::Bool) {
    if (a->isTrue()) return b;
    if (b->isTrue()) return a;
    if (a->isFalse()) return mkNot(b);
    if (b->isFalse()) return mkNot(a);
  }
  // Canonical argument order (better DAG sharing for a symmetric op).
  if (a->id > b->id) std::swap(a, b);
  return mkBin(TermKind::Eq, Sort::Bool, a, b);
}

TermRef TermArena::ne(TermRef a, TermRef b) { return mkNot(eq(a, b)); }

TermRef TermArena::lt(TermRef a, TermRef b) {
  if (a == b) return false_;
  if (a->isConst() && b->isConst()) return boolConst(a->value < b->value);
  return mkBin(TermKind::Lt, Sort::Bool, a, b);
}

TermRef TermArena::le(TermRef a, TermRef b) {
  if (a == b) return true_;
  if (a->isConst() && b->isConst()) return boolConst(a->value <= b->value);
  return mkBin(TermKind::Le, Sort::Bool, a, b);
}

// ---------------------------------------------------------------------------
// Boolean operations
// ---------------------------------------------------------------------------

TermRef TermArena::mkAnd(TermRef a, TermRef b) {
  if (a->isFalse() || b->isFalse()) return false_;
  if (a->isTrue()) return b;
  if (b->isTrue()) return a;
  if (a == b) return a;
  if (a->id > b->id) std::swap(a, b);
  return mkBin(TermKind::And, Sort::Bool, a, b);
}

TermRef TermArena::mkOr(TermRef a, TermRef b) {
  if (a->isTrue() || b->isTrue()) return true_;
  if (a->isFalse()) return b;
  if (b->isFalse()) return a;
  if (a == b) return a;
  if (a->id > b->id) std::swap(a, b);
  return mkBin(TermKind::Or, Sort::Bool, a, b);
}

TermRef TermArena::mkNot(TermRef a) {
  if (a->isTrue()) return false_;
  if (a->isFalse()) return true_;
  if (a->kind == TermKind::Not) return a->args[0];
  const TermRef args[] = {a};
  return intern(TermKind::Not, Sort::Bool, 0, "", args);
}

TermRef TermArena::implies(TermRef a, TermRef b) {
  if (a->isFalse() || b->isTrue()) return true_;
  if (a->isTrue()) return b;
  if (b->isFalse()) return mkNot(a);
  if (a == b) return true_;
  return mkBin(TermKind::Implies, Sort::Bool, a, b);
}

TermRef TermArena::andAll(std::span<const TermRef> terms) {
  TermRef acc = true_;
  for (const TermRef t : terms) acc = mkAnd(acc, t);
  return acc;
}

TermRef TermArena::orAll(std::span<const TermRef> terms) {
  TermRef acc = false_;
  for (const TermRef t : terms) acc = mkOr(acc, t);
  return acc;
}

TermRef TermArena::ite(TermRef cond, TermRef thenT, TermRef elseT) {
  if (thenT->sort != elseT->sort) throw Error("ite: branch sort mismatch");
  if (cond->isTrue()) return thenT;
  if (cond->isFalse()) return elseT;
  if (thenT == elseT) return thenT;
  if (thenT->sort == Sort::Bool) {
    if (thenT->isTrue()) return mkOr(cond, elseT);
    if (thenT->isFalse()) return mkAnd(mkNot(cond), elseT);
    if (elseT->isTrue()) return mkOr(mkNot(cond), thenT);
    if (elseT->isFalse()) return mkAnd(cond, thenT);
  }
  const TermRef args[] = {cond, thenT, elseT};
  return intern(TermKind::Ite, thenT->sort, 0, "", args);
}

}  // namespace buffy::ir
