#include "buffers/model.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "backends/z3/z3_backend.hpp"
#include "buffers/counter_model.hpp"
#include "buffers/list_model.hpp"
#include "ir/term_eval.hpp"
#include "ir/term_printer.hpp"
#include "support/error.hpp"

namespace buffy::buffers {
namespace {

std::int64_t cval(ir::TermRef t) {
  const auto v = ir::constValue(t);
  EXPECT_TRUE(v.has_value()) << ir::toSExpr(t);
  return v.value_or(-999);
}

BufferConfig listConfig(int capacity = 4) {
  BufferConfig cfg;
  cfg.name = "b";
  cfg.capacity = capacity;
  cfg.schema.fields = {"val"};
  return cfg;
}

PacketBatch constBatch(ir::TermArena& arena,
                       const std::vector<std::int64_t>& vals,
                       const std::vector<std::int64_t>& bytes = {}) {
  PacketBatch batch;
  batch.count = arena.intConst(static_cast<std::int64_t>(vals.size()));
  for (std::size_t i = 0; i < vals.size(); ++i) {
    PacketSlot slot;
    slot.fields["val"] = arena.intConst(vals[i]);
    if (i < bytes.size()) slot.fields["bytes"] = arena.intConst(bytes[i]);
    batch.slots.push_back(std::move(slot));
  }
  return batch;
}

// ---------------------------------------------------------------------------
// List model
// ---------------------------------------------------------------------------

TEST(ListBuffer, StartsEmpty) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(), arena);
  EXPECT_EQ(cval(buf.backlogP()), 0);
  EXPECT_EQ(cval(buf.backlogB()), 0);
  EXPECT_EQ(cval(buf.droppedP()), 0);
}

TEST(ListBuffer, AcceptAndBacklog) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(), arena);
  buf.accept(constBatch(arena, {1, 2, 3}), arena.trueTerm());
  EXPECT_EQ(cval(buf.backlogP()), 3);
  EXPECT_EQ(cval(buf.fieldAt(0, "val")), 1);
  EXPECT_EQ(cval(buf.fieldAt(2, "val")), 3);
}

TEST(ListBuffer, TailDropAtCapacity) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(2), arena);
  buf.accept(constBatch(arena, {1, 2, 3, 4}), arena.trueTerm());
  EXPECT_EQ(cval(buf.backlogP()), 2);
  EXPECT_EQ(cval(buf.droppedP()), 2);
  // FIFO order preserved; the head survives.
  EXPECT_EQ(cval(buf.fieldAt(0, "val")), 1);
  EXPECT_EQ(cval(buf.fieldAt(1, "val")), 2);
}

TEST(ListBuffer, GuardedAcceptIsNoOp) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(), arena);
  buf.accept(constBatch(arena, {1}), arena.falseTerm());
  EXPECT_EQ(cval(buf.backlogP()), 0);
  EXPECT_EQ(cval(buf.droppedP()), 0);
}

TEST(ListBuffer, PopPreservesOrder) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(), arena);
  buf.accept(constBatch(arena, {10, 20, 30}), arena.trueTerm());
  const PacketBatch popped = buf.popP(arena.intConst(2), arena.trueTerm());
  EXPECT_EQ(cval(popped.count), 2);
  EXPECT_EQ(cval(popped.slots[0].fields.at("val")), 10);
  EXPECT_EQ(cval(popped.slots[1].fields.at("val")), 20);
  EXPECT_EQ(cval(buf.backlogP()), 1);
  EXPECT_EQ(cval(buf.fieldAt(0, "val")), 30);
}

TEST(ListBuffer, PopClampsToBacklogAndZero) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(), arena);
  buf.accept(constBatch(arena, {5}), arena.trueTerm());
  EXPECT_EQ(cval(buf.popP(arena.intConst(99), arena.trueTerm()).count),
            1);
  buf.accept(constBatch(arena, {6}), arena.trueTerm());
  EXPECT_EQ(cval(buf.popP(arena.intConst(-3), arena.trueTerm()).count),
            0);
  EXPECT_EQ(cval(buf.backlogP()), 1);
}

TEST(ListBuffer, FilteredBacklog) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(), arena);
  buf.accept(constBatch(arena, {1, 2, 1}), arena.trueTerm());
  const Filter f1{"val", arena.intConst(1)};
  const Filter f2{"val", arena.intConst(2)};
  EXPECT_EQ(cval(buf.backlogP(f1)), 2);
  EXPECT_EQ(cval(buf.backlogP(f2)), 1);
  EXPECT_EQ(cval(buf.backlogP(Filter{"val", arena.intConst(9)})), 0);
}

TEST(ListBuffer, FilterUnknownFieldThrows) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(), arena);
  buf.accept(constBatch(arena, {1}), arena.trueTerm());
  EXPECT_THROW(buf.backlogP(Filter{"nope", arena.intConst(1)}),
               AnalysisError);
}

TEST(ListBuffer, BytesAccounting) {
  ir::TermArena arena;
  BufferConfig cfg = listConfig();
  cfg.schema.fields = {"val", "bytes"};
  ListBuffer buf(cfg, arena);
  buf.accept(constBatch(arena, {1, 2, 3}, {10, 20, 30}), arena.trueTerm());
  EXPECT_EQ(cval(buf.backlogB()), 60);
  // popB takes whole packets while their cumulative size fits.
  const PacketBatch popped = buf.popB(arena.intConst(35), arena.trueTerm());
  EXPECT_EQ(cval(popped.count), 2);  // 10+20 <= 35, +30 would exceed
  EXPECT_EQ(cval(buf.backlogB()), 30);
}

TEST(ListBuffer, BytesDefaultToOnePerPacket) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(), arena);  // schema without "bytes"
  buf.accept(constBatch(arena, {1, 2}), arena.trueTerm());
  EXPECT_EQ(cval(buf.backlogB()), 2);
}

TEST(ListBuffer, MoveBetweenBuffers) {
  ir::TermArena arena;
  ListBuffer src(listConfig(), arena);
  ListBuffer dst(listConfig(), arena);
  src.accept(constBatch(arena, {1, 2, 3}), arena.trueTerm());
  moveP(src, dst, arena.intConst(2), arena.trueTerm(), arena);
  EXPECT_EQ(cval(src.backlogP()), 1);
  EXPECT_EQ(cval(dst.backlogP()), 2);
  EXPECT_EQ(cval(dst.fieldAt(0, "val")), 1);
  EXPECT_EQ(cval(dst.fieldAt(1, "val")), 2);
}

TEST(ListBuffer, MoveSelfRejected) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(), arena);
  EXPECT_THROW(moveP(buf, buf, arena.intConst(1), arena.trueTerm(), arena),
               AnalysisError);
}

TEST(ListBuffer, PopAllEmpties) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(), arena);
  buf.accept(constBatch(arena, {4, 5}), arena.trueTerm());
  const PacketBatch all = buf.popAll();
  EXPECT_EQ(cval(all.count), 2);
  EXPECT_EQ(cval(buf.backlogP()), 0);
}

TEST(ListBuffer, MergeSelectsBranchState) {
  ir::TermArena arena;
  ListBuffer base(listConfig(), arena);
  base.accept(constBatch(arena, {9}), arena.trueTerm());
  auto thenBuf = base.clone();
  auto elseBuf = base.clone();
  thenBuf->accept(constBatch(arena, {1}), arena.trueTerm());
  elseBuf->popP(arena.intConst(1), arena.trueTerm());

  const ir::TermRef c = arena.var("c", ir::Sort::Bool);
  thenBuf->mergeElse(c, *elseBuf);
  EXPECT_EQ(ir::evalTerm(thenBuf->backlogP(), {{"c", 1}}), 2);
  EXPECT_EQ(ir::evalTerm(thenBuf->backlogP(), {{"c", 0}}), 0);
}

TEST(ListBuffer, AggregateBatchRejected) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(), arena);
  PacketBatch batch;
  batch.classCounts["val"] = {arena.intConst(1)};
  EXPECT_THROW(buf.accept(batch, arena.trueTerm()), AnalysisError);
}

// Symbolic pop count: ensure shifting works for every possible m via the
// term evaluator.
TEST(ListBuffer, SymbolicPopShift) {
  ir::TermArena arena;
  ListBuffer buf(listConfig(4), arena);
  buf.accept(constBatch(arena, {10, 20, 30, 40}), arena.trueTerm());
  const ir::TermRef m = arena.var("m", ir::Sort::Int);
  buf.popP(m, arena.trueTerm());
  for (std::int64_t take = 0; take <= 4; ++take) {
    const ir::Assignment env{{"m", take}};
    EXPECT_EQ(ir::evalTerm(buf.backlogP(), env), 4 - take);
    if (take < 4) {
      EXPECT_EQ(ir::evalTerm(buf.fieldAt(0, "val"), env), 10 * (take + 1));
    }
  }
}

// ---------------------------------------------------------------------------
// Counter model
// ---------------------------------------------------------------------------

BufferConfig counterConfig(int capacity = 8, int bytesPerPacket = 3) {
  BufferConfig cfg;
  cfg.name = "c";
  cfg.capacity = capacity;
  cfg.bytesPerPacket = bytesPerPacket;
  return cfg;
}

TEST(CounterBuffer, CountsPacketsAndBytes) {
  ir::TermArena arena;
  CounterBuffer buf(counterConfig(), arena, nullptr);
  buf.accept(constBatch(arena, {1, 2}), arena.trueTerm());
  EXPECT_EQ(cval(buf.backlogP()), 2);
  EXPECT_EQ(cval(buf.backlogB()), 6);  // 2 * bytesPerPacket(3)
}

TEST(CounterBuffer, PopAndDrop) {
  ir::TermArena arena;
  CounterBuffer buf(counterConfig(3), arena, nullptr);
  buf.accept(constBatch(arena, {1, 2, 3, 4, 5}), arena.trueTerm());
  EXPECT_EQ(cval(buf.backlogP()), 3);
  EXPECT_EQ(cval(buf.droppedP()), 2);
  const PacketBatch popped = buf.popP(arena.intConst(2), arena.trueTerm());
  EXPECT_EQ(cval(popped.count), 2);
  EXPECT_EQ(cval(buf.backlogP()), 1);
}

TEST(CounterBuffer, PopBUsesConstantPacketSize) {
  ir::TermArena arena;
  CounterBuffer buf(counterConfig(8, 3), arena, nullptr);
  buf.accept(constBatch(arena, {1, 2, 3}), arena.trueTerm());
  const PacketBatch popped = buf.popB(arena.intConst(7), arena.trueTerm());
  EXPECT_EQ(cval(popped.count), 2);  // 7 / 3 = 2 whole packets
}

TEST(CounterBuffer, FilterWithoutClassesThrows) {
  ir::TermArena arena;
  CounterBuffer buf(counterConfig(), arena, nullptr);
  EXPECT_THROW(buf.backlogP(Filter{"val", arena.intConst(0)}), AnalysisError);
}

TEST(CounterBuffer, ClassifiedNeedsSink) {
  ir::TermArena arena;
  BufferConfig cfg = counterConfig();
  cfg.classField = "val";
  cfg.classDomain = 2;
  EXPECT_THROW(CounterBuffer(cfg, arena, nullptr), AnalysisError);
}

TEST(CounterBuffer, ClassifiedAcceptCountsPerClass) {
  ir::TermArena arena;
  std::vector<ir::TermRef> side;
  BufferConfig cfg = counterConfig();
  cfg.classField = "val";
  cfg.classDomain = 3;
  cfg.schema.fields = {"val"};
  CounterBuffer buf(cfg, arena, &side);
  buf.accept(constBatch(arena, {0, 1, 1, 2}), arena.trueTerm());
  // The per-class split is nondeterministic (fresh vars + side
  // constraints); verify with Z3 that the model is forced to the exact
  // split when nothing is dropped.
  const Filter f1{"val", arena.intConst(1)};
  std::vector<ir::TermRef> constraints = side;
  constraints.push_back(
      arena.mkNot(arena.eq(buf.backlogP(f1), arena.intConst(2))));
  backends::Z3Backend z3;
  const auto result = z3.check(constraints);
  EXPECT_EQ(result.status, backends::SolveStatus::Unsat)
      << "class-1 count must be forced to 2";
}

TEST(CounterBuffer, MergeSelectsBranchState) {
  ir::TermArena arena;
  CounterBuffer base(counterConfig(), arena, nullptr);
  base.accept(constBatch(arena, {1}), arena.trueTerm());
  auto thenBuf = base.clone();
  auto elseBuf = base.clone();
  thenBuf->accept(constBatch(arena, {2, 3}), arena.trueTerm());
  const ir::TermRef c = arena.var("c", ir::Sort::Bool);
  thenBuf->mergeElse(c, *elseBuf);
  EXPECT_EQ(ir::evalTerm(thenBuf->backlogP(), {{"c", 1}}), 3);
  EXPECT_EQ(ir::evalTerm(thenBuf->backlogP(), {{"c", 0}}), 1);
}

TEST(CounterBuffer, ListToCounterMove) {
  // Cross-precision move: a list source feeding a counter destination.
  ir::TermArena arena;
  ListBuffer src(listConfig(), arena);
  CounterBuffer dst(counterConfig(), arena, nullptr);
  src.accept(constBatch(arena, {1, 2, 3}), arena.trueTerm());
  moveP(src, dst, arena.intConst(2), arena.trueTerm(), arena);
  EXPECT_EQ(cval(src.backlogP()), 1);
  EXPECT_EQ(cval(dst.backlogP()), 2);
}

TEST(BufferFactory, MakesRequestedKind) {
  ir::TermArena arena;
  const auto list = makeBuffer(ModelKind::List, listConfig(), arena);
  EXPECT_EQ(list->kind(), ModelKind::List);
  const auto counter = makeBuffer(ModelKind::Counter, counterConfig(), arena);
  EXPECT_EQ(counter->kind(), ModelKind::Counter);
}

// ---------------------------------------------------------------------------
// Property test: random concrete op sequences on ListBuffer vs a
// deque-of-packets reference implementation.
// ---------------------------------------------------------------------------

struct RefPacket {
  std::int64_t val;
};

class ListBufferProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ListBufferProperty, MatchesDequeReference) {
  ir::TermArena arena;
  const int capacity = 4;
  ListBuffer buf(listConfig(capacity), arena);
  std::deque<RefPacket> ref;
  std::int64_t refDropped = 0;
  unsigned state = GetParam();
  auto nextRand = [&state]() {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  for (int step = 0; step < 150; ++step) {
    switch (nextRand() % 3) {
      case 0: {  // accept 1-3 packets
        const int n = 1 + static_cast<int>(nextRand() % 3);
        std::vector<std::int64_t> vals;
        for (int i = 0; i < n; ++i) {
          vals.push_back(static_cast<std::int64_t>(nextRand() % 10));
        }
        buf.accept(constBatch(arena, vals), arena.trueTerm());
        for (const auto v : vals) {
          if (ref.size() < static_cast<std::size_t>(capacity)) {
            ref.push_back(RefPacket{v});
          } else {
            ++refDropped;
          }
        }
        break;
      }
      case 1: {  // pop 0-3 packets
        const std::int64_t n = static_cast<std::int64_t>(nextRand() % 4);
        const PacketBatch popped =
            buf.popP(arena.intConst(n), arena.trueTerm());
        const std::int64_t expect =
            std::min<std::int64_t>(n, static_cast<std::int64_t>(ref.size()));
        ASSERT_EQ(cval(popped.count), expect);
        for (std::int64_t i = 0; i < expect; ++i) {
          ASSERT_EQ(cval(popped.slots[static_cast<std::size_t>(i)].fields.at(
                        "val")),
                    ref.front().val);
          ref.pop_front();
        }
        break;
      }
      case 2: {  // filtered backlog probe
        const std::int64_t probe =
            static_cast<std::int64_t>(nextRand() % 10);
        std::int64_t expect = 0;
        for (const auto& p : ref) {
          if (p.val == probe) ++expect;
        }
        ASSERT_EQ(cval(buf.backlogP(Filter{"val", arena.intConst(probe)})),
                  expect);
        break;
      }
    }
    ASSERT_EQ(cval(buf.backlogP()), static_cast<std::int64_t>(ref.size()));
    ASSERT_EQ(cval(buf.droppedP()), refDropped);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListBufferProperty,
                         ::testing::Values(3u, 17u, 256u, 7777u, 123456u));

// Counter-model property test: random op sequences vs a simple integer
// reference (count + drop accounting only).
class CounterBufferProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CounterBufferProperty, MatchesIntegerReference) {
  ir::TermArena arena;
  const int capacity = 5;
  CounterBuffer buf(counterConfig(capacity, 2), arena, nullptr);
  std::int64_t refCount = 0;
  std::int64_t refDropped = 0;
  unsigned state = GetParam();
  auto nextRand = [&state]() {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  for (int step = 0; step < 200; ++step) {
    switch (nextRand() % 3) {
      case 0: {  // accept 0-3 packets
        const int n = static_cast<int>(nextRand() % 4);
        buf.accept(constBatch(arena, std::vector<std::int64_t>(
                                         static_cast<std::size_t>(n), 1)),
                   arena.trueTerm());
        const std::int64_t accepted =
            std::min<std::int64_t>(n, capacity - refCount);
        refCount += accepted;
        refDropped += n - accepted;
        break;
      }
      case 1: {  // pop 0-3 packets
        const std::int64_t n = static_cast<std::int64_t>(nextRand() % 4);
        const PacketBatch popped =
            buf.popP(arena.intConst(n), arena.trueTerm());
        const std::int64_t expect = std::min(n, refCount);
        ASSERT_EQ(cval(popped.count), expect);
        refCount -= expect;
        break;
      }
      case 2: {  // pop by bytes (2 bytes per packet)
        const std::int64_t budget = static_cast<std::int64_t>(nextRand() % 7);
        const PacketBatch popped =
            buf.popB(arena.intConst(budget), arena.trueTerm());
        const std::int64_t expect = std::min(budget / 2, refCount);
        ASSERT_EQ(cval(popped.count), expect);
        refCount -= expect;
        break;
      }
    }
    ASSERT_EQ(cval(buf.backlogP()), refCount);
    ASSERT_EQ(cval(buf.backlogB()), refCount * 2);
    ASSERT_EQ(cval(buf.droppedP()), refDropped);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterBufferProperty,
                         ::testing::Values(5u, 29u, 444u, 9090u, 654321u));

// ---------------------------------------------------------------------------
// Bounded-exhaustive batch transfer: one pop from a havoc'd source and one
// accept into a havoc'd destination, built once over symbolic state, the
// count `n` and the guard `g`, then evaluated under every small state and
// compared with plain integers. Covers every pop (popP, popB, popAll) and
// every pairing of the list model (with and without fields) and the
// counter model (plain and classified) that the models accept.
// ---------------------------------------------------------------------------

enum class Shape { Fielded, FieldLess, Counter, Classified };
enum class Pop { P, B, All };

constexpr int kCounterBytes = 2;  // bytesPerPacket of the counter shapes
const std::vector<std::string> kFields = {"bytes", "cls", "val"};

const char* shapeName(Shape shape) {
  switch (shape) {
    case Shape::Fielded: return "fielded list";
    case Shape::FieldLess: return "field-less list";
    case Shape::Counter: return "counter";
    case Shape::Classified: return "classified counter";
  }
  return "?";
}

bool isList(Shape shape) {
  return shape == Shape::Fielded || shape == Shape::FieldLess;
}

std::unique_ptr<SymBuffer> makeShape(Shape shape, const std::string& name,
                                     int capacity, ir::TermArena& arena,
                                     std::vector<ir::TermRef>* side) {
  BufferConfig cfg;
  cfg.name = name;
  cfg.capacity = capacity;
  cfg.bytesPerPacket = kCounterBytes;
  if (shape == Shape::Fielded) cfg.schema.fields = kFields;
  if (isList(shape)) return std::make_unique<ListBuffer>(cfg, arena);
  if (shape == Shape::Classified) {
    cfg.classField = "cls";
    cfg.classDomain = 2;
  }
  return std::make_unique<CounterBuffer>(cfg, arena, side);
}

/// Contents of a havoc'd list slot: source packet k and destination packet
/// j get distinct values. The class of source packet k is bit k of `mask`.
std::int64_t srcField(const std::string& field, int k, unsigned mask) {
  if (field == "bytes") return 1 + k % 3;
  if (field == "cls") return (mask >> k) & 1u;
  return 100 + k;
}
std::int64_t dstField(const std::string& field, int j) {
  if (field == "bytes") return 1 + (j + 1) % 3;
  if (field == "cls") return j % 2;
  return 200 + j;
}

/// A classified counter's havoc'd length split over its two classes.
std::int64_t classShare(std::int64_t len, int c) {
  return c == 0 ? len / 2 : len - len / 2;
}

/// Names of the variables of `arena` whose name starts with `prefix`, in
/// creation order. The models make their variables with freshVar, which
/// appends "#<counter>" to the stem.
std::vector<std::string> varsNamed(const ir::TermArena& arena,
                                   const std::string& prefix) {
  std::vector<std::string> out;
  for (const ir::TermRef v : arena.variables()) {
    if (v->name.compare(0, prefix.size(), prefix) == 0) out.push_back(v->name);
  }
  return out;
}

/// The one variable of `arena` made from the fresh stem `stem`, or "" when
/// there is none.
std::string freshNamed(const ir::TermArena& arena, const std::string& stem) {
  const std::vector<std::string> names = varsNamed(arena, stem + "#");
  EXPECT_LE(names.size(), 1u) << stem;
  return names.empty() ? "" : names.front();
}

struct TransferCase {
  Shape src;
  Shape dst;
  Pop pop;
  int capacity;
};

std::string describe(const TransferCase& tc) {
  static const char* kPops[] = {"popP", "popB", "popAll"};
  return std::string(shapeName(tc.src)) + " -> " + shapeName(tc.dst) + ", " +
         kPops[static_cast<int>(tc.pop)] + ", capacity " +
         std::to_string(tc.capacity);
}

void checkTransfer(const TransferCase& tc) {
  ir::TermArena arena;
  std::vector<ir::TermRef> assumptions;
  const int cap = tc.capacity;
  auto src = makeShape(tc.src, "src", cap, arena, &assumptions);
  auto dst = makeShape(tc.dst, "dst", cap, arena, &assumptions);
  src->havocState(assumptions);
  dst->havocState(assumptions);
  const ir::TermRef n = arena.var("n", ir::Sort::Int);
  const ir::TermRef g = arena.var("g", ir::Sort::Bool);
  const PacketBatch batch = tc.pop == Pop::P   ? src->popP(n, g)
                            : tc.pop == Pop::B ? src->popB(n, g)
                                               : src->popAll();
  // As moveP/moveB and flush do: a move's guard also guards the accept.
  dst->accept(batch, tc.pop == Pop::All ? arena.trueTerm() : g);

  // Terms to evaluate: the conjunction of every assumption, the counts,
  // and what the destination shows of the packets.
  std::vector<ir::TermRef> terms = {arena.andAll(assumptions),
                                    batch.count,
                                    src->backlogP(),
                                    src->droppedP(),
                                    dst->backlogP(),
                                    dst->droppedP()};
  const auto* dstList = dynamic_cast<const ListBuffer*>(dst.get());
  if (tc.dst == Shape::Fielded) {
    for (int j = 0; j < cap; ++j) {
      for (const auto& field : kFields) {
        terms.push_back(dstList->fieldAt(j, field));
      }
    }
  } else if (tc.dst == Shape::Classified) {
    for (int c = 0; c < 2; ++c) {
      terms.push_back(dst->backlogP(Filter{"cls", arena.intConst(c)}));
    }
  }
  // What the source keeps, shifted to its front.
  const std::size_t srcAt = terms.size();
  if (tc.src == Shape::Fielded) {
    const auto* srcList = dynamic_cast<const ListBuffer*>(src.get());
    for (int i = 0; i < cap; ++i) {
      for (const auto& field : kFields) {
        terms.push_back(srcList->fieldAt(i, field));
      }
    }
  }

  // Variables that are not state: a classified pop's and accept's class
  // split, and the havoc values a destination gets for fields its
  // producer does not track (each given a distinct value, 1000 + index).
  const std::vector<std::string> pops = varsNamed(arena, "src.pop");
  const std::vector<std::string> accs = varsNamed(arena, "dst.acc");
  std::vector<std::string> havocNames;
  for (const auto& name : varsNamed(arena, "dst.")) {
    if (name.find(".havoc#") != std::string::npos) havocNames.push_back(name);
  }
  ASSERT_EQ(pops.size(), tc.src == Shape::Classified ? 2u : 0u);
  ASSERT_EQ(accs.size(), tc.dst == Shape::Classified ? 2u : 0u);
  // The havoc'd state, by the stem each variable was made from.
  std::map<std::string, std::string> stateVar;
  for (const char* side : {"src", "dst"}) {
    const std::string init = std::string(side) + ".init.";
    std::vector<std::string> stems = {init + "len", init + "pkts",
                                      init + "class0", init + "class1"};
    for (int k = 0; k < cap; ++k) {
      for (const auto& field : kFields) {
        stems.push_back(init + "slot" + std::to_string(k) + "." + field);
      }
    }
    for (const auto& stem : stems) {
      const std::string name = freshNamed(arena, stem);
      if (!name.empty()) stateVar[stem] = name;
    }
  }

  const std::string srcLen = isList(tc.src) ? "src.init.len" : "src.init.pkts";
  const std::string dstLen = isList(tc.dst) ? "dst.init.len" : "dst.init.pkts";
  const std::vector<unsigned> masks =
      tc.src == Shape::Fielded ? std::vector<unsigned>{0x5u, 0x3u}
                               : std::vector<unsigned>{0u};
  for (const unsigned mask : masks) {
    for (int len = 0; len <= cap; ++len) {
      for (int dlen = 0; dlen <= cap; ++dlen) {
        for (int nv = -1; nv <= cap + 1; ++nv) {
          for (int gv = 0; gv <= 1; ++gv) {
            const std::string where =
                describe(tc) + ": len " + std::to_string(len) + ", dst len " +
                std::to_string(dlen) + ", n " + std::to_string(nv) +
                ", guard " + std::to_string(gv) + ", classes " +
                std::to_string(mask);
            ir::Assignment env{{"n", nv}, {"g", gv}};
            const auto setState = [&](const std::string& stem,
                                      std::int64_t value) {
              const auto it = stateVar.find(stem);
              if (it != stateVar.end()) env[it->second] = value;
            };
            setState(srcLen, len);
            setState(dstLen, dlen);
            for (int k = 0; k < cap; ++k) {
              for (const auto& field : kFields) {
                const std::string slot = "slot" + std::to_string(k) + ".";
                setState("src.init." + slot + field, srcField(field, k, mask));
                setState("dst.init." + slot + field, dstField(field, k));
              }
            }
            for (int c = 0; c < 2; ++c) {
              const std::string cls = "class" + std::to_string(c);
              setState("src.init." + cls, classShare(len, c));
              setState("dst.init." + cls, classShare(dlen, c));
            }
            for (std::size_t h = 0; h < havocNames.size(); ++h) {
              env[havocNames[h]] = 1000 + static_cast<std::int64_t>(h);
            }

            // The plain-integer reference.
            std::int64_t m = 0;
            if (tc.pop == Pop::All) {
              m = len;
            } else if (gv == 1) {
              std::int64_t want = std::clamp<std::int64_t>(nv, 0, len);
              if (tc.pop == Pop::B) {
                if (isList(tc.src)) {
                  want = 0;
                  std::int64_t prefix = 0;
                  for (int k = 0; k < len; ++k) {
                    prefix += tc.src == Shape::Fielded
                                  ? srcField("bytes", k, mask)
                                  : 1;
                    if (prefix <= nv) want = k + 1;
                  }
                } else {
                  want = std::min<std::int64_t>(
                      std::max(nv, 0) / kCounterBytes, len);
                }
              }
              m = want;
            }
            const bool acceptGuard = tc.pop == Pop::All || gv == 1;
            const std::int64_t accepted =
                acceptGuard ? std::min<std::int64_t>(m, cap - dlen) : 0;
            // A classified source gives up its packets class 0 first.
            std::int64_t leaving[2] = {std::min(m, classShare(len, 0)), 0};
            leaving[1] = m - leaving[0];
            for (std::size_t c = 0; c < pops.size(); ++c) {
              env[pops[c]] = leaving[c];
            }
            // Class of each arriving packet, as the destination counts it.
            std::int64_t in[2] = {0, 0};
            if (tc.src == Shape::Classified) {
              in[0] = leaving[0];
              in[1] = leaving[1];
            } else {
              for (int k = 0; k < m; ++k) ++in[srcField("cls", k, mask)];
            }
            std::int64_t taken[2] = {std::min(accepted, in[0]), 0};
            taken[1] = accepted - taken[0];
            for (std::size_t c = 0; c < accs.size(); ++c) {
              env[accs[c]] = taken[c];
            }

            const std::vector<std::int64_t> got = ir::evalTerms(terms, env);
            ASSERT_EQ(got[0], 1) << where << ": state not admitted";
            EXPECT_EQ(got[1], m) << where << ": batch count";
            EXPECT_EQ(got[2], len - m) << where << ": source backlog";
            EXPECT_EQ(got[3], 0) << where << ": source dropped";
            EXPECT_EQ(got[4], dlen + accepted) << where << ": dst backlog";
            EXPECT_EQ(got[5], acceptGuard ? m - accepted : 0)
                << where << ": dst dropped";
            if (tc.dst == Shape::Fielded) {
              for (int j = 0; j < dlen + accepted; ++j) {
                for (std::size_t f = 0; f < kFields.size(); ++f) {
                  const std::string& field = kFields[f];
                  const std::int64_t value =
                      got[6 + static_cast<std::size_t>(j) * kFields.size() +
                          f];
                  const std::string at =
                      where + ": dst slot " + std::to_string(j) + "." + field;
                  const int k = j - dlen;  // the arriving packet, if k >= 0
                  if (k < 0) {
                    EXPECT_EQ(value, dstField(field, j)) << at;
                  } else if (tc.src == Shape::Fielded) {
                    EXPECT_EQ(value, srcField(field, k, mask)) << at;
                  } else if (!isList(tc.src) && field == "bytes") {
                    EXPECT_EQ(value, kCounterBytes) << at;
                  } else {
                    // Untracked by the producer: a havoc variable of this
                    // field, fresh for this position.
                    ASSERT_GE(value, 1000) << at;
                    ASSERT_LT(value, 1000 + static_cast<std::int64_t>(
                                                havocNames.size()))
                        << at;
                    const std::string& var =
                        havocNames[static_cast<std::size_t>(value - 1000)];
                    EXPECT_EQ(var.rfind("dst." + field + ".havoc#", 0), 0u)
                        << at << " is " << var;
                    for (int i = dlen; i < j; ++i) {
                      EXPECT_NE(
                          got[6 + static_cast<std::size_t>(i) *
                                      kFields.size() +
                              f],
                          value)
                          << at << " shares a havoc value with slot " << i;
                    }
                  }
                }
              }
            }
            if (tc.src == Shape::Fielded) {
              for (int i = 0; i < len - m; ++i) {
                for (std::size_t f = 0; f < kFields.size(); ++f) {
                  EXPECT_EQ(
                      got[srcAt + static_cast<std::size_t>(i) *
                                      kFields.size() +
                          f],
                      srcField(kFields[f], i + static_cast<int>(m), mask))
                      << where << ": src slot " << i << "." << kFields[f];
                }
              }
            }
            if (tc.dst == Shape::Classified) {
              for (int c = 0; c < 2; ++c) {
                EXPECT_EQ(got[6 + static_cast<std::size_t>(c)],
                          classShare(dlen, c) + taken[c])
                    << where << ": dst class " << c;
              }
              // Which classes survive is nondeterministic: exactly the
              // splits a_c in [0, in_c] summing to `accepted` are
              // admitted (in_c reads as 0 under a false guard).
              const std::int64_t room0 = acceptGuard ? in[0] : 0;
              const std::int64_t room1 = acceptGuard ? in[1] : 0;
              for (int a0 = 0; a0 <= cap; ++a0) {
                for (int a1 = 0; a1 <= cap; ++a1) {
                  env[accs[0]] = a0;
                  env[accs[1]] = a1;
                  const bool want =
                      a0 <= room0 && a1 <= room1 && a0 + a1 == accepted;
                  EXPECT_EQ(ir::evalTerm(terms[0], env), want ? 1 : 0)
                      << where << ": split " << a0 << "+" << a1;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(BatchTransfer, EverySmallStateMatchesIntegers) {
  for (const Shape src :
       {Shape::Fielded, Shape::FieldLess, Shape::Counter, Shape::Classified}) {
    for (const Shape dst :
         {Shape::Fielded, Shape::Counter, Shape::Classified}) {
      // A classified counter needs the class of every arriving packet.
      if (dst == Shape::Classified &&
          (src == Shape::FieldLess || src == Shape::Counter)) {
        continue;
      }
      for (const Pop pop : {Pop::P, Pop::B, Pop::All}) {
        for (int cap = 1; cap <= 4; ++cap) {
          SCOPED_TRACE(describe({src, dst, pop, cap}));
          checkTransfer({src, dst, pop, cap});
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace buffy::buffers
