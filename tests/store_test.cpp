#include "eval/store.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "buffers/list_model.hpp"
#include "ir/term_eval.hpp"
#include "support/error.hpp"

namespace buffy::eval {
namespace {

buffers::BufferConfig cfg(const char* name) {
  buffers::BufferConfig c;
  c.name = name;
  c.capacity = 2;
  c.schema.fields = {"val"};
  return c;
}

class StoreTest : public ::testing::Test {
 protected:
  ir::TermArena arena;
  Store store{arena};
};

TEST_F(StoreTest, GlobalsPersistAndLookup) {
  store.defineGlobal("g", Value::makeScalar(arena.intConst(7)));
  ASSERT_NE(store.find("g"), nullptr);
  EXPECT_EQ(store.find("g")->scalar->value, 7);
  EXPECT_TRUE(store.hasGlobal("g"));
  EXPECT_FALSE(store.hasGlobal("h"));
}

TEST_F(StoreTest, DuplicateGlobalRejected) {
  store.defineGlobal("g", Value::makeScalar(arena.intConst(1)));
  EXPECT_THROW(store.defineGlobal("g", Value::makeScalar(arena.intConst(2))),
               AnalysisError);
}

TEST_F(StoreTest, MonitorsTracked) {
  store.defineGlobal("m", Value::makeScalar(arena.intConst(0)), true);
  EXPECT_EQ(store.monitors().count("m"), 1u);
}

TEST_F(StoreTest, LocalScoping) {
  store.pushScope();
  store.declareLocal("x", Value::makeScalar(arena.intConst(1)));
  store.pushScope();
  store.declareLocal("x", Value::makeScalar(arena.intConst(2)));
  EXPECT_EQ(store.find("x")->scalar->value, 2);  // innermost wins
  store.popScope();
  EXPECT_EQ(store.find("x")->scalar->value, 1);
  store.popScope();
  EXPECT_EQ(store.find("x"), nullptr);
}

TEST_F(StoreTest, LocalShadowsGlobal) {
  store.defineGlobal("v", Value::makeScalar(arena.intConst(10)));
  store.pushScope();
  store.declareLocal("v", Value::makeScalar(arena.intConst(20)));
  EXPECT_EQ(store.find("v")->scalar->value, 20);
  store.popScope();
  EXPECT_EQ(store.find("v")->scalar->value, 10);
}

TEST_F(StoreTest, DuplicateLocalInScopeRejected) {
  store.pushScope();
  store.declareLocal("x", Value::makeScalar(arena.intConst(1)));
  EXPECT_THROW(store.declareLocal("x", Value::makeScalar(arena.intConst(2))),
               AnalysisError);
}

TEST_F(StoreTest, LocalOutsideScopeRejected) {
  EXPECT_THROW(store.declareLocal("x", Value::makeScalar(arena.intConst(1))),
               AnalysisError);
}

TEST_F(StoreTest, PopEmptyScopeStackRejected) {
  EXPECT_THROW(store.popScope(), AnalysisError);
}

TEST_F(StoreTest, ClearLocalsKeepsGlobals) {
  store.defineGlobal("g", Value::makeScalar(arena.intConst(1)));
  store.pushScope();
  store.declareLocal("x", Value::makeScalar(arena.intConst(2)));
  store.clearLocals();
  EXPECT_EQ(store.scopeDepth(), 0u);
  EXPECT_NE(store.find("g"), nullptr);
}

TEST_F(StoreTest, BufferRegistration) {
  store.addBuffer("b", std::make_unique<buffers::ListBuffer>(cfg("b"), arena));
  EXPECT_NE(store.buffer("b"), nullptr);
  EXPECT_EQ(store.buffer("nope"), nullptr);
  EXPECT_THROW(
      store.addBuffer("b",
                      std::make_unique<buffers::ListBuffer>(cfg("b"), arena)),
      AnalysisError);
  ASSERT_EQ(store.bufferNames().size(), 1u);
}

TEST_F(StoreTest, DeepCopyClonesBuffers) {
  store.addBuffer("b", std::make_unique<buffers::ListBuffer>(cfg("b"), arena));
  Store copy = store;
  buffers::PacketBatch batch;
  batch.count = arena.intConst(1);
  batch.slots.push_back({{{"val", arena.intConst(1)}}});
  copy.buffer("b")->accept(batch, arena.trueTerm());
  EXPECT_EQ(ir::evalTerm(copy.buffer("b")->backlogP(), {}), 1);
  EXPECT_EQ(ir::evalTerm(store.buffer("b")->backlogP(), {}), 0);
}

void acceptOne(buffers::SymBuffer& buffer, ir::TermArena& arena, int value) {
  buffers::PacketBatch batch;
  batch.count = arena.intConst(1);
  batch.slots.push_back({{{"val", arena.intConst(value)}}});
  buffer.accept(batch, arena.trueTerm());
}

TEST_F(StoreTest, CopySharesBuffersUntilWritten) {
  store.addBuffer("b", std::make_unique<buffers::ListBuffer>(cfg("b"), arena));
  const Store copy = store;
  // Reads go through the const accessor and never clone.
  EXPECT_EQ(std::as_const(store).buffer("b"), copy.buffer("b"));
}

TEST_F(StoreTest, FirstWriteUnsharesTheState) {
  store.addBuffer("b", std::make_unique<buffers::ListBuffer>(cfg("b"), arena));
  Store copy = store;
  const buffers::SymBuffer* shared = std::as_const(store).buffer("b");
  buffers::SymBuffer* written = copy.buffer("b");  // the write accessor
  EXPECT_NE(written, shared);
  EXPECT_EQ(copy.buffer("b"), written);  // unshared once, then kept
  acceptOne(*written, arena, 1);
  EXPECT_EQ(ir::evalTerm(std::as_const(copy).buffer("b")->backlogP(), {}), 1);
  EXPECT_EQ(std::as_const(store).buffer("b"), shared);
  EXPECT_EQ(ir::evalTerm(std::as_const(store).buffer("b")->backlogP(), {}),
            0);
}

TEST_F(StoreTest, MergeLeavesUnwrittenBuffersShared) {
  store.addBuffer("a", std::make_unique<buffers::ListBuffer>(cfg("a"), arena));
  store.addBuffer("b", std::make_unique<buffers::ListBuffer>(cfg("b"), arena));
  store.defineGlobal("x", Value::makeScalar(arena.intConst(1)));
  Store elseStore = store;
  acceptOne(*store.buffer("b"), arena, 1);
  const buffers::SymBuffer* untouched = std::as_const(store).buffer("a");
  const ir::TermRef c = arena.var("c", ir::Sort::Bool);
  const std::size_t before = arena.size();
  Store unwritten = elseStore;
  unwritten.mergeElse(c, elseStore);
  EXPECT_EQ(arena.size(), before);  // nothing differs, nothing is interned
  store.mergeElse(c, elseStore);
  EXPECT_EQ(std::as_const(store).buffer("a"), untouched);
  EXPECT_EQ(std::as_const(elseStore).buffer("a"), untouched);
  EXPECT_EQ(ir::evalTerm(std::as_const(store).buffer("b")->backlogP(),
                         {{"c", 1}}),
            1);
  EXPECT_EQ(ir::evalTerm(std::as_const(store).buffer("b")->backlogP(),
                         {{"c", 0}}),
            0);
}

TEST_F(StoreTest, MergeUnsharesBeforeWriting) {
  // An outer snapshot still shares the state this store merges into.
  store.addBuffer("b", std::make_unique<buffers::ListBuffer>(cfg("b"), arena));
  const Store outer = store;
  Store elseStore = store;
  acceptOne(*elseStore.buffer("b"), arena, 1);
  store.mergeElse(arena.var("c", ir::Sort::Bool), elseStore);
  EXPECT_EQ(ir::evalTerm(outer.buffer("b")->backlogP(), {}), 0);
  EXPECT_EQ(
      ir::evalTerm(std::as_const(store).buffer("b")->backlogP(), {{"c", 0}}),
      1);
}

TEST_F(StoreTest, MergeScalarsAndArrays) {
  store.defineGlobal("x", Value::makeScalar(arena.intConst(1)));
  store.defineGlobal("a", Value::makeArray({arena.intConst(1),
                                            arena.intConst(2)}));
  Store elseStore = store;
  store.find("x")->scalar = arena.intConst(10);
  elseStore.find("a")->array[1] = arena.intConst(20);

  const ir::TermRef c = arena.var("c", ir::Sort::Bool);
  store.mergeElse(c, elseStore);
  EXPECT_EQ(ir::evalTerm(store.find("x")->scalar, {{"c", 1}}), 10);
  EXPECT_EQ(ir::evalTerm(store.find("x")->scalar, {{"c", 0}}), 1);
  EXPECT_EQ(ir::evalTerm(store.find("a")->array[1], {{"c", 0}}), 20);
  EXPECT_EQ(ir::evalTerm(store.find("a")->array[1], {{"c", 1}}), 2);
}

TEST_F(StoreTest, MergeMismatchedScopesRejected) {
  Store other = store;
  store.pushScope();
  EXPECT_THROW(store.mergeElse(arena.trueTerm(), other), AnalysisError);
}

TEST_F(StoreTest, ValueKindsEnforced) {
  Value v = Value::makeScalar(arena.intConst(1));
  EXPECT_THROW(v.asList(), AnalysisError);
}

}  // namespace
}  // namespace buffy::eval
