#include "buffers/model.hpp"

#include <algorithm>

#include "buffers/counter_model.hpp"
#include "buffers/list_model.hpp"
#include "support/error.hpp"

namespace buffy::buffers {

bool BufferSchema::hasField(const std::string& name) const {
  return std::find(fields.begin(), fields.end(), name) != fields.end();
}

std::unique_ptr<SymBuffer> makeBuffer(ModelKind kind, BufferConfig config,
                                      ir::TermArena& arena) {
  switch (kind) {
    case ModelKind::List:
      return std::make_unique<ListBuffer>(std::move(config), arena);
    case ModelKind::Counter:
      // Callers needing classified counters construct CounterBuffer
      // directly with a side-constraint sink.
      return std::make_unique<CounterBuffer>(std::move(config), arena,
                                             nullptr);
  }
  throw AnalysisError("unknown buffer model kind");
}

void moveP(SymBuffer& src, SymBuffer& dst, ir::TermRef n, ir::TermRef guard,
           ir::TermArena& /*arena*/) {
  if (&src == &dst) {
    throw AnalysisError("move with identical source and destination buffer");
  }
  dst.accept(src.popP(n, guard), guard);
}

void moveB(SymBuffer& src, SymBuffer& dst, ir::TermRef bytes,
           ir::TermRef guard, ir::TermArena& /*arena*/) {
  if (&src == &dst) {
    throw AnalysisError("move with identical source and destination buffer");
  }
  dst.accept(src.popB(bytes, guard), guard);
}

void flush(SymBuffer& src, SymBuffer& dst, ir::TermArena& arena) {
  dst.accept(src.popAll(), arena.trueTerm());
}

}  // namespace buffy::buffers
