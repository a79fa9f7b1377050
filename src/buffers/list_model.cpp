#include "buffers/list_model.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace buffy::buffers {

namespace {
constexpr const char* kBytes = BufferSchema::kBytesField;
}

ListBuffer::ListBuffer(BufferConfig config, ir::TermArena& arena)
    : SymBuffer(std::move(config)), arena_(arena) {
  if (this->config().capacity <= 0) {
    throw AnalysisError("buffer '" + this->config().name +
                        "' must have positive capacity");
  }
  len_ = arena_.intConst(0);
  dropped_ = arena_.intConst(0);
  slots_.resize(static_cast<std::size_t>(this->config().capacity));
  // Stale slots hold 0s; they are never observable (compactness invariant).
  for (auto& slot : slots_) {
    for (const auto& field : this->config().schema.fields) {
      slot[field] = arena_.intConst(0);
    }
  }
}

ir::TermRef ListBuffer::bytesAt(int i) const {
  const auto& slot = slots_[static_cast<std::size_t>(i)];
  const auto it = slot.find(kBytes);
  return it != slot.end() ? it->second : arena_.intConst(1);
}

ir::TermRef ListBuffer::fieldAt(int i, const std::string& field) const {
  const auto& slot = slots_.at(static_cast<std::size_t>(i));
  const auto it = slot.find(field);
  if (it == slot.end()) {
    throw AnalysisError("buffer '" + config().name + "' has no field '" +
                        field + "'");
  }
  return it->second;
}

ir::TermRef ListBuffer::backlogB() const {
  ir::TermRef total = arena_.intConst(0);
  for (int i = 0; i < config().capacity; ++i) {
    total = arena_.add(total, arena_.ite(arena_.lt(arena_.intConst(i), len_),
                                         bytesAt(i), arena_.intConst(0)));
  }
  return total;
}

ir::TermRef ListBuffer::backlogP(const Filter& filter) const {
  ir::TermRef count = arena_.intConst(0);
  for (int i = 0; i < config().capacity; ++i) {
    const ir::TermRef matches =
        arena_.mkAnd(arena_.lt(arena_.intConst(i), len_),
                     arena_.eq(fieldAt(i, filter.field), filter.value));
    count = arena_.add(count,
                       arena_.ite(matches, arena_.intConst(1),
                                  arena_.intConst(0)));
  }
  return count;
}

ir::TermRef ListBuffer::backlogB(const Filter& filter) const {
  ir::TermRef total = arena_.intConst(0);
  for (int i = 0; i < config().capacity; ++i) {
    const ir::TermRef matches =
        arena_.mkAnd(arena_.lt(arena_.intConst(i), len_),
                     arena_.eq(fieldAt(i, filter.field), filter.value));
    total = arena_.add(total,
                       arena_.ite(matches, bytesAt(i), arena_.intConst(0)));
  }
  return total;
}

PacketBatch ListBuffer::popCount(ir::TermRef m) {
  const int cap = config().capacity;
  PacketBatch batch;
  batch.count = m;
  if (config().schema.fields.empty()) {
    // No contents to hand over or shift. The empty slots still tell a
    // fielded consumer every position a packet can land in.
    batch.slots.resize(static_cast<std::size_t>(cap));
  } else {
    batch.slots.reserve(static_cast<std::size_t>(cap));
    for (const auto& slot : slots_) batch.slots.push_back(PacketSlot{slot});
    // Shift the remaining packets to the front: slot i takes old slot i+d
    // where d == m. Values above the new length are don't-care. Slot i is
    // rewritten in place; it reads only the slots above it, which still
    // hold their old contents.
    for (int i = 0; i < cap; ++i) {
      for (auto& [field, value] : slots_[static_cast<std::size_t>(i)]) {
        ir::TermRef acc = value;  // d == 0 (or don't-care)
        for (int d = 1; i + d < cap; ++d) {
          acc = arena_.ite(arena_.eq(m, arena_.intConst(d)),
                           slots_[static_cast<std::size_t>(i + d)].at(field),
                           acc);
        }
        value = acc;
      }
    }
  }
  len_ = arena_.sub(len_, m);
  return batch;
}

PacketBatch ListBuffer::popP(ir::TermRef n, ir::TermRef guard) {
  const ir::TermRef clamped =
      arena_.min(arena_.max(n, arena_.intConst(0)), len_);
  return popCount(arena_.ite(guard, clamped, arena_.intConst(0)));
}

PacketBatch ListBuffer::popB(ir::TermRef bytes, ir::TermRef guard) {
  const int cap = config().capacity;
  // m = number of whole packets whose cumulative size fits within `bytes`.
  ir::TermRef prefix = arena_.intConst(0);
  ir::TermRef m = arena_.intConst(0);
  for (int k = 1; k <= cap; ++k) {
    prefix = arena_.add(prefix, bytesAt(k - 1));
    const ir::TermRef fits = arena_.mkAnd(
        arena_.le(arena_.intConst(k), len_), arena_.le(prefix, bytes));
    m = arena_.add(m,
                   arena_.ite(fits, arena_.intConst(1), arena_.intConst(0)));
  }
  return popCount(arena_.ite(guard, m, arena_.intConst(0)));
}

PacketBatch ListBuffer::popAll() { return popCount(len_); }

void ListBuffer::accept(const PacketBatch& batch, ir::TermRef guard) {
  if (batch.slots.empty() && !batch.classCounts.empty()) {
    throw AnalysisError(
        "list-model buffer '" + config().name +
        "' cannot accept an aggregate (class-count only) batch; use the "
        "counter model for this buffer or keep the producer at list "
        "precision");
  }
  const int cap = config().capacity;
  const ir::TermRef incoming = batch.count;
  const ir::TermRef room = arena_.sub(arena_.intConst(cap), len_);
  ir::TermRef accepted = arena_.min(incoming, room);
  accepted = arena_.ite(guard, accepted, arena_.intConst(0));
  dropped_ = arena_.add(
      dropped_,
      arena_.ite(guard, arena_.sub(incoming, accepted), arena_.intConst(0)));

  // Slot j receives batch slot k iff j == len + k and k < accepted.
  for (int j = 0; j < cap; ++j) {
    auto& slot = slots_[static_cast<std::size_t>(j)];
    for (auto& [field, value] : slot) {
      ir::TermRef acc = value;
      const int kMax = std::min<int>(j, static_cast<int>(batch.slots.size()) - 1);
      for (int k = 0; k <= kMax; ++k) {
        const auto& in = batch.slots[static_cast<std::size_t>(k)];
        const ir::TermRef lands =
            arena_.mkAnd(arena_.eq(len_, arena_.intConst(j - k)),
                         arena_.lt(arena_.intConst(k), accepted));
        const auto fieldIt = in.fields.find(field);
        // A producer that does not track this field yields a havoc value
        // (honest nondeterminism about unknown contents).
        const ir::TermRef inValue =
            fieldIt != in.fields.end()
                ? fieldIt->second
                : arena_.freshVar(config().name + "." + field + ".havoc",
                                  ir::Sort::Int);
        acc = arena_.ite(lands, inValue, acc);
      }
      value = acc;
    }
  }
  len_ = arena_.add(len_, accepted);
}

std::unique_ptr<SymBuffer> ListBuffer::clone() const {
  return std::unique_ptr<SymBuffer>(new ListBuffer(*this));
}

void ListBuffer::mergeElse(ir::TermRef cond, const SymBuffer& other) {
  const auto& o = dynamic_cast<const ListBuffer&>(other);
  len_ = arena_.ite(cond, len_, o.len_);
  dropped_ = arena_.ite(cond, dropped_, o.dropped_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    for (auto& [field, value] : slots_[i]) {
      value = arena_.ite(cond, value, o.slots_[i].at(field));
    }
  }
}

void ListBuffer::havocState(std::vector<ir::TermRef>& constraints) {
  len_ = arena_.freshVar(config().name + ".init.len", ir::Sort::Int);
  constraints.push_back(arena_.le(arena_.intConst(0), len_));
  constraints.push_back(
      arena_.le(len_, arena_.intConst(config().capacity)));
  dropped_ = arena_.intConst(0);
  for (int i = 0; i < config().capacity; ++i) {
    for (auto& [field, value] : slots_[static_cast<std::size_t>(i)]) {
      value = arena_.freshVar(
          config().name + ".init.slot" + std::to_string(i) + "." + field,
          ir::Sort::Int);
      if (field == kBytes) {
        constraints.push_back(arena_.le(arena_.intConst(1), value));
      }
    }
  }
}

std::vector<std::pair<std::string, ir::TermRef>> ListBuffer::stateTerms()
    const {
  std::vector<std::pair<std::string, ir::TermRef>> out;
  out.emplace_back("len", len_);
  out.emplace_back("dropped", dropped_);
  for (int i = 0; i < config().capacity; ++i) {
    for (const auto& [field, value] : slots_[static_cast<std::size_t>(i)]) {
      out.emplace_back("slot" + std::to_string(i) + "." + field, value);
    }
  }
  return out;
}

void ListBuffer::setStateTerms(const std::vector<ir::TermRef>& terms) {
  std::size_t expected = 2;
  for (const auto& slot : slots_) expected += slot.size();
  if (terms.size() != expected) {
    throw AnalysisError("setStateTerms arity mismatch for buffer '" +
                        config().name + "'");
  }
  std::size_t i = 0;
  len_ = terms[i++];
  dropped_ = terms[i++];
  for (auto& slot : slots_) {
    for (auto& [field, value] : slot) value = terms[i++];
  }
}

}  // namespace buffy::buffers
