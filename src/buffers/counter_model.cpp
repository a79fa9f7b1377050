#include "buffers/counter_model.hpp"

#include "support/error.hpp"

namespace buffy::buffers {

CounterBuffer::CounterBuffer(BufferConfig config, ir::TermArena& arena,
                             std::vector<ir::TermRef>* sideConstraints)
    : SymBuffer(std::move(config)),
      arena_(arena),
      sideConstraints_(sideConstraints) {
  if (this->config().capacity <= 0) {
    throw AnalysisError("buffer '" + this->config().name +
                        "' must have positive capacity");
  }
  if (classified() && sideConstraints_ == nullptr) {
    throw AnalysisError("classified counter buffer '" + this->config().name +
                        "' needs a side-constraint sink");
  }
  pkts_ = arena_.intConst(0);
  dropped_ = arena_.intConst(0);
  if (classified()) {
    classCounts_.assign(static_cast<std::size_t>(this->config().classDomain),
                        arena_.intConst(0));
  }
}

void CounterBuffer::emit(ir::TermRef constraint) {
  if (sideConstraints_ != nullptr) sideConstraints_->push_back(constraint);
}

ir::TermRef CounterBuffer::backlogB() const {
  return arena_.mul(pkts_, arena_.intConst(config().bytesPerPacket));
}

ir::TermRef CounterBuffer::backlogP(const Filter& filter) const {
  if (!classified() || filter.field != config().classField) {
    throw AnalysisError(
        "counter-model buffer '" + config().name +
        "' cannot evaluate a filter on field '" + filter.field +
        "' (declare classField/classDomain or use the list model)");
  }
  // counts[v] where v is the (possibly symbolic) filter value.
  ir::TermRef result = arena_.intConst(0);
  for (int c = 0; c < config().classDomain; ++c) {
    result = arena_.ite(arena_.eq(filter.value, arena_.intConst(c)),
                        classCounts_[static_cast<std::size_t>(c)], result);
  }
  return result;
}

ir::TermRef CounterBuffer::backlogB(const Filter& filter) const {
  return arena_.mul(backlogP(filter),
                    arena_.intConst(config().bytesPerPacket));
}

PacketBatch CounterBuffer::popCount(ir::TermRef m) {
  PacketBatch batch;
  batch.count = m;
  batch.slots.resize(static_cast<std::size_t>(config().capacity));
  for (auto& slot : batch.slots) {
    // Contents are unknown at counter precision; only "bytes" is defined
    // (constant packet size abstraction).
    slot.fields[BufferSchema::kBytesField] =
        arena_.intConst(config().bytesPerPacket);
  }

  if (classified()) {
    // Which classes leave is nondeterministic: d_c in [0, counts_c],
    // sum d_c == m.
    std::vector<ir::TermRef> leaving;
    ir::TermRef total = arena_.intConst(0);
    for (int c = 0; c < config().classDomain; ++c) {
      const ir::TermRef d =
          arena_.freshVar(config().name + ".pop" + std::to_string(c),
                          ir::Sort::Int);
      emit(arena_.le(arena_.intConst(0), d));
      emit(arena_.le(d, classCounts_[static_cast<std::size_t>(c)]));
      leaving.push_back(d);
      total = arena_.add(total, d);
    }
    emit(arena_.eq(total, m));
    batch.classCounts[config().classField] = leaving;
    for (int c = 0; c < config().classDomain; ++c) {
      classCounts_[static_cast<std::size_t>(c)] =
          arena_.sub(classCounts_[static_cast<std::size_t>(c)],
                     leaving[static_cast<std::size_t>(c)]);
    }
  }

  pkts_ = arena_.sub(pkts_, m);
  return batch;
}

PacketBatch CounterBuffer::popP(ir::TermRef n, ir::TermRef guard) {
  const ir::TermRef clamped =
      arena_.min(arena_.max(n, arena_.intConst(0)), pkts_);
  return popCount(arena_.ite(guard, clamped, arena_.intConst(0)));
}

PacketBatch CounterBuffer::popB(ir::TermRef bytes, ir::TermRef guard) {
  // Whole packets fitting in `bytes` at the constant-size abstraction.
  const ir::TermRef n = arena_.div(arena_.max(bytes, arena_.intConst(0)),
                                   arena_.intConst(config().bytesPerPacket));
  return popP(n, guard);
}

PacketBatch CounterBuffer::popAll() { return popCount(pkts_); }

void CounterBuffer::accept(const PacketBatch& batch, ir::TermRef guard) {
  const ir::TermRef incoming = batch.count;
  const ir::TermRef room =
      arena_.sub(arena_.intConst(config().capacity), pkts_);
  ir::TermRef accepted = arena_.min(incoming, room);
  accepted = arena_.ite(guard, accepted, arena_.intConst(0));
  dropped_ = arena_.add(
      dropped_,
      arena_.ite(guard, arena_.sub(incoming, accepted), arena_.intConst(0)));

  if (classified()) {
    const std::string& field = config().classField;
    const int domain = config().classDomain;
    // Per-class incoming counts: prefer aggregate counts from the batch,
    // else derive them from per-slot fields (slot k holds a packet iff
    // k < count).
    std::vector<ir::TermRef> in(static_cast<std::size_t>(domain),
                                arena_.intConst(0));
    const auto aggIt = batch.classCounts.find(field);
    if (aggIt != batch.classCounts.end()) {
      if (static_cast<int>(aggIt->second.size()) != domain) {
        throw AnalysisError("class-count arity mismatch for buffer '" +
                            config().name + "'");
      }
      in = aggIt->second;
    } else {
      for (std::size_t k = 0; k < batch.slots.size(); ++k) {
        const auto& fields = batch.slots[k].fields;
        const auto fieldIt = fields.find(field);
        if (fieldIt == fields.end()) {
          throw AnalysisError(
              "batch entering classified buffer '" + config().name +
              "' lacks class field '" + field + "'");
        }
        const ir::TermRef present = arena_.lt(
            arena_.intConst(static_cast<std::int64_t>(k)), batch.count);
        for (int c = 0; c < domain; ++c) {
          const ir::TermRef matches = arena_.mkAnd(
              present, arena_.eq(fieldIt->second, arena_.intConst(c)));
          in[static_cast<std::size_t>(c)] =
              arena_.add(in[static_cast<std::size_t>(c)],
                         arena_.ite(matches, arena_.intConst(1),
                                    arena_.intConst(0)));
        }
      }
    }
    // Which classes survive tail drop is nondeterministic: a_c in
    // [0, in_c], sum a_c == accepted.
    ir::TermRef total = arena_.intConst(0);
    for (int c = 0; c < domain; ++c) {
      const ir::TermRef a =
          arena_.freshVar(config().name + ".acc" + std::to_string(c),
                          ir::Sort::Int);
      emit(arena_.le(arena_.intConst(0), a));
      emit(arena_.le(a, arena_.ite(guard, in[static_cast<std::size_t>(c)],
                                   arena_.intConst(0))));
      total = arena_.add(total, a);
      classCounts_[static_cast<std::size_t>(c)] =
          arena_.add(classCounts_[static_cast<std::size_t>(c)], a);
    }
    emit(arena_.eq(total, accepted));
  }

  pkts_ = arena_.add(pkts_, accepted);
}

std::unique_ptr<SymBuffer> CounterBuffer::clone() const {
  return std::unique_ptr<SymBuffer>(new CounterBuffer(*this));
}

void CounterBuffer::mergeElse(ir::TermRef cond, const SymBuffer& other) {
  const auto& o = dynamic_cast<const CounterBuffer&>(other);
  pkts_ = arena_.ite(cond, pkts_, o.pkts_);
  dropped_ = arena_.ite(cond, dropped_, o.dropped_);
  for (std::size_t c = 0; c < classCounts_.size(); ++c) {
    classCounts_[c] = arena_.ite(cond, classCounts_[c], o.classCounts_[c]);
  }
}

void CounterBuffer::havocState(std::vector<ir::TermRef>& constraints) {
  pkts_ = arena_.freshVar(config().name + ".init.pkts", ir::Sort::Int);
  constraints.push_back(arena_.le(arena_.intConst(0), pkts_));
  constraints.push_back(
      arena_.le(pkts_, arena_.intConst(config().capacity)));
  dropped_ = arena_.intConst(0);
  if (classified()) {
    ir::TermRef total = arena_.intConst(0);
    for (std::size_t c = 0; c < classCounts_.size(); ++c) {
      classCounts_[c] = arena_.freshVar(
          config().name + ".init.class" + std::to_string(c), ir::Sort::Int);
      constraints.push_back(arena_.le(arena_.intConst(0), classCounts_[c]));
      total = arena_.add(total, classCounts_[c]);
    }
    constraints.push_back(arena_.eq(total, pkts_));
  }
}

std::vector<std::pair<std::string, ir::TermRef>> CounterBuffer::stateTerms()
    const {
  std::vector<std::pair<std::string, ir::TermRef>> out;
  out.emplace_back("pkts", pkts_);
  out.emplace_back("dropped", dropped_);
  for (std::size_t c = 0; c < classCounts_.size(); ++c) {
    out.emplace_back("class" + std::to_string(c), classCounts_[c]);
  }
  return out;
}

void CounterBuffer::setStateTerms(const std::vector<ir::TermRef>& terms) {
  if (terms.size() != 2 + classCounts_.size()) {
    throw AnalysisError("setStateTerms arity mismatch for buffer '" +
                        config().name + "'");
  }
  pkts_ = terms[0];
  dropped_ = terms[1];
  for (std::size_t c = 0; c < classCounts_.size(); ++c) {
    classCounts_[c] = terms[2 + c];
  }
}

}  // namespace buffy::buffers
