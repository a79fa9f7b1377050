#include "pipeline/encoder.hpp"

#include <map>
#include <utility>

#include "buffers/counter_model.hpp"
#include "buffers/list_model.hpp"
#include "eval/evaluator.hpp"
#include "support/error.hpp"

namespace buffy::pipeline {

namespace {

using core::BufferSpec;
using core::Encoding;

void appendSeries(Encoding& enc, const std::string& name, int t,
                  ir::TermRef term) {
  auto& vec = enc.series[name];
  if (static_cast<int>(vec.size()) != t) {
    throw AnalysisError("internal: series '" + name +
                        "' recorded out of order");
  }
  vec.push_back(term);
}

void emitArrivals(Encoding& enc, const BufferUnit& bu, int t,
                  const core::ConcreteArrivals* concrete) {
  ir::TermArena& arena = enc.arena;
  const BufferSpec& spec = *bu.spec;
  buffers::SymBuffer* buf = enc.store.buffer(bu.qualified);

  core::ArrivalVars av;
  buffers::PacketBatch batch;
  if (concrete != nullptr) {
    const auto it = concrete->find(bu.qualified);
    const std::vector<core::ConcretePacket>* pkts = nullptr;
    if (it != concrete->end() && t < static_cast<int>(it->second.size())) {
      pkts = &it->second[static_cast<std::size_t>(t)];
    }
    const int n = pkts != nullptr ? static_cast<int>(pkts->size()) : 0;
    av.count = arena.intConst(n);
    for (int i = 0; i < n; ++i) {
      std::map<std::string, ir::TermRef> fields;
      for (const auto& field : spec.schema.fields) {
        const auto& packet = (*pkts)[static_cast<std::size_t>(i)];
        const auto fit = packet.find(field);
        std::int64_t value = fit != packet.end() ? fit->second : 0;
        if (field == buffers::BufferSchema::kBytesField &&
            fit == packet.end()) {
          value = 1;
        }
        fields[field] = arena.intConst(value);
      }
      av.slots.push_back(fields);
      batch.slots.push_back(buffers::PacketSlot{std::move(fields)});
    }
  } else {
    const std::string stem = bu.qualified + ".t" + std::to_string(t);
    av.count = arena.var(stem + ".n", ir::Sort::Int);
    enc.assumptions.push_back(arena.le(arena.intConst(0), av.count));
    enc.assumptions.push_back(
        arena.le(av.count, arena.intConst(spec.maxArrivalsPerStep)));
    for (int i = 0; i < spec.maxArrivalsPerStep; ++i) {
      std::map<std::string, ir::TermRef> fields;
      for (const auto& field : spec.schema.fields) {
        const ir::TermRef v = arena.var(
            stem + ".p" + std::to_string(i) + "." + field, ir::Sort::Int);
        fields[field] = v;
        if (field == buffers::BufferSchema::kBytesField) {
          enc.assumptions.push_back(arena.le(arena.intConst(1), v));
          enc.assumptions.push_back(
              arena.le(v, arena.intConst(spec.maxPacketBytes)));
        } else if (field == spec.classField && spec.classDomain > 0) {
          enc.assumptions.push_back(arena.le(arena.intConst(0), v));
          enc.assumptions.push_back(
              arena.lt(v, arena.intConst(spec.classDomain)));
        }
      }
      av.slots.push_back(fields);
      batch.slots.push_back(buffers::PacketSlot{std::move(fields)});
    }
  }

  batch.count = av.count;
  buf->accept(batch, arena.trueTerm());
  appendSeries(enc, bu.qualified + ".arrived", t, av.count);
  for (std::size_t i = 0; i < av.slots.size(); ++i) {
    for (const auto& [field, term] : av.slots[i]) {
      appendSeries(enc, bu.qualified + ".in" + std::to_string(i) + "." + field,
                   t, term);
    }
  }
  enc.arrivalVars[bu.qualified].push_back(std::move(av));
}

void contractStep(const CompilationUnit& unit, Encoding& enc,
                  const CompiledInstance& ci, int t, bool concrete) {
  if (concrete) {
    throw AnalysisError("cannot simulate a network containing contracts");
  }
  ir::TermArena& arena = enc.arena;
  const core::Contract& contract = unit.network().contracts().at(ci.name);
  for (const auto& bu : unit.bufferUnits(ci)) {
    buffers::SymBuffer* buf = enc.store.buffer(bu.qualified);
    if (bu.spec->role == BufferSpec::Role::Input) {
      buffers::PacketBatch batch = buf->popAll();
      appendSeries(enc, bu.qualified + ".consumed", t, batch.count);
    } else if (bu.spec->role == BufferSpec::Role::Output) {
      const std::string stem =
          bu.qualified + ".t" + std::to_string(t) + ".emit";
      const ir::TermRef count = arena.var(stem + ".n", ir::Sort::Int);
      enc.assumptions.push_back(arena.le(arena.intConst(0), count));
      enc.assumptions.push_back(
          arena.le(count, arena.intConst(contract.maxOutPerStep)));
      buffers::PacketBatch batch;
      batch.count = count;
      for (int i = 0; i < contract.maxOutPerStep; ++i) {
        std::map<std::string, ir::TermRef> fields;
        for (const auto& field : bu.spec->schema.fields) {
          const ir::TermRef v = arena.var(
              stem + ".p" + std::to_string(i) + "." + field, ir::Sort::Int);
          fields[field] = v;
          if (field == buffers::BufferSchema::kBytesField) {
            enc.assumptions.push_back(arena.le(arena.intConst(1), v));
            enc.assumptions.push_back(
                arena.le(v, arena.intConst(bu.spec->maxPacketBytes)));
          }
        }
        batch.slots.push_back(buffers::PacketSlot{std::move(fields)});
      }
      buf->accept(batch, arena.trueTerm());
      appendSeries(enc, bu.qualified + ".emitted", t, count);
    }
  }
}

}  // namespace

std::unique_ptr<core::Encoding> buildEncoding(
    const CompilationUnit& unit, const core::Workload& workload,
    const core::ConcreteArrivals* concrete, PipelineStats* stats) {
  std::unique_ptr<StageTimer> timer;
  if (stats != nullptr) {
    timer = std::make_unique<StageTimer>(stats->stage("encode"));
  }
  const PipelineOptions& options = unit.options();
  auto enc = std::make_unique<Encoding>();
  enc->horizon = options.horizon;
  ir::TermArena& arena = enc->arena;
  // One cap on the shared arena governs every term producer downstream
  // (evaluator, buffer models, optimizer, encoders).
  arena.setNodeLimit(options.budget.maxTermNodes);

  // Register buffers.
  for (const auto& ci : unit.instances()) {
    for (const auto& bu : unit.bufferUnits(ci)) {
      buffers::BufferConfig cfg;
      cfg.name = bu.qualified;
      cfg.capacity = bu.spec->capacity;
      cfg.schema = bu.spec->schema;
      cfg.classField = bu.spec->classField;
      cfg.classDomain = bu.spec->classDomain;
      cfg.bytesPerPacket = bu.spec->bytesPerPacket;
      const buffers::ModelKind kind =
          bu.spec->modelOverride.value_or(options.model);
      std::unique_ptr<buffers::SymBuffer> buf;
      if (kind == buffers::ModelKind::Counter) {
        buf = std::make_unique<buffers::CounterBuffer>(std::move(cfg), arena,
                                                       &enc->assumptions);
      } else {
        buf = std::make_unique<buffers::ListBuffer>(std::move(cfg), arena);
      }
      if (options.symbolicInitialState) {
        if (concrete != nullptr) {
          throw AnalysisError("cannot simulate with a symbolic initial state");
        }
        buf->havocState(enc->assumptions);
      }
      enc->store.addBuffer(bu.qualified, std::move(buf));
    }
  }

  // One evaluator per executable instance.
  eval::EvalSinks sinks{&enc->assumptions, &enc->obligations,
                        &enc->soundness};
  std::map<std::string, std::unique_ptr<eval::Evaluator>> evaluators;
  for (const auto& ci : unit.instances()) {
    if (ci.isContract) continue;
    auto ev = std::make_unique<eval::Evaluator>(arena, enc->store, sinks,
                                                ci.name + ".");
    ev->setBudget(options.budget);
    evaluators.emplace(ci.name, std::move(ev));
  }

  for (int t = 0; t < options.horizon; ++t) {
    // 1. External arrivals.
    for (const auto& ci : unit.instances()) {
      for (const auto& bu : unit.bufferUnits(ci)) {
        if (bu.spec->role != BufferSpec::Role::Input) continue;
        if (unit.connectedInputs().count(bu.qualified) != 0) continue;
        emitArrivals(*enc, bu, t, concrete);
      }
    }

    // 2. Run programs / contracts.
    for (const auto& ci : unit.instances()) {
      if (ci.isContract) {
        contractStep(unit, *enc, ci, t, concrete != nullptr);
      } else {
        evaluators.at(ci.name)->execStep(ci.ast, t);
      }
    }

    // 3. Record monitors.
    for (const auto& ci : unit.instances()) {
      if (ci.isContract) continue;
      for (const auto& m : ci.symbols.monitors) {
        const std::string name = ci.name + "." + m;
        const eval::Value* v = enc->store.find(name);
        if (v == nullptr) continue;  // declared behind a false branch
        if (v->kind == eval::Value::Kind::Scalar) {
          appendSeries(*enc, name, t, v->scalar);
        } else if (v->kind == eval::Value::Kind::Array) {
          for (std::size_t i = 0; i < v->array.size(); ++i) {
            appendSeries(*enc, name + "." + std::to_string(i), t,
                         v->array[i]);
          }
        }
      }
    }

    // 4. Record buffer statistics (through the read accessor).
    for (const auto& name : enc->store.bufferNames()) {
      const buffers::SymBuffer* buf = std::as_const(enc->store).buffer(name);
      appendSeries(*enc, name + ".backlog", t, buf->backlogP());
      appendSeries(*enc, name + ".dropped", t, buf->droppedP());
    }

    // 5. Connection flushes (visible at t+1; paper §3 composition).
    for (const auto& conn : unit.network().connections()) {
      buffers::SymBuffer* from = enc->store.buffer(
          qualifiedName(conn.fromInstance, conn.fromParam, conn.fromIndex));
      buffers::SymBuffer* to = enc->store.buffer(
          qualifiedName(conn.toInstance, conn.toParam, conn.toIndex));
      buffers::PacketBatch batch = from->popAll();
      appendSeries(
          *enc,
          qualifiedName(conn.fromInstance, conn.fromParam, conn.fromIndex) +
              ".out",
          t, batch.count);
      to->accept(batch, arena.trueTerm());
    }

    // 6. Drain unconnected outputs (the network egress).
    for (const auto& ci : unit.instances()) {
      for (const auto& bu : unit.bufferUnits(ci)) {
        if (bu.spec->role != BufferSpec::Role::Output) continue;
        if (unit.connectedOutputs().count(bu.qualified) != 0) continue;
        buffers::SymBuffer* buf = enc->store.buffer(bu.qualified);
        buffers::PacketBatch batch = buf->popAll();
        appendSeries(*enc, bu.qualified + ".out", t, batch.count);
      }
    }
  }

  // Contract invariants.
  for (const auto& [instName, contract] : unit.network().contracts()) {
    if (!contract.invariants) continue;
    const core::ContractView view(&enc->series, instName, options.horizon);
    contract.invariants(view, arena, enc->assumptions);
  }

  // Workload assumptions (symbolic runs only) — kept apart from the
  // structural assumptions so rebindWorkload can swap them later.
  if (concrete == nullptr) {
    workload.apply(enc->arrivals(), arena, enc->workloadTerms);
  }
  if (stats != nullptr) {
    timer->stop();
    stats->stage("encode").nodes = enc->arena.size();
  }
  return enc;
}

}  // namespace buffy::pipeline
