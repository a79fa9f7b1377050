#include "core/transition.hpp"

#include <set>

#include "buffers/counter_model.hpp"
#include "buffers/list_model.hpp"
#include "eval/evaluator.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "sem/passes.hpp"
#include "support/error.hpp"
#include "transform/transforms.hpp"

namespace buffy::core {

const TransitionSystem::StateVar* TransitionSystem::find(
    const std::string& name) const {
  for (const auto& sv : state) {
    if (sv.name == name) return &sv;
  }
  return nullptr;
}

namespace {

std::string qname(const std::string& inst, const std::string& param,
                  int idx = -1) {
  std::string out = inst + "." + param;
  if (idx >= 0) out += "." + std::to_string(idx);
  return out;
}

struct GlobalDecl {
  std::string name;  // unqualified
  lang::Type type;
  std::int64_t init = 0;  // constant initializer (scalars only)
  bool monitor = false;
};

/// Collects every global/monitor declaration in a (folded) program body,
/// requiring constant initializers (CHC restriction).
void collectGlobals(const lang::AstArena& arena, lang::StmtId block,
                    std::vector<GlobalDecl>& out) {
  const lang::StmtSpan span = arena.stmt(block).block.stmts;
  for (std::uint32_t i = 0; i < span.count; ++i) {
    const lang::StmtId stmtId = arena.spanAt(span, i);
    const lang::StmtNode& stmt = arena.stmt(stmtId);
    switch (stmt.kind) {
      case lang::StmtKind::Decl: {
        const auto& s = stmt.decl;
        if (s.storage != lang::Storage::Global &&
            s.storage != lang::Storage::Monitor) {
          break;
        }
        GlobalDecl decl;
        decl.name = arena.str(s.name);
        decl.type = s.declType;
        decl.monitor = s.storage == lang::Storage::Monitor;
        if (s.init.valid()) {
          const lang::ExprNode& init = arena.expr(s.init);
          if (init.kind == lang::ExprKind::IntLit) {
            decl.init = init.intLit.value;
          } else if (init.kind == lang::ExprKind::BoolLit) {
            decl.init = init.boolLit.value ? 1 : 0;
          } else {
            throw AnalysisError(
                "CHC mode requires constant global initializers; '" +
                    decl.name + "' is initialized with " +
                    lang::printExpr(arena, s.init),
                arena.stmtLoc(stmtId));
          }
        }
        out.push_back(std::move(decl));
        break;
      }
      case lang::StmtKind::Block:
        collectGlobals(arena, stmtId, out);
        break;
      case lang::StmtKind::If: {
        const auto& s = stmt.ifs;
        collectGlobals(arena, s.thenBlock, out);
        if (s.elseBlock.valid()) collectGlobals(arena, s.elseBlock, out);
        break;
      }
      case lang::StmtKind::For:
        collectGlobals(arena, stmt.fors.body, out);
        break;
      default:
        break;
    }
  }
}

struct CompiledInstance {
  std::string name;
  lang::Ast ast;
  lang::TypecheckResult symbols;
  std::vector<BufferSpec> buffers;
  std::vector<GlobalDecl> globals;
};

CompiledInstance compileSpec(const ProgramSpec& spec,
                             const CompileBudget& budget) {
  CompiledInstance ci;
  ci.ast = lang::parse(spec.source, budget);
  ci.name = spec.instance.empty() ? ci.ast.program.name : spec.instance;
  ci.symbols = lang::checkOrThrow(ci.ast, spec.compile);
  ci.buffers = spec.buffers;

  sem::BufferRoles roles;
  for (const auto& b : ci.buffers) {
    if (b.role == BufferSpec::Role::Input) roles.inputs.insert(b.param);
    if (b.role == BufferSpec::Role::Output) roles.outputs.insert(b.param);
  }
  DiagnosticEngine diag;
  sem::checkWellFormed(ci.ast, roles, diag);
  sem::checkGhostNonInterference(ci.ast, ci.symbols.monitors, diag);
  if (diag.hasErrors()) {
    throw SemanticError("semantic checks failed for '" + ci.name + "':\n" +
                        diag.renderAll());
  }
  transform::inlineFunctions(ci.ast, budget);
  transform::foldConstants(ci.ast);
  collectGlobals(ci.ast.arena, ci.ast.program.body, ci.globals);
  return ci;
}

class TransitionBuilder {
 public:
  TransitionBuilder(const Network& network, const TransitionOptions& options)
      : network_(network), options_(options) {}

  std::unique_ptr<TransitionSystem> build() {
    if (!network_.contracts().empty()) {
      throw AnalysisError("CHC mode does not support contract instances");
    }
    auto ts = std::make_unique<TransitionSystem>();
    ir::TermArena& arena = ts->arena;
    arena.setNodeLimit(options_.budget.maxTermNodes);
    eval::Store store(arena);

    std::set<std::string> names;
    for (const auto& spec : network_.instances()) {
      instances_.push_back(compileSpec(spec, options_.budget));
      if (!names.insert(instances_.back().name).second) {
        throw AnalysisError("duplicate instance name '" +
                            instances_.back().name + "'");
      }
    }
    validateConnections();

    // --- register buffers and set symbolic pre-state ---
    for (const auto& ci : instances_) {
      for (const auto& unit : bufferUnits(ci)) {
        buffers::BufferConfig cfg;
        cfg.name = unit.qualified;
        cfg.capacity = unit.spec->capacity;
        cfg.schema = unit.spec->schema;
        cfg.classField = unit.spec->classField;
        cfg.classDomain = unit.spec->classDomain;
        cfg.bytesPerPacket = unit.spec->bytesPerPacket;
        const buffers::ModelKind kind =
            unit.spec->modelOverride.value_or(options_.model);
        std::unique_ptr<buffers::SymBuffer> buf;
        if (kind == buffers::ModelKind::Counter) {
          buf = std::make_unique<buffers::CounterBuffer>(std::move(cfg),
                                                         arena,
                                                         &ts->constraints);
        } else {
          buf = std::make_unique<buffers::ListBuffer>(std::move(cfg), arena);
        }
        // One pre-state variable per buffer state element; initial state is
        // the freshly-constructed (empty) buffer's constant state.
        const auto initial = buf->stateTerms();
        std::vector<ir::TermRef> preTerms;
        for (const auto& [element, initTerm] : initial) {
          TransitionSystem::StateVar sv;
          sv.name = unit.qualified + "." + element;
          sv.sort = ir::Sort::Int;
          sv.pre = arena.var("pre." + sv.name, ir::Sort::Int);
          sv.init = initTerm;
          sv.post = nullptr;  // filled after the step
          preTerms.push_back(sv.pre);
          ts->state.push_back(std::move(sv));
        }
        buf->setStateTerms(preTerms);
        store.addBuffer(unit.qualified, std::move(buf));
      }
    }

    // --- globals, monitors, lists as pre-state variables ---
    for (const auto& ci : instances_) {
      for (const auto& g : ci.globals) {
        defineGlobalState(*ts, store, ci.name, g);
      }
    }

    // --- ghost totals ---
    if (options_.trackTotals) {
      for (const auto& ci : instances_) {
        for (const auto& unit : bufferUnits(ci)) {
          if (unit.spec->role == BufferSpec::Role::Input &&
              connectedInputs_.count(unit.qualified) == 0) {
            addScalarState(*ts, unit.qualified + ".arrivedTotal",
                           ir::Sort::Int, 0);
          }
          if (unit.spec->role == BufferSpec::Role::Output &&
              connectedOutputs_.count(unit.qualified) == 0) {
            addScalarState(*ts, unit.qualified + ".outTotal", ir::Sort::Int,
                           0);
          }
        }
      }
    }

    // --- record which arena vars are state (everything else is input) ---
    std::set<const ir::Term*> stateVars;
    for (const auto& sv : ts->state) stateVars.insert(sv.pre);

    // --- one symbolic step ---
    eval::EvalSinks sinks;
    std::vector<eval::Obligation> obligations;
    std::vector<ir::TermRef> soundness;
    sinks.assumptions = &ts->constraints;
    sinks.obligations = &obligations;
    sinks.soundness = &soundness;

    std::map<std::string, std::vector<ArrivalVars>> arrivalVars;

    // 1. Arrivals into external inputs.
    for (const auto& ci : instances_) {
      for (const auto& unit : bufferUnits(ci)) {
        if (unit.spec->role != BufferSpec::Role::Input) continue;
        if (connectedInputs_.count(unit.qualified) != 0) continue;
        emitArrivals(*ts, store, unit, arrivalVars);
      }
    }
    // 2. Programs (step index 1: persistent declarations already exist).
    for (const auto& ci : instances_) {
      eval::Evaluator evaluator(arena, store, sinks, ci.name + ".");
      evaluator.setBudget(options_.budget);
      evaluator.execStep(ci.ast, 1);
    }
    // 3. Connection flushes.
    for (const auto& conn : network_.connections()) {
      buffers::SymBuffer* from = store.buffer(
          qname(conn.fromInstance, conn.fromParam, conn.fromIndex));
      buffers::SymBuffer* to = store.buffer(
          qname(conn.toInstance, conn.toParam, conn.toIndex));
      buffers::flush(*from, *to, arena);
    }
    // 4. Drain unconnected outputs, accumulating outTotal.
    for (const auto& ci : instances_) {
      for (const auto& unit : bufferUnits(ci)) {
        if (unit.spec->role != BufferSpec::Role::Output) continue;
        if (connectedOutputs_.count(unit.qualified) != 0) continue;
        buffers::SymBuffer* buf = store.buffer(unit.qualified);
        const buffers::PacketBatch batch = buf->popAll();
        if (options_.trackTotals) {
          setPost(*ts, unit.qualified + ".outTotal",
                  arena.add(preOf(*ts, unit.qualified + ".outTotal"),
                            batch.count));
        }
      }
    }

    // Workload rules (horizon-1 arrival view; rules apply per step).
    options_.stepWorkload.apply(ArrivalView(&arrivalVars, 1), arena,
                                ts->constraints);

    // arrivedTotal posts.
    if (options_.trackTotals) {
      for (const auto& [buffer, vars] : arrivalVars) {
        setPost(*ts, buffer + ".arrivedTotal",
                arena.add(preOf(*ts, buffer + ".arrivedTotal"),
                          vars.front().count));
      }
    }

    // --- read back the post-state ---
    for (auto& sv : ts->state) {
      if (sv.post != nullptr) continue;  // totals set above
      sv.post = postFromStore(store, sv.name);
    }

    // Obligations and soundness.
    for (const auto& obl : obligations) ts->obligations.push_back(obl.cond);
    for (const auto& s : soundness) ts->constraints.push_back(s);

    // Inputs = every arena variable that is not a pre-state variable.
    for (const ir::TermRef v : arena.variables()) {
      if (stateVars.count(v) == 0) ts->inputs.push_back(v);
    }
    return ts;
  }

 private:
  struct BufferUnit {
    std::string qualified;
    const BufferSpec* spec = nullptr;
    int index = -1;
  };

  std::vector<BufferUnit> bufferUnits(const CompiledInstance& ci) {
    std::vector<BufferUnit> out;
    for (const auto& b : ci.buffers) {
      const auto it = ci.symbols.paramTypes.find(b.param);
      if (it == ci.symbols.paramTypes.end() || !it->second.isBufferLike()) {
        throw AnalysisError("BufferSpec '" + b.param +
                            "' does not match a buffer parameter of '" +
                            ci.name + "'");
      }
      if (it->second.kind == lang::TypeKind::BufferArray) {
        for (int i = 0; i < it->second.size; ++i) {
          out.push_back(BufferUnit{qname(ci.name, b.param, i), &b, i});
        }
      } else {
        out.push_back(BufferUnit{qname(ci.name, b.param), &b, -1});
      }
    }
    // Every buffer parameter must have a spec.
    for (const auto& [param, type] : ci.symbols.paramTypes) {
      if (!type.isBufferLike()) continue;
      bool found = false;
      for (const auto& b : ci.buffers) found = found || b.param == param;
      if (!found) {
        throw AnalysisError("buffer parameter '" + param + "' of '" +
                            ci.name + "' has no BufferSpec");
      }
    }
    return out;
  }

  void validateConnections() {
    for (const auto& conn : network_.connections()) {
      connectedOutputs_.insert(
          qname(conn.fromInstance, conn.fromParam, conn.fromIndex));
      connectedInputs_.insert(
          qname(conn.toInstance, conn.toParam, conn.toIndex));
    }
  }

  void addScalarState(TransitionSystem& ts, const std::string& name,
                      ir::Sort sort, std::int64_t init) {
    TransitionSystem::StateVar sv;
    sv.name = name;
    sv.sort = sort;
    sv.pre = ts.arena.var("pre." + name, sort);
    sv.init = sort == ir::Sort::Int ? ts.arena.intConst(init)
                                    : ts.arena.boolConst(init != 0);
    sv.post = nullptr;
    ts.state.push_back(std::move(sv));
  }

  ir::TermRef preOf(const TransitionSystem& ts, const std::string& name) {
    const auto* sv = ts.find(name);
    if (sv == nullptr) throw AnalysisError("no state var '" + name + "'");
    return sv->pre;
  }

  void setPost(TransitionSystem& ts, const std::string& name,
               ir::TermRef post) {
    for (auto& sv : ts.state) {
      if (sv.name == name) {
        sv.post = post;
        return;
      }
    }
    throw AnalysisError("no state var '" + name + "'");
  }

  void defineGlobalState(TransitionSystem& ts, eval::Store& store,
                         const std::string& inst, const GlobalDecl& g) {
    ir::TermArena& arena = ts.arena;
    const std::string base = inst + "." + g.name;
    switch (g.type.kind) {
      case lang::TypeKind::Int:
      case lang::TypeKind::Bool: {
        const ir::Sort sort =
            g.type.kind == lang::TypeKind::Int ? ir::Sort::Int : ir::Sort::Bool;
        addScalarState(ts, base, sort, g.init);
        store.defineGlobal(base,
                           eval::Value::makeScalar(ts.state.back().pre),
                           g.monitor);
        break;
      }
      case lang::TypeKind::IntArray:
      case lang::TypeKind::BoolArray: {
        const ir::Sort sort = g.type.kind == lang::TypeKind::IntArray
                                  ? ir::Sort::Int
                                  : ir::Sort::Bool;
        std::vector<ir::TermRef> elems;
        for (int i = 0; i < g.type.size; ++i) {
          addScalarState(ts, base + "." + std::to_string(i), sort, 0);
          elems.push_back(ts.state.back().pre);
        }
        store.defineGlobal(base, eval::Value::makeArray(std::move(elems)),
                           g.monitor);
        break;
      }
      case lang::TypeKind::List: {
        eval::SymList list(base, g.type.size, arena);
        // State layout: len, elem0..elemC-1 (ints) + overflowed (bool).
        addScalarState(ts, base + ".len", ir::Sort::Int, 0);
        const ir::TermRef lenPre = ts.state.back().pre;
        std::vector<ir::TermRef> elemPre;
        for (int i = 0; i < g.type.size; ++i) {
          addScalarState(ts, base + ".elem" + std::to_string(i),
                         ir::Sort::Int, 0);
          elemPre.push_back(ts.state.back().pre);
        }
        addScalarState(ts, base + ".overflowed", ir::Sort::Bool, 0);
        const ir::TermRef ovPre = ts.state.back().pre;
        list.setState(lenPre, elemPre, ovPre);
        store.defineGlobal(base, eval::Value::makeList(std::move(list)),
                           g.monitor);
        break;
      }
      default:
        throw AnalysisError("unsupported global type in CHC mode: " +
                            g.type.str());
    }
  }

  void emitArrivals(TransitionSystem& ts, eval::Store& store,
                    const BufferUnit& unit,
                    std::map<std::string, std::vector<ArrivalVars>>& out) {
    ir::TermArena& arena = ts.arena;
    const BufferSpec& spec = *unit.spec;
    buffers::SymBuffer* buf = store.buffer(unit.qualified);

    ArrivalVars av;
    av.count = arena.var("in." + unit.qualified + ".n", ir::Sort::Int);
    ts.constraints.push_back(arena.le(arena.intConst(0), av.count));
    ts.constraints.push_back(
        arena.le(av.count, arena.intConst(spec.maxArrivalsPerStep)));
    buffers::PacketBatch batch;
    batch.count = av.count;
    for (int i = 0; i < spec.maxArrivalsPerStep; ++i) {
      std::map<std::string, ir::TermRef> fields;
      for (const auto& field : spec.schema.fields) {
        const ir::TermRef v = arena.var(
            "in." + unit.qualified + ".p" + std::to_string(i) + "." + field,
            ir::Sort::Int);
        fields[field] = v;
        if (field == buffers::BufferSchema::kBytesField) {
          ts.constraints.push_back(arena.le(arena.intConst(1), v));
          ts.constraints.push_back(
              arena.le(v, arena.intConst(spec.maxPacketBytes)));
        } else if (field == spec.classField && spec.classDomain > 0) {
          ts.constraints.push_back(arena.le(arena.intConst(0), v));
          ts.constraints.push_back(
              arena.lt(v, arena.intConst(spec.classDomain)));
        }
      }
      av.slots.push_back(fields);
      batch.slots.push_back(buffers::PacketSlot{std::move(fields)});
    }
    buf->accept(batch, arena.trueTerm());
    out[unit.qualified].push_back(std::move(av));
  }

  /// Reads the post value of a named state element back from the store.
  ir::TermRef postFromStore(const eval::Store& store,
                            const std::string& name) {
    // Buffer state: "<buf>.<element>" where <buf> is a registered buffer.
    for (const auto& bufName : store.bufferNames()) {
      if (name.size() > bufName.size() + 1 &&
          name.compare(0, bufName.size(), bufName) == 0 &&
          name[bufName.size()] == '.') {
        const std::string element = name.substr(bufName.size() + 1);
        for (const auto& [el, term] : store.buffer(bufName)->stateTerms()) {
          if (el == element) return term;
        }
      }
    }
    // Generic resolution: try the exact name (scalar global), then strip
    // the last dotted component (array element / list element).
    if (const eval::Value* v = store.find(name);
        v != nullptr && v->kind == eval::Value::Kind::Scalar) {
      return v->scalar;
    }
    const std::size_t dot = name.rfind('.');
    if (dot != std::string::npos) {
      const std::string base = name.substr(0, dot);
      const std::string last = name.substr(dot + 1);
      const eval::Value* v = store.find(base);
      if (v != nullptr) {
        if (v->kind == eval::Value::Kind::Array) {
          return v->array.at(static_cast<std::size_t>(std::stoi(last)));
        }
        if (v->kind == eval::Value::Kind::List) {
          const auto& list = v->asList();
          if (last == "len") return list.lenTerm();
          if (last == "overflowed") return list.overflowedTerm();
          if (last.rfind("elem", 0) == 0) {
            return list.elemAt(std::stoi(last.substr(4)));
          }
        }
      }
    }
    throw AnalysisError("cannot resolve post-state for '" + name + "'");
  }

  const Network& network_;
  const TransitionOptions& options_;
  std::vector<CompiledInstance> instances_;
  std::set<std::string> connectedInputs_;
  std::set<std::string> connectedOutputs_;
};

}  // namespace

std::unique_ptr<TransitionSystem> buildTransitionSystem(
    const Network& network, const TransitionOptions& options) {
  return TransitionBuilder(network, options).build();
}

}  // namespace buffy::core
