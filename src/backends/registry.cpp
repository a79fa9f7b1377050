#include "backends/registry.hpp"

#include <mutex>
#include <utility>

#include "backends/dafny/dafny_emitter.hpp"
#include "backends/interp/interpreter.hpp"
#include "support/error.hpp"

namespace buffy::backends {

core::AnalysisResult SolverBackend::solve(core::Analysis&, const core::Query&,
                                          bool) {
  throw BackendError(std::string("backend '") + name() +
                     "' cannot solve queries");
}

std::string SolverBackend::emit(core::Analysis&, const core::Query&, bool) {
  throw BackendError(std::string("backend '") + name() +
                     "' cannot emit text");
}

core::Trace SolverBackend::simulate(core::Analysis&,
                                    const core::ConcreteArrivals&) {
  throw BackendError(std::string("backend '") + name() +
                     "' cannot simulate concretely");
}

namespace {

/// The default engine: one-shot native Z3 solves with the retry ladder and
/// witness replay (DESIGN.md §8).
class Z3RegistryBackend final : public SolverBackend {
 public:
  [[nodiscard]] const char* name() const override { return "z3"; }
  [[nodiscard]] const char* description() const override {
    return "one-shot native Z3 solve (retry ladder, witness replay)";
  }
  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.solve = true;
    caps.witnessExtraction = true;
    return caps;
  }
  core::AnalysisResult solve(core::Analysis& analysis,
                             const core::Query& query,
                             bool forVerify) override {
    return forVerify ? analysis.verify(query) : analysis.check(query);
  }
};

/// The §4 text path: render the standalone problem as SMT-LIB2 and solve
/// the reparse through a fresh one-shot solver.
class SmtLibRegistryBackend final : public SolverBackend {
 public:
  [[nodiscard]] const char* name() const override { return "smtlib"; }
  [[nodiscard]] const char* description() const override {
    return "SMT-LIB2 emission + reparse through a fresh one-shot solver";
  }
  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.solve = true;
    caps.witnessExtraction = true;
    caps.emitText = true;
    return caps;
  }
  core::AnalysisResult solve(core::Analysis& analysis,
                             const core::Query& query,
                             bool forVerify) override {
    return analysis.solveViaSmtLib(query, forVerify);
  }
  std::string emit(core::Analysis& analysis, const core::Query& query,
                   bool forVerify) override {
    return analysis.toSmtLib(query, forVerify);
  }
};

/// Emit-only: renders the compiled (inlined) program as a Dafny method
/// (paper §6.1). Dafny itself is not executed here — see DESIGN.md §1.
class DafnyRegistryBackend final : public SolverBackend {
 public:
  [[nodiscard]] const char* name() const override { return "dafny"; }
  [[nodiscard]] const char* description() const override {
    return "Dafny method emission (structured-havoc translation, emit-only)";
  }
  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.emitText = true;
    return caps;
  }
  std::string emit(core::Analysis& analysis, const core::Query&,
                   bool) override {
    const auto& unit = *analysis.unit();
    const pipeline::CompiledInstance* target = nullptr;
    for (const auto& ci : unit.instances()) {
      if (ci.isContract) continue;
      if (target != nullptr) {
        throw BackendError(
            "dafny backend emits single-program networks only");
      }
      target = &ci;
    }
    if (target == nullptr) {
      throw BackendError("dafny backend found no program instance");
    }
    DafnyOptions dopts;
    dopts.horizon = unit.options().horizon;
    for (const auto& spec : target->buffers) {
      if (spec.role != core::BufferSpec::Role::Input) continue;
      dopts.inputParams.push_back(spec.param);
      dopts.maxArrivalsPerStep = spec.maxArrivalsPerStep;
    }
    return emitDafny(target->ast, dopts);
  }
};

/// The concrete interpreter: executes the network on given arrivals —
/// the differential-testing oracle behind witness replay.
class InterpRegistryBackend final : public SolverBackend {
 public:
  [[nodiscard]] const char* name() const override { return "interp"; }
  [[nodiscard]] const char* description() const override {
    return "concrete interpreter (deterministic simulation)";
  }
  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.concreteSim = true;
    return caps;
  }
  core::Trace simulate(core::Analysis& analysis,
                       const core::ConcreteArrivals& arrivals) override {
    return analysis.simulate(arrivals);
  }
};

}  // namespace

struct BackendRegistry::State {
  mutable std::mutex mutex;
  std::vector<std::unique_ptr<SolverBackend>> backends;
};

BackendRegistry::BackendRegistry() : state_(std::make_unique<State>()) {
  state_->backends.push_back(std::make_unique<Z3RegistryBackend>());
  state_->backends.push_back(std::make_unique<SmtLibRegistryBackend>());
  state_->backends.push_back(std::make_unique<DafnyRegistryBackend>());
  state_->backends.push_back(std::make_unique<InterpRegistryBackend>());
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::add(std::unique_ptr<SolverBackend> backend) {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  for (const auto& b : state_->backends) {
    if (std::string(b->name()) == backend->name()) {
      throw BackendError(std::string("backend '") + backend->name() +
                         "' is already registered");
    }
  }
  state_->backends.push_back(std::move(backend));
}

SolverBackend* BackendRegistry::find(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  for (const auto& b : state_->backends) {
    if (name == b->name()) return b.get();
  }
  return nullptr;
}

SolverBackend& BackendRegistry::get(const std::string& name) const {
  SolverBackend* backend = find(name);
  if (backend == nullptr) {
    std::string known;
    for (const auto& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw BackendError("unknown backend '" + name + "' (known: " + known +
                       ")");
  }
  return *backend;
}

std::vector<std::string> BackendRegistry::names() const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  std::vector<std::string> out;
  out.reserve(state_->backends.size());
  for (const auto& b : state_->backends) out.emplace_back(b->name());
  return out;
}

}  // namespace buffy::backends
