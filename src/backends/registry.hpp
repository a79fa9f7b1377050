// Backend registry (DESIGN.md §11): back-end selection as data.
//
// Every way Buffy can discharge (or render) an analysis problem — the
// native Z3 engine, the SMT-LIB2 emit+reparse path, the Dafny text
// emitter, and the concrete interpreter — registers a SolverBackend with
// capability flags. Callers (the CLI's --backend flag) look backends up by
// name and validate capabilities instead of hardcoding call sites.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/analysis.hpp"

namespace buffy::backends {

/// What a backend can do. A capability left false means the corresponding
/// virtual is unimplemented and throws BackendError.
struct BackendCapabilities {
  /// Answers check/verify queries with a Verdict.
  bool solve = false;
  /// Produces concrete witness/counterexample traces on Sat.
  bool witnessExtraction = false;
  /// Renders the problem as text (SMT-LIB2 script, Dafny method).
  bool emitText = false;
  /// Executes the network concretely on given arrivals.
  bool concreteSim = false;
};

/// One registered way to discharge an analysis problem. Backends are
/// adapters over a compiled core::Analysis engine: the engine owns the
/// shared CompilationUnit, encoding, and solver state; the backend chooses
/// the discharge path.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual const char* description() const = 0;
  [[nodiscard]] virtual BackendCapabilities capabilities() const = 0;

  /// Answers the query (requires `solve`).
  virtual core::AnalysisResult solve(core::Analysis& analysis,
                                     const core::Query& query, bool forVerify);
  /// Renders the problem as text (requires `emitText`).
  virtual std::string emit(core::Analysis& analysis, const core::Query& query,
                           bool forVerify);
  /// Runs the network concretely (requires `concreteSim`).
  virtual core::Trace simulate(core::Analysis& analysis,
                               const core::ConcreteArrivals& arrivals);
};

/// Process-wide backend table. The four built-ins (z3, smtlib, dafny,
/// interp) are registered on first use; add() accepts extensions.
/// Thread-safe.
class BackendRegistry {
 public:
  static BackendRegistry& instance();

  /// Registers a backend; throws BackendError on a duplicate name.
  void add(std::unique_ptr<SolverBackend> backend);
  /// Nullptr when no backend has that name.
  [[nodiscard]] SolverBackend* find(const std::string& name) const;
  /// Throws BackendError naming the known backends when absent.
  [[nodiscard]] SolverBackend& get(const std::string& name) const;
  /// Registered names, in registration order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  BackendRegistry();

  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace buffy::backends
