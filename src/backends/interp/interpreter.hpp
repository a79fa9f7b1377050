// Concrete interpreter backend: executes a compiled Buffy network on
// concrete traffic, step by step, producing a Trace. Because the IR folds
// all-constant inputs to constants, this is the same evaluator the
// symbolic pipeline uses — which makes the interpreter a trustworthy
// differential-testing oracle for the solver backends (any solver model
// replayed through the interpreter must reproduce the same trace).
#pragma once

#include "core/analysis.hpp"

namespace buffy::backends {

class Simulator {
 public:
  /// `model` must be deterministic for simulation: the list model always
  /// is; the counter model is unless buffers are classified.
  Simulator(core::Network network, int horizon,
            buffers::ModelKind model = buffers::ModelKind::List);

  /// Runs the network on the given arrivals for the configured horizon.
  [[nodiscard]] core::Trace run(const core::ConcreteArrivals& arrivals);

  /// Replays the arrival portion of a solver trace: reconstructs concrete
  /// arrivals with the engine's own witness-replay reconstruction
  /// (core::Analysis::arrivalsFromTrace, which throws on a count its
  /// buffer cannot take) and simulates them. Only meaningful for networks
  /// without havoc nondeterminism.
  [[nodiscard]] core::Trace replay(const core::Trace& trace);

  /// External input buffer names (targets for ConcreteArrivals keys).
  [[nodiscard]] std::vector<std::string> inputs() const;

 private:
  core::Network network_;
  int horizon_;
  buffers::ModelKind model_;
  std::vector<std::string> inputs_;
};

/// Convenience: a packet with a single "val" field.
[[nodiscard]] core::ConcretePacket valPacket(std::int64_t value);

}  // namespace buffy::backends
