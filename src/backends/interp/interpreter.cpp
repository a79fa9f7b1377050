#include "backends/interp/interpreter.hpp"

#include "support/error.hpp"

namespace buffy::backends {

Simulator::Simulator(core::Network network, int horizon,
                     buffers::ModelKind model)
    : network_(std::move(network)), horizon_(horizon), model_(model) {
  // Capture input names once (Analysis validates everything).
  core::AnalysisOptions opts;
  opts.horizon = horizon_;
  opts.model = model_;
  core::Analysis probe(network_, opts);
  inputs_ = probe.inputBufferNames();
}

core::Trace Simulator::run(const core::ConcreteArrivals& arrivals) {
  core::AnalysisOptions opts;
  opts.horizon = horizon_;
  opts.model = model_;
  core::Analysis analysis(network_, opts);
  for (const auto& [buffer, steps] : arrivals) {
    bool known = false;
    for (const auto& input : inputs_) {
      if (input == buffer) known = true;
    }
    if (!known) {
      throw AnalysisError("arrivals given for unknown input buffer '" +
                          buffer + "'");
    }
    if (static_cast<int>(steps.size()) > horizon_) {
      throw AnalysisError("arrivals for '" + buffer +
                          "' exceed the horizon");
    }
  }
  return analysis.simulate(arrivals);
}

core::Trace Simulator::replay(const core::Trace& trace) {
  core::AnalysisOptions opts;
  opts.horizon = horizon_;
  opts.model = model_;
  return run(core::Analysis(network_, opts).arrivalsFromTrace(trace));
}

std::vector<std::string> Simulator::inputs() const { return inputs_; }

core::ConcretePacket valPacket(std::int64_t value) {
  return core::ConcretePacket{{"val", value}};
}

}  // namespace buffy::backends
