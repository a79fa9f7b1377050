// The unrolled symbolic encoding of a network over a bounded horizon —
// the artifact the compile pipeline produces (pipeline::buildEncoding) and
// every back-end consumes. Lives below Analysis so the pipeline layer can
// build it without depending on the solver back-ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/query.hpp"
#include "core/workload.hpp"
#include "eval/evaluator.hpp"
#include "eval/store.hpp"
#include "ir/term.hpp"

namespace buffy::core {

/// The unrolled symbolic encoding of a network over the horizon.
/// Owns the term arena; everything else points into it.
class Encoding {
 public:
  Encoding() : store(arena) {}
  Encoding(const Encoding&) = delete;
  Encoding& operator=(const Encoding&) = delete;

  ir::TermArena arena;
  eval::Store store;
  std::vector<ir::TermRef> assumptions;
  std::vector<eval::Obligation> obligations;
  std::vector<ir::TermRef> soundness;
  /// Workload constraints, kept apart from the structural `assumptions` so
  /// a new workload can be re-bound onto this encoding as a delta (the
  /// compiled instances and term arena survive).
  std::vector<ir::TermRef> workloadTerms;
  std::map<std::string, std::vector<ArrivalVars>> arrivalVars;
  std::map<std::string, std::vector<ir::TermRef>> series;
  int horizon = 0;

  [[nodiscard]] ArrivalView arrivals() const {
    return ArrivalView(&arrivalVars, horizon);
  }
  [[nodiscard]] SeriesView seriesView() const {
    return SeriesView(&series, horizon);
  }
};

/// Concrete traffic for simulation: qualified buffer name ->
/// per-step list of packets (each a field->value map).
using ConcretePacket = std::map<std::string, std::int64_t>;
using ConcreteArrivals =
    std::map<std::string, std::vector<std::vector<ConcretePacket>>>;

}  // namespace buffy::core
