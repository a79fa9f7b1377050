// Serialized solver jobs and results (DESIGN.md §13): everything a
// crash-isolated worker needs to reproduce one analysis unit — the network,
// the engine options (fault plan included), the query list and the
// workload specs — plus the result record it sends back. Both records hold
// the engine's own types; the codecs below are their only wire form, and
// each answer in a result is core's verdict record (core::encodeVerdict),
// the same bytes the verdict cache stores.
//
// A WireJob is self-contained on purpose: the worker re-compiles from
// source rather than receiving pointers into the parent's arena, so a
// worker crash can never corrupt parent state and a retried job is
// bit-identical to its first attempt. The cost (one front-half compile per
// job) matches what the in-process sweep already pays per horizon.
//
// Not every analysis is describable this way: contract networks carry
// invariant closures, custom queries and programmatic Workload rules are
// opaque std::function values. `describable()` gates the isolate path;
// callers stay on the in-process engine when it refuses.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cache/verdict_cache.hpp"
#include "core/analysis.hpp"
#include "core/network.hpp"
#include "support/wire_map.hpp"

namespace buffy::procs {

/// A self-contained analysis job.
struct WireJob {
  /// Program instances + connections; contracts never cross the wire.
  core::Network network;
  /// Engine options, fault plan included. Worker-kind fault entries are
  /// interpreted by the worker loop keyed on (faultScope, attempt); the
  /// engine ignores them. `options.cache` does not cross the wire: `cache`
  /// carries its settings, and the worker builds its own VerdictCache from
  /// them. Its disk tier is the parent's directory, so a worker reads the
  /// parent's warm entries and leaves its own for later runs.
  core::AnalysisOptions options;
  std::optional<cache::VerdictCacheOptions> cache;
  bool verify = false;
  /// Query texts, answered in order through one shared engine.
  std::vector<std::string> queries;
  /// CLI-format workload specs ("B:lo:hi" / "B@t:lo:hi"), re-parsed by the
  /// worker at the job's horizon (core::workloadFromSpecs).
  std::vector<std::string> workloadSpecs;
  /// Fault-injection scope the job's engine runs under.
  std::string faultScope;
  /// Retry ordinal, stamped by the supervisor: 0 on the first try, +1 per
  /// retry. Keys deterministic worker-fault injection.
  unsigned attempt = 0;
};

/// Whole-job reply.
struct WireResult {
  /// One result per job query, in query order. Empty iff `error` is set.
  /// Only the verdict record crosses the wire: optimizer and pipeline
  /// accounting stay in the worker.
  std::vector<core::AnalysisResult> verdicts;
  /// A clean in-worker failure (compile error, budget exceeded), or the
  /// supervisor's report of a job no worker answered.
  std::string error;
};

// ---- codecs -------------------------------------------------------------

/// Decoding throws DecodeError on any malformed field, including an
/// unknown verdict name or fault kind, or a trace that breaks Trace's
/// invariant: a garbled-but-checksummed frame must never travel further as
/// if it were a job or an answer.
std::string encodeJob(const WireJob& job);
WireJob decodeJob(const WireMap& payload);

std::string encodeResult(const WireResult& result);
WireResult decodeResult(const WireMap& payload);

/// Can these queries be shipped to a worker process? Requires a
/// contract-free network, textual queries (or Query::always, whose
/// description "true" parses to the same term), and a workload either
/// empty or covered by `workloadSpecs`.
bool describable(const core::Network& network,
                 const core::Workload& workload,
                 const std::vector<std::string>& workloadSpecs,
                 const std::vector<core::Query>& queries);

}  // namespace buffy::procs
