// Serialized solver jobs and results (DESIGN.md §13): everything a
// crash-isolated worker needs to reproduce one analysis unit — model
// sources + compile options + buffer configuration, the query list, the
// horizon, the solve budget, and the fault plan — plus the result record
// it sends back (verdict, witness trace, attempt log).
//
// A WireJob is self-contained on purpose: the worker re-compiles from
// source rather than receiving pointers into the parent's arena, so a
// worker crash can never corrupt parent state and a retried job is
// bit-identical to its first attempt. The cost (one front-half compile per
// job) matches what the in-process sweep already pays per horizon.
//
// Not every analysis is describable this way: contract networks carry
// invariant closures, and programmatic Workload rules are opaque
// std::function values. `describable()` gates the isolate path; callers
// degrade to the in-process engine when it refuses.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "backends/fault_plan.hpp"
#include "cache/verdict_cache.hpp"
#include "core/analysis.hpp"
#include "core/network.hpp"
#include "procs/protocol.hpp"

namespace buffy::procs {

/// One scheduled fault, wire form of FaultPlan::at.
struct WireFault {
  std::string scope;
  std::uint64_t nth = 0;
  int kind = 0;  // static_cast<int>(FaultAction::Kind)
  std::string reason;
  unsigned delayMs = 0;
};

/// A self-contained analysis job.
struct WireJob {
  /// Program instances + connections (contract-free networks only).
  std::vector<core::ProgramSpec> programs;
  std::vector<core::Connection> connections;

  int horizon = 4;
  buffers::ModelKind model = buffers::ModelKind::List;
  bool verify = false;
  /// Solve through SMT-LIB emission + reparse instead of the native
  /// engine (the portfolio's "smtlib" member).
  bool viaSmtLib = false;

  /// Query texts, answered in order through one shared engine. An empty
  /// list with `verify` means Query::always() (bare `buffy verify`).
  std::vector<std::string> queries;
  /// CLI-format workload specs ("B:lo:hi" / "B@t:lo:hi"), re-parsed by the
  /// worker at its own horizon (core::workloadFromSpecs).
  std::vector<std::string> workloadSpecs;

  // Solve budget + engine options (mirrors AnalysisOptions).
  std::optional<unsigned> timeoutMs = 120000;
  std::optional<unsigned> rlimit;
  std::optional<unsigned> maxMemoryMb;
  std::optional<unsigned> randomSeed;
  bool retryEnabled = true;
  bool replayWitness = true;
  bool optEnabled = true;
  bool unrollLoops = false;
  bool symbolicInitialState = false;
  CompileBudget budget;

  /// Verdict-cache configuration (DESIGN.md §14). The worker rebuilds its
  /// own VerdictCache from these: the in-memory tier starts cold, but the
  /// disk tier (cacheDir) is the same directory the parent uses, so a
  /// worker both reads the parent's warm entries and leaves its own for
  /// later runs. Keys are content-addressed over the recompiled terms, so
  /// parent and worker land on identical keys by construction.
  bool cacheEnabled = false;
  std::string cacheDir;
  std::uint64_t cacheMaxDiskBytes = 0;
  bool cacheVerify = false;

  /// Fault-injection scope this job's engine runs under, and the full
  /// fault plan (worker-kind entries are interpreted by the worker loop
  /// keyed on (faultScope, attempt); solver-kind entries reach the
  /// engine as usual).
  std::string faultScope;
  std::vector<WireFault> faults;

  /// Retry ordinal, stamped by the supervisor: 0 on the first try, +1 per
  /// retry. Keys deterministic worker-fault injection.
  unsigned attempt = 0;
};

/// Wire form of one query's AnalysisResult.
struct WireVerdict {
  std::string verdict;  // core::verdictName
  std::string detail;
  double solveSeconds = 0.0;
  bool canceled = false;
  bool witnessChecked = false;
  std::vector<core::SolveAttempt> attempts;
  std::optional<core::Trace> trace;
  /// Content-addressed cache key the worker's engine derived for this
  /// query ("" when the job ran uncached). The supervisor's caller uses it
  /// to replay the verdict into the parent-side cache (populateCache).
  std::string cacheKey;
  /// True when the worker answered this query from its cache.
  bool cached = false;
};

/// Whole-job reply.
struct WireResult {
  /// One verdict per job query, in query order. Empty iff `error` is set.
  std::vector<WireVerdict> verdicts;
  /// A clean in-worker failure (compile error, budget exceeded). The job
  /// was *answered* — with a failure — so the supervisor does not retry.
  std::string error;
};

// ---- codecs -------------------------------------------------------------

std::string encodeJob(const WireJob& job);
WireJob decodeJob(const WireMap& payload);

std::string encodeResult(const WireResult& result);
WireResult decodeResult(const WireMap& payload);

/// True when `kind` is interpreted by the worker loop (process-level
/// fault) rather than by the solver backend.
bool isWorkerFaultKind(backends::FaultAction::Kind kind);

/// Builds the job's fault plan (all entries; the backend ignores
/// worker-kind actions).
backends::FaultPlanPtr faultPlanFromWire(const std::vector<WireFault>& faults);
std::vector<WireFault> faultsToWire(const backends::FaultPlanPtr& plan);

/// Can this analysis be shipped to a worker process? Requires a
/// contract-free network, textual (or empty-verify) queries, and a
/// workload either empty or covered by `workloadSpecs`.
bool describable(const core::Network& network,
                 const core::Workload& workload,
                 const std::vector<std::string>& workloadSpecs);

/// Builds the engine-options part of a WireJob from AnalysisOptions (the
/// network/query/workload parts are the caller's).
void applyOptionsToJob(const core::AnalysisOptions& options, WireJob& job);
/// The inverse: engine options the worker runs the job with.
core::AnalysisOptions optionsFromJob(const WireJob& job);

/// AnalysisResult <-> WireVerdict.
WireVerdict wireFromAnalysis(const core::AnalysisResult& result);
core::AnalysisResult analysisFromWire(const WireVerdict& wire);

/// Inverse of core::verdictName; throws ProtocolError on an unknown name
/// (a garbled reply must not be mistaken for an answer).
core::Verdict verdictFromName(const std::string& name);

/// Replays a worker-reported verdict into a parent-side cache: conclusive,
/// non-canceled verdicts carrying a cache key are stored; everything else
/// is ignored. Safe to call on every reply verdict.
void populateCache(cache::VerdictCache& cache, const WireVerdict& wire);

}  // namespace buffy::procs
