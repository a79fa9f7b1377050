// The analysis engine: compiles a Network of Buffy programs, unrolls it
// over a bounded time horizon into the solver-agnostic term IR, and
// dispatches performance queries to the back-ends.
//
// Two query disciplines (paper §4):
//  * check(q)  — FPerf-style bug finding: is there an input traffic trace
//                satisfying the assumptions under which q holds? (∃)
//  * verify(q) — Dafny-style verification: does q (and every in-program
//                assert) hold on all traces satisfying the assumptions? (∀,
//                decided by unsatisfiability of the negation)
//
// Both return a concrete witness/counterexample Trace when the solver
// produces a model.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "backends/smtlib/smtlib_emitter.hpp"
#include "backends/z3/z3_backend.hpp"
#include "cache/verdict_cache.hpp"
#include "core/encoding.hpp"
#include "core/network.hpp"
#include "opt/optimizer.hpp"
#include "core/query.hpp"
#include "core/trace.hpp"
#include "core/workload.hpp"
#include "eval/evaluator.hpp"
#include "eval/store.hpp"
#include "pipeline/compilation_unit.hpp"
#include "support/budget.hpp"

namespace buffy::core {

/// What the engine does when the solver returns Unknown (DESIGN.md §8).
/// The ladder runs at most four attempts per query:
///   initial -> reseed (fresh random seed) -> escalate (scaled budget)
///           -> smtlib (emit + reparse through Z3's default solver).
/// The initial rung first enumerates the raw problem — assumptions,
/// soundness constraints and the query delta, before any planning — by
/// memoized search (Z3Backend::enumerateOrCheck); only when that declines
/// does the optimizer plan the query-specialized problem, which that
/// attempt, reseed and escalate solve one-shot through the preprocessing
/// solver (Z3Backend::check). The smtlib
/// rung re-renders that problem as SMT-LIB2 and solves the reparse through
/// Z3's default solver — a structurally different solve. It keeps the
/// escalated budget. Cancelled queries (Analysis::interrupt) are never
/// retried.
struct RetryPolicy {
  bool enabled = true;
  /// Random seed for the reseed attempt (Z3's default seed is 0).
  static constexpr unsigned kReseedSeed = 17;
  /// Timeout/rlimit multiplier for the escalate and smtlib attempts. The
  /// escalate rung is skipped when the budget has neither a timeout nor an
  /// rlimit (there is nothing to escalate).
  static constexpr unsigned kEscalateFactor = 4;
  /// Worst-case ladder time in units of the base timeout, when every rung
  /// runs to its budget: initial + reseed + escalate + smtlib.
  static constexpr unsigned kLadderBudgets = 1 + 1 + 2 * kEscalateFactor;
};

struct AnalysisOptions {
  /// Number of modeled time steps (T).
  int horizon = 4;
  /// Buffer model precision (paper §3: pluggable buffer models).
  buffers::ModelKind model = buffers::ModelKind::List;
  /// Solver timeout; nullopt disables it.
  std::optional<unsigned> timeoutMs = 120000;
  /// Z3 resource limit per query (deterministic work counter); nullopt
  /// disables it.
  std::optional<unsigned> rlimit;
  /// Solver memory cap in megabytes; nullopt disables it.
  std::optional<unsigned> maxMemoryMb;
  /// Unknown-verdict retry/escalation ladder (DESIGN.md §8).
  RetryPolicy retry;
  /// Cross-check every witness/counterexample trace by replaying its
  /// arrivals through the concrete interpreter; a divergence yields
  /// Verdict::WitnessMismatch instead of a bogus Satisfiable/Violated.
  /// Skipped silently for networks the interpreter cannot replay
  /// (contracts, havoced state, nondeterministic models).
  bool replayWitness = true;
  /// Test-only deterministic fault injection (DESIGN.md §8); shared by all
  /// engines compiled from the same options. Production leaves it null.
  backends::FaultPlanPtr faultPlan;
  /// Also run the explicit loop unroller (§4) during compilation. The
  /// evaluator iterates constant-bounded loops directly either way, so
  /// this is semantically a no-op — it exists to exercise/compare the
  /// transformation pipeline (and is what the Dafny emitter consumes).
  bool unrollLoops = false;
  /// Quantify over the initial queue contents instead of starting empty
  /// (FPerf-style): every buffer begins with a havoced valid state (any
  /// backlog within capacity, arbitrary contents, zero drop accounting).
  /// Not available for concrete simulation.
  bool symbolicInitialState = false;
  /// Encoding optimizer (DESIGN.md §9): cone-of-influence slicing and
  /// interval-driven rewriting between symbolic evaluation and every
  /// backend. The CLI's --no-opt clears `opt.enabled`.
  opt::OptOptions opt;
  /// Resource governor for the whole compile (DESIGN.md §10): parser
  /// depth/nodes, inline/unroll expansion, per-step symbolic execution,
  /// and term-arena size. Violations raise BudgetExceeded rather than
  /// exhausting memory or hanging. Zeroed fields disable individual caps;
  /// CompileBudget::unlimited() restores pre-governor behavior.
  CompileBudget budget;
  /// Content-addressed verdict cache (DESIGN.md §14). When set, every
  /// check/verify/solveViaSmtLib derives a canonical key from the
  /// pre-optimizer constraint set and consults the cache before running
  /// the solver; conclusive, non-canceled verdicts are stored back.
  /// Shared (it is thread-safe) across every engine of a run — sweep
  /// points, synth workers — and, via its disk tier, across processes.
  /// Null disables caching entirely.
  std::shared_ptr<cache::VerdictCache> cache;
  /// Re-validate cached Sat/Violated hits by replaying their witness trace
  /// through the concrete interpreter before trusting them (--cache-verify).
  /// A divergence invalidates the entry and falls back to the cold path.
  bool cacheVerify = false;
};

/// Derives the front-half (pipeline) options an AnalysisOptions implies —
/// what Analysis hands the CompilerDriver, and what callers use to
/// pre-compile a CompilationUnit they intend to share across engines.
pipeline::PipelineOptions pipelineOptionsFor(const AnalysisOptions& options);

enum class Verdict {
  Satisfiable,      // check(): witness trace found
  Unsatisfiable,    // check(): no trace satisfies the query
  Verified,         // verify(): property holds on all traces
  Violated,         // verify(): counterexample found
  WitnessMismatch,  // solver produced a model, but its trace diverged from
                    // the concrete-interpreter replay — the result is NOT
                    // trustworthy (solver or encoding bug)
  Unknown,          // solver gave up (timeout etc.)
};

const char* verdictName(Verdict verdict);
/// Inverse of verdictName; nullopt on an unrecognized name (callers treat
/// that as cache corruption, not an error).
std::optional<Verdict> parseVerdictName(std::string_view name);

/// One rung of the Unknown-retry ladder, recorded for diagnosis: what was
/// tried, with which budget, and how it ended.
struct SolveAttempt {
  /// "initial", "reseed", "escalate", or "smtlib".
  std::string stage;
  /// The engine that answered it: "enumerate" (memoized enumeration, only
  /// on the initial rung) or "z3".
  std::string solver = "z3";
  /// "sat", "unsat", or "unknown".
  std::string outcome;
  /// Solver's reason when the outcome was "unknown".
  std::string reason;
  double seconds = 0.0;
  /// The part of `seconds` spent constructing the enumerator (domains,
  /// saturation thresholds, dead-set layout); 0 when none was built.
  double setupSeconds = 0.0;
  /// DAG nodes the enumerator's set-up laid out: the structural layout's
  /// and the query's on an engine's first enumerated query, the query's
  /// own after that; 0 when no enumerator was built.
  std::uint64_t setupNodes = 0;
  /// Z3 resource units consumed by this attempt (best-effort).
  std::uint64_t rlimitUsed = 0;
  /// Random seed the attempt ran with, if pinned.
  std::optional<unsigned> seed;
  /// Wall-clock budget the attempt ran with, if any.
  std::optional<unsigned> timeoutMs;
  /// The enumerator's counters (enumerate::SearchStats), also when its
  /// search declined and Z3 answered; all 0 when no search ran.
  std::uint64_t visited = 0;
  std::uint64_t memoHits = 0;
  std::uint64_t deadEntries = 0;
  std::uint64_t liveWidth = 0;
  std::uint64_t saturated = 0;
};

struct AnalysisResult {
  Verdict verdict = Verdict::Unknown;
  std::optional<Trace> trace;
  /// Total solver seconds across all attempts.
  double solveSeconds = 0.0;
  std::string detail;
  /// The retry/escalation log: one entry per solver attempt, in order.
  /// Single-attempt queries have exactly one entry.
  std::vector<SolveAttempt> attempts;
  /// True when the query was cancelled (Analysis::interrupt) rather than
  /// answered; verdict is Unknown in that case.
  bool canceled = false;
  /// True when the trace was successfully cross-checked against the
  /// concrete interpreter (witness replay). False when replay does not
  /// apply (no trace, or the network is not concretely replayable).
  bool witnessChecked = false;
  /// Encoding-optimizer accounting for this query (node/assertion counts
  /// before and after, per-pass timings). Present only when a plan was
  /// built: the optimizer is enabled and the query reached Z3 (the raw
  /// enumeration declined, a retry rung ran, or the smtlib path solved
  /// it).
  std::optional<opt::OptStats> opt;
  /// Per-stage pipeline accounting (DESIGN.md §11): front-half stages from
  /// the shared CompilationUnit plus this engine's encode/optimize/solve
  /// rows, snapshotted when the query finished.
  pipeline::PipelineStats pipeline;
  /// True when this result was answered from the verdict cache (no solver
  /// ran; solveSeconds is 0 and attempts is empty).
  bool cached = false;
  /// The content-addressed cache key this query mapped to (set whenever a
  /// cache is configured, hit or miss). Workers report it so the
  /// isolated path can populate the parent's cache.
  std::string cacheKey;

  [[nodiscard]] bool sat() const { return verdict == Verdict::Satisfiable; }
  [[nodiscard]] bool holds() const { return verdict == Verdict::Verified; }
  [[nodiscard]] bool inconclusive() const {
    return verdict == Verdict::Unknown;
  }
};

/// The one serialized form of an answer (DESIGN.md §13, §14): a worker
/// sends it back over its pipe and the verdict cache stores it. It carries
/// every AnalysisResult field but `opt` and `pipeline`, which stay in the
/// process that ran the query.
std::string encodeVerdict(const AnalysisResult& result);
/// Inverse of encodeVerdict. Throws DecodeError on any malformation: a
/// missing or ill-typed field, an unknown verdict name, or a trace that
/// breaks Trace's invariant (a negative horizon, or a series whose length
/// is not the horizon).
AnalysisResult decodeVerdict(std::string_view bytes);

/// Stores `result`'s verdict record (encodeVerdict) under its cacheKey
/// when it may be replayed onto a later run. Only conclusive, non-canceled
/// verdicts qualify: Unknown depends on budgets and seeds (not part of the
/// key) and WitnessMismatch marks an untrustworthy model. The engine
/// stores its own answers through this; the isolated path replays a
/// worker's answers into the parent's cache.
void storeVerdict(cache::VerdictCache& cache, const AnalysisResult& result);

/// Concrete traffic for simulation: qualified buffer name ->
/// per-step list of packets (each a field->value map).
using ConcretePacket = std::map<std::string, std::int64_t>;
using ConcreteArrivals =
    std::map<std::string, std::vector<std::vector<ConcretePacket>>>;

class Analysis {
 public:
  Analysis(Network network, AnalysisOptions options);
  /// Builds the engine on an already-compiled front half (DESIGN.md §11):
  /// the unit is shared, so N engines over the same network pay for one
  /// parse/typecheck/transform run. Throws AnalysisError when the unit's
  /// pipeline options disagree with what `options` implies (horizon, model,
  /// unrolling, initial-state discipline, budget).
  Analysis(pipeline::CompilationUnitPtr unit, AnalysisOptions options);
  ~Analysis();
  Analysis(const Analysis&) = delete;
  Analysis& operator=(const Analysis&) = delete;

  /// Sets the traffic assumptions. Must be called before the first
  /// check/verify (the encoding is built lazily and caches them). Use
  /// rebindWorkload to swap assumptions after the encoding exists.
  void setWorkload(Workload workload);

  /// Re-binds the traffic assumptions on an already-built encoding as a
  /// *delta*: the compiled instances, the unrolled term arena, and the
  /// optimizer's shared interval and rewrite memos are all kept; only the
  /// workload constraint set is recomputed against the existing arrival
  /// variables. This is what makes candidate enumeration (synth)
  /// O(candidates × solve) instead of O(candidates × full pipeline).
  /// Builds the encoding if it does not exist yet.
  void rebindWorkload(Workload workload);

  /// FPerf-style: find a trace satisfying assumptions ∧ query.
  AnalysisResult check(const Query& query);
  /// Verification: do assumptions imply query ∧ all in-program asserts?
  AnalysisResult verify(const Query& query);

  /// Cooperative cancellation, callable from ANY thread (the engine's only
  /// thread-safe entry point). Cancels the in-flight solver query and
  /// permanently cancels the engine: every later check/verify returns an
  /// Unknown result with `canceled` set, without touching the solver.
  /// Used by firstOnly synthesis to stop workers holding doomed candidates.
  void interrupt();
  /// True once interrupt() has been called.
  [[nodiscard]] bool interrupted() const;

  /// Names the fault-injection scope for subsequent queries (test-only;
  /// no-op unless AnalysisOptions::faultPlan is set). The synthesizer
  /// scopes each candidate by its enumeration index so injected faults hit
  /// deterministically under any thread count.
  void setFaultScope(const std::string& scope);

  /// The §4 SMT-LIB path: renders the (check or verify) problem as an
  /// SMT-LIB2 script.
  std::string toSmtLib(const Query& query, bool forVerify,
                       backends::SmtLibOptions options = {});
  /// Solves through emission + reparse — either discipline. This is the
  /// `smtlib` backend's solve path (and the backend-comparison ablation).
  AnalysisResult solveViaSmtLib(const Query& query, bool forVerify);
  /// Solves through emission + reparse (backend-comparison ablation).
  AnalysisResult checkViaSmtLib(const Query& query);

  /// Reconstructs the external arrivals a trace describes, from its
  /// `<buf>.arrived` counts and `<buf>.in<i>.<field>` packet series — the
  /// input of witness replay. Throws AnalysisError on a count outside
  /// [0, maxArrivalsPerStep] of its buffer (no run of the encoding has
  /// one) before building that step's packets, and buffy::Error on a
  /// series shorter than the trace's horizon.
  [[nodiscard]] ConcreteArrivals arrivalsFromTrace(const Trace& trace) const;

  /// Concrete simulation of the same compiled network on given arrivals.
  /// Requires a deterministic model configuration (list model, or counter
  /// model without classified buffers).
  Trace simulate(const ConcreteArrivals& arrivals);

  /// The lazily-built symbolic encoding (builds it on first use).
  const Encoding& encoding();
  /// The compiled front half this engine runs on (shared, immutable).
  [[nodiscard]] const pipeline::CompilationUnitPtr& unit() const;
  /// Per-stage accounting so far: front-half stages plus whatever encode/
  /// optimize/solve work this engine has done.
  [[nodiscard]] const pipeline::PipelineStats& pipelineStats() const;
  /// Qualified names of the external input buffers (arrival targets).
  [[nodiscard]] std::vector<std::string> inputBufferNames() const;
  /// Qualified monitor series names.
  [[nodiscard]] std::vector<std::string> monitorNames() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace buffy::core
