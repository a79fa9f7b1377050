// FPerf-style workload synthesis (paper §4: "use FPerf to synthesize the
// assumptions on the input traffic that would cause the query to be
// satisfied", and §5's SyGuS-with-domain-specific-grammar direction).
//
// Guess-and-check over a grammar of per-input arrival patterns: each
// candidate assigns one pattern to every external input buffer; a
// candidate is a *solution* when
//   (∃) some trace satisfying it satisfies the query, and
//   (∀) every trace satisfying it satisfies the query (checked via UNSAT
//       of the negation) — i.e. the synthesized workload *guarantees* the
//       queried behavior, which is what FPerf reports to the user.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"

namespace buffy::synth {

enum class Pattern {
  None,               // no arrivals, ever
  ExactlyOnePerStep,  // count == 1 at every step
  AtLeastOnePerStep,  // count >= 1 at every step
  BurstAtStart2,      // count == 2 at step 0, none afterwards
  BurstAtStart3,      // count == 3 at step 0, none afterwards
  AtMostOnePerStep,   // count <= 1 at every step (free pacing)
  PacedSkipOne,       // 1, 0, 1, 1, ... — the RFC 8290 "just the right
                      // rate" pacing that triggers the §2.1 bug
  Unconstrained,      // anything within the per-step bound
};

const char* patternName(Pattern pattern);

/// The workload rule a pattern denotes for one buffer.
core::WorkloadRule patternRule(Pattern pattern, const std::string& buffer);

struct SynthesisOptions {
  /// Patterns the search may assign (the grammar).
  std::vector<Pattern> grammar = {
      Pattern::None, Pattern::ExactlyOnePerStep, Pattern::PacedSkipOne,
      Pattern::BurstAtStart2, Pattern::BurstAtStart3};
  /// Require the ∀ direction too (FPerf semantics). When false, any
  /// satisfiable candidate is a solution.
  bool requireUniversal = true;
  /// Stop after the first solution (by enumeration order — deterministic
  /// regardless of `threads`).
  bool firstOnly = false;
  /// Worker threads. Each worker compiles + encodes the network once into
  /// its own engine with its own Z3 context (Z3 contexts are not
  /// thread-safe), then pulls candidates from a shared queue. The solution
  /// set and its order are identical for any thread count.
  int threads = 1;
  /// Reuse one engine (compiled encoding + optimizer memos) per worker,
  /// re-binding each candidate as a workload delta (the fast path). When
  /// false, every candidate rebuilds the full pipeline in a fresh engine —
  /// kept for differential testing.
  bool incremental = true;
  /// Concrete-interpreter prescreening: before any SMT call, simulate a
  /// small batch of sampled traces conforming to the candidate's workload.
  /// A conforming trace that VIOLATES the query refutes the ∀ direction
  /// (the candidate is conclusively not a solution — no solver needed);
  /// one that SATISFIES it is an ∃ witness (the exists query is skipped).
  /// Sampling is seeded and deterministic, so the solution set and report
  /// are identical with prescreening on or off — it only changes which
  /// verdicts come from the interpreter instead of the solver. Disabled
  /// automatically for networks the interpreter cannot replay (contracts,
  /// havoced initial state, nondeterministic models). CLI: --no-prescreen.
  bool prescreen = true;
  /// Traces sampled per candidate (only patterns with freedom — at-most /
  /// at-least / unconstrained — actually vary between samples).
  int prescreenTraces = 3;
  /// Seed for the per-candidate trace sampler. Candidate index is mixed
  /// in, so the batch is deterministic under any thread count.
  unsigned prescreenSeed = 12345;
  /// Negative-cache prescreen rejections within a run (DESIGN.md §14),
  /// keyed by the canonical hash of the candidate's workload constraint
  /// set: two candidates whose assignments produce structurally identical
  /// workload terms (e.g. grammar entries that encode the same
  /// constraints) share one rejection — the later one is decided without
  /// sampling or solving. Sound because identical constraint sets have
  /// identical trace sets, so a conforming counterexample for one rejects
  /// both. Incremental mode + requireUniversal only.
  bool negativeCache = true;
};

struct Candidate {
  std::map<std::string, Pattern> assignment;  // input buffer -> pattern
  bool existsSat = false;
  bool forallHolds = false;
  /// True when the concrete-interpreter prescreen decided this candidate
  /// (∀ refuted or ∃ witnessed on a sampled trace) before any SMT call.
  bool prescreened = false;
  double seconds = 0.0;

  [[nodiscard]] std::string describe() const;
};

/// Why a candidate could not be conclusively evaluated (DESIGN.md §8).
enum class FailureKind {
  Unknown,          // solver returned Unknown after the full retry ladder —
                    // the candidate is INCONCLUSIVE, not rejected
  Exception,        // the worker threw while evaluating (solver crash, ...)
  WitnessMismatch,  // a solver model diverged from the concrete replay
  Canceled,         // query interrupted by firstOnly cancellation (never
                    // reported: canceled candidates lie past the cutoff)
};

const char* failureKindName(FailureKind kind);

/// Per-candidate fault-isolation record: a worker hitting a solver crash or
/// an Unknown verdict no longer aborts the whole run — the candidate is
/// recorded here and the search continues. Records are keyed by the
/// candidate's enumeration index, so the failure report is identical under
/// any thread count.
struct CandidateFailure {
  std::size_t index = 0;
  std::map<std::string, Pattern> assignment;
  FailureKind kind = FailureKind::Unknown;
  /// Which evaluation phase failed: "exists", "forall", or "setup".
  std::string stage;
  std::string detail;

  [[nodiscard]] std::string describe() const;
};

struct SynthesisResult {
  std::vector<Candidate> solutions;
  /// Candidates that could not be conclusively evaluated, in enumeration
  /// order. Unknown entries are inconclusive — NOT "not a solution".
  std::vector<CandidateFailure> failures;
  int candidatesChecked = 0;
  /// Conclusively evaluated candidates (solutions included).
  int solvedCount = 0;
  /// Inconclusive candidates (FailureKind::Unknown).
  int unknownCount = 0;
  /// Broken candidates (FailureKind::Exception / WitnessMismatch).
  int failedCount = 0;
  /// Candidates rejected by the concrete-interpreter prescreen (a sampled
  /// conforming trace violated the query) — a subset of solvedCount that
  /// never reached the solver.
  int prescreenRejected = 0;
  /// Exists-direction SMT queries skipped because a sampled trace already
  /// witnessed satisfiability.
  int prescreenWitnessed = 0;
  /// Candidates rejected straight from the in-run negative cache (a
  /// structurally identical earlier candidate was already prescreen-
  /// rejected) — a subset of prescreenRejected.
  int prescreenCacheHits = 0;
  double totalSeconds = 0.0;
  /// Encoding-optimizer accounting from the earliest (by enumeration
  /// order) conclusively evaluated candidate's ∃ query — representative of
  /// the per-candidate encoding size, since candidates share the same
  /// structural constraints and differ only in the workload delta. Absent
  /// when the optimizer is disabled.
  std::optional<opt::OptStats> opt;

  /// One-line run report: solutions / solved / unknown / failed counts.
  [[nodiscard]] std::string summary() const;
};

class Synthesizer {
 public:
  Synthesizer(core::Network network, core::AnalysisOptions options)
      : network_(std::move(network)), options_(options) {}

  /// Enumerates the grammar over all external inputs, checking each
  /// candidate with the Z3 backend.
  SynthesisResult run(const core::Query& query, const SynthesisOptions& opts);

 private:
  core::Network network_;
  core::AnalysisOptions options_;
};

}  // namespace buffy::synth
