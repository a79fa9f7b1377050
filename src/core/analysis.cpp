#include "core/analysis.hpp"

#include <algorithm>
#include <charconv>
#include <climits>

#include "ir/term_eval.hpp"
#include "ir/term_hash.hpp"
#include "ir/term_printer.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/encoder.hpp"
#include "support/error.hpp"
#include "support/wire_map.hpp"

namespace buffy::core {

const char* verdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::Satisfiable: return "SATISFIABLE";
    case Verdict::Unsatisfiable: return "UNSATISFIABLE";
    case Verdict::Verified: return "VERIFIED";
    case Verdict::Violated: return "VIOLATED";
    case Verdict::WitnessMismatch: return "WITNESS-MISMATCH";
    case Verdict::Unknown: return "UNKNOWN";
  }
  return "?";
}

std::optional<Verdict> parseVerdictName(const std::string& name) {
  for (const Verdict v :
       {Verdict::Satisfiable, Verdict::Unsatisfiable, Verdict::Verified,
        Verdict::Violated, Verdict::WitnessMismatch, Verdict::Unknown}) {
    if (name == verdictName(v)) return v;
  }
  return std::nullopt;
}

// ---- verdict record codec ----------------------------------------------

namespace {

std::string joinInts(const std::vector<std::int64_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

std::vector<std::int64_t> splitInts(std::string_view text) {
  std::vector<std::int64_t> out;
  if (text.empty()) return out;
  const char* at = text.data();
  const char* const end = at + text.size();
  for (;;) {
    std::int64_t value = 0;
    const auto parsed = std::from_chars(at, end, value);
    if (parsed.ec != std::errc()) break;
    out.push_back(value);
    if (parsed.ptr == end) return out;
    if (*parsed.ptr != ',') break;
    at = parsed.ptr + 1;
  }
  throw DecodeError("malformed integer list '" + std::string(text) + "'");
}

std::string encodeAttempt(const SolveAttempt& attempt) {
  WireMap map;
  map.set("stage", attempt.stage);
  map.set("solver", attempt.solver);
  map.set("outcome", attempt.outcome);
  map.set("reason", attempt.reason);
  map.setDouble("seconds", attempt.seconds);
  map.setDouble("setupSeconds", attempt.setupSeconds);
  map.setUint("setupNodes", attempt.setupNodes);
  map.setUint("rlimitUsed", attempt.rlimitUsed);
  if (attempt.seed) map.setUint("seed", *attempt.seed);
  if (attempt.timeoutMs) map.setUint("timeoutMs", *attempt.timeoutMs);
  map.setUint("visited", attempt.visited);
  map.setUint("memoHits", attempt.memoHits);
  map.setUint("deadEntries", attempt.deadEntries);
  map.setUint("liveWidth", attempt.liveWidth);
  map.setUint("saturated", attempt.saturated);
  return map.encode();
}

SolveAttempt decodeAttempt(const std::string& bytes) {
  const WireMap map = WireMap::decode(bytes);
  SolveAttempt attempt;
  attempt.stage = map.get("stage");
  // Records written before attempts named their engine come from Z3.
  if (map.has("solver")) attempt.solver = map.get("solver");
  attempt.outcome = map.get("outcome");
  attempt.reason = map.get("reason");
  attempt.seconds = map.getDouble("seconds");
  // Records written before attempts split out the set-up read as 0.
  if (map.has("setupSeconds")) {
    attempt.setupSeconds = map.getDouble("setupSeconds");
  }
  attempt.rlimitUsed = map.getUint("rlimitUsed");
  if (map.has("seed")) {
    attempt.seed = static_cast<unsigned>(map.getUint("seed"));
  }
  if (map.has("timeoutMs")) {
    attempt.timeoutMs = static_cast<unsigned>(map.getUint("timeoutMs"));
  }
  // Records written before attempts carried search counters read as 0.
  const auto counter = [&map](const char* key) {
    return map.has(key) ? map.getUint(key) : std::uint64_t{0};
  };
  attempt.setupNodes = counter("setupNodes");
  attempt.visited = counter("visited");
  attempt.memoHits = counter("memoHits");
  attempt.deadEntries = counter("deadEntries");
  attempt.liveWidth = counter("liveWidth");
  attempt.saturated = counter("saturated");
  return attempt;
}

std::string encodeTrace(const Trace& trace) {
  WireMap series;
  for (const auto& [name, values] : trace.series) {
    series.set(name, joinInts(values));
  }
  WireMap map;
  map.setInt("horizon", trace.horizon);
  map.set("series", series.encode());
  return map.encode();
}

/// Enforces Trace's invariant — every series has `horizon` values — so no
/// consumer (witness replay, rendering) ever indexes past a short series.
Trace decodeTrace(const std::string& bytes) {
  const WireMap map = WireMap::decode(bytes);
  const std::int64_t horizon = map.getInt("horizon");
  if (horizon < 0 || horizon > INT_MAX) {
    throw DecodeError("trace horizon " + std::to_string(horizon) +
                      " is out of range");
  }
  Trace trace;
  trace.horizon = static_cast<int>(horizon);
  const WireMap series = WireMap::decode(map.get("series"));
  for (const auto& [name, text] : series.entries()) {
    std::vector<std::int64_t> values = splitInts(text);
    if (values.size() != static_cast<std::size_t>(horizon)) {
      throw DecodeError("trace series '" + name + "' has " +
                        std::to_string(values.size()) +
                        " values for horizon " + std::to_string(horizon));
    }
    trace.series.emplace(name, std::move(values));
  }
  return trace;
}

}  // namespace

std::string encodeVerdict(const AnalysisResult& result) {
  WireMap map;
  map.set("verdict", verdictName(result.verdict));
  map.set("detail", result.detail);
  map.setDouble("solveSeconds", result.solveSeconds);
  map.setBool("canceled", result.canceled);
  map.setBool("witnessChecked", result.witnessChecked);
  map.set("cacheKey", result.cacheKey);
  map.setBool("cached", result.cached);
  map.setUint("attempt.count", result.attempts.size());
  for (std::size_t i = 0; i < result.attempts.size(); ++i) {
    map.set("attempt." + std::to_string(i), encodeAttempt(result.attempts[i]));
  }
  if (result.trace) map.set("trace", encodeTrace(*result.trace));
  return map.encode();
}

AnalysisResult decodeVerdict(std::string_view bytes) {
  const WireMap map = WireMap::decode(bytes);
  AnalysisResult result;
  const std::string& name = map.get("verdict");
  const auto verdict = parseVerdictName(name);
  if (!verdict) throw DecodeError("unknown verdict name '" + name + "'");
  result.verdict = *verdict;
  result.detail = map.get("detail");
  result.solveSeconds = map.getDouble("solveSeconds");
  result.canceled = map.getBool("canceled");
  result.witnessChecked = map.getBool("witnessChecked");
  result.cacheKey = map.get("cacheKey");
  result.cached = map.getBool("cached");
  const std::uint64_t attempts = map.getUint("attempt.count");
  for (std::size_t i = 0; i < attempts; ++i) {
    result.attempts.push_back(
        decodeAttempt(map.get("attempt." + std::to_string(i))));
  }
  if (map.has("trace")) result.trace = decodeTrace(map.get("trace"));
  return result;
}

void storeVerdict(cache::VerdictCache& cache, const AnalysisResult& result) {
  if (result.cacheKey.empty() || result.canceled) return;
  switch (result.verdict) {
    case Verdict::Satisfiable:
    case Verdict::Unsatisfiable:
    case Verdict::Verified:
    case Verdict::Violated: break;
    default: return;
  }
  const double cpuStart = cache::threadCpuSeconds();
  const std::string record = encodeVerdict(result);
  cache.addClientSeconds(cache::threadCpuSeconds() - cpuStart);
  cache.store(result.cacheKey, record);
}

pipeline::PipelineOptions pipelineOptionsFor(const AnalysisOptions& options) {
  pipeline::PipelineOptions p;
  p.horizon = options.horizon;
  p.model = options.model;
  p.unrollLoops = options.unrollLoops;
  p.symbolicInitialState = options.symbolicInitialState;
  p.budget = options.budget;
  return p;
}

namespace {

bool sameBudget(const CompileBudget& a, const CompileBudget& b) {
  return a.maxNestingDepth == b.maxNestingDepth &&
         a.maxExprTerms == b.maxExprTerms && a.maxAstNodes == b.maxAstNodes &&
         a.maxUnrolledStmts == b.maxUnrolledStmts &&
         a.maxInlinedStmts == b.maxInlinedStmts &&
         a.maxExecStmts == b.maxExecStmts && a.maxTermNodes == b.maxTermNodes;
}

bool sameFront(const pipeline::PipelineOptions& a,
               const pipeline::PipelineOptions& b) {
  return a.horizon == b.horizon && a.model == b.model &&
         a.unrollLoops == b.unrollLoops &&
         a.symbolicInitialState == b.symbolicInitialState &&
         sameBudget(a.budget, b.budget);
}

}  // namespace

struct Analysis::Impl {
  pipeline::CompilationUnitPtr unit;
  AnalysisOptions options;
  /// Per-stage accounting: starts as a copy of the unit's front-half rows
  /// and accumulates this engine's encode/optimize/solve work.
  pipeline::PipelineStats stats;
  Workload workload;
  bool workloadLocked = false;
  backends::Z3Backend solver;
  std::unique_ptr<Encoding> encoding;
  /// Encoding optimizer (DESIGN.md §9), built lazily from the encoding's
  /// structural constraints; it plans each query's specialized problem.
  std::unique_ptr<opt::Optimizer> optimizer;
  /// Canonical structural hasher for cache keys. Memoizes per term, and
  /// every term this engine hashes lives in the one encoding arena, so
  /// one hasher per engine is sound.
  ir::TermHasher hasher;
  /// The encoding's assumptions and soundness constraints, which every
  /// query shares, and the cache key's hash of them: each built at the
  /// first query that needs it.
  std::vector<ir::TermRef> structural;
  std::optional<std::uint64_t> structuralHash;
  /// The enumerator's layout of `structural` (DESIGN.md §7), built by the
  /// first query that reaches the solver and extended by each query's
  /// delta.
  std::shared_ptr<const enumerate::Layout> layout;

  Impl(Network net, AnalysisOptions opts) : options(std::move(opts)) {
    if (options.horizon <= 0) {
      throw AnalysisError("analysis horizon must be positive");
    }
    if (options.faultPlan) solver.setFaultPlan(options.faultPlan);
    const pipeline::CompilerDriver driver(pipelineOptionsFor(options));
    unit = driver.compile(std::move(net));
    stats = unit->frontStats();
  }

  Impl(pipeline::CompilationUnitPtr u, AnalysisOptions opts)
      : unit(std::move(u)), options(std::move(opts)) {
    if (options.horizon <= 0) {
      throw AnalysisError("analysis horizon must be positive");
    }
    if (!unit) {
      throw AnalysisError("analysis requires a compilation unit");
    }
    if (!sameFront(unit->options(), pipelineOptionsFor(options))) {
      throw AnalysisError(
          "compilation unit was compiled with different pipeline options "
          "(horizon/model/unroll/initial-state/budget) than this analysis "
          "requests");
    }
    if (options.faultPlan) solver.setFaultPlan(options.faultPlan);
    stats = unit->frontStats();
  }

  // -------------------------------------------------------------------
  // Solving
  // -------------------------------------------------------------------

  Encoding& ensureEncoding() {
    if (!encoding) {
      encoding = pipeline::buildEncoding(*unit, workload, nullptr, &stats);
      workloadLocked = true;
    }
    return *encoding;
  }

  /// The budget every query starts from (the retry ladder escalates it).
  [[nodiscard]] backends::SolveBudget baseBudget() const {
    backends::SolveBudget budget;
    budget.timeoutMs = options.timeoutMs;
    budget.rlimit = options.rlimit;
    budget.maxMemoryMb = options.maxMemoryMb;
    return budget;
  }

  const std::vector<ir::TermRef>& structuralConstraints(const Encoding& enc) {
    if (structural.empty()) {
      structural = enc.assumptions;
      structural.insert(structural.end(), enc.soundness.begin(),
                        enc.soundness.end());
    }
    return structural;
  }

  opt::Optimizer& ensureOptimizer(Encoding& enc) {
    if (!optimizer) {
      optimizer = std::make_unique<opt::Optimizer>(
          enc.arena, structuralConstraints(enc), options.opt);
    }
    return *optimizer;
  }

  /// Runs the optimizer's planner under the "optimize" stage clock.
  opt::Optimizer::Plan planTimed(Encoding& enc,
                                 const std::vector<ir::TermRef>& delta) {
    pipeline::StageTimer timer(stats.stage("optimize"));
    opt::Optimizer::Plan plan = ensureOptimizer(enc).plan(delta);
    timer.stop();
    stats.stage("optimize").nodes = plan.stats.nodesAfter;
    return plan;
  }

  /// The query-specific constraints: the current workload delta plus the
  /// query itself (negated together with the in-program obligations for
  /// verify). Small — O(workload rules + 1), never a copy of the full
  /// assumption set.
  std::vector<ir::TermRef> queryDelta(const Query& query, bool forVerify,
                                      Encoding& enc) {
    std::vector<ir::TermRef> cs = enc.workloadTerms;
    const ir::TermRef q =
        query.build(enc.seriesView(), enc.arena, options.budget);
    if (forVerify) {
      ir::TermRef all = q;
      for (const auto& obl : enc.obligations) {
        all = enc.arena.mkAnd(all, obl.cond);
      }
      cs.push_back(enc.arena.mkNot(all));
    } else {
      cs.push_back(q);
    }
    return cs;
  }

  /// One query's solvable forms: the raw workload+query delta and the
  /// content-addressed cache key, derived first, then — only when the
  /// cache does not answer — the optimizer plan and the standalone
  /// constraint set every solve path runs (finishKeyed). The key is empty
  /// when no cache is configured or none was asked for.
  struct Keyed {
    std::vector<ir::TermRef> delta;
    std::optional<opt::Optimizer::Plan> plan;
    std::vector<ir::TermRef> standalone;
    std::string key;
    bool finished = false;  // plan/standalone built (finishKeyed)
  };

  /// `deriveKey` false skips key derivation (pure problem construction,
  /// e.g. toSmtLib export). Every solve path answers the same standalone
  /// problem, so one key serves them all.
  ///
  /// The key hashes the PRE-optimizer problem (encoding structural sets +
  /// raw delta): those are stable interned TermRefs, so the memoized
  /// hasher re-hashes only each query's own few terms, where the
  /// optimizer's query-specialized output is freshly built per query and
  /// would defeat memoization. The optimizer is equivalence-preserving
  /// (differentially tested, DESIGN.md §9), so the raw problem identifies
  /// the answer exactly as well — and a warm hit then never runs the
  /// planner at all.
  Keyed keyedProblem(const Query& query, bool forVerify, Encoding& enc,
                     bool deriveKey) {
    Keyed out;
    out.delta = queryDelta(query, forVerify, enc);
    if (options.cache && deriveKey) {
      pipeline::StageTimer timer(stats.stage("cache"));
      const double cpuStart = cache::threadCpuSeconds();
      constexpr std::uint64_t kPrime = 1099511628211ull;
      if (!structuralHash) {
        structuralHash = hasher.hashSet(enc.assumptions) * kPrime ^
                         hasher.hashSet(enc.soundness);
      }
      cache::CacheKeyParts parts;
      parts.problemHash = *structuralHash * kPrime ^ hasher.hashSet(out.delta);
      parts.query = query.description();
      parts.horizon = options.horizon;
      parts.forVerify = forVerify;
      parts.model = static_cast<int>(options.model);
      parts.symbolicInitialState = options.symbolicInitialState;
      out.key = cache::cacheKeyFor(parts);
      // Key derivation runs in the engine, not the cache — credit it to
      // the cache's CPU attribution so stats().clientSeconds covers the
      // full cold-path tax.
      options.cache->addClientSeconds(cache::threadCpuSeconds() - cpuStart);
      timer.stop();
    }
    return out;
  }

  /// The raw standalone problem: the encoding's assumptions and soundness
  /// constraints plus the query delta, as built before any planning.
  std::vector<ir::TermRef> rawProblem(const Encoding& enc,
                                      const std::vector<ir::TermRef>& delta) {
    std::vector<ir::TermRef> out = structuralConstraints(enc);
    out.insert(out.end(), delta.begin(), delta.end());
    return out;
  }

  /// Second half of keyedProblem: the optimizer plan and standalone set,
  /// run only for queries that reach Z3. Idempotent.
  void finishKeyed(Keyed& keyed, Encoding& enc) {
    if (keyed.finished) return;
    keyed.finished = true;
    if (options.opt.enabled) {
      keyed.plan = planTimed(enc, keyed.delta);
      keyed.standalone = keyed.plan->structural;
      keyed.standalone.insert(keyed.standalone.end(),
                              keyed.plan->delta.begin(),
                              keyed.plan->delta.end());
    } else {
      keyed.standalone = rawProblem(enc, keyed.delta);
    }
  }

  /// Cache probe for one keyed query. Validates the record beyond its
  /// checksum — it decodes (verdict name, Trace's invariant), its verdict
  /// matches the query discipline, its trace horizon matches — and (under
  /// cacheVerify) replays Sat/Violated witnesses through the concrete
  /// interpreter. Any failure invalidates the entry, counts a validation
  /// failure, and reads as a miss: the cold path re-solves. A hit takes
  /// only the answer from the record: no attempts, no solve time.
  std::optional<AnalysisResult> tryCacheHit(const std::string& key,
                                            Encoding& enc, bool forVerify) {
    if (!options.cache || key.empty()) return std::nullopt;
    const auto bytes = options.cache->lookup(key);
    if (!bytes) return std::nullopt;

    const double cpuStart = cache::threadCpuSeconds();
    AnalysisResult record;
    bool valid = true;
    try {
      record = decodeVerdict(*bytes);
    } catch (const DecodeError&) {
      valid = false;
    }
    options.cache->addClientSeconds(cache::threadCpuSeconds() - cpuStart);
    valid = valid &&
            (forVerify ? (record.verdict == Verdict::Verified ||
                          record.verdict == Verdict::Violated)
                       : (record.verdict == Verdict::Satisfiable ||
                          record.verdict == Verdict::Unsatisfiable)) &&
            (!record.trace || record.trace->horizon == enc.horizon);

    AnalysisResult result;
    result.verdict = record.verdict;
    result.detail = std::move(record.detail);
    result.trace = std::move(record.trace);
    result.witnessChecked = record.witnessChecked;
    result.cached = true;
    result.cacheKey = key;
    if (valid && options.cacheVerify && result.trace) {
      crossCheckWitness(result);
      valid = result.verdict != Verdict::WitnessMismatch;
    }
    if (!valid) {
      options.cache->invalidate(key);
      return std::nullopt;
    }
    result.pipeline = stats;
    return result;
  }

  /// Completes a Sat model with the plan's certified values for variables
  /// the optimizer removed from the problem (sliced components, pinned
  /// constants), so traces and witness replay see a total assignment
  /// satisfying the *original* constraint set. Solver-provided values
  /// always win.
  static void completeModel(backends::SolveResult& sr,
                            const opt::Optimizer::Plan& plan) {
    if (sr.status != backends::SolveStatus::Sat) return;
    for (const auto& [name, value] : plan.droppedWitness) {
      sr.model.emplace(name, value);
    }
  }

  /// Evaluates every series under one memo: the series share most of the
  /// encoding, which per-term evaluation would walk once per (series,
  /// step).
  static Trace traceFromModel(const Encoding& enc,
                              const ir::Assignment& model) {
    std::vector<ir::TermRef> terms;
    for (const auto& [name, series] : enc.series) {
      terms.insert(terms.end(), series.begin(), series.end());
    }
    const std::vector<std::int64_t> values = ir::evalTerms(terms, model);
    Trace trace;
    trace.horizon = enc.horizon;
    auto next = values.begin();
    for (const auto& [name, series] : enc.series) {
      const auto end = next + static_cast<std::ptrdiff_t>(series.size());
      trace.series.emplace(name, std::vector<std::int64_t>(next, end));
      next = end;
    }
    return trace;
  }

  AnalysisResult finish(Encoding& enc, const backends::SolveResult& sr,
                        bool forVerify) {
    AnalysisResult result;
    result.solveSeconds = sr.seconds;
    result.canceled = sr.canceled;
    switch (sr.status) {
      case backends::SolveStatus::Sat:
        result.verdict = forVerify ? Verdict::Violated : Verdict::Satisfiable;
        result.trace = traceFromModel(enc, sr.model);
        if (sr.corruptWitness) corruptTrace(*result.trace);
        if (!sr.overflowVars.empty()) {
          result.detail = "model values exceed int64 for: ";
          for (std::size_t i = 0; i < sr.overflowVars.size(); ++i) {
            if (i > 0) result.detail += ", ";
            result.detail += sr.overflowVars[i];
          }
          result.detail += " (trace entries for these variables default to 0)";
        }
        break;
      case backends::SolveStatus::Unsat:
        result.verdict =
            forVerify ? Verdict::Verified : Verdict::Unsatisfiable;
        break;
      case backends::SolveStatus::Unknown:
        result.verdict = Verdict::Unknown;
        result.detail = sr.reason;
        break;
    }
    return result;
  }

  /// Adds this query's solver wall time to the "solve" stage (one run per
  /// attempt) and snapshots the stage table onto the result.
  void finishPipeline(AnalysisResult& result, std::size_t attempts) {
    auto& row = stats.stage("solve");
    row.seconds += result.solveSeconds;
    row.runs += std::max<std::size_t>(attempts, 1);
    result.pipeline = stats;
  }

  /// Fault-injection support (FaultAction::Kind::CorruptWitness): perturbs
  /// one derived series value so the replay cross-check has a deterministic
  /// divergence to find. Prefers a ".backlog" series (always present and
  /// always replayed).
  static void corruptTrace(Trace& trace) {
    auto* target = static_cast<std::vector<std::int64_t>*>(nullptr);
    for (auto& [name, values] : trace.series) {
      if (values.empty()) continue;
      if (target == nullptr) target = &values;
      if (name.size() > 8 &&
          name.compare(name.size() - 8, 8, ".backlog") == 0) {
        target = &values;
        break;
      }
    }
    if (target != nullptr) target->back() += 1;
  }

  static void recordAttempt(std::vector<SolveAttempt>& attempts,
                            const std::string& stage,
                            const backends::SolveBudget& budget,
                            const backends::SolveResult& sr) {
    SolveAttempt attempt;
    attempt.stage = stage;
    attempt.solver = sr.enumerated ? "enumerate" : "z3";
    switch (sr.status) {
      case backends::SolveStatus::Sat: attempt.outcome = "sat"; break;
      case backends::SolveStatus::Unsat: attempt.outcome = "unsat"; break;
      case backends::SolveStatus::Unknown: attempt.outcome = "unknown"; break;
    }
    attempt.reason = sr.reason;
    attempt.seconds = sr.seconds;
    attempt.setupSeconds = sr.setupSeconds;
    attempt.setupNodes = sr.setupNodes;
    attempt.rlimitUsed = sr.rlimitUsed;
    attempt.seed = budget.randomSeed;
    attempt.timeoutMs = budget.timeoutMs;
    attempt.visited = sr.search.visited;
    attempt.memoHits = sr.search.memoHits;
    attempt.deadEntries = sr.search.deadEntries;
    attempt.liveWidth = sr.search.liveWidth;
    attempt.saturated = sr.search.saturated;
    attempts.push_back(attempt);
  }

  /// True when the ladder should try the next rung.
  [[nodiscard]] bool retryable(const backends::SolveResult& sr) const {
    return sr.status == backends::SolveStatus::Unknown && !sr.canceled &&
           options.retry.enabled;
  }

  /// The solving entry point shared by check() and verify(): runs the
  /// Unknown-retry ladder (initial -> reseed -> escalate -> smtlib), logs
  /// every attempt, and cross-checks any witness trace against the
  /// concrete interpreter.
  AnalysisResult solveQuery(const Query& query, bool forVerify) {
    Encoding& enc = ensureEncoding();
    Keyed keyed = keyedProblem(query, forVerify, enc, true);
    // The cache is consulted before any solver runs AND before the
    // optimizer plans: a warm process answers without lowering terms into
    // Z3 or planning a slice.
    if (auto hit = tryCacheHit(keyed.key, enc, forVerify)) return *hit;

    // The initial rung enumerates the raw problem (DESIGN.md §7),
    // extending the engine's layout of the structural constraints by the
    // query delta. The optimizer plans the query-specialized problem only
    // for Z3: when that enumeration declines, and for every retry rung.
    const auto plannedProblem = [&]() -> std::span<const ir::TermRef> {
      finishKeyed(keyed, enc);
      return keyed.standalone;
    };
    std::vector<SolveAttempt> attempts;
    backends::SolveBudget budget = baseBudget();
    backends::SolveResult sr =
        solver.enumerateOrCheck(layout, structuralConstraints(enc),
                                keyed.delta, budget, plannedProblem);
    recordAttempt(attempts, "initial", budget, sr);

    if (retryable(sr)) {
      budget.randomSeed = RetryPolicy::kReseedSeed;
      sr = solver.check(plannedProblem(), budget);
      recordAttempt(attempts, "reseed", budget, sr);
    }
    if (retryable(sr) && (budget.timeoutMs || budget.rlimit)) {
      const unsigned factor = RetryPolicy::kEscalateFactor;
      if (budget.timeoutMs) budget.timeoutMs = *budget.timeoutMs * factor;
      if (budget.rlimit) budget.rlimit = *budget.rlimit * factor;
      sr = solver.check(plannedProblem(), budget);
      recordAttempt(attempts, "escalate", budget, sr);
    }
    if (retryable(sr)) {
      // Last rung: a structurally different solve — render the standalone
      // problem as SMT-LIB2 text and reparse it into Z3's default solver
      // instead of the preprocessing pipeline.
      backends::SmtLibOptions sopts;
      sopts.checkSat = false;  // the reparsing solver issues its own check
      const std::string text = backends::emitSmtLib(plannedProblem(), sopts);
      sr = solver.checkSmtLib(text, budget);
      recordAttempt(attempts, "smtlib", budget, sr);
    }

    // A plan exists only when Z3 gave the final answer, and its model
    // needs the values the plan removed; an enumerated model already
    // covers every variable of the raw problem.
    if (keyed.plan) completeModel(sr, *keyed.plan);
    AnalysisResult result = finish(enc, sr, forVerify);
    if (keyed.plan) result.opt = std::move(keyed.plan->stats);
    result.attempts = std::move(attempts);
    result.solveSeconds = 0.0;
    for (const auto& attempt : result.attempts) {
      result.solveSeconds += attempt.seconds;
    }
    crossCheckWitness(result);
    result.cacheKey = keyed.key;
    if (options.cache) storeVerdict(*options.cache, result);
    finishPipeline(result, result.attempts.size());
    return result;
  }

  /// The §4 SMT-LIB path as a full solve: renders the standalone problem
  /// and answers it through emission + reparse into a fresh one-shot
  /// solver. Shared by checkViaSmtLib and the smtlib backend.
  AnalysisResult solveViaSmtLib(const Query& query, bool forVerify) {
    Encoding& enc = ensureEncoding();
    Keyed keyed = keyedProblem(query, forVerify, enc, true);
    if (auto hit = tryCacheHit(keyed.key, enc, forVerify)) return *hit;
    finishKeyed(keyed, enc);
    backends::SmtLibOptions opts;
    opts.checkSat = false;  // the reparsing solver issues its own check
    const std::string text = backends::emitSmtLib(keyed.standalone, opts);
    backends::SolveResult sr = solver.checkSmtLib(text, baseBudget());
    if (keyed.plan) completeModel(sr, *keyed.plan);
    AnalysisResult result = finish(enc, sr, forVerify);
    if (keyed.plan) result.opt = keyed.plan->stats;
    result.cacheKey = keyed.key;
    if (options.cache) storeVerdict(*options.cache, result);
    finishPipeline(result, 1);
    return result;
  }

  // -------------------------------------------------------------------
  // Witness replay (DESIGN.md §8)
  // -------------------------------------------------------------------

  ConcreteArrivals arrivalsFromTrace(const Trace& trace) const {
    ConcreteArrivals arrivals;
    for (const auto& ci : unit->instances()) {
      for (const auto& bu : unit->bufferUnits(ci)) {
        if (bu.spec->role != BufferSpec::Role::Input) continue;
        if (unit->connectedInputs().count(bu.qualified) != 0) continue;
        const std::string arrived = bu.qualified + ".arrived";
        if (!trace.has(arrived)) continue;
        auto& steps = arrivals[bu.qualified];
        for (int t = 0; t < trace.horizon; ++t) {
          const std::int64_t n = trace.at(arrived, t);
          // The encoder bounds every count to this range; a count outside
          // it is no run of the encoding, and building one packet per
          // claimed arrival would be unbounded.
          if (n < 0 || n > bu.spec->maxArrivalsPerStep) {
            throw AnalysisError(
                arrived + "[" + std::to_string(t) + "] = " +
                std::to_string(n) + " is outside [0, " +
                std::to_string(bu.spec->maxArrivalsPerStep) + "]");
          }
          std::vector<ConcretePacket> packets;
          for (std::int64_t i = 0; i < n; ++i) {
            ConcretePacket packet;
            for (const auto& field : bu.spec->schema.fields) {
              const std::string series = bu.qualified + ".in" +
                                         std::to_string(i) + "." + field;
              if (trace.has(series)) packet[field] = trace.at(series, t);
            }
            packets.push_back(std::move(packet));
          }
          steps.push_back(std::move(packets));
        }
      }
    }
    return arrivals;
  }

  /// Replays the witness trace's arrivals through the concrete evaluator
  /// (the same one the symbolic pipeline uses — see backends/interp) and
  /// compares every shared series. A divergence means the solver model and
  /// the executable semantics disagree — the witness must not be trusted,
  /// so the verdict becomes WitnessMismatch. Networks the interpreter
  /// cannot replay deterministically (contracts, havoced initial state,
  /// nondeterministic buffer models) are skipped, leaving
  /// `witnessChecked == false`.
  void crossCheckWitness(AnalysisResult& result) {
    if (!options.replayWitness || !result.trace) return;
    if (result.verdict != Verdict::Satisfiable &&
        result.verdict != Verdict::Violated) {
      return;
    }
    if (options.symbolicInitialState) return;
    if (!unit->network().contracts().empty()) return;

    const Trace& witness = *result.trace;
    ConcreteArrivals arrivals;
    try {
      arrivals = arrivalsFromTrace(witness);
    } catch (const Error& e) {
      result.witnessChecked = true;
      result.verdict = Verdict::WitnessMismatch;
      result.detail = std::string("witness does not replay: ") + e.what();
      return;
    }
    std::unique_ptr<Encoding> replayed;
    try {
      replayed = pipeline::buildEncoding(*unit, workload, &arrivals);
    } catch (const Error&) {
      return;  // not concretely replayable — cannot cross-check
    }

    std::vector<std::string> mismatches;
    for (const auto& [name, terms] : replayed->series) {
      const auto it = witness.series.find(name);
      if (it == witness.series.end()) continue;
      for (std::size_t t = 0; t < terms.size(); ++t) {
        const auto concrete = ir::constValue(terms[t]);
        if (!concrete) return;  // nondeterministic model — cannot cross-check
        if (t < it->second.size() && *concrete != it->second[t]) {
          mismatches.push_back(name + "[" + std::to_string(t) +
                               "]: model=" + std::to_string(it->second[t]) +
                               " replay=" + std::to_string(*concrete));
        }
      }
    }
    result.witnessChecked = true;
    if (!mismatches.empty()) {
      result.verdict = Verdict::WitnessMismatch;
      std::string detail = "witness replay diverged on " +
                           std::to_string(mismatches.size()) + " value(s): ";
      const std::size_t shown = std::min<std::size_t>(mismatches.size(), 3);
      for (std::size_t i = 0; i < shown; ++i) {
        if (i > 0) detail += "; ";
        detail += mismatches[i];
      }
      if (mismatches.size() > shown) detail += "; ...";
      result.detail = detail;
    }
  }
};

Analysis::Analysis(Network network, AnalysisOptions options)
    : impl_(std::make_unique<Impl>(std::move(network), std::move(options))) {}

Analysis::Analysis(pipeline::CompilationUnitPtr unit, AnalysisOptions options)
    : impl_(std::make_unique<Impl>(std::move(unit), std::move(options))) {}

Analysis::~Analysis() = default;

void Analysis::setWorkload(Workload workload) {
  if (impl_->workloadLocked) {
    throw AnalysisError(
        "setWorkload must be called before the encoding is built");
  }
  impl_->workload = std::move(workload);
}

void Analysis::rebindWorkload(Workload workload) {
  Encoding& enc = impl_->ensureEncoding();
  impl_->workload = std::move(workload);
  enc.workloadTerms.clear();
  impl_->workload.apply(enc.arrivals(), enc.arena, enc.workloadTerms);
}

AnalysisResult Analysis::check(const Query& query) {
  return impl_->solveQuery(query, false);
}

AnalysisResult Analysis::verify(const Query& query) {
  return impl_->solveQuery(query, true);
}

ConcreteArrivals Analysis::arrivalsFromTrace(const Trace& trace) const {
  return impl_->arrivalsFromTrace(trace);
}

void Analysis::interrupt() { impl_->solver.interrupt(); }

bool Analysis::interrupted() const { return impl_->solver.interrupted(); }

void Analysis::setFaultScope(const std::string& scope) {
  impl_->solver.setFaultScope(scope);
}

std::string Analysis::toSmtLib(const Query& query, bool forVerify,
                               backends::SmtLibOptions options) {
  Encoding& enc = impl_->ensureEncoding();
  Impl::Keyed keyed = impl_->keyedProblem(query, forVerify, enc, false);
  impl_->finishKeyed(keyed, enc);
  return backends::emitSmtLib(keyed.standalone, options);
}

AnalysisResult Analysis::solveViaSmtLib(const Query& query, bool forVerify) {
  return impl_->solveViaSmtLib(query, forVerify);
}

AnalysisResult Analysis::checkViaSmtLib(const Query& query) {
  return impl_->solveViaSmtLib(query, false);
}

Trace Analysis::simulate(const ConcreteArrivals& arrivals) {
  const auto enc =
      pipeline::buildEncoding(*impl_->unit, impl_->workload, &arrivals);
  Trace trace;
  trace.horizon = enc->horizon;
  for (const auto& [name, terms] : enc->series) {
    std::vector<std::int64_t> values;
    values.reserve(terms.size());
    for (const ir::TermRef term : terms) {
      const auto c = ir::constValue(term);
      if (!c) {
        throw AnalysisError(
            "simulation produced a symbolic value for series '" + name +
            "'; concrete simulation requires a deterministic model "
            "configuration (list model, or counter model without classified "
            "buffers)");
      }
      values.push_back(*c);
    }
    trace.series[name] = std::move(values);
  }
  return trace;
}

const Encoding& Analysis::encoding() { return impl_->ensureEncoding(); }

const pipeline::CompilationUnitPtr& Analysis::unit() const {
  return impl_->unit;
}

const pipeline::PipelineStats& Analysis::pipelineStats() const {
  return impl_->stats;
}

std::vector<std::string> Analysis::inputBufferNames() const {
  return impl_->unit->inputBufferNames();
}

std::vector<std::string> Analysis::monitorNames() const {
  return impl_->unit->monitorNames();
}

}  // namespace buffy::core
