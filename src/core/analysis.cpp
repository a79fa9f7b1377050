#include "core/analysis.hpp"

#include <algorithm>
#include <array>
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

std::optional<Verdict> parseVerdictName(std::string_view name) {
  for (const Verdict v :
       {Verdict::Satisfiable, Verdict::Unsatisfiable, Verdict::Verified,
        Verdict::Violated, Verdict::WitnessMismatch, Verdict::Unknown}) {
    if (name == verdictName(v)) return v;
  }
  return std::nullopt;
}

// ---- verdict record codec ----------------------------------------------
//
// A verdict record is a WireMap payload whose attempts and trace are
// nested payloads. Each is written in one pass into one buffer, keys in
// the payload's order, and read in one pass over views into the bytes.

namespace {

/// Appends `values` as comma-separated decimals.
void appendInts(std::string& out, const std::vector<std::int64_t>& values) {
  char buf[24];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    const auto done = std::to_chars(buf, buf + sizeof buf, values[i]);
    out.append(buf, done.ptr);
  }
}

std::vector<std::int64_t> splitInts(std::string_view text,
                                    std::size_t expected) {
  std::vector<std::int64_t> out;
  if (text.empty()) return out;
  out.reserve(std::min(expected, text.size() / 2 + 1));
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

void encodeAttempt(std::string& out, const SolveAttempt& attempt) {
  WireWriter w(out);
  w.putUint("deadEntries", attempt.deadEntries);
  w.putUint("liveWidth", attempt.liveWidth);
  w.putUint("memoHits", attempt.memoHits);
  w.put("outcome", attempt.outcome);
  w.put("reason", attempt.reason);
  w.putUint("rlimitUsed", attempt.rlimitUsed);
  w.putUint("saturated", attempt.saturated);
  w.putDouble("seconds", attempt.seconds);
  if (attempt.seed) w.putUint("seed", *attempt.seed);
  w.putUint("setupNodes", attempt.setupNodes);
  w.putDouble("setupSeconds", attempt.setupSeconds);
  w.put("solver", attempt.solver);
  w.put("stage", attempt.stage);
  if (attempt.timeoutMs) w.putUint("timeoutMs", *attempt.timeoutMs);
  w.putUint("visited", attempt.visited);
  w.finish();
}

/// A field an `unsigned` holds; DecodeError when the text is no unsigned
/// or the value is past UINT_MAX.
unsigned parseUnsigned(std::string_view key, std::string_view text) {
  const std::uint64_t value = parseWireUint(key, text);
  if (value > UINT_MAX) {
    throw DecodeError("wire key '" + std::string(key) + "' is out of range: " +
                      std::string(text));
  }
  return static_cast<unsigned>(value);
}

SolveAttempt decodeAttempt(std::string_view bytes) {
  enum Field {
    kDeadEntries, kLiveWidth, kMemoHits, kOutcome, kReason, kRlimitUsed,
    kSaturated, kSeconds, kSeed, kSetupNodes, kSetupSeconds, kSolver,
    kStage, kTimeoutMs, kVisited, kFields
  };
  static constexpr std::array<std::string_view, kFields> kNames = {
      "deadEntries", "liveWidth", "memoHits",   "outcome",
      "reason",      "rlimitUsed", "saturated", "seconds",
      "seed",        "setupNodes", "setupSeconds", "solver",
      "stage",       "timeoutMs",  "visited"};
  const auto f =
      readWireFields(bytes, kNames, [](std::string_view, std::string_view) {});
  const auto required = [&f](Field field) {
    return requireWireField(kNames[field], f[field]);
  };
  SolveAttempt attempt;
  attempt.stage = required(kStage);
  // Records written before attempts named their engine come from Z3.
  if (f[kSolver]) attempt.solver = *f[kSolver];
  attempt.outcome = required(kOutcome);
  attempt.reason = required(kReason);
  attempt.seconds = parseWireDouble(kNames[kSeconds], required(kSeconds));
  // Records written before attempts split out the set-up read as 0.
  if (f[kSetupSeconds]) {
    attempt.setupSeconds =
        parseWireDouble(kNames[kSetupSeconds], *f[kSetupSeconds]);
  }
  attempt.rlimitUsed =
      parseWireUint(kNames[kRlimitUsed], required(kRlimitUsed));
  if (f[kSeed]) attempt.seed = parseUnsigned(kNames[kSeed], *f[kSeed]);
  if (f[kTimeoutMs]) {
    attempt.timeoutMs = parseUnsigned(kNames[kTimeoutMs], *f[kTimeoutMs]);
  }
  // Records written before attempts carried search counters read as 0.
  const auto counter = [&f](Field field) {
    return f[field] ? parseWireUint(kNames[field], *f[field])
                    : std::uint64_t{0};
  };
  attempt.setupNodes = counter(kSetupNodes);
  attempt.visited = counter(kVisited);
  attempt.memoHits = counter(kMemoHits);
  attempt.deadEntries = counter(kDeadEntries);
  attempt.liveWidth = counter(kLiveWidth);
  attempt.saturated = counter(kSaturated);
  return attempt;
}

void encodeTrace(std::string& out, const Trace& trace) {
  WireWriter w(out);
  w.putInt("horizon", trace.horizon);
  WireWriter series(w.openValue("series"));
  for (const auto& [name, values] : trace.series) {
    appendInts(series.openValue(name), values);
    series.closeValue();
  }
  series.finish();
  w.closeValue();
  w.finish();
}

/// Enforces Trace's invariant — every series has `horizon` values — so no
/// consumer (witness replay, rendering) ever indexes past a short series.
Trace decodeTrace(std::string_view bytes) {
  static constexpr std::array<std::string_view, 2> kNames = {"horizon",
                                                             "series"};
  const auto f =
      readWireFields(bytes, kNames, [](std::string_view, std::string_view) {});
  const std::int64_t horizon =
      parseWireInt(kNames[0], requireWireField(kNames[0], f[0]));
  if (horizon < 0 || horizon > INT_MAX) {
    throw DecodeError("trace horizon " + std::to_string(horizon) +
                      " is out of range");
  }
  Trace trace;
  trace.horizon = static_cast<int>(horizon);
  WireReader series(requireWireField(kNames[1], f[1]));
  std::string_view name;
  std::string_view text;
  while (series.next(name, text)) {
    std::vector<std::int64_t> values =
        splitInts(text, static_cast<std::size_t>(horizon));
    if (values.size() != static_cast<std::size_t>(horizon)) {
      throw DecodeError("trace series '" + std::string(name) + "' has " +
                        std::to_string(values.size()) +
                        " values for horizon " + std::to_string(horizon));
    }
    trace.series.emplace(name, std::move(values));
  }
  return trace;
}

/// A generous estimate of a record's size, so it is written without the
/// buffer growing.
std::size_t recordSizeHint(const AnalysisResult& result) {
  std::size_t n = 256 + result.detail.size() + result.cacheKey.size() +
                  result.attempts.size() * 384;
  for (const SolveAttempt& attempt : result.attempts) {
    n += attempt.reason.size();
  }
  if (result.trace) {
    for (const auto& [name, values] : result.trace->series) {
      n += 16 + name.size() + values.size() * 4;
    }
  }
  return n;
}

/// "attempt.<i>" in `buf`.
std::string_view attemptKey(char (&buf)[32], std::size_t i) {
  static constexpr std::string_view kPrefix = "attempt.";
  std::copy(kPrefix.begin(), kPrefix.end(), buf);
  const auto done =
      std::to_chars(buf + kPrefix.size(), buf + sizeof buf, i);
  return {buf, static_cast<std::size_t>(done.ptr - buf)};
}

/// The index `text` names when it is an index's decimal text exactly as
/// attemptKey writes it (no sign, no leading zero).
std::optional<std::uint64_t> attemptIndex(std::string_view text) {
  if (text.empty() || (text.size() > 1 && text[0] == '0')) {
    return std::nullopt;
  }
  std::uint64_t index = 0;
  const char* const end = text.data() + text.size();
  const auto parsed = std::from_chars(text.data(), end, index);
  if (parsed.ec != std::errc() || parsed.ptr != end) return std::nullopt;
  return index;
}

}  // namespace

std::string encodeVerdict(const AnalysisResult& result) {
  std::string out;
  out.reserve(recordSizeHint(result));
  WireWriter w(out);
  // Keys in payload order: "attempt.10" sorts before "attempt.2".
  const std::size_t count = result.attempts.size();
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  if (count > 10) {
    std::sort(order.begin(), order.end(), [](std::size_t a, std::size_t b) {
      char ka[32];
      char kb[32];
      return attemptKey(ka, a) < attemptKey(kb, b);
    });
  }
  for (const std::size_t i : order) {
    char key[32];
    encodeAttempt(w.openValue(attemptKey(key, i)), result.attempts[i]);
    w.closeValue();
  }
  w.putUint("attempt.count", count);
  w.put("cacheKey", result.cacheKey);
  w.putBool("cached", result.cached);
  w.putBool("canceled", result.canceled);
  w.put("detail", result.detail);
  w.putDouble("solveSeconds", result.solveSeconds);
  if (result.trace) {
    encodeTrace(w.openValue("trace"), *result.trace);
    w.closeValue();
  }
  w.put("verdict", verdictName(result.verdict));
  w.putBool("witnessChecked", result.witnessChecked);
  w.finish();
  return out;
}

AnalysisResult decodeVerdict(std::string_view bytes) {
  enum Field {
    kAttemptCount, kCacheKey, kCached, kCanceled, kDetail, kSolveSeconds,
    kTrace, kVerdict, kWitnessChecked, kFields
  };
  static constexpr std::array<std::string_view, kFields> kNames = {
      "attempt.count", "cacheKey", "cached",
      "canceled",      "detail",   "solveSeconds",
      "trace",         "verdict",  "witnessChecked"};
  static constexpr std::string_view kAttemptPrefix = "attempt.";
  // "attempt.<i>" entries, by index; which of them count is known only
  // once "attempt.count" is read, and it sorts after them.
  std::vector<std::pair<std::uint64_t, std::string_view>> attemptEntries;
  const auto f = readWireFields(
      bytes, kNames, [&](std::string_view key, std::string_view value) {
        if (key.substr(0, kAttemptPrefix.size()) != kAttemptPrefix) return;
        if (const auto i = attemptIndex(key.substr(kAttemptPrefix.size()))) {
          attemptEntries.emplace_back(*i, value);
        }
      });
  const auto required = [&f](Field field) {
    return requireWireField(kNames[field], f[field]);
  };
  AnalysisResult result;
  const std::string_view name = required(kVerdict);
  const auto verdict = parseVerdictName(name);
  if (!verdict) {
    throw DecodeError("unknown verdict name '" + std::string(name) + "'");
  }
  result.verdict = *verdict;
  result.detail = required(kDetail);
  result.solveSeconds =
      parseWireDouble(kNames[kSolveSeconds], required(kSolveSeconds));
  result.canceled = parseWireBool(kNames[kCanceled], required(kCanceled));
  result.witnessChecked =
      parseWireBool(kNames[kWitnessChecked], required(kWitnessChecked));
  result.cacheKey = required(kCacheKey);
  result.cached = parseWireBool(kNames[kCached], required(kCached));
  const std::uint64_t count =
      parseWireUint(kNames[kAttemptCount], required(kAttemptCount));
  // Keys are distinct, so fewer entries than the count means one of
  // "attempt.0" ... is missing; checked before anything is sized by it.
  if (count > attemptEntries.size()) {
    throw DecodeError("wire payload is missing attempts: " +
                      std::to_string(count) + " counted, " +
                      std::to_string(attemptEntries.size()) + " present");
  }
  std::vector<std::optional<std::string_view>> attempts(count);
  for (const auto& [index, value] : attemptEntries) {
    if (index < count) attempts[index] = value;
  }
  result.attempts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    char key[32];
    result.attempts.push_back(
        decodeAttempt(requireWireField(attemptKey(key, i), attempts[i])));
  }
  if (f[kTrace]) result.trace = decodeTrace(*f[kTrace]);
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
  // One window around the record's encoding and the store (the memory
  // tier, and the disk record the write-behind thread lands).
  const double cpuStart = cache::threadCpuSeconds();
  cache.store(result.cacheKey, encodeVerdict(result));
  cache.addClientSeconds(cache::threadCpuSeconds() - cpuStart);
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
  /// content-addressed cache key (probeCache derives it), then — only
  /// when the cache does not answer — the optimizer plan and the
  /// standalone constraint set every solve path runs (finishKeyed). The
  /// key is empty when no cache is configured. Every solve path answers
  /// the same standalone problem, so one key serves them all.
  struct Keyed {
    std::vector<ir::TermRef> delta;
    std::optional<opt::Optimizer::Plan> plan;
    std::vector<ir::TermRef> standalone;
    std::string key;
    bool finished = false;  // plan/standalone built (finishKeyed)
  };

  /// The content-addressed key of one keyed query, timed as the "cache"
  /// stage. It hashes the PRE-optimizer problem (encoding structural sets
  /// + raw delta): every term carries the hash it was interned with, so
  /// this sorts and mixes the roots' hashes and walks nothing; the
  /// structural sets' part is mixed once per engine. The optimizer is
  /// equivalence-preserving (differentially tested, DESIGN.md §9), so the
  /// raw problem identifies the answer exactly as well — and a warm hit
  /// then never runs the planner at all.
  std::string cacheKey(const Query& query, bool forVerify, Encoding& enc,
                       const std::vector<ir::TermRef>& delta) {
    pipeline::StageTimer timer(stats.stage("cache"));
    constexpr std::uint64_t kPrime = 1099511628211ull;
    if (!structuralHash) {
      structuralHash = ir::hashSet(enc.assumptions) * kPrime ^
                       ir::hashSet(enc.soundness);
    }
    cache::CacheKeyParts parts;
    parts.problemHash = *structuralHash * kPrime ^ ir::hashSet(delta);
    parts.query = query.description();
    parts.horizon = options.horizon;
    parts.forVerify = forVerify;
    parts.model = static_cast<int>(options.model);
    parts.symbolicInitialState = options.symbolicInitialState;
    return cache::cacheKeyFor(parts);
  }

  /// The raw standalone problem: the encoding's assumptions and soundness
  /// constraints plus the query delta, as built before any planning.
  std::vector<ir::TermRef> rawProblem(const Encoding& enc,
                                      const std::vector<ir::TermRef>& delta) {
    std::vector<ir::TermRef> out = structuralConstraints(enc);
    out.insert(out.end(), delta.begin(), delta.end());
    return out;
  }

  /// The rest of a keyed query: the optimizer plan and standalone set,
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

  /// Cache probe for one keyed query: derives its key (keyed.key), looks
  /// it up and, on a hit, decodes the record, all in one window of the
  /// cache's CPU attribution. Validates the record beyond its checksum —
  /// it decodes (verdict name, Trace's invariant), its verdict matches the
  /// query discipline, its trace horizon matches — and (under
  /// cacheVerify) replays Sat/Violated witnesses through the concrete
  /// interpreter. Any failure invalidates the entry, counts a validation
  /// failure, and reads as a miss: the cold path re-solves. A hit takes
  /// only the answer from the record: no attempts, no solve time.
  std::optional<AnalysisResult> probeCache(const Query& query, bool forVerify,
                                           Encoding& enc, Keyed& keyed) {
    if (!options.cache) return std::nullopt;
    const double cpuStart = cache::threadCpuSeconds();
    keyed.key = cacheKey(query, forVerify, enc, keyed.delta);
    const auto bytes = options.cache->lookup(keyed.key);
    AnalysisResult record;
    bool valid = bytes.has_value();
    if (bytes) {
      try {
        record = decodeVerdict(*bytes);
      } catch (const DecodeError&) {
        valid = false;
      }
    }
    options.cache->addClientSeconds(cache::threadCpuSeconds() - cpuStart);
    if (!bytes) return std::nullopt;
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
    result.cacheKey = keyed.key;
    if (valid && options.cacheVerify && result.trace) {
      crossCheckWitness(result);
      valid = result.verdict != Verdict::WitnessMismatch;
    }
    if (!valid) {
      options.cache->invalidate(keyed.key);
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
    Keyed keyed;
    keyed.delta = queryDelta(query, forVerify, enc);
    // The cache is consulted before any solver runs AND before the
    // optimizer plans: a warm process answers without lowering terms into
    // Z3 or planning a slice.
    if (auto hit = probeCache(query, forVerify, enc, keyed)) return *hit;

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
    Keyed keyed;
    keyed.delta = queryDelta(query, forVerify, enc);
    if (auto hit = probeCache(query, forVerify, enc, keyed)) return *hit;
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
  Impl::Keyed keyed;
  keyed.delta = impl_->queryDelta(query, forVerify, enc);
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
