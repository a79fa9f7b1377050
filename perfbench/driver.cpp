// Benchmark driver: wall time from a fresh engine to a verdict on the
// paper's analyses, as one library call or one CLI invocation pays it,
// scaled to a reference core speed (SpeedGauge).
//
//   perfbench_driver --workload cold|warm|sweep --seed N --seconds S
//                    --trace 0|1
//
// perfbench/run.py builds this binary and runs it from the repository
// root; perfbench/README.md describes the workloads, metrics and layers.
//
// A workload is a fixed list of problems. A round answers every problem
// once, in an order shuffled from --seed; rounds repeat until --seconds
// have passed, and the last round always completes, so every problem has
// the same number of samples. Every verdict is checked against the
// problem's known answer. A traced run writes its spans to .bench_out/.
// The last line of stdout is the result.
#include <sched.h>
#include <sys/resource.h>
#include <z3.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cache/verdict_cache.hpp"
#include "core/analysis.hpp"
#include "models/library.hpp"
#include "pipeline/driver.hpp"
#include "synth/synthesizer.hpp"

using namespace buffy;

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kOutDir = ".bench_out";

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Converts wall time into time at a fixed core speed. The benchmark runs
/// on cores shared with other tenants, whose speed drifts by tens of
/// percent within seconds, and every wall time drifts with it. The gauge
/// times a fixed reference computation before and after each measured
/// interval; the interval, scaled by kReferenceSeconds over the mean of
/// those two reference times, reads as wall time on a core where the
/// reference takes kReferenceSeconds.
///
/// The reference uses neither Buffy nor Z3 and allocates nothing while
/// timed, so no change to the program moves it: inserts into an
/// open-addressing table of 2^16 slots (1 MiB with the values), keyed by a
/// xorshift sequence. Like the solver path it is load- and branch-bound.
/// Tables of 64 KiB tracked the drift poorly; 1 MiB and 16 MiB tracked it
/// equally well.
class SpeedGauge {
 public:
  /// About the reference's time on the 2.1 GHz Xeon host the bounds in
  /// BENCHMARK.json were set on, so that scaled times read close to that
  /// host's wall times.
  static constexpr double kReferenceSeconds = 0.010;

  SpeedGauge() : last_(reference()) {}

  /// Runs the reference and returns the factor that converts wall time
  /// measured since the previous call (or construction) into time at the
  /// reference speed.
  double next() {
    const double now = reference();
    const double factor = 2 * kReferenceSeconds / (last_ + now);
    last_ = now;
    times_.push_back(now);
    return factor;
  }

  /// Median time of the reference runs so far.
  [[nodiscard]] double medianReference() const { return median(times_); }

 private:
  static constexpr int kBits = 16;
  static constexpr std::size_t kMask = (std::size_t{1} << kBits) - 1;
  static constexpr std::uint64_t kKeys = 40000;  // 61% load
  static constexpr int kSteps = 1800000;

  double reference() {
    std::fill(keys_.begin(), keys_.end(), 0);
    const auto start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::uint64_t key = x % kKeys + 1;
      std::size_t slot = (key * 0x9E3779B97F4A7C15ull) >> (64 - kBits);
      while (keys_[slot] != 0 && keys_[slot] != key) slot = (slot + 1) & kMask;
      keys_[slot] = key;
      values_[slot] += x;
    }
    return since(start);
  }

  std::vector<std::uint64_t> keys_ = std::vector<std::uint64_t>(kMask + 1);
  std::vector<std::uint64_t> values_ = std::vector<std::uint64_t>(kMask + 1);
  double last_;
  std::vector<double> times_;
};

/// Keeps the process on the core it started on, so that every problem runs
/// on the core of the reference runs that bracket it. Unpinned, a problem
/// of several hundred ms can move between cores the host loads
/// differently, and the spread of `cold` across seeds was three times as
/// wide. Best effort: the run goes on unpinned if this fails.
void pinToCurrentCore() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// The paper's models, workloads and queries
// ---------------------------------------------------------------------------

/// §6.1 and Figure 6: the fair-queuing scheduler over N = 2 inputs.
core::Network fqNet(const char* source) {
  core::ProgramSpec spec;
  spec.instance = "fq";
  spec.source = source;
  spec.compile.constants["N"] = 2;
  spec.compile.defaultListCapacity = 2;
  spec.buffers = {
      {.param = "ibs", .role = core::BufferSpec::Role::Input, .capacity = 6,
       .maxArrivalsPerStep = 3},
      {.param = "ob", .role = core::BufferSpec::Role::Output, .capacity = 32},
  };
  core::Network net;
  net.add(spec);
  return net;
}

/// §6.2: AIMD sender -> token-bucket path server -> delay server, with the
/// delayed acks fed back to the sender.
core::Network ccacNet(int pathCapacity) {
  core::ProgramSpec cca;
  cca.instance = "cca";
  cca.source = models::kAimdCca;
  cca.compile.constants["RTO"] = 3;
  cca.buffers = {
      {.param = "ind", .role = core::BufferSpec::Role::Input, .capacity = 16,
       .maxArrivalsPerStep = 4},
      {.param = "inack", .role = core::BufferSpec::Role::Input,
       .capacity = 16},
      {.param = "out", .role = core::BufferSpec::Role::Output,
       .capacity = 16},
      {.param = "ackdrain", .role = core::BufferSpec::Role::Output,
       .capacity = 16},
  };
  core::ProgramSpec path;
  path.instance = "path";
  path.source = models::kPathServer;
  path.compile.constants["RATE"] = 2;
  path.compile.constants["BUCKET"] = 4;
  path.buffers = {
      {.param = "pin", .role = core::BufferSpec::Role::Input,
       .capacity = pathCapacity},
      {.param = "pout", .role = core::BufferSpec::Role::Output,
       .capacity = 16},
  };
  core::ProgramSpec delay;
  delay.instance = "delay";
  delay.source = models::kDelayServer;
  delay.buffers = {
      {.param = "din", .role = core::BufferSpec::Role::Input, .capacity = 16},
      {.param = "dout", .role = core::BufferSpec::Role::Output,
       .capacity = 16},
  };
  core::Network net;
  net.add(cca).add(path).add(delay);
  net.connect("cca", "out", "path", "pin");
  net.connect("path", "pout", "delay", "din");
  net.connect("delay", "dout", "cca", "inack");
  return net;
}

/// §6.1: queue 0 free to pace itself, queue 1 a 3-packet burst at step 0.
core::Workload starvationWorkload(int horizon) {
  core::Workload w;
  w.add(core::Workload::perStepCount("fq.ibs.0", 0, 1));
  w.add(core::Workload::countAtStep("fq.ibs.1", 0, 3, 3));
  for (int t = 1; t < horizon; ++t) {
    w.add(core::Workload::countAtStep("fq.ibs.1", t, 0, 0));
  }
  return w;
}

/// §6.2: the application always has data to send.
core::Workload ccacWorkload(int /*horizon*/) {
  core::Workload w;
  w.add(core::Workload::perStepCount("cca.ind", 4, 4));
  return w;
}

/// Figure 6: every packet that arrived was served, is queued, or dropped.
core::Query conservationQuery() {
  return core::Query::custom(
      "conservation", [](const core::SeriesView& view, ir::TermArena& arena) {
        const auto at = [&view](const std::string& series, int t) {
          return view.find(series)->at(static_cast<std::size_t>(t));
        };
        ir::TermRef arrived = arena.intConst(0);
        ir::TermRef out = arena.intConst(0);
        for (int t = 0; t < view.horizon(); ++t) {
          arrived = arena.add(arrived, at("fq.ibs.0.arrived", t));
          arrived = arena.add(arrived, at("fq.ibs.1.arrived", t));
          out = arena.add(out, at("fq.ob.out", t));
        }
        const int last = view.horizon() - 1;
        ir::TermRef held = arena.intConst(0);
        for (const std::string buf : {"fq.ibs.0", "fq.ibs.1"}) {
          held = arena.add(held, at(buf + ".backlog", last));
          held = arena.add(held, at(buf + ".dropped", last));
        }
        return arena.eq(arrived, arena.add(out, held));
      });
}

/// One unit of work: a fresh engine answering `queries` in order, or one
/// workload-synthesis run over `queries.front()`.
struct Problem {
  std::string name;
  std::function<core::Network()> network;
  int horizon = 0;
  std::function<core::Workload(int)> workload;
  std::vector<core::Query> queries;
  bool verify = false;
  /// The known verdict of each query.
  std::vector<core::Verdict> expected;
  /// Synthesis problems: the exact solution set, as Candidate::describe().
  bool synthesis = false;
  std::vector<std::string> solutions;
};

Problem queryProblem(std::string name, std::function<core::Network()> network,
                     int horizon, std::function<core::Workload(int)> workload,
                     const core::Query& query, bool verify,
                     core::Verdict expected) {
  Problem p;
  p.name = std::move(name);
  p.network = std::move(network);
  p.horizon = horizon;
  p.workload = std::move(workload);
  p.queries = {query};
  p.verify = verify;
  p.expected = {expected};
  return p;
}

/// The paper's analyses: §6.1's starvation (∃) and fairness (∀) queries on
/// the buggy and RFC 8290-fixed schedulers, the Figure 6 conservation
/// proof (at T=2: at T=3 it alone outlasts a whole round), §6.2's CCAC
/// loss query with a small and a large path buffer, and the synthesis of
/// the workloads that guarantee starvation.
std::vector<Problem> paperProblems() {
  using V = core::Verdict;
  const auto buggy = [] { return fqNet(models::kFairQueueBuggy); };
  const auto fixed = [] { return fqNet(models::kFairQueueFixed); };
  const core::Query starve = core::Query::expr(
      "fq.cdeq.0[T-1] >= T-1 & fq.cdeq.1[T-1] <= 1 & "
      "fq.ibs.1.backlog[T-1] > 0");
  const core::Query fair = core::Query::expr("fq.cdeq.1[T-1] >= 2");
  const core::Query loss = core::Query::expr("path.pin.dropped[T-1] > 0");

  std::vector<Problem> out;
  out.push_back(queryProblem("fq-starve-buggy", buggy, 6, starvationWorkload,
                             starve, false, V::Satisfiable));
  out.push_back(queryProblem("fq-starve-fixed", fixed, 6, starvationWorkload,
                             starve, false, V::Unsatisfiable));
  out.push_back(queryProblem("fq-fair-buggy", buggy, 6, starvationWorkload,
                             fair, true, V::Violated));
  out.push_back(queryProblem("fq-fair-fixed", fixed, 6, starvationWorkload,
                             fair, true, V::Verified));
  out.push_back(queryProblem("fig6-conservation", buggy, 2, nullptr,
                             conservationQuery(), true, V::Verified));
  out.push_back(queryProblem("ccac-loss-path3", [] { return ccacNet(3); }, 7,
                             ccacWorkload, loss, false, V::Satisfiable));
  out.push_back(queryProblem("ccac-loss-path24", [] { return ccacNet(24); },
                             7, ccacWorkload, loss, false, V::Unsatisfiable));

  Problem synth;
  synth.name = "synth-starve";
  synth.network = buggy;
  synth.horizon = 5;
  synth.queries = {core::Query::expr(
      "fq.cdeq.1[T-1] <= 1 & fq.cdeq.0[T-1] >= T-1")};
  synth.synthesis = true;
  synth.solutions = {"fq.ibs.0:1/step, fq.ibs.1:none",
                     "fq.ibs.0:1,0,1,1,..., fq.ibs.1:none",
                     "fq.ibs.0:1,0,1,1,..., fq.ibs.1:1/step",
                     "fq.ibs.0:1,0,1,1,..., fq.ibs.1:burst2@0",
                     "fq.ibs.0:1,0,1,1,..., fq.ibs.1:burst3@0"};
  out.push_back(std::move(synth));
  return out;
}

/// A Figure 6-style horizon sweep over the RFC-fixed scheduler: at each
/// horizon one engine answers a batch of ∀ properties under the §6.1
/// workload, reusing its incremental solver session across the batch.
std::vector<Problem> sweepProblems() {
  std::vector<core::Query> batch;
  for (const char* text : {
           "fq.cdeq.1[T-1] >= min(3, (T-1)/3)",
           "fq.cdeq.0[T-1] >= 0",
           "fq.cdeq.1[T-1] >= 0",
           "fq.cdeq.0[T-1] <= T",
           "fq.cdeq.1[T-1] <= T",
           "fq.cdeq.0[T-1] + fq.cdeq.1[T-1] <= 2 * T",
           "sum(fq.cdeq.0, 0, T) >= 0",
           "fq.ibs.0.backlog[T-1] >= 0",
           "fq.ibs.1.dropped[T-1] >= 0",
       }) {
    batch.push_back(core::Query::expr(text));
  }
  std::vector<Problem> out;
  for (int horizon = 2; horizon <= 5; ++horizon) {
    Problem p;
    p.name = "sweep-T" + std::to_string(horizon);
    p.network = [] { return fqNet(models::kFairQueueFixed); };
    p.horizon = horizon;
    p.workload = starvationWorkload;
    p.queries = batch;
    p.verify = true;
    p.expected.assign(batch.size(), core::Verdict::Verified);
    out.push_back(std::move(p));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Spans kept in memory and written as Chrome trace-event JSON when the run
/// ends (chrome://tracing and Perfetto open it). Records nothing when off.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under `parent` (-1: a root) and returns its id; -1 when
  /// tracing is off.
  int open(std::string name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), parent, now(), 0.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Closes a span; `args` holds extra JSON members for its "args" object.
  void close(int id, std::string args = {}) {
    if (id < 0) return;
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = now();
    span.args = std::move(args);
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d%s%s}}%s\n",
                   s.name.c_str(), s.start, s.end - s.start, i, s.parent,
                   s.args.empty() ? "" : ", ", s.args.c_str(),
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;  // microseconds since the tracer was made
    double end;
    std::string args;
  };

  [[nodiscard]] double now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Running one problem
// ---------------------------------------------------------------------------

/// Per-layer time and work: one problem's, or summed over a round. Times
/// are measured around the driver's calls into each layer, except `cache`,
/// which is the engine's own "cache" stage row.
struct Layers {
  double front = 0.0;   // CompilerDriver::compile: parse .. recheck
  double encode = 0.0;  // symbolic evaluation into the term IR
  double cache = 0.0;   // verdict-cache key derivation
  double query = 0.0;   // the rest of check/verify: cache lookup, plan,
                        // Z3 lowering and check, model, witness replay
  std::uint64_t solverCalls = 0;
  std::uint64_t rlimit = 0;
  std::uint64_t termNodes = 0;
  std::uint64_t optNodes = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t prescreenRejected = 0;

  void add(const Layers& o) {
    front += o.front;
    encode += o.encode;
    cache += o.cache;
    query += o.query;
    solverCalls += o.solverCalls;
    rlimit += o.rlimit;
    termNodes += o.termNodes;
    optNodes += o.optNodes;
    cacheHits += o.cacheHits;
    cacheMisses += o.cacheMisses;
    prescreenRejected += o.prescreenRejected;
  }

  void scaleTimes(double factor) {
    front *= factor;
    encode *= factor;
    cache *= factor;
    query *= factor;
  }
};

struct Sample {
  double seconds = 0.0;
  Layers layers;
  /// Empty when every verdict matched the known answer.
  std::string error;
};

double stageSeconds(const pipeline::PipelineStats& stats, const char* name) {
  const pipeline::StageStats* row = stats.find(name);
  return row == nullptr ? 0.0 : row->seconds;
}

Sample runQueries(const Problem& p,
                  const std::shared_ptr<cache::VerdictCache>& cache,
                  Tracer& tracer, int parent) {
  Sample s;
  Layers& l = s.layers;
  core::AnalysisOptions opts;
  opts.horizon = p.horizon;
  opts.cache = cache;

  int span = tracer.open("compile", parent);
  auto start = Clock::now();
  const pipeline::CompilerDriver driver(core::pipelineOptionsFor(opts));
  const pipeline::CompilationUnitPtr unit = driver.compile(p.network());
  l.front = since(start);
  tracer.close(span);

  core::Analysis engine(unit, opts);
  if (p.workload) engine.setWorkload(p.workload(p.horizon));
  span = tracer.open("encode", parent);
  start = Clock::now();
  engine.encoding();
  l.encode = since(start);
  tracer.close(span);

  span = tracer.open("query", parent);
  start = Clock::now();
  for (std::size_t i = 0; i < p.queries.size(); ++i) {
    const core::Query& q = p.queries[i];
    const core::AnalysisResult r = p.verify ? engine.verify(q) : engine.check(q);
    if (r.verdict != p.expected[i] && s.error.empty()) {
      s.error = q.description() + ": " + core::verdictName(r.verdict) +
                ", expected " + core::verdictName(p.expected[i]);
      if (!r.detail.empty()) s.error += " (" + r.detail + ")";
    }
    l.solverCalls += r.attempts.size();
    for (const auto& attempt : r.attempts) l.rlimit += attempt.rlimitUsed;
    if (r.opt) l.optNodes += r.opt->nodesAfter;
  }
  const double queries = since(start);

  const pipeline::PipelineStats& stats = engine.pipelineStats();
  l.cache = stageSeconds(stats, "cache");
  l.query = queries - l.cache;
  if (const auto* row = stats.find("encode")) l.termNodes = row->nodes;
  char args[160];
  std::snprintf(args, sizeof(args),
                "\"cache_s\": %.9f, \"optimize_s\": %.9f, \"solve_s\": %.9f",
                l.cache, stageSeconds(stats, "optimize"),
                stageSeconds(stats, "solve"));
  tracer.close(span, args);
  return s;
}

Sample runSynthesis(const Problem& p,
                    const std::shared_ptr<cache::VerdictCache>& cache) {
  Sample s;
  core::AnalysisOptions opts;
  opts.horizon = p.horizon;
  opts.cache = cache;
  synth::Synthesizer synthesizer(p.network(), opts);
  const synth::SynthesisResult r =
      synthesizer.run(p.queries.front(), synth::SynthesisOptions{});
  std::vector<std::string> found;
  for (const auto& c : r.solutions) found.push_back(c.describe());
  if (!r.failures.empty()) {
    s.error = "synthesis: " + r.failures.front().describe();
  } else if (found != p.solutions) {
    s.error = "synthesis found a different solution set:";
    for (const auto& f : found) s.error += " [" + f + "]";
  }
  s.layers.prescreenRejected = static_cast<std::uint64_t>(r.prescreenRejected);
  return s;
}

/// Answers one problem with a fresh engine, over `shared` or, when it is
/// null, over a fresh in-memory verdict cache as a new CLI process builds
/// it; the time then includes that cache's construction and teardown.
Sample runProblem(const Problem& p,
                  const std::shared_ptr<cache::VerdictCache>& shared,
                  Tracer& tracer, int parent) {
  Sample s;
  const auto start = Clock::now();
  try {
    const auto cache =
        shared ? shared : std::make_shared<cache::VerdictCache>();
    const cache::CacheStats before = cache->stats();
    s = p.synthesis ? runSynthesis(p, cache)
                    : runQueries(p, cache, tracer, parent);
    const cache::CacheStats after = cache->stats();
    s.layers.cacheHits = after.hits - before.hits;
    s.layers.cacheMisses = after.misses - before.misses;
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  s.seconds = since(start);
  return s;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Set-up before the timed rounds. The cold and sweep workloads compile and
/// encode every problem once and answer one small query, which pays the
/// process's one-time costs (allocator growth, Z3 initialisation). The
/// warm workload instead fills `shared`, which starts empty, by answering
/// every problem once. Returns an error message, empty on success.
std::string setUp(const std::vector<Problem>& problems,
                  const std::shared_ptr<cache::VerdictCache>& shared) {
  if (shared) {
    Tracer off(false);
    for (const Problem& p : problems) {
      const Sample s = runProblem(p, shared, off, -1);
      if (!s.error.empty()) return p.name + ": " + s.error;
    }
    return {};
  }
  for (const Problem& p : problems) {
    core::AnalysisOptions opts;
    opts.horizon = p.horizon;
    core::Analysis engine(p.network(), opts);
    if (p.workload) engine.setWorkload(p.workload(p.horizon));
    engine.encoding();
  }
  core::AnalysisOptions opts;
  opts.horizon = 2;
  core::Analysis engine(fqNet(models::kFairQueueBuggy), opts);
  const auto r = engine.verify(core::Query::expr("fq.cdeq.0[T-1] >= 0"));
  if (r.verdict != core::Verdict::Verified) {
    return std::string("set-up query: ") + core::verdictName(r.verdict);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Command line and report
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "cold|warm|sweep --seed N --seconds S --trace 0|1\n",
               problem.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = static_cast<std::uint64_t>(std::stoll(value));
        haveSeed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload != "cold" && args.workload != "warm" &&
      args.workload != "sweep") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!haveSeed) usage("--seed is required");
  if (!(args.seconds >= 0)) usage("--seconds must be >= 0");
  return args;
}

/// The "metrics" object of the result line.
class Metrics {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json_.empty() ? "" : ", ", name, value, unit);
    json_ += buf;
  }

  /// Median over rounds of one per-round total.
  template <typename Field>
  void addPerRound(const char* name, const std::vector<Layers>& rounds,
                   Field field, double scale, const char* unit) {
    std::vector<double> values;
    for (const Layers& r : rounds) {
      values.push_back(scale * static_cast<double>(field(r)));
    }
    add(name, median(std::move(values)), unit);
  }

  [[nodiscard]] const std::string& json() const { return json_; }

 private:
  std::string json_;
};

int run(const Args& args) {
  const bool warm = args.workload == "warm";
  const std::vector<Problem> problems =
      args.workload == "sweep" ? sweepProblems() : paperProblems();
  pinToCurrentCore();

  // Set-up, repeated; the timed rounds of the warm workload read the
  // cache the last repetition filled. Every time below is scaled to the
  // reference speed.
  SpeedGauge gauge;
  constexpr int kSetupRepeats = 3;
  std::vector<double> setupSeconds;
  std::shared_ptr<cache::VerdictCache> shared;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (warm) shared = std::make_shared<cache::VerdictCache>();
    const auto start = Clock::now();
    const std::string error = setUp(problems, shared);
    setupSeconds.push_back(since(start) * gauge.next());
    if (!error.empty()) {
      std::fprintf(stderr, "perfbench_driver: set-up failed: %s\n",
                   error.c_str());
      return 1;
    }
  }

  Tracer tracer(args.trace);
  std::mt19937_64 rng(args.seed);
  std::vector<std::size_t> order(problems.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::vector<double>> latencies(problems.size());
  std::vector<Layers> rounds;
  int attempted = 0;
  int failed = 0;
  const auto begin = Clock::now();
  gauge.next();
  do {
    std::shuffle(order.begin(), order.end(), rng);
    Layers round;
    const int roundSpan = tracer.open("round", -1);
    for (const std::size_t idx : order) {
      const Problem& p = problems[idx];
      const int span = tracer.open(p.name, roundSpan);
      Sample s = runProblem(p, shared, tracer, span);
      tracer.close(span);
      const double speed = gauge.next();
      s.seconds *= speed;
      s.layers.scaleTimes(speed);
      if (warm && s.error.empty() && s.layers.cacheMisses != 0) {
        s.error = "the warm re-run missed the verdict cache";
      }
      ++attempted;
      if (!s.error.empty()) {
        ++failed;
        std::fprintf(stderr, "perfbench_driver: %s: %s\n", p.name.c_str(),
                     s.error.c_str());
      }
      latencies[idx].push_back(s.seconds);
      round.add(s.layers);
    }
    tracer.close(roundSpan);
    rounds.push_back(round);
  } while (since(begin) < args.seconds);

  // verdict_ms: the geometric mean over problems of each problem's median
  // time per verdict, so every problem weighs the same.
  double logSum = 0.0;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const double m = median(latencies[i]);
    const double verdicts = static_cast<double>(
        problems[i].synthesis ? 1 : problems[i].queries.size());
    logSum += std::log(m / verdicts);
    std::fprintf(stderr, "  %-18s %9.4f s  (median of %zu)\n",
                 problems[i].name.c_str(), m, latencies[i].size());
  }
  unsigned major = 0, minor = 0, build = 0, revision = 0;
  Z3_get_version(&major, &minor, &build, &revision);
  std::fprintf(stderr,
               "host: nproc=%u build=%s z3=%u.%u.%u reference=%.2f ms "
               "(scaled to %.2f ms); workload=%s seed=%llu rounds=%zu\n",
               std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
               major, minor, build, 1e3 * gauge.medianReference(),
               1e3 * SpeedGauge::kReferenceSeconds, args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), rounds.size());

  Metrics metrics;
  if (!args.trace) {
    rusage self{};
    ::getrusage(RUSAGE_SELF, &self);
    metrics.add("verdict_ms",
                1000.0 * std::exp(logSum / static_cast<double>(problems.size())),
                "ms");
    metrics.add("peak_rss_mb", static_cast<double>(self.ru_maxrss) / 1024.0,
                "MB");
    metrics.add("setup_s", median(setupSeconds), "s");
  } else {
    using L = const Layers&;
    metrics.addPerRound("front_ms", rounds, [](L r) { return r.front; }, 1e3, "ms");
    metrics.addPerRound("encode_ms", rounds, [](L r) { return r.encode; }, 1e3, "ms");
    metrics.addPerRound("cache_ms", rounds, [](L r) { return r.cache; }, 1e3, "ms");
    metrics.addPerRound("query_ms", rounds, [](L r) { return r.query; }, 1e3, "ms");
    metrics.addPerRound("solver_calls", rounds, [](L r) { return r.solverCalls; }, 1, "count");
    metrics.addPerRound("rlimit", rounds, [](L r) { return r.rlimit; }, 1, "count");
    metrics.addPerRound("term_nodes", rounds, [](L r) { return r.termNodes; }, 1, "count");
    metrics.addPerRound("opt_nodes", rounds, [](L r) { return r.optNodes; }, 1, "count");
    metrics.addPerRound("cache_hits", rounds, [](L r) { return r.cacheHits; }, 1, "count");
    metrics.addPerRound("cache_misses", rounds, [](L r) { return r.cacheMisses; }, 1, "count");
    metrics.addPerRound("prescreen_rejected", rounds, [](L r) { return r.prescreenRejected; }, 1, "count");
    std::filesystem::create_directories(kOutDir);
    const std::string path = std::string(kOutDir) + "/" + args.workload +
                             "-seed" + std::to_string(args.seed) +
                             "-trace.json";
    if (!tracer.write(path)) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s\n", path.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": "
      "{%s}}\n",
      failed == 0 ? "true" : "false", attempted, failed,
      metrics.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
