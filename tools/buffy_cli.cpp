// buffy — command-line driver for the Buffy framework.
//
//   buffy check    -T 6 --input ibs:6:3 --output ob \
//                  -D N=2 --workload fq.ibs.0:0:1 \
//                  --query "fq.cdeq.0[T-1] >= T-1" examples/models/fq_buggy.bfy
//   buffy verify   ... --query "..." model.bfy
//   buffy simulate -T 4 --arrive fq.ibs.0=1,0,1,1 model.bfy
//   buffy emit-smt2  ... --query "..." model.bfy
//   buffy emit-dafny -T 4 --input ibs model.bfy
//   buffy prove    --query "rr.cdeq.0[0] >= 0" model.bfy   (unbounded, CHC)
//   buffy synth    -T 4 ... --query "..." model.bfy  (workload synthesis)
//   buffy print    model.bfy            (parse + pretty-print)
//   buffy lint     model.bfy            (well-formedness + lint warnings)
//
// print and lint accept multiple model files; --jobs N compiles them in
// parallel (one CompilationUnit per file, each with its own AST arena).
// Output and diagnostics are emitted in input order whatever the job
// count, so `--jobs 4` is byte-identical to `--jobs 1`.
//
// Options:
//   -T N                  time horizon (default 4)
//   -D name=value         compile-time constant (repeatable)
//   --instance NAME       instance prefix (default: program name)
//   --input P[:cap[:max]] input buffer parameter (repeatable)
//   --output P[:cap]      output buffer parameter (repeatable)
//   --internal P[:cap]    internal buffer parameter (repeatable)
//   --model list|counter  buffer model precision (default list)
//   --workload B:lo:hi    per-step arrival-count bound for buffer B
//   --workload B@t:lo:hi  arrival-count bound at one step
//   --query EXPR          query over monitor series
//   --unroll              run the explicit loop unroller as well
//   --havoc-init          quantify over the initial queue contents
//   --backend NAME        back-end from the registry (DESIGN.md §11):
//                         z3 (default for check/verify), smtlib,
//                         interp (default for simulate), dafny (emit-only)
//   --stage-timings       report per-stage pipeline wall time/node counts
//   --sweep LO:HI         check/verify: answer every --query at every
//                         horizon in [LO, HI] (repeat --query to batch)
//   --shards N            --sweep: worker shards (default 1, max 1024);
//                         each shard reuses one engine per horizon
//   --threads N           synth: worker threads (default 1, max 1024)
//   --jobs N              print/lint: compile the given model files over N
//                         worker threads (default 1, max 1024);
//                         diagnostics stay in input order
//                         (each of these three, and --first-only and
//                         --no-prescreen, exits 2 outside its mode)
//   --isolate             --sweep: run each horizon's job in a
//                         crash-isolated `buffy --worker` subprocess with
//                         supervision — hung workers are killed at a
//                         deadline, crashed ones restarted and the job
//                         re-sent unchanged; a job that takes down the
//                         worker on every attempt reports an error, and
//                         jobs run in-process only when no worker can be
//                         spawned (DESIGN.md §13)
//   --retries N           --isolate: attempts after the first, each
//                         re-sending the same job (default 2, max 1024)
//   --first-only          synth: stop at the first solution
//   --no-prescreen        synth: disable concrete-interpreter prescreening
//   --timeout MS          solver timeout (default 120000; 0 means no
//                         timeout, and no --isolate deadline)
//   --rlimit N            Z3 resource limit per query (deterministic)
//   --max-memory MB       solver memory cap
//   --no-retry            disable the Unknown retry/escalation ladder
//   --no-replay           disable the witness-replay cross-check
//   --no-opt              disable the encoding optimizer (DESIGN.md §9)
//   --no-cache            disable the verdict cache (DESIGN.md §14); the
//                         in-memory tier is otherwise always on
//   --cache-dir DIR       persist cache records under DIR (shared across
//                         runs and processes; must already exist and be
//                         writable — validated before any work starts)
//   --cache-max-mb N      on-disk cache cap in MiB (1..1048576, needs
//                         --cache-dir); oldest records are evicted first
//   --cache-verify        re-validate witness-bearing cache hits by
//                         replaying the cached trace before trusting them
//   --full-trace          render every series (incl. packet fields)
//   --format table|csv|json  trace/result output format
//   --json                shorthand for --format json
//
// Resource governor (DESIGN.md §10; 0 disables a cap):
//   --max-depth N         statement/expression nesting depth of the
//                         model and of --query text
//   --max-expr-terms N    operator applications per statement
//   --max-ast-nodes N     AST nodes per parse
//   --max-unroll-stmts N  statements the loop unroller may emit
//   --max-inline-stmts N  statements the inliner may emit
//   --max-exec-stmts N    statements symbolically executed per time step
//   --max-term-nodes N    interned IR term nodes per encoding
//   --no-budget           disable every cap (pre-governor behavior)
//
// Exit codes (DESIGN.md §8, §10):
//   0  conclusive, nothing wrong (SATISFIABLE / UNSATISFIABLE / VERIFIED /
//      PROVED, or the command simply succeeded)
//   1  conclusive, property problem found (VIOLATED / WITNESS-MISMATCH)
//   2  usage or input error (bad flags, parse/type/analysis errors)
//   3  inconclusive: solver returned UNKNOWN after the retry ladder
//      (timeout / rlimit / memory budget exhausted)
//   4  internal error (solver crash, unexpected exception)
//   5  compile budget exceeded (unroll/inline bomb, term explosion, ...)
//   130  interrupted (SIGINT/SIGTERM): in-flight solves and proofs were
//        cancelled and a partial report with "status": "interrupted" (or,
//        for prove, UNKNOWN and "interrupted") was emitted
//
// Hidden modes/seams:
//   buffy --worker        serve serialized analysis jobs on stdin/stdout
//                         (spawned by --isolate's supervisor; not for
//                         interactive use)
//   --inject-fault [scope@]nth:kind[:param]
//                         deterministic fault injection; solver kinds
//                         unknown|throw|delay|corrupt-witness hit the nth
//                         solver check in scope, worker kinds crash|hang|
//                         garble|partial hit the job whose retry attempt
//                         ordinal is nth in scope (DESIGN.md §8, §13)
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <fstream>
#include <sstream>

#include "cache/verdict_cache.hpp"

#include "backends/chc/chc_backend.hpp"
#include "backends/dafny/dafny_emitter.hpp"
#include "backends/registry.hpp"
#include "core/analysis.hpp"
#include "core/sweep.hpp"
#include "core/workload.hpp"
#include "lang/printer.hpp"
#include "procs/shutdown.hpp"
#include "procs/supervisor.hpp"
#include "procs/worker.hpp"
#include "synth/synthesizer.hpp"
#include "pipeline/driver.hpp"
#include "support/budget.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

using namespace buffy;

namespace {

struct CliError : Error {
  using Error::Error;
};

// Exit codes, see file header.
constexpr int kExitOk = 0;
constexpr int kExitViolation = 1;
constexpr int kExitUsage = 2;
constexpr int kExitUnknown = 3;
constexpr int kExitInternal = 4;
constexpr int kExitBudget = 5;
/// 128 + SIGINT, the shell convention for an interrupted job.
constexpr int kExitInterrupted = 130;

int exitCodeFor(core::Verdict verdict) {
  switch (verdict) {
    case core::Verdict::Satisfiable:
    case core::Verdict::Unsatisfiable:
    case core::Verdict::Verified:
      return kExitOk;
    case core::Verdict::Violated:
    case core::Verdict::WitnessMismatch:
      return kExitViolation;
    case core::Verdict::Unknown:
      return kExitUnknown;
  }
  return kExitInternal;
}

struct Options {
  std::string command;
  std::string file;
  /// Every model file in argument order (print/lint accept several; the
  /// other commands take exactly one — `file` is always files.front()).
  std::vector<std::string> files;
  /// --jobs: parallel compile workers for multi-file print/lint (1 when
  /// not given).
  std::optional<std::size_t> jobs;
  int horizon = 4;
  std::map<std::string, std::int64_t> constants;
  std::string instance;
  std::vector<core::BufferSpec> buffers;
  buffers::ModelKind model = buffers::ModelKind::List;
  std::vector<std::string> workloads;
  std::map<std::string, std::vector<int>> arrivals;  // buffer -> counts
  std::string query;
  /// Every --query in order (--sweep batches them; other commands take
  /// exactly one).
  std::vector<std::string> queries;
  /// --sweep LO:HI horizon range.
  std::optional<std::pair<int, int>> sweep;
  /// --shards for the sweep's JobPool (1 when not given).
  std::optional<std::size_t> shards;
  /// --threads: synth's worker threads (1 when not given).
  std::optional<int> threads;
  /// --isolate: run sweep horizons in supervised `buffy --worker`
  /// subprocesses (DESIGN.md §13).
  bool isolate = false;
  /// --retries: worker attempts after the first (--isolate only).
  unsigned retries = 2;
  bool retriesSet = false;
  /// synth: --first-only / --no-prescreen.
  bool firstOnly = false;
  bool noPrescreen = false;
  bool unroll = false;
  bool fullTrace = false;
  bool havocInit = false;
  /// Back-end registry name (--backend); empty picks the command default
  /// (z3 for check/verify, interp for simulate).
  std::string backend;
  /// Report per-stage pipeline accounting (--stage-timings).
  bool stageTimings = false;
  std::string format = "table";  // table|csv|json
  unsigned timeoutMs = 120000;
  std::optional<unsigned> rlimit;
  std::optional<unsigned> maxMemoryMb;
  bool noRetry = false;
  bool noReplay = false;
  bool noOpt = false;
  /// Verdict cache (DESIGN.md §14): --no-cache disables both tiers,
  /// --cache-dir adds the persistent disk tier (validated at parse time),
  /// --cache-max-mb caps it, --cache-verify replays cached witnesses
  /// before trusting a hit.
  bool noCache = false;
  std::string cacheDir;
  std::uint64_t cacheMaxMb = 0;
  bool cacheVerify = false;
  /// Hidden test seam (--inject-fault nth:kind[:param]): deterministic
  /// fault injection so the resilience exit paths are testable end-to-end.
  std::vector<std::string> injectFaults;
  /// Resource governor (--max-* flags); defaults are generous enough for
  /// every legitimate model, tight enough to stop compile bombs.
  CompileBudget budget;
};

void usage() {
  std::puts(
      "usage: buffy "
      "<check|verify|prove|synth|simulate|emit-smt2|emit-dafny|print|lint> "
      "[options] model.bfy\nsee tools/buffy_cli.cpp header for the option "
      "list");
}

/// Type ceilings for the solver-budget and --max-* flags, so every value
/// the field can hold stays accepted.
constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t kSizeMax = std::numeric_limits<std::size_t>::max();

/// Strict bounded parser for count-shaped flags (--shards, --timeout,
/// --max-*, --inject-fault's nth, ...): rejects non-numeric text,
/// negatives, trailing junk, and out-of-range values with a usage error
/// naming the flag and its range. (std::stoull silently wrapped "-1" into
/// eighteen quintillion shards.)
std::uint64_t parseCount(const char* flag, const std::string& text,
                         std::uint64_t lo, std::uint64_t hi) {
  const auto reject = [&]() -> CliError {
    return CliError(std::string(flag) + " expects an integer in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) +
                    "], got '" + text + "'");
  };
  if (text.empty() || text[0] == '-' || text[0] == '+') throw reject();
  std::uint64_t value = 0;
  try {
    std::size_t used = 0;
    value = std::stoull(text, &used);
    if (used != text.size()) throw reject();
  } catch (const CliError&) {
    throw;
  } catch (const std::exception&) {
    throw reject();
  }
  if (value < lo || value > hi) throw reject();
  return value;
}

core::BufferSpec parseBufferArg(const std::string& arg,
                                core::BufferSpec::Role role) {
  const auto pieces = split(arg, ':');
  core::BufferSpec spec;
  spec.param = pieces.at(0);
  spec.role = role;
  if (pieces.size() > 1) spec.capacity = std::stoi(pieces[1]);
  if (pieces.size() > 2) spec.maxArrivalsPerStep = std::stoi(pieces[2]);
  if (pieces.size() > 3) throw CliError("bad buffer spec: " + arg);
  return spec;
}

Options parseArgs(int argc, char** argv) {
  Options opts;
  if (argc < 2) throw CliError("missing command");
  opts.command = argv[1];
  const std::set<std::string> known = {"check",      "verify", "simulate",
                                       "emit-smt2",  "prove",  "emit-dafny",
                                       "print",      "lint",   "synth"};
  if (known.count(opts.command) == 0) {
    throw CliError("unknown command '" + opts.command + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw CliError("missing value after " + arg);
      return argv[++i];
    };
    // Budget-shaped values: 0 is accepted (for the --max-* caps it means
    // unlimited), the ceiling is the field's type max.
    auto count = [&](std::uint64_t hi) {
      return parseCount(arg.c_str(), next(), 0, hi);
    };
    if (arg == "-T") {
      opts.horizon = std::stoi(next());
    } else if (arg == "-D") {
      const auto kv = split(next(), '=');
      if (kv.size() != 2) throw CliError("-D expects name=value");
      opts.constants[kv[0]] = std::stoll(kv[1]);
    } else if (arg == "--instance") {
      opts.instance = next();
    } else if (arg == "--input") {
      opts.buffers.push_back(
          parseBufferArg(next(), core::BufferSpec::Role::Input));
    } else if (arg == "--output") {
      opts.buffers.push_back(
          parseBufferArg(next(), core::BufferSpec::Role::Output));
    } else if (arg == "--internal") {
      opts.buffers.push_back(
          parseBufferArg(next(), core::BufferSpec::Role::Internal));
    } else if (arg == "--model") {
      const std::string value = next();
      if (value == "list") {
        opts.model = buffers::ModelKind::List;
      } else if (value == "counter") {
        opts.model = buffers::ModelKind::Counter;
      } else {
        throw CliError("--model expects list|counter");
      }
    } else if (arg == "--workload") {
      opts.workloads.push_back(next());
    } else if (arg == "--arrive") {
      const auto kv = split(next(), '=');
      if (kv.size() != 2) throw CliError("--arrive expects buf=n0,n1,...");
      std::vector<int> counts;
      for (const auto& n : split(kv[1], ',')) {
        counts.push_back(static_cast<int>(
            parseCount("--arrive", n, 0, std::numeric_limits<int>::max())));
      }
      opts.arrivals[kv[0]] = std::move(counts);
    } else if (arg == "--query") {
      opts.queries.push_back(next());
    } else if (arg == "--sweep") {
      const auto range = split(next(), ':');
      if (range.size() != 2) throw CliError("--sweep expects LO:HI");
      opts.sweep = {std::stoi(range[0]), std::stoi(range[1])};
    } else if (arg == "--shards") {
      opts.shards = static_cast<std::size_t>(
          parseCount("--shards", next(), 1, 1024));
    } else if (arg == "--threads") {
      opts.threads =
          static_cast<int>(parseCount("--threads", next(), 1, 1024));
    } else if (arg == "--jobs") {
      opts.jobs =
          static_cast<std::size_t>(parseCount("--jobs", next(), 1, 1024));
    } else if (arg == "--isolate") {
      opts.isolate = true;
    } else if (arg == "--retries") {
      opts.retries =
          static_cast<unsigned>(parseCount("--retries", next(), 0, 1024));
      opts.retriesSet = true;
    } else if (arg == "--first-only") {
      opts.firstOnly = true;
    } else if (arg == "--no-prescreen") {
      opts.noPrescreen = true;
    } else if (arg == "--unroll") {
      opts.unroll = true;
    } else if (arg == "--havoc-init") {
      opts.havocInit = true;
    } else if (arg == "--backend") {
      opts.backend = next();
    } else if (arg == "--stage-timings") {
      opts.stageTimings = true;
    } else if (arg == "--json") {
      opts.format = "json";
    } else if (arg == "--format") {
      opts.format = next();
      if (opts.format != "table" && opts.format != "csv" &&
          opts.format != "json") {
        throw CliError("--format expects table|csv|json");
      }
    } else if (arg == "--full-trace") {
      opts.fullTrace = true;
    } else if (arg == "--timeout") {
      opts.timeoutMs = static_cast<unsigned>(count(kUnsignedMax));
    } else if (arg == "--rlimit") {
      opts.rlimit = static_cast<unsigned>(count(kUnsignedMax));
    } else if (arg == "--max-memory") {
      opts.maxMemoryMb = static_cast<unsigned>(count(kUnsignedMax));
    } else if (arg == "--no-retry") {
      opts.noRetry = true;
    } else if (arg == "--no-replay") {
      opts.noReplay = true;
    } else if (arg == "--no-opt") {
      opts.noOpt = true;
    } else if (arg == "--no-cache") {
      opts.noCache = true;
    } else if (arg == "--cache-dir") {
      // Validated here, before any compile/solve work: a typo'd or
      // read-only directory is a usage error (exit 2), not a silent
      // cold-path run that throws results away.
      opts.cacheDir = next();
      struct stat st {};
      if (::stat(opts.cacheDir.c_str(), &st) != 0 ||
          !S_ISDIR(st.st_mode)) {
        throw CliError("--cache-dir: not an existing directory: " +
                       opts.cacheDir);
      }
      if (::access(opts.cacheDir.c_str(), W_OK | X_OK) != 0) {
        throw CliError("--cache-dir: directory is not writable: " +
                       opts.cacheDir);
      }
    } else if (arg == "--cache-max-mb") {
      opts.cacheMaxMb = parseCount("--cache-max-mb", next(), 1, 1048576);
    } else if (arg == "--cache-verify") {
      opts.cacheVerify = true;
    } else if (arg == "--inject-fault") {
      opts.injectFaults.push_back(next());
    } else if (arg == "--max-depth") {
      opts.budget.maxNestingDepth = count(kSizeMax);
    } else if (arg == "--max-expr-terms") {
      opts.budget.maxExprTerms = count(kSizeMax);
    } else if (arg == "--max-ast-nodes") {
      opts.budget.maxAstNodes = count(kSizeMax);
    } else if (arg == "--max-unroll-stmts") {
      opts.budget.maxUnrolledStmts = count(kSizeMax);
    } else if (arg == "--max-inline-stmts") {
      opts.budget.maxInlinedStmts = count(kSizeMax);
    } else if (arg == "--max-exec-stmts") {
      opts.budget.maxExecStmts = count(kSizeMax);
    } else if (arg == "--max-term-nodes") {
      opts.budget.maxTermNodes = count(kSizeMax);
    } else if (arg == "--no-budget") {
      opts.budget = CompileBudget::unlimited();
    } else if (arg == "-h" || arg == "--help") {
      usage();
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      throw CliError("unknown option " + arg);
    } else {
      opts.files.push_back(arg);
    }
  }
  if (opts.files.empty()) throw CliError("missing model file");
  opts.file = opts.files.front();
  if (opts.files.size() > 1 && opts.command != "print" &&
      opts.command != "lint") {
    throw CliError("multiple model files need print or lint");
  }
  if (!opts.queries.empty()) opts.query = opts.queries.front();
  if (opts.queries.size() > 1 && !opts.sweep) {
    throw CliError("multiple --query flags need --sweep");
  }
  if (opts.sweep && opts.command != "check" && opts.command != "verify") {
    throw CliError("--sweep applies to check/verify only");
  }
  if (opts.shards && !opts.sweep) {
    throw CliError("--shards needs --sweep");
  }
  if (opts.threads && opts.command != "synth") {
    throw CliError("--threads needs synth");
  }
  if (opts.jobs && opts.command != "print" && opts.command != "lint") {
    throw CliError("--jobs needs print or lint");
  }
  if (opts.firstOnly && opts.command != "synth") {
    throw CliError("--first-only needs synth");
  }
  if (opts.noPrescreen && opts.command != "synth") {
    throw CliError("--no-prescreen needs synth");
  }
  if (opts.isolate && !opts.sweep) {
    throw CliError("--isolate needs --sweep");
  }
  if (opts.retriesSet && !opts.isolate) {
    throw CliError("--retries needs --isolate");
  }
  if (opts.noCache && (!opts.cacheDir.empty() || opts.cacheMaxMb != 0 ||
                       opts.cacheVerify)) {
    throw CliError("--no-cache conflicts with the other --cache-* flags");
  }
  if (opts.cacheMaxMb != 0 && opts.cacheDir.empty()) {
    throw CliError("--cache-max-mb needs --cache-dir");
  }
  return opts;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw CliError("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Builds the workload for one horizon through the shared spec parser
/// (core::workloadFromSpecs) — the same function the `buffy --worker`
/// loop runs, so both sides of an --isolate boundary build byte-identical
/// assumptions from the same --workload strings.
core::Workload buildWorkloadAt(const Options& opts, int horizon) {
  return core::workloadFromSpecs(opts.workloads, horizon);
}

core::Workload buildWorkload(const Options& opts) {
  return buildWorkloadAt(opts, opts.horizon);
}

void printTrace(const Options& opts, const core::Trace& trace) {
  if (opts.format == "csv") {
    std::fputs(trace.toCsv().c_str(), stdout);
  } else if (opts.format == "json") {
    std::fputs(trace.toJson().c_str(), stdout);
    std::fputs("\n", stdout);
  } else {
    std::fputs(trace.render(opts.fullTrace).c_str(), stdout);
  }
}

/// --inject-fault [scope@]nth:kind[:param]. Solver kinds unknown|throw|
/// delay|corrupt-witness (param: reason text, or delay in ms) hit the nth
/// solver check in scope. Worker kinds crash|hang|garble|partial are
/// interpreted by the `buffy --worker` loop instead, keyed on the job's
/// retry attempt ordinal: "sweep:h3@0:crash" crashes the worker that takes
/// horizon 3's first attempt; "sweep:h3@0:hang" hangs it until the
/// supervisor's deadline kill. Faults land in the empty scope — the one
/// plain Analysis queries run in — unless a scope@ prefix targets a named
/// scope (sweep horizons run under "sweep:h<T>", so "sweep:h3@0:delay:50"
/// delays horizon 3's first solver call).
backends::FaultPlanPtr buildFaultPlan(const Options& opts) {
  if (opts.injectFaults.empty()) return nullptr;
  auto plan = std::make_shared<backends::FaultPlan>();
  for (const auto& full : opts.injectFaults) {
    std::string scope;
    std::string spec = full;
    const auto scoped = split(full, '@');
    if (scoped.size() == 2) {
      scope = scoped[0];
      spec = scoped[1];
    } else if (scoped.size() > 2) {
      throw CliError("bad --inject-fault spec: " + full);
    }
    const auto pieces = split(spec, ':');
    if (pieces.size() < 2 || pieces.size() > 3) {
      throw CliError("bad --inject-fault spec: " + spec);
    }
    const auto nth = static_cast<std::size_t>(
        parseCount("--inject-fault nth", pieces[0], 0, kSizeMax));
    backends::FaultAction action;
    if (pieces[1] == "unknown") {
      action.kind = backends::FaultAction::Kind::ForceUnknown;
      action.reason = pieces.size() > 2 ? pieces[2] : "injected timeout";
    } else if (pieces[1] == "throw") {
      action.kind = backends::FaultAction::Kind::Throw;
      if (pieces.size() > 2) action.reason = pieces[2];
    } else if (pieces[1] == "delay") {
      action.kind = backends::FaultAction::Kind::Delay;
      action.delayMs =
          pieces.size() > 2
              ? static_cast<unsigned>(parseCount(
                    "--inject-fault delay", pieces[2], 0, kUnsignedMax))
              : 10;
    } else if (pieces[1] == "corrupt-witness") {
      action.kind = backends::FaultAction::Kind::CorruptWitness;
    } else if (pieces[1] == "crash") {
      action.kind = backends::FaultAction::Kind::CrashBeforeReply;
    } else if (pieces[1] == "hang") {
      action.kind = backends::FaultAction::Kind::Hang;
    } else if (pieces[1] == "garble") {
      action.kind = backends::FaultAction::Kind::GarbledFrame;
    } else if (pieces[1] == "partial") {
      action.kind = backends::FaultAction::Kind::PartialWrite;
    } else {
      throw CliError("bad --inject-fault kind: " + pieces[1]);
    }
    plan->at(scope, nth, action);
  }
  return plan;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Renders the supervisor's cumulative accounting as one JSON object —
/// the ops counters --isolate promises (spawns/reaps for the zero-orphan
/// check, restarts, retries, kills, protocol errors, degradations).
std::string procsJson(const procs::ProcsStats& s) {
  std::string json = "{\"jobs\":" + std::to_string(s.jobs);
  json += ",\"workersSpawned\":" + std::to_string(s.workersSpawned);
  json += ",\"workersReaped\":" + std::to_string(s.workersReaped);
  json += ",\"restarts\":" + std::to_string(s.restarts);
  json += ",\"retries\":" + std::to_string(s.retries);
  json += ",\"kills\":" + std::to_string(s.kills);
  json += ",\"protocolErrors\":" + std::to_string(s.protocolErrors);
  json += ",\"degradedJobs\":" + std::to_string(s.degradedJobs);
  json += ",\"degraded\":";
  json += s.degraded ? "true" : "false";
  json += "}";
  return json;
}

/// A sweep point's crash-isolation keys; nothing on the in-process path.
std::string isolationJson(const std::optional<procs::JobStats>& s) {
  if (!s) return "";
  std::string json = ",\"isolated\":true";
  json += ",\"retries\":" + std::to_string(s->retries);
  json += ",\"restarts\":" + std::to_string(s->restarts);
  json += ",\"kills\":" + std::to_string(s->kills);
  json += ",\"degraded\":";
  json += s->degraded ? "true" : "false";
  return json;
}

/// One human-readable supervision line for the text report (the
/// --stage-timings table's process-level sibling).
void printProcsStats(const procs::ProcsStats& s) {
  std::printf("  procs: %llu job(s), %llu worker(s) spawned/%llu reaped, "
              "%llu restart(s), %llu retrie(s), %llu kill(s), "
              "%llu degraded%s\n",
              static_cast<unsigned long long>(s.jobs),
              static_cast<unsigned long long>(s.workersSpawned),
              static_cast<unsigned long long>(s.workersReaped),
              static_cast<unsigned long long>(s.restarts),
              static_cast<unsigned long long>(s.retries),
              static_cast<unsigned long long>(s.kills),
              static_cast<unsigned long long>(s.degradedJobs),
              s.degraded ? " [supervisor degraded]" : "");
}

/// Renders the verdict cache's cumulative counters as one JSON object —
/// the accounting the cache promises (DESIGN.md §14): hits/misses/stores
/// across every query the run issued, evictions from either tier,
/// validation failures (corrupt or stale records that fell back cold),
/// and the cache's directly attributed CPU cost: `clientCpuSeconds`, the
/// engine's probe windows (key derivation, lookups, record decode) and
/// store windows (record encode, store), and `writerCpuSeconds`, the
/// write-behind thread's I/O.
std::string cacheJson(const cache::CacheStats& s) {
  char cpu[96];
  std::snprintf(cpu, sizeof cpu,
                ",\"clientCpuSeconds\":%.6f,\"writerCpuSeconds\":%.6f",
                s.clientSeconds, s.writerSeconds);
  std::string json = "{\"hits\":" + std::to_string(s.hits);
  json += ",\"misses\":" + std::to_string(s.misses);
  json += ",\"stores\":" + std::to_string(s.stores);
  json += ",\"evictions\":" + std::to_string(s.evictions);
  json += ",\"validationFailures\":" + std::to_string(s.validationFailures);
  json += cpu;
  json += "}";
  return json;
}

/// One human-readable cache line for the text report (gated like the
/// procs line: --stage-timings, or something actually happened).
void printCacheStats(const cache::CacheStats& s) {
  std::printf("  cache: %llu hit(s), %llu miss(es), %llu store(s), "
              "%llu eviction(s), %llu validation failure(s)\n",
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              static_cast<unsigned long long>(s.stores),
              static_cast<unsigned long long>(s.evictions),
              static_cast<unsigned long long>(s.validationFailures));
}

/// Renders a check/verify result and returns the process exit code. The
/// json format carries the full resilience story (verdict, exit code,
/// attempt log, trace) in one machine-readable object. A run cut short by
/// SIGINT/SIGTERM reports "status":"interrupted" (the caller then exits
/// 130 regardless of the verdict's own code).
int reportResult(const Options& opts, const core::AnalysisResult& result,
                 const cache::VerdictCache* cache) {
  const int code = exitCodeFor(result.verdict);
  if (opts.format == "json") {
    std::string json = "{\"verdict\":\"";
    json += core::verdictName(result.verdict);
    json += "\",\"exitCode\":" + std::to_string(code);
    if (procs::shutdownRequested()) {
      json += ",\"status\":\"interrupted\"";
    }
    char secs[32];
    std::snprintf(secs, sizeof secs, "%.6f", result.solveSeconds);
    json += ",\"solveSeconds\":";
    json += secs;
    json += ",\"canceled\":";
    json += result.canceled ? "true" : "false";
    json += ",\"witnessChecked\":";
    json += result.witnessChecked ? "true" : "false";
    json += ",\"cached\":";
    json += result.cached ? "true" : "false";
    if (!result.cacheKey.empty()) {
      json += ",\"cacheKey\":\"" + jsonEscape(result.cacheKey) + "\"";
    }
    if (!result.detail.empty()) {
      json += ",\"detail\":\"" + jsonEscape(result.detail) + "\"";
    }
    json += ",\"attempts\":[";
    for (std::size_t i = 0; i < result.attempts.size(); ++i) {
      const auto& a = result.attempts[i];
      if (i > 0) json += ",";
      json += "{\"stage\":\"" + jsonEscape(a.stage) + "\",\"outcome\":\"" +
              jsonEscape(a.outcome) + "\",\"solver\":\"" +
              jsonEscape(a.solver) + "\"";
      if (!a.reason.empty()) {
        json += ",\"reason\":\"" + jsonEscape(a.reason) + "\"";
      }
      std::snprintf(secs, sizeof secs, "%.6f", a.seconds);
      json += ",\"seconds\":";
      json += secs;
      std::snprintf(secs, sizeof secs, "%.6f", a.setupSeconds);
      json += ",\"setupSeconds\":";
      json += secs;
      json += ",\"setupNodes\":" + std::to_string(a.setupNodes);
      json += ",\"rlimitUsed\":" + std::to_string(a.rlimitUsed);
      json += ",\"visited\":" + std::to_string(a.visited);
      json += ",\"memoHits\":" + std::to_string(a.memoHits);
      json += ",\"deadEntries\":" + std::to_string(a.deadEntries);
      json += ",\"liveWidth\":" + std::to_string(a.liveWidth);
      json += ",\"saturated\":" + std::to_string(a.saturated);
      if (a.seed) json += ",\"seed\":" + std::to_string(*a.seed);
      if (a.timeoutMs) {
        json += ",\"timeoutMs\":" + std::to_string(*a.timeoutMs);
      }
      json += "}";
    }
    json += "]";
    if (cache != nullptr) {
      json += ",\"cache\":" + cacheJson(cache->stats());
    }
    if (opts.stageTimings && !result.pipeline.empty()) {
      json += ",\"pipeline\":" + result.pipeline.toJson();
    }
    if (result.opt) {
      const auto& o = *result.opt;
      json += ",\"opt\":{";
      json += "\"nodesBefore\":" + std::to_string(o.nodesBefore);
      json += ",\"nodesAfter\":" + std::to_string(o.nodesAfter);
      json += ",\"assertionsBefore\":" + std::to_string(o.assertionsBefore);
      json += ",\"assertionsAfter\":" + std::to_string(o.assertionsAfter);
      json += ",\"assertionsSliced\":" + std::to_string(o.assertionsSliced);
      json +=
          ",\"comparisonsDecided\":" + std::to_string(o.comparisonsDecided);
      json += ",\"itesCollapsed\":" + std::to_string(o.itesCollapsed);
      json += ",\"passes\":[";
      for (std::size_t i = 0; i < o.passes.size(); ++i) {
        if (i > 0) json += ",";
        std::snprintf(secs, sizeof secs, "%.6f", o.passes[i].seconds);
        json += "{\"pass\":\"" + jsonEscape(o.passes[i].pass) +
                "\",\"seconds\":";
        json += secs;
        json += "}";
      }
      json += "]}";
    }
    if (result.trace) {
      std::string trace = result.trace->toJson();
      while (!trace.empty() && (trace.back() == '\n' || trace.back() == ' ')) {
        trace.pop_back();
      }
      json += ",\"trace\":" + trace;
    }
    json += "}\n";
    std::fputs(json.c_str(), stdout);
    return code;
  }

  std::printf("%s (%.3f s)%s\n", core::verdictName(result.verdict),
              result.solveSeconds, result.cached ? " [cached]" : "");
  if (procs::shutdownRequested()) std::printf("  interrupted\n");
  if (!result.detail.empty()) std::printf("  %s\n", result.detail.c_str());
  if (cache != nullptr) {
    const cache::CacheStats cs = cache->stats();
    if (opts.stageTimings || cs.hits > 0 || cs.validationFailures > 0) {
      printCacheStats(cs);
    }
  }
  if (opts.stageTimings && !result.pipeline.empty()) {
    std::printf("  pipeline:\n%s", result.pipeline.render().c_str());
  }
  if (result.opt) {
    std::printf("  opt: %zu -> %zu nodes, %zu -> %zu assertions"
                " (%zu sliced)\n",
                result.opt->nodesBefore, result.opt->nodesAfter,
                result.opt->assertionsBefore, result.opt->assertionsAfter,
                result.opt->assertionsSliced);
  }
  if (result.attempts.size() > 1) {
    for (const auto& a : result.attempts) {
      std::printf("  attempt %-8s %s%s%s%s (%.3f s)\n", a.stage.c_str(),
                  a.outcome.c_str(), a.reason.empty() ? "" : " [",
                  a.reason.c_str(), a.reason.empty() ? "" : "]", a.seconds);
    }
  }
  if (result.trace) printTrace(opts, *result.trace);
  return code;
}

/// Exit severity for one sweep point. The sweep's exit code is the worst
/// point: violation(1) > error(4) > unknown(3) > ok(0).
int sweepPointCode(const std::string& verdict) {
  if (verdict == "VIOLATED" || verdict == "WITNESS-MISMATCH") {
    return kExitViolation;
  }
  if (verdict.rfind("error", 0) == 0) return kExitInternal;
  if (verdict == "UNKNOWN" || verdict.empty()) return kExitUnknown;
  return kExitOk;
}

/// One RFC 4180 field: quoted, with inner quotes doubled, when it holds a
/// comma, a quote or a line break; verbatim otherwise.
std::string csvField(const std::string& text) {
  if (text.find_first_of(",\"\r\n") == std::string::npos) return text;
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + '"';
}

int reportSweep(const Options& opts, const core::SweepResult& result,
                const procs::ProcsStats* stats = nullptr,
                const cache::VerdictCache* cache = nullptr) {
  int code = kExitOk;
  auto rank = [](int c) {  // severity order, not numeric order
    switch (c) {
      case kExitViolation: return 3;
      case kExitInternal: return 2;
      case kExitUnknown: return 1;
      default: return 0;
    }
  };
  for (const auto& p : result.points) {
    const int c = sweepPointCode(p.verdict);
    if (rank(c) > rank(code)) code = c;
  }

  if (opts.format == "json") {
    char secs[32];
    std::string json = "{\"sweep\":{\"shards\":" + std::to_string(result.shards);
    std::snprintf(secs, sizeof secs, "%.6f", result.seconds);
    json += ",\"seconds\":";
    json += secs;
    json += ",\"exitCode\":" + std::to_string(code);
    if (procs::shutdownRequested()) {
      json += ",\"status\":\"interrupted\"";
    }
    if (stats != nullptr) {
      json += ",\"procs\":" + procsJson(*stats);
    }
    if (cache != nullptr) {
      json += ",\"cache\":" + cacheJson(cache->stats());
    }
    json += ",\"points\":[";
    for (std::size_t i = 0; i < result.points.size(); ++i) {
      const auto& p = result.points[i];
      if (i > 0) json += ",";
      json += "{\"horizon\":" + std::to_string(p.horizon);
      json += ",\"query\":\"" + jsonEscape(p.query) + "\"";
      json += ",\"verdict\":\"" + jsonEscape(p.verdict) + "\"";
      std::snprintf(secs, sizeof secs, "%.6f", p.solveSeconds);
      json += ",\"solveSeconds\":";
      json += secs;
      json += ",\"canceled\":";
      json += p.canceled ? "true" : "false";
      json += ",\"cached\":";
      json += p.cached ? "true" : "false";
      json += ",\"shard\":" + std::to_string(p.shard);
      json += isolationJson(p.isolation);
      json += "}";
    }
    json += "]}}\n";
    std::fputs(json.c_str(), stdout);
    return code;
  }
  if (opts.format == "csv") {
    std::puts("horizon,query,verdict,solveSeconds,canceled,shard");
    for (const auto& p : result.points) {
      std::printf("%d,%s,%s,%.6f,%d,%zu\n", p.horizon,
                  csvField(p.query).c_str(), csvField(p.verdict).c_str(),
                  p.solveSeconds, p.canceled ? 1 : 0, p.shard);
    }
    return code;
  }
  std::printf("sweep: %zu points, %zu shard(s) (%.3f s)%s\n",
              result.points.size(), result.shards, result.seconds,
              procs::shutdownRequested() ? " [interrupted]" : "");
  for (const auto& p : result.points) {
    std::printf("  T=%-3d %-16s (%.3f s)%s  %s\n", p.horizon,
                p.verdict.c_str(), p.solveSeconds,
                p.cached ? " [cached]" : "", p.query.c_str());
  }
  if (stats != nullptr && (opts.stageTimings || stats->jobs > 0)) {
    printProcsStats(*stats);
  }
  if (cache != nullptr) {
    const cache::CacheStats cs = cache->stats();
    if (opts.stageTimings || cs.hits > 0 || cs.validationFailures > 0) {
      printCacheStats(cs);
    }
  }
  return code;
}

int reportSynth(const Options& opts, const synth::SynthesisResult& result) {
  const int code = result.solutions.empty() ? kExitViolation : kExitOk;
  if (opts.format == "json") {
    char secs[32];
    std::string json = "{\"synth\":{\"summary\":\"" +
                       jsonEscape(result.summary()) + "\"";
    json += ",\"candidatesChecked\":" + std::to_string(result.candidatesChecked);
    json += ",\"solved\":" + std::to_string(result.solvedCount);
    json += ",\"unknown\":" + std::to_string(result.unknownCount);
    json += ",\"failed\":" + std::to_string(result.failedCount);
    json += ",\"prescreenRejected\":" + std::to_string(result.prescreenRejected);
    json +=
        ",\"prescreenWitnessed\":" + std::to_string(result.prescreenWitnessed);
    json +=
        ",\"prescreenCacheHits\":" + std::to_string(result.prescreenCacheHits);
    std::snprintf(secs, sizeof secs, "%.6f", result.totalSeconds);
    json += ",\"seconds\":";
    json += secs;
    json += ",\"exitCode\":" + std::to_string(code);
    json += ",\"solutions\":[";
    for (std::size_t i = 0; i < result.solutions.size(); ++i) {
      if (i > 0) json += ",";
      json += "\"" + jsonEscape(result.solutions[i].describe()) + "\"";
    }
    json += "],\"failures\":[";
    for (std::size_t i = 0; i < result.failures.size(); ++i) {
      if (i > 0) json += ",";
      json += "\"" + jsonEscape(result.failures[i].describe()) + "\"";
    }
    json += "]}}\n";
    std::fputs(json.c_str(), stdout);
    return code;
  }
  std::printf("%s\n", result.summary().c_str());
  for (const auto& s : result.solutions) {
    std::printf("  solution: %s\n", s.describe().c_str());
  }
  for (const auto& f : result.failures) {
    std::printf("  failure: %s\n", f.describe().c_str());
  }
  return code;
}

lang::CompileOptions compileOptionsFor(const Options& opts) {
  lang::CompileOptions copts;
  copts.constants = opts.constants;
  if (opts.constants.count("N") != 0) {
    copts.defaultListCapacity =
        std::max<int>(2, static_cast<int>(opts.constants.at("N")));
  }
  return copts;
}

/// The FrontMode the CompilerDriver runs for each command (DESIGN.md §11):
/// print needs only the elaborated AST, emit-dafny the transformed one,
/// lint the semantic passes, everything else the full Analyze front half.
pipeline::FrontMode frontModeFor(const Options& opts) {
  if (opts.command == "print") {
    return opts.unroll ? pipeline::FrontMode::Emit : pipeline::FrontMode::Front;
  }
  if (opts.command == "emit-dafny") return pipeline::FrontMode::Emit;
  if (opts.command == "lint") return pipeline::FrontMode::Lint;
  if (opts.command == "prove") return pipeline::FrontMode::Front;
  return pipeline::FrontMode::Analyze;
}

/// Resolves --backend against the registry: empty picks the command
/// default, unknown names and missing capabilities are usage errors.
backends::SolverBackend& backendFor(const Options& opts,
                                    const std::string& fallback) {
  const std::string name = opts.backend.empty() ? fallback : opts.backend;
  backends::SolverBackend* backend =
      backends::BackendRegistry::instance().find(name);
  if (backend == nullptr) {
    std::string known;
    for (const auto& n : backends::BackendRegistry::instance().names()) {
      if (!known.empty()) known += "|";
      known += n;
    }
    throw CliError("unknown backend '" + name + "' (known: " + known + ")");
  }
  return *backend;
}

/// --sweep runs the z3 engine (a shard answers every query at its horizon
/// through one engine), so any other --backend is a usage error rather
/// than silently ignored. The reason is named so the exit-2 diagnostic is
/// actionable.
void requireZ3Engine(const Options& opts) {
  const backends::SolverBackend& backend = backendFor(opts, "z3");
  const std::string name = backend.name();
  if (!backend.capabilities().solve) {
    throw CliError("--sweep: backend '" + name +
                   "' cannot solve queries (use z3)");
  }
  if (name != "z3") {
    throw CliError("--sweep: runs the z3 engine only, not '" + name +
                   "' (use z3)");
  }
}

/// Multi-file print/lint: one Network per file compiled through
/// CompilerDriver::compileAll over a --jobs-wide pool. Each file gets its
/// own CompilationUnit (own AST arena) and DiagnosticEngine; output is
/// rendered by input index, so the bytes do not depend on the job count.
int runMultiFile(const Options& opts) {
  pipeline::PipelineOptions popts;
  popts.horizon = opts.horizon;
  popts.model = opts.model;
  popts.unrollLoops = opts.unroll;
  popts.symbolicInitialState = opts.havocInit;
  popts.budget = opts.budget;

  std::vector<core::Network> networks;
  networks.reserve(opts.files.size());
  for (const auto& file : opts.files) {
    core::ProgramSpec spec;
    spec.instance = opts.instance;
    spec.source = readFile(file);
    spec.compile = compileOptionsFor(opts);
    spec.buffers = opts.buffers;
    core::Network net;
    net.add(spec);
    networks.push_back(std::move(net));
  }

  const pipeline::CompilerDriver driver(popts);
  const pipeline::CompileAllResult all =
      driver.compileAll(std::move(networks), frontModeFor(opts),
                        opts.jobs.value_or(1));

  if (opts.command == "lint") {
    bool findings = false;
    bool errors = false;
    for (std::size_t i = 0; i < opts.files.size(); ++i) {
      const DiagnosticEngine& diag = all.diags[i];
      if (diag.all().empty()) continue;
      findings = true;
      errors = errors || diag.hasErrors();
      std::printf("%s:\n", opts.files[i].c_str());
      std::fputs(diag.renderAll().c_str(), stdout);
    }
    if (!findings) {
      std::puts("clean: no findings");
      return kExitOk;
    }
    return errors ? kExitUsage : kExitOk;
  }

  // print
  bool errors = false;
  for (std::size_t i = 0; i < opts.files.size(); ++i) {
    const DiagnosticEngine& diag = all.diags[i];
    if (!diag.all().empty()) std::fputs(diag.renderAll().c_str(), stderr);
    errors = errors || diag.hasErrors();
  }
  if (errors) return kExitUsage;
  for (std::size_t i = 0; i < opts.files.size(); ++i) {
    const auto& ast = all.units[i]->instances().front().ast;
    std::fputs(lang::printProgram(ast).c_str(), stdout);
  }
  return kExitOk;
}

int run(const Options& opts) {
  if (opts.files.size() > 1) return runMultiFile(opts);
  const std::string source = readFile(opts.file);

  // ONE front-half compile per run, whatever the command: the driver runs
  // recovery-mode parse + elaborate + typecheck (+ sem/transforms as the
  // command needs), batching every source-located diagnostic, and the
  // back half below consumes the same CompilationUnit — no re-parse.
  core::ProgramSpec spec;
  spec.instance = opts.instance;
  spec.source = source;
  spec.compile = compileOptionsFor(opts);
  spec.buffers = opts.buffers;
  core::Network net;
  net.add(spec);

  pipeline::PipelineOptions popts;
  popts.horizon = opts.horizon;
  popts.model = opts.model;
  popts.unrollLoops = opts.unroll && opts.command != "emit-dafny";
  popts.symbolicInitialState = opts.havocInit;
  popts.budget = opts.budget;

  DiagnosticEngine diag;
  const pipeline::CompilerDriver driver(popts);
  const pipeline::CompilationUnitPtr unit =
      driver.compile(net, diag, frontModeFor(opts));

  if (opts.command == "lint") {
    // One run, every finding: front-half errors batch with the semantic
    // passes' warnings/errors instead of aborting at the first problem.
    if (diag.all().empty()) {
      std::puts("clean: no findings");
      return 0;
    }
    std::fputs(diag.renderAll().c_str(), stdout);
    return diag.hasErrors() ? kExitUsage : kExitOk;
  }

  if (!diag.all().empty()) std::fputs(diag.renderAll().c_str(), stderr);
  if (diag.hasErrors()) return kExitUsage;

  if (opts.command == "print") {
    const auto& ast = unit->instances().front().ast;
    std::fputs(lang::printProgram(ast).c_str(), stdout);
    return 0;
  }

  if (opts.command == "emit-dafny") {
    backends::DafnyOptions dopts;
    dopts.horizon = opts.horizon;
    for (const auto& b : opts.buffers) {
      if (b.role == core::BufferSpec::Role::Input) {
        dopts.inputParams.push_back(b.param);
        dopts.maxArrivalsPerStep = b.maxArrivalsPerStep;
      }
    }
    const auto& ast = unit->instances().front().ast;
    std::fputs(emitDafny(ast, dopts).c_str(), stdout);
    return 0;
  }

  if (opts.command == "prove") {
    // Unbounded-horizon proof via CHC/Spacer. The property uses state
    // names with [0], e.g. "rr.cdeq.0[0] >= 0"; run with an empty --query
    // to list the state variables.
    core::TransitionOptions topts;
    topts.model = opts.model;
    topts.stepWorkload = buildWorkload(opts);
    topts.budget = opts.budget;
    backends::UnboundedAnalysis unbounded(net, topts);
    if (opts.query.empty()) {
      std::puts("state variables (use 'name[0]' in --query):");
      for (const auto& name : unbounded.stateNames()) {
        std::printf("  %s\n", name.c_str());
      }
      return 0;
    }
    // A shutdown signal interrupts Spacer; the proof reports UNKNOWN
    // "interrupted" and the run exits 130.
    backends::ChcResult result;
    {
      const procs::ShutdownToken stopToken(
          [&unbounded] { unbounded.interrupt(); });
      result = unbounded.prove(opts.query, opts.timeoutMs);
    }
    std::printf("%s (%.3f s)\n", backends::chcStatusName(result.status),
                result.seconds);
    if (procs::shutdownRequested()) {
      std::printf("  interrupted\n");
      return kExitInterrupted;
    }
    if (!result.detail.empty()) std::printf("  %s\n", result.detail.c_str());
    switch (result.status) {
      case backends::ChcStatus::Proved: return kExitOk;
      case backends::ChcStatus::Violated: return kExitViolation;
      case backends::ChcStatus::Unknown: return kExitUnknown;
    }
    return kExitInternal;
  }

  core::AnalysisOptions aopts;
  aopts.horizon = opts.horizon;
  aopts.model = opts.model;
  aopts.timeoutMs = opts.timeoutMs;
  aopts.rlimit = opts.rlimit;
  aopts.maxMemoryMb = opts.maxMemoryMb;
  aopts.retry.enabled = !opts.noRetry;
  aopts.replayWitness = !opts.noReplay;
  aopts.faultPlan = buildFaultPlan(opts);
  aopts.unrollLoops = opts.unroll;
  aopts.symbolicInitialState = opts.havocInit;
  aopts.opt.enabled = !opts.noOpt;
  aopts.budget = opts.budget;
  // Verdict cache (DESIGN.md §14): the in-memory tier is always on unless
  // --no-cache; --cache-dir adds the cross-run disk tier. One instance per
  // run, shared by every path below (plain solve, sweep shards, synth
  // workers) — isolated workers rebuild an equivalent cache from the same
  // options on their side of the pipe and report their keys back, so the
  // parent's tiers fill either way.
  std::shared_ptr<cache::VerdictCache> verdictCache;
  if (!opts.noCache) {
    cache::VerdictCacheOptions cacheOpts;
    cacheOpts.dir = opts.cacheDir;
    cacheOpts.maxDiskBytes = opts.cacheMaxMb * 1024ull * 1024ull;
    verdictCache = std::make_shared<cache::VerdictCache>(cacheOpts);
    aopts.cache = verdictCache;
    aopts.cacheVerify = opts.cacheVerify;
  }
  core::Analysis analysis(unit, aopts);

  if (opts.command == "simulate") {
    backends::SolverBackend& backend = backendFor(opts, "interp");
    if (!backend.capabilities().concreteSim) {
      throw CliError("backend '" + std::string(backend.name()) +
                     "' cannot simulate concretely (use interp)");
    }
    core::ConcreteArrivals arrivals;
    for (const auto& [buffer, counts] : opts.arrivals) {
      auto& steps = arrivals[buffer];
      for (const int n : counts) {
        steps.emplace_back(static_cast<std::size_t>(n));
      }
    }
    const core::Trace trace = backend.simulate(analysis, arrivals);
    printTrace(opts, trace);
    if (opts.stageTimings && !analysis.pipelineStats().empty()) {
      std::printf("pipeline:\n%s", analysis.pipelineStats().render().c_str());
    }
    return 0;
  }

  if (opts.query.empty() && opts.command != "verify") {
    throw CliError(opts.command + " needs --query");
  }
  const core::Query query =
      opts.query.empty() ? core::Query::always() : core::Query::expr(opts.query);
  analysis.setWorkload(buildWorkload(opts));

  if (opts.command == "synth") {
    synth::Synthesizer synthesizer(net, aopts);
    synth::SynthesisOptions sopts;
    sopts.threads = opts.threads.value_or(1);
    sopts.firstOnly = opts.firstOnly;
    sopts.prescreen = !opts.noPrescreen;
    sopts.negativeCache = !opts.noCache;
    return reportSynth(opts, synthesizer.run(query, sopts));
  }

  if (opts.command == "emit-smt2") {
    backends::SmtLibOptions sopts;
    sopts.comment = "buffy emit-smt2: " + opts.file + " query: " + opts.query;
    std::fputs(analysis.toSmtLib(query, false, sopts).c_str(), stdout);
    return 0;
  }
  if (opts.command == "check" || opts.command == "verify") {
    if (opts.sweep) {
      requireZ3Engine(opts);
      // --isolate: one supervisor serves every sweep horizon.
      std::unique_ptr<procs::Supervisor> supervisor;
      if (opts.isolate) {
        procs::SupervisorOptions svopts;
        svopts.maxRetries = opts.retries;
        supervisor = std::make_unique<procs::Supervisor>(svopts);
      }
      std::vector<core::Query> queries;
      for (const auto& text : opts.queries) {
        queries.push_back(core::Query::expr(text));
      }
      if (queries.empty()) queries.push_back(core::Query::always());
      core::SweepOptions sopts;
      sopts.fromHorizon = opts.sweep->first;
      sopts.toHorizon = opts.sweep->second;
      sopts.shards = opts.shards.value_or(1);
      sopts.verify = opts.command == "verify";
      sopts.supervisor = supervisor.get();
      sopts.workloadSpecs = opts.workloads;
      core::HorizonSweep sweep(net, aopts);
      const auto result = sweep.run(
          queries, [&opts](int h) { return buildWorkloadAt(opts, h); },
          sopts);
      // Drains the idle pool first, so the report shows every worker reaped.
      std::optional<procs::ProcsStats> stats;
      if (supervisor) {
        supervisor->shutdownWorkers();
        stats = supervisor->stats();
      }
      const int code = reportSweep(opts, result, stats ? &*stats : nullptr,
                                   verdictCache.get());
      return procs::shutdownRequested() ? kExitInterrupted : code;
    }
    backends::SolverBackend& backend = backendFor(opts, "z3");
    if (!backend.capabilities().solve) {
      throw CliError("backend '" + std::string(backend.name()) +
                     "' cannot solve queries (use z3 or smtlib)");
    }
    // The plain path has no pool to drain: a shutdown signal interrupts
    // the engine, the canceled result is reported, and the run exits 130.
    const procs::ShutdownToken stopToken(
        [&analysis] { analysis.interrupt(); });
    const auto result =
        backend.solve(analysis, query, opts.command == "verify");
    const int code = reportResult(opts, result, verdictCache.get());
    return procs::shutdownRequested() ? kExitInterrupted : code;
  }
  throw CliError("unknown command " + opts.command);
}

}  // namespace

int main(int argc, char** argv) {
  // Hidden worker mode, dispatched before normal argument parsing: the
  // whole CLI surface stays out of the worker's way (its only interface
  // is the framed job protocol on stdin/stdout).
  if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0) {
    if (argc > 2) {
      std::fprintf(stderr, "buffy: --worker takes no further arguments "
                   "(got '%s')\n", argv[2]);
      return kExitUsage;
    }
    return procs::runWorker();
  }

  Options opts;
  try {
    opts = parseArgs(argc, argv);
  } catch (const CliError& e) {
    std::fprintf(stderr, "buffy: %s\n", e.what());
    usage();
    return kExitUsage;
  } catch (const std::exception& e) {
    // e.g. std::stoi on a malformed flag value
    std::fprintf(stderr, "buffy: bad argument: %s\n", e.what());
    usage();
    return kExitUsage;
  }

  // SIGINT/SIGTERM cancel in-flight solves and worker pools; the run then
  // emits its partial report with "status": "interrupted" and exits 130.
  // A second signal exits immediately (workers die via PDEATHSIG).
  procs::installSignalWatcher();

  // No exception type may escape to std::terminate: every failure maps to
  // a documented exit code.
  try {
    return run(opts);
  } catch (const BudgetExceeded& e) {
    if (opts.format == "json") {
      std::printf(
          "{\"verdict\":\"BUDGET-EXCEEDED\",\"exitCode\":%d,"
          "\"resource\":\"%s\",\"limit\":%llu,\"detail\":\"%s\"}\n",
          kExitBudget, jsonEscape(e.resource()).c_str(),
          static_cast<unsigned long long>(e.limit()),
          jsonEscape(e.what()).c_str());
    } else {
      std::fprintf(stderr,
                   "buffy: %s\n  (raise the corresponding --max-* flag or "
                   "pass --no-budget to override)\n",
                   e.what());
    }
    return kExitBudget;
  } catch (const CliError& e) {
    std::fprintf(stderr, "buffy: %s\n", e.what());
    usage();
    return kExitUsage;
  } catch (const BackendError& e) {
    std::fprintf(stderr, "buffy: solver failure: %s\n", e.what());
    return kExitInternal;
  } catch (const Error& e) {
    // Parse, type, and analysis errors: the input was at fault.
    std::fprintf(stderr, "buffy: %s\n", e.what());
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "buffy: internal error: %s\n", e.what());
    return kExitInternal;
  } catch (...) {
    std::fprintf(stderr, "buffy: internal error: unknown exception type\n");
    return kExitInternal;
  }
}
