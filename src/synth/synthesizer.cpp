#include "synth/synthesizer.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <unordered_map>

#include "ir/term_hash.hpp"
#include "ir/term_printer.hpp"
#include "jobs/job.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/encoder.hpp"
#include "support/error.hpp"

namespace buffy::synth {

const char* patternName(Pattern pattern) {
  switch (pattern) {
    case Pattern::None: return "none";
    case Pattern::ExactlyOnePerStep: return "1/step";
    case Pattern::AtLeastOnePerStep: return ">=1/step";
    case Pattern::BurstAtStart2: return "burst2@0";
    case Pattern::BurstAtStart3: return "burst3@0";
    case Pattern::AtMostOnePerStep: return "<=1/step";
    case Pattern::PacedSkipOne: return "1,0,1,1,...";
    case Pattern::Unconstrained: return "any";
  }
  return "?";
}

core::WorkloadRule patternRule(Pattern pattern, const std::string& buffer) {
  using core::Workload;
  switch (pattern) {
    case Pattern::None:
      return Workload::perStepCount(buffer, 0, 0);
    case Pattern::ExactlyOnePerStep:
      return Workload::perStepCount(buffer, 1, 1);
    case Pattern::AtLeastOnePerStep:
      return Workload::perStepCount(buffer, 1,
                                    std::numeric_limits<int>::max());
    case Pattern::BurstAtStart2:
    case Pattern::BurstAtStart3: {
      const std::int64_t k = pattern == Pattern::BurstAtStart2 ? 2 : 3;
      return [buffer, k](const core::ArrivalView& view, ir::TermArena& arena,
                         std::vector<ir::TermRef>& out) {
        out.push_back(arena.eq(view.count(buffer, 0), arena.intConst(k)));
        for (int t = 1; t < view.horizon(); ++t) {
          out.push_back(arena.eq(view.count(buffer, t), arena.intConst(0)));
        }
      };
    }
    case Pattern::AtMostOnePerStep:
      return Workload::perStepCount(buffer, 0, 1);
    case Pattern::PacedSkipOne:
      return [buffer](const core::ArrivalView& view, ir::TermArena& arena,
                      std::vector<ir::TermRef>& out) {
        for (int t = 0; t < view.horizon(); ++t) {
          const std::int64_t n = t == 1 ? 0 : 1;
          out.push_back(arena.eq(view.count(buffer, t), arena.intConst(n)));
        }
      };
    case Pattern::Unconstrained:
      return [](const core::ArrivalView&, ir::TermArena&,
                std::vector<ir::TermRef>&) {};
  }
  throw AnalysisError("unknown pattern");
}

namespace {

std::string describeAssignment(const std::map<std::string, Pattern>& a) {
  std::string out;
  for (const auto& [buffer, pattern] : a) {
    if (!out.empty()) out += ", ";
    out += buffer + ":" + patternName(pattern);
  }
  return out;
}

}  // namespace

std::string Candidate::describe() const {
  return describeAssignment(assignment);
}

const char* failureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::Unknown: return "unknown";
    case FailureKind::Exception: return "exception";
    case FailureKind::WitnessMismatch: return "witness-mismatch";
    case FailureKind::Canceled: return "canceled";
  }
  return "?";
}

std::string CandidateFailure::describe() const {
  std::string out = "#" + std::to_string(index) + " [" +
                    describeAssignment(assignment) + "] " +
                    failureKindName(kind) + " in " + stage;
  if (!detail.empty()) out += ": " + detail;
  return out;
}

std::string SynthesisResult::summary() const {
  std::string out =
      std::to_string(solutions.size()) + " solution(s); " +
      std::to_string(solvedCount) + " solved, " +
      std::to_string(unknownCount) + " unknown, " +
      std::to_string(failedCount) + " failed of " +
      std::to_string(candidatesChecked) + " checked";
  if (prescreenRejected > 0 || prescreenWitnessed > 0) {
    out += " (prescreen: " + std::to_string(prescreenRejected) +
           " rejected, " + std::to_string(prescreenWitnessed) +
           " witnessed)";
  }
  return out;
}

namespace {

/// All grammar^inputs assignments in mixed-radix order (inputs[0]'s pattern
/// varies fastest) — the canonical enumeration order; "first solution" and
/// the solution list are defined by it regardless of thread count.
std::vector<std::map<std::string, Pattern>> enumerateAssignments(
    const std::vector<std::string>& inputs,
    const std::vector<Pattern>& grammar) {
  std::vector<std::map<std::string, Pattern>> out;
  const std::size_t base = grammar.size();
  std::vector<std::size_t> digits(inputs.size(), 0);
  bool done = false;
  while (!done) {
    std::map<std::string, Pattern> assignment;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      assignment[inputs[i]] = grammar[digits[i]];
    }
    out.push_back(std::move(assignment));
    std::size_t pos = 0;
    while (pos < digits.size()) {
      if (++digits[pos] < base) break;
      digits[pos] = 0;
      ++pos;
    }
    done = pos == digits.size();
  }
  return out;
}

core::Workload workloadFor(const std::map<std::string, Pattern>& assignment) {
  core::Workload workload;
  for (const auto& [buffer, pattern] : assignment) {
    workload.add(patternRule(pattern, buffer));
  }
  return workload;
}

/// Whether a pattern pins its per-step counts (so every prescreen sample
/// of it is the same trace).
bool patternDeterministic(Pattern pattern) {
  switch (pattern) {
    case Pattern::AtLeastOnePerStep:
    case Pattern::AtMostOnePerStep:
    case Pattern::Unconstrained:
      return false;
    default:
      return true;
  }
}

/// A sampled arrival count conforming to `pattern` at step `t`, or nullopt
/// when no count within the buffer's per-step bound can conform (the
/// pattern is infeasible for this buffer — leave it to the solver).
std::optional<int> sampleCount(Pattern pattern, int t, int maxArrivals,
                               std::mt19937& rng) {
  switch (pattern) {
    case Pattern::None:
      return 0;
    case Pattern::ExactlyOnePerStep:
      if (maxArrivals < 1) return std::nullopt;
      return 1;
    case Pattern::AtLeastOnePerStep:
      if (maxArrivals < 1) return std::nullopt;
      return 1 + static_cast<int>(rng() % static_cast<unsigned>(maxArrivals));
    case Pattern::BurstAtStart2:
    case Pattern::BurstAtStart3: {
      const int k = pattern == Pattern::BurstAtStart2 ? 2 : 3;
      if (t != 0) return 0;
      if (k > maxArrivals) return std::nullopt;
      return k;
    }
    case Pattern::AtMostOnePerStep:
      if (maxArrivals < 1) return 0;
      return static_cast<int>(rng() % 2);
    case Pattern::PacedSkipOne:
      if (maxArrivals < 1) return std::nullopt;
      return t == 1 ? 0 : 1;
    case Pattern::Unconstrained:
      return static_cast<int>(rng() %
                              static_cast<unsigned>(maxArrivals + 1));
  }
  return std::nullopt;
}

}  // namespace

SynthesisResult Synthesizer::run(const core::Query& query,
                                 const SynthesisOptions& opts) {
  if (opts.grammar.empty()) {
    throw AnalysisError("synthesis grammar is empty");
  }

  // One front-half compile for the whole run (DESIGN.md §11): every engine
  // — the probe, per-worker persistent engines, per-candidate fresh ones —
  // shares this unit, so candidates cost solves, not recompiles. Each
  // Analysis still owns its own Z3 context (contexts must not be shared
  // across threads); only the immutable compiled programs are shared.
  const pipeline::CompilerDriver driver(core::pipelineOptionsFor(options_));
  const pipeline::CompilationUnitPtr unit = driver.compile(network_);

  // This engine both discovers the external inputs and serves as the first
  // worker's solving engine.
  auto engine0 = std::make_unique<core::Analysis>(unit, options_);
  const std::vector<std::string> inputs = engine0->inputBufferNames();
  if (inputs.empty()) {
    throw AnalysisError("network has no external inputs to synthesize over");
  }

  const auto assignments = enumerateAssignments(inputs, opts.grammar);
  const std::size_t total = assignments.size();

  SynthesisResult result;
  const auto start = std::chrono::steady_clock::now();

  // ------------------------------------------------------------------
  // Concrete-interpreter prescreening (no solver involved): per-input
  // sampling metadata, gated on the same replayability conditions as the
  // witness cross-check. A runtime failure (nondeterministic model)
  // trips `prescreenBroken` and the rest of the run goes straight to SMT.
  // ------------------------------------------------------------------
  struct ScreenInput {
    std::string name;
    int maxArrivals = 0;
    std::string classField;
    int classDomain = 0;
  };
  std::vector<ScreenInput> screenInputs;
  bool prescreenable = opts.prescreen && !options_.symbolicInitialState &&
                       unit->network().contracts().empty();
  if (prescreenable) {
    for (const auto& ci : unit->instances()) {
      for (const auto& bu : unit->bufferUnits(ci)) {
        if (bu.spec->role != core::BufferSpec::Role::Input) continue;
        if (unit->connectedInputs().count(bu.qualified) != 0) continue;
        screenInputs.push_back({bu.qualified, bu.spec->maxArrivalsPerStep,
                                bu.spec->classField, bu.spec->classDomain});
      }
    }
    prescreenable = !screenInputs.empty();
  }
  std::atomic<bool> prescreenBroken{false};
  std::atomic<int> prescreenRejected{0};
  std::atomic<int> prescreenWitnessed{0};

  struct ScreenResult {
    bool reject = false;   // a conforming sample violated the query
    bool witness = false;  // a conforming sample satisfied the query
    bool skipped = false;  // could not sample — leave it to the solver
  };
  /// Samples a small batch of concrete traces conforming to the
  /// candidate's workload and evaluates the query on each through the
  /// concrete evaluator. Rejection (requireUniversal only) and witnessing
  /// are both sound: a sampled trace satisfies exactly the workload +
  /// arrival-soundness constraint set the symbolic encoding assumes
  /// (counts within the per-step bound, packet fields at their
  /// constrained defaults), so it is a genuine member of the candidate's
  /// trace set.
  auto screenCandidate =
      [&](std::size_t idx,
          const std::map<std::string, Pattern>& assignment) -> ScreenResult {
    ScreenResult out;
    // Seeded per candidate index: the batch is deterministic under any
    // thread count.
    std::mt19937 rng(opts.prescreenSeed +
                     0x9e3779b9u * static_cast<unsigned>(idx + 1));
    bool allDeterministic = true;
    for (const auto& [buffer, pattern] : assignment) {
      (void)buffer;
      if (!patternDeterministic(pattern)) allDeterministic = false;
    }
    const int samples =
        allDeterministic ? 1 : std::max(1, opts.prescreenTraces);
    try {
      for (int s = 0; s < samples; ++s) {
        core::ConcreteArrivals arrivals;
        bool feasible = true;
        for (const auto& in : screenInputs) {
          const auto pit = assignment.find(in.name);
          if (pit == assignment.end()) continue;
          auto& steps = arrivals[in.name];
          for (int t = 0; t < options_.horizon && feasible; ++t) {
            const auto n = sampleCount(pit->second, t, in.maxArrivals, rng);
            if (!n) {
              feasible = false;
              break;
            }
            std::vector<core::ConcretePacket> packets;
            for (int i = 0; i < *n; ++i) {
              core::ConcretePacket packet;
              if (in.classDomain > 0 && !in.classField.empty()) {
                packet[in.classField] = static_cast<std::int64_t>(
                    rng() % static_cast<unsigned>(in.classDomain));
              }
              packets.push_back(std::move(packet));
            }
            steps.push_back(std::move(packets));
          }
          if (!feasible) break;
        }
        if (!feasible) {
          out.skipped = true;
          return out;
        }
        const core::Workload empty;
        const auto enc = pipeline::buildEncoding(*unit, empty, &arrivals);
        const core::SeriesView view(&enc->series, enc->horizon);
        const auto value =
            ir::constValue(query.build(view, enc->arena, options_.budget));
        if (!value) {
          // Nondeterministic model configuration — no concrete verdicts.
          prescreenBroken.store(true);
          out.skipped = true;
          return out;
        }
        if (*value != 0) {
          out.witness = true;
        } else if (opts.requireUniversal) {
          // A conforming trace violating the query refutes ∀ outright.
          out.reject = true;
          return out;
        }
      }
    } catch (const Error&) {
      prescreenBroken.store(true);
      return {false, false, true};
    }
    return out;
  };

  // One result slot per candidate: deterministic ordering falls out of the
  // index space, however the workers interleave. Each candidate lands in
  // exactly one of `slots` (conclusive verdict) or `failSlots`
  // (inconclusive / broken — per-candidate fault isolation).
  std::vector<std::optional<Candidate>> slots(total);
  std::vector<std::optional<CandidateFailure>> failSlots(total);
  /// Optimizer accounting per candidate's first SMT query (earliest one
  /// that produced stats is surfaced on the result).
  std::vector<std::optional<opt::OptStats>> optSlots(total);

  const std::size_t workers = std::min(
      static_cast<std::size_t>(std::max(1, opts.threads)), total);
  // Worker 0 inherits the probe engine; the rest compile their own in
  // their JobPool setup hook (each Analysis owns its own Z3 context).
  std::vector<std::unique_ptr<core::Analysis>> engines(workers);
  jobs::JobPool pool;

  // In-run negative cache (DESIGN.md §14): canonical workload-set hash ->
  // (existsSat, forallHolds) of a prescreen-rejected candidate. The hash
  // combines the terms' own structural hashes, so it matches across the
  // workers' arenas.
  const bool negativeCacheOn = opts.negativeCache && opts.incremental &&
                               opts.requireUniversal;
  std::mutex negMutex;
  std::unordered_map<std::uint64_t, std::pair<bool, bool>> negCache;
  std::atomic<int> prescreenCacheHits{0};

  auto evaluate = [&](jobs::JobContext& ctx, core::Analysis* engine,
                      std::size_t idx) {
    const auto candidateStart = std::chrono::steady_clock::now();
    const char* stage = "setup";
    auto fail = [&](FailureKind kind, std::string detail) {
      CandidateFailure failure;
      failure.index = idx;
      failure.assignment = assignments[idx];
      failure.kind = kind;
      failure.stage = stage;
      failure.detail = std::move(detail);
      failSlots[idx] = std::move(failure);
    };
    auto failFrom = [&](const core::AnalysisResult& r) {
      if (r.verdict == core::Verdict::WitnessMismatch) {
        fail(FailureKind::WitnessMismatch, r.detail);
      } else if (r.canceled) {
        fail(FailureKind::Canceled, "interrupted");
      } else {
        fail(FailureKind::Unknown,
             r.detail.empty() ? "solver returned unknown" : r.detail);
      }
    };

    // The fresh path rebuilds the entire pipeline per candidate; the
    // incremental path re-binds the workload delta onto the worker's
    // already-built encoding and queries the same engine. The
    // ScopedInterrupt publishes the per-candidate fresh engine so firstOnly
    // cancellation interrupts the query actually in flight (and restores
    // the persistent engine's hook before `fresh` dies, so no interrupt
    // can land on a destroyed engine).
    std::unique_ptr<core::Analysis> fresh;
    std::optional<jobs::ScopedInterrupt> guard;
    try {
      Candidate candidate;
      candidate.assignment = assignments[idx];

      bool existsConfirmed = false;
      bool bound = false;
      std::optional<std::uint64_t> negKey;
      if (negativeCacheOn && prescreenable && !prescreenBroken.load()) {
        // Bind the candidate's workload early so its constraint set can be
        // hashed; the rebind is reused by the solver setup below.
        stage = "setup";
        engine->rebindWorkload(workloadFor(candidate.assignment));
        bound = true;
        negKey = ir::hashSet(engine->encoding().workloadTerms);
        std::lock_guard<std::mutex> lock(negMutex);
        const auto it = negCache.find(*negKey);
        if (it != negCache.end()) {
          // A structurally identical candidate was already rejected: its
          // counterexample trace conforms to this one too.
          candidate.existsSat = it->second.first;
          candidate.forallHolds = it->second.second;
          candidate.prescreened = true;
          candidate.seconds =
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - candidateStart)
                  .count();
          prescreenCacheHits.fetch_add(1);
          prescreenRejected.fetch_add(1);
          slots[idx] = std::move(candidate);
          return;
        }
      }
      if (prescreenable && !prescreenBroken.load()) {
        stage = "prescreen";
        const ScreenResult screen =
            screenCandidate(idx, candidate.assignment);
        if (screen.reject) {
          candidate.existsSat = screen.witness;
          candidate.forallHolds = false;
          candidate.prescreened = true;
          candidate.seconds =
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - candidateStart)
                  .count();
          prescreenRejected.fetch_add(1);
          if (negKey) {
            std::lock_guard<std::mutex> lock(negMutex);
            negCache.emplace(*negKey,
                             std::make_pair(candidate.existsSat,
                                            candidate.forallHolds));
          }
          slots[idx] = std::move(candidate);
          return;
        }
        if (screen.witness) {
          existsConfirmed = true;
          candidate.prescreened = true;
          prescreenWitnessed.fetch_add(1);
        }
      }

      // A prescreen-witnessed candidate in existential-only mode needs no
      // solver at all.
      const bool engineNeeded = !existsConfirmed || opts.requireUniversal;
      if (engineNeeded) {
        stage = "setup";
        if (!opts.incremental) {
          fresh = std::make_unique<core::Analysis>(unit, options_);
          fresh->setWorkload(workloadFor(candidate.assignment));
          engine = fresh.get();
          guard.emplace(ctx, [engine] { engine->interrupt(); });
        } else if (!bound) {
          engine->rebindWorkload(workloadFor(candidate.assignment));
        }
        // Injected faults are keyed by candidate index, not by worker or
        // global check order — determinism under any thread count.
        engine->setFaultScope("cand" + std::to_string(idx));
      }

      if (existsConfirmed) {
        candidate.existsSat = true;
      } else {
        stage = "exists";
        const core::AnalysisResult exists = engine->check(query);
        if (exists.opt) optSlots[idx] = exists.opt;
        if (exists.verdict == core::Verdict::WitnessMismatch ||
            exists.inconclusive()) {
          failFrom(exists);
          return;
        }
        candidate.existsSat = exists.sat();
      }

      if (candidate.existsSat && opts.requireUniversal) {
        stage = "forall";
        const core::AnalysisResult forall = engine->verify(query);
        if (forall.opt && !optSlots[idx]) optSlots[idx] = forall.opt;
        if (forall.verdict == core::Verdict::WitnessMismatch ||
            forall.inconclusive()) {
          failFrom(forall);
          return;
        }
        candidate.forallHolds = forall.holds();
      } else if (candidate.existsSat) {
        candidate.forallHolds = true;
      }

      candidate.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        candidateStart)
              .count();
      const bool solution = candidate.existsSat && candidate.forallHolds;
      slots[idx] = std::move(candidate);
      // firstOnly: candidates above a known solution can never be "first"
      // — lower the pool cutoff and interrupt the doomed in-flight ones.
      if (solution && opts.firstOnly) pool.cutAt(idx);
    } catch (const std::exception& e) {
      fail(FailureKind::Exception, e.what());
    }
  };

  jobs::JobPool::RunSpec spec;
  spec.jobs = total;
  spec.workers = workers;
  spec.setup = [&](jobs::JobContext& ctx) {
    const std::size_t w = ctx.worker();
    core::Analysis* engine = engine0.get();
    if (w != 0) {
      // A failure to build the engine is isolated: this worker records
      // nothing and retires, the others keep draining the queue.
      engines[w] = std::make_unique<core::Analysis>(unit, options_);
      engine = engines[w].get();
    }
    ctx.onInterrupt([engine] { engine->interrupt(); });
    return true;
  };
  spec.body = [&](jobs::JobContext& ctx, std::size_t idx) {
    core::Analysis* engine =
        ctx.worker() == 0 ? engine0.get() : engines[ctx.worker()].get();
    evaluate(ctx, engine, idx);
  };
  pool.run(spec);

  result.candidatesChecked = static_cast<int>(pool.completed());
  result.prescreenRejected = prescreenRejected.load();
  result.prescreenWitnessed = prescreenWitnessed.load();
  result.prescreenCacheHits = prescreenCacheHits.load();
  const std::size_t cutoff = opts.firstOnly ? pool.cutoff() : jobs::JobPool::kNone;
  for (std::size_t i = 0; i < total && i <= cutoff; ++i) {
    if (slots[i]) {
      ++result.solvedCount;
      if (slots[i]->existsSat && slots[i]->forallHolds) {
        result.solutions.push_back(std::move(*slots[i]));
        if (opts.firstOnly) break;
      }
    } else if (failSlots[i] &&
               failSlots[i]->kind != FailureKind::Canceled) {
      // Canceled candidates are an artifact of firstOnly cancellation (they
      // lie past the cutoff by construction) — never part of the report.
      if (failSlots[i]->kind == FailureKind::Unknown) {
        ++result.unknownCount;
      } else {
        ++result.failedCount;
      }
      result.failures.push_back(std::move(*failSlots[i]));
    }
    if (!result.opt && optSlots[i]) result.opt = std::move(optSlots[i]);
  }

  result.totalSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace buffy::synth
