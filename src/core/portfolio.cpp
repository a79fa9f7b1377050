#include "core/portfolio.hpp"

#include <cctype>
#include <memory>
#include <utility>

#include "backends/chc/chc_backend.hpp"
#include "jobs/race.hpp"
#include "procs/shutdown.hpp"

namespace buffy::core {

namespace {

/// Conclusive, trustworthy verdicts — the only results allowed to win a
/// race. Unknown, WitnessMismatch, and canceled answers never beat a
/// sibling that is still working.
bool soundVerdict(const AnalysisResult& r) {
  if (r.canceled) return false;
  switch (r.verdict) {
    case Verdict::Satisfiable:
    case Verdict::Unsatisfiable:
    case Verdict::Verified:
    case Verdict::Violated:
      return true;
    default:
      return false;
  }
}

/// Whether the identifier T (the horizon constant) appears in the query
/// text. Under the CHC member the query is re-parsed over a 1-step state
/// view where T == 1, so any T-dependent text would silently change
/// meaning — such queries stay out of the CHC fragment.
bool mentionsHorizonConstant(const std::string& text) {
  auto identChar = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '.';
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != 'T') continue;
    const bool leftFree = i == 0 || !identChar(text[i - 1]);
    const bool rightFree = i + 1 == text.size() || !identChar(text[i + 1]);
    if (leftFree && rightFree) return true;
  }
  return false;
}

}  // namespace

Portfolio::Portfolio(pipeline::CompilationUnitPtr unit,
                     AnalysisOptions options)
    : unit_(std::move(unit)), options_(options) {}

PortfolioResult Portfolio::check(const Query& query, const Workload& workload,
                                 const PortfolioOptions& opts) {
  return race(query, workload, opts, /*forVerify=*/false);
}

PortfolioResult Portfolio::verify(const Query& query, const Workload& workload,
                                  const PortfolioOptions& opts) {
  return race(query, workload, opts, /*forVerify=*/true);
}

PortfolioResult Portfolio::race(const Query& query, const Workload& workload,
                                const PortfolioOptions& opts,
                                bool forVerify) {
  // A warm cache answers before anything races: one probe engine derives
  // the query's content key and, on a hit, the whole portfolio (member
  // engines, threads, worker processes) is skipped. The probe never
  // blocks the race — any failure just falls through to a normal start.
  if (options_.cache) {
    try {
      Analysis probe(unit_, options_);
      probe.setWorkload(workload);
      if (auto hit = probe.probeCache(query, forVerify)) {
        PortfolioResult result;
        result.result = std::move(*hit);
        result.winner = "cache";
        PortfolioMemberReport report;
        report.name = "cache";
        report.verdict = verdictName(result.result.verdict);
        report.started = true;
        report.finished = true;
        report.sound = true;
        report.won = true;
        report.cached = true;
        result.members.push_back(std::move(report));
        return result;
      }
    } catch (const std::exception&) {
      // not probe-able (e.g. encoding failure the members will also hit
      // and report properly) — run the race.
    }
  }

  using Race = jobs::RaceGroup<AnalysisResult>;
  std::vector<Race::Member> members;
  // Loser results are discarded by the race; their verdict names are
  // recorded out-of-band for the report. Indexed writes from distinct
  // members never alias.
  auto verdicts = std::make_shared<std::vector<std::string>>();
  auto cachedFlags = std::make_shared<std::vector<char>>();
  auto isolation =
      std::make_shared<std::vector<std::optional<procs::JobStats>>>();

  const bool isolate =
      opts.supervisor != nullptr && opts.supervisor->available() &&
      procs::describable(unit_->network(), workload, opts.workloadSpecs,
                         {query});

  /// A member that solves through a full Analysis engine built from
  /// `memberOptions` on the shared unit. The ScopedInterrupt publishes the
  /// engine while the member runs, so a sibling's win interrupts the query
  /// actually in flight; it is retracted before the engine dies. Isolated
  /// members ship the same problem to a supervised worker subprocess.
  auto engineMember = [&](std::string name, AnalysisOptions memberOptions,
                          bool viaSmtLib) {
    const std::string scope = opts.faultScopePrefix + name;
    const std::size_t idx = members.size();
    members.push_back(Race::Member{
        std::move(name),
        [this, memberOptions, viaSmtLib, scope, forVerify, idx, verdicts,
         cachedFlags, isolation, isolate, &opts, &query,
         &workload](jobs::JobContext& ctx) {
          AnalysisResult result;
          if (isolate) {
            procs::WireJob job;
            job.network = unit_->network();
            job.options = memberOptions;
            job.verify = forVerify;
            job.viaSmtLib = viaSmtLib;
            job.queries = {query.description()};
            job.workloadSpecs = opts.workloadSpecs;
            job.faultScope = scope;
            auto results =
                procs::solveIsolated(*opts.supervisor, ctx, std::move(job),
                                     (*isolation)[idx].emplace());
            result = std::move(results.front());
          } else {
            Analysis engine(unit_, memberOptions);
            const jobs::ScopedInterrupt guard(
                ctx, [&engine] { engine.interrupt(); });
            const procs::ShutdownToken stopToken(
                [&engine] { engine.interrupt(); });
            engine.setWorkload(workload);
            engine.setFaultScope(scope);
            result = viaSmtLib ? engine.solveViaSmtLib(query, forVerify)
                               : (forVerify ? engine.verify(query)
                                            : engine.check(query));
          }
          (*verdicts)[idx] = verdictName(result.verdict);
          (*cachedFlags)[idx] = result.cached ? 1 : 0;
          return result;
        }});
  };

  // Member 0: the serial escalation ladder, demoted to one racer — and the
  // deterministic fallback when nothing sound lands.
  engineMember("ladder", options_, /*viaSmtLib=*/false);

  for (const unsigned seed : opts.seeds) {
    AnalysisOptions o = options_;
    o.retry.enabled = false;
    o.randomSeed = seed;
    engineMember("z3-seed-" + std::to_string(seed), o, /*viaSmtLib=*/false);
  }

  if (opts.smtlib) {
    AnalysisOptions o = options_;
    o.retry.enabled = false;
    engineMember("smtlib", o, /*viaSmtLib=*/true);
  }

  const bool chcEligible = opts.chc && forVerify && query.textual() &&
                           !mentionsHorizonConstant(query.description()) &&
                           workload.ruleCount() == 0 &&
                           !options_.symbolicInitialState;
  if (chcEligible) {
    const std::size_t idx = members.size();
    members.push_back(Race::Member{
        "chc", [this, idx, verdicts, &query](jobs::JobContext& ctx) {
          TransitionOptions topts;
          topts.model = options_.model;
          topts.budget = options_.budget;
          backends::UnboundedAnalysis unbounded(unit_->network(), topts);
          const jobs::ScopedInterrupt guard(
              ctx, [&unbounded] { unbounded.interrupt(); });
          const backends::ChcResult chc =
              unbounded.prove(query.description(), options_.timeoutMs);
          AnalysisResult result;
          result.solveSeconds = chc.seconds;
          if (chc.proved()) {
            // Holds at every reachable state ⇒ at every step of the
            // bounded horizon.
            result.verdict = Verdict::Verified;
            result.detail = "chc: proved for every horizon";
          } else {
            // A CHC violation may lie beyond the horizon; Unknown is
            // Unknown. Either way: not sound for the bounded question.
            result.verdict = Verdict::Unknown;
            result.detail = std::string("chc: ") +
                            backends::chcStatusName(chc.status) +
                            (chc.detail.empty() ? "" : " (" + chc.detail + ")");
            result.canceled = chc.detail == "interrupted";
          }
          (*verdicts)[idx] = verdictName(result.verdict);
          return result;
        }});
  }

  verdicts->resize(members.size());
  cachedFlags->resize(members.size());
  isolation->resize(members.size());
  const Race::Outcome outcome =
      Race::run(members, opts.threads, soundVerdict);

  PortfolioResult result;
  result.seconds = outcome.seconds;
  result.members.reserve(outcome.members.size());
  for (std::size_t i = 0; i < outcome.members.size(); ++i) {
    const auto& m = outcome.members[i];
    PortfolioMemberReport report;
    report.name = m.name;
    if (m.finished) report.verdict = (*verdicts)[i];
    report.started = m.started;
    report.finished = m.finished;
    report.sound = m.sound;
    report.won = m.won;
    report.error = m.error;
    report.seconds = m.seconds;
    report.cached = (*cachedFlags)[i] != 0;
    report.isolation = (*isolation)[i];
    result.members.push_back(std::move(report));
  }
  if (outcome.result) {
    result.result = std::move(*outcome.result);
  } else {
    // Every member threw. Surface the errors rather than a silent Unknown.
    result.result.verdict = Verdict::Unknown;
    std::string detail = "portfolio: every member failed";
    for (const auto& m : result.members) {
      if (!m.error.empty()) detail += "; " + m.name + ": " + m.error;
    }
    result.result.detail = std::move(detail);
  }
  if (outcome.winner != jobs::JobPool::kNone) {
    result.winner = result.members[outcome.winner].name;
  }
  return result;
}

}  // namespace buffy::core
