#include "synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "support/error.hpp"

namespace buffy::synth {
namespace {

using buffy::testing::schedulerNet;

TEST(Patterns, NamesAndRules) {
  EXPECT_STREQ(patternName(Pattern::None), "none");
  EXPECT_STREQ(patternName(Pattern::ExactlyOnePerStep), "1/step");
  EXPECT_STREQ(patternName(Pattern::BurstAtStart3), "burst3@0");
  // Rules are well-formed callables.
  core::Workload w;
  w.add(patternRule(Pattern::None, "x"));
  EXPECT_EQ(w.ruleCount(), 1u);
}

TEST(Synthesizer, FindsStrictPriorityMonopolyWorkload) {
  // Query: queue 0 is served every step. The synthesizer must discover
  // that "queue 0 sends every step" guarantees it under strict priority
  // (whatever queue 1 does).
  core::AnalysisOptions opts;
  opts.horizon = 4;
  Synthesizer synth(schedulerNet(models::kStrictPriority, "sp", 2), opts);
  SynthesisOptions sopts;
  sopts.grammar = {Pattern::None, Pattern::ExactlyOnePerStep};
  const auto result =
      synth.run(core::Query::expr("sp.cdeq.0[T-1] == T"), sopts);
  EXPECT_EQ(result.candidatesChecked, 4);
  ASSERT_FALSE(result.solutions.empty());
  bool found = false;
  for (const auto& sol : result.solutions) {
    if (sol.assignment.at("sp.ibs.0") == Pattern::ExactlyOnePerStep) {
      found = true;
      EXPECT_TRUE(sol.existsSat);
      EXPECT_TRUE(sol.forallHolds);
    }
    // "queue 0 silent" can never be a solution.
    EXPECT_NE(sol.assignment.at("sp.ibs.0"), Pattern::None);
  }
  EXPECT_TRUE(found);
}

TEST(Synthesizer, FqStarvationWorkloadSynthesis) {
  // FPerf's flagship use: synthesize traffic that *guarantees* queue 1 is
  // starved (served at most once) by the buggy scheduler. The known
  // answer is the RFC 8290 pacing: queue 0 sends at "just the right rate"
  // (skipping the step where queue 1 takes its one turn), queue 1 has a
  // standing burst.
  core::AnalysisOptions opts;
  opts.horizon = 5;
  Synthesizer synth(schedulerNet(models::kFairQueueBuggy, "fq", 2), opts);
  SynthesisOptions sopts;
  sopts.grammar = {Pattern::ExactlyOnePerStep, Pattern::PacedSkipOne,
                   Pattern::BurstAtStart3};
  const auto result = synth.run(
      core::Query::expr("fq.cdeq.1[T-1] <= 1 & fq.cdeq.0[T-1] >= T-1"),
      sopts);
  ASSERT_FALSE(result.solutions.empty());
  bool known = false;
  for (const auto& sol : result.solutions) {
    if (sol.assignment.at("fq.ibs.0") == Pattern::PacedSkipOne &&
        sol.assignment.at("fq.ibs.1") == Pattern::BurstAtStart3) {
      known = true;
    }
    // Exact steady 1/step pacing does NOT starve (the bug needs the skip).
    EXPECT_FALSE(sol.assignment.at("fq.ibs.0") ==
                     Pattern::ExactlyOnePerStep &&
                 sol.assignment.at("fq.ibs.1") == Pattern::BurstAtStart3);
  }
  EXPECT_TRUE(known);
}

TEST(Synthesizer, UniversalDirectionFiltersCandidates) {
  // With requireUniversal, "unconstrained" inputs rarely guarantee
  // anything; existential-only mode accepts more candidates.
  core::AnalysisOptions opts;
  opts.horizon = 4;
  SynthesisOptions sopts;
  sopts.grammar = {Pattern::Unconstrained, Pattern::ExactlyOnePerStep};
  const core::Query query = core::Query::expr("sp.cdeq.0[T-1] == T");

  Synthesizer synth(schedulerNet(models::kStrictPriority, "sp", 2), opts);
  const auto strict = synth.run(query, sopts);

  SynthesisOptions loose = sopts;
  loose.requireUniversal = false;
  Synthesizer synth2(schedulerNet(models::kStrictPriority, "sp", 2), opts);
  const auto existential = synth2.run(query, loose);

  EXPECT_GE(existential.solutions.size(), strict.solutions.size());
}

TEST(Synthesizer, FirstOnlyStopsEarly) {
  core::AnalysisOptions opts;
  opts.horizon = 3;
  Synthesizer synth(schedulerNet(models::kStrictPriority, "sp", 2), opts);
  SynthesisOptions sopts;
  sopts.grammar = {Pattern::ExactlyOnePerStep};
  sopts.firstOnly = true;
  const auto result =
      synth.run(core::Query::expr("sp.cdeq.0[T-1] == T"), sopts);
  EXPECT_EQ(result.solutions.size(), 1u);
  EXPECT_EQ(result.candidatesChecked, 1);
}

TEST(Synthesizer, EmptyGrammarRejected) {
  core::AnalysisOptions opts;
  Synthesizer synth(schedulerNet(models::kRoundRobin, "rr", 2), opts);
  SynthesisOptions sopts;
  sopts.grammar.clear();
  EXPECT_THROW(synth.run(core::Query::always(), sopts), AnalysisError);
}

TEST(Synthesizer, FreshAndIncrementalModesAgree) {
  // The incremental engine (one engine per worker, workload re-bound as a
  // delta per candidate) must produce the identical solution
  // set as the fresh-pipeline-per-candidate path.
  core::AnalysisOptions opts;
  opts.horizon = 4;
  SynthesisOptions sopts;
  sopts.grammar = {Pattern::None, Pattern::ExactlyOnePerStep,
                   Pattern::BurstAtStart2};
  const core::Query query = core::Query::expr("sp.cdeq.0[T-1] == T");

  Synthesizer synth(schedulerNet(models::kStrictPriority, "sp", 2), opts);
  sopts.incremental = false;
  const auto fresh = synth.run(query, sopts);
  sopts.incremental = true;
  const auto incremental = synth.run(query, sopts);

  EXPECT_EQ(fresh.candidatesChecked, incremental.candidatesChecked);
  ASSERT_EQ(fresh.solutions.size(), incremental.solutions.size());
  for (std::size_t i = 0; i < fresh.solutions.size(); ++i) {
    EXPECT_EQ(fresh.solutions[i].assignment,
              incremental.solutions[i].assignment);
    EXPECT_EQ(fresh.solutions[i].existsSat, incremental.solutions[i].existsSat);
    EXPECT_EQ(fresh.solutions[i].forallHolds,
              incremental.solutions[i].forallHolds);
  }
}

TEST(Synthesizer, ParallelFindsIdenticalSolutionSet) {
  // threads=4 must find the same solutions in the same (enumeration)
  // order as threads=1.
  core::AnalysisOptions opts;
  opts.horizon = 5;
  SynthesisOptions sopts;
  sopts.grammar = {Pattern::ExactlyOnePerStep, Pattern::PacedSkipOne,
                   Pattern::BurstAtStart3};
  const core::Query query = core::Query::expr(
      "fq.cdeq.1[T-1] <= 1 & fq.cdeq.0[T-1] >= T-1");

  Synthesizer synth(schedulerNet(models::kFairQueueBuggy, "fq", 2), opts);
  sopts.threads = 1;
  const auto sequential = synth.run(query, sopts);
  sopts.threads = 4;
  const auto parallel = synth.run(query, sopts);

  EXPECT_EQ(parallel.candidatesChecked, sequential.candidatesChecked);
  ASSERT_EQ(parallel.solutions.size(), sequential.solutions.size());
  for (std::size_t i = 0; i < sequential.solutions.size(); ++i) {
    EXPECT_EQ(parallel.solutions[i].assignment,
              sequential.solutions[i].assignment);
  }
}

TEST(Synthesizer, ParallelFirstOnlyIsDeterministic) {
  // firstOnly with threads=4 must return exactly the first solution of the
  // sequential enumeration order, regardless of which worker finds a
  // solution first.
  core::AnalysisOptions opts;
  opts.horizon = 4;
  SynthesisOptions sopts;
  sopts.grammar = {Pattern::None, Pattern::ExactlyOnePerStep,
                   Pattern::BurstAtStart2};
  sopts.firstOnly = true;
  const core::Query query = core::Query::expr("sp.cdeq.0[T-1] == T");

  Synthesizer synth(schedulerNet(models::kStrictPriority, "sp", 2), opts);
  sopts.threads = 1;
  const auto sequential = synth.run(query, sopts);
  ASSERT_EQ(sequential.solutions.size(), 1u);
  sopts.threads = 4;
  const auto parallel = synth.run(query, sopts);
  ASSERT_EQ(parallel.solutions.size(), 1u);
  EXPECT_EQ(parallel.solutions[0].assignment,
            sequential.solutions[0].assignment);
}

TEST(Synthesizer, ParallelFirstOnlyCancellationStress) {
  // Regression for the firstOnly cancellation races: an interrupt must
  // never land on a retired worker's destroyed engine, a worker whose
  // claim is below the eventual cutoff must never be canceled (its claim
  // is published before the cutoff re-check), and in fresh mode the
  // interrupt must reach the per-candidate engine. Delaying the earliest
  // candidates makes later workers finish (and fire noteSolution) first,
  // so the cancellation path runs on ~every rep; the first solution of
  // the enumeration order must win regardless.
  core::AnalysisOptions opts;
  opts.horizon = 4;
  const core::Query query = core::Query::expr("sp.cdeq.0[T-1] == T");
  SynthesisOptions sopts;
  sopts.grammar = {Pattern::None, Pattern::ExactlyOnePerStep,
                   Pattern::BurstAtStart2};
  sopts.firstOnly = true;

  Synthesizer sequential(schedulerNet(models::kStrictPriority, "sp", 2),
                         opts);
  const auto expected = sequential.run(query, sopts);
  ASSERT_EQ(expected.solutions.size(), 1u);

  auto plan = std::make_shared<backends::FaultPlan>();
  for (std::size_t cand = 0; cand < 3; ++cand) {
    plan->at("cand" + std::to_string(cand), 0,
             {backends::FaultAction::Kind::Delay, "", 20});
  }
  opts.faultPlan = plan;
  sopts.threads = 4;
  for (int rep = 0; rep < 8; ++rep) {
    sopts.incremental = rep % 2 == 0;
    Synthesizer synth(schedulerNet(models::kStrictPriority, "sp", 2), opts);
    const auto result = synth.run(query, sopts);
    ASSERT_EQ(result.solutions.size(), 1u)
        << "rep " << rep << ": " << result.summary();
    EXPECT_EQ(result.solutions[0].assignment,
              expected.solutions[0].assignment)
        << "rep " << rep;
  }
}

TEST(Synthesizer, CandidateDescribe) {
  Candidate c;
  c.assignment = {{"a", Pattern::None}, {"b", Pattern::BurstAtStart2}};
  const std::string text = c.describe();
  EXPECT_NE(text.find("a:none"), std::string::npos);
  EXPECT_NE(text.find("b:burst2@0"), std::string::npos);
}

}  // namespace
}  // namespace buffy::synth
