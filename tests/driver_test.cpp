// CompilerDriver + backend-registry tests (DESIGN.md §11): the staged
// front half must record per-stage stats, produce shareable
// CompilationUnits that Analysis engines accept interchangeably with the
// legacy Network path, and the registry must expose the four built-in
// back-ends behind capability flags.
#include "pipeline/driver.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "backends/registry.hpp"
#include "helpers.hpp"
#include "support/diagnostics.hpp"
#include "support/error.hpp"

namespace buffy::pipeline {
namespace {

using buffy::testing::schedulerNet;
using buffy::testing::starvationWorkload;

PipelineOptions fastOpts(int horizon) {
  PipelineOptions opts;
  opts.horizon = horizon;
  return opts;
}

core::AnalysisOptions analysisOpts(int horizon) {
  core::AnalysisOptions opts;
  opts.horizon = horizon;
  return opts;
}

// ---------------------------------------------------------------------------
// Front-half stage recording
// ---------------------------------------------------------------------------

TEST(CompilerDriver, RecordsFrontStagesInPipelineOrder) {
  const CompilerDriver driver(fastOpts(4));
  const CompilationUnitPtr unit =
      driver.compile(schedulerNet(models::kRoundRobin, "rr", 2));
  ASSERT_NE(unit, nullptr);

  const PipelineStats& stats = unit->frontStats();
  const char* expected[] = {"parse",     "typecheck", "sem",
                            "inline",    "constfold", "recheck"};
  ASSERT_GE(stats.stages().size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(stats.stages()[i].stage, expected[i]);
    EXPECT_EQ(stats.stages()[i].runs, 1u);
  }
  // parse/inline/constfold record the AST size gauges.
  const StageStats* parse = stats.find("parse");
  ASSERT_NE(parse, nullptr);
  EXPECT_GT(parse->nodes, 0u);
  EXPECT_GT(parse->stmts, 0u);
  // No unroll stage unless requested.
  EXPECT_EQ(stats.find("unroll"), nullptr);
}

TEST(CompilerDriver, UnrollStageAppearsWhenRequested) {
  PipelineOptions opts = fastOpts(4);
  opts.unrollLoops = true;
  const CompilerDriver driver(opts);
  const CompilationUnitPtr unit =
      driver.compile(schedulerNet(models::kRoundRobin, "rr", 2));
  const StageStats* unroll = unit->frontStats().find("unroll");
  ASSERT_NE(unroll, nullptr);
  EXPECT_EQ(unroll->runs, 1u);
}

TEST(CompilerDriver, RecoveryModeBatchesDiagnostics) {
  core::ProgramSpec spec;
  spec.instance = "bad";
  spec.source =
      "bad(buffer ib, buffer ob) {\n"
      "  x = undeclared1;\n"
      "  y = undeclared2;\n"
      "}\n";
  spec.buffers = {
      {.param = "ib", .role = core::BufferSpec::Role::Input, .capacity = 4},
      {.param = "ob", .role = core::BufferSpec::Role::Output, .capacity = 4},
  };
  core::Network net;
  net.add(spec);

  DiagnosticEngine diag;
  const CompilerDriver driver(fastOpts(4));
  const CompilationUnitPtr unit = driver.compile(net, diag, FrontMode::Front);
  ASSERT_NE(unit, nullptr);
  EXPECT_TRUE(diag.hasErrors());
  EXPECT_GE(diag.errorCount(), 2u);
}

// ---------------------------------------------------------------------------
// Shared CompilationUnit across Analysis engines
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Parallel multi-model compilation (compileAll)
// ---------------------------------------------------------------------------

std::vector<core::Network> exampleNetworks() {
  std::vector<core::Network> nets;
  for (const auto& entry : models::allModels()) {
    core::ProgramSpec spec;
    spec.source = entry.source;
    spec.compile.constants = {
        {"N", 2}, {"RATE", 2}, {"BUCKET", 4}, {"RTO", 3}, {"QUANTUM", 2}};
    spec.compile.defaultListCapacity = 2;
    core::Network net;
    net.add(spec);
    nets.push_back(std::move(net));
  }
  return nets;
}

TEST(CompileAll, ResultsKeyedByInputIndexUnderAnyWorkerCount) {
  const CompilerDriver driver(fastOpts(4));
  const CompileAllResult serial =
      driver.compileAll(exampleNetworks(), FrontMode::Lint, 1);
  const CompileAllResult parallel =
      driver.compileAll(exampleNetworks(), FrontMode::Lint, 4);
  const auto& all = models::allModels();
  ASSERT_EQ(serial.units.size(), all.size());
  ASSERT_EQ(parallel.units.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_NE(serial.units[i], nullptr) << all[i].name;
    ASSERT_NE(parallel.units[i], nullptr) << all[i].name;
    // Units land at their input index whatever the completion order...
    EXPECT_EQ(serial.units[i]->instances().front().name,
              parallel.units[i]->instances().front().name);
    // ...and the rendered diagnostics are byte-identical.
    EXPECT_EQ(serial.diags[i].renderAll(), parallel.diags[i].renderAll())
        << all[i].name;
  }
}

TEST(CompileAll, DiagnosticsStayPerModel) {
  std::vector<core::Network> nets = exampleNetworks();
  core::ProgramSpec bad;
  bad.instance = "bad";
  bad.source = "bad(buffer ib, buffer ob) { x = nope; }\n";
  core::Network badNet;
  badNet.add(bad);
  nets.insert(nets.begin() + 3, std::move(badNet));

  const CompilerDriver driver(fastOpts(4));
  const CompileAllResult result =
      driver.compileAll(std::move(nets), FrontMode::Lint, 4);
  for (std::size_t i = 0; i < result.diags.size(); ++i) {
    EXPECT_EQ(result.diags[i].hasErrors(), i == 3) << i;
  }
}

TEST(CompileAll, EmptyInputAndZeroJobsAreSafe) {
  const CompilerDriver driver(fastOpts(4));
  const CompileAllResult empty = driver.compileAll({}, FrontMode::Lint, 4);
  EXPECT_TRUE(empty.units.empty());
  // jobs == 0 clamps to one worker instead of deadlocking.
  const CompileAllResult one =
      driver.compileAll(exampleNetworks(), FrontMode::Lint, 0);
  EXPECT_EQ(one.units.size(), models::allModels().size());
}

TEST(CompilationUnitSharing, UnitAndNetworkPathsAgree) {
  const core::AnalysisOptions opts = analysisOpts(5);
  const core::Workload workload = starvationWorkload("fq", 5);
  const core::Query query = core::Query::expr(
      "fq.cdeq.0[T-1] >= T-1 & fq.cdeq.1[T-1] <= 1 & "
      "fq.ibs.1.backlog[T-1] > 0");

  core::Analysis fromNet(schedulerNet(models::kFairQueueBuggy, "fq", 2),
                         opts);
  fromNet.setWorkload(workload);
  const auto netResult = fromNet.check(query);

  const CompilerDriver driver(core::pipelineOptionsFor(opts));
  const CompilationUnitPtr unit =
      driver.compile(schedulerNet(models::kFairQueueBuggy, "fq", 2));
  core::Analysis fromUnit(unit, opts);
  fromUnit.setWorkload(workload);
  const auto unitResult = fromUnit.check(query);

  EXPECT_EQ(netResult.verdict, unitResult.verdict);
  EXPECT_EQ(netResult.verdict, core::Verdict::Satisfiable);
}

TEST(CompilationUnitSharing, OneUnitServesManyEngines) {
  const core::AnalysisOptions opts = analysisOpts(5);
  const CompilerDriver driver(core::pipelineOptionsFor(opts));
  const CompilationUnitPtr unit =
      driver.compile(schedulerNet(models::kFairQueueFixed, "fq", 2));

  // Two engines over the same immutable unit, different queries.
  core::Analysis a(unit, opts);
  a.setWorkload(starvationWorkload("fq", 5));
  EXPECT_EQ(a.verify(core::Query::expr("fq.cdeq.1[T-1] >= 2")).verdict,
            core::Verdict::Verified);

  core::Analysis b(unit, opts);
  b.setWorkload(starvationWorkload("fq", 5));
  EXPECT_EQ(b.check(core::Query::expr("fq.cdeq.1[T-1] >= 2")).verdict,
            core::Verdict::Satisfiable);
}

TEST(CompilationUnitSharing, MismatchedOptionsRejected) {
  const CompilerDriver driver(fastOpts(4));
  const CompilationUnitPtr unit =
      driver.compile(schedulerNet(models::kRoundRobin, "rr", 2));
  EXPECT_THROW(core::Analysis(unit, analysisOpts(7)), AnalysisError);
  EXPECT_THROW(core::Analysis(CompilationUnitPtr(), analysisOpts(4)),
               AnalysisError);
}

// ---------------------------------------------------------------------------
// Per-stage observability on AnalysisResult
// ---------------------------------------------------------------------------

TEST(StageTimings, CheckPopulatesPipelineStats) {
  core::Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2),
                          analysisOpts(4));
  core::Workload w;
  w.add(core::Workload::perStepCount("rr.ibs.0", 1, 1));
  analysis.setWorkload(w);
  const auto result = analysis.check(core::Query::expr("rr.cdeq.0[T-1] >= 1"));
  ASSERT_EQ(result.verdict, core::Verdict::Satisfiable);

  const PipelineStats& stats = result.pipeline;
  ASSERT_FALSE(stats.empty());
  for (const char* name : {"parse", "typecheck", "encode", "solve"}) {
    const StageStats* row = stats.find(name);
    ASSERT_NE(row, nullptr) << name;
    EXPECT_GE(row->runs, 1u) << name;
  }
  const StageStats* encode = stats.find("encode");
  EXPECT_GT(encode->nodes, 0u);
  // The JSON rendering carries every row.
  const std::string json = stats.toJson();
  EXPECT_NE(json.find("\"stage\":\"solve\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Backend registry
// ---------------------------------------------------------------------------

TEST(BackendRegistry, BuiltinsRegisteredWithCapabilities) {
  auto& reg = backends::BackendRegistry::instance();
  const auto names = reg.names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names[0], "z3");
  EXPECT_EQ(names[1], "smtlib");
  EXPECT_EQ(names[2], "dafny");
  EXPECT_EQ(names[3], "interp");

  EXPECT_TRUE(reg.get("z3").capabilities().solve);
  EXPECT_TRUE(reg.get("z3").capabilities().witnessExtraction);
  EXPECT_TRUE(reg.get("smtlib").capabilities().solve);
  EXPECT_TRUE(reg.get("smtlib").capabilities().emitText);
  EXPECT_FALSE(reg.get("dafny").capabilities().solve);
  EXPECT_TRUE(reg.get("dafny").capabilities().emitText);
  EXPECT_TRUE(reg.get("interp").capabilities().concreteSim);
  EXPECT_FALSE(reg.get("interp").capabilities().solve);
}

TEST(BackendRegistry, UnknownNameHandled) {
  auto& reg = backends::BackendRegistry::instance();
  EXPECT_EQ(reg.find("bogus"), nullptr);
  EXPECT_THROW(reg.get("bogus"), BackendError);
}

TEST(BackendRegistry, MissingCapabilityThrows) {
  core::Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2),
                          analysisOpts(4));
  auto& reg = backends::BackendRegistry::instance();
  // dafny cannot solve; interp cannot emit.
  EXPECT_THROW(reg.get("dafny").solve(analysis,
                                      core::Query::expr("rr.cdeq.0[T-1] >= 0"),
                                      false),
               BackendError);
  EXPECT_THROW(reg.get("interp").emit(
                   analysis, core::Query::expr("rr.cdeq.0[T-1] >= 0"), false),
               BackendError);
}

TEST(BackendRegistry, SmtLibBackendAgreesWithZ3) {
  const core::AnalysisOptions opts = analysisOpts(5);
  const CompilerDriver driver(core::pipelineOptionsFor(opts));
  const CompilationUnitPtr unit =
      driver.compile(schedulerNet(models::kFairQueueFixed, "fq", 2));
  auto& reg = backends::BackendRegistry::instance();
  const core::Query query = core::Query::expr("fq.cdeq.1[T-1] >= 2");

  core::Analysis viaZ3(unit, opts);
  viaZ3.setWorkload(starvationWorkload("fq", 5));
  const auto z3Result = reg.get("z3").solve(viaZ3, query, /*forVerify=*/true);

  core::Analysis viaText(unit, opts);
  viaText.setWorkload(starvationWorkload("fq", 5));
  const auto textResult =
      reg.get("smtlib").solve(viaText, query, /*forVerify=*/true);

  EXPECT_EQ(z3Result.verdict, core::Verdict::Verified);
  EXPECT_EQ(textResult.verdict, z3Result.verdict);
  // The text path still reports pipeline stats including the solve row.
  EXPECT_NE(textResult.pipeline.find("solve"), nullptr);
}

TEST(BackendRegistry, DafnyBackendEmitsProgramText) {
  core::Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2),
                          analysisOpts(4));
  auto& reg = backends::BackendRegistry::instance();
  const std::string text = reg.get("dafny").emit(
      analysis, core::Query::expr("rr.cdeq.0[T-1] >= 0"), false);
  EXPECT_NE(text.find("method"), std::string::npos);
}

}  // namespace
}  // namespace buffy::pipeline
