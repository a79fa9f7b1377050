// End-to-end tests of the `buffy` command-line driver (tools/buffy_cli).
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

#ifndef BUFFY_CLI_PATH
#error "BUFFY_CLI_PATH must be defined by the build"
#endif
#ifndef BUFFY_MODELS_DIR
#error "BUFFY_MODELS_DIR must be defined by the build"
#endif

struct CommandResult {
  int exitCode = -1;
  std::string output;
};

/// Runs a shell command line, collecting its stdout.
CommandResult runRaw(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  CommandResult result;
  std::array<char, 4096> buffer{};
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exitCode = WEXITSTATUS(status);
  return result;
}

CommandResult runCli(const std::string& args) {
  return runRaw(std::string(BUFFY_CLI_PATH) + " " + args + " 2>&1");
}

std::string model(const char* name) {
  return std::string(BUFFY_MODELS_DIR) + "/" + name;
}

std::string corpusFile(const char* name) {
  return std::string(BUFFY_TESTS_CORPUS_DIR) + "/" + name;
}

/// Writes `source` under the test temp dir and returns the path.
std::string writeTemp(const char* name, const std::string& source) {
  const std::string path =
      testing::TempDir() + "buffy_cli_" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f != nullptr) {
    std::fwrite(source.data(), 1, source.size(), f);
    std::fclose(f);
  }
  return path;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// Models that still reach Z3 (DESIGN.md §7): the initial rung enumerates
// every example model, so the tests that need Z3 write their own.

/// path_server without `assume(waste >= 0)`: the havoc has no bound at all,
/// so the raw problem declines and the planned one goes to Z3. Each test
/// names its own copy, since ctest runs tests in parallel processes.
std::string unboundedPathServer(const char* name) {
  std::string source = readFile(model("path_server.bfy"));
  const std::string assume = "  assume(waste >= 0);\n";
  source.erase(source.find(assume), assume.size());
  return writeTemp(name, source);
}

/// fq_buggy with an unbounded havoc in an in-program assert. The assert
/// holds for every value (h % 2 is 0 or 1), so the optimizer plans it away
/// and Z3 solves the same problem as for fq_buggy; only the raw
/// enumeration declines. Tests that run in parallel name their own copy.
std::string fqBuggyWithUnboundedHavoc(const char* name = "fq_havoc.bfy") {
  std::string source = readFile(model("fq_buggy.bfy"));
  const std::string header = "fq(buffer[N] ibs, buffer ob) {\n";
  source.insert(source.find(header) + header.size(),
                "  havoc int h;\n  assert(h % 2 <= 1);\n");
  return writeTemp(name, source);
}

/// The number after the first `"key":` in `json` at or after `from`; -1
/// when there is none.
double jsonNumber(const std::string& json, const std::string& key,
                  std::size_t from) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = json.find(tag, from);
  if (at == std::string::npos) return -1;
  return std::stod(json.substr(at + tag.size()));
}

TEST(Cli, PrintRoundTrips) {
  const auto result =
      runCli("print -D N=2 " + model("strict_priority.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("sp(buffer[2] ibs, buffer ob)"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("move-p(ibs[i], ob, 1);"), std::string::npos);
}

TEST(Cli, WarmCacheRepeatsVerdict) {
  // Tier-1 smoke for the verdict cache (DESIGN.md §14): the second run
  // answers from the --cache-dir record with the identical verdict.
  const std::string dir = testing::TempDir() + "buffy_cli_cache_smoke_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string cmd =
      "check -T 4 -D N=2 --input ibs:6:2 --output ob:16 "
      "--query \"sp.cdeq.0[T-1] >= 0\" --cache-dir " +
      dir + " --json " + model("strict_priority.bfy");
  const auto cold = runCli(cmd);
  const auto warm = runCli(cmd);
  EXPECT_EQ(cold.exitCode, 0) << cold.output;
  EXPECT_EQ(warm.exitCode, 0) << warm.output;
  EXPECT_NE(cold.output.find("\"cached\":false"), std::string::npos)
      << cold.output;
  EXPECT_NE(warm.output.find("\"cached\":true"), std::string::npos)
      << warm.output;
  EXPECT_NE(warm.output.find("\"verdict\":\"SATISFIABLE\""),
            std::string::npos)
      << warm.output;
}

TEST(Cli, CheckFindsStarvation) {
  const auto result = runCli(
      "check -T 5 -D N=2 --instance fq --input ibs:6:3 --output ob:32 "
      "--workload fq.ibs.0:0:1 --workload fq.ibs.1@0:3:3 "
      "--workload fq.ibs.1@1:0:0 --workload fq.ibs.1@2:0:0 "
      "--workload fq.ibs.1@3:0:0 --workload fq.ibs.1@4:0:0 "
      "--query \"fq.cdeq.0[T-1] >= T-1 & fq.cdeq.1[T-1] <= 1\" " +
      model("fq_buggy.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("SATISFIABLE"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("fq.cdeq.0"), std::string::npos);
}

TEST(Cli, VerifyRoundRobinFairness) {
  const auto result = runCli(
      "verify -T 4 -D N=2 --instance rr --input ibs:6:2 --output ob:32 "
      "--workload rr.ibs.0:1:2 --workload rr.ibs.1:1:2 "
      "--query \"rr.cdeq.0[T-1] <= T/2 + 1\" " +
      model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("VERIFIED"), std::string::npos)
      << result.output;
}

TEST(Cli, SimulateProducesTrace) {
  const auto result = runCli(
      "simulate -T 3 -D N=2 --instance rr --input ibs:4:2 --output ob:16 "
      "--arrive rr.ibs.0=1,1,1 " +
      model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("rr.cdeq.0"), std::string::npos);
  EXPECT_NE(result.output.find("t2"), std::string::npos);
}

TEST(Cli, EmitSmt2) {
  const auto result = runCli(
      "emit-smt2 -T 3 -D N=2 --instance sp --input ibs:4:2 --output ob:16 "
      "--query \"sp.cdeq.0[T-1] >= 1\" " +
      model("strict_priority.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("(set-logic QF_LIA)"), std::string::npos);
  EXPECT_NE(result.output.find("(check-sat)"), std::string::npos);
}

TEST(Cli, EmitDafny) {
  const auto result = runCli("emit-dafny -T 2 -D N=2 --input ibs:4:2 " +
                             model("fq_buggy.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("method CheckFq()"), std::string::npos)
      << result.output;
}

TEST(Cli, UnrollFlagPrintsUnrolledProgram) {
  const auto result =
      runCli("print --unroll -D N=2 " + model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_EQ(result.output.find("for ("), std::string::npos) << result.output;
}

TEST(Cli, ProveUnbounded) {
  // Listing state variables...
  const auto listing = runCli(
      "prove -D N=2 --instance rr --input ibs:4:2 --output ob:16 " +
      model("round_robin.bfy"));
  EXPECT_EQ(listing.exitCode, 0) << listing.output;
  EXPECT_NE(listing.output.find("rr.cdeq.0"), std::string::npos);
  // ...and proving an invariant for an unbounded horizon.
  const auto proof = runCli(
      "prove -D N=2 --instance rr --input ibs:4:2 --output ob:16 "
      "--model counter --query \"rr.cdeq.0[0] >= 0\" " +
      model("round_robin.bfy"));
  EXPECT_EQ(proof.exitCode, 0) << proof.output;
  EXPECT_NE(proof.output.find("PROVED"), std::string::npos) << proof.output;
}

TEST(Cli, ProveStopsOnFirstSigint) {
  // Spacer takes 17-18 s to find this violation (Z3 4.8.12, 4-core host).
  // One SIGINT a second in must stop it: UNKNOWN "interrupted", exit 130,
  // long before the proof would have finished.
  const std::string command =
      std::string("sh -c '") + BUFFY_CLI_PATH +
      " prove -D N=2 --input ibs:6:3 --output ob:32 --timeout 60000"
      " --query \"fq.cdeq.0[0] <= fq.cdeq.1[0] + 22\" " +
      model("fq_buggy.bfy") +
      " 2>&1 & pid=$!; sleep 1; kill -INT $pid; wait $pid; exit $?'";
  const auto start = std::chrono::steady_clock::now();
  const auto result = runRaw(command);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(result.exitCode, 130) << result.output;
  EXPECT_NE(result.output.find("UNKNOWN"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("interrupted"), std::string::npos)
      << result.output;
  EXPECT_LT(seconds, 6.0) << result.output;
}

TEST(Cli, ProveTimeoutIsUnknown) {
  // Spacer needs 17-18 s for this refutation (Z3 4.8.12, 4-core host). A
  // 2 s timeout runs out first: UNKNOWN "timeout", exit 3, not an
  // internal failure.
  const auto start = std::chrono::steady_clock::now();
  const auto result = runCli(
      "prove -D N=2 --input ibs:6:3 --output ob:32 --timeout 2000"
      " --query \"fq.cdeq.0[0] <= fq.cdeq.1[0] + 22\" " +
      model("fq_buggy.bfy"));
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(result.exitCode, 3) << result.output;
  EXPECT_NE(result.output.find("UNKNOWN"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("timeout"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("solver failure"), std::string::npos)
      << result.output;
  EXPECT_LT(seconds, 10.0) << result.output;
}

TEST(Cli, LintCommand) {
  const auto clean = runCli("lint -D N=2 --input ibs --output ob " +
                            model("round_robin.bfy"));
  EXPECT_EQ(clean.exitCode, 0) << clean.output;
  EXPECT_NE(clean.output.find("clean"), std::string::npos);
}

TEST(Cli, JobsFlagIsDeterministic) {
  // Multi-file compilation fans out across a JobPool; --jobs N must
  // produce byte-identical output and exit code to --jobs 1 (DESIGN.md
  // §16 determinism rule). Mix clean and broken inputs so both the
  // diagnostic and success paths are exercised.
  const std::string files = model("round_robin.bfy") + " " +
                            model("strict_priority.bfy") + " " +
                            corpusFile("multi_err.bfy") + " " +
                            model("delay_server.bfy");
  const std::string flags = "lint -D N=2 -D RTO=3 ";
  const auto serial = runCli(flags + "--jobs 1 " + files);
  const auto parallel = runCli(flags + "--jobs 4 " + files);
  EXPECT_EQ(serial.exitCode, 2) << serial.output;
  EXPECT_EQ(parallel.exitCode, serial.exitCode);
  EXPECT_EQ(parallel.output, serial.output);

  const std::string cleanFiles =
      model("round_robin.bfy") + " " + model("strict_priority.bfy");
  const auto printSerial =
      runCli("print -D N=2 --jobs 1 " + cleanFiles);
  const auto printParallel =
      runCli("print -D N=2 --jobs 4 " + cleanFiles);
  EXPECT_EQ(printSerial.exitCode, 0) << printSerial.output;
  EXPECT_EQ(printParallel.output, printSerial.output);
}

TEST(Cli, CsvFormat) {
  const auto result = runCli(
      "simulate -T 2 -D N=2 --instance rr --input ibs:4:2 --output ob:16 "
      "--arrive rr.ibs.0=1,1 --format csv " +
      model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("series,t0,t1"), std::string::npos);
  EXPECT_NE(result.output.find("rr.cdeq.0,1,2"), std::string::npos);
}

/// Splits one RFC 4180 record into its fields.
std::vector<std::string> csvFields(const std::string& row) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const char c = row[i];
    if (quoted && c == '"' && i + 1 < row.size() && row[i + 1] == '"') {
      fields.back() += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

TEST(Cli, SweepCsvQuotesFields) {
  const std::vector<std::string> queries = {"sum(fq.cdeq.0, 0, T) >= 0",
                                            "fq.cdeq.1[T-1] >= min(1, T-2)"};
  const auto result = runCli(
      "verify -D N=2 --input ibs:6:3 --output ob:32 "
      "--workload fq.ibs.0:0:1 --no-cache --query \"" +
      queries[0] + "\" --query \"" + queries[1] +
      "\" --sweep 2:3 --format csv " + model("fq_fixed.bfy"));
  std::istringstream lines(result.output);
  std::vector<std::vector<std::string>> rows;
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) rows.push_back(csvFields(line));
  }
  // The header plus 2 horizons x 2 queries, every row 6 fields wide.
  ASSERT_EQ(rows.size(), 5u) << result.output;
  std::vector<std::string> seen;
  for (const auto& row : rows) {
    ASSERT_EQ(row.size(), 6u) << result.output;
    if (row[0] != "horizon") seen.push_back(row[1]);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<std::string> want = {queries[0], queries[0], queries[1],
                                   queries[1]};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(seen, want) << result.output;
}

TEST(Cli, ArriveRejectsMalformedCounts) {
  for (const char* counts : {"1,-1,1", "1x,0"}) {
    const auto result = runCli(
        "simulate -T 3 -D N=2 --input ibs:6:3 --output ob:32 "
        "--arrive fq.ibs.0=" +
        std::string(counts) + " " + model("fq_buggy.bfy"));
    EXPECT_EQ(result.exitCode, 2) << counts << "\n" << result.output;
    EXPECT_NE(result.output.find("--arrive"), std::string::npos)
        << result.output;
  }
}

TEST(Cli, BadUsageErrors) {
  EXPECT_EQ(runCli("").exitCode, 2);
  EXPECT_EQ(runCli("check").exitCode, 2);
  EXPECT_EQ(runCli("frobnicate " + model("round_robin.bfy")).exitCode, 2);
  EXPECT_EQ(runCli("check --query \"x[0] > 0\" /nonexistent.bfy").exitCode,
            2);
  // Semantic failure (missing constant binding) is an input error too.
  const auto result =
      runCli("check --instance rr --input ibs --output ob --query "
             "\"rr.cdeq.0[0] >= 0\" " +
             model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 2) << result.output;
}

// --- Resilience exit paths (DESIGN.md §8), driven via the hidden
// --- --inject-fault test seam.

namespace resilience {

const char* kCheckArgs =
    "check -T 4 -D N=2 --instance rr --input ibs:4:2 --output ob:16 "
    "--workload rr.ibs.0:1:1 --workload rr.ibs.1:0:1 "
    "--query \"rr.cdeq.0[T-1] >= 1\" ";

/// The §6.1 starvation counterexample at T=10: queue 0 is silent after
/// step 0, so "queue 0 is served at least once" is VIOLATED.
const char* kStarvationVerifyArgs =
    "verify -T 10 -D N=2 --input ibs:6:3 --output ob:32 "
    "--workload fq.ibs.0:0:1 --no-cache "
    "--query \"fq.cdeq.0[T-1] >= 1\" ";

}  // namespace resilience

TEST(Cli, ExitCodeUnknownAfterLadderExhaustion) {
  // Force every rung of the retry ladder (initial, reseed, escalate is
  // skipped without an rlimit/timeout... so pin an rlimit to enable it,
  // then kill all four attempts).
  const auto result = runCli(
      std::string(resilience::kCheckArgs) + "--rlimit 100000000 " +
      "--inject-fault 0:unknown --inject-fault 1:unknown "
      "--inject-fault 2:unknown --inject-fault 3:unknown " +
      model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 3) << result.output;
  EXPECT_NE(result.output.find("UNKNOWN"), std::string::npos) << result.output;
  // The attempt log names every rung.
  EXPECT_NE(result.output.find("initial"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("reseed"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("escalate"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("smtlib"), std::string::npos) << result.output;
}

TEST(Cli, ExhaustedRlimitEscalatesInsteadOfCanceling) {
  // The first two rungs run out of rlimit. Z3 words that as "canceled",
  // but nothing interrupted the query, so the ladder must escalate and
  // answer rather than stop at a cancellation (exit 3). Measured with
  // Z3 4.8.12: the initial rung needs 228,643 units and the reseed rung
  // 355,257, both over 140,000; the x4 escalate rung answers in 339,527
  // of its 560,000.
  const auto result = runCli(std::string(resilience::kStarvationVerifyArgs) +
                             "--json --rlimit 140000 " +
                             fqBuggyWithUnboundedHavoc());
  EXPECT_EQ(result.exitCode, 1) << result.output;
  EXPECT_NE(result.output.find("\"verdict\":\"VIOLATED\""), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"stage\":\"escalate\",\"outcome\":\"sat\""),
            std::string::npos)
      << result.output;
  // "canceled":false is the only mention of cancellation: no attempt
  // reason may say it.
  std::string rest = result.output;
  const std::string flag = "\"canceled\":false";
  ASSERT_NE(rest.find(flag), std::string::npos) << result.output;
  for (std::size_t at = rest.find(flag); at != std::string::npos;
       at = rest.find(flag)) {
    rest.erase(at, flag.size());
  }
  EXPECT_EQ(rest.find("cancel"), std::string::npos) << result.output;
}

TEST(Cli, StarvationViolationFitsDeterministicRlimit) {
  // A guard against a slow native solve path that does not depend on host
  // speed: rlimit counts solver work. The unbounded havoc declines the
  // enumeration, so Z3 answers the §6.1 verify at T=10; its one-shot solve
  // used 228,643 units (Z3 4.8.12), under a thirteenth of the limit.
  const auto result = runCli(
      std::string(resilience::kStarvationVerifyArgs) +
      "--json --rlimit 3000000 --no-retry " +
      fqBuggyWithUnboundedHavoc("fq_havoc_rlimit.bfy"));
  EXPECT_EQ(result.exitCode, 1) << result.output;
  EXPECT_NE(result.output.find("\"verdict\":\"VIOLATED\""), std::string::npos)
      << result.output;
  // Fails loudly if enumeration takes the problem over again.
  EXPECT_NE(result.output.find("\"stage\":\"initial\",\"outcome\":\"sat\","
                               "\"solver\":\"z3\""),
            std::string::npos)
      << result.output;
}

TEST(Cli, RetryLadderRecoversFromTransientUnknown) {
  // Only the initial attempt fails; the reseed rung answers.
  const auto result =
      runCli(std::string(resilience::kCheckArgs) + "--inject-fault 0:unknown " +
             model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("SATISFIABLE"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("reseed"), std::string::npos) << result.output;
}

TEST(Cli, ExitCodeInternalOnSolverCrash) {
  const auto result =
      runCli(std::string(resilience::kCheckArgs) +
             "--inject-fault 0:throw:solver-crash " + model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 4) << result.output;
  EXPECT_NE(result.output.find("solver-crash"), std::string::npos)
      << result.output;
}

TEST(Cli, ExitCodeViolationOnWitnessMismatch) {
  const auto result = runCli(std::string(resilience::kCheckArgs) +
                             "--inject-fault 0:corrupt-witness " +
                             model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 1) << result.output;
  EXPECT_NE(result.output.find("WITNESS-MISMATCH"), std::string::npos)
      << result.output;
}

TEST(Cli, JsonFormatCarriesVerdictAndAttempts) {
  const auto result =
      runCli(std::string(resilience::kCheckArgs) +
             "--format json --inject-fault 0:unknown:flaky " +
             model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("\"verdict\":\"SATISFIABLE\""),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"exitCode\":0"), std::string::npos);
  EXPECT_NE(result.output.find("\"stage\":\"reseed\""), std::string::npos);
  EXPECT_NE(result.output.find("\"reason\":\"flaky\""), std::string::npos);
  EXPECT_NE(result.output.find("\"witnessChecked\":true"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"trace\":{"), std::string::npos);
}

// The initial attempt names its engine (DESIGN.md §7): memoized
// enumeration of the raw problem when every variable has a lower bound and
// the one-sided ones saturate, else Z3.
TEST(Cli, SmallFiniteDomainQueryEnumerates) {
  const auto result = runCli(std::string(resilience::kCheckArgs) + "--json " +
                             model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("\"stage\":\"initial\",\"outcome\":\"sat\","
                               "\"solver\":\"enumerate\""),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"witnessChecked\":true"), std::string::npos)
      << result.output;
}

TEST(Cli, OneSidedHavocQueryEnumerates) {
  // path_server's havoc `waste` has a lower bound only; each step's copy
  // gets a derived threshold, and the attempt reports the search.
  const auto result = runCli(
      "check -T 4 -D RATE=1 -D BUCKET=2 --input pin:8:2 --output pout:16 "
      "--json --query \"path.mserved[T-1] >= 2\" " +
      model("path_server.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("\"stage\":\"initial\",\"outcome\":\"sat\","
                               "\"solver\":\"enumerate\""),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"saturated\":4"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("\"visited\":0,"), std::string::npos)
      << result.output;
}

TEST(Cli, EnumeratedAttemptSplitsOutItsSetUp) {
  // The enumerator's construction (domains, the one-sided havocs'
  // thresholds, the dead-set layout) is part of the attempt's time.
  const auto result = runCli(
      "check -T 4 -D RATE=1 -D BUCKET=2 --input pin:8:2 --output pout:16 "
      "--json --no-cache --query \"path.mserved[T-1] >= 2\" " +
      model("path_server.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  const std::size_t attempt =
      result.output.find("\"stage\":\"initial\",\"outcome\":\"sat\","
                         "\"solver\":\"enumerate\"");
  ASSERT_NE(attempt, std::string::npos) << result.output;
  const double seconds = jsonNumber(result.output, "seconds", attempt);
  const double setup = jsonNumber(result.output, "setupSeconds", attempt);
  EXPECT_GT(setup, 0.0) << result.output;
  EXPECT_LE(setup, seconds) << result.output;
}

TEST(Cli, UnboundedHavocQueryUsesZ3) {
  // A havoc with no bound declines the enumeration; Z3 answers in the
  // same attempt.
  const auto result = runCli(
      "check -T 4 -D RATE=1 -D BUCKET=2 --input pin:8:2 --output pout:16 "
      "--json --query \"path.mserved[T-1] >= 0\" " +
      unboundedPathServer("path_unbounded_z3.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("\"stage\":\"initial\",\"outcome\":\"sat\","
                               "\"solver\":\"z3\""),
            std::string::npos)
      << result.output;
}

TEST(Cli, WorkAboveTheBoundUsesZ3) {
  // Three steps of a havoc in [0, 100000] summed into a monitor: the
  // partial sums hardly repeat, so the search spends its evaluation
  // budget and declines, and Z3 finds the model in the same attempt.
  const std::string wide = writeTemp("wide_havoc.bfy",
                                     "p(buffer ib, buffer ob) {\n"
                                     "  global monitor int total;\n"
                                     "  havoc int h;\n"
                                     "  assume(h >= 0);\n"
                                     "  assume(h <= 100000);\n"
                                     "  total = total + h;\n"
                                     "  move-p(ib, ob, 1);\n"
                                     "}\n");
  const auto result = runCli(
      "check -T 3 --input ib:4:1 --output ob:8 --no-cache --json "
      "--query \"p.total[T-1] == 299999\" " +
      wide);
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("\"verdict\":\"SATISFIABLE\""),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"solver\":\"z3\""), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("\"solver\":\"enumerate\""),
            std::string::npos)
      << result.output;
}

TEST(Cli, JsonFormatCarriesOptBlock) {
  // Only a query that reaches Z3 is planned.
  const auto result = runCli(
      "check -T 4 -D RATE=1 -D BUCKET=2 --input pin:8:2 --output pout:16 "
      "--format json --query \"path.mserved[T-1] >= 0\" " +
      unboundedPathServer("path_unbounded_opt.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("\"opt\":{"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"nodesBefore\":"), std::string::npos);
  EXPECT_NE(result.output.find("\"assertionsSliced\":"), std::string::npos);
  EXPECT_NE(result.output.find("\"pass\":\"rewrite\""), std::string::npos);
  // An enumerated query builds no plan.
  const auto enumerated =
      runCli(std::string(resilience::kCheckArgs) + "--format json " +
             model("round_robin.bfy"));
  EXPECT_EQ(enumerated.exitCode, 0) << enumerated.output;
  EXPECT_EQ(enumerated.output.find("\"opt\":{"), std::string::npos)
      << enumerated.output;
}

TEST(Cli, StageTimingsCarryPipelineBlock) {
  // --json --stage-timings: per-stage accounting from the one shared
  // CompilerDriver front half, plus encode/optimize/solve rows.
  const auto result =
      runCli(std::string(resilience::kCheckArgs) +
             "--json --stage-timings " + model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("\"pipeline\":["), std::string::npos)
      << result.output;
  for (const char* stage : {"parse", "typecheck", "sem", "inline",
                            "constfold", "recheck", "encode", "solve"}) {
    EXPECT_NE(result.output.find(std::string("\"stage\":\"") + stage + "\""),
              std::string::npos)
        << stage << "\n"
        << result.output;
  }
  // Without the flag the block stays out of the json.
  const auto quiet = runCli(std::string(resilience::kCheckArgs) +
                            "--json " + model("round_robin.bfy"));
  EXPECT_EQ(quiet.output.find("\"pipeline\":["), std::string::npos)
      << quiet.output;
}

TEST(Cli, BackendSelectsSmtLibPath) {
  const auto result = runCli(std::string(resilience::kCheckArgs) +
                             "--backend smtlib " + model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("SATISFIABLE"), std::string::npos)
      << result.output;
}

TEST(Cli, BackendCapabilityMismatchIsUsageError) {
  // dafny registers emit-only: asking it to solve is a usage error (2).
  const auto result = runCli(std::string(resilience::kCheckArgs) +
                             "--backend dafny " + model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 2) << result.output;
  EXPECT_NE(result.output.find("cannot solve queries"), std::string::npos)
      << result.output;
}

TEST(Cli, UnknownBackendIsUsageError) {
  const auto result = runCli(std::string(resilience::kCheckArgs) +
                             "--backend cvc5 " + model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 2) << result.output;
  EXPECT_NE(result.output.find("unknown backend 'cvc5'"), std::string::npos)
      << result.output;
}

TEST(Cli, NoOptDisablesOptimizer) {
  // --no-opt: same verdict, no opt accounting in the json.
  const auto on =
      runCli(std::string(resilience::kCheckArgs) + "--format json " +
             model("round_robin.bfy"));
  const auto off =
      runCli(std::string(resilience::kCheckArgs) + "--format json --no-opt " +
             model("round_robin.bfy"));
  EXPECT_EQ(on.exitCode, 0) << on.output;
  EXPECT_EQ(off.exitCode, 0) << off.output;
  EXPECT_NE(on.output.find("\"verdict\":\"SATISFIABLE\""), std::string::npos);
  EXPECT_NE(off.output.find("\"verdict\":\"SATISFIABLE\""),
            std::string::npos)
      << off.output;
  EXPECT_EQ(off.output.find("\"opt\":{"), std::string::npos) << off.output;
}

// --- Compiler hardening (DESIGN.md §10): batched diagnostics, budget
// --- governor exit paths.

TEST(Cli, LintBatchesMultipleDiagnostics) {
  // >= 3 distinct syntax/type errors -> >= 3 located diagnostics in ONE
  // run, exit code 2 (the ISSUE acceptance scenario).
  const auto result = runCli("lint " + corpusFile("multi_err.bfy"));
  EXPECT_EQ(result.exitCode, 2) << result.output;
  std::size_t located = 0;
  for (std::size_t at = result.output.find(": error: ");
       at != std::string::npos; at = result.output.find(": error: ", at + 1)) {
    ++located;
  }
  EXPECT_GE(located, 3u) << result.output;
}

TEST(Cli, CheckReportsAllFrontEndErrorsBeforeFailing) {
  // Non-lint commands run the same batched front half and refuse to
  // continue, still showing every diagnostic.
  const auto result = runCli("check --query \"x[0] >= 0\" " +
                             corpusFile("multi_err.bfy"));
  EXPECT_EQ(result.exitCode, 2) << result.output;
  EXPECT_NE(result.output.find("4:"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("5:"), std::string::npos) << result.output;
}

TEST(Cli, UnrollBombExitsWithBudgetCode) {
  const std::string bomb = writeTemp(
      "bomb.bfy",
      "bomb() {\n"
      "  global int x;\n"
      "  for (i in 0..1000000000) do { x = x + 1; }\n"
      "}\n");
  const auto result =
      runCli("check --query \"bomb.x[0] >= 0\" --instance bomb " + bomb);
  EXPECT_EQ(result.exitCode, 5) << result.output;
  EXPECT_NE(result.output.find("budget exceeded"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("--max-"), std::string::npos) << result.output;
}

TEST(Cli, BudgetJsonStatus) {
  const std::string bomb = writeTemp(
      "bomb_json.bfy",
      "bomb() {\n"
      "  global int x;\n"
      "  for (i in 0..1000000000) do { x = x + 1; }\n"
      "}\n");
  const auto result = runCli(
      "check --format json --query \"bomb.x[0] >= 0\" --instance bomb " +
      bomb);
  EXPECT_EQ(result.exitCode, 5) << result.output;
  EXPECT_NE(result.output.find("\"verdict\":\"BUDGET-EXCEEDED\""),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"exitCode\":5"), std::string::npos);
  EXPECT_NE(result.output.find("\"resource\":"), std::string::npos);
  EXPECT_NE(result.output.find("\"limit\":"), std::string::npos);
}

TEST(Cli, MaxFlagsTightenAndNoBudgetLifts) {
  // The same clean program: fine by default, over a --max-depth 2 cap,
  // and fine again under --no-budget.
  const auto ok = runCli("lint " + corpusFile("clean.bfy"));
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
  const auto capped = runCli("lint --max-depth 2 " + corpusFile("clean.bfy"));
  EXPECT_EQ(capped.exitCode, 5) << capped.output;
  EXPECT_NE(capped.output.find("nesting-depth"), std::string::npos)
      << capped.output;
  const auto lifted =
      runCli("lint --no-budget " + corpusFile("clean.bfy"));
  EXPECT_EQ(lifted.exitCode, 0) << lifted.output;
}

TEST(Cli, DeepNestingRejectedStructurally) {
  std::string deep = "p() {\n  global int x;\n";
  for (int i = 0; i < 5000; ++i) deep += "if (x >= 0) {";
  deep += "x = 1;";
  for (int i = 0; i < 5000; ++i) deep += "}";
  deep += "\n}\n";
  const auto result = runCli("lint " + writeTemp("deep.bfy", deep));
  EXPECT_EQ(result.exitCode, 5) << result.output;
  EXPECT_NE(result.output.find("nesting-depth"), std::string::npos)
      << result.output;
}

// A --query nested past the cap is a budget error, like a deep model, not
// a stack overflow; --no-budget lifts the cap for queries too.
TEST(Cli, DeepQueryHitsNestingDepthNotTheStack) {
  const auto nested = [](std::size_t depth) {
    return "--query \"" + std::string(depth, '(') + "rr.cdeq.0[T-1]" +
           std::string(depth, ')') + " >= 0\" ";
  };
  const std::string args =
      "check -T 2 -D N=2 --input ibs:6:2 --output ob:16 --no-cache ";
  const std::string rr = model("round_robin.bfy");
  const auto deep = runCli(args + "--json " + nested(40000) + rr);
  EXPECT_EQ(deep.exitCode, 5) << deep.output;
  EXPECT_NE(deep.output.find("\"verdict\":\"BUDGET-EXCEEDED\""),
            std::string::npos)
      << deep.output;
  EXPECT_NE(deep.output.find("\"resource\":\"nesting-depth\""),
            std::string::npos)
      << deep.output;
  // Just past the default cap: rejected, and answered under --no-budget.
  const auto over = runCli(args + nested(300) + rr);
  EXPECT_EQ(over.exitCode, 5) << over.output;
  const auto lifted = runCli(args + "--no-budget " + nested(300) + rr);
  EXPECT_EQ(lifted.exitCode, 0) << lifted.output;
  EXPECT_EQ(lifted.output.rfind("SATISFIABLE", 0), 0u) << lifted.output;
}

TEST(Cli, JsonFormatOnUnknown) {
  const auto result = runCli(
      std::string(resilience::kCheckArgs) + "--format json --no-retry " +
      "--inject-fault 0:unknown:gave-up " + model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 3) << result.output;
  EXPECT_NE(result.output.find("\"verdict\":\"UNKNOWN\""), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"exitCode\":3"), std::string::npos);
  EXPECT_NE(result.output.find("\"detail\":\"gave-up\""), std::string::npos);
}

// --- Horizon sweep and workload synthesis (DESIGN.md §12).

TEST(Cli, SweepRequiresSolveCapability) {
  // dafny is emit-only: missing `solve` is a usage error naming the
  // capability.
  const auto result = runCli(std::string(resilience::kCheckArgs) +
                             "--sweep 1:3 --backend dafny " +
                             model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 2) << result.output;
  EXPECT_NE(result.output.find("cannot solve queries"), std::string::npos)
      << result.output;
}

TEST(Cli, SweepRequiresIncrementalSessions) {
  const auto result = runCli(std::string(resilience::kCheckArgs) +
                             "--sweep 1:3 --backend smtlib " +
                             model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 2) << result.output;
  EXPECT_NE(result.output.find("runs the z3 engine only"), std::string::npos)
      << result.output;
}

TEST(Cli, SweepFlagValidation) {
  EXPECT_EQ(runCli(std::string(resilience::kCheckArgs) + "--shards 2 " +
                   model("round_robin.bfy"))
                .exitCode,
            2);
  EXPECT_EQ(runCli("simulate -T 3 -D N=2 --input ibs:4:2 --output ob "
                   "--sweep 1:3 " +
                   model("round_robin.bfy"))
                .exitCode,
            2);
}

TEST(Cli, SweepAnswersEveryHorizonForEveryQuery) {
  const auto result = runCli(
      "verify -T 4 -D N=2 --input ibs:6:2 --output ob:16 "
      "--workload rr.ibs.0:1:1 --query \"rr.cdeq.0[T-1] >= 1\" "
      "--query \"rr.cdeq.0[T-1] >= 0\" --sweep 1:3 --shards 2 "
      "--format json " +
      model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("\"sweep\":{\"shards\":2"), std::string::npos)
      << result.output;
  // 3 horizons x 2 queries = 6 points, each VERIFIED.
  std::size_t points = 0;
  for (std::size_t at = result.output.find("\"horizon\":");
       at != std::string::npos;
       at = result.output.find("\"horizon\":", at + 1)) {
    ++points;
  }
  EXPECT_EQ(points, 6u) << result.output;
  EXPECT_EQ(result.output.find("\"verdict\":\"VIOLATED\""),
            std::string::npos)
      << result.output;
}

TEST(Cli, SweepExitCodeIsWorstPoint) {
  // An impossible guarantee: every point is VIOLATED, so the sweep exits
  // with the violation code.
  const auto result = runCli(
      "verify -T 4 -D N=2 --input ibs:6:2 --output ob:16 "
      "--query \"rr.cdeq.0[T-1] >= 9\" --sweep 1:2 " +
      model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 1) << result.output;
  EXPECT_NE(result.output.find("VIOLATED"), std::string::npos)
      << result.output;
}

TEST(Cli, SynthCommandReportsSolutionsAndPrescreen) {
  const std::string args =
      "synth -T 4 -D N=2 --input ibs:6:3 --output ob:32 "
      "--query \"fq.cdeq.0[T-1] >= 1\" --first-only ";
  const auto result = runCli(args + model("fq_fixed.bfy"));
  EXPECT_EQ(result.exitCode, 0) << result.output;
  EXPECT_NE(result.output.find("solution:"), std::string::npos)
      << result.output;
  // Prescreening decided candidates without the solver; --no-prescreen
  // must land on the same first solution.
  EXPECT_NE(result.output.find("prescreen:"), std::string::npos)
      << result.output;
  const auto noPrescreen =
      runCli(args + "--no-prescreen " + model("fq_fixed.bfy"));
  EXPECT_EQ(noPrescreen.exitCode, 0) << noPrescreen.output;
  const auto solutionAt = result.output.find("solution:");
  const auto solutionLine =
      result.output.substr(solutionAt, result.output.find('\n', solutionAt) -
                                           solutionAt);
  EXPECT_NE(noPrescreen.output.find(solutionLine), std::string::npos)
      << solutionLine << "\n"
      << noPrescreen.output;
}

TEST(Cli, SynthNoSolutionExitsOne) {
  const auto result = runCli(
      "synth -T 3 -D N=2 --input ibs:6:1 --output ob:16 "
      "--query \"rr.cdeq.0[T-1] >= 9\" " +
      model("round_robin.bfy"));
  EXPECT_EQ(result.exitCode, 1) << result.output;
  EXPECT_NE(result.output.find("0 solution(s)"), std::string::npos)
      << result.output;
}

}  // namespace
