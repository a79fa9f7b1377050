// Verdict-cache compatibility pins (DESIGN.md §14). A cache directory
// written by one build must keep answering the next: the same problem must
// derive the same key, and a stored record must decode and re-encode to
// the same bytes. These tests pin, verbatim, the keys of the perfbench
// `cold` problems and two `sweep` points (derived through core::Analysis),
// the verdict-record bytes of an UNSAT and a fully populated VIOLATED
// answer, and a disk record the CLI wrote (tests/golden/cache/), which
// must still be served as a hit with no validation failure.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/verdict_cache.hpp"
#include "helpers.hpp"

namespace buffy {
namespace {

#ifndef BUFFY_CLI_PATH
#error "BUFFY_CLI_PATH must be defined by the build"
#endif
#ifndef BUFFY_MODELS_DIR
#error "BUFFY_MODELS_DIR must be defined by the build"
#endif
#ifndef BUFFY_GOLDEN_CACHE_DIR
#error "BUFFY_GOLDEN_CACHE_DIR must be defined by the build"
#endif

using buffy::testing::schedulerNet;
using buffy::testing::starvationWorkload;

// ---------------------------------------------------------------------------
// Problems: the perfbench `cold` queries and `sweep` batch

core::Network fqNet(const char* source) {
  return schedulerNet(source, "fq", 2);
}

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

core::Workload ccacWorkload() {
  core::Workload w;
  w.add(core::Workload::perStepCount("cca.ind", 4, 4));
  return w;
}

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

struct Pinned {
  core::Verdict verdict;
  std::string key;
};

/// Answers `queries` in order on one engine over a fresh in-memory cache
/// and returns each answer's verdict and key.
std::vector<Pinned> answer(core::Network net, int horizon,
                           std::optional<core::Workload> workload,
                           const std::vector<core::Query>& queries,
                           bool verify) {
  core::AnalysisOptions opts;
  opts.horizon = horizon;
  opts.cache = std::make_shared<cache::VerdictCache>();
  core::Analysis engine(std::move(net), opts);
  if (workload) engine.setWorkload(std::move(*workload));
  std::vector<Pinned> out;
  for (const core::Query& q : queries) {
    const core::AnalysisResult r = verify ? engine.verify(q) : engine.check(q);
    out.push_back({r.verdict, r.cacheKey});
  }
  return out;
}

const char* const kStarve =
    "fq.cdeq.0[T-1] >= T-1 & fq.cdeq.1[T-1] <= 1 & fq.ibs.1.backlog[T-1] > 0";
const char* const kFair = "fq.cdeq.1[T-1] >= 2";
const char* const kLoss = "path.pin.dropped[T-1] > 0";

TEST(CacheCompat, ColdProblemKeysArePinned) {
  using V = core::Verdict;
  struct Case {
    const char* name;
    std::vector<Pinned> got;
    Pinned want;
  };
  const auto one = [](core::Network net, int horizon,
                      std::optional<core::Workload> w, const core::Query& q,
                      bool verify) {
    return answer(std::move(net), horizon, std::move(w), {q}, verify);
  };
  const Case cases[] = {
      {"fq-starve-buggy",
       one(fqNet(models::kFairQueueBuggy), 6, starvationWorkload("fq", 6),
           core::Query::expr(kStarve), false),
       {V::Satisfiable, "2e642d88d0194fd999893bd984e5b5a0"}},
      {"fq-starve-fixed",
       one(fqNet(models::kFairQueueFixed), 6, starvationWorkload("fq", 6),
           core::Query::expr(kStarve), false),
       {V::Unsatisfiable, "20ce7438d7753eb3f646362fefe960c4"}},
      {"fq-fair-buggy",
       one(fqNet(models::kFairQueueBuggy), 6, starvationWorkload("fq", 6),
           core::Query::expr(kFair), true),
       {V::Violated, "b24f66a430d8d5ffba973866cdae153c"}},
      {"fq-fair-fixed",
       one(fqNet(models::kFairQueueFixed), 6, starvationWorkload("fq", 6),
           core::Query::expr(kFair), true),
       {V::Verified, "12ce4c46ee837aaf1b1d71fb98636736"}},
      {"fig6-conservation",
       one(fqNet(models::kFairQueueBuggy), 2, std::nullopt,
           conservationQuery(), true),
       {V::Verified, "80afe72f8b1e58a6881b089074d599d3"}},
      {"ccac-loss-path3",
       one(ccacNet(3), 7, ccacWorkload(), core::Query::expr(kLoss), false),
       {V::Satisfiable, "9ba2325e7c795ea7b5a07324f216b256"}},
      {"ccac-loss-path24",
       one(ccacNet(24), 7, ccacWorkload(), core::Query::expr(kLoss), false),
       {V::Unsatisfiable, "0a66f0c4e16616820f70b0efdf53cc65"}},
  };
  for (const Case& c : cases) {
    ASSERT_EQ(c.got.size(), 1u) << c.name;
    EXPECT_EQ(c.got[0].verdict, c.want.verdict) << c.name;
    EXPECT_EQ(c.got[0].key, c.want.key) << c.name;
  }
}

TEST(CacheCompat, SweepPointKeysArePinned) {
  // Each point is the second query of its engine, so its key combines the
  // engine's stored structural hash with the query's own.
  const std::vector<core::Query> atT2 = {
      core::Query::expr("fq.cdeq.0[T-1] >= 0"),
      core::Query::expr("fq.cdeq.1[T-1] >= min(3, (T-1)/3)")};
  const std::vector<core::Query> atT5 = {
      core::Query::expr("fq.cdeq.0[T-1] >= 0"),
      core::Query::expr("fq.cdeq.0[T-1] + fq.cdeq.1[T-1] <= 2 * T")};
  const auto t2 = answer(fqNet(models::kFairQueueFixed), 2,
                         starvationWorkload("fq", 2), atT2, true);
  const auto t5 = answer(fqNet(models::kFairQueueFixed), 5,
                         starvationWorkload("fq", 5), atT5, true);
  ASSERT_EQ(t2.size(), 2u);
  ASSERT_EQ(t5.size(), 2u);
  EXPECT_EQ(t2[1].verdict, core::Verdict::Verified);
  EXPECT_EQ(t5[1].verdict, core::Verdict::Verified);
  EXPECT_EQ(t2[1].key, "3f6d18622055981f02ff77cee8d71292");
  EXPECT_EQ(t5[1].key, "750393eec72ff8f39af5afac3a71ca00");
}

// ---------------------------------------------------------------------------
// Verdict-record bytes

std::string hex(const std::string& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

core::AnalysisResult unsatRecord() {
  core::AnalysisResult r;
  r.verdict = core::Verdict::Unsatisfiable;
  r.solveSeconds = 0.000123456789;
  r.cacheKey = "00112233445566778899aabbccddeeff";
  core::SolveAttempt attempt;
  attempt.stage = "initial";
  attempt.solver = "enumerate";
  attempt.outcome = "unsat";
  attempt.seconds = 0.000123456789;
  attempt.setupSeconds = 4.5e-05;
  attempt.setupNodes = 412;
  attempt.visited = 37;
  attempt.memoHits = 5;
  attempt.deadEntries = 12;
  attempt.liveWidth = 3;
  attempt.saturated = 2;
  r.attempts.push_back(attempt);
  return r;
}

core::AnalysisResult violatedRecord() {
  core::AnalysisResult r;
  r.verdict = core::Verdict::Violated;
  r.detail = "model values exceed int64 for: x (trace entries default to 0)";
  r.solveSeconds = 1.0 / 3.0;
  r.canceled = false;
  r.witnessChecked = true;
  r.cached = true;
  r.cacheKey = "ffeeddccbbaa99887766554433221100";
  const char* const stages[] = {"initial", "reseed", "escalate", "smtlib"};
  for (int i = 0; i < 4; ++i) {
    core::SolveAttempt attempt;
    attempt.stage = stages[i];
    attempt.solver = i == 0 ? "enumerate" : "z3";
    attempt.outcome = i == 3 ? "sat" : "unknown";
    attempt.reason = i == 3 ? "" : "timeout";
    attempt.seconds = 0.1 * (i + 1);
    attempt.setupSeconds = i == 0 ? 2.5e-06 : 0.0;
    attempt.setupNodes = 1000u + static_cast<unsigned>(i);
    attempt.rlimitUsed = 228643u * static_cast<unsigned>(i);
    attempt.seed = 17u + static_cast<unsigned>(i);
    attempt.timeoutMs = 250u << i;
    attempt.visited = 144u + static_cast<unsigned>(i);
    attempt.memoHits = 9;
    attempt.deadEntries = 77;
    attempt.liveWidth = 4;
    attempt.saturated = 14;
    r.attempts.push_back(attempt);
  }
  core::Trace trace;
  trace.horizon = 3;
  trace.series["fq.cdeq.0"] = {0, 1, 2};
  trace.series["fq.cdeq.1"] = {0, 0, -1};
  trace.series["fq.ibs.0.arrived"] = {1, 1, 0};
  trace.series["x"] = {std::numeric_limits<std::int64_t>::min(), 0,
                       std::numeric_limits<std::int64_t>::max()};
  r.trace = trace;
  return r;
}

TEST(CacheCompat, UnsatRecordBytesArePinned) {
  EXPECT_EQ(hex(core::encodeVerdict(unsatRecord())),
            "0900000009000000617474656d70742e301b0100000d0000000b000000646561"
            "64456e7472696573020000003132090000006c69766557696474680100000033"
            "080000006d656d6f486974730100000035070000006f7574636f6d6505000000"
            "756e73617406000000726561736f6e000000000a000000726c696d6974557365"
            "640100000030090000007361747572617465640100000032070000007365636f"
            "6e64730e000000302e3030303132333435363738390a00000073657475704e6f"
            "646573030000003431320c00000073657475705365636f6e647316000000342e"
            "35303030303030303030303030303033652d303506000000736f6c7665720900"
            "0000656e756d657261746505000000737461676507000000696e697469616c07"
            "000000766973697465640200000033370d000000617474656d70742e636f756e"
            "7401000000310800000063616368654b65792000000030303131323233333434"
            "3535363637373838393961616262636364646565666606000000636163686564"
            "01000000300800000063616e63656c656401000000300600000064657461696c"
            "000000000c000000736f6c76655365636f6e64730e000000302e303030313233"
            "34353637383907000000766572646963740d000000554e534154495346494142"
            "4c450e0000007769746e657373436865636b65640100000030");
}

TEST(CacheCompat, ViolatedRecordBytesArePinned) {
  EXPECT_EQ(hex(core::encodeVerdict(violatedRecord())),
            "0d00000009000000617474656d70742e304e0100000f0000000b000000646561"
            "64456e7472696573020000003737090000006c69766557696474680100000034"
            "080000006d656d6f486974730100000039070000006f7574636f6d6507000000"
            "756e6b6e6f776e06000000726561736f6e0700000074696d656f75740a000000"
            "726c696d69745573656401000000300900000073617475726174656402000000"
            "3134070000007365636f6e647313000000302e31303030303030303030303030"
            "3030303104000000736565640200000031370a00000073657475704e6f646573"
            "04000000313030300c00000073657475705365636f6e647316000000322e3530"
            "3030303030303030303030303032652d303606000000736f6c76657209000000"
            "656e756d657261746505000000737461676507000000696e697469616c090000"
            "0074696d656f75744d7303000000323530070000007669736974656403000000"
            "31343409000000617474656d70742e31360100000f0000000b00000064656164"
            "456e7472696573020000003737090000006c6976655769647468010000003408"
            "0000006d656d6f486974730100000039070000006f7574636f6d650700000075"
            "6e6b6e6f776e06000000726561736f6e0700000074696d656f75740a00000072"
            "6c696d6974557365640600000032323836343309000000736174757261746564"
            "020000003134070000007365636f6e647313000000302e323030303030303030"
            "303030303030303104000000736565640200000031380a00000073657475704e"
            "6f64657304000000313030310c00000073657475705365636f6e647301000000"
            "3006000000736f6c766572020000007a33050000007374616765060000007265"
            "736565640900000074696d656f75744d73030000003530300700000076697369"
            "7465640300000031343509000000617474656d70742e32390100000f0000000b"
            "00000064656164456e7472696573020000003737090000006c69766557696474"
            "680100000034080000006d656d6f486974730100000039070000006f7574636f"
            "6d6507000000756e6b6e6f776e06000000726561736f6e0700000074696d656f"
            "75740a000000726c696d69745573656406000000343537323836090000007361"
            "74757261746564020000003134070000007365636f6e647313000000302e3330"
            "30303030303030303030303030303404000000736565640200000031390a0000"
            "0073657475704e6f64657304000000313030320c00000073657475705365636f"
            "6e6473010000003006000000736f6c766572020000007a330500000073746167"
            "6508000000657363616c6174650900000074696d656f75744d73040000003130"
            "303007000000766973697465640300000031343609000000617474656d70742e"
            "332c0100000f0000000b00000064656164456e74726965730200000037370900"
            "00006c69766557696474680100000034080000006d656d6f4869747301000000"
            "39070000006f7574636f6d650300000073617406000000726561736f6e000000"
            "000a000000726c696d6974557365640600000036383539323909000000736174"
            "757261746564020000003134070000007365636f6e647313000000302e343030"
            "303030303030303030303030303204000000736565640200000032300a000000"
            "73657475704e6f64657304000000313030330c00000073657475705365636f6e"
            "6473010000003006000000736f6c766572020000007a33050000007374616765"
            "06000000736d746c69620900000074696d656f75744d73040000003230303007"
            "00000076697369746564030000003134370d000000617474656d70742e636f75"
            "6e7401000000340800000063616368654b657920000000666665656464636362"
            "6261613939383837373636353534343333323231313030060000006361636865"
            "6401000000310800000063616e63656c65640100000030060000006465746169"
            "6c3d0000006d6f64656c2076616c7565732065786365656420696e7436342066"
            "6f723a20782028747261636520656e74726965732064656661756c7420746f20"
            "30290c000000736f6c76655365636f6e647313000000302e3333333333333333"
            "333333333333333331050000007472616365a30000000200000007000000686f"
            "72697a6f6e010000003306000000736572696573810000000400000009000000"
            "66712e636465712e3005000000302c312c320900000066712e636465712e3106"
            "000000302c302c2d311000000066712e6962732e302e61727269766564050000"
            "00312c312c3001000000782a0000002d39323233333732303336383534373735"
            "3830382c302c3932323333373230333638353437373538303707000000766572"
            "646963740800000056494f4c415445440e0000007769746e657373436865636b"
            "65640100000031");
}

// ---------------------------------------------------------------------------
// A disk record the CLI wrote

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const char* const kGoldenKey = "30238c54139ea1b08932302eed83fbf7";

TEST(CacheCompat, GoldenDiskRecordDecodesToItsOwnBytes) {
  const std::string bytes = readFile(std::string(BUFFY_GOLDEN_CACHE_DIR) +
                                     "/" + kGoldenKey + ".bfc");
  ASSERT_FALSE(bytes.empty());
  const auto value = cache::VerdictCache::decodeRecord(kGoldenKey, bytes);
  ASSERT_TRUE(value.has_value());
  const core::AnalysisResult answer = core::decodeVerdict(*value);
  EXPECT_EQ(answer.verdict, core::Verdict::Satisfiable);
  EXPECT_EQ(answer.cacheKey, kGoldenKey);
  ASSERT_TRUE(answer.trace.has_value());
  EXPECT_EQ(answer.trace->horizon, 5);
  EXPECT_EQ(cache::VerdictCache::encodeRecord(kGoldenKey,
                                              core::encodeVerdict(answer)),
            bytes);
}

TEST(CacheCompat, GoldenDiskRecordIsServedAsAHit) {
  // The record's directory is copied: a hit promotes the record but never
  // rewrites it, and a failed validation would delete it.
  const std::string dir = ::testing::TempDir() + "buffy_cache_golden_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::copy(BUFFY_GOLDEN_CACHE_DIR, dir);
  const std::string cmd =
      std::string(BUFFY_CLI_PATH) +
      " check -T 5 -D N=2 --input ibs:6:3 --output ob:32"
      " --workload fq.ibs.0:0:1 --query 'fq.cdeq.0[T-1]>=T-1'"
      " --cache-dir " + dir + " --json " + BUFFY_MODELS_DIR +
      "/fq_buggy.bfy 2>&1";
  std::string out;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  const int status = ::pclose(pipe);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(WEXITSTATUS(status), 0) << out;
  EXPECT_NE(out.find("\"verdict\":\"SATISFIABLE\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"cached\":true"), std::string::npos) << out;
  EXPECT_NE(out.find("\"cacheKey\":\"" + std::string(kGoldenKey) + "\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"validationFailures\":0"), std::string::npos) << out;
}

}  // namespace
}  // namespace buffy
