// Verdict cache (DESIGN.md §14): key derivation, the checksummed record
// codec, both tiers of cache::VerdictCache, corruption fallback, and the
// end-to-end cold-vs-warm differential across every example model and
// backend — warm answers must be byte-identical to cold ones, and a
// damaged or forged cache must silently fall back to solving, never to a
// wrong answer or a crash.
#include "cache/verdict_cache.hpp"

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "ir/term_hash.hpp"
#include "support/wire_map.hpp"
#include "synth/synthesizer.hpp"

namespace buffy {
namespace {

using buffy::testing::schedulerNet;

#ifndef BUFFY_CLI_PATH
#error "BUFFY_CLI_PATH must be defined by the build"
#endif
#ifndef BUFFY_MODELS_DIR
#error "BUFFY_MODELS_DIR must be defined by the build"
#endif

// ---------------------------------------------------------------------------
// Canonical term hashing

TEST(TermHash, StableAcrossArenas) {
  // The same structure built in two independent arenas (different pointer
  // identities, different intern order) must hash identically — that is
  // what makes the key survive a process boundary.
  ir::TermArena a;
  ir::TermArena b;
  const ir::TermRef ta =
      a.le(a.add(a.var("x", ir::Sort::Int), a.intConst(1)), a.intConst(5));
  // Interleave unrelated terms so arena ids diverge.
  (void)b.var("noise", ir::Sort::Bool);
  (void)b.intConst(42);
  const ir::TermRef tb =
      b.le(b.add(b.var("x", ir::Sort::Int), b.intConst(1)), b.intConst(5));
  EXPECT_EQ(ta->hash, tb->hash);

  const ir::TermRef other =
      b.le(b.add(b.var("y", ir::Sort::Int), b.intConst(1)), b.intConst(5));
  EXPECT_NE(tb->hash, other->hash);
}

TEST(TermHash, SetHashIsOrderInsensitive) {
  ir::TermArena a;
  const ir::TermRef t1 = a.ge(a.var("p", ir::Sort::Int), a.intConst(0));
  const ir::TermRef t2 = a.lt(a.var("q", ir::Sort::Int), a.intConst(9));
  const std::array<ir::TermRef, 2> fwd = {t1, t2};
  const std::array<ir::TermRef, 2> rev = {t2, t1};
  EXPECT_EQ(ir::hashSet(fwd), ir::hashSet(rev));
  const std::array<ir::TermRef, 1> just1 = {t1};
  EXPECT_NE(ir::hashSet(fwd), ir::hashSet(just1));
}

// ---------------------------------------------------------------------------
// Key derivation

TEST(CacheKey, DeterministicAndSensitiveToEveryPart) {
  cache::CacheKeyParts parts;
  parts.problemHash = 0x1234;
  parts.query = "q[T-1] >= 1";
  parts.horizon = 6;
  const std::string base = cache::cacheKeyFor(parts);
  EXPECT_EQ(base.size(), 32u);
  EXPECT_EQ(base, cache::cacheKeyFor(parts));

  auto differs = [&](cache::CacheKeyParts p) {
    EXPECT_NE(cache::cacheKeyFor(p), base);
  };
  {
    auto p = parts;
    p.problemHash ^= 1;
    differs(p);
  }
  {
    auto p = parts;
    p.query += " ";
    differs(p);
  }
  {
    auto p = parts;
    p.horizon = 7;
    differs(p);
  }
  {
    auto p = parts;
    p.forVerify = true;
    differs(p);
  }
  {
    auto p = parts;
    p.model = 1;
    differs(p);
  }
  {
    auto p = parts;
    p.symbolicInitialState = true;
    differs(p);
  }
}

// ---------------------------------------------------------------------------
// Record codec

/// A witness answer in core's verdict-record form: what the engine stores.
std::string sampleVerdict() {
  core::AnalysisResult v;
  v.verdict = core::Verdict::Satisfiable;
  v.detail = "sat in 1 attempt";
  v.solveSeconds = 0.125;
  v.witnessChecked = true;
  core::Trace trace;
  trace.horizon = 3;
  trace.series["fq.cdeq.0"] = {0, 1, 2};
  trace.series["fq.ibs.0.arrived"] = {1, 1, 0};
  v.trace = trace;
  return core::encodeVerdict(v);
}

TEST(Record, RoundTripsWithTrace) {
  const std::string key(32, 'a');
  const std::string in = sampleVerdict();
  const std::string bytes = cache::VerdictCache::encodeRecord(key, in);
  const auto out = cache::VerdictCache::decodeRecord(key, bytes);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
  const core::AnalysisResult answer = core::decodeVerdict(*out);
  EXPECT_EQ(answer.verdict, core::Verdict::Satisfiable);
  EXPECT_EQ(answer.detail, "sat in 1 attempt");
  EXPECT_TRUE(answer.witnessChecked);
  ASSERT_TRUE(answer.trace.has_value());
  EXPECT_EQ(answer.trace->horizon, 3);
  EXPECT_EQ(answer.trace->series.at("fq.ibs.0.arrived"),
            (std::vector<std::int64_t>{1, 1, 0}));
}

TEST(Record, AttemptSetUpNodesRoundTrip) {
  core::AnalysisResult v;
  v.verdict = core::Verdict::Verified;
  core::SolveAttempt attempt;
  attempt.stage = "initial";
  attempt.solver = "enumerate";
  attempt.outcome = "unsat";
  attempt.setupNodes = 1234;
  v.attempts.push_back(attempt);
  const core::AnalysisResult back = core::decodeVerdict(core::encodeVerdict(v));
  ASSERT_EQ(back.attempts.size(), 1u);
  EXPECT_EQ(back.attempts.front().setupNodes, 1234u);

  // A record written before attempts counted their set-up reads 0.
  WireMap old;
  old.set("stage", "initial");
  old.set("outcome", "unsat");
  old.set("reason", "");
  old.setDouble("seconds", 0.5);
  old.setUint("rlimitUsed", 0);
  WireMap record;
  record.set("verdict", "VERIFIED");
  record.set("detail", "");
  record.setDouble("solveSeconds", 0.5);
  record.setBool("canceled", false);
  record.setBool("witnessChecked", false);
  record.set("cacheKey", "");
  record.setBool("cached", false);
  record.setUint("attempt.count", 1);
  record.set("attempt.0", old.encode());
  const core::AnalysisResult legacy = core::decodeVerdict(record.encode());
  ASSERT_EQ(legacy.attempts.size(), 1u);
  EXPECT_EQ(legacy.attempts.front().setupNodes, 0u);
  EXPECT_EQ(legacy.attempts.front().visited, 0u);
}

/// Doubles equal bit for bit (so -0.0 is not 0.0).
bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every field encodeVerdict writes, compared one by one.
void expectSameRecord(const core::AnalysisResult& a,
                      const core::AnalysisResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_TRUE(sameBits(a.solveSeconds, b.solveSeconds));
  EXPECT_EQ(a.canceled, b.canceled);
  EXPECT_EQ(a.witnessChecked, b.witnessChecked);
  EXPECT_EQ(a.cacheKey, b.cacheKey);
  EXPECT_EQ(a.cached, b.cached);
  ASSERT_EQ(a.attempts.size(), b.attempts.size());
  for (std::size_t i = 0; i < a.attempts.size(); ++i) {
    const core::SolveAttempt& x = a.attempts[i];
    const core::SolveAttempt& y = b.attempts[i];
    EXPECT_EQ(x.stage, y.stage) << i;
    EXPECT_EQ(x.solver, y.solver) << i;
    EXPECT_EQ(x.outcome, y.outcome) << i;
    EXPECT_EQ(x.reason, y.reason) << i;
    EXPECT_TRUE(sameBits(x.seconds, y.seconds)) << i;
    EXPECT_TRUE(sameBits(x.setupSeconds, y.setupSeconds)) << i;
    EXPECT_EQ(x.setupNodes, y.setupNodes) << i;
    EXPECT_EQ(x.rlimitUsed, y.rlimitUsed) << i;
    EXPECT_EQ(x.seed, y.seed) << i;
    EXPECT_EQ(x.timeoutMs, y.timeoutMs) << i;
    EXPECT_EQ(x.visited, y.visited) << i;
    EXPECT_EQ(x.memoHits, y.memoHits) << i;
    EXPECT_EQ(x.deadEntries, y.deadEntries) << i;
    EXPECT_EQ(x.liveWidth, y.liveWidth) << i;
    EXPECT_EQ(x.saturated, y.saturated) << i;
  }
  ASSERT_EQ(a.trace.has_value(), b.trace.has_value());
  if (a.trace) {
    EXPECT_EQ(a.trace->horizon, b.trace->horizon);
    EXPECT_EQ(a.trace->series, b.trace->series);
  }
}

/// Decodes `v`'s record, requires every field back, and requires the
/// decoded answer to encode to the same bytes.
void expectRoundTrip(const core::AnalysisResult& v) {
  const std::string bytes = core::encodeVerdict(v);
  const core::AnalysisResult back = core::decodeVerdict(bytes);
  expectSameRecord(v, back);
  EXPECT_EQ(core::encodeVerdict(back), bytes);
}

core::SolveAttempt extremeAttempt(const char* stage) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  core::SolveAttempt attempt;
  attempt.stage = stage;
  attempt.solver = "z3";
  attempt.outcome = "unknown";
  attempt.reason = "canceled";
  attempt.seconds = -0.0;
  attempt.setupSeconds = std::numeric_limits<double>::denorm_min();
  attempt.setupNodes = kMax;
  attempt.rlimitUsed = kMax;
  attempt.seed = std::numeric_limits<unsigned>::max();
  attempt.timeoutMs = 0;
  attempt.visited = kMax;
  attempt.memoHits = kMax;
  attempt.deadEntries = kMax;
  attempt.liveWidth = kMax;
  attempt.saturated = kMax;
  return attempt;
}

TEST(Record, BoundaryValuesRoundTripExactly) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  core::AnalysisResult v;
  v.verdict = core::Verdict::Violated;
  v.solveSeconds = -0.0;
  v.cacheKey = std::string(32, 'e');
  core::Trace trace;
  trace.horizon = 4;
  trace.series["a"] = {kMin, kMax, 0, -1};
  trace.series["b"] = {kMax, kMax, kMin, kMin};
  v.trace = trace;

  // Empty detail, no attempts.
  expectRoundTrip(v);

  // A 1 MiB detail, four attempts at every counter's maximum.
  v.detail.assign(std::size_t{1} << 20, 'd');
  v.detail[12345] = '\0';
  v.solveSeconds = 2.2250738585072009e-308;  // subnormal
  for (const char* stage : {"initial", "reseed", "escalate", "smtlib"}) {
    v.attempts.push_back(extremeAttempt(stage));
  }
  v.attempts[1].seconds = std::numeric_limits<double>::denorm_min();
  v.attempts[2].seconds = -std::numeric_limits<double>::denorm_min();
  v.attempts[3].seed.reset();
  v.attempts[3].timeoutMs.reset();
  expectRoundTrip(v);
}

TEST(Record, ElevenAttemptsKeepThePayloadOrder) {
  // Keys sort as strings, so "attempt.10" comes before "attempt.2"; the
  // record must still decode every attempt at its own index.
  core::AnalysisResult v;
  v.verdict = core::Verdict::Verified;
  for (unsigned i = 0; i < 11; ++i) {
    core::SolveAttempt attempt;
    attempt.stage = "rung" + std::to_string(i);
    attempt.seed = i;
    v.attempts.push_back(attempt);
  }
  expectRoundTrip(v);
  WireMap map = WireMap::decode(core::encodeVerdict(v));
  EXPECT_EQ(map.encode(), core::encodeVerdict(v));
}

/// A legacy-shaped VERIFIED record with one attempt whose `field` is
/// `text`.
std::string recordWithAttemptField(const std::string& field,
                                   const std::string& text) {
  WireMap attempt;
  attempt.set("stage", "initial");
  attempt.set("outcome", "unsat");
  attempt.set("reason", "");
  attempt.setDouble("seconds", 0.5);
  attempt.setUint("rlimitUsed", 0);
  attempt.set(field, text);
  WireMap record;
  record.set("verdict", "VERIFIED");
  record.set("detail", "");
  record.setDouble("solveSeconds", 0.5);
  record.setBool("canceled", false);
  record.setBool("witnessChecked", false);
  record.set("cacheKey", "");
  record.setBool("cached", false);
  record.setUint("attempt.count", 1);
  record.set("attempt.0", attempt.encode());
  return record.encode();
}

TEST(Record, OutOfRangeAttemptFieldsAreRejected) {
  // seed and timeoutMs are unsigned; a value past UINT_MAX must not wrap.
  EXPECT_THROW(
      core::decodeVerdict(recordWithAttemptField("seed", "4294967296")),
      DecodeError);
  EXPECT_THROW(
      core::decodeVerdict(recordWithAttemptField("timeoutMs", "4294967297")),
      DecodeError);
  EXPECT_THROW(core::decodeVerdict(recordWithAttemptField("seed", "-1")),
               DecodeError);
  const core::AnalysisResult seed =
      core::decodeVerdict(recordWithAttemptField("seed", "4294967295"));
  ASSERT_EQ(seed.attempts.size(), 1u);
  EXPECT_EQ(seed.attempts[0].seed, 4294967295u);
  const core::AnalysisResult timeout =
      core::decodeVerdict(recordWithAttemptField("timeoutMs", "4294967295"));
  ASSERT_EQ(timeout.attempts.size(), 1u);
  EXPECT_EQ(timeout.attempts[0].timeoutMs, 4294967295u);
}

TEST(Record, RejectsEveryMalformation) {
  const std::string key(32, 'b');
  const std::string bytes =
      cache::VerdictCache::encodeRecord(key, sampleVerdict());

  // Truncation at every prefix length must read as corrupt, not crash.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{4}, std::size_t{11}, bytes.size() / 2,
        bytes.size() - 1}) {
    EXPECT_FALSE(
        cache::VerdictCache::decodeRecord(key, bytes.substr(0, len)))
        << "truncated to " << len;
  }
  // A single flipped byte anywhere breaks the checksum (or the framing).
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{9}, bytes.size() / 2, bytes.size() - 1}) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0xff);
    EXPECT_FALSE(cache::VerdictCache::decodeRecord(key, bad))
        << "flipped byte " << pos;
  }
  // A record copied to another key's filename must not be served.
  EXPECT_FALSE(cache::VerdictCache::decodeRecord(std::string(32, 'c'), bytes));
  // Trailing garbage after a valid record is framing corruption.
  EXPECT_FALSE(cache::VerdictCache::decodeRecord(key, bytes + "x"));
}

// ---------------------------------------------------------------------------
// VerdictCache tiers

std::string freshDir(const char* stem) {
  static int counter = 0;
  const std::string dir = ::testing::TempDir() + "buffy_cache_" + stem + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter++);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(VerdictCache, MemoryTierLruEvicts) {
  cache::VerdictCacheOptions opts;
  opts.maxMemoryEntries = 2;
  cache::VerdictCache c(opts);
  const std::string v = sampleVerdict();
  c.store(std::string(32, '1'), v);
  c.store(std::string(32, '2'), v);
  // Touch key 1 so key 2 is the LRU victim.
  EXPECT_TRUE(c.lookup(std::string(32, '1')).has_value());
  c.store(std::string(32, '3'), v);
  EXPECT_TRUE(c.lookup(std::string(32, '1')).has_value());
  EXPECT_FALSE(c.lookup(std::string(32, '2')).has_value());
  EXPECT_TRUE(c.lookup(std::string(32, '3')).has_value());
  const cache::CacheStats s = c.stats();
  EXPECT_EQ(s.stores, 3u);
  EXPECT_GE(s.evictions, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(VerdictCache, DiskTierSurvivesInstances) {
  const std::string dir = freshDir("disk");
  const std::string key(32, 'd');
  {
    cache::VerdictCacheOptions opts;
    opts.dir = dir;
    cache::VerdictCache writer(opts);
    writer.store(key, sampleVerdict());
  }
  cache::VerdictCacheOptions opts;
  opts.dir = dir;
  cache::VerdictCache reader(opts);
  const auto hit = reader.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, sampleVerdict());
  EXPECT_EQ(reader.stats().hits, 1u);
}

TEST(VerdictCache, CorruptDiskRecordReadsAsMissAndIsDeleted) {
  const std::string dir = freshDir("corrupt");
  const std::string key(32, 'e');
  cache::VerdictCacheOptions opts;
  opts.dir = dir;
  {
    cache::VerdictCache writer(opts);
    writer.store(key, sampleVerdict());
  }
  // Flip one payload byte on disk.
  cache::VerdictCache victim(opts);
  const std::string path = victim.pathFor(key);
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string bytes = ss.str();
    ASSERT_GT(bytes.size(), 16u);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x1);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(victim.lookup(key).has_value());
  const cache::CacheStats s = victim.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.validationFailures, 1u);
  // The poisoned record was unlinked; the next instance sees a clean miss.
  cache::VerdictCache after(opts);
  EXPECT_FALSE(after.lookup(key).has_value());
  EXPECT_EQ(after.stats().validationFailures, 0u);

  // Truncation is handled the same way.
  {
    cache::VerdictCache writer(opts);
    writer.store(key, sampleVerdict());
    writer.flushDisk();  // stores are write-behind; land it before reading
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string bytes = ss.str();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  cache::VerdictCache truncated(opts);
  EXPECT_FALSE(truncated.lookup(key).has_value());
  EXPECT_EQ(truncated.stats().validationFailures, 1u);
}

TEST(VerdictCache, DiskEvictionRespectsCap) {
  const std::string dir = freshDir("evict");
  cache::VerdictCacheOptions opts;
  opts.dir = dir;
  // Records are a few hundred bytes; cap at ~3 of them.
  const std::string oneRecord = cache::VerdictCache::encodeRecord(
      std::string(32, 'x'), sampleVerdict());
  opts.maxDiskBytes = oneRecord.size() * 3;
  cache::VerdictCache c(opts);
  for (char k = 'a'; k <= 'j'; ++k) {
    c.store(std::string(32, k), sampleVerdict());
  }
  c.flushDisk();  // stores are write-behind; land them before counting
  EXPECT_GT(c.stats().evictions, 0u);
  // The surviving files fit the cap.
  std::uint64_t total = 0;
  int files = 0;
  for (char k = 'a'; k <= 'j'; ++k) {
    std::ifstream in(c.pathFor(std::string(32, k)), std::ios::binary);
    if (!in) continue;
    std::stringstream ss;
    ss << in.rdbuf();
    total += ss.str().size();
    ++files;
  }
  EXPECT_GT(files, 0);
  EXPECT_LT(files, 10);
  EXPECT_LE(total, opts.maxDiskBytes);
}

TEST(VerdictCache, ConcurrentWritersStayConsistent) {
  const std::string dir = freshDir("race");
  cache::VerdictCacheOptions opts;
  opts.dir = dir;
  // Hammer one shared directory from several cache instances (the
  // worker-process topology) and several threads per instance: every
  // lookup must return either a miss or an intact record.
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<int> badReads{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      cache::VerdictCache mine(opts);
      for (int r = 0; r < kRounds; ++r) {
        const std::string key(32, static_cast<char>('a' + (r + t) % 4));
        mine.store(key, sampleVerdict());
        const auto hit = mine.lookup(key);
        if (hit && *hit != sampleVerdict()) badReads.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(badReads.load(), 0);
}

// ---------------------------------------------------------------------------
// Engine integration: cold solve vs warm hit through core::Analysis

TEST(AnalysisCache, WarmEngineReturnsIdenticalAnswer) {
  core::AnalysisOptions opts;
  opts.horizon = 5;
  opts.cache = std::make_shared<cache::VerdictCache>();
  const core::Query query = core::Query::expr("fq.cdeq.0[T-1] >= T-1");
  const core::Workload workload =
      buffy::testing::starvationWorkload("fq", opts.horizon);

  core::Analysis cold(schedulerNet(models::kFairQueueBuggy, "fq", 2), opts);
  cold.setWorkload(workload);
  const core::AnalysisResult a = cold.check(query);
  EXPECT_FALSE(a.cached);
  EXPECT_FALSE(a.cacheKey.empty());

  // A fresh engine sharing the cache answers without a solver round-trip.
  core::Analysis warm(schedulerNet(models::kFairQueueBuggy, "fq", 2), opts);
  warm.setWorkload(workload);
  const core::AnalysisResult b = warm.check(query);
  EXPECT_TRUE(b.cached);
  EXPECT_EQ(b.cacheKey, a.cacheKey);
  EXPECT_EQ(b.verdict, a.verdict);
  ASSERT_EQ(a.trace.has_value(), b.trace.has_value());
  if (a.trace) {
    EXPECT_EQ(a.trace->horizon, b.trace->horizon);
    EXPECT_EQ(a.trace->series, b.trace->series);
  }
  EXPECT_EQ(opts.cache->stats().hits, 1u);

  // A different workload is a different problem — no false sharing.
  core::Analysis other(schedulerNet(models::kFairQueueBuggy, "fq", 2), opts);
  other.setWorkload(core::Workload{});
  const core::AnalysisResult c = other.check(query);
  EXPECT_FALSE(c.cached);
  EXPECT_NE(c.cacheKey, a.cacheKey);
}

TEST(AnalysisCache, SmtLibPathReusesNativeAnswer) {
  // Every solve path answers the same standalone problem, so an answer the
  // native engine stored serves the SMT-LIB path too: one key per problem.
  core::AnalysisOptions opts;
  opts.horizon = 5;
  opts.cache = std::make_shared<cache::VerdictCache>();
  const core::Query query = core::Query::expr("fq.cdeq.0[T-1] >= 1");
  const core::Workload workload =
      buffy::testing::starvationWorkload("fq", opts.horizon);

  core::Analysis native(schedulerNet(models::kFairQueueBuggy, "fq", 2), opts);
  native.setWorkload(workload);
  const core::AnalysisResult a = native.verify(query);
  EXPECT_FALSE(a.cached);
  EXPECT_EQ(opts.cache->stats().stores, 1u);

  core::Analysis smtlib(schedulerNet(models::kFairQueueBuggy, "fq", 2), opts);
  smtlib.setWorkload(workload);
  const core::AnalysisResult b = smtlib.solveViaSmtLib(query, true);
  EXPECT_TRUE(b.cached);
  EXPECT_EQ(b.cacheKey, a.cacheKey);
  EXPECT_EQ(b.verdict, a.verdict);
  EXPECT_EQ(opts.cache->stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// Synthesizer negative cache

TEST(SynthCache, DuplicateCandidatesHitNegativeCache) {
  core::AnalysisOptions opts;
  opts.horizon = 4;
  synth::Synthesizer synthesizer(
      schedulerNet(models::kStrictPriority, "sp", 2), opts);
  const core::Query query = core::Query::expr("sp.cdeq.0[T-1] == T");

  // "None" appears twice: the duplicated assignments produce structurally
  // identical workload constraint sets, so every prescreen-rejected
  // candidate's twin must be decided from the negative cache.
  synth::SynthesisOptions sopts;
  sopts.grammar = {synth::Pattern::None, synth::Pattern::None,
                   synth::Pattern::ExactlyOnePerStep};
  const auto cached = synthesizer.run(query, sopts);
  EXPECT_GT(cached.prescreenCacheHits, 0);

  synth::SynthesisOptions nocache = sopts;
  nocache.negativeCache = false;
  const auto plain = synthesizer.run(query, nocache);
  EXPECT_EQ(plain.prescreenCacheHits, 0);

  // Identical reports either way: same solutions, same conclusive counts.
  ASSERT_EQ(cached.solutions.size(), plain.solutions.size());
  for (std::size_t i = 0; i < cached.solutions.size(); ++i) {
    EXPECT_EQ(cached.solutions[i].describe(), plain.solutions[i].describe());
  }
  EXPECT_EQ(cached.solvedCount, plain.solvedCount);
  EXPECT_EQ(cached.prescreenRejected, plain.prescreenRejected);
}

// ---------------------------------------------------------------------------
// End-to-end differential: cold vs warm through the CLI

struct CommandResult {
  int exitCode = -1;
  std::string output;
};

CommandResult runCli(const std::string& args) {
  const std::string command =
      std::string(BUFFY_CLI_PATH) + " " + args + " 2>&1";
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

std::string model(const char* name) {
  return std::string(BUFFY_MODELS_DIR) + "/" + name + ".bfy";
}

/// Extracts the value of a top-level-ish JSON string field (the reports
/// are flat enough for a textual scan).
std::string jsonField(const std::string& json, const std::string& field) {
  const std::string needle = "\"" + field + "\":\"";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return {};
  const auto start = pos + needle.size();
  const auto end = json.find('"', start);
  return json.substr(start, end - start);
}

/// The "trace":{...} object, byte-for-byte (empty when absent).
std::string traceBlock(const std::string& json) {
  const auto pos = json.find("\"trace\":");
  if (pos == std::string::npos) return {};
  return json.substr(pos);
}

struct ModelConfig {
  const char* name;
  const char* args;
  const char* query;
};

// The golden_test per-model configurations: small horizons, every model.
constexpr ModelConfig kModels[] = {
    {"aimd",
     "-T 4 -D RTO=3 --input ind:8:2 --input inack:8:2 --output out:16 "
     "--output ackdrain:16",
     "aimd.mcwnd[T-1] >= 0"},
    {"delay_server", "-T 4 --input din:8:2 --output dout:16",
     "delay.mreleased[T-1] >= 0"},
    {"drr", "-T 4 -D N=2 -D QUANTUM=2 --input ibs:6:2 --output ob:16",
     "drr.bdeq.0[T-1] >= 0"},
    {"fq_buggy", "-T 5 -D N=2 --input ibs:6:3 --output ob:32",
     "fq.cdeq.0[T-1] >= T-1"},
    {"fq_fixed", "-T 5 -D N=2 --input ibs:6:3 --output ob:32",
     "fq.cdeq.0[T-1] >= T-1"},
    {"path_server",
     "-T 4 -D RATE=1 -D BUCKET=2 --input pin:8:2 --output pout:16",
     "path.mserved[T-1] >= 0"},
    {"round_robin", "-T 4 -D N=2 --input ibs:6:2 --output ob:16",
     "rr.cdeq.0[T-1] >= 0"},
    {"strict_priority", "-T 4 -D N=2 --input ibs:6:2 --output ob:16",
     "sp.cdeq.0[T-1] >= 0"},
};

TEST(CacheCli, ColdWarmVerdictsIdenticalAcrossModelsAndBackends) {
  for (const auto& m : kModels) {
    for (const char* backend : {"z3", "smtlib"}) {
      const std::string dir =
          freshDir((std::string("cli_") + m.name + "_" + backend).c_str());
      const std::string cmd = std::string("check ") + m.args + " --query \"" +
                              m.query + "\" --backend " + backend +
                              " --cache-dir " + dir + " --json " +
                              model(m.name);
      const CommandResult cold = runCli(cmd);
      const CommandResult warm = runCli(cmd);
      SCOPED_TRACE(std::string(m.name) + " / " + backend);
      EXPECT_EQ(cold.exitCode, warm.exitCode) << warm.output;
      EXPECT_EQ(jsonField(cold.output, "verdict"),
                jsonField(warm.output, "verdict"))
          << cold.output << "\n----\n" << warm.output;
      EXPECT_NE(cold.output.find("\"cached\":false"), std::string::npos)
          << cold.output;
      EXPECT_NE(warm.output.find("\"cached\":true"), std::string::npos)
          << warm.output;
      // The witness trace replays byte-identically from the record.
      EXPECT_EQ(traceBlock(cold.output), traceBlock(warm.output));
    }
  }
}

/// Every `"verdict":"..."` in a report, in order, joined by ';'.
std::string verdictSequence(const std::string& out) {
  std::string all;
  std::size_t pos = 0;
  while ((pos = out.find("\"verdict\":\"", pos)) != std::string::npos) {
    const auto start = pos + 11;
    const auto end = out.find('"', start);
    all += out.substr(start, end - start) + ";";
    pos = end;
  }
  return all;
}

TEST(CacheCli, SweepIsolateColdWarmIdentical) {
  const std::string dir = freshDir("sweep_isolate");
  const std::string cmd =
      "check -D N=2 --input ibs:6:3 --output ob:32 "
      "--workload fq.ibs.0:0:1 --query \"fq.cdeq.0[T-1] >= T-1\" "
      "--sweep 2:5 --isolate --cache-dir " +
      dir + " --json " + model("fq_buggy");
  const CommandResult cold = runCli(cmd);
  const CommandResult warm = runCli(cmd);
  EXPECT_EQ(cold.exitCode, warm.exitCode) << warm.output;
  // The workers answered: solveIsolated stored each answer into the
  // parent's cache.
  EXPECT_NE(cold.output.find("\"isolated\":true"), std::string::npos)
      << cold.output;
  EXPECT_NE(cold.output.find("\"stores\":4"), std::string::npos)
      << cold.output;
  // Identical per-point verdict sequences; every warm point is a hit.
  EXPECT_EQ(verdictSequence(cold.output), verdictSequence(warm.output))
      << cold.output << "\n----\n" << warm.output;
  EXPECT_EQ(warm.output.find("\"cached\":false"), std::string::npos)
      << warm.output;
}

TEST(CacheCli, SweepShardsColdWarmIdentical) {
  const std::string dir = freshDir("sweep_shards");
  const std::string cmd =
      "check -D N=2 --input ibs:6:3 --output ob:32 "
      "--workload fq.ibs.0:0:1 --query \"fq.cdeq.0[T-1] >= T-1\" "
      "--sweep 2:5 --shards 2 --cache-dir " +
      dir + " --json " + model("fq_buggy");
  const CommandResult cold = runCli(cmd);
  const CommandResult warm = runCli(cmd);
  EXPECT_EQ(cold.exitCode, warm.exitCode) << warm.output;
  // Identical per-point verdict sequences; every warm point is a hit.
  EXPECT_EQ(verdictSequence(cold.output), verdictSequence(warm.output))
      << cold.output << "\n----\n" << warm.output;
  EXPECT_EQ(warm.output.find("\"cached\":false"), std::string::npos)
      << warm.output;
  EXPECT_NE(warm.output.find("\"hits\":4"), std::string::npos) << warm.output;
}

TEST(CacheCli, PoisonedCacheDirFallsBackCold) {
  const std::string dir = freshDir("poison");
  const std::string cmd =
      "check -T 5 -D N=2 --input ibs:6:3 --output ob:32 "
      "--workload fq.ibs.0:0:1 --query \"fq.cdeq.0[T-1] >= T-1\" "
      "--cache-dir " +
      dir + " --json " + model("fq_buggy");
  const CommandResult cold = runCli(cmd);
  // Corrupt every record in the directory (overwrite one payload byte).
  {
    const std::string script = "for f in " + dir +
                               "/*.bfc; do printf 'X' | dd of=\"$f\" bs=1 "
                               "seek=12 count=1 conv=notrunc 2>/dev/null; done";
    EXPECT_EQ(std::system(script.c_str()), 0);
  }
  const CommandResult warm = runCli(cmd);
  EXPECT_EQ(cold.exitCode, warm.exitCode) << warm.output;
  EXPECT_EQ(jsonField(cold.output, "verdict"),
            jsonField(warm.output, "verdict"));
  // The poisoned record was detected, never served.
  EXPECT_NE(warm.output.find("\"cached\":false"), std::string::npos)
      << warm.output;
  EXPECT_NE(warm.output.find("\"validationFailures\":1"), std::string::npos)
      << warm.output;
}

TEST(CacheCli, FlagValidationExitsTwo) {
  const std::string m = model("fq_buggy");
  // Missing directory.
  EXPECT_EQ(runCli("check --cache-dir /nonexistent/definitely " + m).exitCode,
            2);
  // A file is not a directory.
  const std::string dir = freshDir("flags");
  const std::string file = dir + "/afile";
  { std::ofstream(file) << "x"; }
  EXPECT_EQ(runCli("check --cache-dir " + file + " " + m).exitCode, 2);
  // Unwritable directory (root bypasses permission checks — skip there).
  if (::geteuid() != 0) {
    const std::string ro = freshDir("ro");
    ::chmod(ro.c_str(), 0555);
    EXPECT_EQ(runCli("check --cache-dir " + ro + " " + m).exitCode, 2);
    ::chmod(ro.c_str(), 0755);
  }
  // Bad sizes: zero, negative, junk, trailing junk.
  for (const char* bad : {"0", "-5", "junk", "12mb", ""}) {
    EXPECT_EQ(runCli("check --cache-dir " + dir + " --cache-max-mb \"" +
                     std::string(bad) + "\" " + m)
                  .exitCode,
              2)
        << bad;
  }
  // --cache-max-mb without --cache-dir, and --no-cache conflicts.
  EXPECT_EQ(runCli("check --cache-max-mb 10 " + m).exitCode, 2);
  EXPECT_EQ(runCli("check --no-cache --cache-dir " + dir + " " + m).exitCode,
            2);
  EXPECT_EQ(runCli("check --no-cache --cache-verify " + m).exitCode, 2);
}

TEST(CacheCli, NoCacheDisablesReporting) {
  const CommandResult r = runCli(
      "check -T 4 -D N=2 --input ibs:6:2 --output ob:16 "
      "--query \"sp.cdeq.0[T-1] >= 0\" --no-cache --json " +
      model("strict_priority"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_EQ(r.output.find("\"cache\":{"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("\"cacheKey\""), std::string::npos) << r.output;
}

TEST(CacheCli, CacheVerifyReplaysWitnessOnHit) {
  const std::string dir = freshDir("verify_hit");
  const std::string cmd =
      "check -T 5 -D N=2 --input ibs:6:3 --output ob:32 "
      "--workload fq.ibs.0:0:1 --query \"fq.cdeq.0[T-1] >= T-1\" "
      "--cache-dir " +
      dir + " --cache-verify --json " + model("fq_buggy");
  const CommandResult cold = runCli(cmd);
  const CommandResult warm = runCli(cmd);
  EXPECT_EQ(jsonField(warm.output, "verdict"),
            jsonField(cold.output, "verdict"));
  EXPECT_NE(warm.output.find("\"cached\":true"), std::string::npos)
      << warm.output;
  EXPECT_NE(warm.output.find("\"witnessChecked\":true"), std::string::npos)
      << warm.output;
}

/// Rewrites every record in `dir` through the record and verdict codecs,
/// applying `edit` to its trace: magic, key and checksum stay valid.
void forgeTraces(const std::string& dir,
                 const std::function<void(core::Trace&)>& edit) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    const std::string key = entry.path().stem().string();
    std::stringstream ss;
    ss << std::ifstream(path, std::ios::binary).rdbuf();
    const auto value = cache::VerdictCache::decodeRecord(key, ss.str());
    ASSERT_TRUE(value.has_value()) << path;
    core::AnalysisResult answer = core::decodeVerdict(*value);
    ASSERT_TRUE(answer.trace.has_value()) << path;
    edit(*answer.trace);
    const std::string bytes = cache::VerdictCache::encodeRecord(
        key, core::encodeVerdict(answer));
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

/// The §6.1 starvation witness at T=5, answered cold into `dir`, then by a
/// warm run with `flags` after forgeTraces(`edit`): the forged record must
/// read as one validation failure and the query re-solve to the cold
/// verdict — never a crash, never the forged trace.
void expectForgedTraceResolvedCold(
    const char* stem, const std::vector<std::string>& flags,
    const std::function<void(core::Trace&)>& edit) {
  const std::string dir = freshDir(stem);
  const auto cmd = [&](const std::string& extra) {
    return "check -T 5 -D N=2 --input ibs:6:3 --output ob:32 "
           "--workload fq.ibs.0:0:1 --query \"fq.cdeq.0[T-1] >= T-1\" "
           "--cache-dir " +
           dir + " --json " + extra + model("fq_buggy");
  };
  const CommandResult cold = runCli(cmd(""));
  ASSERT_EQ(cold.exitCode, 0) << cold.output;
  for (const std::string& extra : flags) {
    SCOPED_TRACE(extra);
    forgeTraces(dir, edit);
    const CommandResult warm = runCli(cmd(extra));
    EXPECT_EQ(warm.exitCode, 0) << warm.output;
    EXPECT_EQ(jsonField(warm.output, "verdict"),
              jsonField(cold.output, "verdict"))
        << warm.output;
    EXPECT_NE(warm.output.find("\"cached\":false"), std::string::npos)
        << warm.output;
    EXPECT_NE(warm.output.find("\"validationFailures\":1"),
              std::string::npos)
        << warm.output;
  }
}

TEST(CacheCli, ShortTraceSeriesRecordIsAMiss) {
  expectForgedTraceResolvedCold(
      "short_series", {"", "--cache-verify "}, [](core::Trace& trace) {
        for (auto& [name, values] : trace.series) {
          if (name.size() > 8 &&
              name.compare(name.size() - 8, 8, ".arrived") == 0) {
            values.pop_back();
          }
        }
      });
}

TEST(CacheCli, OutOfRangeArrivalCountIsResolvedUnderCacheVerify) {
  expectForgedTraceResolvedCold(
      "huge_count", {"--cache-verify "}, [](core::Trace& trace) {
        trace.series.at("fq.ibs.0.arrived").at(0) = 2'000'000'000;
      });
}

}  // namespace
}  // namespace buffy
