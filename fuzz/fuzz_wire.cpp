// Fuzz target: the decoders that face bytes from outside the process. The
// worker pipe (DESIGN.md §13): the supervisor hands every checksum-valid
// reply to WireMap::decode and decodeResult, and the `buffy --worker` loop
// hands every job frame to decodeJob. A worker that crashes mid-write or
// corrupts its own memory can put arbitrary bytes on the pipe, so those
// decoders face arbitrary input; readFrame itself faces arbitrary headers
// (magic, forged lengths, bad checksums). The verdict cache's disk tier
// (DESIGN.md §14): `--cache-dir` is a directory other runs share, so every
// record read from it goes through VerdictCache::decodeRecord and then
// core::decodeVerdict.
//
// decodeJob builds the engine's own records (Network, AnalysisOptions and
// its FaultPlan, the cache's settings but never a VerdictCache), and
// decodeResult builds AnalysisResults. Raw inputs rarely get past the
// outer WireMap or envelope, so each input is also spliced into a valid
// encoded job, a valid encoded result and a valid disk record with a
// trace: the record decoders then see well-formed payloads with one
// hostile region.
//
// Invariants: the only exception a decoder may throw is DecodeError (a
// buffy::Error subclass), and the disk-record decoder may also report a
// miss — anything else (std::bad_alloc from a forged entry count,
// std::out_of_range, length overflow, sanitizer report) is a bug in the
// decoder, and would take the supervising process or the cache's reader
// down. Whatever a decoder accepts, its encoder must write back in a form
// the decoder accepts again, and every decoded trace keeps Trace's
// invariant: a non-negative horizon and `horizon` values per series. A
// verdict record that decodes must also reach a fixed point at once:
// decoding its re-encoding gives the same answer field for field, and
// encoding that answer gives the same bytes again.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/verdict_cache.hpp"
#include "procs/protocol.hpp"
#include "procs/wire.hpp"
#include "support/wire_map.hpp"

namespace {

using namespace buffy;

/// Feeds raw bytes through a pipe into readFrame, exactly as a worker's
/// stdout would deliver them: a closed write end is the EOF/torn-frame
/// case.
void fuzzReadFrame(const std::uint8_t* data, std::size_t size) {
  int fds[2];
  if (::pipe(fds) != 0) return;
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fds[1], data + written, size - written);
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  ::close(fds[1]);
  std::string payload;
  // The write end is already closed, so a blocking read drains the
  // buffered bytes and then sees EOF — no deadline needed, no hang
  // possible. Forged lengths above kMaxEnvelopePayload must be Garbled, not
  // allocated.
  (void)procs::readFrame(fds[0], payload, /*deadlineMs=*/-1);
  ::close(fds[0]);
}

/// A decoded trace must satisfy Trace's invariant; a violation is a
/// finding.
void checkTrace(const std::optional<core::Trace>& trace) {
  if (!trace) return;
  if (trace->horizon < 0) std::abort();
  for (const auto& [name, values] : trace->series) {
    if (values.size() != static_cast<std::size_t>(trace->horizon)) {
      std::abort();
    }
  }
}

/// Decodes `bytes` as a job and as a result; whatever decodes must survive
/// its encoder and decode again.
void fuzzRecords(std::string_view bytes) {
  std::optional<procs::WireJob> job;
  std::optional<procs::WireResult> result;
  try {
    const WireMap map = WireMap::decode(bytes);
    try {
      job = procs::decodeJob(map);
    } catch (const DecodeError&) {
    }
    try {
      result = procs::decodeResult(map);
    } catch (const DecodeError&) {
    }
  } catch (const DecodeError&) {
    // Malformed payload rejected with a structured error: expected.
  }
  // Round trips run outside every handler: a throw here is a finding.
  if (job) {
    (void)procs::decodeJob(WireMap::decode(procs::encodeJob(*job)));
  }
  if (result) {
    for (const auto& verdict : result->verdicts) checkTrace(verdict.trace);
    (void)procs::decodeResult(WireMap::decode(procs::encodeResult(*result)));
  }
}

const std::string kRecordKey(32, 'k');

/// Equal as the record stores them: bit for bit, or both NaN of one sign
/// (the text keeps a NaN's sign but not its payload).
bool sameDouble(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b) &&
           std::signbit(a) == std::signbit(b);
  }
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Every field a verdict record carries.
bool sameAnswer(const core::AnalysisResult& a, const core::AnalysisResult& b) {
  if (a.verdict != b.verdict || a.detail != b.detail ||
      !sameDouble(a.solveSeconds, b.solveSeconds) ||
      a.canceled != b.canceled || a.witnessChecked != b.witnessChecked ||
      a.cacheKey != b.cacheKey || a.cached != b.cached ||
      a.attempts.size() != b.attempts.size() ||
      a.trace.has_value() != b.trace.has_value()) {
    return false;
  }
  for (std::size_t i = 0; i < a.attempts.size(); ++i) {
    const core::SolveAttempt& x = a.attempts[i];
    const core::SolveAttempt& y = b.attempts[i];
    if (x.stage != y.stage || x.solver != y.solver ||
        x.outcome != y.outcome || x.reason != y.reason ||
        !sameDouble(x.seconds, y.seconds) ||
        !sameDouble(x.setupSeconds, y.setupSeconds) ||
        x.setupNodes != y.setupNodes || x.rlimitUsed != y.rlimitUsed ||
        x.seed != y.seed || x.timeoutMs != y.timeoutMs ||
        x.visited != y.visited || x.memoHits != y.memoHits ||
        x.deadEntries != y.deadEntries || x.liveWidth != y.liveWidth ||
        x.saturated != y.saturated) {
      return false;
    }
  }
  return !a.trace || (a.trace->horizon == b.trace->horizon &&
                      a.trace->series == b.trace->series);
}

/// Decodes `bytes` as a verdict-cache disk record and its value as a
/// verdict record; whatever decodes must survive both encoders, decode to
/// the same answer, and re-encode to the same bytes.
void fuzzCacheRecord(std::string_view bytes) {
  std::optional<core::AnalysisResult> answer;
  try {
    const auto value = cache::VerdictCache::decodeRecord(kRecordKey, bytes);
    if (!value) return;  // a miss
    answer = core::decodeVerdict(*value);
  } catch (const DecodeError&) {
    return;
  }
  checkTrace(answer->trace);
  const std::string again = cache::VerdictCache::encodeRecord(
      kRecordKey, core::encodeVerdict(*answer));
  const core::AnalysisResult back = core::decodeVerdict(
      cache::VerdictCache::decodeRecord(kRecordKey, again).value());
  if (!sameAnswer(*answer, back)) std::abort();
  if (cache::VerdictCache::encodeRecord(kRecordKey,
                                        core::encodeVerdict(back)) != again) {
    std::abort();
  }
}

/// A valid encoded job, result and disk record, with every optional part
/// present, each with the decoder it feeds.
struct Spliceable {
  std::string bytes;
  void (*fuzz)(std::string_view);
};

const std::vector<Spliceable>& validPayloads() {
  static const std::vector<Spliceable> payloads = [] {
    core::ProgramSpec spec;
    spec.instance = "p";
    spec.source = "p(buffer ib, buffer ob) { move-p(ib, ob, 1); }";
    spec.compile.constants["N"] = 2;
    core::BufferSpec in;
    in.param = "ib";
    in.modelOverride = buffers::ModelKind::Counter;
    core::BufferSpec out;
    out.param = "ob";
    out.role = core::BufferSpec::Role::Output;
    spec.buffers = {in, out};
    procs::WireJob job;
    job.network.add(spec);
    job.network.connect("p", "ob", "p", "ib");
    job.options.rlimit = 1000;
    auto plan = std::make_shared<backends::FaultPlan>();
    plan->at("s", 1, {backends::FaultAction::Kind::Hang});
    job.options.faultPlan = plan;
    job.cache = cache::VerdictCacheOptions{};
    job.queries = {"p.ob.dropped[T-1] >= 0"};
    job.workloadSpecs = {"p.ib:0:1"};

    core::AnalysisResult answer;
    answer.verdict = core::Verdict::Satisfiable;
    core::SolveAttempt attempt;
    attempt.stage = "initial";
    attempt.seed = 17;
    attempt.timeoutMs = 100;
    answer.attempts = {attempt};
    answer.trace = core::Trace{};
    answer.trace->horizon = 2;
    answer.trace->series["p.ob.dropped"] = {0, -1};
    answer.trace->series["p.ib.arrived"] = {1, 0};
    procs::WireResult result;
    result.verdicts = {answer};
    return std::vector<Spliceable>{
        {procs::encodeJob(job), fuzzRecords},
        {procs::encodeResult(result), fuzzRecords},
        {cache::VerdictCache::encodeRecord(kRecordKey,
                                           core::encodeVerdict(answer)),
         fuzzCacheRecord}};
  }();
  return payloads;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > 65536) return 0;  // pipe capacity; keeps single runs fast
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  fuzzRecords(bytes);
  fuzzCacheRecord(bytes);

  // The first two bytes pick where the rest overwrites a valid payload.
  if (size > 2) {
    for (const Spliceable& valid : validPayloads()) {
      std::string payload = valid.bytes;
      const std::size_t at = (data[0] | data[1] << 8) % payload.size();
      const std::size_t n = std::min(size - 2, payload.size() - at);
      payload.replace(at, n, bytes.substr(2, n));
      valid.fuzz(payload);
    }
  }

  fuzzReadFrame(data, size);
  return 0;
}
