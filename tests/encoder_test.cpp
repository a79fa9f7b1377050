// The symbolic encoder (paper §4) pinned at the term level, and checked
// against the concrete interpreter without a solver.
//
// EncoderDag fingerprints, in id order, every term reachable from an
// encoding's assumptions, soundness conditions, obligations, workload
// terms and series. A term's id is its creation index, and the
// enumerator's search order, the verdict-cache keys and the emitted
// SMT-LIB all follow ids, so a change to how the encoder builds its terms
// (store snapshots, merge order, arena storage) must leave every
// fingerprint as it is. The arena's node count alone cannot see a
// reordering; the fingerprint can.
//
// EncoderDifferential evaluates the symbolic encoding's series under every
// per-step arrival count and compares them with Analysis::simulate on the
// same arrivals. A concrete run takes constant branches and never
// snapshots the store, so a write that leaks across a snapshot shows up as
// a mismatch.
#include "pipeline/encoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "ir/term_eval.hpp"
#include "ir/term_hash.hpp"
#include "models/library.hpp"
#include "pipeline/driver.hpp"

#ifndef BUFFY_MODELS_DIR
#error "BUFFY_MODELS_DIR must be defined by the build"
#endif

namespace buffy::pipeline {
namespace {

using core::BufferSpec;
using ir::TermRef;

// ---- configurations ----------------------------------------------------

struct ModelConfig {
  const char* name;
  std::map<std::string, std::int64_t> constants;
  std::vector<BufferSpec> buffers;
  int horizon;
  int maxArrivals;  // per step, the same on every external input
  bool havocFree;
};

BufferSpec input(const char* param, int capacity, int maxArrivals) {
  BufferSpec spec;
  spec.param = param;
  spec.role = BufferSpec::Role::Input;
  spec.capacity = capacity;
  spec.maxArrivalsPerStep = maxArrivals;
  return spec;
}

BufferSpec output(const char* param, int capacity) {
  BufferSpec spec;
  spec.param = param;
  spec.role = BufferSpec::Role::Output;
  spec.capacity = capacity;
  return spec;
}

/// The golden-test scopes (tests/golden_test.cpp), one per example model.
std::vector<ModelConfig> goldenScopes() {
  return {
      {"aimd", {{"RTO", 3}},
       {input("ind", 8, 2), input("inack", 8, 2), output("out", 16),
        output("ackdrain", 16)},
       4, 2, true},
      {"delay_server", {}, {input("din", 8, 2), output("dout", 16)},
       4, 2, false},
      {"drr", {{"N", 2}, {"QUANTUM", 2}},
       {input("ibs", 6, 2), output("ob", 16)}, 4, 2, true},
      {"fq_buggy", {{"N", 2}}, {input("ibs", 6, 3), output("ob", 32)},
       5, 3, true},
      {"fq_fixed", {{"N", 2}}, {input("ibs", 6, 3), output("ob", 32)},
       5, 3, true},
      {"path_server", {{"RATE", 1}, {"BUCKET", 2}},
       {input("pin", 8, 2), output("pout", 16)}, 4, 2, false},
      {"round_robin", {{"N", 2}}, {input("ibs", 6, 2), output("ob", 16)},
       4, 2, true},
      {"strict_priority", {{"N", 2}},
       {input("ibs", 6, 2), output("ob", 16)}, 4, 2, true},
  };
}

std::string readModel(const std::string& name) {
  std::ifstream in(std::string(BUFFY_MODELS_DIR) + "/" + name + ".bfy");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

core::Network modelNet(const ModelConfig& m) {
  core::ProgramSpec spec;
  spec.source = readModel(m.name);
  spec.compile.constants = m.constants;
  if (m.constants.count("N") != 0) {
    spec.compile.defaultListCapacity =
        std::max<int>(2, static_cast<int>(m.constants.at("N")));
  }
  spec.buffers = m.buffers;
  core::Network net;
  net.add(spec);
  return net;
}

CompilationUnitPtr compileNet(core::Network net, int horizon,
                              buffers::ModelKind model = buffers::ModelKind::List,
                              bool symbolicInitialState = false) {
  core::AnalysisOptions options;
  options.horizon = horizon;
  options.model = model;
  options.symbolicInitialState = symbolicInitialState;
  const CompilerDriver driver(core::pipelineOptionsFor(options));
  return driver.compile(std::move(net));
}

/// §6.1's fair-queuing scheduler as the benchmark builds it (N = 2).
core::Network fqNet() {
  core::ProgramSpec spec;
  spec.instance = "fq";
  spec.source = models::kFairQueueBuggy;
  spec.compile.constants["N"] = 2;
  spec.compile.defaultListCapacity = 2;
  spec.buffers = {input("ibs", 6, 3), output("ob", 32)};
  core::Network net;
  net.add(spec);
  return net;
}

core::Workload starvationWorkload(int horizon) {
  core::Workload w;
  w.add(core::Workload::perStepCount("fq.ibs.0", 0, 1));
  w.add(core::Workload::countAtStep("fq.ibs.1", 0, 3, 3));
  for (int t = 1; t < horizon; ++t) {
    w.add(core::Workload::countAtStep("fq.ibs.1", t, 0, 0));
  }
  return w;
}

/// §6.2's AIMD sender, token-bucket path server and delay server, as the
/// benchmark builds them.
core::Network ccacNet(int pathCapacity) {
  core::ProgramSpec cca;
  cca.instance = "cca";
  cca.source = models::kAimdCca;
  cca.compile.constants["RTO"] = 3;
  cca.buffers = {input("ind", 16, 4), input("inack", 16, 0),
                 output("out", 16), output("ackdrain", 16)};
  core::ProgramSpec path;
  path.instance = "path";
  path.source = models::kPathServer;
  path.compile.constants["RATE"] = 2;
  path.compile.constants["BUCKET"] = 4;
  path.buffers = {input("pin", pathCapacity, 0), output("pout", 16)};
  core::ProgramSpec delay;
  delay.instance = "delay";
  delay.source = models::kDelayServer;
  delay.buffers = {input("din", 16, 0), output("dout", 16)};
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

// ---- the fingerprint ---------------------------------------------------

struct Fingerprint {
  std::size_t nodes = 0;      // terms in the arena
  std::size_t reachable = 0;  // terms reachable from the roots
  std::uint64_t hash = 0;

  bool operator==(const Fingerprint&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  return os << "{" << f.nodes << ", " << f.reachable << ", 0x" << std::hex
            << f.hash << std::dec << "ULL}";
}

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Hashes the roots (in order, with the series' names) and then every
/// reachable term in id order: id, kind, sort, value, name and argument
/// ids.
Fingerprint fingerprint(const core::Encoding& enc) {
  Fnv fnv;
  std::vector<TermRef> roots;
  const auto group = [&](const std::vector<TermRef>& terms) {
    fnv.add(terms.size());
    for (const TermRef t : terms) {
      fnv.add(t->id);
      roots.push_back(t);
    }
  };
  group(enc.assumptions);
  group(enc.soundness);
  std::vector<TermRef> obligations;
  for (const auto& o : enc.obligations) obligations.push_back(o.cond);
  group(obligations);
  group(enc.workloadTerms);
  for (const auto& [name, terms] : enc.series) {
    fnv.add(name);
    group(terms);
  }

  std::vector<TermRef> byId(enc.arena.size(), nullptr);
  std::vector<TermRef> stack = roots;
  while (!stack.empty()) {
    const TermRef t = stack.back();
    stack.pop_back();
    if (byId.at(t->id) != nullptr) continue;
    byId[t->id] = t;
    for (const TermRef arg : t->args) stack.push_back(arg);
  }
  Fingerprint out;
  out.nodes = enc.arena.size();
  for (const TermRef t : byId) {
    if (t == nullptr) continue;
    ++out.reachable;
    fnv.add(t->id);
    fnv.add(static_cast<std::uint64_t>(t->kind));
    fnv.add(static_cast<std::uint64_t>(t->sort));
    fnv.add(static_cast<std::uint64_t>(t->value));
    fnv.add(t->name);
    fnv.add(t->args.size());
    for (const TermRef arg : t->args) fnv.add(arg->id);
  }
  out.hash = fnv.value();
  return out;
}

/// Deterministic concrete traffic: input k gets (t + k + 1) mod
/// (maxArrivals + 1) packets at step t.
core::ConcreteArrivals patternArrivals(const CompilationUnit& unit,
                                       int horizon, int maxArrivals) {
  core::ConcreteArrivals arrivals;
  int k = 0;
  for (const std::string& name : unit.inputBufferNames()) {
    auto& steps = arrivals[name];
    for (int t = 0; t < horizon; ++t) {
      steps.emplace_back(
          static_cast<std::size_t>((t + k + 1) % (maxArrivals + 1)));
    }
    ++k;
  }
  return arrivals;
}

// ---- the pins ----------------------------------------------------------

struct Pinned {
  const char* config;
  Fingerprint fp;
};

// Recorded with every batch carrying its count (DESIGN.md §5 item 3). A
// change to how the encoder builds its terms must leave them as they are;
// one that changes what it builds re-records them.
const Pinned kPinned[] = {
    {"aimd list", {284, 231, 0x5516353d85b1fcb1ULL}},
    {"aimd counter", {284, 231, 0x9d41c114f386be77ULL}},
    {"aimd initial", {304, 251, 0x3ee35846394bdbdfULL}},
    {"aimd concrete", {11, 6, 0xc2bc53cf8ee8a181ULL}},
    {"delay_server list", {93, 91, 0xe3954bc4290a64b6ULL}},
    {"delay_server counter", {94, 91, 0x41c3d150e28cd89ULL}},
    {"delay_server initial", {103, 101, 0x49eac75e05d38e08ULL}},
    {"drr list", {1466, 1405, 0x5169d74e3272949ULL}},
    {"drr counter", {612, 557, 0xe33f6322447d0909ULL}},
    {"drr initial", {1481, 1420, 0xc348ed49e88618a1ULL}},
    {"drr concrete", {10, 5, 0xeebe59dce89aa94ULL}},
    {"fq_buggy list", {1457, 1309, 0xd56a4d0d249c9344ULL}},
    {"fq_buggy counter", {1457, 1309, 0xd56a4d0d249c9344ULL}},
    {"fq_buggy initial", {1472, 1324, 0x36d4ebcb6921c5d4ULL}},
    {"fq_buggy concrete", {11, 7, 0x659ff213c52813c5ULL}},
    {"fq_fixed list", {1529, 1369, 0xaed88be6fd0280abULL}},
    {"fq_fixed counter", {1529, 1369, 0xaed88be6fd0280abULL}},
    {"fq_fixed initial", {1544, 1384, 0xef065573b86130c4ULL}},
    {"fq_fixed concrete", {11, 7, 0x659ff213c52813c5ULL}},
    {"path_server list", {126, 116, 0xb638f12594a75b02ULL}},
    {"path_server counter", {126, 116, 0xb638f12594a75b02ULL}},
    {"path_server initial", {136, 126, 0xf3f82e0ec69dcf4aULL}},
    {"round_robin list", {406, 393, 0xc04dac68a00a9169ULL}},
    {"round_robin counter", {406, 393, 0xc04dac68a00a9169ULL}},
    {"round_robin initial", {421, 408, 0x9f527d045c7996efULL}},
    {"round_robin concrete", {10, 4, 0x67a0f51bb9b8383fULL}},
    {"strict_priority list", {198, 188, 0xd5d6bea53c0e14eaULL}},
    {"strict_priority counter", {198, 188, 0xd5d6bea53c0e14eaULL}},
    {"strict_priority initial", {213, 203, 0x5ceda918aafa0cbdULL}},
    {"strict_priority concrete", {10, 6, 0x7ab24df43f81e3b8ULL}},
    {"perfbench fq T=6", {1777, 1607, 0x95508190903e39eeULL}},
    {"perfbench ccac path3 T=7", {774, 663, 0x29413701ada1457eULL}},
    {"perfbench ccac path24 T=7", {775, 664, 0xa246c71c6d8c2d79ULL}},
};

TEST(EncoderDag, FingerprintsMatchThePinnedDags) {
  std::vector<std::pair<std::string, Fingerprint>> actual;
  for (const ModelConfig& m : goldenScopes()) {
    const std::string name = m.name;
    const auto listUnit = compileNet(modelNet(m), m.horizon);
    actual.emplace_back(
        name + " list",
        fingerprint(*buildEncoding(*listUnit, core::Workload{}, nullptr)));
    const auto counterUnit =
        compileNet(modelNet(m), m.horizon, buffers::ModelKind::Counter);
    actual.emplace_back(
        name + " counter",
        fingerprint(*buildEncoding(*counterUnit, core::Workload{}, nullptr)));
    const auto initialUnit = compileNet(modelNet(m), m.horizon,
                                        buffers::ModelKind::List, true);
    actual.emplace_back(
        name + " initial",
        fingerprint(*buildEncoding(*initialUnit, core::Workload{}, nullptr)));
    if (m.havocFree) {
      const core::ConcreteArrivals arrivals =
          patternArrivals(*listUnit, m.horizon, m.maxArrivals);
      actual.emplace_back(
          name + " concrete",
          fingerprint(*buildEncoding(*listUnit, core::Workload{}, &arrivals)));
    }
  }
  const auto fq = compileNet(fqNet(), 6);
  actual.emplace_back(
      "perfbench fq T=6",
      fingerprint(*buildEncoding(*fq, starvationWorkload(6), nullptr)));
  for (const int path : {3, 24}) {
    const auto ccac = compileNet(ccacNet(path), 7);
    actual.emplace_back(
        "perfbench ccac path" + std::to_string(path) + " T=7",
        fingerprint(*buildEncoding(*ccac, ccacWorkload(), nullptr)));
  }

  ASSERT_EQ(actual.size(), std::size(kPinned));
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, kPinned[i].config);
    EXPECT_EQ(actual[i].second, kPinned[i].fp)
        << "{\"" << actual[i].first << "\", " << actual[i].second << "},";
  }
}

// ---- structural hashes -------------------------------------------------

/// DESIGN.md §14's term hash, computed recursively from its definition.
/// With mix(h, v) = m ^ (m >> 31) where m = (h ^ v) * 1099511628211, a
/// term's hash starts from 1469598103934665603 and mixes in turn
/// kind * 256 + sort, the value, the name's length, the name in 8-byte
/// little-endian lanes (the last one zero-padded), the argument count and
/// each argument's hash; a result of 0 becomes 1.
class ReferenceHash {
 public:
  std::uint64_t operator()(TermRef t) {
    const auto known = memo_.find(t);
    if (known != memo_.end()) return known->second;
    std::uint64_t h = 1469598103934665603ULL;
    h = mix(h, static_cast<std::uint64_t>(t->kind) * 256 +
                   static_cast<std::uint64_t>(t->sort));
    h = mix(h, static_cast<std::uint64_t>(t->value));
    h = mix(h, t->name.size());
    for (std::size_t lane = 0; lane * 8 < t->name.size(); ++lane) {
      std::uint64_t bits = 0;
      for (std::size_t b = 0; b < 8 && lane * 8 + b < t->name.size(); ++b) {
        bits += static_cast<std::uint64_t>(
                    static_cast<unsigned char>(t->name[lane * 8 + b]))
                << (8 * b);
      }
      h = mix(h, bits);
    }
    h = mix(h, t->args.size());
    for (const TermRef arg : t->args) h = mix(h, (*this)(arg));
    if (h == 0) h = 1;
    memo_.emplace(t, h);
    return h;
  }

  /// A set's hash: its size, then its terms' hashes in ascending order.
  std::uint64_t set(const std::vector<TermRef>& terms) {
    std::vector<std::uint64_t> hashes;
    for (const TermRef t : terms) hashes.push_back((*this)(t));
    std::sort(hashes.begin(), hashes.end());
    std::uint64_t h = mix(1469598103934665603ULL, hashes.size());
    for (const std::uint64_t each : hashes) h = mix(h, each);
    return h;
  }

 private:
  static std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    const std::uint64_t m = (h ^ v) * 1099511628211ULL;
    return m ^ (m >> 31);
  }

  std::map<TermRef, std::uint64_t> memo_;
};

TEST(TermHash, EveryEncodedTermMatchesTheRecursiveReference) {
  for (const ModelConfig& m : goldenScopes()) {
    for (const auto model :
         {buffers::ModelKind::List, buffers::ModelKind::Counter}) {
      const auto unit = compileNet(modelNet(m), 3, model);
      const auto enc = buildEncoding(*unit, core::Workload{}, nullptr);
      std::vector<TermRef> stack = enc->assumptions;
      stack.insert(stack.end(), enc->soundness.begin(), enc->soundness.end());
      for (const auto& o : enc->obligations) stack.push_back(o.cond);
      for (const auto& [name, terms] : enc->series) {
        stack.insert(stack.end(), terms.begin(), terms.end());
      }
      ReferenceHash reference;
      std::vector<bool> seen(enc->arena.size(), false);
      std::size_t checked = 0;
      std::size_t wrong = 0;
      while (!stack.empty()) {
        const TermRef t = stack.back();
        stack.pop_back();
        if (seen.at(t->id)) continue;
        seen[t->id] = true;
        ++checked;
        if (t->hash != reference(t)) ++wrong;
        for (const TermRef arg : t->args) stack.push_back(arg);
      }
      const std::string config =
          std::string(m.name) +
          (model == buffers::ModelKind::List ? " list" : " counter");
      EXPECT_GT(checked, 10u) << config;
      EXPECT_EQ(wrong, 0u) << config << ": " << wrong << " of " << checked;
      EXPECT_EQ(ir::hashSet(enc->assumptions),
                reference.set(enc->assumptions))
          << config;
      EXPECT_EQ(ir::hashSet(enc->soundness), reference.set(enc->soundness))
          << config;
    }
  }
}

// ---- the solver-free differential ---------------------------------------

/// Every series of the symbolic encoding, evaluated under fixed arrival
/// counts, equals the concrete simulation of the same arrivals. Runs every
/// per-step count in [0, maxArrivals] on every external input of the six
/// havoc-free example models at T=3.
TEST(EncoderDifferential, SymbolicSeriesMatchSimulationOnEveryArrivalCount) {
  constexpr int kHorizon = 3;
  std::size_t runs = 0;
  for (const ModelConfig& m : goldenScopes()) {
    if (!m.havocFree) continue;
    SCOPED_TRACE(m.name);
    const auto unit = compileNet(modelNet(m), kHorizon);
    const auto enc = buildEncoding(*unit, core::Workload{}, nullptr);
    std::vector<std::string> names;
    std::vector<TermRef> terms;
    for (const auto& [name, series] : enc->series) {
      names.push_back(name);
      terms.insert(terms.end(), series.begin(), series.end());
    }

    core::AnalysisOptions options;
    options.horizon = kHorizon;
    core::Analysis analysis(modelNet(m), options);

    const std::vector<std::string> inputs = unit->inputBufferNames();
    const std::size_t cells = inputs.size() * kHorizon;
    std::vector<int> counts(cells, 0);  // odometer over (input, step)
    while (true) {
      core::ConcreteArrivals arrivals;
      ir::Assignment assignment;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        auto& steps = arrivals[inputs[i]];
        for (int t = 0; t < kHorizon; ++t) {
          const int n = counts[i * kHorizon + static_cast<std::size_t>(t)];
          steps.emplace_back(static_cast<std::size_t>(n));
          assignment[inputs[i] + ".t" + std::to_string(t) + ".n"] = n;
        }
      }
      const core::Trace trace = analysis.simulate(arrivals);
      const std::vector<std::int64_t> values = ir::evalTerms(terms, assignment);
      ASSERT_EQ(trace.series.size(), names.size());
      for (std::size_t s = 0; s < names.size(); ++s) {
        const auto it = trace.series.find(names[s]);
        ASSERT_NE(it, trace.series.end()) << names[s];
        const std::vector<std::int64_t> symbolic(
            values.begin() + static_cast<std::ptrdiff_t>(s * kHorizon),
            values.begin() + static_cast<std::ptrdiff_t>((s + 1) * kHorizon));
        ASSERT_EQ(symbolic, it->second) << names[s];
      }
      ++runs;

      std::size_t c = 0;
      while (c < cells && counts[c] == m.maxArrivals) counts[c++] = 0;
      if (c == cells) break;
      ++counts[c];
    }
  }
  // 4^6 arrival patterns for each FQ model, 3^6 for the other four.
  EXPECT_EQ(runs, 2u * 4096u + 4u * 729u);
}

}  // namespace
}  // namespace buffy::pipeline
