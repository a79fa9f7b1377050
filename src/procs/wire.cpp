#include "procs/wire.hpp"

#include <sstream>

namespace buffy::procs {

namespace {

// ---- small helpers ------------------------------------------------------

std::string indexed(const char* prefix, std::size_t i,
                    const char* suffix = nullptr) {
  std::string key = prefix;
  key += '.';
  key += std::to_string(i);
  if (suffix != nullptr) {
    key += '.';
    key += suffix;
  }
  return key;
}

void setMaybeUint(WireMap& map, const char* key,
                  const std::optional<unsigned>& value) {
  if (value) map.setUint(key, *value);
}

std::optional<unsigned> getMaybeUint(const WireMap& map, const char* key) {
  if (!map.has(key)) return std::nullopt;
  return static_cast<unsigned>(map.getUint(key));
}

std::string joinInts(const std::vector<std::int64_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

std::vector<std::int64_t> splitInts(const std::string& text) {
  std::vector<std::int64_t> out;
  if (text.empty()) return out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    const std::string piece = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    try {
      std::size_t used = 0;
      out.push_back(std::stoll(piece, &used));
      if (used != piece.size()) throw ProtocolError("trailing junk");
    } catch (const ProtocolError&) {
      throw;
    } catch (const std::exception&) {
      throw ProtocolError("malformed integer list entry '" + piece + "'");
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void setStringList(WireMap& map, const char* prefix,
                   const std::vector<std::string>& values) {
  map.setUint(std::string(prefix) + ".count", values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    map.set(indexed(prefix, i), values[i]);
  }
}

std::vector<std::string> getStringList(const WireMap& map,
                                       const char* prefix) {
  const std::uint64_t count = map.getUint(std::string(prefix) + ".count");
  if (count > kMaxFramePayload) {
    throw ProtocolError("absurd list count for '" + std::string(prefix) + "'");
  }
  std::vector<std::string> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(map.get(indexed(prefix, i)));
  }
  return values;
}

// ---- nested records -----------------------------------------------------

std::string encodeBuffer(const core::BufferSpec& spec) {
  WireMap map;
  map.set("param", spec.param);
  map.setInt("role", static_cast<int>(spec.role));
  map.setInt("capacity", spec.capacity);
  setStringList(map, "field", spec.schema.fields);
  map.setInt("maxArrivalsPerStep", spec.maxArrivalsPerStep);
  if (spec.modelOverride) {
    map.setInt("modelOverride", static_cast<int>(*spec.modelOverride));
  }
  map.set("classField", spec.classField);
  map.setInt("classDomain", spec.classDomain);
  map.setInt("bytesPerPacket", spec.bytesPerPacket);
  map.setInt("maxPacketBytes", spec.maxPacketBytes);
  return map.encode();
}

buffers::ModelKind modelKindFromInt(std::int64_t value) {
  if (value != static_cast<int>(buffers::ModelKind::List) &&
      value != static_cast<int>(buffers::ModelKind::Counter)) {
    throw ProtocolError("unknown buffer model kind " + std::to_string(value));
  }
  return static_cast<buffers::ModelKind>(value);
}

core::BufferSpec decodeBuffer(const std::string& bytes) {
  const WireMap map = WireMap::decode(bytes);
  core::BufferSpec spec;
  spec.param = map.get("param");
  const std::int64_t role = map.getInt("role");
  if (role < 0 || role > static_cast<int>(core::BufferSpec::Role::Internal)) {
    throw ProtocolError("unknown buffer role " + std::to_string(role));
  }
  spec.role = static_cast<core::BufferSpec::Role>(role);
  spec.capacity = static_cast<int>(map.getInt("capacity"));
  spec.schema.fields = getStringList(map, "field");
  spec.maxArrivalsPerStep = static_cast<int>(map.getInt("maxArrivalsPerStep"));
  if (map.has("modelOverride")) {
    spec.modelOverride = modelKindFromInt(map.getInt("modelOverride"));
  }
  spec.classField = map.get("classField");
  spec.classDomain = static_cast<int>(map.getInt("classDomain"));
  spec.bytesPerPacket = static_cast<int>(map.getInt("bytesPerPacket"));
  spec.maxPacketBytes = static_cast<int>(map.getInt("maxPacketBytes"));
  return spec;
}

std::string encodeProgram(const core::ProgramSpec& spec) {
  WireMap map;
  map.set("instance", spec.instance);
  map.set("source", spec.source);
  map.setUint("const.count", spec.compile.constants.size());
  std::size_t i = 0;
  for (const auto& [name, value] : spec.compile.constants) {
    map.set(indexed("const", i, "name"), name);
    map.setInt(indexed("const", i, "value"), value);
    ++i;
  }
  map.setInt("defaultListCapacity", spec.compile.defaultListCapacity);
  map.setUint("buffer.count", spec.buffers.size());
  for (std::size_t b = 0; b < spec.buffers.size(); ++b) {
    map.set(indexed("buffer", b), encodeBuffer(spec.buffers[b]));
  }
  return map.encode();
}

core::ProgramSpec decodeProgram(const std::string& bytes) {
  const WireMap map = WireMap::decode(bytes);
  core::ProgramSpec spec;
  spec.instance = map.get("instance");
  spec.source = map.get("source");
  const std::uint64_t constants = map.getUint("const.count");
  for (std::size_t i = 0; i < constants; ++i) {
    spec.compile.constants[map.get(indexed("const", i, "name"))] =
        map.getInt(indexed("const", i, "value"));
  }
  spec.compile.defaultListCapacity =
      static_cast<int>(map.getInt("defaultListCapacity"));
  const std::uint64_t buffers = map.getUint("buffer.count");
  for (std::size_t b = 0; b < buffers; ++b) {
    spec.buffers.push_back(decodeBuffer(map.get(indexed("buffer", b))));
  }
  return spec;
}

std::string encodeConnection(const core::Connection& conn) {
  WireMap map;
  map.set("fromInstance", conn.fromInstance);
  map.set("fromParam", conn.fromParam);
  map.setInt("fromIndex", conn.fromIndex);
  map.set("toInstance", conn.toInstance);
  map.set("toParam", conn.toParam);
  map.setInt("toIndex", conn.toIndex);
  return map.encode();
}

core::Connection decodeConnection(const std::string& bytes) {
  const WireMap map = WireMap::decode(bytes);
  core::Connection conn;
  conn.fromInstance = map.get("fromInstance");
  conn.fromParam = map.get("fromParam");
  conn.fromIndex = static_cast<int>(map.getInt("fromIndex"));
  conn.toInstance = map.get("toInstance");
  conn.toParam = map.get("toParam");
  conn.toIndex = static_cast<int>(map.getInt("toIndex"));
  return conn;
}

std::string encodeFault(const WireFault& fault) {
  WireMap map;
  map.set("scope", fault.scope);
  map.setUint("nth", fault.nth);
  map.setInt("kind", fault.kind);
  map.set("reason", fault.reason);
  map.setUint("delayMs", fault.delayMs);
  return map.encode();
}

WireFault decodeFault(const std::string& bytes) {
  const WireMap map = WireMap::decode(bytes);
  WireFault fault;
  fault.scope = map.get("scope");
  fault.nth = map.getUint("nth");
  const std::int64_t kind = map.getInt("kind");
  if (kind < 0 ||
      kind > static_cast<int>(backends::FaultAction::Kind::PartialWrite)) {
    throw ProtocolError("unknown fault kind " + std::to_string(kind));
  }
  fault.kind = static_cast<int>(kind);
  fault.reason = map.get("reason");
  fault.delayMs = static_cast<unsigned>(map.getUint("delayMs"));
  return fault;
}

std::string encodeAttempt(const core::SolveAttempt& attempt) {
  WireMap map;
  map.set("stage", attempt.stage);
  map.set("outcome", attempt.outcome);
  map.set("reason", attempt.reason);
  map.setDouble("seconds", attempt.seconds);
  map.setUint("rlimitUsed", attempt.rlimitUsed);
  setMaybeUint(map, "seed", attempt.seed);
  setMaybeUint(map, "timeoutMs", attempt.timeoutMs);
  return map.encode();
}

core::SolveAttempt decodeAttempt(const std::string& bytes) {
  const WireMap map = WireMap::decode(bytes);
  core::SolveAttempt attempt;
  attempt.stage = map.get("stage");
  attempt.outcome = map.get("outcome");
  attempt.reason = map.get("reason");
  attempt.seconds = map.getDouble("seconds");
  attempt.rlimitUsed = map.getUint("rlimitUsed");
  attempt.seed = getMaybeUint(map, "seed");
  attempt.timeoutMs = getMaybeUint(map, "timeoutMs");
  return attempt;
}

std::string encodeTrace(const core::Trace& trace) {
  WireMap map;
  map.setInt("horizon", trace.horizon);
  map.setUint("series.count", trace.series.size());
  std::size_t i = 0;
  for (const auto& [name, values] : trace.series) {
    map.set(indexed("series", i, "name"), name);
    map.set(indexed("series", i, "values"), joinInts(values));
    ++i;
  }
  return map.encode();
}

core::Trace decodeTrace(const std::string& bytes) {
  const WireMap map = WireMap::decode(bytes);
  core::Trace trace;
  trace.horizon = static_cast<int>(map.getInt("horizon"));
  const std::uint64_t series = map.getUint("series.count");
  for (std::size_t i = 0; i < series; ++i) {
    trace.series[map.get(indexed("series", i, "name"))] =
        splitInts(map.get(indexed("series", i, "values")));
  }
  return trace;
}

std::string encodeVerdict(const WireVerdict& verdict) {
  WireMap map;
  map.set("verdict", verdict.verdict);
  map.set("detail", verdict.detail);
  map.setDouble("solveSeconds", verdict.solveSeconds);
  map.setBool("canceled", verdict.canceled);
  map.setBool("witnessChecked", verdict.witnessChecked);
  map.set("cacheKey", verdict.cacheKey);
  map.setBool("cached", verdict.cached);
  map.setUint("attempt.count", verdict.attempts.size());
  for (std::size_t i = 0; i < verdict.attempts.size(); ++i) {
    map.set(indexed("attempt", i), encodeAttempt(verdict.attempts[i]));
  }
  if (verdict.trace) map.set("trace", encodeTrace(*verdict.trace));
  return map.encode();
}

WireVerdict decodeVerdict(const std::string& bytes) {
  const WireMap map = WireMap::decode(bytes);
  WireVerdict verdict;
  verdict.verdict = map.get("verdict");
  // Reject unknown names right here: a garbled-but-checksummed reply must
  // not travel further as if it answered the query.
  (void)verdictFromName(verdict.verdict);
  verdict.detail = map.get("detail");
  verdict.solveSeconds = map.getDouble("solveSeconds");
  verdict.canceled = map.getBool("canceled");
  verdict.witnessChecked = map.getBool("witnessChecked");
  verdict.cacheKey = map.get("cacheKey");
  verdict.cached = map.getBool("cached");
  const std::uint64_t attempts = map.getUint("attempt.count");
  for (std::size_t i = 0; i < attempts; ++i) {
    verdict.attempts.push_back(decodeAttempt(map.get(indexed("attempt", i))));
  }
  if (map.has("trace")) verdict.trace = decodeTrace(map.get("trace"));
  return verdict;
}

}  // namespace

// ---- job ----------------------------------------------------------------

std::string encodeJob(const WireJob& job) {
  WireMap map;
  map.setUint("program.count", job.programs.size());
  for (std::size_t i = 0; i < job.programs.size(); ++i) {
    map.set(indexed("program", i), encodeProgram(job.programs[i]));
  }
  map.setUint("connection.count", job.connections.size());
  for (std::size_t i = 0; i < job.connections.size(); ++i) {
    map.set(indexed("connection", i), encodeConnection(job.connections[i]));
  }
  map.setInt("horizon", job.horizon);
  map.setInt("model", static_cast<int>(job.model));
  map.setBool("verify", job.verify);
  map.setBool("viaSmtLib", job.viaSmtLib);
  setStringList(map, "query", job.queries);
  setStringList(map, "workload", job.workloadSpecs);
  setMaybeUint(map, "timeoutMs", job.timeoutMs);
  setMaybeUint(map, "rlimit", job.rlimit);
  setMaybeUint(map, "maxMemoryMb", job.maxMemoryMb);
  setMaybeUint(map, "randomSeed", job.randomSeed);
  map.setBool("retryEnabled", job.retryEnabled);
  map.setBool("replayWitness", job.replayWitness);
  map.setBool("optEnabled", job.optEnabled);
  map.setBool("unrollLoops", job.unrollLoops);
  map.setBool("symbolicInitialState", job.symbolicInitialState);
  map.setBool("cacheEnabled", job.cacheEnabled);
  map.set("cacheDir", job.cacheDir);
  map.setUint("cacheMaxDiskBytes", job.cacheMaxDiskBytes);
  map.setBool("cacheVerify", job.cacheVerify);
  map.setUint("budget.maxNestingDepth", job.budget.maxNestingDepth);
  map.setUint("budget.maxExprTerms", job.budget.maxExprTerms);
  map.setUint("budget.maxAstNodes", job.budget.maxAstNodes);
  map.setUint("budget.maxUnrolledStmts", job.budget.maxUnrolledStmts);
  map.setUint("budget.maxInlinedStmts", job.budget.maxInlinedStmts);
  map.setUint("budget.maxExecStmts", job.budget.maxExecStmts);
  map.setUint("budget.maxTermNodes", job.budget.maxTermNodes);
  map.set("faultScope", job.faultScope);
  map.setUint("fault.count", job.faults.size());
  for (std::size_t i = 0; i < job.faults.size(); ++i) {
    map.set(indexed("fault", i), encodeFault(job.faults[i]));
  }
  map.setUint("attempt", job.attempt);
  return map.encode();
}

WireJob decodeJob(const WireMap& map) {
  WireJob job;
  const std::uint64_t programs = map.getUint("program.count");
  for (std::size_t i = 0; i < programs; ++i) {
    job.programs.push_back(decodeProgram(map.get(indexed("program", i))));
  }
  const std::uint64_t connections = map.getUint("connection.count");
  for (std::size_t i = 0; i < connections; ++i) {
    job.connections.push_back(
        decodeConnection(map.get(indexed("connection", i))));
  }
  job.horizon = static_cast<int>(map.getInt("horizon"));
  job.model = modelKindFromInt(map.getInt("model"));
  job.verify = map.getBool("verify");
  job.viaSmtLib = map.getBool("viaSmtLib");
  job.queries = getStringList(map, "query");
  job.workloadSpecs = getStringList(map, "workload");
  job.timeoutMs = getMaybeUint(map, "timeoutMs");
  job.rlimit = getMaybeUint(map, "rlimit");
  job.maxMemoryMb = getMaybeUint(map, "maxMemoryMb");
  job.randomSeed = getMaybeUint(map, "randomSeed");
  job.retryEnabled = map.getBool("retryEnabled");
  job.replayWitness = map.getBool("replayWitness");
  job.optEnabled = map.getBool("optEnabled");
  job.unrollLoops = map.getBool("unrollLoops");
  job.symbolicInitialState = map.getBool("symbolicInitialState");
  job.cacheEnabled = map.getBool("cacheEnabled");
  job.cacheDir = map.get("cacheDir");
  job.cacheMaxDiskBytes = map.getUint("cacheMaxDiskBytes");
  job.cacheVerify = map.getBool("cacheVerify");
  job.budget.maxNestingDepth = map.getUint("budget.maxNestingDepth");
  job.budget.maxExprTerms = map.getUint("budget.maxExprTerms");
  job.budget.maxAstNodes = map.getUint("budget.maxAstNodes");
  job.budget.maxUnrolledStmts = map.getUint("budget.maxUnrolledStmts");
  job.budget.maxInlinedStmts = map.getUint("budget.maxInlinedStmts");
  job.budget.maxExecStmts = map.getUint("budget.maxExecStmts");
  job.budget.maxTermNodes = map.getUint("budget.maxTermNodes");
  job.faultScope = map.get("faultScope");
  const std::uint64_t faults = map.getUint("fault.count");
  for (std::size_t i = 0; i < faults; ++i) {
    job.faults.push_back(decodeFault(map.get(indexed("fault", i))));
  }
  job.attempt = static_cast<unsigned>(map.getUint("attempt"));
  return job;
}

// ---- result -------------------------------------------------------------

std::string encodeResult(const WireResult& result) {
  WireMap map;
  map.setUint("verdict.count", result.verdicts.size());
  for (std::size_t i = 0; i < result.verdicts.size(); ++i) {
    map.set(indexed("verdict", i), encodeVerdict(result.verdicts[i]));
  }
  if (!result.error.empty()) map.set("error", result.error);
  return map.encode();
}

WireResult decodeResult(const WireMap& map) {
  WireResult result;
  const std::uint64_t verdicts = map.getUint("verdict.count");
  for (std::size_t i = 0; i < verdicts; ++i) {
    result.verdicts.push_back(decodeVerdict(map.get(indexed("verdict", i))));
  }
  if (const auto error = map.maybe("error")) result.error = *error;
  return result;
}

// ---- fault plan ---------------------------------------------------------

bool isWorkerFaultKind(backends::FaultAction::Kind kind) {
  switch (kind) {
    case backends::FaultAction::Kind::CrashBeforeReply:
    case backends::FaultAction::Kind::Hang:
    case backends::FaultAction::Kind::GarbledFrame:
    case backends::FaultAction::Kind::PartialWrite:
      return true;
    case backends::FaultAction::Kind::ForceUnknown:
    case backends::FaultAction::Kind::Throw:
    case backends::FaultAction::Kind::Delay:
    case backends::FaultAction::Kind::CorruptWitness:
      return false;
  }
  return false;
}

backends::FaultPlanPtr faultPlanFromWire(
    const std::vector<WireFault>& faults) {
  if (faults.empty()) return nullptr;
  auto plan = std::make_shared<backends::FaultPlan>();
  for (const auto& fault : faults) {
    backends::FaultAction action;
    action.kind = static_cast<backends::FaultAction::Kind>(fault.kind);
    action.reason = fault.reason;
    action.delayMs = fault.delayMs;
    plan->at(fault.scope, static_cast<std::size_t>(fault.nth),
             std::move(action));
  }
  return plan;
}

std::vector<WireFault> faultsToWire(const backends::FaultPlanPtr& plan) {
  std::vector<WireFault> faults;
  if (!plan) return faults;
  for (const auto& [key, action] : plan->actions()) {
    WireFault fault;
    fault.scope = key.first;
    fault.nth = key.second;
    fault.kind = static_cast<int>(action.kind);
    fault.reason = action.reason;
    fault.delayMs = action.delayMs;
    faults.push_back(std::move(fault));
  }
  return faults;
}

// ---- describability + option plumbing -----------------------------------

bool describable(const core::Network& network, const core::Workload& workload,
                 const std::vector<std::string>& workloadSpecs) {
  // Contracts carry invariant closures; programmatic workload rules are
  // opaque std::function values. Only spec-string workloads survive the
  // wire (the worker re-parses them at its own horizon).
  if (!network.contracts().empty()) return false;
  return workload.ruleCount() == 0 || !workloadSpecs.empty();
}

void applyOptionsToJob(const core::AnalysisOptions& options, WireJob& job) {
  job.horizon = options.horizon;
  job.model = options.model;
  job.timeoutMs = options.timeoutMs;
  job.rlimit = options.rlimit;
  job.maxMemoryMb = options.maxMemoryMb;
  job.randomSeed = options.randomSeed;
  job.retryEnabled = options.retry.enabled;
  job.replayWitness = options.replayWitness;
  job.optEnabled = options.opt.enabled;
  job.unrollLoops = options.unrollLoops;
  job.symbolicInitialState = options.symbolicInitialState;
  job.budget = options.budget;
  if (options.cache) {
    job.cacheEnabled = true;
    job.cacheDir = options.cache->options().dir;
    job.cacheMaxDiskBytes = options.cache->options().maxDiskBytes;
  }
  job.cacheVerify = options.cacheVerify;
  job.faults = faultsToWire(options.faultPlan);
}

core::AnalysisOptions optionsFromJob(const WireJob& job) {
  core::AnalysisOptions options;
  options.horizon = job.horizon;
  options.model = job.model;
  options.timeoutMs = job.timeoutMs;
  options.rlimit = job.rlimit;
  options.maxMemoryMb = job.maxMemoryMb;
  options.randomSeed = job.randomSeed;
  options.retry.enabled = job.retryEnabled;
  options.replayWitness = job.replayWitness;
  options.opt.enabled = job.optEnabled;
  options.unrollLoops = job.unrollLoops;
  options.symbolicInitialState = job.symbolicInitialState;
  options.budget = job.budget;
  if (job.cacheEnabled) {
    cache::VerdictCacheOptions copts;
    copts.dir = job.cacheDir;
    copts.maxDiskBytes = job.cacheMaxDiskBytes;
    options.cache = std::make_shared<cache::VerdictCache>(std::move(copts));
    options.cacheVerify = job.cacheVerify;
  }
  options.faultPlan = faultPlanFromWire(job.faults);
  return options;
}

// ---- AnalysisResult <-> wire --------------------------------------------

WireVerdict wireFromAnalysis(const core::AnalysisResult& result) {
  WireVerdict wire;
  wire.verdict = core::verdictName(result.verdict);
  wire.detail = result.detail;
  wire.solveSeconds = result.solveSeconds;
  wire.canceled = result.canceled;
  wire.witnessChecked = result.witnessChecked;
  wire.attempts = result.attempts;
  wire.trace = result.trace;
  wire.cacheKey = result.cacheKey;
  wire.cached = result.cached;
  return wire;
}

core::AnalysisResult analysisFromWire(const WireVerdict& wire) {
  core::AnalysisResult result;
  result.verdict = verdictFromName(wire.verdict);
  result.detail = wire.detail;
  result.solveSeconds = wire.solveSeconds;
  result.canceled = wire.canceled;
  result.witnessChecked = wire.witnessChecked;
  result.attempts = wire.attempts;
  result.trace = wire.trace;
  result.cacheKey = wire.cacheKey;
  result.cached = wire.cached;
  return result;
}

core::Verdict verdictFromName(const std::string& name) {
  static constexpr core::Verdict kAll[] = {
      core::Verdict::Satisfiable,     core::Verdict::Unsatisfiable,
      core::Verdict::Verified,        core::Verdict::Violated,
      core::Verdict::WitnessMismatch, core::Verdict::Unknown,
  };
  for (const core::Verdict v : kAll) {
    if (name == core::verdictName(v)) return v;
  }
  throw ProtocolError("unknown verdict name '" + name + "'");
}

void populateCache(cache::VerdictCache& cache, const WireVerdict& wire) {
  if (wire.cacheKey.empty() || wire.canceled) return;
  const auto verdict = core::parseVerdictName(wire.verdict);
  if (!verdict) return;
  switch (*verdict) {
    case core::Verdict::Satisfiable:
    case core::Verdict::Unsatisfiable:
    case core::Verdict::Verified:
    case core::Verdict::Violated: break;
    default: return;
  }
  cache::CachedVerdict value;
  value.verdict = wire.verdict;
  value.detail = wire.detail;
  value.solveSeconds = wire.solveSeconds;
  value.witnessChecked = wire.witnessChecked;
  value.trace = wire.trace;
  cache.store(wire.cacheKey, value);
}

}  // namespace buffy::procs
