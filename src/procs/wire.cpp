#include "procs/wire.hpp"

#include <memory>
#include <utility>

namespace buffy::procs {

namespace {

// ---- small helpers ------------------------------------------------------

std::string indexed(const char* prefix, std::size_t i) {
  return std::string(prefix) + '.' + std::to_string(i);
}

void setMaybeUint(WireMap& map, const char* key,
                  const std::optional<unsigned>& value) {
  if (value) map.setUint(key, *value);
}

std::optional<unsigned> getMaybeUint(const WireMap& map, const char* key) {
  if (!map.has(key)) return std::nullopt;
  return static_cast<unsigned>(map.getUint(key));
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
  if (count > kMaxEnvelopePayload) {
    throw DecodeError("absurd list count for '" + std::string(prefix) + "'");
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
    throw DecodeError("unknown buffer model kind " + std::to_string(value));
  }
  return static_cast<buffers::ModelKind>(value);
}

core::BufferSpec decodeBuffer(const std::string& bytes) {
  const WireMap map = WireMap::decode(bytes);
  core::BufferSpec spec;
  spec.param = map.get("param");
  const std::int64_t role = map.getInt("role");
  if (role < 0 || role > static_cast<int>(core::BufferSpec::Role::Internal)) {
    throw DecodeError("unknown buffer role " + std::to_string(role));
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
  WireMap constants;
  for (const auto& [name, value] : spec.compile.constants) {
    constants.setInt(name, value);
  }
  map.set("constants", constants.encode());
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
  const WireMap constants = WireMap::decode(map.get("constants"));
  for (const auto& [name, value] : constants.entries()) {
    spec.compile.constants[name] = constants.getInt(name);
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

std::string encodeFaultPlan(const backends::FaultPlan& plan) {
  WireMap map;
  map.setUint("count", plan.actions().size());
  std::size_t i = 0;
  for (const auto& [key, action] : plan.actions()) {
    map.set(indexed("scope", i), key.first);
    map.setUint(indexed("nth", i), key.second);
    map.setInt(indexed("kind", i), static_cast<int>(action.kind));
    map.set(indexed("reason", i), action.reason);
    map.setUint(indexed("delayMs", i), action.delayMs);
    ++i;
  }
  return map.encode();
}

backends::FaultPlanPtr decodeFaultPlan(const std::string& bytes) {
  const WireMap map = WireMap::decode(bytes);
  auto plan = std::make_shared<backends::FaultPlan>();
  const std::uint64_t count = map.getUint("count");
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t kind = map.getInt(indexed("kind", i));
    if (kind < 0 ||
        kind > static_cast<int>(backends::FaultAction::Kind::PartialWrite)) {
      throw DecodeError("unknown fault kind " + std::to_string(kind));
    }
    backends::FaultAction action;
    action.kind = static_cast<backends::FaultAction::Kind>(kind);
    action.reason = map.get(indexed("reason", i));
    action.delayMs = static_cast<unsigned>(map.getUint(indexed("delayMs", i)));
    plan->at(map.get(indexed("scope", i)),
             static_cast<std::size_t>(map.getUint(indexed("nth", i))),
             std::move(action));
  }
  return plan;
}

/// CompileBudget's caps, one wire key each.
using BudgetCap = std::size_t CompileBudget::*;
constexpr std::pair<const char*, BudgetCap> kBudgetCaps[] = {
    {"budget.maxNestingDepth", &CompileBudget::maxNestingDepth},
    {"budget.maxExprTerms", &CompileBudget::maxExprTerms},
    {"budget.maxAstNodes", &CompileBudget::maxAstNodes},
    {"budget.maxUnrolledStmts", &CompileBudget::maxUnrolledStmts},
    {"budget.maxInlinedStmts", &CompileBudget::maxInlinedStmts},
    {"budget.maxExecStmts", &CompileBudget::maxExecStmts},
    {"budget.maxTermNodes", &CompileBudget::maxTermNodes},
};

/// Every AnalysisOptions field but `cache`, which stays in the process
/// that owns it.
void encodeOptions(const core::AnalysisOptions& options, WireMap& map) {
  map.setInt("horizon", options.horizon);
  map.setInt("model", static_cast<int>(options.model));
  setMaybeUint(map, "timeoutMs", options.timeoutMs);
  setMaybeUint(map, "rlimit", options.rlimit);
  setMaybeUint(map, "maxMemoryMb", options.maxMemoryMb);
  map.setBool("retry.enabled", options.retry.enabled);
  map.setBool("replayWitness", options.replayWitness);
  if (options.faultPlan) {
    map.set("faultPlan", encodeFaultPlan(*options.faultPlan));
  }
  map.setBool("unrollLoops", options.unrollLoops);
  map.setBool("symbolicInitialState", options.symbolicInitialState);
  map.setBool("opt.enabled", options.opt.enabled);
  map.setBool("opt.slice", options.opt.slice);
  map.setBool("opt.rewrite", options.opt.rewrite);
  for (const auto& [key, cap] : kBudgetCaps) {
    map.setUint(key, options.budget.*cap);
  }
  map.setBool("cacheVerify", options.cacheVerify);
}

core::AnalysisOptions decodeOptions(const WireMap& map) {
  core::AnalysisOptions options;
  options.horizon = static_cast<int>(map.getInt("horizon"));
  options.model = modelKindFromInt(map.getInt("model"));
  options.timeoutMs = getMaybeUint(map, "timeoutMs");
  options.rlimit = getMaybeUint(map, "rlimit");
  options.maxMemoryMb = getMaybeUint(map, "maxMemoryMb");
  options.retry.enabled = map.getBool("retry.enabled");
  options.replayWitness = map.getBool("replayWitness");
  if (map.has("faultPlan")) {
    options.faultPlan = decodeFaultPlan(map.get("faultPlan"));
  }
  options.unrollLoops = map.getBool("unrollLoops");
  options.symbolicInitialState = map.getBool("symbolicInitialState");
  options.opt.enabled = map.getBool("opt.enabled");
  options.opt.slice = map.getBool("opt.slice");
  options.opt.rewrite = map.getBool("opt.rewrite");
  for (const auto& [key, cap] : kBudgetCaps) {
    options.budget.*cap = map.getUint(key);
  }
  options.cacheVerify = map.getBool("cacheVerify");
  return options;
}

}  // namespace

// ---- job ----------------------------------------------------------------

std::string encodeJob(const WireJob& job) {
  WireMap map;
  const auto& programs = job.network.instances();
  map.setUint("program.count", programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    map.set(indexed("program", i), encodeProgram(programs[i]));
  }
  const auto& connections = job.network.connections();
  map.setUint("connection.count", connections.size());
  for (std::size_t i = 0; i < connections.size(); ++i) {
    map.set(indexed("connection", i), encodeConnection(connections[i]));
  }
  encodeOptions(job.options, map);
  if (job.cache) {
    map.set("cache.dir", job.cache->dir);
    map.setUint("cache.maxMemoryEntries", job.cache->maxMemoryEntries);
    map.setUint("cache.maxDiskBytes", job.cache->maxDiskBytes);
  }
  map.setBool("verify", job.verify);
  setStringList(map, "query", job.queries);
  setStringList(map, "workload", job.workloadSpecs);
  map.set("faultScope", job.faultScope);
  map.setUint("attempt", job.attempt);
  return map.encode();
}

WireJob decodeJob(const WireMap& map) {
  WireJob job;
  const std::uint64_t programs = map.getUint("program.count");
  for (std::size_t i = 0; i < programs; ++i) {
    job.network.add(decodeProgram(map.get(indexed("program", i))));
  }
  const std::uint64_t connections = map.getUint("connection.count");
  for (std::size_t i = 0; i < connections; ++i) {
    core::Connection c = decodeConnection(map.get(indexed("connection", i)));
    job.network.connect(std::move(c.fromInstance), std::move(c.fromParam),
                        c.fromIndex, std::move(c.toInstance),
                        std::move(c.toParam), c.toIndex);
  }
  job.options = decodeOptions(map);
  if (map.has("cache.dir")) {
    cache::VerdictCacheOptions settings;
    settings.dir = map.get("cache.dir");
    settings.maxMemoryEntries = map.getUint("cache.maxMemoryEntries");
    settings.maxDiskBytes = map.getUint("cache.maxDiskBytes");
    job.cache = std::move(settings);
  }
  job.verify = map.getBool("verify");
  job.queries = getStringList(map, "query");
  job.workloadSpecs = getStringList(map, "workload");
  job.faultScope = map.get("faultScope");
  job.attempt = static_cast<unsigned>(map.getUint("attempt"));
  return job;
}

// ---- result -------------------------------------------------------------

std::string encodeResult(const WireResult& result) {
  WireMap map;
  map.setUint("verdict.count", result.verdicts.size());
  for (std::size_t i = 0; i < result.verdicts.size(); ++i) {
    map.set(indexed("verdict", i), core::encodeVerdict(result.verdicts[i]));
  }
  if (!result.error.empty()) map.set("error", result.error);
  return map.encode();
}

WireResult decodeResult(const WireMap& map) {
  WireResult result;
  const std::uint64_t verdicts = map.getUint("verdict.count");
  for (std::size_t i = 0; i < verdicts; ++i) {
    result.verdicts.push_back(
        core::decodeVerdict(map.get(indexed("verdict", i))));
  }
  if (map.has("error")) result.error = map.get("error");
  return result;
}

// ---- describability -----------------------------------------------------

bool describable(const core::Network& network, const core::Workload& workload,
                 const std::vector<std::string>& workloadSpecs,
                 const std::vector<core::Query>& queries) {
  // Contracts carry invariant closures; programmatic workload rules and
  // custom queries are opaque std::function values. Only spec-string
  // workloads and query text survive the wire.
  if (!network.contracts().empty()) return false;
  for (const auto& query : queries) {
    if (!query.textual() && query.description() != "true") return false;
  }
  return workload.ruleCount() == 0 || !workloadSpecs.empty();
}

}  // namespace buffy::procs
