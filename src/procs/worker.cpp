#include "procs/worker.hpp"

#include <csignal>
#include <ctime>
#include <unistd.h>

#include "core/query.hpp"
#include "core/workload.hpp"
#include "procs/protocol.hpp"

namespace buffy::procs {

namespace {

/// True when `kind` is interpreted by this loop (process-level fault)
/// rather than by the solver backend.
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

[[noreturn]] void hangForever() {
  // Models a wedged solver: stop responding until the supervisor's
  // deadline expires and it kills us.
  timespec tick{};
  tick.tv_nsec = 100'000'000;  // 100ms
  for (;;) nanosleep(&tick, nullptr);
}

}  // namespace

WireResult serveJob(const WireJob& job) {
  WireResult result;
  try {
    core::AnalysisOptions options = job.options;
    options.cache =
        job.cache ? std::make_shared<cache::VerdictCache>(*job.cache) : nullptr;
    core::Analysis engine(job.network, std::move(options));
    engine.setFaultScope(job.faultScope);
    if (!job.workloadSpecs.empty()) {
      engine.setWorkload(
          core::workloadFromSpecs(job.workloadSpecs, job.options.horizon));
    }
    for (const auto& text : job.queries) {
      const core::Query query = core::Query::expr(text);
      result.verdicts.push_back(job.verify ? engine.verify(query)
                                           : engine.check(query));
    }
  } catch (const std::exception& e) {
    // A clean in-worker failure: the job was *answered*, with a failure —
    // the supervisor reports it instead of retrying.
    result.verdicts.clear();
    result.error = e.what();
  }
  return result;
}

int runWorker() {
  // The parent coordinates shutdown through the pipe (EOF / shutdown
  // frame) and SIGTERM; a terminal Ctrl-C must not race the parent's own
  // interrupted-report path by killing workers out from under it.
  std::signal(SIGINT, SIG_IGN);
  // A dead parent turns reply writes into EPIPE errors, not process death.
  std::signal(SIGPIPE, SIG_IGN);

  std::string payload;
  for (;;) {
    const ReadStatus status = readFrame(STDIN_FILENO, payload, -1);
    if (status == ReadStatus::Eof) return 0;
    if (status != ReadStatus::Ok) return 65;  // torn job frame: bail out

    std::optional<backends::FaultAction> fault;
    WireResult result;
    try {
      const WireMap frame = WireMap::decode(payload);
      const std::string type = frame.get("type");
      if (type == "shutdown") return 0;
      if (type != "job") {
        throw DecodeError("unknown frame type '" + type + "'");
      }
      const WireJob job = decodeJob(WireMap::decode(frame.get("job")));

      if (job.options.faultPlan) {
        fault = job.options.faultPlan->actionFor(job.faultScope, job.attempt);
        if (fault && !isWorkerFaultKind(fault->kind)) fault.reset();
      }
      if (fault) {
        if (fault->kind == backends::FaultAction::Kind::CrashBeforeReply) {
          _exit(70);
        }
        if (fault->kind == backends::FaultAction::Kind::Hang) hangForever();
      }

      result = serveJob(job);
    } catch (const std::exception& e) {
      // A malformed-but-checksummed frame is a parent-side bug; answer with
      // an error reply rather than wasting the supervisor's retries.
      result.verdicts.clear();
      result.error = e.what();
    }

    const std::string reply = encodeResult(result);
    if (fault && fault->kind == backends::FaultAction::Kind::GarbledFrame) {
      // The supervisor sees Garbled, kills us, and retries elsewhere.
      if (!writeGarbledFrame(STDOUT_FILENO, reply)) return 0;
      continue;
    }
    if (fault && fault->kind == backends::FaultAction::Kind::PartialWrite) {
      // Die mid-write: header + half a payload, then gone.
      writePartialFrame(STDOUT_FILENO, reply);
      _exit(70);
    }
    if (!writeFrame(STDOUT_FILENO, reply)) return 0;  // parent went away
  }
}

}  // namespace buffy::procs
