// The `buffy --worker` loop (DESIGN.md §13): serves framed analysis jobs
// on stdin/stdout until the parent closes the pipe or sends a shutdown
// frame. Each job is self-contained (procs/wire.hpp) — the worker
// recompiles from source, builds one engine, answers every query through
// it (one compile and encoding per job, same as the in-process sweep shard
// body), and replies with the full verdict record including the
// witness trace and the witness-replay cross-check outcome.
//
// Worker-kind fault actions (FaultPlan) are interpreted here, keyed on
// (job.faultScope, job.attempt): CrashBeforeReply exits without a reply,
// Hang stops responding until the supervisor's deadline kill, GarbledFrame
// and PartialWrite corrupt/tear the reply frame. Solver-kind actions pass
// through to the engine untouched.
#pragma once

#include "procs/wire.hpp"

namespace buffy::procs {

/// Serves jobs on fds 0/1 until clean EOF / shutdown frame (returns 0) or
/// an unrecoverable stream error (returns 65). Crash faults _exit(70).
int runWorker();

/// One job, in-process (the worker's solve path, exposed for tests and for
/// the supervisor's fallback when no worker can be spawned). Builds the
/// job's own VerdictCache from `job.cache`. Never throws: in-job failures
/// (compile error, budget exhaustion) come back as WireResult::error.
WireResult serveJob(const WireJob& job);

}  // namespace buffy::procs
