// Cooperative process-wide shutdown (satellite of DESIGN.md §13): a
// SIGINT/SIGTERM watcher that flips a flag and fires registered
// cancellation callbacks, so long-running solves, sweeps and proofs stop
// their solver engines, the CLI emits a partial report with "status":
// "interrupted", and the process exits 130 — instead of dying mid-write
// with orphaned state.
//
// Design notes:
//  * all state is leaked on purpose (function-local `new` singletons) so
//    the detached watcher thread can never race static destruction at
//    process exit;
//  * the watcher thread owns the signals: main() blocks SIGINT/SIGTERM
//    via pthread_sigmask *before* any thread is spawned (children of a
//    blocked-mask thread inherit it), and the watcher sigtimedwait()s
//    them. The first signal requests shutdown; a second one _exit()s
//    immediately (the escape hatch when cancellation itself wedges);
//  * callbacks run on the watcher thread — they must be thread-safe and
//    fast (Analysis::interrupt, UnboundedAnalysis::interrupt and
//    Job::cancel all qualify).
#pragma once

#include <cstdint>
#include <functional>

namespace buffy::procs {

/// True once a shutdown signal arrived (or requestShutdown was called).
bool shutdownRequested();

/// The signal number that triggered shutdown (SIGINT/SIGTERM), 0 when none
/// did. The CLI maps this to exit code 128+sig.
int shutdownSignal();

/// Programmatic trigger (tests; also what the watcher calls): sets the
/// flag and fires every registered callback once.
void requestShutdown(int signal);

/// Blocks SIGINT/SIGTERM in the calling thread (and every thread it
/// spawns later) and starts the detached watcher thread. Call exactly once
/// from main() before spawning any threads; later calls are no-ops.
void installSignalWatcher();

/// RAII registration of a cancellation callback; fires on the first
/// shutdown signal, unregisters on destruction. If shutdown was already
/// requested when the token is created, the callback fires immediately
/// (no lost-wakeup window).
class ShutdownToken {
 public:
  explicit ShutdownToken(std::function<void()> onShutdown);
  ~ShutdownToken();
  ShutdownToken(const ShutdownToken&) = delete;
  ShutdownToken& operator=(const ShutdownToken&) = delete;

 private:
  std::uint64_t id_ = 0;
};

}  // namespace buffy::procs
