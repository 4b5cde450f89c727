#ifndef GQE_BASE_SUBPROCESS_H_
#define GQE_BASE_SUBPROCESS_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace gqe {

/// Hard per-worker resource caps installed in the child via setrlimit
/// before any request work runs. Zero means "no cap" for that dimension.
/// These are the out-of-process guard rails behind the in-process
/// Governor: a worker that ignores its budget (a runaway loop, a leak, a
/// pathological allocation) is stopped by the kernel, not trusted to stop
/// itself.
struct WorkerLimits {
  /// RLIMIT_CPU, in whole seconds (rounded up). Exceeding it delivers
  /// SIGXCPU (default: kills the worker), which the supervisor classifies
  /// as a cpu-limit death.
  double cpu_seconds = 0.0;

  /// RLIMIT_AS, in bytes. An allocation past the cap fails (std::bad_alloc
  /// / nullptr), which the worker entry point turns into a dedicated OOM
  /// exit code instead of an abort.
  size_t address_space_bytes = 0;
};

/// How a reaped worker ended.
struct WorkerExit {
  /// True once waitpid reported the process gone (exited or signaled).
  bool reaped = false;
  bool exited = false;
  int exit_code = 0;
  bool signaled = false;
  int term_signal = 0;
};

/// A fork-isolated worker process plus the two pipes the supervisor reads:
/// `result_fd` carries the worker's serialized result (written once,
/// before exit) and `heartbeat_fd` carries liveness bytes. Both parent
/// ends are non-blocking.
///
/// IMPORTANT: Spawn forks without exec, so the child runs full C++ in the
/// parent's address-space image. That is only safe when the parent is
/// single-threaded at fork time (otherwise another thread may hold the
/// malloc lock forever in the child) — the serve supervisor is a
/// single-threaded event loop for exactly this reason.
class WorkerProcess {
 public:
  WorkerProcess() = default;
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;
  WorkerProcess(WorkerProcess&& other) noexcept;
  WorkerProcess& operator=(WorkerProcess&& other) noexcept;
  ~WorkerProcess();

  /// Forks a worker. In the child: installs `limits` (setrlimit), ignores
  /// SIGPIPE, closes the parent pipe ends, runs `body(result_fd,
  /// heartbeat_fd)` and passes its return value to _exit. Everything
  /// between fork and `body` is async-signal-safe. Returns false (with
  /// `error` set) when pipe/fork creation fails; the caller treats that as
  /// a retryable spawn error, not a crash.
  static bool Spawn(const WorkerLimits& limits,
                    const std::function<int(int result_fd, int heartbeat_fd)>& body,
                    WorkerProcess* out, std::string* error);

  /// Long-lived worker variant: adds a parent→child command pipe so one
  /// forked worker can serve many commands instead of fork-per-task. The
  /// child's read end is blocking (the worker parks in read between
  /// commands); the parent's write end is non-blocking so a stalled
  /// (SIGSTOP'd) worker with a full pipe can never wedge the supervisor —
  /// WriteCommand below polls with a deadline instead.
  static bool Spawn(
      const WorkerLimits& limits,
      const std::function<int(int command_fd, int result_fd, int heartbeat_fd)>&
          body,
      WorkerProcess* out, std::string* error);

  /// Writes `data` to the command pipe, polling past EAGAIN until
  /// `timeout_ms` elapses or the worker dies. Returns false on timeout,
  /// peer-gone, hard error, or when no command pipe exists; the caller
  /// treats any failure as a worker fault (kill + respawn), never a hang.
  bool WriteCommand(std::string_view data, double timeout_ms);

  /// Closes the parent's command write end. The worker sees EOF on its
  /// next read and exits cleanly — the graceful half of teardown.
  void CloseCommand();

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0 && !exit_.reaped; }
  const WorkerExit& exit_status() const { return exit_; }

  /// Non-blocking reap attempt (waitpid WNOHANG, retried across EINTR).
  /// Returns true when the worker is gone and `exit_status()` is final.
  /// Safe to call repeatedly. If some other code path already reaped the
  /// pid (ECHILD), the worker is marked reaped with an unknown exit
  /// instead of spinning on a zombie that will never appear.
  bool Poll();

  /// Blocking reap with a deadline: polls waitpid and drains both pipes
  /// until the worker is reaped or `timeout_ms` elapses. The supervisor
  /// calls this after Kill(SIGKILL) so long chaos soaks leak no zombies.
  /// Returns true when the worker was reaped within the deadline.
  bool WaitReaped(double timeout_ms);

  /// Drains available bytes from the result pipe into `result_bytes()`.
  /// Non-blocking; call from the supervisor loop and once more after the
  /// worker is reaped (the pipe buffers the final write).
  void DrainResult();

  /// Drains the heartbeat pipe; returns the number of beats consumed.
  size_t DrainHeartbeats();

  /// Sends `sig` to the worker (no-op once reaped). SIGKILL also reaches
  /// a SIGSTOP'd worker, which is how stalls are put down.
  void Kill(int sig);

  const std::string& result_bytes() const { return result_; }

  /// Moves the accumulated result bytes out, leaving the buffer empty.
  /// Long-lived workers stream many replies through one pipe; the
  /// supervisor feeds what has arrived to its own frame decoder
  /// (net/frame.h).
  std::string TakeResult() { return std::move(result_); }

 private:
  void CloseFds();

  pid_t pid_ = -1;
  int command_fd_ = -1;
  int result_fd_ = -1;
  int heartbeat_fd_ = -1;
  WorkerExit exit_;
  std::string result_;
};

/// Child-side liveness: writes one byte to `fd` every `interval_ms` from a
/// background thread until destroyed. A worker that stalls wholesale
/// (SIGSTOP, kernel livelock) stops beating — its threads stop with it —
/// and the supervisor's heartbeat timeout reaps it.
///
/// Destruction is prompt: the thread waits out each interval on a
/// condition variable, so the destructor wakes and joins it at once
/// instead of after up to one interval. A worker whose work is done exits
/// without waiting for the next beat.
class HeartbeatWriter {
 public:
  HeartbeatWriter(int fd, double interval_ms);
  ~HeartbeatWriter();

  HeartbeatWriter(const HeartbeatWriter&) = delete;
  HeartbeatWriter& operator=(const HeartbeatWriter&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

/// Writes all of `data` to `fd`, retrying on EINTR / short writes.
/// Returns false on the first hard write error. When `errno_out` is
/// non-null it receives the failing errno (0 on success) so callers can
/// distinguish a vanished reader (EPIPE/ECONNRESET — see
/// IsPeerGoneErrno) from a genuine I/O failure.
bool WriteAllToFd(int fd, std::string_view data, int* errno_out = nullptr);

/// True when a write errno means the other end of the pipe/socket is
/// gone (reader closed or connection reset) rather than the write
/// itself malfunctioning. With SIGPIPE ignored — which both the serve
/// front ends and every forked worker do — a dead peer surfaces as one
/// of these errnos on the offending fd instead of a process-wide
/// signal, and callers classify it as structured peer loss.
bool IsPeerGoneErrno(int err);

/// Installs `limits` on the calling process via setrlimit. Used by the
/// worker child setup and by deterministic OOM fault injection (a tiny
/// address-space cap makes the next big allocation fail). Async-signal-safe.
void InstallWorkerLimits(const WorkerLimits& limits);

/// Worker children inherit every supervisor fd at fork. Sockets must not
/// survive into orphaned workers: an orphan holding the listening socket
/// blocks the restarted daemon's bind() (SO_REUSEADDR does not cover a
/// live listener), and one holding an accepted connection keeps a dead
/// daemon's client from ever seeing EOF. Front ends register such fds
/// here; Spawn closes every registered fd in the child immediately after
/// fork. The registry is a fixed array walked with ::close, so the
/// child-side sweep stays async-signal-safe; registration happens only on
/// the single-threaded supervisor, so no locking.
void RegisterFdClosedInWorkers(int fd);
void UnregisterFdClosedInWorkers(int fd);

/// splitmix64 finalizer: the deterministic mixing function behind chaos
/// draws, retry jitter and shard ownership. Every (key, attempt) pair gets
/// its own stream, so concurrent scheduling cannot reorder the randomness.
uint64_t Mix64(uint64_t x);

/// Exponential backoff with deterministic jitter in [0.5, 1.5):
/// min(cap, base * 2^(attempt-1)) * (0.5 + draw(seed, stream)), where
/// `attempt` is 1-based and `cap_ms <= 0` means uncapped. Shared by the
/// serve supervisor's retry ladder and the shard coordinator's
/// respawn-and-replay loop so both back off identically for a given seed.
double BackoffDelayMs(int attempt, double base_ms, double cap_ms,
                      uint64_t seed, uint64_t stream);

}  // namespace gqe

#endif  // GQE_BASE_SUBPROCESS_H_
