#include "base/subprocess.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

namespace gqe {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point DeadlineAfter(double timeout_ms) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                timeout_ms > 0 ? timeout_ms : 0));
}

double MsUntil(Clock::time_point deadline) {
  return std::chrono::duration<double, std::milli>(deadline - Clock::now())
      .count();
}

// Waits in ppoll(2) on `fds` for at most `timeout_ms` (0 or less: a
// probe). EINTR ends the wait early; every caller re-checks its state and
// waits again.
void PollFor(pollfd* fds, size_t count, double timeout_ms) {
  // Capped at a day so the conversion cannot overflow.
  const double ms = std::clamp(timeout_ms, 0.0, 86400000.0);
  timespec wait;
  wait.tv_sec = static_cast<time_t>(ms / 1000.0);
  wait.tv_nsec = static_cast<long>(
      (ms - static_cast<double>(wait.tv_sec) * 1000.0) * 1e6);
  ::ppoll(fds, static_cast<nfds_t>(count), &wait, nullptr);
}

// Blocks SIGPIPE on the calling thread for its lifetime, so a write to a
// pipe whose reader is gone fails with EPIPE instead of raising a signal
// whose default action kills the process. A SIGPIPE raised meanwhile is
// taken off the pending set before the old mask comes back.
class SigpipeBlock {
 public:
  SigpipeBlock() {
    sigemptyset(&sigpipe_);
    sigaddset(&sigpipe_, SIGPIPE);
    ::pthread_sigmask(SIG_BLOCK, &sigpipe_, &old_mask_);
    sigset_t pending;
    sigemptyset(&pending);
    ::sigpending(&pending);
    was_pending_ = sigismember(&pending, SIGPIPE) == 1;
  }
  ~SigpipeBlock() {
    if (!was_pending_) {
      const timespec zero{};
      while (::sigtimedwait(&sigpipe_, nullptr, &zero) < 0 && errno == EINTR) {
      }
    }
    ::pthread_sigmask(SIG_SETMASK, &old_mask_, nullptr);
  }
  SigpipeBlock(const SigpipeBlock&) = delete;
  SigpipeBlock& operator=(const SigpipeBlock&) = delete;

 private:
  sigset_t sigpipe_;
  sigset_t old_mask_;
  bool was_pending_ = false;
};

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void CloseQuietly(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

// Drains whatever is available from the non-blocking fd `*fd`. Appends to
// `out` when non-null; returns bytes read this call. At end of file (the
// writer is gone and the pipe is empty) the fd is closed and set to -1:
// nothing more can come, and poll(2) would report the hang-up again on
// every call, turning each wait on it into a busy loop.
size_t DrainFd(int* fd, std::string* out) {
  size_t total = 0;
  char buffer[4096];
  while (*fd >= 0) {
    const ssize_t n = ::read(*fd, buffer, sizeof(buffer));
    if (n > 0) {
      if (out != nullptr) out->append(buffer, static_cast<size_t>(n));
      total += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      CloseQuietly(fd);
      break;
    }
    if (errno == EINTR) continue;
    break;  // EAGAIN: drained for now
  }
  return total;
}

// Supervisor-owned sockets that must not leak into forked workers.
// Sized generously above any realistic connection cap; past the cap,
// registration silently drops — the cost is a leaked-into-worker fd, the
// same behavior as before the registry existed.
constexpr size_t kMaxWorkerClosedFds = 1024;
int g_worker_closed_fds[kMaxWorkerClosedFds];
size_t g_worker_closed_count = 0;

}  // namespace

void RegisterFdClosedInWorkers(int fd) {
  if (fd < 0 || g_worker_closed_count >= kMaxWorkerClosedFds) return;
  g_worker_closed_fds[g_worker_closed_count++] = fd;
}

void UnregisterFdClosedInWorkers(int fd) {
  for (size_t i = 0; i < g_worker_closed_count; ++i) {
    if (g_worker_closed_fds[i] == fd) {
      g_worker_closed_fds[i] = g_worker_closed_fds[--g_worker_closed_count];
      return;
    }
  }
}

void InstallWorkerLimits(const WorkerLimits& limits) {
  if (limits.cpu_seconds > 0) {
    struct rlimit rl;
    rl.rlim_cur = static_cast<rlim_t>(std::ceil(limits.cpu_seconds));
    if (rl.rlim_cur < 1) rl.rlim_cur = 1;
    // Leave one second of hard-limit headroom so SIGXCPU (catchable,
    // classifiable) arrives before the unconditional SIGKILL.
    rl.rlim_max = rl.rlim_cur + 1;
    ::setrlimit(RLIMIT_CPU, &rl);
  }
  if (limits.address_space_bytes > 0) {
    struct rlimit rl;
    rl.rlim_cur = static_cast<rlim_t>(limits.address_space_bytes);
    rl.rlim_max = static_cast<rlim_t>(limits.address_space_bytes);
    ::setrlimit(RLIMIT_AS, &rl);
  }
}

bool WriteAllToFd(int fd, std::string_view data, int* errno_out) {
  if (errno_out != nullptr) *errno_out = 0;
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno_out != nullptr) *errno_out = errno;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

bool IsPeerGoneErrno(int err) { return err == EPIPE || err == ECONNRESET; }

std::string SignalCauseName(int sig) {
  switch (sig) {
    case SIGKILL:
      return "sigkill";
    case SIGSEGV:
      return "sigsegv";
    case SIGBUS:
      return "sigbus";
    case SIGABRT:
      return "sigabrt";
    case SIGXCPU:
      return "cpu-limit";
    case SIGTERM:
      return "sigterm";
    default:
      return "signal:" + std::to_string(sig);
  }
}

WorkerProcess::WorkerProcess(WorkerProcess&& other) noexcept {
  *this = std::move(other);
}

WorkerProcess& WorkerProcess::operator=(WorkerProcess&& other) noexcept {
  if (this != &other) {
    CloseFds();
    pid_ = other.pid_;
    command_fd_ = other.command_fd_;
    result_fd_ = other.result_fd_;
    heartbeat_fd_ = other.heartbeat_fd_;
    exit_fd_ = other.exit_fd_;
    exit_ = other.exit_;
    result_ = std::move(other.result_);
    other.pid_ = -1;
    other.command_fd_ = -1;
    other.result_fd_ = -1;
    other.heartbeat_fd_ = -1;
    other.exit_fd_ = -1;
    other.exit_ = WorkerExit{};
  }
  return *this;
}

WorkerProcess::~WorkerProcess() {
  // A destroyed handle must not leak a live child or a zombie: kill hard
  // and reap synchronously. Supervisors normally reap via Poll first, so
  // this is the abnormal-path cleanup only.
  if (pid_ > 0 && !exit_.reaped) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  CloseFds();
}

void WorkerProcess::CloseFds() {
  CloseQuietly(&command_fd_);
  CloseQuietly(&result_fd_);
  CloseQuietly(&heartbeat_fd_);
  CloseQuietly(&exit_fd_);
}

bool WorkerProcess::WriteCommand(std::string_view data, double timeout_ms) {
  if (command_fd_ < 0) return false;
  const Clock::time_point deadline = DeadlineAfter(timeout_ms);
  const SigpipeBlock no_sigpipe;
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(command_fd_, data.data() + written, data.size() - written);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Full pipe: the worker is slow or stalled. Wait for room until the
      // deadline. A worker that dies closes its read end, which ends the
      // wait with POLLERR and fails the next write with EPIPE.
      const double left = MsUntil(deadline);
      if (left <= 0) return false;
      pollfd room{command_fd_, POLLOUT, 0};
      PollFor(&room, 1, left);
      continue;
    }
    return false;  // EPIPE (worker gone) or a hard error
  }
  return true;
}

namespace {

// Raw handles a successful fork hands back to the Spawn members.
struct SpawnedWorker {
  pid_t pid = -1;
  int command_fd = -1;
  int result_fd = -1;
  int heartbeat_fd = -1;
  int exit_fd = -1;
};

// Shared fork path behind both Spawn overloads. `with_command` adds the
// parent→child command pipe used by long-lived workers.
bool SpawnWorkerImpl(
    const WorkerLimits& limits, bool with_command,
    const std::function<int(int command_fd, int result_fd, int heartbeat_fd)>&
        body,
    SpawnedWorker* out, std::string* error) {
  int command_pipe[2] = {-1, -1};
  int result_pipe[2] = {-1, -1};
  int heartbeat_pipe[2] = {-1, -1};
  auto close_all = [&] {
    CloseQuietly(&command_pipe[0]);
    CloseQuietly(&command_pipe[1]);
    CloseQuietly(&result_pipe[0]);
    CloseQuietly(&result_pipe[1]);
    CloseQuietly(&heartbeat_pipe[0]);
    CloseQuietly(&heartbeat_pipe[1]);
  };
  if ((with_command && ::pipe(command_pipe) != 0) ||
      ::pipe(result_pipe) != 0 || ::pipe(heartbeat_pipe) != 0) {
    if (error != nullptr) *error = std::string("pipe: ") + std::strerror(errno);
    close_all();
    return false;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    if (error != nullptr) *error = std::string("fork: ") + std::strerror(errno);
    close_all();
    return false;
  }

  if (pid == 0) {
    // Child. Only async-signal-safe calls until `body` takes over: close,
    // signal disposition, setrlimit.
    if (with_command) ::close(command_pipe[1]);
    ::close(result_pipe[0]);
    ::close(heartbeat_pipe[0]);
    // The serving tier's sockets die with the fork: an orphaned worker
    // holding the listening socket would make the restarted daemon's
    // bind fail, and one holding a connection would hide the crash from
    // that client.
    for (size_t i = 0; i < g_worker_closed_count; ++i) {
      ::close(g_worker_closed_fds[i]);
    }
    // A supervisor that died mid-run must not SIGPIPE the worker; the
    // write error is handled instead.
    ::signal(SIGPIPE, SIG_IGN);
    // Workers are their own delivery targets for SIGINT/SIGTERM: reset
    // any cooperative-cancel handler inherited from the parent.
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    InstallWorkerLimits(limits);
    int code = 127;
    code = body(with_command ? command_pipe[0] : -1, result_pipe[1],
                heartbeat_pipe[1]);
    ::_exit(code);
  }

  // Parent. The command write end is non-blocking so WriteCommand can
  // wait for room with a deadline instead of wedging on a stalled
  // worker's full pipe.
  if (with_command) {
    ::close(command_pipe[0]);
    SetNonBlocking(command_pipe[1]);
  }
  ::close(result_pipe[1]);
  ::close(heartbeat_pipe[1]);
  SetNonBlocking(result_pipe[0]);
  SetNonBlocking(heartbeat_pipe[0]);
  out->pid = pid;
  out->command_fd = with_command ? command_pipe[1] : -1;
  out->result_fd = result_pipe[0];
  out->heartbeat_fd = heartbeat_pipe[0];
  // A pidfd turns readable once the worker can be reaped. The pipes'
  // hang-up is no substitute: an exiting process closes its files before
  // it can be reaped, and a supervisor that polls on in that window,
  // woken at once by the hang-up each time, can keep the dying worker
  // off the CPU for a whole time slice. Without pidfd support (-1) the
  // waits fall back to the pipes and their deadlines.
  out->exit_fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  return true;
}

}  // namespace

bool WorkerProcess::Spawn(
    const WorkerLimits& limits,
    const std::function<int(int result_fd, int heartbeat_fd)>& body,
    WorkerProcess* out, std::string* error) {
  SpawnedWorker spawned;
  if (!SpawnWorkerImpl(
          limits, /*with_command=*/false,
          [&body](int, int result_fd, int heartbeat_fd) {
            return body(result_fd, heartbeat_fd);
          },
          &spawned, error)) {
    return false;
  }
  *out = WorkerProcess();
  out->pid_ = spawned.pid;
  out->command_fd_ = spawned.command_fd;
  out->result_fd_ = spawned.result_fd;
  out->heartbeat_fd_ = spawned.heartbeat_fd;
  out->exit_fd_ = spawned.exit_fd;
  return true;
}

bool WorkerProcess::Spawn(
    const WorkerLimits& limits,
    const std::function<int(int command_fd, int result_fd, int heartbeat_fd)>&
        body,
    WorkerProcess* out, std::string* error) {
  SpawnedWorker spawned;
  if (!SpawnWorkerImpl(limits, /*with_command=*/true, body, &spawned, error)) {
    return false;
  }
  *out = WorkerProcess();
  out->pid_ = spawned.pid;
  out->command_fd_ = spawned.command_fd;
  out->result_fd_ = spawned.result_fd;
  out->heartbeat_fd_ = spawned.heartbeat_fd;
  out->exit_fd_ = spawned.exit_fd;
  return true;
}

bool WorkerProcess::Poll() {
  if (pid_ <= 0 || exit_.reaped) return exit_.reaped;
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &status, WNOHANG);
  } while (r < 0 && errno == EINTR);
  if (r == pid_) {
    exit_.reaped = true;
    if (WIFEXITED(status)) {
      exit_.exited = true;
      exit_.exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      exit_.signaled = true;
      exit_.term_signal = WTERMSIG(status);
    }
    // The final result write may still sit in the pipe buffer.
    DrainResult();
  } else if (r < 0) {
    // ECHILD: someone else already reaped this pid (a wait(-1) elsewhere,
    // or SIGCHLD set to SIG_IGN). The child is gone either way; mark it
    // reaped with an unknown exit instead of polling a zombie that will
    // never appear.
    exit_.reaped = true;
    DrainResult();
  }
  return exit_.reaped;
}

bool WorkerProcess::WaitReaped(double timeout_ms) {
  const Clock::time_point deadline = DeadlineAfter(timeout_ms);
  const WorkerProcess* self = this;
  while (!Poll()) {
    // Draining lets a worker blocked on a full pipe run on to its exit,
    // and closes a pipe that has hung up.
    DrainHeartbeats();
    DrainResult();
    const double left = MsUntil(deadline);
    if (left <= 0) return Poll();
    // The pidfd wakes this wait once the worker can be reaped. Without
    // one, nothing does after the pipes have hung up, so the wait is cut
    // into 1 ms slices.
    WaitForOutput({&self, 1}, exit_fd_ >= 0 ? left : std::min(left, 1.0));
  }
  return true;
}

void WorkerProcess::WaitForOutput(
    std::span<const WorkerProcess* const> workers, double timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(3 * workers.size());
  for (const WorkerProcess* worker : workers) {
    // poll(2) skips a negative fd, so a closed pipe is no event.
    fds.push_back({worker->result_fd_, POLLIN, 0});
    fds.push_back({worker->heartbeat_fd_, POLLIN, 0});
    fds.push_back({worker->exit_fd_, POLLIN, 0});
  }
  PollFor(fds.data(), fds.size(), timeout_ms);
}

void WorkerProcess::DrainResult() { DrainFd(&result_fd_, &result_); }

size_t WorkerProcess::DrainHeartbeats() {
  return DrainFd(&heartbeat_fd_, nullptr);
}

void WorkerProcess::Kill(int sig) {
  if (pid_ > 0 && !exit_.reaped) ::kill(pid_, sig);
}

HeartbeatWriter::HeartbeatWriter(int fd, double interval_ms) {
  const auto interval = std::chrono::duration<double, std::milli>(
      interval_ms > 0 ? interval_ms : 25.0);
  thread_ = std::thread([this, fd, interval] {
    const char beat = '.';
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      // A full pipe or dead supervisor is not the worker's problem;
      // compute on regardless.
      (void)!::write(fd, &beat, 1);
      cv_.wait_for(lock, interval, [this] { return stop_; });
    }
  });
}

HeartbeatWriter::~HeartbeatWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double BackoffDelayMs(int attempt, double base_ms, double cap_ms,
                      uint64_t seed, uint64_t stream) {
  const int exponent = attempt > 1 ? attempt - 1 : 0;
  double delay = base_ms * std::ldexp(1.0, exponent);
  if (cap_ms > 0 && delay > cap_ms) delay = cap_ms;
  // Two mixing rounds: one to decorrelate (seed, stream), one for the
  // draw itself — byte-compatible with the serve supervisor's original
  // Mix64 + UnitDraw sequence, so its retry timings are unchanged.
  uint64_t state = Mix64(Mix64(seed ^ stream));
  delay *= 0.5 + static_cast<double>(state >> 11) /
                     static_cast<double>(1ull << 53);
  return delay;
}

}  // namespace gqe
