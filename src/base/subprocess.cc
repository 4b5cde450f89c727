#include "base/subprocess.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

namespace gqe {

namespace {

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

// Drains whatever is available from a non-blocking fd. Appends to `out`
// when non-null; returns bytes read this call.
size_t DrainFd(int fd, std::string* out) {
  if (fd < 0) return 0;
  size_t total = 0;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      if (out != nullptr) out->append(buffer, static_cast<size_t>(n));
      total += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // 0 = writer gone, EAGAIN = drained for now
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
    exit_ = other.exit_;
    result_ = std::move(other.result_);
    other.pid_ = -1;
    other.command_fd_ = -1;
    other.result_fd_ = -1;
    other.heartbeat_fd_ = -1;
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
}

void WorkerProcess::CloseCommand() { CloseQuietly(&command_fd_); }

bool WorkerProcess::WriteCommand(std::string_view data, double timeout_ms) {
  if (command_fd_ < 0) return false;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              timeout_ms > 0 ? timeout_ms : 0));
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
      // Full pipe: the worker is slow or stalled. Never block — wait out
      // the deadline in small sleeps, giving up early if the worker died
      // (its read end is gone, so the pipe will never drain).
      if (Poll()) return false;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
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
  // poll instead of wedging on a stalled worker's full pipe.
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
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              timeout_ms > 0 ? timeout_ms : 0));
  for (;;) {
    if (Poll()) return true;
    DrainHeartbeats();
    DrainResult();
    if (std::chrono::steady_clock::now() >= deadline) return Poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void WorkerProcess::DrainResult() { DrainFd(result_fd_, &result_); }

size_t WorkerProcess::DrainHeartbeats() {
  return DrainFd(heartbeat_fd_, nullptr);
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
