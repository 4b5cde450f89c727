// Fork-isolated worker plumbing (base/subprocess): exit-code and
// signal-death classification, result/heartbeat pipes, setrlimit guard
// rails (CPU and address space), putting down a SIGSTOP'd worker with
// SIGKILL, and the waits of a long-lived worker's supervisor (command
// writes, reaping, watching several workers) with their deadlines — the
// primitives the serve supervisor and the shard coordinator are built
// from.

#include <gtest/gtest.h>
#include <errno.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <new>
#include <string>
#include <thread>

#include "base/subprocess.h"
#include "sanitized.h"

namespace gqe {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Byte `i` of a command whose every byte depends on its position, so a
/// lost, repeated or reordered chunk shows up.
char Pattern(size_t i) { return static_cast<char>((i * 131) ^ (i >> 9)); }

std::string PatternBytes(size_t size) {
  std::string bytes(size, '\0');
  for (size_t i = 0; i < size; ++i) bytes[i] = Pattern(i);
  return bytes;
}

/// Polls until the worker is reaped or `timeout_ms` passes. The timeout
/// turns a would-be hang into a test failure with the worker killed.
bool ReapWithin(WorkerProcess* worker, double timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::milli>(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    worker->DrainResult();
    worker->DrainHeartbeats();
    if (worker->Poll()) {
      worker->DrainResult();
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  worker->Kill(SIGKILL);
  return false;
}

TEST(SubprocessTest, ExitCodeAndResultRoundTrip) {
  WorkerProcess worker;
  std::string error;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int result_fd, int) {
        return WriteAllToFd(result_fd, "payload-bytes") ? 7 : 1;
      },
      &worker, &error))
      << error;
  ASSERT_TRUE(ReapWithin(&worker, 5000));
  EXPECT_TRUE(worker.exit_status().exited);
  EXPECT_EQ(worker.exit_status().exit_code, 7);
  EXPECT_EQ(worker.result_bytes(), "payload-bytes");
}

TEST(SubprocessTest, SignalDeathIsClassified) {
  WorkerProcess worker;
  std::string error;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int, int) {
        ::raise(SIGKILL);
        return 0;  // unreachable
      },
      &worker, &error))
      << error;
  ASSERT_TRUE(ReapWithin(&worker, 5000));
  EXPECT_FALSE(worker.exit_status().exited);
  EXPECT_TRUE(worker.exit_status().signaled);
  EXPECT_EQ(worker.exit_status().term_signal, SIGKILL);
  EXPECT_EQ(SignalCauseName(worker.exit_status().term_signal), "sigkill");
}

/// The death vocabulary both supervisors (serve and the shard
/// coordinator) report: named signals, and "signal:<n>" for the rest.
TEST(SubprocessTest, SignalCauseNamesAreStable) {
  EXPECT_EQ(SignalCauseName(SIGSEGV), "sigsegv");
  EXPECT_EQ(SignalCauseName(SIGBUS), "sigbus");
  EXPECT_EQ(SignalCauseName(SIGABRT), "sigabrt");
  EXPECT_EQ(SignalCauseName(SIGTERM), "sigterm");
  EXPECT_EQ(SignalCauseName(SIGXCPU), "cpu-limit");
  EXPECT_EQ(SignalCauseName(SIGUSR1),
            "signal:" + std::to_string(SIGUSR1));
}

TEST(SubprocessTest, AddressSpaceLimitMakesAllocationFail) {
#ifdef GQE_SANITIZED
  GTEST_SKIP() << "sanitizer allocators do not throw std::bad_alloc";
#endif
  WorkerLimits limits;
  limits.address_space_bytes = 64ull << 20;
  WorkerProcess worker;
  std::string error;
  ASSERT_TRUE(WorkerProcess::Spawn(
      limits,
      [](int, int) {
        try {
          // Far past the 64MB cap: must fail no matter what the process
          // image already mapped. Direct operator-new call — a paired
          // new[]/delete[] may be elided by the optimizer entirely.
          void* probe = ::operator new(256ull << 20);
          *static_cast<volatile char*>(probe) = 1;
          ::operator delete(probe);
          return 0;
        } catch (const std::bad_alloc&) {
          return 42;
        }
      },
      &worker, &error))
      << error;
  ASSERT_TRUE(ReapWithin(&worker, 5000));
  EXPECT_TRUE(worker.exit_status().exited);
  EXPECT_EQ(worker.exit_status().exit_code, 42);
}

TEST(SubprocessTest, CpuLimitDeliversSigxcpu) {
  WorkerLimits limits;
  limits.cpu_seconds = 1.0;
  WorkerProcess worker;
  std::string error;
  ASSERT_TRUE(WorkerProcess::Spawn(
      limits,
      [](int, int) {
        // Burn CPU until the kernel steps in.
        volatile uint64_t sink = 0;
        for (;;) sink = sink + 1;
        return 0;
      },
      &worker, &error))
      << error;
  // Soft limit 1s + 1s hard headroom; allow generous wall slack.
  ASSERT_TRUE(ReapWithin(&worker, 30000));
  ASSERT_TRUE(worker.exit_status().signaled);
  EXPECT_EQ(worker.exit_status().term_signal, SIGXCPU);
}

TEST(SubprocessTest, HeartbeatsFlowWhileAlive) {
  WorkerProcess worker;
  std::string error;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int, int heartbeat_fd) {
        HeartbeatWriter heartbeat(heartbeat_fd, 5.0);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return 0;
      },
      &worker, &error))
      << error;
  size_t beats = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline && !worker.Poll()) {
    beats += worker.DrainHeartbeats();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  beats += worker.DrainHeartbeats();
  EXPECT_GE(beats, 3u);
  EXPECT_TRUE(worker.exit_status().reaped);
}

// A worker whose work is done must not wait out its heartbeat interval
// on the way out: the writer's destructor wakes the beating thread.
TEST(SubprocessTest, HeartbeatWriterStopsPromptly) {
  WorkerProcess worker;
  std::string error;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int, int heartbeat_fd) {
        HeartbeatWriter heartbeat(heartbeat_fd, 1000.0);
        // Let the thread beat once and start waiting, so the destructor
        // has an interval to cut short rather than a thread not yet begun.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 0;
      },
      &worker, &error))
      << error;
  ASSERT_TRUE(ReapWithin(&worker, 200));
  EXPECT_TRUE(worker.exit_status().exited);
  EXPECT_EQ(worker.exit_status().exit_code, 0);
}

TEST(SubprocessTest, SigkillReachesAStoppedWorker) {
  WorkerProcess worker;
  std::string error;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int, int) {
        ::raise(SIGSTOP);  // freeze: only SIGKILL/SIGCONT get through
        return 0;
      },
      &worker, &error))
      << error;
  // Give it a moment to reach the stop, then put it down the way the
  // supervisor's heartbeat timeout does.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(worker.Poll());
  worker.Kill(SIGKILL);
  ASSERT_TRUE(ReapWithin(&worker, 5000));
  EXPECT_TRUE(worker.exit_status().signaled);
  EXPECT_EQ(worker.exit_status().term_signal, SIGKILL);
}

TEST(SubprocessTest, WaitReapedCollectsAnExitingWorker) {
  WorkerProcess worker;
  std::string error;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int result_fd, int) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return WriteAllToFd(result_fd, "late-bytes") ? 0 : 1;
      },
      &worker, &error))
      << error;
  ASSERT_TRUE(worker.WaitReaped(5000.0));
  EXPECT_TRUE(worker.exit_status().reaped);
  EXPECT_EQ(worker.result_bytes(), "late-bytes");

  // A worker that will not die within the window: WaitReaped reports
  // failure instead of hanging, and SIGKILL + WaitReaped then collects
  // it — the put-down sequence the shard coordinator uses on stalls.
  WorkerProcess stubborn;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int, int) {
        std::this_thread::sleep_for(std::chrono::seconds(60));
        return 0;
      },
      &stubborn, &error))
      << error;
  const auto wait_start = std::chrono::steady_clock::now();
  EXPECT_FALSE(stubborn.WaitReaped(30.0));
  const double waited_ms = MsSince(wait_start);
  EXPECT_GE(waited_ms, 30.0);
  EXPECT_LT(waited_ms, 1000.0);
  stubborn.Kill(SIGKILL);
  EXPECT_TRUE(stubborn.WaitReaped(5000.0));
  EXPECT_TRUE(stubborn.exit_status().signaled);
}

/// A long-lived worker that reads `bytes` command bytes in small chunks,
/// pausing every 64 reads, and exits 0 when they match `Pattern`.
int SlowReaderBody(int command_fd, size_t bytes) {
  char chunk[1000];
  size_t seen = 0;
  for (int reads = 1; seen < bytes; ++reads) {
    const ssize_t n = ::read(command_fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return 2;  // EOF or error before the whole command
    for (ssize_t i = 0; i < n; ++i) {
      if (chunk[i] != Pattern(seen + static_cast<size_t>(i))) return 3;
    }
    seen += static_cast<size_t>(n);
    if (reads % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return 0;
}

// A command far larger than the pipe reaches a slow reader byte for byte:
// WriteCommand waits for room each time the pipe fills.
TEST(SubprocessTest, WriteCommandFeedsASlowReaderByteForByte) {
  const std::string command = PatternBytes(1u << 20);
  WorkerProcess worker;
  std::string error;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int command_fd, int, int) {
        return SlowReaderBody(command_fd, 1u << 20);
      },
      &worker, &error))
      << error;
  EXPECT_TRUE(worker.WriteCommand(command, 10000.0));
  ASSERT_TRUE(worker.WaitReaped(10000.0));
  EXPECT_TRUE(worker.exit_status().exited);
  EXPECT_EQ(worker.exit_status().exit_code, 0);
}

// A stopped worker never drains its pipe: WriteCommand gives up at its
// deadline, not before and not long after.
TEST(SubprocessTest, WriteCommandToAStoppedWorkerTimesOut) {
  WorkerProcess worker;
  std::string error;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int, int, int) {
        ::raise(SIGSTOP);
        return 0;
      },
      &worker, &error))
      << error;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(worker.WriteCommand(PatternBytes(1u << 20), 100.0));
  const double waited_ms = MsSince(start);
  EXPECT_GE(waited_ms, 100.0);
  EXPECT_LT(waited_ms, 1000.0);
  worker.Kill(SIGKILL);
  ASSERT_TRUE(worker.WaitReaped(5000.0));
  EXPECT_TRUE(worker.exit_status().signaled);
}

// An exited worker's pipe has no reader: WriteCommand fails at once,
// whether the worker is reaped yet or not, and raises no SIGPIPE (this
// test process keeps the default disposition, which would kill it).
TEST(SubprocessTest, WriteCommandToAnExitedWorkerFailsAtOnce) {
  std::string error;
  WorkerProcess unreaped;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{}, [](int, int, int) { return 0; }, &unreaped, &error))
      << error;
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(unreaped.WriteCommand(PatternBytes(1u << 20), 5000.0));
  EXPECT_LT(MsSince(start), 1000.0);
  ASSERT_TRUE(unreaped.WaitReaped(5000.0));

  WorkerProcess reaped;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{}, [](int, int, int) { return 0; }, &reaped, &error))
      << error;
  ASSERT_TRUE(reaped.WaitReaped(5000.0));
  start = std::chrono::steady_clock::now();
  EXPECT_FALSE(reaped.WriteCommand("one command", 5000.0));
  EXPECT_LT(MsSince(start), 1000.0);

  sigset_t pending;
  sigemptyset(&pending);
  ASSERT_EQ(::sigpending(&pending), 0);
  EXPECT_EQ(sigismember(&pending, SIGPIPE), 0);
}

// WaitForOutput wakes on the first reply of any worker it watches, and
// otherwise returns at its timeout.
TEST(SubprocessTest, WaitForOutputWakesOnAReplyOrTheTimeout) {
  std::string error;
  WorkerProcess quiet;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int command_fd, int, int) {
        char byte;
        while (::read(command_fd, &byte, 1) > 0) {
        }
        return 0;
      },
      &quiet, &error))
      << error;
  const WorkerProcess* watched[] = {&quiet};
  auto start = std::chrono::steady_clock::now();
  WorkerProcess::WaitForOutput(watched, 50.0);
  const double idle_ms = MsSince(start);
  EXPECT_GE(idle_ms, 50.0);
  EXPECT_LT(idle_ms, 1000.0);

  WorkerProcess replying;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int result_fd, int) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return WriteAllToFd(result_fd, "reply") ? 0 : 1;
      },
      &replying, &error))
      << error;
  const WorkerProcess* both[] = {&quiet, &replying};
  start = std::chrono::steady_clock::now();
  WorkerProcess::WaitForOutput(both, 5000.0);
  EXPECT_LT(MsSince(start), 1000.0);
  ASSERT_TRUE(replying.WaitReaped(5000.0));
  EXPECT_EQ(replying.result_bytes(), "reply");
  quiet.Kill(SIGKILL);
  ASSERT_TRUE(quiet.WaitReaped(5000.0));
}

// A pipe at end of file is closed when drained, so it stops waking the
// supervisor's waits (poll(2) reports a hang-up on every call); the
// worker's exit itself still wakes them, through its pidfd.
TEST(SubprocessTest, AHungUpPipeStopsWakingTheWait) {
  std::string error;
  WorkerProcess worker;
  ASSERT_TRUE(WorkerProcess::Spawn(
      WorkerLimits{},
      [](int result_fd, int heartbeat_fd) {
        ::close(result_fd);
        ::close(heartbeat_fd);
        std::this_thread::sleep_for(std::chrono::seconds(60));
        return 0;
      },
      &worker, &error))
      << error;
  const WorkerProcess* watched[] = {&worker};
  // Wait for the first hang-up and give the worker time to close the
  // other pipe too; then the drains find end of file on both.
  WorkerProcess::WaitForOutput(watched, 5000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  worker.DrainResult();
  worker.DrainHeartbeats();
  auto start = std::chrono::steady_clock::now();
  WorkerProcess::WaitForOutput(watched, 50.0);
  EXPECT_GE(MsSince(start), 50.0);

  worker.Kill(SIGKILL);
  start = std::chrono::steady_clock::now();
  WorkerProcess::WaitForOutput(watched, 5000.0);
  EXPECT_LT(MsSince(start), 1000.0);
  ASSERT_TRUE(worker.WaitReaped(5000.0));
  EXPECT_TRUE(worker.exit_status().signaled);
}

TEST(SubprocessTest, SupervisionChurnLeavesNoZombies) {
  // Dozens of workers with mixed fates — clean exit, signal death,
  // SIGKILL while running, destructor reap — and afterwards the test
  // process must have no waitable children at all: the WNOHANG reap
  // loop may never strand a zombie.
  std::string error;
  for (int i = 0; i < 12; ++i) {
    WorkerProcess clean;
    ASSERT_TRUE(WorkerProcess::Spawn(
        WorkerLimits{}, [](int, int) { return 0; }, &clean, &error))
        << error;
    ASSERT_TRUE(clean.WaitReaped(5000.0));

    WorkerProcess suicidal;
    ASSERT_TRUE(WorkerProcess::Spawn(
        WorkerLimits{},
        [](int, int) {
          ::raise(SIGTERM);
          return 0;
        },
        &suicidal, &error))
        << error;
    ASSERT_TRUE(suicidal.WaitReaped(5000.0));

    WorkerProcess murdered;
    ASSERT_TRUE(WorkerProcess::Spawn(
        WorkerLimits{},
        [](int, int) {
          std::this_thread::sleep_for(std::chrono::seconds(60));
          return 0;
        },
        &murdered, &error))
        << error;
    murdered.Kill(SIGKILL);
    ASSERT_TRUE(murdered.WaitReaped(5000.0));

    {
      WorkerProcess abandoned;
      ASSERT_TRUE(WorkerProcess::Spawn(
          WorkerLimits{},
          [](int, int) {
            std::this_thread::sleep_for(std::chrono::seconds(60));
            return 0;
          },
          &abandoned, &error))
          << error;
    }  // destructor path
  }
  errno = 0;
  const pid_t leftover = ::waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(leftover == 0 || (leftover == -1 && errno == ECHILD))
      << "zombie child survived churn (waitpid returned " << leftover << ")";
}

TEST(SubprocessTest, BackoffDelayIsDeterministicBoundedAndGrowing) {
  // Same (attempt, seed, stream) → same delay, replay-stable across
  // processes.
  EXPECT_EQ(BackoffDelayMs(2, 10.0, 1000.0, 7, 3),
            BackoffDelayMs(2, 10.0, 1000.0, 7, 3));
  // Jitter keeps every delay inside [0.5, 1.5) × the exponential step,
  // and the cap clamps the step itself.
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const double step =
        std::min(1000.0, 10.0 * static_cast<double>(1 << (attempt - 1)));
    for (uint64_t stream = 0; stream < 8; ++stream) {
      const double delay = BackoffDelayMs(attempt, 10.0, 1000.0, 1, stream);
      EXPECT_GE(delay, 0.5 * step);
      EXPECT_LT(delay, 1.5 * step);
    }
  }
  // Different streams decorrelate (thundering-herd protection): not all
  // equal.
  EXPECT_NE(BackoffDelayMs(3, 10.0, 1000.0, 1, 0),
            BackoffDelayMs(3, 10.0, 1000.0, 1, 1));
}

TEST(SubprocessTest, DestructorReapsARunningWorker) {
  pid_t pid = -1;
  {
    WorkerProcess worker;
    std::string error;
    ASSERT_TRUE(WorkerProcess::Spawn(
        WorkerLimits{},
        [](int, int) {
          std::this_thread::sleep_for(std::chrono::seconds(60));
          return 0;
        },
        &worker, &error))
        << error;
    pid = worker.pid();
    ASSERT_GT(pid, 0);
  }
  // The destructor SIGKILLed and reaped: the pid must be gone (kill(0)
  // probes existence; ESRCH means no such process).
  EXPECT_EQ(::kill(pid, 0), -1);
}

}  // namespace
}  // namespace gqe
