#ifndef GQE_WORKLOAD_REPORT_H_
#define GQE_WORKLOAD_REPORT_H_

#include <chrono>
#include <string>
#include <vector>

#include "base/governor.h"

namespace gqe {

/// A plain-text table printer for benchmark reports (the "rows/series"
/// the experiments print; see EXPERIMENTS.md).
class ReportTable {
 public:
  explicit ReportTable(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with 3 significant decimals.
  static std::string Cell(double value);
  static std::string Cell(size_t value);
  static std::string Cell(int value);
  static std::string Cell(bool value);

  /// Prints with aligned columns to stdout.
  void Print(const std::string& title) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Outcome of the supervisor's independent witness check of a worker
/// result (serve --verify). Every accepted result carries exactly one:
/// kNotChecked when verification is off, kVerified when the certificate
/// decoded and every check passed, kUnverified when the result stands
/// but no full certificate was available to check (e.g. a resume from a
/// pre-witness snapshot). Rejected certificates never reach a result
/// row — the attempt is retried through the degradation ladder — so
/// kRejected appears only in per-attempt causes.
enum class VerifyOutcome : int {
  kNotChecked = 0,
  kVerified = 1,
  kUnverified = 2,
  kRejected = 3,
};

const char* VerifyOutcomeName(VerifyOutcome outcome);

/// Parses and strips `--deadline-ms=X` / `--deadline-ms X` and
/// `--budget-facts=N` / `--budget-facts N` flags from argv into an
/// ExecutionBudget (0 in either field means unlimited, the default).
/// Benches pass the result into engine options so entire configurations
/// run under one budget.
ExecutionBudget ParseBudgetFlags(int* argc, char** argv);

/// `--checkpoint-dir=PATH` / `--checkpoint-every=N` bench flags. An
/// empty dir means checkpointing is off (the default); `every` is the
/// round granularity passed to ChaseOptions::checkpoint_every.
struct CheckpointFlags {
  std::string dir;
  int every = 1;

  bool enabled() const { return !dir.empty(); }
};

/// Parses and strips the checkpoint flags from argv.
CheckpointFlags ParseCheckpointFlags(int* argc, char** argv);

/// Routes SIGINT/SIGTERM to the token's cancellation flag. The installed
/// handler is strictly async-signal-safe: it sets a volatile
/// sig_atomic_t and stores through the token's lock-free atomic flag —
/// no stream I/O, no allocation, no shared_ptr operations. Chase rounds
/// are transactional and cancellation trips at a round boundary, so an
/// interrupted bench still writes a final consistent checkpoint and
/// prints its partial report table before exiting — only `kill -9`
/// (untrappable) loses the tail since the last snapshot. Call once per
/// process; a second call rebinds the handlers to the new token.
void InstallBenchSignalHandlers(const CancelToken& token);

/// True once a SIGINT/SIGTERM was delivered to the installed handler
/// (reads the handler's volatile sig_atomic_t flag).
bool BenchSignalCaught();

/// Watchdog for governed bench runs: records each configuration's
/// Outcome and prints a timeout-vs-complete summary. Dichotomy benches
/// use it so a run under `--deadline-ms` shows *which* configurations
/// were cut off rather than silently reporting partial numbers.
class BenchWatchdog {
 public:
  void Record(const std::string& config, const Outcome& outcome);

  /// Number of recorded configurations that did not complete.
  size_t incomplete() const;

  /// Prints config | status | elapsed | facts | nodes rows plus a
  /// one-line timed-out-vs-complete tally. No-op when nothing recorded.
  void Print(const std::string& title) const;

 private:
  struct Entry {
    std::string config;
    Outcome outcome;
  };
  std::vector<Entry> entries_;
};

/// Peak resident set size of this process in kilobytes (getrusage), or 0
/// where unavailable. Recorded in the machine-readable bench output so
/// the memory side of the data-layout work is tracked across PRs.
long PeakRssKb();

/// `--json[=PATH]` bench flag: write a machine-readable benchmark record
/// alongside the human tables. The default path is BENCH_<name>.json in
/// the current directory.
struct BenchJsonFlags {
  bool enabled = false;
  std::string path;  // empty: derive BENCH_<name>.json
};

BenchJsonFlags ParseBenchJsonFlags(int* argc, char** argv);

/// Accumulates benchmark entries and writes BENCH_<name>.json: one
/// object per entry with ns/op and optional facts/sec throughput, plus a
/// process-wide peak-RSS field. A speedup is a before/after delta
/// between two such files, measured on one host.
/// The schema is append-friendly: CI uploads the file per PR and the
/// trajectory is the series of per-PR files.
class BenchJson {
 public:
  /// `name` becomes the default file stem (BENCH_<name>.json).
  BenchJson(std::string name, BenchJsonFlags flags);

  /// Adds one benchmark entry. `ns_per_op` is the per-iteration wall
  /// time; `facts_per_sec` <= 0 omits the throughput field.
  void Add(const std::string& key, double ns_per_op,
           double facts_per_sec = 0.0);

  /// Attaches an arbitrary numeric metadata field to the file header.
  void Meta(const std::string& key, double value);

  /// Writes the file (no-op when the flags disabled JSON). Returns the
  /// path written, or an empty string when disabled.
  std::string Write() const;

 private:
  std::string name_;
  BenchJsonFlags flags_;
  struct Entry {
    std::string key;
    double ns_per_op;
    double facts_per_sec;
  };
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, double>> meta_;
};

/// Wall-clock stopwatch for bench loops.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace gqe

#endif  // GQE_WORKLOAD_REPORT_H_
