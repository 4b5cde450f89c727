// Shared plumbing of the gqe benchmark driver: options, timing, sample
// statistics, span recording (Chrome trace-event JSON), answer digests and
// the result record every workload fills in.
//
// Everything here sits outside the library: the driver calls gqe's public
// functions and times the calls from the outside.

#ifndef PERFBENCH_DRIVER_BENCH_H_
#define PERFBENCH_DRIVER_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/term.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for scratch files (programs, journals, shard state) and
  /// the trace file. Created by the caller.
  std::string out_dir = ".";
  /// The gqe_serve binary the serve-mixed workload starts.
  std::string serve_binary;
  /// Self-test hook: corrupt one reference digest so the output check
  /// must count a failure.
  bool inject_wrong_digest = false;
};

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when
/// empty.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

/// splitmix64: deterministic, seedable, cheap.
class Rng {
 public:
  /// A stream derived from (seed, tag, index): the same triple always
  /// yields the same sequence, independent of any other stream.
  Rng(uint64_t seed, std::string_view tag, uint64_t index);

  uint64_t Next();
  /// Uniform in [0, bound).
  uint32_t Below(uint32_t bound) {
    return bound == 0 ? 0 : static_cast<uint32_t>(Next() % bound);
  }
  /// Uniform in [lo, hi].
  int Between(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<uint32_t>(hi - lo + 1)));
  }
  double Uniform();  // [0, 1)
  bool Chance(double p) { return Uniform() < p; }

 private:
  uint64_t state_;
};

/// Self-test hook (--inject-wrong-digest): returns a non-empty string
/// exactly once per process, which the first output check appends to its
/// reference so that check must fail; "" otherwise.
std::string InjectedFault(const Options& options);

/// FNV-1a, 64 bit.
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 1469598103934665603ull);

/// Canonical text of an answer set: tuples rendered by name, sorted,
/// one per line. Interner-independent, so equal sets give equal text in
/// any process.
std::string AnswerText(const std::vector<std::vector<gqe::Term>>& answers);

/// Records spans in memory when enabled and writes them out as Chrome
/// trace-event JSON (opens in Perfetto / chrome://tracing). Nesting is by
/// time containment on one track, which is how the viewers draw "X"
/// events; `op` ties the spans of one operation together.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  void Span(std::string name, const char* layer, Clock::time_point start,
            Clock::time_point end, int64_t op, int track = 0);

  /// Writes {"traceEvents": [...]} to `path`. Returns false on I/O error.
  bool WriteChrome(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    const char* layer;
    double start_us;
    double dur_us;
    int64_t op;
    int track;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
};

/// Runs `fn`, returns its wall time in ms, and records a span when the
/// tracer is on.
template <typename F>
double Timed(Tracer& tracer, const char* name, const char* layer, int64_t op,
             F&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  if (tracer.enabled()) tracer.Span(name, layer, start, end, op);
  return MsBetween(start, end);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `digests` holds one digest per
/// operation in input order, so two runs of one seed can be compared on
/// their common prefix.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Fixed workload parameters (part of the host block: runs with other
  /// sizes are not comparable) and what this run processed.
  std::map<std::string, double> sizes;
  std::map<std::string, double> counts;
  std::vector<uint64_t> digests;
  std::vector<std::pair<std::string, std::string>> notes;

  void Fail(const std::string& why);
  void E2E(const std::string& name, double value, const char* unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = Metric{value, unit};
  }

  std::string ToJson(const Options& options) const;
};

/// Peak resident set (VmHWM) of a process in MB; `pid` 0 is this process.
double PeakRssMb(pid_t pid = 0);

/// Mean of `parts[k]` over the operations whose wall time lies between
/// the 40th and 60th percentile of `wall`. Layer self times reported this
/// way describe a typical operation, and they sum to about the median
/// wall time.
std::vector<double> MedianBandMeans(const std::vector<double>& wall,
                                    const std::vector<std::vector<double>>& parts);

/// Set-up repeated `reps` times; returns the median duration in seconds.
/// `fn(rep)` runs one complete set-up.
template <typename F>
double MedianSetupSeconds(int reps, F&& fn) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    fn(rep);
    seconds.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  return Percentile(seconds, 0.5);
}

Report RunOpenWorld(const Options& options);
Report RunClosedWorld(const Options& options);
Report RunChaseSharded(const Options& options);
Report RunServeMixed(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_H_
