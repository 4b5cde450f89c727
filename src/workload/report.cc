#include "workload/report.h"

#include <signal.h>
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gqe {

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

ReportTable::ReportTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void ReportTable::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string ReportTable::Cell(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

std::string ReportTable::Cell(size_t value) { return std::to_string(value); }
std::string ReportTable::Cell(int value) { return std::to_string(value); }
std::string ReportTable::Cell(bool value) { return value ? "yes" : "no"; }

void ReportTable::Print(const std::string& title) const {
  std::printf("\n== %s ==\n", title.c_str());
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      if (row[c].size() > widths[c]) widths[c] = row[c].size();
    }
  }
  auto print_row = [&widths](const std::vector<std::string>& cells) {
    std::printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t c = 0; c < widths.size(); ++c) {
    for (size_t i = 0; i < widths[c] + 2; ++i) std::printf("-");
    std::printf("|");
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

const char* VerifyOutcomeName(VerifyOutcome outcome) {
  switch (outcome) {
    case VerifyOutcome::kNotChecked:
      return "not-checked";
    case VerifyOutcome::kVerified:
      return "verified";
    case VerifyOutcome::kUnverified:
      return "unverified";
    case VerifyOutcome::kRejected:
      return "rejected";
  }
  return "unknown";
}

ExecutionBudget ParseBudgetFlags(int* argc, char** argv) {
  ExecutionBudget budget;
  budget.max_facts = 0;  // benches default to unlimited, not engine caps
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--deadline-ms=", 0) == 0) {
      budget.deadline_ms = std::atof(arg.c_str() + 14);
      continue;
    }
    if (arg == "--deadline-ms" && i + 1 < *argc) {
      budget.deadline_ms = std::atof(argv[++i]);
      continue;
    }
    if (arg.rfind("--budget-facts=", 0) == 0) {
      budget.max_facts = static_cast<size_t>(std::atoll(arg.c_str() + 15));
      continue;
    }
    if (arg == "--budget-facts" && i + 1 < *argc) {
      budget.max_facts = static_cast<size_t>(std::atoll(argv[++i]));
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return budget;
}

std::string ParseCheckpointDir(int* argc, char** argv) {
  std::string dir;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--checkpoint-dir=", 0) == 0) {
      dir = arg.substr(17);
      continue;
    }
    if (arg == "--checkpoint-dir" && i + 1 < *argc) {
      dir = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return dir;
}

namespace {

// Signal-handler state. The handler itself touches only async-signal-safe
// primitives: a volatile sig_atomic_t flag and a store through a
// lock-free std::atomic<bool>* loaded from an atomic pointer. It must
// NOT call CancelToken::RequestCancel directly — dereferencing the
// token's shared_ptr control block (and especially rebinding the global
// token while a signal is in flight) is not async-signal-safe. The
// shared_ptr itself is kept alive by g_signal_token, which is only
// assigned *before* the raw pointer is published.
volatile std::sig_atomic_t g_signal_caught = 0;
std::atomic<std::atomic<bool>*> g_signal_flag{nullptr};
CancelToken g_signal_token;  // owns the flag the handler stores through

void BenchSignalHandler(int) {
  g_signal_caught = 1;
  std::atomic<bool>* flag = g_signal_flag.load(std::memory_order_acquire);
  if (flag != nullptr) flag->store(true, std::memory_order_release);
  // No stream I/O, no allocation, no shared_ptr ops here: anything else
  // (a progress message, a checkpoint) happens cooperatively once the
  // engines observe the tripped token at their next governor checkpoint.
}

}  // namespace

void InstallBenchSignalHandlers(const CancelToken& token) {
  // Unpublish the old flag first so a signal landing mid-rebind either
  // sees the old (still-owned) flag or none — never a dangling pointer.
  g_signal_flag.store(nullptr, std::memory_order_release);
  g_signal_token = token;
  g_signal_flag.store(g_signal_token.SignalSafeFlag(),
                      std::memory_order_release);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = BenchSignalHandler;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: slow syscalls return EINTR so bench loops re-check the
  // token promptly instead of blocking through the cancellation.
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

bool BenchSignalCaught() { return g_signal_caught != 0; }

void BenchWatchdog::Record(const std::string& config, const Outcome& outcome) {
  entries_.push_back({config, outcome});
}

size_t BenchWatchdog::incomplete() const {
  size_t n = 0;
  for (const Entry& entry : entries_) {
    if (!entry.outcome.ok()) ++n;
  }
  return n;
}

void BenchWatchdog::Print(const std::string& title) const {
  if (entries_.empty()) return;
  ReportTable table({"configuration", "status", "elapsed ms", "facts",
                     "nodes"});
  for (const Entry& entry : entries_) {
    table.AddRow({entry.config, StatusName(entry.outcome.status),
                  ReportTable::Cell(entry.outcome.elapsed_ms),
                  ReportTable::Cell(entry.outcome.facts_charged),
                  ReportTable::Cell(entry.outcome.nodes_charged)});
  }
  table.Print(title);
  std::printf("watchdog: %zu/%zu configurations timed out or were cut\n",
              incomplete(), entries_.size());
}


long PeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<long>(usage.ru_maxrss / 1024);  // bytes on macOS
#else
  return usage.ru_maxrss;  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}

BenchJsonFlags ParseBenchJsonFlags(int* argc, char** argv) {
  BenchJsonFlags flags;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      flags.enabled = true;
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      flags.enabled = true;
      flags.path = arg.substr(7);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return flags;
}

BenchJson::BenchJson(std::string name, BenchJsonFlags flags)
    : name_(std::move(name)), flags_(std::move(flags)) {}

void BenchJson::Add(const std::string& key, double ns_per_op,
                    double facts_per_sec) {
  entries_.push_back({key, ns_per_op, facts_per_sec});
}

void BenchJson::Meta(const std::string& key, double value) {
  meta_.emplace_back(key, value);
}

std::string BenchJson::Write() const {
  if (!flags_.enabled) return "";
  const std::string path =
      flags_.path.empty() ? "BENCH_" + name_ + ".json" : flags_.path;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench json: cannot open %s\n", path.c_str());
    return "";
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"peak_rss_kb\": %ld",
               name_.c_str(), PeakRssKb());
  for (const auto& [key, value] : meta_) {
    std::fprintf(f, ",\n  \"%s\": %.6g", key.c_str(), value);
  }
  std::fprintf(f, ",\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_op\": %.1f",
                 e.key.c_str(), e.ns_per_op);
    if (e.facts_per_sec > 0) {
      std::fprintf(f, ", \"facts_per_sec\": %.1f", e.facts_per_sec);
    }
    std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("bench json: wrote %s\n", path.c_str());
  return path;
}

}  // namespace gqe
