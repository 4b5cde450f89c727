// E3 (Proposition 3.1 + chase engine): chase throughput and the identity
// Q(D) = q(chase(D, Σ)). google-benchmark series over growing databases
// and rule sets, then a verification table.
//
// --deadline-ms=X / --budget-facts=N run every chase under that budget;
// a watchdog table then reports timeout-vs-complete per configuration.
//
// --checkpoint-dir=PATH switches to the durable-chase mode: a fixed
// deterministic workload (--durable-n=N chain, transitive closure) runs
// with every round boundary checkpointed, resuming from the directory's
// latest good snapshot. The final line prints status/rounds/facts plus
// the instance CRC-32, so the CI crash recovery smoke can kill -9 the
// run, resume it, and diff against an uninterrupted run. SIGINT/SIGTERM
// cancel cooperatively: the run stops at a round boundary, whose
// checkpoint is already on disk, and still reports. Durable mode takes
// only --durable-n and the budget flags; any other argument exits 2.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/serialize.h"
#include "chase/chase.h"
#include "chase/checkpoint.h"
#include "guarded/omq_eval.h"
#include "parser/parser.h"
#include "query/evaluation.h"
#include "workload/generators.h"
#include "workload/report.h"

namespace gqe {
namespace {

ExecutionBudget g_budget;
BenchWatchdog g_watchdog;
std::string g_checkpoint_dir;
BenchJsonFlags g_json;
int g_durable_n = 320;

TgdSet TransitiveClosure() {
  return ParseTgds("e3e(X, Y), e3e(Y, Z) -> e3e(X, Z).");
}

TgdSet UniversityOntology() {
  return ParseTgds(R"(
    e3grad(X) -> e3stud(X).
    e3stud(X) -> e3enr(X, U), e3uni(U).
    e3enr(X, U) -> e3active(X).
  )");
}

Instance UniversityDatabase(int n) {
  Instance db;
  for (int i = 0; i < n; ++i) {
    db.Insert(Atom::Make("e3grad", {Term::Constant("s" + std::to_string(i))}));
  }
  return db;
}

void BM_ChaseTransitiveClosure(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Instance db;
  for (int i = 0; i < n; ++i) {
    db.Insert(Atom::Make("e3e", {Term::Constant("a" + std::to_string(i)),
                                 Term::Constant("a" + std::to_string(i + 1))}));
  }
  TgdSet sigma = TransitiveClosure();
  ChaseOptions options;
  options.budget = g_budget;
  for (auto _ : state) {
    ChaseResult result = Chase(db, sigma, options);
    benchmark::DoNotOptimize(result.instance.size());
  }
  state.counters["facts_out"] = static_cast<double>(n * (n + 1) / 2);
}
BENCHMARK(BM_ChaseTransitiveClosure)->Arg(8)->Arg(16)->Arg(32);

void BM_ChaseGuardedExistential(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Instance db = UniversityDatabase(n);
  TgdSet sigma = UniversityOntology();
  ChaseOptions options;
  options.budget = g_budget;
  for (auto _ : state) {
    ChaseResult result = Chase(db, sigma, options);
    benchmark::DoNotOptimize(result.complete);
  }
}
BENCHMARK(BM_ChaseGuardedExistential)->Arg(16)->Arg(64)->Arg(256);

void PrintSummary() {
  // Verify Proposition 3.1 on the university workload: certain answers
  // via the guarded engine equal direct evaluation over the finite chase.
  ReportTable table({"|D|", "chase facts", "levels", "certain answers",
                     "Prop 3.1 identity"});
  TgdSet sigma = UniversityOntology();
  UCQ q = ParseUcq("e3q(X) :- e3active(X).");
  for (int n : {4, 16, 64}) {
    Instance db = UniversityDatabase(n);
    ChaseOptions options;
    options.budget = g_budget;
    ChaseResult chased = Chase(db, sigma, options);
    g_watchdog.Record("E3 university n=" + std::to_string(n),
                      chased.outcome);
    auto via_chase = EvaluateUCQ(q, chased.instance);
    auto via_engine = GuardedCertainAnswers(db, sigma, q);
    table.AddRow({ReportTable::Cell(db.size()),
                  ReportTable::Cell(chased.instance.size()),
                  ReportTable::Cell(chased.max_level_built),
                  ReportTable::Cell(via_engine.size()),
                  ReportTable::Cell(via_chase == via_engine)});
  }
  table.Print("E3 / Prop 3.1: Q(D) = q(chase(D, Sigma))");
}

/// Machine-readable quick tier (--json): a fixed set of chase
/// configurations timed with the process stopwatch, written as
/// BENCH_chase.json (ns/op, facts/sec, peak RSS). Keys are stable, so
/// two files from one host compare entry by entry.
int RunJsonBench() {
  BenchJson json("chase", g_json);
  struct Config {
    std::string key;
    Instance db;
    TgdSet sigma;
  };
  std::vector<Config> configs;
  auto tc_db = [](int n) {
    Instance db;
    for (int i = 0; i < n; ++i) {
      db.Insert(Atom::Make("e3e",
                           {Term::Constant("a" + std::to_string(i)),
                            Term::Constant("a" + std::to_string(i + 1))}));
    }
    return db;
  };
  configs.push_back({"chase_tc/32", tc_db(32), TransitiveClosure()});
  configs.push_back({"chase_tc/48", tc_db(48), TransitiveClosure()});
  configs.push_back(
      {"chase_univ/256", UniversityDatabase(256), UniversityOntology()});
  configs.push_back(
      {"chase_univ/4096", UniversityDatabase(4096), UniversityOntology()});
  for (Config& config : configs) {
    ChaseOptions options;
    options.budget = g_budget;
    const uint32_t null_base = Term::NextNullId();
    // Warm-up run (also yields the output size for facts/sec).
    Term::SetNextNullId(null_base);
    ChaseResult warm = Chase(config.db, config.sigma, options);
    g_watchdog.Record(config.key, warm.outcome);
    const double facts = static_cast<double>(warm.instance.size());
    // Measure: at least 3 iterations and 200 ms of work.
    int iters = 0;
    Stopwatch watch;
    do {
      Term::SetNextNullId(null_base);
      ChaseResult result = Chase(config.db, config.sigma, options);
      benchmark::DoNotOptimize(result.instance.size());
      ++iters;
    } while (iters < 3 || watch.ElapsedMs() < 200.0);
    const double ns_per_op = watch.ElapsedMs() * 1e6 / iters;
    json.Add(config.key, ns_per_op, facts * 1e9 / ns_per_op);
    std::printf("%-20s %12.0f ns/op  %10.0f facts/s  (%d iters)\n",
                config.key.c_str(), ns_per_op, facts * 1e9 / ns_per_op,
                iters);
  }
  json.Write();
  g_watchdog.Print("E3 watchdog: timeout vs complete");
  return 0;
}

int ParseDurableN(int* argc, char** argv, int default_n) {
  int n = default_n;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--durable-n=", 0) == 0) {
      n = std::atoi(arg.c_str() + 12);
      continue;
    }
    if (arg == "--durable-n" && i + 1 < *argc) {
      n = std::atoi(argv[++i]);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return n > 0 ? n : default_n;
}

/// Durable-chase mode: one deterministic transitive-closure chase under
/// round-boundary checkpointing. Re-invoking with the same flags after a
/// kill resumes from the newest good snapshot; the "final:" line is
/// invariant under kills and resumes (that is the property the CI smoke
/// diffs).
int RunDurableChase() {
  Instance db;
  for (int i = 0; i < g_durable_n; ++i) {
    db.Insert(Atom::Make("e3e",
                         {Term::Constant("a" + std::to_string(i)),
                          Term::Constant("a" + std::to_string(i + 1))}));
  }
  TgdSet sigma = TransitiveClosure();
  ChaseOptions options;
  options.budget = g_budget;

  ResumeInfo info;
  Stopwatch watch;
  ChaseResult result = ResumeChase(g_checkpoint_dir, db, sigma, options, &info);
  const double ms = watch.ElapsedMs();
  g_watchdog.Record("durable chase n=" + std::to_string(g_durable_n),
                    result.outcome);

  std::printf("durable chase: dir=%s n=%d\n",
              g_checkpoint_dir.c_str(), g_durable_n);
  std::printf("resume: resumed=%s generation=%llu skipped=%d (%s)\n",
              info.resumed ? "yes" : "no",
              static_cast<unsigned long long>(info.generation),
              info.skipped_generations,
              info.load_status.ok()
                  ? "ok"
                  : SnapshotErrorName(info.load_status.error));
  std::printf("elapsed: %.1f ms\n", ms);

  BinaryWriter writer;
  EncodeInstance(result.instance, &writer);
  std::printf("final: status=%s complete=%s rounds=%llu facts=%zu "
              "levels=%d crc32=%08x\n",
              StatusName(result.outcome.status),
              result.complete ? "yes" : "no",
              static_cast<unsigned long long>(result.rounds_completed),
              result.instance.size(), result.max_level_built,
              Crc32(writer.buffer()));
  g_watchdog.Print("E3 watchdog: timeout vs complete");
  return 0;
}

}  // namespace
}  // namespace gqe

int main(int argc, char** argv) {
  gqe::g_budget = gqe::ParseBudgetFlags(&argc, argv);
  gqe::g_checkpoint_dir = gqe::ParseCheckpointDir(&argc, argv);
  gqe::g_json = gqe::ParseBenchJsonFlags(&argc, argv);
  gqe::g_durable_n = gqe::ParseDurableN(&argc, argv, gqe::g_durable_n);
  if (!gqe::g_checkpoint_dir.empty() && argc > 1) {
    // Reject a flag durable mode does not take rather than ignore it.
    std::fprintf(stderr, "bench_chase: unknown argument '%s'\n", argv[1]);
    return 2;
  }
  // SIGINT/SIGTERM cancel cooperatively: every chase below runs under
  // this token, stops at a round boundary (in durable mode its
  // checkpoint is already on disk) and the partial tables still print.
  gqe::CancelToken cancel = gqe::CancelToken::Create();
  gqe::g_budget.cancel = cancel;
  gqe::InstallBenchSignalHandlers(cancel);
  if (!gqe::g_checkpoint_dir.empty()) return gqe::RunDurableChase();
  if (gqe::g_json.enabled) return gqe::RunJsonBench();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  gqe::PrintSummary();
  gqe::g_watchdog.Print("E3 watchdog: timeout vs complete");
  return 0;
}
