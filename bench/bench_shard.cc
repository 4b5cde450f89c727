// Storage-sharded saturation benchmark + chaos harness driver
// (shard/storage_shard.h). Three modes:
//
// Default: a storage-partitioning table (shard counts {1, 2, 4, 8} over a
// join-heavy transitive closure, with the largest per-shard fragment and a
// bit-identity cross-check against the in-process chase) and a
// recovery table (one injected fault of each kind — SIGKILL, RLIMIT_AS
// OOM, SIGSTOP stall, corrupt reply — in each protocol phase, with
// reseed/respawn counts and recovery wall time).
//
// --json: the machine-readable quick tier, written as BENCH_shard.json
// (ns/op, facts/sec per shard count, plus recovery latency per fault
// kind). Keys are stable across PRs.
//
// --checkpoint-dir=PATH: durable mode for the smoke script. The workload
// is the exact deterministic transitive-closure chain bench_chase's
// durable mode runs (--durable-n, default 200), so the "final:" line —
// status/rounds/facts/CRC-32 — must be byte-identical to bench_chase's
// for the same n, at any --shards=N, after any injected fault
// (--chaos-kill/--chaos-oom/--chaos-stall/--chaos-corrupt=BOUNDARY:SHARD,
// pinned to a protocol phase with --chaos-phase=load|discover), across
// mid-run resharding (--reshard-at=ROUND --reshard-to=N), and across a
// kill -9 + resume with a different shard count. That invariance is what
// scripts/storage_shard_smoke.sh diffs.
//
// An argument none of these modes takes exits 2.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/serialize.h"
#include "chase/chase.h"
#include "chase/checkpoint.h"
#include "parser/parser.h"
#include "shard/storage_shard.h"
#include "workload/report.h"

namespace gqe {
namespace {

ExecutionBudget g_budget;
BenchWatchdog g_watchdog;
CheckpointFlags g_checkpoint;
BenchJsonFlags g_json;
int g_durable_n = 200;
int g_shards = 1;
int64_t g_reshard_at = -1;
int g_reshard_to = 0;
std::vector<StorageFault> g_chaos;

TgdSet TransitiveClosure() {
  // Same rule text as bench_chase's durable workload: the final CRC of a
  // sharded durable run must be diffable against the plain engine's.
  return ParseTgds("e3e(X, Y), e3e(Y, Z) -> e3e(X, Z).");
}

Instance ChainDatabase(int n) {
  Instance db;
  for (int i = 0; i < n; ++i) {
    db.Insert(Atom::Make("e3e",
                         {Term::Constant("a" + std::to_string(i)),
                          Term::Constant("a" + std::to_string(i + 1))}));
  }
  return db;
}

StorageShardOptions BenchStorageOptions(int shards) {
  StorageShardOptions options;
  options.shards = shards;
  options.heartbeat_timeout_ms = 2000.0;
  options.backoff_base_ms = 1.0;
  options.backoff_cap_ms = 20.0;
  return options;
}

bool SameInstance(const ChaseResult& got, const ChaseResult& want) {
  if (got.instance.size() != want.instance.size()) return false;
  for (size_t i = 0; i < got.instance.size(); ++i) {
    if (!(got.instance.atom(i) == want.instance.atom(i))) return false;
  }
  return got.levels == want.levels && got.complete == want.complete;
}

/// Storage partitioning: wall time and fragment sizes per shard count —
/// the max-instance-fragment-vs-shard-count story.
void PrintStorageScaling() {
  Instance db = ChainDatabase(40);
  TgdSet sigma = TransitiveClosure();
  const uint32_t null_base = Term::NextNullId();
  Term::SetNextNullId(null_base);
  ChaseOptions chase_options;
  chase_options.budget = g_budget;
  ChaseResult reference = Chase(db, sigma, chase_options);
  const size_t total_facts = reference.instance.size();

  ReportTable table({"shards", "chase ms", "max fragment", "of total %",
                     "exchanged KB", "identical"});
  for (int shards : {1, 2, 4, 8}) {
    Term::SetNextNullId(null_base);
    StorageShardStats stats;
    Stopwatch watch;
    ChaseResult result = StorageShardChase(
        db, sigma, chase_options, BenchStorageOptions(shards), &stats);
    const double ms = watch.ElapsedMs();
    g_watchdog.Record("storage shards=" + std::to_string(shards),
                      result.outcome);
    table.AddRow(
        {ReportTable::Cell(shards), ReportTable::Cell(ms),
         ReportTable::Cell(stats.max_fragment_facts),
         ReportTable::Cell(total_facts > 0
                               ? 100.0 * stats.max_fragment_facts /
                                     static_cast<double>(total_facts)
                               : 0.0),
         ReportTable::Cell(static_cast<double>(stats.exchanged_bytes) /
                           1024.0),
         ReportTable::Cell(SameInstance(result, reference))});
  }
  Term::SetNextNullId(null_base);
  table.Print(
      "E7c: storage partitioning (per-shard fragments, owner exchange)");
}

/// Storage-shard loss recovery: one injected fault of each kind in each
/// protocol phase, with reseed counts and recovery wall time.
void PrintStorageRecovery() {
  Instance db = ChainDatabase(40);
  TgdSet sigma = TransitiveClosure();
  const uint32_t null_base = Term::NextNullId();
  Term::SetNextNullId(null_base);
  ChaseOptions chase_options;
  chase_options.budget = g_budget;
  ChaseResult reference = Chase(db, sigma, chase_options);

  ReportTable table({"fault", "phase", "chase ms", "recovery ms",
                     "reseeds", "respawns", "identical"});
  const StorageFault::Kind kinds[] = {
      StorageFault::Kind::kKill, StorageFault::Kind::kOom,
      StorageFault::Kind::kStall, StorageFault::Kind::kCorrupt};
  for (StorageFault::Phase phase :
       {StorageFault::Phase::kLoad, StorageFault::Phase::kDiscover}) {
    for (StorageFault::Kind kind : kinds) {
      StorageShardOptions options = BenchStorageOptions(4);
      options.heartbeat_timeout_ms = 250.0;  // stalls resolve quickly
      options.faults.push_back({1, 0, 1, kind, phase});

      Term::SetNextNullId(null_base);
      StorageShardStats stats;
      Stopwatch watch;
      ChaseResult result =
          StorageShardChase(db, sigma, chase_options, options, &stats);
      const double ms = watch.ElapsedMs();
      g_watchdog.Record(std::string("storage chaos ") +
                            StorageFaultKindName(kind) + "/" +
                            StorageFaultPhaseName(phase),
                        result.outcome);
      table.AddRow({StorageFaultKindName(kind), StorageFaultPhaseName(phase),
                    ReportTable::Cell(ms),
                    ReportTable::Cell(stats.recovery_ms),
                    ReportTable::Cell(stats.reseeds),
                    ReportTable::Cell(stats.respawns),
                    ReportTable::Cell(SameInstance(result, reference))});
    }
  }
  Term::SetNextNullId(null_base);
  table.Print("E7d: storage-shard loss recovery (4 shards)");
}

int RunJsonBench() {
  BenchJson json("shard", g_json);
  Instance db = ChainDatabase(40);
  TgdSet sigma = TransitiveClosure();
  ChaseOptions chase_options;
  chase_options.budget = g_budget;
  const uint32_t null_base = Term::NextNullId();

  // Storage partitioning: wall time per shard count, plus the memory
  // story — the largest per-shard fragment at 8 shards against the whole
  // instance in one process.
  size_t total_facts = 0;
  for (int shards : {1, 2, 4, 8}) {
    const std::string key = "storage_tc/40/s" + std::to_string(shards);
    Term::SetNextNullId(null_base);
    StorageShardStats stats;
    Stopwatch watch;
    ChaseResult result = StorageShardChase(db, sigma, chase_options,
                                           BenchStorageOptions(shards),
                                           &stats);
    const double ms = watch.ElapsedMs();
    g_watchdog.Record(key, result.outcome);
    total_facts = result.instance.size();
    const double facts = static_cast<double>(result.instance.size());
    json.Add(key, ms * 1e6, facts * 1e3 / ms);
    std::printf("%-20s %12.0f ns/op  %10.0f facts/s  fragment=%zu\n",
                key.c_str(), ms * 1e6, facts * 1e3 / ms,
                stats.max_fragment_facts);
    if (shards == 8) {
      json.Meta("storage_s8_max_fragment_facts",
                static_cast<double>(stats.max_fragment_facts));
    }
  }
  json.Meta("storage_total_facts", static_cast<double>(total_facts));
  json.Meta("single_process_rss_kb", static_cast<double>(PeakRssKb()));

  // Storage-shard loss recovery per fault kind (discover phase — the
  // fragile window between a shard's ack and the round commit).
  for (StorageFault::Kind kind :
       {StorageFault::Kind::kKill, StorageFault::Kind::kOom,
        StorageFault::Kind::kStall, StorageFault::Kind::kCorrupt}) {
    const std::string key =
        std::string("storage_recovery/") + StorageFaultKindName(kind);
    StorageShardOptions options = BenchStorageOptions(4);
    options.heartbeat_timeout_ms = 250.0;
    options.faults.push_back(
        {1, 0, 1, kind, StorageFault::Phase::kDiscover});
    Term::SetNextNullId(null_base);
    StorageShardStats stats;
    Stopwatch watch;
    ChaseResult result =
        StorageShardChase(db, sigma, chase_options, options, &stats);
    const double ms = watch.ElapsedMs();
    g_watchdog.Record(key, result.outcome);
    json.Add(key, ms * 1e6,
             static_cast<double>(result.instance.size()) * 1e3 / ms);
    json.Add(key + "/recovery", stats.recovery_ms * 1e6);
    std::printf("%-26s %10.1f ms chase  %8.1f ms recovery  %zu reseeds\n",
                key.c_str(), ms, stats.recovery_ms, stats.reseeds);
  }

  Term::SetNextNullId(null_base);
  json.Write();
  g_watchdog.Print("E7 watchdog: timeout vs complete");
  return 0;
}

/// Durable storage-partitioned mode for scripts/storage_shard_smoke.sh:
/// the same deterministic chain chase, fact store hash-partitioned
/// across long-lived workers, resumable from --checkpoint-dir (the only
/// durable state), with phase-pinned injected faults
/// and optional mid-run resharding. Same "final:" line as bench_chase.
int RunDurableStorageChase() {
  Instance db = ChainDatabase(g_durable_n);
  TgdSet sigma = TransitiveClosure();
  ChaseOptions options;
  options.budget = g_budget;
  options.checkpoint_every = g_checkpoint.every;

  StorageShardOptions storage_options = BenchStorageOptions(g_shards);
  storage_options.reshard_at_round = g_reshard_at;
  storage_options.reshard_to = g_reshard_to;
  storage_options.faults = g_chaos;

  ResumeInfo info;
  StorageShardStats stats;
  Stopwatch watch;
  ChaseResult result = ResumeStorageShardChase(
      g_checkpoint.dir, db, sigma, options, storage_options, &info, &stats);
  const double ms = watch.ElapsedMs();
  g_watchdog.Record("durable storage chase n=" + std::to_string(g_durable_n),
                    result.outcome);

  std::printf("durable storage chase: dir=%s every=%d n=%d shards=%d\n",
              g_checkpoint.dir.c_str(), g_checkpoint.every, g_durable_n,
              g_shards);
  std::printf("resume: resumed=%s generation=%llu skipped=%d (%s)\n",
              info.resumed ? "yes" : "no",
              static_cast<unsigned long long>(info.generation),
              info.skipped_generations,
              info.load_status.ok()
                  ? "ok"
                  : SnapshotErrorName(info.load_status.error));
  std::printf("storage: spawned=%zu respawns=%zu deaths=%zu timeouts=%zu "
              "corrupt=%zu reseeds=%zu fallbacks=%zu fragment=%zu "
              "exchanged=%zuB\n",
              stats.workers_spawned, stats.respawns, stats.worker_deaths,
              stats.heartbeat_timeouts, stats.corrupt_replies, stats.reseeds,
              stats.inline_fallbacks, stats.max_fragment_facts,
              stats.exchanged_bytes);
  for (const StorageShardEvent& event : stats.events) {
    std::printf("storage event: boundary=%llu shard=%u attempt=%d cause=%s\n",
                static_cast<unsigned long long>(event.boundary), event.shard,
                event.attempt, event.cause.c_str());
  }
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
  g_watchdog.Print("E7 watchdog: timeout vs complete");
  return 0;
}

int ParseIntFlag(int* argc, char** argv, const char* name, int default_value) {
  const std::string prefix = std::string(name) + "=";
  int value = default_value;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      value = std::atoi(arg.c_str() + prefix.size());
      continue;
    }
    if (arg == name && i + 1 < *argc) {
      value = std::atoi(argv[++i]);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return value;
}

std::string ParseStringFlag(int* argc, char** argv, const char* name) {
  const std::string prefix = std::string(name) + "=";
  std::string value;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      value = arg.substr(prefix.size());
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return value;
}

/// --chaos-kill=BOUNDARY:SHARD (and -oom/-stall/-corrupt), repeatable; each
/// injects one fault on attempt 1 of that (boundary, shard), in `phase`.
std::vector<StorageFault> ParseChaosFlags(int* argc, char** argv,
                                          StorageFault::Phase phase) {
  struct KindFlag {
    const char* prefix;
    StorageFault::Kind kind;
  };
  const KindFlag kind_flags[] = {
      {"--chaos-kill=", StorageFault::Kind::kKill},
      {"--chaos-oom=", StorageFault::Kind::kOom},
      {"--chaos-stall=", StorageFault::Kind::kStall},
      {"--chaos-corrupt=", StorageFault::Kind::kCorrupt},
  };
  std::vector<StorageFault> faults;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    bool consumed = false;
    for (const KindFlag& flag : kind_flags) {
      if (arg.rfind(flag.prefix, 0) != 0) continue;
      const std::string spec = arg.substr(std::strlen(flag.prefix));
      const size_t colon = spec.find(':');
      StorageFault fault;
      fault.kind = flag.kind;
      fault.phase = phase;
      fault.boundary = std::strtoull(spec.c_str(), nullptr, 10);
      fault.shard = colon == std::string::npos
                        ? 0
                        : static_cast<uint32_t>(
                              std::atoi(spec.c_str() + colon + 1));
      fault.attempt = 1;
      faults.push_back(fault);
      consumed = true;
      break;
    }
    if (!consumed) argv[out++] = argv[i];
  }
  *argc = out;
  return faults;
}

}  // namespace
}  // namespace gqe

int main(int argc, char** argv) {
  gqe::g_budget = gqe::ParseBudgetFlags(&argc, argv);
  gqe::g_checkpoint = gqe::ParseCheckpointFlags(&argc, argv);
  gqe::g_json = gqe::ParseBenchJsonFlags(&argc, argv);
  gqe::g_durable_n = gqe::ParseIntFlag(&argc, argv, "--durable-n", 200);
  gqe::g_shards = gqe::ParseIntFlag(&argc, argv, "--shards", 1);
  gqe::g_reshard_at = gqe::ParseIntFlag(&argc, argv, "--reshard-at", -1);
  gqe::g_reshard_to = gqe::ParseIntFlag(&argc, argv, "--reshard-to", 0);
  const gqe::StorageFault::Phase chaos_phase =
      gqe::ParseStringFlag(&argc, argv, "--chaos-phase") == "load"
          ? gqe::StorageFault::Phase::kLoad
          : gqe::StorageFault::Phase::kDiscover;
  gqe::g_chaos = gqe::ParseChaosFlags(&argc, argv, chaos_phase);
  if (argc > 1) {
    // Reject a flag this bench does not take rather than ignore it.
    std::fprintf(stderr, "bench_shard: unknown argument '%s'\n", argv[1]);
    return 2;
  }
  // SIGINT/SIGTERM cancel cooperatively: the coordinator notices at the
  // round barrier, puts every worker down, writes a final checkpoint in
  // durable mode and still reports. (No watchdog threads here: the
  // coordinator forks without exec and must stay single-threaded.)
  gqe::CancelToken cancel = gqe::CancelToken::Create();
  gqe::g_budget.cancel = cancel;
  gqe::InstallBenchSignalHandlers(cancel);
  if (gqe::g_checkpoint.enabled()) return gqe::RunDurableStorageChase();
  if (gqe::g_json.enabled) return gqe::RunJsonBench();
  gqe::PrintStorageScaling();
  gqe::PrintStorageRecovery();
  gqe::g_watchdog.Print("E7 watchdog: timeout vs complete");
  return 0;
}
