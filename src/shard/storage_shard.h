#ifndef GQE_SHARD_STORAGE_SHARD_H_
#define GQE_SHARD_STORAGE_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/subprocess.h"
#include "chase/chase.h"
#include "chase/checkpoint.h"

namespace gqe {

/// Deterministic storage-shard fault injection. A storage worker is
/// long-lived and serves two kinds of command per round boundary — a
/// state load (seed / delta) and a discovery request — so a
/// fault is pinned to the phase it hits as well as to its (boundary,
/// shard, attempt). Kill/OOM/stall ride down to the worker inside the
/// matched command frame (child-side delivery keeps them deterministic);
/// so does corrupt, on which the worker flips one payload bit of its
/// encoded reply frame, exercising the coordinator's frame CRC.
struct StorageFault {
  enum class Kind : int {
    kKill = 0,
    kOom = 1,
    kStall = 2,
    kCorrupt = 3,
  };
  enum class Phase : int {
    /// The seed / delta command that brings the fragment to the round
    /// boundary.
    kLoad = 0,
    /// The per-round trigger-discovery command.
    kDiscover = 1,
  };

  /// The chase round boundary (== rounds committed before it).
  uint64_t boundary = 0;
  uint32_t shard = 0;
  int attempt = 1;
  Kind kind = Kind::kKill;
  Phase phase = Phase::kDiscover;
};

const char* StorageFaultKindName(StorageFault::Kind kind);
const char* StorageFaultPhaseName(StorageFault::Phase phase);

/// Configuration of the storage-partitioned saturation run.
struct StorageShardOptions {
  /// Storage shards the instance is hash-partitioned across. Each shard
  /// is one long-lived worker process owning one fragment.
  int shards = 2;

  /// Mid-run resharding: from round `reshard_at_round` on, the instance
  /// is repartitioned across `reshard_to` shards. This moves data: the
  /// old workers are retired and fresh ones are seeded with the new
  /// layout's fragments.
  int64_t reshard_at_round = -1;
  int reshard_to = 0;

  /// Ignored: read nowhere, and nothing is written there. Storage shards
  /// keep no state on disk (a respawned worker is reseeded from the
  /// coordinator's instance); the field stays only until the benchmark
  /// driver that still sets it drops it.
  std::string state_dir;

  /// Retry budget per (boundary, shard), with exponential backoff and
  /// deterministic jitter between attempts (base/subprocess.h
  /// BackoffDelayMs).
  int max_attempts = 3;
  double backoff_base_ms = 2.0;
  double backoff_cap_ms = 100.0;
  uint64_t jitter_seed = 1;

  /// Liveness: workers beat every `heartbeat_interval_ms`; silent for
  /// `heartbeat_timeout_ms` means stalled → SIGKILL → respawn + reseed.
  double heartbeat_interval_ms = 5.0;
  double heartbeat_timeout_ms = 1000.0;

  /// Deadline for handing a command frame to a worker's pipe. A stalled
  /// worker with a full command pipe must cost at most this long before
  /// being declared dead (the coordinator's write end is non-blocking).
  /// 0: use heartbeat_timeout_ms.
  double command_timeout_ms = 0.0;

  /// Hard kernel caps installed in every storage worker (0 = uncapped).
  WorkerLimits limits;

  /// When a shard exhausts its retry budget, compute its slice inline in
  /// the coordinator for the rest of the layout epoch — still
  /// bit-identical. Disabled, the run aborts with Status::kShardLost at
  /// the last committed round boundary.
  bool inline_fallback = true;

  /// Injected faults, matched by (boundary, shard, attempt, phase); each
  /// fires at most once.
  std::vector<StorageFault> faults;
};

/// One recovery-relevant event.
struct StorageShardEvent {
  uint64_t boundary = 0;
  uint32_t shard = 0;
  int attempt = 0;
  /// "sigkill", "oom", "heartbeat-timeout", "corrupt-reply", "bad-reply",
  /// "bad-ack", "load-failed", "spawn-failed", "write-failed",
  /// "command-timeout", "inline-fallback", "shard-lost", "reseed",
  /// "reshard".
  std::string cause;
};

/// Coordinator-side counters for the whole run.
struct StorageShardStats {
  uint64_t rounds = 0;
  size_t workers_spawned = 0;
  size_t respawns = 0;
  size_t worker_deaths = 0;
  size_t heartbeat_timeouts = 0;
  size_t corrupt_replies = 0;
  size_t bad_acks = 0;
  /// Seeds sent to workers respawned after a fault.
  size_t reseeds = 0;
  size_t inline_fallbacks = 0;
  /// Pipe bytes, counted as whole frames (12-byte header + payload) in
  /// both directions: every command frame written and every reply frame
  /// the coordinator decoded.
  size_t exchanged_bytes = 0;
  size_t exchanged_candidates = 0;
  /// Facts shipped to owners through delta commands (sum over rounds of
  /// delta size — each fact goes to exactly one owner plus the
  /// replicated frontier).
  size_t shipped_facts = 0;
  /// Largest fragment (owned facts) any shard reported: the memory
  /// figure. Worker RSS would not be one — fork inherits the parent's
  /// resident image copy-on-write, so it floors at the coordinator's
  /// footprint.
  size_t max_fragment_facts = 0;
  double backoff_wait_ms = 0.0;
  double recovery_ms = 0.0;
  int max_shards_used = 0;
  std::vector<StorageShardEvent> events;
};

/// Shard ownership by content hash alone (FactStore::HashFact), so a
/// coordinator holding a global fact index and a worker holding a decoded
/// atom agree on the owner without exchanging indexes. Pure functions, so
/// every process computes the same partition.
uint32_t ShardOfContentHash(uint64_t content_hash, uint32_t num_shards);
/// The owner of fact `fact_index` of `instance` (its cached content hash).
uint32_t ShardOfFact(const Instance& instance, size_t fact_index,
                     uint32_t num_shards);

/// Runs the chase with the fact store hash-partitioned across long-lived
/// storage-shard workers. Each worker owns a fragment of the instance
/// (its facts by content-hash ownership), receives each round's delta
/// once (owned facts appended to the fragment, the whole delta replicated
/// as the discovery frontier), and answers per-round discovery commands
/// with CRC-checked candidate frames (net/frame.h) carrying per-command
/// sequence numbers. The coordinator keeps the whole instance, validates
/// every ack against its ownership manifest (expected fragment count +
/// rolling content hash) and re-binds every candidate against its own
/// instance, so a fragment is derived state: a worker lost to kill -9 /
/// OOM / stall / corrupt is respawned and reseeded from the coordinator's
/// instance, and no shard state is written to disk. Results are
/// bit-identical to Chase(db, tgds, chase_options) at every
/// shard count — facts, order, levels, null ids, witness certificates,
/// checkpoint bytes — across mid-run resharding and coordinator restart.
ChaseResult StorageShardChase(const Instance& db, const TgdSet& tgds,
                              const ChaseOptions& chase_options,
                              const StorageShardOptions& storage_options,
                              StorageShardStats* stats = nullptr);

/// Crash-safe storage-sharded chase: resumes the engine from the newest
/// good generation in `checkpoint_dir` (chase/checkpoint.h), then
/// continues storage-sharded, at any shard count. The engine checkpoints
/// are the only durable state: the restarted coordinator's fresh workers
/// are seeded from the resumed instance.
ChaseResult ResumeStorageShardChase(const std::string& checkpoint_dir,
                                    const Instance& db, const TgdSet& tgds,
                                    const ChaseOptions& chase_options,
                                    const StorageShardOptions& storage_options,
                                    ResumeInfo* info = nullptr,
                                    StorageShardStats* stats = nullptr);

}  // namespace gqe

#endif  // GQE_SHARD_STORAGE_SHARD_H_
