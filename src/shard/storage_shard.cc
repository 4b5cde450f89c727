#include "shard/storage_shard.h"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <new>
#include <string>
#include <thread>
#include <utility>

#include "net/frame.h"
#include "shard/storage_wire.h"

namespace gqe {

namespace {

/// Storage-worker exit codes, aligned with serve/worker.h so operators
/// see one vocabulary.
constexpr int kStorageExitOk = 0;
constexpr int kStorageExitWriteError = 3;
constexpr int kStorageExitPeerGone = 4;
/// The command stream failed to decode — the coordinator is insane or the
/// pipe is garbage; for a long-lived worker both mean "exit, let the
/// coordinator's death classification take over".
constexpr int kStorageExitProtocol = 5;
constexpr int kStorageExitOom = 12;

/// Payload cap of one pipe frame. Far above any real exchange; its only
/// job is making a garbage length prefix a detected protocol failure
/// instead of an allocation bomb.
constexpr size_t kMaxFrameBytes = 1ull << 30;

/// Injected-OOM geometry (the serve chaos idiom): cap the address
/// space well below the probe so the bad_alloc is deterministic no matter
/// how much the forked worker already mapped copy-on-write.
constexpr size_t kOomFaultLimitBytes = 64ull << 20;
constexpr size_t kOomFaultProbeBytes = 128ull << 20;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Owner of a fact given by content: both sides of the protocol compute
/// ownership from FactStore::HashFact, so a coordinator holding a global
/// index and a worker holding a decoded atom always agree.
uint32_t OwnerOfAtom(const Atom& atom, uint32_t num_shards) {
  return ShardOfContentHash(
      FactStore::HashFact(atom.predicate(), atom.args()),
      num_shards);
}

/// One step of the acknowledged-ownership-manifest fold. Folding the
/// (content hash, global index) pairs of a shard's owned facts in
/// ascending index order gives a fingerprint both sides compute
/// independently: the coordinator over its instance prefix, the worker
/// over its fragment. An ack whose (count, hash) disagrees is rejected
/// before the fragment is ever trusted for discovery.
uint64_t FoldManifest(uint64_t h, uint64_t content_hash,
                      uint64_t global_index) {
  return Mix64(h ^ Mix64(content_hash ^ global_index));
}

// ---------------------------------------------------------------------------
// Per-(unit, fact) discovery classification — the shared geometry both the
// workers and the coordinator compute from an anchored unit and the fact
// its anchor binds onto. The partition of work follows the number of side
// atoms left unresolved by the anchor binding:
//
//   free_sides == 0  ("case A"): the trigger is fully determined by the
//     anchor; the anchor fact's owner emits it (after checking the ground
//     sides it owns), the coordinator confirms the rest.
//   free_sides == 1  ("case B"): each candidate is one matching side
//     fact; every shard scans its own fragment for matches and ships the
//     global indexes it owns. Candidate order across shards is ascending
//     global side-fact index — exactly the sequential engine's
//     enumeration order for a one-free-atom residual body.
//   free_sides >= 2  ("case C"): the residual join spans fragments, so
//     the coordinator runs it inline on the global instance (as it does
//     all anchor-free full passes). Guarded TGDs make this the cold path:
//     the guard atom anchors every body variable, so its residual sides
//     are ground and classify as A.
// ---------------------------------------------------------------------------

struct UnitFactShape {
  bool matches = false;
  size_t free_sides = 0;
  Substitution anchor_sub;
  /// Side atoms fully ground under anchor_sub (must all be present).
  std::vector<Atom> ground_sides;
  /// The single unresolved side atom pattern (valid iff free_sides == 1).
  Atom free_pattern;
};

bool ClassifyUnitFact(const Tgd& tgd, int anchor, PredicateId fact_predicate,
                      std::span<const Term> fact_args, UnitFactShape* shape) {
  *shape = UnitFactShape{};
  const std::vector<Atom>& body = tgd.body();
  if (anchor < 0 || static_cast<size_t>(anchor) >= body.size()) return false;
  if (!BindDiscoveryAnchor(body[anchor], fact_predicate, fact_args,
                           &shape->anchor_sub)) {
    return false;
  }
  for (size_t j = 0; j < body.size(); ++j) {
    if (j == static_cast<size_t>(anchor)) continue;
    const Atom image = shape->anchor_sub.Apply(body[j]);
    if (image.IsGround()) {
      shape->ground_sides.push_back(image);
    } else {
      if (++shape->free_sides == 1) shape->free_pattern = image;
    }
  }
  shape->matches = true;
  return true;
}

/// Enumerates the facts of `instance` matching `pattern` (a partially
/// ground atom), in ascending global-index order, appending each match's
/// global index to `out`. `to_global` maps local fragment indexes to
/// global ones (null: the instance is globally indexed). `owner_filter`
/// restricts matches to facts owned by that shard (-1: no filter) — the
/// coordinator's inline-fallback path scans the global instance but must
/// emit only the lost shard's candidates.
void EnumeratePatternMatches(const Instance& instance,
                             const std::vector<uint64_t>* to_global,
                             const Atom& pattern, uint32_t num_shards,
                             int64_t owner_filter,
                             std::vector<uint64_t>* out) {
  // Seed the scan from the most selective index available: any ground
  // argument position keys a (predicate, position, term) posting list;
  // otherwise fall back to the predicate postings.
  int ground_pos = -1;
  for (size_t i = 0; i < pattern.args().size(); ++i) {
    if (pattern.args()[i].IsGround()) {
      ground_pos = static_cast<int>(i);
      break;
    }
  }
  const std::vector<uint32_t>& postings =
      ground_pos >= 0
          ? instance.FactsWith(pattern.predicate(), ground_pos,
                               pattern.args()[ground_pos])
          : instance.FactsWithPredicate(pattern.predicate());
  for (uint32_t local : postings) {
    if (owner_filter >= 0 &&
        ShardOfFact(instance, local, num_shards) !=
            static_cast<uint32_t>(owner_filter)) {
      continue;
    }
    Substitution probe;
    if (!BindDiscoveryAnchor(pattern, instance.predicate_of(local),
                             instance.args_of(local), &probe)) {
      continue;
    }
    out->push_back(to_global != nullptr ? (*to_global)[local] : local);
  }
  // Postings are ascending and to_global is monotone (owned facts append
  // in global order), so this is already sorted; keep the invariant
  // explicit — merge correctness depends on it, not on index internals.
  std::sort(out->begin(), out->end());
}

/// Rebinds candidate side fact `side_index` of the global instance onto
/// `shape` and appends the full substitution. The coordinator calls this
/// for every candidate a worker ships (and for inline slices), so the
/// merged substitutions are always built from the coordinator's own
/// instance — a shard can nominate candidates, never fabricate bindings.
bool AppendCandidateSub(const Instance& instance, const UnitFactShape& shape,
                        uint64_t side_index,
                        std::vector<Substitution>* out) {
  if (side_index >= instance.size()) return false;
  Substitution sub = shape.anchor_sub;
  if (!BindDiscoveryAnchor(shape.free_pattern,
                           instance.predicate_of(side_index),
                           instance.args_of(side_index), &sub)) {
    return false;
  }
  out->push_back(std::move(sub));
  return true;
}

bool AllGroundSidesPresent(const Instance& instance,
                           const std::vector<Atom>& ground_sides) {
  for (const Atom& side : ground_sides) {
    if (instance.Find(side) < 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// A storage worker's in-memory fragment: the owned facts as a real
/// Instance (so discovery gets the same inverted indexes the engine has)
/// plus the local→global index map and the replicated round frontier.
struct WorkerState {
  Instance fragment;
  std::vector<uint64_t> to_global;
  std::vector<Atom> frontier;
  uint64_t boundary = 0;
  uint64_t delta_start = 0;
  uint64_t delta_end = 0;
  bool loaded = false;

  bool Append(const Atom& atom, uint64_t global_index) {
    if (!fragment.Insert(atom)) return false;
    to_global.push_back(global_index);
    return true;
  }

  uint64_t ManifestHash() const {
    uint64_t h = 0;
    for (uint32_t i = 0; i < fragment.size(); ++i) {
      h = FoldManifest(h, fragment.store().hash(i), to_global[i]);
    }
    return h;
  }
};

/// Computes this shard's candidate groups for a discovery command:
/// anchored units only, cases A and B only (the coordinator owns full
/// passes and multi-free-side joins). Groups come out in strictly
/// increasing (unit, fact) order because the loops run in that order.
void ComputeWorkerGroups(const StorageCommand& command, const TgdSet& tgds,
                         uint32_t shard, const WorkerState& state,
                         std::vector<StorageReplyGroup>* groups) {
  for (size_t u = 0; u < command.units.size(); ++u) {
    const ChaseDiscoveryUnit& unit = command.units[u];
    if (unit.anchor < 0) continue;  // full passes are coordinator-side
    if (unit.tgd_index >= tgds.size()) continue;
    const Tgd& tgd = tgds[unit.tgd_index];
    for (uint64_t f = unit.delta_begin; f < unit.delta_end; ++f) {
      if (f < command.delta_start || f >= command.delta_end) continue;
      const Atom& anchor_fact =
          state.frontier[static_cast<size_t>(f - command.delta_start)];
      UnitFactShape shape;
      if (!ClassifyUnitFact(tgd, unit.anchor, anchor_fact.predicate(),
                            anchor_fact.args(), &shape)) {
        continue;
      }
      if (shape.free_sides >= 2) continue;  // case C: coordinator-side
      // Check the ground sides this shard owns against its fragment — an
      // owned ground side that is absent from the fragment is absent from
      // the instance, so the whole group is vetoed here. The coordinator
      // re-checks every ground side against its instance before merging.
      bool owned_side_missing = false;
      for (const Atom& side : shape.ground_sides) {
        if (OwnerOfAtom(side, command.num_shards) == shard &&
            state.fragment.Find(side) < 0) {
          owned_side_missing = true;
          break;
        }
      }
      if (owned_side_missing) continue;
      StorageReplyGroup group;
      group.unit_index = static_cast<uint32_t>(u);
      group.fact_index = f;
      if (shape.free_sides == 0) {
        // Case A: the anchor fact's owner speaks for the trigger.
        if (OwnerOfAtom(anchor_fact, command.num_shards) != shard) continue;
        group.side_indexes.push_back(0);
      } else {
        // Case B: every shard ships the matching side facts it owns.
        EnumeratePatternMatches(state.fragment, &state.to_global,
                                shape.free_pattern, command.num_shards,
                                /*owner_filter=*/-1, &group.side_indexes);
        if (group.side_indexes.empty()) continue;
      }
      groups->push_back(std::move(group));
    }
  }
}

/// Long-lived storage-worker entry point: parks in a blocking read on the
/// command pipe, answers each kStorageCommand frame with one
/// kStorageReply frame, exits 0 on command-pipe EOF (graceful teardown).
/// Runs in a forked child; the return value becomes the exit code.
int StorageWorkerBody(const TgdSet* tgds, uint32_t shard, uint32_t num_shards,
                      double heartbeat_interval_ms, int command_fd,
                      int result_fd, int heartbeat_fd) {
  HeartbeatWriter heartbeat(heartbeat_fd, heartbeat_interval_ms);
  WorkerState state;
  FrameDecoder decoder(kMaxFrameBytes);
  Frame frame;
  while (ReadFrameBlocking(command_fd, &decoder, &frame)) {
    StorageCommand command;
    if (frame.type != FrameType::kStorageCommand ||
        !DecodeStorageCommand(frame.payload, &command).ok()) {
      return kStorageExitProtocol;
    }
    // Injected faults fire on command receipt, before any work — the
    // deterministic moment chaos tests pin (kCorrupt alone waits for the
    // reply it damages). They are raised child-side: a parent-side signal
    // would race a fast worker's reply, and the fault could dissolve into
    // a successful command. Raising the signal here is still the real
    // thing — the coordinator sees an ordinary SIGKILL death /
    // heartbeat-silent stall / OOM exit / corrupt frame, through the same
    // classification paths an external fault would take.
    if (command.inject_fault ==
        static_cast<int32_t>(StorageFault::Kind::kKill)) {
      ::raise(SIGKILL);
    } else if (command.inject_fault ==
               static_cast<int32_t>(StorageFault::Kind::kStall)) {
      ::raise(SIGSTOP);
    } else if (command.inject_fault ==
               static_cast<int32_t>(StorageFault::Kind::kOom)) {
      WorkerLimits limits;
      limits.address_space_bytes = kOomFaultLimitBytes;
      InstallWorkerLimits(limits);
      try {
        void* probe = ::operator new(kOomFaultProbeBytes);
        *static_cast<volatile char*>(probe) = 1;
        ::operator delete(probe);
      } catch (const std::bad_alloc&) {
        return kStorageExitOom;
      }
    }

    StorageReply reply;
    reply.sequence = command.sequence;
    reply.boundary = command.boundary;
    reply.shard = shard;
    reply.num_shards = num_shards;

    switch (command.type) {
      case StorageCommand::Type::kSeed: {
        state = WorkerState{};
        for (size_t i = 0; i < command.seed_atoms.size(); ++i) {
          state.Append(command.seed_atoms[i], command.seed_indexes[i]);
        }
        state.frontier = std::move(command.frontier);
        state.boundary = command.boundary;
        state.delta_start = command.delta_start;
        state.delta_end = command.delta_end;
        state.loaded = true;
        break;
      }
      case StorageCommand::Type::kDelta: {
        if (!state.loaded || state.delta_end != command.delta_start ||
            state.boundary + 1 != command.boundary) {
          reply.ok = false;
          reply.error = "delta-gap";
          break;
        }
        for (size_t i = 0; i < command.frontier.size(); ++i) {
          const Atom& atom = command.frontier[i];
          if (OwnerOfAtom(atom, num_shards) != shard) continue;
          state.Append(atom, command.delta_start + i);
        }
        state.frontier = std::move(command.frontier);
        state.boundary = command.boundary;
        state.delta_start = command.delta_start;
        state.delta_end = command.delta_end;
        break;
      }
      case StorageCommand::Type::kDiscover: {
        if (!state.loaded || state.boundary != command.boundary ||
            state.delta_start != command.delta_start ||
            state.delta_end != command.delta_end) {
          reply.ok = false;
          reply.error = "discover-before-load";
        } else {
          reply.type = StorageReply::Type::kCandidates;
          ComputeWorkerGroups(command, *tgds, shard, state, &reply.groups);
        }
        break;
      }
    }

    if (command.type != StorageCommand::Type::kDiscover && reply.ok) {
      // Every successful load is acked with the fragment's ownership
      // manifest, which the coordinator checks before trusting it.
      reply.fragment_count = state.fragment.size();
      reply.fragment_hash = state.ManifestHash();
    }

    std::string out =
        EncodeFrame(FrameType::kStorageReply, EncodeStorageReply(reply));
    if (command.inject_fault ==
        static_cast<int32_t>(StorageFault::Kind::kCorrupt)) {
      // Simulated wire corruption: one bit flipped mid-payload, after the
      // CRC was computed, for the coordinator's decoder to catch. Never
      // in the header: a grown length field would leave the reply
      // pending forever behind a heartbeating worker.
      out[kFrameHeaderSize + (out.size() - kFrameHeaderSize) / 2] ^= 0x20;
    }
    int write_errno = 0;
    if (!WriteAllToFd(result_fd, out, &write_errno)) {
      return IsPeerGoneErrno(write_errno) ? kStorageExitPeerGone
                                          : kStorageExitWriteError;
    }
  }
  return decoder.failed() ? kStorageExitProtocol : kStorageExitOk;
}

std::string StorageDeathCause(const WorkerExit& exit) {
  if (exit.signaled) {
    switch (exit.term_signal) {
      case SIGKILL:
        return "sigkill";
      case SIGXCPU:
        return "cpu-limit";
      case SIGSEGV:
        return "sigsegv";
      default:
        return "signal-" + std::to_string(exit.term_signal);
    }
  }
  if (exit.exited) {
    if (exit.exit_code == kStorageExitOom) return "oom";
    if (exit.exit_code == kStorageExitWriteError) return "write-failed";
    if (exit.exit_code == kStorageExitPeerGone) return "coordinator-gone";
    if (exit.exit_code == kStorageExitProtocol) return "protocol-error";
    return "exit-" + std::to_string(exit.exit_code);
  }
  return "reaped-unknown";
}

// ---------------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------------

/// Slot::synced_boundary of a slot whose live worker holds no fragment.
constexpr uint64_t kNotSynced = ~0ull;

/// The storage-shard coordinator: owns the long-lived worker fleet, the
/// acknowledged ownership manifests and the one recovery path — a failed
/// worker is killed, respawned after a backoff and reseeded from the
/// coordinator's instance, up to the retry budget; past it the shard's
/// slice is computed inline or the run stops with kShardLost. The
/// fragments are derived state (every candidate is re-bound against the
/// coordinator's instance), so nothing is written to disk. One instance
/// lives for the whole run (it is the ChaseOptions::discovery_hook), so
/// workers and recovery bookkeeping span rounds.
class StorageCoordinator : public ChaseDiscoveryHook {
 public:
  StorageCoordinator(const StorageShardOptions& options,
                     StorageShardStats* stats)
      : options_(options),
        stats_(stats),
        fault_used_(options.faults.size(), false) {
    if (options_.shards < 1) options_.shards = 1;
  }

  ~StorageCoordinator() override { TeardownWorkers(); }

  bool DiscoverRound(const ChaseDiscoveryRound& round,
                     std::vector<std::vector<Substitution>>* found) override;

 private:
  /// Per-round slot protocol: load (seed/delta) then discover,
  /// each a strict request-reply exchange.
  enum class Phase : int {
    kNeedLoad,
    kLoadWait,
    kNeedDiscover,
    kDiscoverWait,
    kDone,
  };

  struct Slot {
    uint32_t shard = 0;
    WorkerProcess worker;
    bool running = false;
    /// Permanently absorbed into the coordinator for this layout epoch.
    bool inlined = false;
    /// Boundary the live worker's fragment is synced to.
    uint64_t synced_boundary = kNotSynced;
    int attempts = 0;  // workers spawned for this slot this round
    double ready_at = 0.0;
    double last_beat = 0.0;
    double started_at = 0.0;
    double first_fault_at = -1.0;
    Phase phase = Phase::kNeedLoad;
    uint64_t await_sequence = 0;
    FrameDecoder decoder{kMaxFrameBytes};
    StorageReply reply;
  };

  uint32_t ShardsForRound(uint64_t round) const {
    int n = options_.shards;
    if (options_.reshard_at_round >= 0 && options_.reshard_to > 0 &&
        round >= static_cast<uint64_t>(options_.reshard_at_round)) {
      n = options_.reshard_to;
    }
    return n < 1 ? 1 : static_cast<uint32_t>(n);
  }

  bool TakeFault(uint64_t boundary, uint32_t shard, int attempt,
                 StorageFault::Kind kind, StorageFault::Phase phase) {
    for (size_t i = 0; i < options_.faults.size(); ++i) {
      const StorageFault& fault = options_.faults[i];
      if (!fault_used_[i] && fault.boundary == boundary &&
          fault.shard == shard && fault.attempt == attempt &&
          fault.kind == kind && fault.phase == phase) {
        fault_used_[i] = true;
        return true;
      }
    }
    return false;
  }

  void RecordEvent(uint64_t boundary, uint32_t shard, int attempt,
                   std::string cause) {
    if (stats_ == nullptr) return;
    StorageShardEvent event;
    event.boundary = boundary;
    event.shard = shard;
    event.attempt = attempt;
    event.cause = std::move(cause);
    stats_->events.push_back(std::move(event));
  }

  void ScheduleRetry(const ChaseDiscoveryRound& round, Slot* slot, double now,
                     const std::string& cause) {
    RecordEvent(round.round, slot->shard, slot->attempts, cause);
    if (slot->first_fault_at < 0) slot->first_fault_at = now;
    const double delay = BackoffDelayMs(
        slot->attempts, options_.backoff_base_ms, options_.backoff_cap_ms,
        options_.jitter_seed,
        Mix64(round.round) ^ (static_cast<uint64_t>(slot->shard) << 32) ^
            static_cast<uint64_t>(slot->attempts));
    slot->ready_at = now + delay;
    slot->phase = Phase::kNeedLoad;
    ++slot->attempts;
    if (stats_ != nullptr) stats_->backoff_wait_ms += delay;
  }

  /// Kills the slot's worker (if any) and schedules the respawn.
  void FailSlot(const ChaseDiscoveryRound& round, Slot* slot, double now,
                const std::string& cause) {
    if (slot->running) {
      slot->worker.Kill(SIGKILL);
      slot->worker.WaitReaped(2000.0);
      slot->running = false;
      if (stats_ != nullptr) ++stats_->worker_deaths;
    }
    slot->decoder = FrameDecoder(kMaxFrameBytes);
    slot->synced_boundary = kNotSynced;
    ScheduleRetry(round, slot, now, cause);
  }

  bool SpawnSlot(const ChaseDiscoveryRound& round, Slot* slot) {
    const TgdSet* tgds = round.tgds;
    const uint32_t shard = slot->shard;
    const uint32_t num_shards = layout_;
    const double heartbeat = options_.heartbeat_interval_ms;
    // The closure runs synchronously inside Spawn, in the child branch of
    // the fork, so capturing parent state by pointer is safe: the child
    // computes against its copy-on-write snapshot.
    auto body = [tgds, shard, num_shards, heartbeat](
                    int command_fd, int result_fd, int heartbeat_fd) -> int {
      return StorageWorkerBody(tgds, shard, num_shards, heartbeat, command_fd,
                               result_fd, heartbeat_fd);
    };
    std::string error;
    WorkerProcess worker;
    if (!WorkerProcess::Spawn(options_.limits, body, &worker, &error)) {
      return false;
    }
    slot->worker = std::move(worker);
    slot->running = true;
    slot->decoder = FrameDecoder(kMaxFrameBytes);
    slot->synced_boundary = kNotSynced;
    if (stats_ != nullptr) {
      ++stats_->workers_spawned;
      if (slot->attempts > 1) ++stats_->respawns;
    }
    return true;
  }

  /// The slot's load for this boundary: a delta when the live worker is
  /// exactly one boundary behind, a full seed from the instance otherwise
  /// (first contact under this layout, or a worker respawned after a
  /// fault — a reseed).
  StorageCommand BuildLoadCommand(const ChaseDiscoveryRound& round,
                                  Slot* slot) {
    StorageCommand command;
    command.frontier = round_delta_;
    if (slot->synced_boundary != kNotSynced &&
        slot->synced_boundary + 1 == round.round) {
      command.type = StorageCommand::Type::kDelta;
      return command;
    }
    command.type = StorageCommand::Type::kSeed;
    const Instance& instance = *round.instance;
    for (uint64_t g = 0; g < round.delta_end; ++g) {
      if (ShardOfFact(instance, g, layout_) != slot->shard) continue;
      command.seed_indexes.push_back(g);
      command.seed_atoms.push_back(instance.atom(g));
    }
    if (slot->attempts > 1) {
      RecordEvent(round.round, slot->shard, slot->attempts, "reseed");
      if (stats_ != nullptr) ++stats_->reseeds;
    }
    return command;
  }

  /// Frames and ships one command; on failure the slot is failed and a
  /// retry scheduled. Returns true when the command was handed off.
  bool SendCommand(const ChaseDiscoveryRound& round, Slot* slot,
                   StorageCommand* command, double now) {
    command->sequence = next_sequence_++;
    command->boundary = round.round;
    command->num_shards = layout_;
    command->delta_start = round.delta_start;
    command->delta_end = round.delta_end;
    const StorageFault::Phase fphase = slot->phase == Phase::kNeedLoad
                                           ? StorageFault::Phase::kLoad
                                           : StorageFault::Phase::kDiscover;
    for (StorageFault::Kind kind :
         {StorageFault::Kind::kKill, StorageFault::Kind::kStall,
          StorageFault::Kind::kOom, StorageFault::Kind::kCorrupt}) {
      if (TakeFault(round.round, slot->shard, slot->attempts, kind, fphase)) {
        command->inject_fault = static_cast<int32_t>(kind);
        break;
      }
    }
    const std::string framed =
        EncodeFrame(FrameType::kStorageCommand, EncodeStorageCommand(*command));
    if (stats_ != nullptr) stats_->exchanged_bytes += framed.size();
    const double timeout = options_.command_timeout_ms > 0
                               ? options_.command_timeout_ms
                               : options_.heartbeat_timeout_ms;
    if (!slot->worker.WriteCommand(framed, timeout)) {
      std::string cause = "command-timeout";
      if (slot->worker.Poll()) {
        cause = StorageDeathCause(slot->worker.exit_status());
        slot->running = false;
        if (stats_ != nullptr) ++stats_->worker_deaths;
        slot->decoder = FrameDecoder(kMaxFrameBytes);
        slot->synced_boundary = kNotSynced;
        ScheduleRetry(round, slot, now, cause);
      } else {
        FailSlot(round, slot, now, cause);
      }
      return false;
    }
    slot->await_sequence = command->sequence;
    slot->phase = slot->phase == Phase::kNeedLoad ? Phase::kLoadWait
                                                  : Phase::kDiscoverWait;
    return true;
  }

  /// Validates a candidates reply against the coordinator's own view:
  /// strictly increasing owned (unit, fact) groups, shapes the worker was
  /// allowed to answer (cases A/B), and every candidate side fact really
  /// matching. A reply failing any of it is a recoverable shard fault.
  bool ValidateGroups(const ChaseDiscoveryRound& round, uint32_t shard,
                      const StorageReply& reply) const {
    const std::vector<ChaseDiscoveryUnit>& units = *round.units;
    const Instance& instance = *round.instance;
    bool have_prev = false;
    std::pair<uint32_t, uint64_t> prev{0, 0};
    for (const StorageReplyGroup& group : reply.groups) {
      if (group.unit_index >= units.size()) return false;
      const std::pair<uint32_t, uint64_t> key{group.unit_index,
                                              group.fact_index};
      if (have_prev && key <= prev) return false;
      prev = key;
      have_prev = true;
      const ChaseDiscoveryUnit& unit = units[group.unit_index];
      if (unit.anchor < 0) return false;
      if (group.fact_index < unit.delta_begin ||
          group.fact_index >= unit.delta_end) {
        return false;
      }
      UnitFactShape shape;
      if (!ClassifyUnitFact(
              (*round.tgds)[unit.tgd_index], unit.anchor,
              instance.predicate_of(group.fact_index),
              instance.args_of(group.fact_index),
              &shape)) {
        return false;
      }
      if (shape.free_sides >= 2) return false;
      if (shape.free_sides == 0) {
        if (ShardOfFact(instance, group.fact_index, layout_) != shard) {
          return false;
        }
        if (group.side_indexes.size() != 1 || group.side_indexes[0] != 0) {
          return false;
        }
      } else {
        if (group.side_indexes.empty()) return false;
        uint64_t prev_side = 0;
        bool have_side = false;
        for (uint64_t side : group.side_indexes) {
          if (have_side && side <= prev_side) return false;
          prev_side = side;
          have_side = true;
          if (side >= instance.size()) return false;
          if (ShardOfFact(instance, side, layout_) != shard) return false;
          Substitution probe = shape.anchor_sub;
          if (!BindDiscoveryAnchor(shape.free_pattern,
                                   instance.predicate_of(side),
                                   instance.args_of(side), &probe)) {
            return false;
          }
        }
      }
    }
    return true;
  }

  /// Processes one reply payload. Returns false when the slot was failed.
  bool HandleReply(const ChaseDiscoveryRound& round, Slot* slot,
                   std::string_view payload, double now, size_t* remaining) {
    StorageReply reply;
    if (!DecodeStorageReply(payload, &reply).ok()) {
      if (stats_ != nullptr) ++stats_->corrupt_replies;
      FailSlot(round, slot, now, "corrupt-reply");
      return false;
    }
    if (reply.sequence < slot->await_sequence) return true;  // stale: drop
    if (reply.sequence != slot->await_sequence ||
        reply.boundary != round.round || reply.shard != slot->shard ||
        reply.num_shards != layout_) {
      if (stats_ != nullptr) ++stats_->corrupt_replies;
      FailSlot(round, slot, now, "bad-reply");
      return false;
    }
    if (slot->phase == Phase::kLoadWait) {
      if (reply.type != StorageReply::Type::kAck) {
        if (stats_ != nullptr) ++stats_->corrupt_replies;
        FailSlot(round, slot, now, "bad-reply");
        return false;
      }
      if (!reply.ok) {
        // The worker judged its fragment unusable (a delta that does not
        // continue it): replace the worker, and the respawn is reseeded.
        FailSlot(round, slot, now, "load-failed");
        return false;
      }
      if (reply.fragment_count != expected_count_[slot->shard] ||
          reply.fragment_hash != expected_hash_[slot->shard]) {
        if (stats_ != nullptr) ++stats_->bad_acks;
        FailSlot(round, slot, now, "bad-ack");
        return false;
      }
      slot->synced_boundary = round.round;
      if (stats_ != nullptr) {
        stats_->max_fragment_facts =
            std::max(stats_->max_fragment_facts,
                     static_cast<size_t>(reply.fragment_count));
      }
      slot->phase = Phase::kNeedDiscover;
      return true;
    }
    // kDiscoverWait.
    if (reply.type != StorageReply::Type::kCandidates || !reply.ok ||
        !ValidateGroups(round, slot->shard, reply)) {
      if (stats_ != nullptr) ++stats_->corrupt_replies;
      FailSlot(round, slot, now, "bad-reply");
      return false;
    }
    if (stats_ != nullptr) {
      for (const StorageReplyGroup& group : reply.groups) {
        stats_->exchanged_candidates += group.side_indexes.size();
      }
    }
    slot->reply = std::move(reply);
    slot->phase = Phase::kDone;
    if (slot->first_fault_at >= 0 && stats_ != nullptr) {
      stats_->recovery_ms += now - slot->first_fault_at;
    }
    --*remaining;
    return true;
  }

  /// Reassembles the round's candidates into the engine's canonical
  /// per-unit order: for every (unit, fact) in sequential order, merge
  /// the shards' nominations (rebinding each against the coordinator's
  /// instance), compute inline what workers cannot answer (full passes,
  /// multi-free-side joins, inlined slots), and veto any group whose
  /// ground sides are not all present.
  void Reassemble(const ChaseDiscoveryRound& round,
                  std::vector<std::vector<Substitution>>* found) {
    const std::vector<ChaseDiscoveryUnit>& units = *round.units;
    const Instance& instance = *round.instance;
    ExecutionBudget unlimited;
    unlimited.max_facts = 0;
    Governor governor(unlimited);
    std::vector<size_t> cursor(slots_.size(), 0);
    for (size_t u = 0; u < units.size(); ++u) {
      const ChaseDiscoveryUnit& unit = units[u];
      std::vector<Substitution>& out = (*found)[u];
      if (unit.anchor < 0) {
        // Full passes run coordinator-side under a fresh ungoverned
        // governor (budgets are engine-side rails, and a replayed round
        // must redo the same search).
        RunChaseDiscoveryUnit(unit, *round.tgds, instance, &governor, &out);
        continue;
      }
      const Tgd& tgd = (*round.tgds)[unit.tgd_index];
      for (uint64_t f = unit.delta_begin; f < unit.delta_end; ++f) {
        // Collect this (unit, fact)'s groups from every shard's cursor.
        size_t here_count = 0;
        for (size_t s = 0; s < slots_.size(); ++s) {
          const std::vector<StorageReplyGroup>& groups =
              slots_[s].reply.groups;
          size_t& c = cursor[s];
          while (c < groups.size() &&
                 (groups[c].unit_index < u ||
                  (groups[c].unit_index == u && groups[c].fact_index < f))) {
            ++c;
          }
          if (c < groups.size() && groups[c].unit_index == u &&
              groups[c].fact_index == f) {
            side_scratch_.insert(side_scratch_.end(),
                                 groups[c].side_indexes.begin(),
                                 groups[c].side_indexes.end());
            ++here_count;
            ++c;
          }
        }
        UnitFactShape shape;
        const bool matches =
            ClassifyUnitFact(tgd, unit.anchor,
                             instance.predicate_of(f), instance.args_of(f),
                             &shape);
        if (!matches || shape.free_sides >= 2) {
          side_scratch_.clear();
          if (matches) {
            // Case C: the residual join spans fragments; run it inline.
            RunChaseDiscoveryAtFact(unit.tgd_index, unit.anchor, f,
                                    *round.tgds, instance, &governor, &out);
          }
          continue;
        }
        if (!AllGroundSidesPresent(instance, shape.ground_sides)) {
          side_scratch_.clear();
          continue;
        }
        if (shape.free_sides == 0) {
          // Case A: the anchor's owner speaks for the trigger.
          side_scratch_.clear();
          const uint32_t owner = ShardOfFact(instance, f, layout_);
          if (slots_[owner].inlined) {
            out.push_back(shape.anchor_sub);
            if (stats_ != nullptr) ++stats_->exchanged_candidates;
          } else if (here_count > 0) {
            out.push_back(shape.anchor_sub);
          }
          continue;
        }
        // Case B: merge every shard's nominations with inline slices,
        // ascending global side-fact index — the sequential enumeration
        // order for a one-free-atom residual body.
        for (const Slot& slot : slots_) {
          if (!slot.inlined) continue;
          const size_t before = side_scratch_.size();
          EnumeratePatternMatches(instance, nullptr, shape.free_pattern,
                                  layout_, slot.shard, &side_scratch_);
          if (stats_ != nullptr) {
            stats_->exchanged_candidates += side_scratch_.size() - before;
          }
        }
        std::sort(side_scratch_.begin(), side_scratch_.end());
        for (uint64_t side : side_scratch_) {
          AppendCandidateSub(instance, shape, side, &out);
        }
        side_scratch_.clear();
      }
    }
  }

  void TeardownWorkers() {
    // Graceful half first: closing the command pipe EOFs the worker's
    // blocking read and it exits 0.
    for (Slot& slot : slots_) {
      if (slot.running) slot.worker.CloseCommand();
    }
    const auto start = std::chrono::steady_clock::now();
    while (MsSince(start) < 200.0) {
      bool alive = false;
      for (Slot& slot : slots_) {
        if (!slot.running) continue;
        if (slot.worker.Poll()) {
          slot.running = false;
        } else {
          alive = true;
        }
      }
      if (!alive) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (Slot& slot : slots_) {
      if (slot.running) {
        slot.worker.Kill(SIGKILL);
        slot.worker.WaitReaped(2000.0);
        slot.running = false;
      }
      slot.synced_boundary = kNotSynced;
    }
  }

  StorageShardOptions options_;
  StorageShardStats* stats_;
  std::vector<bool> fault_used_;
  /// Current shard layout (0: none yet). Changing it retires the fleet.
  uint32_t layout_ = 0;
  std::vector<Slot> slots_;
  uint64_t next_sequence_ = 1;
  /// Acknowledged-ownership manifests: expected owned-fact count and
  /// rolling content hash per shard, folded incrementally over the
  /// committed instance prefix [0, covered_).
  std::vector<uint64_t> expected_hash_;
  std::vector<uint64_t> expected_count_;
  uint64_t covered_ = 0;
  std::vector<Atom> round_delta_;
  std::vector<uint64_t> side_scratch_;
};

bool StorageCoordinator::DiscoverRound(
    const ChaseDiscoveryRound& round,
    std::vector<std::vector<Substitution>>* found) {
  if (round.governor->Check() != Status::kCompleted) {
    TeardownWorkers();
    return false;
  }
  const uint32_t num_shards = ShardsForRound(round.round);
  if (stats_ != nullptr) {
    ++stats_->rounds;
    stats_->max_shards_used =
        std::max(stats_->max_shards_used, static_cast<int>(num_shards));
  }
  if (layout_ != num_shards) {
    // Layout epoch change (first round, or mid-run resharding): retire
    // the fleet and restart manifests from scratch. Resharding moves
    // data — the fresh fleet is seeded with the new layout's fragments —
    // but needs no old-layout cooperation, so it also serves as the
    // recovery path when a restarted coordinator picks a new shard count.
    const bool reshard = layout_ != 0;
    TeardownWorkers();
    slots_.clear();
    slots_.resize(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) slots_[s].shard = s;
    expected_hash_.assign(num_shards, 0);
    expected_count_.assign(num_shards, 0);
    covered_ = 0;
    layout_ = num_shards;
    if (reshard) RecordEvent(round.round, 0, 0, "reshard");
  }
  const Instance& instance = *round.instance;
  round_delta_.clear();
  for (uint64_t g = round.delta_start; g < round.delta_end; ++g) {
    round_delta_.push_back(instance.atom(g));
  }
  if (stats_ != nullptr) stats_->shipped_facts += round_delta_.size();
  for (uint64_t g = covered_; g < round.delta_end; ++g) {
    const uint32_t owner =
        ShardOfFact(instance, g, layout_);
    expected_hash_[owner] = FoldManifest(
        expected_hash_[owner], instance.store().hash(static_cast<uint32_t>(g)),
        g);
    ++expected_count_[owner];
  }
  covered_ = round.delta_end;

  size_t remaining = 0;
  for (Slot& slot : slots_) {
    // 1-based tries at this boundary: a surviving worker's first try is
    // attempt 1 (same ladder position as a fresh spawn's).
    slot.attempts = 1;
    slot.ready_at = 0.0;
    slot.last_beat = 0.0;
    slot.started_at = 0.0;
    slot.first_fault_at = -1.0;
    slot.reply = StorageReply{};
    slot.phase = slot.inlined ? Phase::kDone : Phase::kNeedLoad;
    if (!slot.inlined) ++remaining;
  }
  const auto round_start = std::chrono::steady_clock::now();

  while (remaining > 0) {
    if (round.governor->Check() != Status::kCompleted) {
      TeardownWorkers();
      return false;
    }
    const double now = MsSince(round_start);
    bool progressed = false;
    for (Slot& slot : slots_) {
      if (slot.phase == Phase::kDone) continue;
      if (!slot.running) {
        if (now < slot.ready_at) continue;
        if (slot.attempts > options_.max_attempts) {
          if (!options_.inline_fallback) {
            // No degradation path allowed: the engine discards the round
            // and stops with Status::kShardLost at the last committed
            // boundary, from which ResumeStorageShardChase can continue.
            RecordEvent(round.round, slot.shard, slot.attempts, "shard-lost");
            TeardownWorkers();
            return false;
          }
          slot.inlined = true;
          slot.phase = Phase::kDone;
          --remaining;
          if (stats_ != nullptr) ++stats_->inline_fallbacks;
          RecordEvent(round.round, slot.shard, slot.attempts,
                      "inline-fallback");
          if (slot.first_fault_at >= 0 && stats_ != nullptr) {
            stats_->recovery_ms += now - slot.first_fault_at;
          }
          progressed = true;
          continue;
        }
        if (!SpawnSlot(round, &slot)) {
          ScheduleRetry(round, &slot, now, "spawn-failed");
          continue;
        }
        slot.started_at = now;
        slot.last_beat = now;
        slot.phase = Phase::kNeedLoad;
        progressed = true;
        continue;
      }
      if (slot.phase == Phase::kNeedLoad || slot.phase == Phase::kNeedDiscover) {
        StorageCommand command;
        if (slot.phase == Phase::kNeedLoad) {
          command = BuildLoadCommand(round, &slot);
        } else {
          command.type = StorageCommand::Type::kDiscover;
          command.units = *round.units;
        }
        SendCommand(round, &slot, &command, now);
        progressed = true;
        continue;
      }
      // Wait phases: pump replies, then liveness.
      slot.worker.DrainResult();
      slot.decoder.Feed(slot.worker.TakeResult());
      if (slot.worker.DrainHeartbeats() > 0) slot.last_beat = now;
      bool failed = false;
      Frame frame;
      while (slot.phase == Phase::kLoadWait ||
             slot.phase == Phase::kDiscoverWait) {
        const FrameDecoder::Result next = slot.decoder.Next(&frame, nullptr);
        if (next == FrameDecoder::Result::kNeedMore) break;
        progressed = true;
        if (next == FrameDecoder::Result::kFrame && stats_ != nullptr) {
          stats_->exchanged_bytes += kFrameHeaderSize + frame.payload.size();
        }
        if (next == FrameDecoder::Result::kError ||
            frame.type != FrameType::kStorageReply) {
          if (stats_ != nullptr) ++stats_->corrupt_replies;
          FailSlot(round, &slot, now, "corrupt-reply");
          failed = true;
          break;
        }
        if (!HandleReply(round, &slot, frame.payload, now, &remaining)) {
          failed = true;
          break;
        }
      }
      if (failed || slot.phase == Phase::kDone || !slot.running) continue;
      if (slot.phase == Phase::kNeedLoad || slot.phase == Phase::kNeedDiscover) {
        continue;  // next command goes out on the next sweep
      }
      if (slot.worker.Poll()) {
        // Died mid-request with no (valid) reply: classify and retry.
        slot.running = false;
        slot.decoder = FrameDecoder(kMaxFrameBytes);
        slot.synced_boundary = kNotSynced;
        if (stats_ != nullptr) ++stats_->worker_deaths;
        ScheduleRetry(round, &slot, now,
                      StorageDeathCause(slot.worker.exit_status()));
        progressed = true;
        continue;
      }
      const bool beat_lost =
          options_.heartbeat_timeout_ms > 0 &&
          now - slot.last_beat > options_.heartbeat_timeout_ms;
      if (beat_lost) {
        if (stats_ != nullptr) {
          ++stats_->heartbeat_timeouts;
        }
        FailSlot(round, &slot, now, "heartbeat-timeout");
        progressed = true;
      }
    }
    if (remaining > 0 && !progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Reassemble(round, found);
  return true;
}

}  // namespace

uint32_t ShardOfContentHash(uint64_t content_hash, uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  // Mixing the cached content hash once more decorrelates the shard
  // assignment from the hash's own use in the dedup index.
  return static_cast<uint32_t>(Mix64(content_hash) % num_shards);
}

uint32_t ShardOfFact(const Instance& instance, size_t fact_index,
                     uint32_t num_shards) {
  return ShardOfContentHash(
      instance.store().hash(static_cast<uint32_t>(fact_index)), num_shards);
}

const char* StorageFaultKindName(StorageFault::Kind kind) {
  switch (kind) {
    case StorageFault::Kind::kKill:
      return "kill";
    case StorageFault::Kind::kOom:
      return "oom";
    case StorageFault::Kind::kStall:
      return "stall";
    case StorageFault::Kind::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

const char* StorageFaultPhaseName(StorageFault::Phase phase) {
  switch (phase) {
    case StorageFault::Phase::kLoad:
      return "load";
    case StorageFault::Phase::kDiscover:
      return "discover";
  }
  return "unknown";
}

ChaseResult StorageShardChase(const Instance& db, const TgdSet& tgds,
                              const ChaseOptions& chase_options,
                              const StorageShardOptions& storage_options,
                              StorageShardStats* stats) {
  StorageCoordinator coordinator(storage_options, stats);
  ChaseOptions options = chase_options;
  options.discovery_hook = &coordinator;
  return Chase(db, tgds, options);
}

ChaseResult ResumeStorageShardChase(const std::string& checkpoint_dir,
                                    const Instance& db, const TgdSet& tgds,
                                    const ChaseOptions& chase_options,
                                    const StorageShardOptions& storage_options,
                                    ResumeInfo* info,
                                    StorageShardStats* stats) {
  StorageCoordinator coordinator(storage_options, stats);
  ChaseOptions options = chase_options;
  options.discovery_hook = &coordinator;
  return ResumeChase(checkpoint_dir, db, tgds, options, info);
}

}  // namespace gqe
