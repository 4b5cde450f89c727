#ifndef GQE_SHARD_STORAGE_WIRE_H_
#define GQE_SHARD_STORAGE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/serialize.h"
#include "chase/chase.h"

namespace gqe {

/// The storage-shard pipe messages (shard/storage_shard.h): one
/// coordinator command and one worker reply per shard per round. Each
/// travels as the bare payload of one net/frame.h frame (kStorageCommand
/// / kStorageReply), whose header carries its type, length cap and
/// CRC-32. They are same-process-image formats, so atoms are encoded
/// without an interner section (DecodeAtomVector still validates
/// predicates/constants against the forked interner, and accepts the
/// labelled nulls the chase mints after fork).

/// Minimum encoded bytes of one u64 index: a claimed index count the
/// remaining payload cannot hold is rejected before anything is
/// allocated (guards against CRC-valid but hostile payloads).
constexpr uint64_t kMinIndexBytes = 8;

struct StorageCommand {
  enum class Type : uint32_t {
    /// Full fragment seed: every owned (global index, atom) pair plus the
    /// round frontier, read from the coordinator's instance. Sent to any
    /// worker that is not exactly one boundary behind: a fresh fleet, a
    /// worker respawned after a fault, a restarted coordinator's fleet.
    kSeed = 1,
    /// One round's delta: the worker appends its owned facts at their
    /// global indexes and replaces the replicated frontier.
    kDelta = 2,
    // Types 3 and 4 are retired (a rebuild from disk, and discovery as a
    // second exchange per round) and never reused, so a frame from a peer
    // that still speaks them is a format error.
  };

  Type type = Type::kSeed;
  /// Coordinator-issued, strictly monotonic across every command of the
  /// run; the reply must echo it, so a late reply from a superseded
  /// attempt can never be mistaken for the current one.
  uint64_t sequence = 0;
  uint64_t boundary = 0;
  uint32_t num_shards = 1;
  /// Injected fault (StorageFault::Kind) to execute before processing
  /// (kCorrupt: on the encoded reply), or -1. Riding inside the command
  /// keeps chaos deterministic: the fault fires exactly when the matched
  /// command arrives.
  int32_t inject_fault = -1;
  uint64_t delta_start = 0;
  uint64_t delta_end = 0;
  /// kSeed: owned facts (parallel vectors, ascending global index).
  std::vector<uint64_t> seed_indexes;
  std::vector<Atom> seed_atoms;
  /// The round frontier (== the delta, replicated).
  std::vector<Atom> frontier;
  /// The round's units in canonical order, discovered against fragment +
  /// frontier once the load is applied.
  std::vector<ChaseDiscoveryUnit> units;
};

struct StorageReplyGroup {
  uint32_t unit_index = 0;
  uint64_t fact_index = 0;
  /// Global indexes of matching free-side facts owned by the emitting
  /// shard, strictly ascending. Substitutions are NOT shipped: the
  /// coordinator re-binds each candidate against its own instance, which
  /// both halves the exchange volume and turns any fabricated candidate
  /// into a validation failure instead of a wrong merge.
  std::vector<uint64_t> side_indexes;
};

/// A worker's one answer to a command: the load's outcome, the
/// fragment's ownership manifest after it, and the round's candidates.
struct StorageReply {
  enum class Type : uint32_t {
    // Type 1 (a load ack without candidates) is retired and never reused.
    kCandidates = 2,
  };

  Type type = Type::kCandidates;
  uint64_t sequence = 0;
  uint64_t boundary = 0;
  uint32_t shard = 0;
  uint32_t num_shards = 1;
  /// Load outcome. ok=false with an intact envelope means the worker
  /// itself judged its state unusable (a delta that does not continue
  /// its fragment); such a reply carries no manifest and no groups.
  bool ok = true;
  std::string error;
  /// The fragment's ownership manifest (owned-fact count and rolling
  /// content hash) after the load.
  uint64_t fragment_count = 0;
  uint64_t fragment_hash = 0;
  /// Candidate groups in strictly increasing (unit, fact) order.
  std::vector<StorageReplyGroup> groups;
};

/// Encodes a command / reply as a frame payload.
std::string EncodeStorageCommand(const StorageCommand& command);
/// The same payload bytes, with the frontier section taken from
/// `encoded_frontier` (EncodeStorageFrontier's output) instead of
/// encoding `command.frontier`: a coordinator encodes a round's
/// frontier once and shares it across every shard's load command.
std::string EncodeStorageCommand(const StorageCommand& command,
                                 std::string_view encoded_frontier);
/// The frontier section of a command payload.
std::string EncodeStorageFrontier(const std::vector<Atom>& frontier);
std::string EncodeStorageReply(const StorageReply& reply);

/// Decode a frame payload. A hostile count (one the remaining bytes
/// cannot hold), a truncation, trailing bytes or an atom the interner
/// rejects is a structured failure, never an allocation or a crash.
SnapshotStatus DecodeStorageCommand(std::string_view payload,
                                    StorageCommand* out);
SnapshotStatus DecodeStorageReply(std::string_view payload,
                                  StorageReply* out);

}  // namespace gqe

#endif  // GQE_SHARD_STORAGE_WIRE_H_
