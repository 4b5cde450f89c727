#include "shard/storage_shard.h"

#include <dirent.h>
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <utility>

#include "base/serialize.h"

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

/// "No generation": fragment checkpoints are numbered by round boundary,
/// and ~0 marks the absence of one (a fresh slot, a failed write).
constexpr uint64_t kNoGen = ~0ull;
/// A fragment rebuilt with no disk checkpoint at all — pure exchange-log
/// replay from round zero.
constexpr uint64_t kScratchGen = kNoGen - 1;

/// Upper bound on one pipe frame. Far above any real exchange; its only
/// job is making a garbage length prefix a detected protocol failure
/// instead of an allocation bomb.
constexpr size_t kMaxFrameBytes = 1ull << 30;

/// Injected-OOM geometry (the serve chaos idiom): cap the address
/// space well below the probe so the bad_alloc is deterministic no matter
/// how much the forked worker already mapped copy-on-write.
constexpr size_t kOomFaultLimitBytes = 64ull << 20;
constexpr size_t kOomFaultProbeBytes = 128ull << 20;

// Minimum encoded bytes per claimed element: a claimed count the remaining
// payload cannot hold is rejected before anything is allocated (guards
// against CRC-valid but hostile payloads).
constexpr uint64_t kMinAtomBytes = 8;       // predicate + arity
constexpr uint64_t kMinUnitBytes = 8 + 4 + 8 + 8;
constexpr uint64_t kMinGroupBytes = 4 + 8 + 8 + 8;
constexpr uint64_t kMinIndexBytes = 8;
constexpr uint64_t kMinLogBytes = 8;

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
// Wire + file formats.
//
// Commands and replies travel length-prefixed over the worker pipes inside
// CRC snapshot envelopes (kinds 7/8); they are same-process-image formats,
// so atoms are encoded without an interner section (DecodeAtomVector still
// validates predicates/constants against the forked interner, and accepts
// the labelled nulls the chase mints after fork). Fragment checkpoints and
// retained exchange logs (kinds 9/10) are cross-restart files and embed
// the interner.
// ---------------------------------------------------------------------------

struct StorageCommand {
  enum class Type : uint32_t {
    /// Full fragment seed: every owned (global index, atom) pair plus the
    /// round frontier. Legal only for a worker that has never acked under
    /// this layout — past that point the coordinator refuses to reseed,
    /// which is what makes rebuild failures observable instead of being
    /// papered over by re-shipping state that might itself be the bug.
    kSeed = 1,
    /// One round's delta: the worker appends its owned facts at their
    /// global indexes and replaces the replicated frontier.
    kDelta = 2,
    /// Crash recovery: retained exchange logs ride down; the worker picks
    /// its newest usable disk checkpoint and replays forward.
    kRebuild = 3,
    /// Run this round's trigger discovery against fragment + frontier.
    kDiscover = 4,
  };

  Type type = Type::kSeed;
  /// Coordinator-issued, strictly monotonic across every command of the
  /// run; the reply must echo it, so a late reply from a superseded
  /// attempt can never be mistaken for the current one.
  uint64_t sequence = 0;
  uint64_t boundary = 0;
  uint32_t num_shards = 1;
  /// Injected fault (StorageFault::Kind) to execute before processing,
  /// or -1. Riding inside the command keeps chaos deterministic: the
  /// fault fires exactly when the matched command arrives.
  int32_t inject_fault = -1;
  uint64_t delta_start = 0;
  uint64_t delta_end = 0;
  /// kSeed: owned facts (parallel vectors, ascending global index).
  std::vector<uint64_t> seed_indexes;
  std::vector<Atom> seed_atoms;
  /// kSeed/kDelta: the round frontier (== the delta, replicated).
  std::vector<Atom> frontier;
  /// kRebuild: raw retained log file bytes, ascending boundary.
  std::vector<std::string> logs;
  /// kDiscover: the round's units in canonical order.
  std::vector<ChaseDiscoveryUnit> units;
};

struct StorageReplyGroup {
  uint32_t unit_index = 0;
  uint64_t fact_index = 0;
  /// Ground side atoms the emitting shard does not own and therefore
  /// could not check; the coordinator confirms every ground side against
  /// the global instance before merging, so this field is diagnostic.
  std::vector<Atom> cond;
  /// Global indexes of matching free-side facts owned by the emitting
  /// shard, strictly ascending. Substitutions are NOT shipped: the
  /// coordinator re-binds each candidate against its own instance, which
  /// both halves the exchange volume and turns any fabricated candidate
  /// into a validation failure instead of a wrong merge.
  std::vector<uint64_t> side_indexes;
};

struct StorageReply {
  enum class Type : uint32_t { kAck = 1, kCandidates = 2 };

  Type type = Type::kAck;
  uint64_t sequence = 0;
  uint64_t boundary = 0;
  uint32_t shard = 0;
  uint32_t num_shards = 1;
  /// kAck: load outcome. ok=false with an intact envelope means the
  /// worker itself judged its state unusable (rebuild ladder exhausted).
  bool ok = true;
  std::string error;
  uint64_t fragment_count = 0;
  uint64_t fragment_hash = 0;
  /// Newest / oldest fragment generations durable on disk after this
  /// load. The oldest bounds exchange-log pruning: a log is deletable
  /// only when no shard's retained checkpoint could need it to replay.
  uint64_t checkpoint_gen = kNoGen;
  uint64_t oldest_checkpoint_gen = kNoGen;
  /// The generation this load rebuilt from (kNoGen: not a rebuild;
  /// kScratchGen: log-only replay from round zero).
  uint64_t rebuilt_from = kNoGen;
  /// kCandidates: groups in strictly increasing (unit, fact) order.
  std::vector<StorageReplyGroup> groups;
};

/// A shard's fragment checkpoint: its owned slice of the instance (global
/// indexes + atoms, ascending) and the frontier of the boundary round,
/// which is exactly the state a respawned worker needs to serve discovery
/// at that boundary with no log replay.
struct StorageFragmentFile {
  uint32_t shard = 0;
  uint32_t num_shards = 1;
  uint64_t boundary = 0;
  uint64_t delta_start = 0;
  uint64_t delta_end = 0;
  std::vector<uint64_t> indexes;
  std::vector<Atom> atoms;
  std::vector<Atom> frontier;
};

/// One retained per-round exchange log: the round's delta facts. Written
/// (tmp+fsync+rename) before any load command for the boundary goes out,
/// so by the time a shard acks the boundary, the bytes needed to replay
/// it into a respawned shard are already durable.
struct StorageLogFile {
  uint32_t num_shards = 1;
  uint64_t boundary = 0;
  uint64_t delta_start = 0;
  uint64_t delta_end = 0;
  std::vector<Atom> delta;
};

void EncodeUnits(const std::vector<ChaseDiscoveryUnit>& units,
                 BinaryWriter* writer) {
  writer->WriteU64(units.size());
  for (const ChaseDiscoveryUnit& unit : units) {
    writer->WriteU64(unit.tgd_index);
    writer->WriteI32(unit.anchor);
    writer->WriteU64(unit.delta_begin);
    writer->WriteU64(unit.delta_end);
  }
}

bool DecodeUnits(BinaryReader* reader, std::vector<ChaseDiscoveryUnit>* out) {
  uint64_t count = 0;
  if (!reader->ReadU64(&count)) return false;
  if (count > reader->remaining() / kMinUnitBytes + 1) return false;
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ChaseDiscoveryUnit unit;
    uint64_t tgd = 0;
    int32_t anchor = 0;
    reader->ReadU64(&tgd);
    reader->ReadI32(&anchor);
    uint64_t begin = 0;
    uint64_t end = 0;
    reader->ReadU64(&begin);
    if (!reader->ReadU64(&end)) return false;
    unit.tgd_index = tgd;
    unit.anchor = anchor;
    unit.delta_begin = begin;
    unit.delta_end = end;
    out->push_back(unit);
  }
  return true;
}

std::string EncodeStorageCommand(const StorageCommand& command) {
  BinaryWriter writer;
  writer.WriteU32(static_cast<uint32_t>(command.type));
  writer.WriteU64(command.sequence);
  writer.WriteU64(command.boundary);
  writer.WriteU32(command.num_shards);
  writer.WriteI32(command.inject_fault);
  writer.WriteU64(command.delta_start);
  writer.WriteU64(command.delta_end);
  writer.WriteU64(command.seed_indexes.size());
  for (uint64_t index : command.seed_indexes) writer.WriteU64(index);
  EncodeAtomVector(command.seed_atoms, &writer);
  EncodeAtomVector(command.frontier, &writer);
  writer.WriteU64(command.logs.size());
  for (const std::string& log : command.logs) writer.WriteString(log);
  EncodeUnits(command.units, &writer);
  return WrapSnapshot(kSnapshotKindStorageCommand, writer.buffer());
}

SnapshotStatus DecodeStorageCommand(std::string_view bytes,
                                    StorageCommand* out) {
  std::string_view payload;
  SnapshotStatus status =
      UnwrapSnapshot(bytes, kSnapshotKindStorageCommand, &payload);
  if (!status.ok()) return status;
  BinaryReader reader(payload);
  StorageCommand command;
  uint32_t type = 0;
  reader.ReadU32(&type);
  reader.ReadU64(&command.sequence);
  reader.ReadU64(&command.boundary);
  reader.ReadU32(&command.num_shards);
  reader.ReadI32(&command.inject_fault);
  reader.ReadU64(&command.delta_start);
  uint64_t index_count = 0;
  reader.ReadU64(&command.delta_end);
  if (!reader.ReadU64(&index_count)) {
    return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                "storage command: truncated header");
  }
  if (type < 1 || type > 4) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage command: unknown type");
  }
  command.type = static_cast<StorageCommand::Type>(type);
  if (index_count > reader.remaining() / kMinIndexBytes + 1) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage command: absurd index count");
  }
  command.seed_indexes.reserve(index_count);
  for (uint64_t i = 0; i < index_count; ++i) {
    uint64_t index = 0;
    if (!reader.ReadU64(&index)) {
      return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                  "storage command: truncated indexes");
    }
    command.seed_indexes.push_back(index);
  }
  status = DecodeAtomVector(&reader, &command.seed_atoms);
  if (!status.ok()) return status;
  status = DecodeAtomVector(&reader, &command.frontier);
  if (!status.ok()) return status;
  uint64_t log_count = 0;
  if (!reader.ReadU64(&log_count)) {
    return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                "storage command: truncated log count");
  }
  if (log_count > reader.remaining() / kMinLogBytes + 1) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage command: absurd log count");
  }
  command.logs.reserve(log_count);
  for (uint64_t i = 0; i < log_count; ++i) {
    std::string log;
    if (!reader.ReadString(&log)) {
      return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                  "storage command: truncated log");
    }
    command.logs.push_back(std::move(log));
  }
  if (!DecodeUnits(&reader, &command.units)) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage command: bad units");
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage command: trailing or missing bytes");
  }
  if (command.seed_indexes.size() != command.seed_atoms.size()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage command: seed index/atom mismatch");
  }
  *out = std::move(command);
  return SnapshotStatus::Ok();
}

std::string EncodeStorageReply(const StorageReply& reply) {
  BinaryWriter writer;
  writer.WriteU32(static_cast<uint32_t>(reply.type));
  writer.WriteU64(reply.sequence);
  writer.WriteU64(reply.boundary);
  writer.WriteU32(reply.shard);
  writer.WriteU32(reply.num_shards);
  writer.WriteBool(reply.ok);
  writer.WriteString(reply.error);
  writer.WriteU64(reply.fragment_count);
  writer.WriteU64(reply.fragment_hash);
  writer.WriteU64(reply.checkpoint_gen);
  writer.WriteU64(reply.oldest_checkpoint_gen);
  writer.WriteU64(reply.rebuilt_from);
  writer.WriteU64(reply.groups.size());
  for (const StorageReplyGroup& group : reply.groups) {
    writer.WriteU32(group.unit_index);
    writer.WriteU64(group.fact_index);
    EncodeAtomVector(group.cond, &writer);
    writer.WriteU64(group.side_indexes.size());
    for (uint64_t side : group.side_indexes) writer.WriteU64(side);
  }
  return WrapSnapshot(kSnapshotKindStorageReply, writer.buffer());
}

SnapshotStatus DecodeStorageReply(std::string_view bytes, StorageReply* out) {
  std::string_view payload;
  SnapshotStatus status =
      UnwrapSnapshot(bytes, kSnapshotKindStorageReply, &payload);
  if (!status.ok()) return status;
  BinaryReader reader(payload);
  StorageReply reply;
  uint32_t type = 0;
  reader.ReadU32(&type);
  reader.ReadU64(&reply.sequence);
  reader.ReadU64(&reply.boundary);
  reader.ReadU32(&reply.shard);
  reader.ReadU32(&reply.num_shards);
  reader.ReadBool(&reply.ok);
  if (!reader.ReadString(&reply.error)) {
    return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                "storage reply: truncated header");
  }
  reader.ReadU64(&reply.fragment_count);
  reader.ReadU64(&reply.fragment_hash);
  reader.ReadU64(&reply.checkpoint_gen);
  reader.ReadU64(&reply.oldest_checkpoint_gen);
  reader.ReadU64(&reply.rebuilt_from);
  uint64_t group_count = 0;
  if (!reader.ReadU64(&group_count)) {
    return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                "storage reply: truncated counters");
  }
  if (type < 1 || type > 2) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage reply: unknown type");
  }
  reply.type = static_cast<StorageReply::Type>(type);
  if (group_count > reader.remaining() / kMinGroupBytes + 1) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage reply: absurd group count");
  }
  reply.groups.reserve(group_count);
  for (uint64_t g = 0; g < group_count; ++g) {
    StorageReplyGroup group;
    reader.ReadU32(&group.unit_index);
    if (!reader.ReadU64(&group.fact_index)) {
      return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                  "storage reply: truncated group");
    }
    status = DecodeAtomVector(&reader, &group.cond);
    if (!status.ok()) return status;
    uint64_t side_count = 0;
    if (!reader.ReadU64(&side_count)) {
      return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                  "storage reply: truncated candidates");
    }
    if (side_count > reader.remaining() / kMinIndexBytes + 1) {
      return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                  "storage reply: absurd candidate count");
    }
    group.side_indexes.reserve(side_count);
    for (uint64_t s = 0; s < side_count; ++s) {
      uint64_t side = 0;
      if (!reader.ReadU64(&side)) {
        return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                    "storage reply: truncated candidate");
      }
      group.side_indexes.push_back(side);
    }
    reply.groups.push_back(std::move(group));
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage reply: trailing or missing bytes");
  }
  *out = std::move(reply);
  return SnapshotStatus::Ok();
}

std::string EncodeStorageFragmentFile(const StorageFragmentFile& file) {
  BinaryWriter writer;
  EncodeInterner(&writer);
  writer.WriteU32(file.shard);
  writer.WriteU32(file.num_shards);
  writer.WriteU64(file.boundary);
  writer.WriteU64(file.delta_start);
  writer.WriteU64(file.delta_end);
  writer.WriteU64(file.indexes.size());
  for (uint64_t index : file.indexes) writer.WriteU64(index);
  EncodeAtomVector(file.atoms, &writer);
  EncodeAtomVector(file.frontier, &writer);
  return WrapSnapshot(kSnapshotKindStorageFragment, writer.buffer());
}

SnapshotStatus DecodeStorageFragmentFile(std::string_view bytes,
                                         StorageFragmentFile* out) {
  std::string_view payload;
  SnapshotStatus status =
      UnwrapSnapshot(bytes, kSnapshotKindStorageFragment, &payload);
  if (!status.ok()) return status;
  BinaryReader reader(payload);
  status = DecodeInterner(&reader);
  if (!status.ok()) return status;
  StorageFragmentFile file;
  reader.ReadU32(&file.shard);
  reader.ReadU32(&file.num_shards);
  reader.ReadU64(&file.boundary);
  reader.ReadU64(&file.delta_start);
  uint64_t index_count = 0;
  reader.ReadU64(&file.delta_end);
  if (!reader.ReadU64(&index_count)) {
    return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                "storage fragment: truncated header");
  }
  if (index_count > reader.remaining() / kMinIndexBytes + 1) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage fragment: absurd index count");
  }
  file.indexes.reserve(index_count);
  for (uint64_t i = 0; i < index_count; ++i) {
    uint64_t index = 0;
    if (!reader.ReadU64(&index)) {
      return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                  "storage fragment: truncated indexes");
    }
    file.indexes.push_back(index);
  }
  status = DecodeAtomVector(&reader, &file.atoms);
  if (!status.ok()) return status;
  status = DecodeAtomVector(&reader, &file.frontier);
  if (!status.ok()) return status;
  if (!reader.ok() || !reader.AtEnd()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage fragment: trailing or missing bytes");
  }
  if (file.indexes.size() != file.atoms.size()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage fragment: index/atom mismatch");
  }
  *out = std::move(file);
  return SnapshotStatus::Ok();
}

std::string EncodeStorageLogFile(const StorageLogFile& file) {
  BinaryWriter writer;
  EncodeInterner(&writer);
  writer.WriteU32(file.num_shards);
  writer.WriteU64(file.boundary);
  writer.WriteU64(file.delta_start);
  writer.WriteU64(file.delta_end);
  EncodeAtomVector(file.delta, &writer);
  return WrapSnapshot(kSnapshotKindStorageLog, writer.buffer());
}

SnapshotStatus DecodeStorageLogFile(std::string_view bytes,
                                    StorageLogFile* out) {
  std::string_view payload;
  SnapshotStatus status =
      UnwrapSnapshot(bytes, kSnapshotKindStorageLog, &payload);
  if (!status.ok()) return status;
  BinaryReader reader(payload);
  status = DecodeInterner(&reader);
  if (!status.ok()) return status;
  StorageLogFile file;
  reader.ReadU32(&file.num_shards);
  reader.ReadU64(&file.boundary);
  reader.ReadU64(&file.delta_start);
  if (!reader.ReadU64(&file.delta_end)) {
    return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                "storage log: truncated header");
  }
  status = DecodeAtomVector(&reader, &file.delta);
  if (!status.ok()) return status;
  if (!reader.ok() || !reader.AtEnd()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage log: trailing or missing bytes");
  }
  if (file.delta.size() != file.delta_end - file.delta_start) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage log: delta size mismatch");
  }
  *out = std::move(file);
  return SnapshotStatus::Ok();
}

// ---------------------------------------------------------------------------
// State-dir layout helpers.
// ---------------------------------------------------------------------------

std::string ShardDirPath(const std::string& state_dir, uint32_t shard) {
  return state_dir + "/shard-" + std::to_string(shard);
}

std::string LogDirPath(const std::string& state_dir) {
  return state_dir + "/logs";
}

std::string FragmentPath(const std::string& shard_dir, uint64_t generation) {
  return shard_dir + "/fragment-" + std::to_string(generation) + ".frag";
}

std::string LogPath(const std::string& state_dir, uint64_t boundary) {
  return LogDirPath(state_dir) + "/log-" + std::to_string(boundary) + ".log";
}

/// Numeric suffixes of `<prefix><n><suffix>` entries in `dir`, ascending.
std::vector<uint64_t> ListNumbered(const std::string& dir,
                                   const std::string& prefix,
                                   const std::string& suffix) {
  std::vector<uint64_t> out;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return out;
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  ::closedir(handle);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> ListFragmentGens(const std::string& shard_dir) {
  return ListNumbered(shard_dir, "fragment-", ".frag");
}

std::vector<uint64_t> ListLogBoundaries(const std::string& state_dir) {
  return ListNumbered(LogDirPath(state_dir), "log-", ".log");
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
  uint64_t rebuilt_from = kNoGen;
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

/// Writes the fragment checkpoint for the state's boundary and prunes old
/// generations down to `keep_generations`. Returns the written generation
/// or kNoGen on failure — a failed checkpoint write degrades *future*
/// recovery but never the current round, so the ack simply reports what
/// is actually durable and the coordinator's log retention adapts.
uint64_t WriteFragmentCheckpoint(const WorkerState& state, uint32_t shard,
                                 uint32_t num_shards,
                                 const std::string& shard_dir,
                                 int keep_generations) {
  StorageFragmentFile file;
  file.shard = shard;
  file.num_shards = num_shards;
  file.boundary = state.boundary;
  file.delta_start = state.delta_start;
  file.delta_end = state.delta_end;
  file.indexes = state.to_global;
  for (size_t i = 0; i < state.fragment.size(); ++i) {
    file.atoms.push_back(state.fragment.atom(i));
  }
  file.frontier = state.frontier;
  const SnapshotStatus status = WriteFileAtomic(
      FragmentPath(shard_dir, state.boundary), EncodeStorageFragmentFile(file));
  if (!status.ok()) return kNoGen;
  std::vector<uint64_t> gens = ListFragmentGens(shard_dir);
  if (gens.size() > static_cast<size_t>(keep_generations)) {
    for (size_t i = 0; i + keep_generations < gens.size(); ++i) {
      ::remove(FragmentPath(shard_dir, gens[i]).c_str());
    }
  }
  return state.boundary;
}

/// Attempts to reconstruct the fragment at `command`'s boundary from one
/// disk checkpoint (`base`, or scratch when null) plus forward replay of
/// the shipped exchange logs. Returns false on any gap or mismatch; the
/// caller walks the recovery ladder newest-checkpoint-first.
bool TryReplay(const StorageCommand& command, uint32_t shard,
               const StorageFragmentFile* base,
               const std::map<uint64_t, const StorageLogFile*>& logs,
               WorkerState* out) {
  WorkerState state;
  uint64_t next_boundary = 0;
  if (base != nullptr) {
    for (size_t i = 0; i < base->atoms.size(); ++i) {
      if (!state.Append(base->atoms[i], base->indexes[i])) return false;
    }
    state.frontier = base->frontier;
    state.delta_start = base->delta_start;
    state.delta_end = base->delta_end;
    next_boundary = base->boundary + 1;
    state.rebuilt_from = base->boundary;
  } else {
    state.rebuilt_from = kScratchGen;
  }
  for (uint64_t b = next_boundary; b <= command.boundary; ++b) {
    auto it = logs.find(b);
    if (it == logs.end()) return false;
    const StorageLogFile& log = *it->second;
    // Coverage must be gapless: each log's delta starts exactly where the
    // fragment's coverage ends.
    if (log.delta_start != state.delta_end && !(b == 0 && state.fragment.empty()
                                                && log.delta_start == 0)) {
      return false;
    }
    for (size_t i = 0; i < log.delta.size(); ++i) {
      const uint64_t global = log.delta_start + i;
      if (OwnerOfAtom(log.delta[i], command.num_shards) != shard) continue;
      if (!state.Append(log.delta[i], global)) return false;
    }
    state.frontier = log.delta;
    state.delta_start = log.delta_start;
    state.delta_end = log.delta_end;
  }
  if (state.delta_start != command.delta_start ||
      state.delta_end != command.delta_end) {
    return false;
  }
  state.boundary = command.boundary;
  state.loaded = true;
  state.rebuilt_from =
      base != nullptr ? state.rebuilt_from : kScratchGen;
  *out = std::move(state);
  return true;
}

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
      // the instance, so the whole group is vetoed here. Non-owned sides
      // go up as cond atoms for the coordinator's definitive check.
      bool owned_side_missing = false;
      std::vector<Atom> cond;
      for (const Atom& side : shape.ground_sides) {
        if (OwnerOfAtom(side, command.num_shards) == shard) {
          if (state.fragment.Find(side) < 0) {
            owned_side_missing = true;
            break;
          }
        } else {
          cond.push_back(side);
        }
      }
      if (owned_side_missing) continue;
      StorageReplyGroup group;
      group.unit_index = static_cast<uint32_t>(u);
      group.fact_index = f;
      group.cond = std::move(cond);
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
/// command pipe, answers each command with one framed reply, exits 0 on
/// command-pipe EOF (graceful teardown). Runs in a forked child; the
/// return value becomes the exit code.
int StorageWorkerBody(const TgdSet* tgds, uint32_t shard, uint32_t num_shards,
                      double heartbeat_interval_ms, int keep_generations,
                      const std::string& shard_dir, int command_fd,
                      int result_fd, int heartbeat_fd) {
  HeartbeatWriter heartbeat(heartbeat_fd, heartbeat_interval_ms);
  WorkerState state;
  std::string frame;
  while (ReadLengthPrefixedFrameBlocking(command_fd, &frame, kMaxFrameBytes)) {
    StorageCommand command;
    if (!DecodeStorageCommand(frame, &command).ok()) {
      return kStorageExitProtocol;
    }
    // Injected faults fire on command receipt, before any work — the
    // deterministic moment chaos tests pin. They are raised child-side: a
    // parent-side signal would race a fast worker's reply, and the fault
    // could dissolve into a successful command. Raising the signal here is
    // still the real thing — the coordinator sees an ordinary SIGKILL
    // death / heartbeat-silent stall / OOM exit, through the same
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
        state.rebuilt_from = kNoGen;
        break;
      }
      case StorageCommand::Type::kRebuild: {
        // Decode whichever shipped logs are usable; a log that fails its
        // envelope or interner check is simply absent from the replay
        // map, and the ladder decides whether recovery is still possible.
        std::vector<StorageLogFile> decoded;
        decoded.reserve(command.logs.size());
        std::map<uint64_t, const StorageLogFile*> logs;
        for (const std::string& bytes : command.logs) {
          StorageLogFile log;
          if (!DecodeStorageLogFile(bytes, &log).ok()) continue;
          if (log.num_shards != num_shards) continue;
          decoded.push_back(std::move(log));
        }
        for (const StorageLogFile& log : decoded) {
          logs[log.boundary] = &log;
        }
        // The recovery ladder: newest usable checkpoint first, older
        // generations next (longer replay), scratch replay from log 0
        // last. Every rung re-derives the same fragment bytes — the
        // ladder trades replay length for damage tolerance, not content.
        bool rebuilt = false;
        std::vector<uint64_t> gens = ListFragmentGens(shard_dir);
        for (size_t i = gens.size(); i-- > 0 && !rebuilt;) {
          if (gens[i] > command.boundary) continue;
          std::string bytes;
          if (!ReadFileBytes(FragmentPath(shard_dir, gens[i]), &bytes).ok()) {
            continue;
          }
          StorageFragmentFile base;
          if (!DecodeStorageFragmentFile(bytes, &base).ok()) continue;
          if (base.shard != shard || base.num_shards != num_shards) continue;
          if (base.boundary != gens[i]) continue;
          rebuilt = TryReplay(command, shard, &base, logs, &state);
        }
        if (!rebuilt) {
          rebuilt = TryReplay(command, shard, nullptr, logs, &state);
        }
        if (!rebuilt) {
          reply.ok = false;
          reply.error = "rebuild-exhausted";
        }
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
      // Every successful load ends with a fresh fragment checkpoint at
      // the boundary, then an ack describing what is actually durable
      // (the write may have failed; the ack never lies about it).
      WriteFragmentCheckpoint(state, shard, num_shards, shard_dir,
                              keep_generations);
      std::vector<uint64_t> gens = ListFragmentGens(shard_dir);
      reply.checkpoint_gen = gens.empty() ? kNoGen : gens.back();
      reply.oldest_checkpoint_gen = gens.empty() ? kNoGen : gens.front();
      reply.fragment_count = state.fragment.size();
      reply.fragment_hash = state.ManifestHash();
      reply.rebuilt_from = state.rebuilt_from;
    }

    std::string out;
    AppendLengthPrefixedFrame(&out, EncodeStorageReply(reply));
    int write_errno = 0;
    if (!WriteAllToFd(result_fd, out, &write_errno)) {
      return IsPeerGoneErrno(write_errno) ? kStorageExitPeerGone
                                          : kStorageExitWriteError;
    }
  }
  return kStorageExitOk;
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

/// The storage-shard coordinator: owns the long-lived worker fleet, the
/// acknowledged ownership manifests, the retained exchange log, and the
/// respawn/rebuild/reseed recovery ladder. One instance lives for the
/// whole run (it is the ChaseOptions::discovery_hook), so workers and
/// recovery bookkeeping span rounds.
class StorageCoordinator : public ChaseDiscoveryHook {
 public:
  StorageCoordinator(const StorageShardOptions& options,
                     StorageShardStats* stats)
      : options_(options),
        stats_(stats),
        fault_used_(options.faults.size(), false) {
    if (options_.shards < 1) options_.shards = 1;
    // Recovery needs a fallback generation when the newest checkpoint is
    // the casualty; a single retained generation would make every
    // checkpoint corruption unrecoverable.
    if (options_.keep_generations < 2) options_.keep_generations = 2;
  }

  ~StorageCoordinator() override {
    TeardownWorkers();
    if (ephemeral_ && !state_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(state_dir_, ec);
    }
  }

  bool DiscoverRound(const ChaseDiscoveryRound& round,
                     std::vector<std::vector<Substitution>>* found) override;

 private:
  /// Per-round slot protocol: load (seed/delta/rebuild) then discover,
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
    /// True once any ack was accepted from this slot under the current
    /// layout. Past that point a full reseed is forbidden: state must be
    /// recoverable from disk, or the shard is honestly lost.
    bool ever_acked = false;
    bool force_seed = false;
    bool reseeded = false;
    /// Boundary the live worker's fragment is synced to (kNoGen: none).
    uint64_t synced_boundary = kNoGen;
    /// Oldest fragment generation the last ack reported durable — the
    /// shard's contribution to the exchange-log retention floor.
    uint64_t oldest_gen = kNoGen;
    int attempts = 0;  // workers spawned for this slot this round
    double ready_at = 0.0;
    double last_beat = 0.0;
    double started_at = 0.0;
    double first_fault_at = -1.0;
    Phase phase = Phase::kNeedLoad;
    uint64_t await_sequence = 0;
    std::string rx;
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
    slot->rx.clear();
    slot->synced_boundary = kNoGen;
    ScheduleRetry(round, slot, now, cause);
  }

  bool EnsureStateDir() {
    if (state_dir_.empty()) {
      if (!options_.state_dir.empty()) {
        state_dir_ = options_.state_dir;
      } else {
        char tmpl[] = "/tmp/gqe-storage-XXXXXX";
        char* made = ::mkdtemp(tmpl);
        if (made == nullptr) return false;
        state_dir_ = made;
        ephemeral_ = true;
      }
    }
    std::error_code ec;
    std::filesystem::create_directories(LogDirPath(state_dir_), ec);
    for (uint32_t s = 0; s < layout_; ++s) {
      std::filesystem::create_directories(ShardDirPath(state_dir_, s), ec);
    }
    return true;
  }

  bool DiskHasFragments(uint32_t shard) const {
    return !ListFragmentGens(ShardDirPath(state_dir_, shard)).empty();
  }

  bool SpawnSlot(const ChaseDiscoveryRound& round, Slot* slot) {
    const TgdSet* tgds = round.tgds;
    const uint32_t shard = slot->shard;
    const uint32_t num_shards = layout_;
    const double heartbeat = options_.heartbeat_interval_ms;
    const int keep = options_.keep_generations;
    const std::string shard_dir = ShardDirPath(state_dir_, shard);
    // The closure runs synchronously inside Spawn, in the child branch of
    // the fork, so capturing parent state by reference/pointer is safe:
    // the child computes against its copy-on-write snapshot.
    auto body = [tgds, shard, num_shards, heartbeat, keep, &shard_dir](
                    int command_fd, int result_fd, int heartbeat_fd) -> int {
      return StorageWorkerBody(tgds, shard, num_shards, heartbeat, keep,
                               shard_dir, command_fd, result_fd, heartbeat_fd);
    };
    std::string error;
    WorkerProcess worker;
    if (!WorkerProcess::Spawn(options_.limits, body, &worker, &error)) {
      return false;
    }
    slot->worker = std::move(worker);
    slot->running = true;
    slot->rx.clear();
    slot->synced_boundary = kNoGen;
    slot->reseeded = false;
    slot->force_seed = false;
    if (stats_ != nullptr) {
      ++stats_->workers_spawned;
      if (slot->attempts > 1 || slot->ever_acked) ++stats_->respawns;
    }
    return true;
  }

  /// Writes this round's delta as a retained exchange log — durably
  /// (tmp+fsync+rename), and strictly BEFORE any load command for the
  /// boundary goes out. By the time any shard acks the boundary, the
  /// bytes needed to replay it into a respawned shard are on disk, so a
  /// kill between a shard's ack and the round commit can always be
  /// recovered from checkpoint + log.
  void WriteRoundLog(const ChaseDiscoveryRound& round) {
    StorageLogFile file;
    file.num_shards = layout_;
    file.boundary = round.round;
    file.delta_start = round.delta_start;
    file.delta_end = round.delta_end;
    file.delta = round_delta_;
    const SnapshotStatus status = WriteFileAtomic(
        LogPath(state_dir_, round.round), EncodeStorageLogFile(file));
    if (!status.ok()) {
      RecordEvent(round.round, 0, 0, "write-failed");
      return;
    }
    if (stats_ != nullptr) ++stats_->logs_written;
  }

  /// Deletes retained logs no surviving checkpoint generation could need
  /// for forward replay: log b is prunable once every active shard's
  /// oldest durable fragment generation is >= b. A shard with no known
  /// durable generation blocks pruning entirely.
  void PruneLogs() {
    uint64_t min_oldest = kNoGen;
    bool any_active = false;
    for (const Slot& slot : slots_) {
      if (slot.inlined) continue;
      any_active = true;
      if (slot.oldest_gen == kNoGen) return;
      min_oldest = std::min(min_oldest, slot.oldest_gen);
    }
    if (!any_active || min_oldest == kNoGen) return;
    for (uint64_t b : ListLogBoundaries(state_dir_)) {
      if (b > min_oldest) continue;
      if (::remove(LogPath(state_dir_, b).c_str()) == 0 &&
          stats_ != nullptr) {
        ++stats_->logs_pruned;
      }
    }
  }

  StorageCommand BuildLoadCommand(const ChaseDiscoveryRound& round,
                                  Slot* slot) const {
    StorageCommand command;
    const Instance& instance = *round.instance;
    if (!slot->force_seed && slot->synced_boundary != kNoGen &&
        slot->synced_boundary + 1 == round.round) {
      // The steady state: the live worker is exactly one boundary behind,
      // so one delta brings it current.
      command.type = StorageCommand::Type::kDelta;
      command.frontier = round_delta_;
    } else if (!slot->force_seed &&
               (slot->ever_acked || DiskHasFragments(slot->shard))) {
      // A respawned worker (or a restarted coordinator's fresh worker
      // over surviving state): rebuild from disk checkpoint + logs.
      command.type = StorageCommand::Type::kRebuild;
      for (uint64_t b : ListLogBoundaries(state_dir_)) {
        if (b > round.round) continue;
        std::string bytes;
        if (ReadFileBytes(LogPath(state_dir_, b), &bytes).ok()) {
          command.logs.push_back(std::move(bytes));
        }
      }
    } else {
      // First contact under this layout: full owned-fragment seed.
      command.type = StorageCommand::Type::kSeed;
      for (uint64_t g = 0; g < round.delta_end; ++g) {
        if (ShardOfFact(instance, g, layout_) != slot->shard) continue;
        command.seed_indexes.push_back(g);
        command.seed_atoms.push_back(instance.atom(g));
      }
      command.frontier = round_delta_;
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
          StorageFault::Kind::kOom}) {
      if (TakeFault(round.round, slot->shard, slot->attempts, kind, fphase)) {
        command->inject_fault = static_cast<int32_t>(kind);
        break;
      }
    }
    std::string framed;
    AppendLengthPrefixedFrame(&framed, EncodeStorageCommand(*command));
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
        slot->rx.clear();
        slot->synced_boundary = kNoGen;
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

  /// Processes one framed reply. Returns false when the slot was failed.
  bool HandleFrame(const ChaseDiscoveryRound& round, Slot* slot,
                   std::string* payload, double now, size_t* remaining) {
    const StorageFault::Phase fphase = slot->phase == Phase::kLoadWait
                                           ? StorageFault::Phase::kLoad
                                           : StorageFault::Phase::kDiscover;
    if (TakeFault(round.round, slot->shard, slot->attempts,
                  StorageFault::Kind::kCorrupt, fphase) &&
        !payload->empty()) {
      // Simulated wire corruption: one flipped bit, caught by the reply's
      // envelope CRC below.
      (*payload)[payload->size() / 2] ^= 0x20;
    }
    if (stats_ != nullptr) stats_->exchanged_bytes += payload->size();
    StorageReply reply;
    if (!DecodeStorageReply(*payload, &reply).ok()) {
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
        if (!slot->ever_acked && !slot->reseeded) {
          // A fresh slot whose rebuild found nothing usable may be seeded
          // in full — it never held acknowledged state, so the seed
          // cannot paper over lost durability.
          slot->reseeded = true;
          slot->force_seed = true;
          slot->phase = Phase::kNeedLoad;
          RecordEvent(round.round, slot->shard, slot->attempts, "reseed");
          if (stats_ != nullptr) ++stats_->reseeds;
          return true;
        }
        FailSlot(round, slot, now, "rebuild-failed");
        return false;
      }
      if (reply.fragment_count != expected_count_[slot->shard] ||
          reply.fragment_hash != expected_hash_[slot->shard]) {
        if (stats_ != nullptr) ++stats_->bad_acks;
        FailSlot(round, slot, now, "bad-ack");
        return false;
      }
      slot->ever_acked = true;
      slot->synced_boundary = round.round;
      slot->oldest_gen = reply.oldest_checkpoint_gen;
      slot->force_seed = false;
      if (stats_ != nullptr) {
        if (reply.rebuilt_from != kNoGen) ++stats_->rebuilds;
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
    bool any_inlined = false;
    for (const Slot& slot : slots_) any_inlined |= slot.inlined;
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
        const bool need_shape = here_count > 0 || any_inlined || true;
        UnitFactShape shape;
        const bool matches =
            need_shape &&
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
      slot.synced_boundary = kNoGen;
    }
  }

  StorageShardOptions options_;
  StorageShardStats* stats_;
  std::vector<bool> fault_used_;
  std::string state_dir_;
  bool ephemeral_ = false;
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
  if (!EnsureStateDir()) {
    RecordEvent(round.round, 0, 0, "write-failed");
    return false;
  }
  const Instance& instance = *round.instance;
  round_delta_.clear();
  for (uint64_t g = round.delta_start; g < round.delta_end; ++g) {
    round_delta_.push_back(instance.atom(g));
  }
  if (stats_ != nullptr) stats_->shipped_facts += round_delta_.size();
  // Durable exchange log first — before any load command, hence before
  // any ack this boundary (satellite: retention-before-ack).
  WriteRoundLog(round);
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
    slot.force_seed = false;
    slot.reseeded = false;
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
      slot.rx += slot.worker.TakeResult();
      if (slot.worker.DrainHeartbeats() > 0) slot.last_beat = now;
      bool failed = false;
      while (slot.phase == Phase::kLoadWait ||
             slot.phase == Phase::kDiscoverWait) {
        std::string payload;
        const FrameTake take =
            TakeLengthPrefixedFrame(&slot.rx, &payload, kMaxFrameBytes);
        if (take == FrameTake::kNeedMore) break;
        progressed = true;
        if (take == FrameTake::kMalformed) {
          if (stats_ != nullptr) ++stats_->corrupt_replies;
          FailSlot(round, &slot, now, "corrupt-reply");
          failed = true;
          break;
        }
        if (!HandleFrame(round, &slot, &payload, now, &remaining)) {
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
        slot.rx.clear();
        slot.synced_boundary = kNoGen;
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

  PruneLogs();
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
