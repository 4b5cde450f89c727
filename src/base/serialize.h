#ifndef GQE_BASE_SERIALIZE_H_
#define GQE_BASE_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/instance.h"

namespace gqe {

/// Why a snapshot could not be written or read back. Snapshots guard
/// long chase/saturation runs against crashes, so a damaged file must be
/// *diagnosed* — never trusted (a silently wrong instance) and never a
/// crash. The checksummed envelope below turns truncation and bit flips
/// into kTruncated / kChecksumMismatch, which recovery code treats as
/// "fall back to the previous good generation".
enum class SnapshotError : int {
  kNone = 0,
  /// The file could not be opened, read, written or renamed.
  kIoError = 1,
  /// No snapshot exists at the given location.
  kNotFound = 2,
  /// The file does not start with the snapshot magic.
  kBadMagic = 3,
  /// The file is shorter than its header claims (e.g. a crash cut the
  /// write short before the atomic rename, or the tail was lost).
  kTruncated = 4,
  /// The payload bytes do not match the stored CRC-32 (bit rot, a torn
  /// write, or deliberate corruption).
  kChecksumMismatch = 5,
  /// The snapshot was written by an incompatible format version.
  kVersionMismatch = 6,
  /// The checksum passed but the payload does not decode (wrong kind,
  /// out-of-range ids, impossible lengths).
  kFormatError = 7,
  /// The snapshot's interned names conflict with names already interned
  /// by this process, so its term/predicate ids cannot be honoured.
  kInternerConflict = 8,
};

const char* SnapshotErrorName(SnapshotError error);

/// Status of a snapshot operation: an error code plus a human-readable
/// message naming the offending file / field.
struct SnapshotStatus {
  SnapshotError error = SnapshotError::kNone;
  std::string message;

  bool ok() const { return error == SnapshotError::kNone; }

  static SnapshotStatus Ok() { return SnapshotStatus{}; }
  static SnapshotStatus Fail(SnapshotError error, std::string message) {
    return SnapshotStatus{error, std::move(message)};
  }
};

/// Appends little-endian primitives to a growing byte buffer. All
/// snapshot payloads are produced through this writer so the encoding is
/// deterministic: the same state serializes to the same bytes.
class BinaryWriter {
 public:
  void WriteU8(uint8_t value);
  void WriteU16(uint16_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI32(int32_t value) { WriteU32(static_cast<uint32_t>(value)); }
  void WriteBool(bool value) { WriteU8(value ? 1 : 0); }
  /// Length-prefixed (u64) byte string.
  void WriteString(std::string_view value);

  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked reader over a byte buffer. Every read reports failure
/// instead of walking off the end; after the first failed read the
/// reader stays failed (sticky), so decoders can check ok() once at the
/// end of a struct.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* out);
  bool ReadU16(uint16_t* out);
  bool ReadU32(uint32_t* out);
  bool ReadU64(uint64_t* out);
  bool ReadI32(int32_t* out);
  bool ReadBool(bool* out);
  bool ReadString(std::string* out);

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Take(size_t n, const char** out);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// CRC-32 (IEEE 802.3 polynomial) of `data`. Used both for snapshot
/// integrity and as a cheap deterministic fingerprint of workloads.
uint32_t Crc32(std::string_view data);

/// Snapshot kinds carried in the envelope header, so bytes written as
/// one kind (say, a chase checkpoint) can never decode as another.
constexpr uint16_t kSnapshotKindChase = 1;
/// Retired: guarded chase-tree portions were once cached on disk under
/// kind 2. Kind 2 is never reused.
constexpr uint16_t kSnapshotKindRetiredChaseTree = 2;
constexpr uint16_t kSnapshotKindInstance = 3;
/// Result blob a serve worker writes to its result pipe (serve/worker.h).
constexpr uint16_t kSnapshotKindWorkerResult = 4;
/// Retired: kind 5 is never reused, so bytes written under it can never
/// decode as another kind.
constexpr uint16_t kSnapshotKindRetiredExchange = 5;
/// One record of the serving tier's write-ahead request journal
/// (serve/journal.h). The CRC envelope is what makes a torn tail or a
/// bit-flipped record a *detected* end of journal on recovery, never a
/// fabricated request or result.
constexpr uint16_t kSnapshotKindJournalRecord = 6;
/// Retired: storage-shard commands and replies once travelled in these
/// envelopes; they now travel as bare payloads in net/frame.h frames,
/// whose header carries their type, length cap and CRC. Kinds 7 and 8
/// are never reused.
constexpr uint16_t kSnapshotKindRetiredStorageCommand = 7;
constexpr uint16_t kSnapshotKindRetiredStorageReply = 8;
/// Retired: storage shards once wrote per-round fragment checkpoints
/// (kind 9) and the coordinator per-round exchange logs (kind 10); a
/// respawned worker is now reseeded from the coordinator's instance.
/// Kinds 9 and 10 are never reused.
constexpr uint16_t kSnapshotKindRetiredStorageFragment = 9;
constexpr uint16_t kSnapshotKindRetiredStorageLog = 10;

/// Current snapshot format version (bumped on incompatible changes).
/// v2: chase snapshots carry the per-trigger null-draw log backing
/// derivation witnesses (verify/witness.h); worker results carry the
/// serialized evaluation witness.
constexpr uint16_t kSnapshotVersion = 2;

/// Wraps a payload in the versioned, checksummed snapshot envelope:
/// magic | kind | version | payload size | CRC-32(payload) | payload.
std::string WrapSnapshot(uint16_t kind, std::string_view payload);

/// Validates the envelope of `bytes` and exposes the payload. Rejects a
/// wrong magic, wrong kind, newer version, truncated tail or checksum
/// mismatch with the corresponding SnapshotError; `payload` points into
/// `bytes` and is only set on success.
SnapshotStatus UnwrapSnapshot(std::string_view bytes, uint16_t kind,
                              std::string_view* payload);

/// Reads a whole file into `out`. Missing files report kNotFound.
SnapshotStatus ReadFileBytes(const std::string& path, std::string* out);

/// Writes `bytes` to `path` crash-safely: the data goes to a temporary
/// file in the same directory, is flushed to disk (fsync), is atomically
/// renamed over `path`, and the containing directory is then fsynced so
/// the rename itself survives power loss (file fsync alone only covers
/// process death — the new directory entry lives in the directory inode).
/// A reader never observes a partially written file — a crash leaves
/// either the old snapshot or the new one.
SnapshotStatus WriteFileAtomic(const std::string& path,
                               std::string_view bytes);

/// fsyncs the directory containing `path` (or `path` itself when it is a
/// directory), making previously renamed/created entries durable.
SnapshotStatus FsyncParentDir(const std::string& path);

/// Test-only write fault injection for WriteFileAtomic: after
/// `fail_after_bytes` have been written the next write fails with `error`
/// (e.g. ENOSPC), optionally after a short write of the remaining room.
/// Pass nullptr to clear. The injector pointer must outlive its
/// installation; not thread-safe (tests only).
struct WriteFaultInjectorForTest {
  size_t fail_after_bytes = 0;
  int error = 0;  // errno to report, e.g. ENOSPC
  size_t written = 0;  // bytes the faulty "device" accepted so far
};
void SetWriteFaultInjectorForTest(WriteFaultInjectorForTest* injector);

/// Serializes the global interner (constant / variable / predicate pools,
/// predicate arities, fresh-name counter). A snapshot embeds this so its
/// 32-bit term and predicate ids stay meaningful across processes.
void EncodeInterner(BinaryWriter* writer);

/// Replays an interner section against the global interner: every stored
/// name must either intern to exactly its stored id (fresh process or
/// identical parse history) or already hold it. Any conflict — including
/// a predicate re-registered with a different arity — is rejected with
/// kInternerConflict, never an abort.
SnapshotStatus DecodeInterner(BinaryReader* reader);

/// Serializes a ground-atom sequence in order.
void EncodeAtomVector(const std::vector<Atom>& atoms, BinaryWriter* writer);

/// Decodes a ground-atom sequence (appending to `out`). Validates
/// predicate ids, arities and term kinds against the (already decoded)
/// interner.
SnapshotStatus DecodeAtomVector(BinaryReader* reader,
                                std::vector<Atom>* out);

/// Serializes an instance as its fact sequence in insertion order, so
/// decoding rebuilds a bit-identical instance (same atoms, same order,
/// same labelled-null ids, same indexes).
void EncodeInstance(const Instance& instance, BinaryWriter* writer);

/// Decodes a fact sequence into `out` (appending). Validates predicate
/// ids, arities and term kinds against the (already decoded) interner.
/// No snapshot kind decodes through it (chase snapshots carry atom
/// vectors, storage fragments their own records): it is the reference
/// decoder that the EncodeInstance round-trip tests check the encoding
/// against.
SnapshotStatus DecodeInstance(BinaryReader* reader, Instance* out);

}  // namespace gqe

#endif  // GQE_BASE_SERIALIZE_H_
