#ifndef GQE_CHASE_CHECKPOINT_H_
#define GQE_CHASE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/serialize.h"
#include "chase/chase.h"

namespace gqe {

/// Encodes a round-boundary chase state (plus the interner it depends on
/// and a workload fingerprint) into a snapshot payload. Equal states
/// encode to equal bytes, so the smoke test can diff snapshots directly.
std::string EncodeChaseSnapshot(const ChaseCheckpointState& state,
                                uint32_t fingerprint);

/// Decodes a payload produced by EncodeChaseSnapshot. Replays the
/// embedded interner section first (kInternerConflict when this process
/// already interned conflicting names), then validates every stored atom
/// and trigger against it. `fingerprint` receives the stored workload
/// fingerprint.
SnapshotStatus DecodeChaseSnapshot(std::string_view payload,
                                   ChaseCheckpointState* state,
                                   uint32_t* fingerprint);

/// Deterministic fingerprint of a chase workload: the database facts,
/// the TGD set and the options that change chase semantics (restricted
/// mode, max_level). A checkpoint directory is only resumable for the
/// workload it was written by; the fingerprint is how ResumeChase tells,
/// instead of silently continuing a different run's snapshot.
uint32_t ChaseWorkloadFingerprint(const Instance& db, const TgdSet& tgds,
                                  const ChaseOptions& options);

/// A directory of chase snapshot generations, one file per generation:
///
///   <dir>/chase-<rounds_completed>.snap
///
/// The directory listing is the only index. Every file is written via
/// tmp-file + fsync + rename + directory fsync (WriteFileAtomic), so
/// readers never observe a torn snapshot and a renamed generation
/// survives power loss, not just process death: a crash at any point
/// leaves the directory with the previous consistent contents.
/// LoadLatest walks generations newest-first and falls back past files
/// that fail the envelope checksum or decode, so one corrupted snapshot
/// costs one generation of progress, not the run.
class CheckpointDir {
 public:
  /// Generations kept on disk after each save. At least 2, so a crash
  /// during a save (or a corrupted latest file) always leaves a previous
  /// good generation to fall back to.
  static constexpr size_t kKeepGenerations = 3;

  explicit CheckpointDir(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Persists `state` as generation g = `state.rounds_completed`. Every
  /// generation newer than g is deleted first: rounds only grow within
  /// a run, so such a file was left by another run (or is a corrupt one
  /// this run resumed past) and would otherwise shadow g. After the
  /// write only the newest kKeepGenerations up to g stay.
  SnapshotStatus Save(const ChaseCheckpointState& state,
                      uint32_t fingerprint);

  /// Loads the newest generation of the workload `fingerprint` that
  /// unwraps and decodes cleanly. `generation` receives its number and
  /// `skipped` how many newer generations were rejected as corrupt on
  /// the way (0 = the latest was good). kNotFound when the directory
  /// holds no usable snapshot; the last rejection reason is reported
  /// when all candidates fail. A generation of another workload ends the
  /// walk with kFormatError before its interner section is replayed, so
  /// a foreign snapshot never interns names into this process.
  SnapshotStatus LoadLatest(ChaseCheckpointState* state, uint32_t fingerprint,
                            uint64_t* generation = nullptr,
                            int* skipped = nullptr);

  /// Generations with a snapshot file present, ascending.
  std::vector<uint64_t> Generations() const;

  /// Path of a generation's snapshot file.
  std::string GenerationPath(uint64_t generation) const;

 private:
  std::string dir_;
};

/// ChaseCheckpointSink that persists every delivered boundary to a
/// CheckpointDir. Persistence failures are remembered (last_status) but
/// do not stop the chase: losing a snapshot degrades crash recovery, not
/// the computation.
class DirectoryCheckpointSink : public ChaseCheckpointSink {
 public:
  DirectoryCheckpointSink(std::string dir, uint32_t fingerprint);

  void Write(const ChaseCheckpointState& state) override;

  const SnapshotStatus& last_status() const { return last_status_; }
  size_t writes() const { return writes_; }
  size_t failed_writes() const { return failed_writes_; }

 private:
  CheckpointDir dir_;
  uint32_t fingerprint_;
  SnapshotStatus last_status_;
  size_t writes_ = 0;
  size_t failed_writes_ = 0;
};

/// What ResumeChase found on disk and what it did about it.
struct ResumeInfo {
  /// True iff the run continued from a snapshot (false: started fresh).
  bool resumed = false;
  /// Generation (rounds_completed) resumed from, when resumed.
  uint64_t generation = 0;
  /// Corrupt newer generations skipped before a good one was found.
  int skipped_generations = 0;
  /// The snapshot resumed from was already a fixpoint — no chase work ran.
  bool resumed_complete = false;
  /// Status of the load attempt (kNotFound for an empty/new directory;
  /// a corruption status when every generation was rejected; kFormatError
  /// with a fingerprint message when the directory belongs to a different
  /// workload — all of which fall back to a fresh run).
  SnapshotStatus load_status;
};

/// Crash-safe chase entry point. Looks for a usable snapshot of this
/// exact workload (db + tgds + semantics-relevant options) in
/// `checkpoint_dir`; resumes from the newest good generation, or starts
/// fresh when none is usable. Either way every new round boundary is
/// written to the directory, so the run can itself be killed and
/// resumed. The final instance is bit-identical to an uninterrupted
/// Chase(db, tgds, options), wherever the previous run was killed.
ChaseResult ResumeChase(const std::string& checkpoint_dir, const Instance& db,
                        const TgdSet& tgds, const ChaseOptions& options = {},
                        ResumeInfo* info = nullptr);

}  // namespace gqe

#endif  // GQE_CHASE_CHECKPOINT_H_
