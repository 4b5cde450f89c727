// Partitioned fact storage with self-healing shards (shard/storage_shard):
// the instance is hash-partitioned into per-shard fragments owned by
// long-lived worker processes, derived facts are shipped to their owners
// through sequence-numbered CRC-checked frames, and the coordinator
// survives kill -9 / OOM / stall / corrupt of any shard by respawning it
// and reseeding the fragment from its own instance; no shard state is
// written to disk. The invariant under test everywhere:
// bit-identical results to the in-process chase — facts in insertion
// order, levels, null ids, witness certificates, durable checkpoint
// bytes — at every shard count, under every fault, across mid-run
// resharding and coordinator restart.

#include <gtest/gtest.h>

#include <errno.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "base/serialize.h"
#include "chase/chase.h"
#include "chase/checkpoint.h"
#include "parser/parser.h"
#include "shard/storage_shard.h"
#include "shard/storage_wire.h"
#include "verify/verifier.h"
#include "verify/witness.h"

namespace gqe {
namespace {

/// Existential rules (labelled nulls, levels) plus transitive closure
/// (several rounds of joins over a growing delta frontier), so any
/// ownership, exchange or replay mistake surfaces as a different instance.
TgdSet StSigma() {
  return ParseTgds(R"(
    stgrad(X) -> ststud(X).
    ststud(X) -> stenr(X, U), stuni(U).
    stenr(X, U) -> stactive(X).
    ste(X, Y), ste(Y, Z) -> ste(X, Z).
  )");
}

Instance StDb() {
  Instance db;
  for (int i = 0; i < 4; ++i) {
    db.Insert(
        Atom::Make("stgrad", {Term::Constant("sts" + std::to_string(i))}));
  }
  for (int i = 0; i < 12; ++i) {
    db.Insert(Atom::Make("ste",
                         {Term::Constant("sta" + std::to_string(i)),
                          Term::Constant("sta" + std::to_string(i + 1))}));
  }
  return db;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gqe_storage_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectBitIdentical(const ChaseResult& got, const ChaseResult& want,
                        const std::string& label) {
  ASSERT_EQ(got.instance.size(), want.instance.size()) << label;
  for (size_t i = 0; i < want.instance.size(); ++i) {
    ASSERT_EQ(got.instance.atom(i), want.instance.atom(i))
        << label << " fact " << i;
  }
  EXPECT_EQ(got.levels.size(), got.instance.size()) << label;
  EXPECT_EQ(got.levels, want.levels) << label;
  EXPECT_EQ(got.complete, want.complete) << label;
  EXPECT_EQ(got.max_level_built, want.max_level_built) << label;
  EXPECT_EQ(got.rounds_completed, want.rounds_completed) << label;
  EXPECT_EQ(InstanceTextCrc(got.instance), InstanceTextCrc(want.instance))
      << label;
}

void ExpectWitnessIdentical(const Instance& db, const TgdSet& sigma,
                            const ChaseResult& got, const ChaseResult& want,
                            const std::string& label) {
  ASSERT_TRUE(got.derivation.collected) << label;
  ASSERT_TRUE(want.derivation.collected) << label;
  EXPECT_TRUE(got.derivation == want.derivation) << label;
  const VerifyResult verdict = VerifyDerivation(db, sigma, got.derivation);
  EXPECT_TRUE(verdict.ok()) << label << ": " << verdict.reason;
}

/// Fast-failure options for tests: tight heartbeat + backoff so injected
/// stalls resolve in ~100ms instead of seconds.
StorageShardOptions FastStorageOptions(int shards) {
  StorageShardOptions options;
  options.shards = shards;
  options.heartbeat_interval_ms = 3.0;
  options.heartbeat_timeout_ms = 400.0;
  options.backoff_base_ms = 1.0;
  options.backoff_cap_ms = 8.0;
  return options;
}

ChaseOptions WitnessChaseOptions() {
  ChaseOptions options;
  options.collect_witness = true;
  return options;
}

void ExpectNoZombies(const std::string& label) {
  errno = 0;
  const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(r == 0 || (r == -1 && errno == ECHILD))
      << label << ": leaked a child (waitpid returned " << r << ")";
}

/// The private temp directories a storage coordinator could make.
std::vector<std::string> StorageTempDirs() {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/tmp", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("gqe-storage-", 0) == 0) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A checkpoint sink that looks for shard state on disk at every
/// committed round boundary, while the coordinator and its workers are
/// alive: any entry under `state_dir`, or a /tmp/gqe-storage-* directory
/// that was not there when the probe was made.
class DiskStateProbe : public ChaseCheckpointSink {
 public:
  explicit DiskStateProbe(std::string state_dir)
      : state_dir_(std::move(state_dir)), tmp_before_(StorageTempDirs()) {}

  void Write(const ChaseCheckpointState&) override {
    ++boundaries_;
    std::error_code ec;
    if (!std::filesystem::is_empty(state_dir_, ec)) ++dirty_;
    if (StorageTempDirs() != tmp_before_) ++dirty_;
  }

  int boundaries() const { return boundaries_; }
  int dirty() const { return dirty_; }

 private:
  std::string state_dir_;
  std::vector<std::string> tmp_before_;
  int boundaries_ = 0;
  int dirty_ = 0;
};

TEST(StorageShardTest, FaultNamesAreStable) {
  EXPECT_STREQ(StorageFaultKindName(StorageFault::Kind::kKill), "kill");
  EXPECT_STREQ(StorageFaultKindName(StorageFault::Kind::kOom), "oom");
  EXPECT_STREQ(StorageFaultKindName(StorageFault::Kind::kStall), "stall");
  EXPECT_STREQ(StorageFaultKindName(StorageFault::Kind::kCorrupt), "corrupt");
}

/// Retired message types (commands 3 and 4, reply 1) are format errors,
/// never messages.
TEST(StorageShardTest, RetiredCommandTypeIsRejected) {
  StorageCommand command;
  command.type = StorageCommand::Type::kDelta;
  std::string payload = EncodeStorageCommand(command);
  StorageCommand decoded;
  ASSERT_TRUE(DecodeStorageCommand(payload, &decoded).ok());
  for (char retired : {3, 4}) {
    payload[0] = retired;  // the little-endian u32 type field leads
    EXPECT_EQ(DecodeStorageCommand(payload, &decoded).error,
              SnapshotError::kFormatError)
        << "command type " << static_cast<int>(retired);
  }

  StorageReply reply;
  std::string reply_payload = EncodeStorageReply(reply);
  StorageReply decoded_reply;
  ASSERT_TRUE(DecodeStorageReply(reply_payload, &decoded_reply).ok());
  reply_payload[0] = 1;
  EXPECT_EQ(DecodeStorageReply(reply_payload, &decoded_reply).error,
            SnapshotError::kFormatError);
}

TEST(StorageShardTest, OwnershipIsContentHashPartition) {
  Instance db = StDb();
  for (uint32_t n : {1u, 2u, 8u}) {
    for (size_t f = 0; f < db.size(); ++f) {
      const uint32_t owner = ShardOfFact(db, f, n);
      EXPECT_LT(owner, n);
      // ShardOfFact is ownership by content hash alone — a worker
      // holding only the decoded atom computes the same owner.
      EXPECT_EQ(owner,
                ShardOfContentHash(db.store().hash(static_cast<uint32_t>(f)),
                                   n));
    }
  }
}

TEST(StorageShardTest, AnyShardCountIsBitIdenticalToInProcessChase) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseResult reference = Chase(db, sigma, WitnessChaseOptions());
  ASSERT_TRUE(reference.complete);
  ASSERT_GE(reference.rounds_completed, 4u);

  for (int shards : {1, 2, 3, 8}) {
    const std::string label = "shards=" + std::to_string(shards);
    Term::SetNextNullId(null_base);
    StorageShardStats stats;
    ChaseResult sharded = StorageShardChase(
        db, sigma, WitnessChaseOptions(), FastStorageOptions(shards), &stats);
    ASSERT_TRUE(sharded.complete) << label;
    ExpectBitIdentical(sharded, reference, label);
    ExpectWitnessIdentical(db, sigma, sharded, reference, label);
    EXPECT_EQ(stats.max_shards_used, shards) << label;
    EXPECT_GE(stats.workers_spawned, static_cast<size_t>(shards)) << label;
    EXPECT_GE(stats.rounds, reference.rounds_completed) << label;
    EXPECT_EQ(stats.corrupt_replies, 0u) << label;
    EXPECT_EQ(stats.bad_acks, 0u) << label;
    EXPECT_GT(stats.max_fragment_facts, 0u) << label;
    EXPECT_LE(stats.max_fragment_facts, reference.instance.size()) << label;
    EXPECT_EQ(stats.respawns, 0u) << label;
  }
  ExpectNoZombies("storage shard-count sweep");
  Term::SetNextNullId(null_base);
}

/// Storage shards keep no state on disk. `state_dir` is read nowhere: a
/// run with it set leaves the directory empty, and no run makes a
/// private temp directory, fault-free or while reseeding a killed worker.
TEST(StorageShardTest, RunWritesNoShardStateToDisk) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseResult reference = Chase(db, sigma, WitnessChaseOptions());
  ASSERT_TRUE(reference.complete);

  const std::string state_dir = FreshDir("no_state");
  ASSERT_TRUE(std::filesystem::create_directories(state_dir));
  struct Run {
    const char* label;
    bool with_state_dir;
    bool faulted;
  };
  for (const Run& run : {Run{"state_dir, fault-free", true, false},
                         Run{"state_dir, faulted", true, true},
                         Run{"no state_dir, faulted", false, true}}) {
    const std::string label = run.label;
    const bool faulted = run.faulted;
    StorageShardOptions options = FastStorageOptions(2);
    if (run.with_state_dir) options.state_dir = state_dir;
    if (faulted) {
      options.faults.push_back(
          {2, 1, 1, StorageFault::Kind::kKill});
    }
    DiskStateProbe probe(state_dir);
    ChaseOptions chase_options = WitnessChaseOptions();
    chase_options.checkpoint_sink = &probe;
    Term::SetNextNullId(null_base);
    StorageShardStats stats;
    ChaseResult sharded =
        StorageShardChase(db, sigma, chase_options, options, &stats);
    ASSERT_TRUE(sharded.complete) << label;
    ExpectBitIdentical(sharded, reference, label);
    EXPECT_EQ(stats.reseeds, faulted ? 1u : 0u) << label;
    EXPECT_GE(probe.boundaries(), 4) << label;
    EXPECT_EQ(probe.dirty(), 0) << label;
    EXPECT_TRUE(std::filesystem::is_empty(state_dir)) << label;
  }
  std::filesystem::remove_all(state_dir);
  ExpectNoZombies("no shard state on disk");
  Term::SetNextNullId(null_base);
}

TEST(StorageShardTest, MidRunReshardIsBitIdentical) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseResult reference = Chase(db, sigma, WitnessChaseOptions());
  ASSERT_TRUE(reference.complete);

  struct Reshard {
    int from;
    int to;
    int64_t at;
  };
  for (const Reshard& plan : {Reshard{2, 8, 2}, Reshard{8, 3, 1},
                              Reshard{1, 4, 3}}) {
    const std::string label = "reshard " + std::to_string(plan.from) + "->" +
                              std::to_string(plan.to) + "@" +
                              std::to_string(plan.at);
    Term::SetNextNullId(null_base);
    StorageShardOptions options = FastStorageOptions(plan.from);
    options.reshard_at_round = plan.at;
    options.reshard_to = plan.to;
    StorageShardStats stats;
    ChaseResult sharded =
        StorageShardChase(db, sigma, WitnessChaseOptions(), options, &stats);
    ASSERT_TRUE(sharded.complete) << label;
    ExpectBitIdentical(sharded, reference, label);
    ExpectWitnessIdentical(db, sigma, sharded, reference, label);
    EXPECT_EQ(stats.max_shards_used, std::max(plan.from, plan.to)) << label;
    // Resharding retires the fleet and reseeds the new layout's
    // fragments from scratch.
    bool resharded = false;
    for (const StorageShardEvent& event : stats.events) {
      resharded |= event.cause == "reshard";
    }
    EXPECT_TRUE(resharded) << label;
  }
  ExpectNoZombies("storage reshard");
  Term::SetNextNullId(null_base);
}

/// The acceptance-criteria chaos matrix: every fault kind on the round's
/// one command, at every round boundary — each run diffed against the
/// fault-free single-process reference, including the durable
/// engine-checkpoint bytes.
TEST(StorageShardTest, ChaosMatrixEveryBoundaryIsBitIdentical) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  const std::string ref_dir = FreshDir("chaos_ref");
  Term::SetNextNullId(null_base);
  ChaseResult reference =
      ResumeChase(ref_dir, db, sigma, WitnessChaseOptions());
  ASSERT_TRUE(reference.complete);
  const uint64_t rounds = reference.rounds_completed;
  ASSERT_GE(rounds, 4u);
  CheckpointDir ref_checkpoints(ref_dir);
  ASSERT_FALSE(ref_checkpoints.Generations().empty());
  std::string ref_bytes;
  ASSERT_TRUE(ReadFileBytes(ref_checkpoints.GenerationPath(
                                ref_checkpoints.Generations().back()),
                            &ref_bytes)
                  .ok());

  const StorageFault::Kind kinds[] = {
      StorageFault::Kind::kKill, StorageFault::Kind::kOom,
      StorageFault::Kind::kStall, StorageFault::Kind::kCorrupt};
  size_t runs = 0;
  auto run_case = [&](int shards, StorageFault::Kind kind, uint64_t boundary) {
    const std::string label =
        std::string("kind=") + StorageFaultKindName(kind) +
        " shards=" + std::to_string(shards) +
        " boundary=" + std::to_string(boundary);
    const std::string dir = FreshDir("chaos_run");
    StorageShardOptions options = FastStorageOptions(shards);
    StorageFault fault;
    fault.boundary = boundary;
    fault.shard = static_cast<uint32_t>(boundary % shards);
    fault.attempt = 1;
    fault.kind = kind;
    options.faults.push_back(fault);

    Term::SetNextNullId(null_base);
    StorageShardStats stats;
    ChaseResult chaotic = ResumeStorageShardChase(
        dir, db, sigma, WitnessChaseOptions(), options, nullptr, &stats);
    ASSERT_TRUE(chaotic.complete) << label;
    ExpectBitIdentical(chaotic, reference, label);
    ExpectWitnessIdentical(db, sigma, chaotic, reference, label);
    EXPECT_GE(stats.events.size(), 1u) << label;
    EXPECT_GE(stats.respawns + stats.inline_fallbacks + stats.reseeds, 1u)
        << label;
    if (kind == StorageFault::Kind::kCorrupt) {
      EXPECT_GE(stats.corrupt_replies, 1u) << label;
    }
    if (kind == StorageFault::Kind::kStall) {
      EXPECT_GE(stats.heartbeat_timeouts, 1u) << label;
    }

    CheckpointDir checkpoints(dir);
    ASSERT_FALSE(checkpoints.Generations().empty()) << label;
    std::string chaos_bytes;
    ASSERT_TRUE(ReadFileBytes(checkpoints.GenerationPath(
                                  checkpoints.Generations().back()),
                              &chaos_bytes)
                    .ok())
        << label;
    EXPECT_EQ(chaos_bytes, ref_bytes) << label;

    std::filesystem::remove_all(dir);
    ++runs;
  };

  for (StorageFault::Kind kind : kinds) {
    for (uint64_t boundary = 0; boundary <= rounds; ++boundary) {
      run_case(2, kind, boundary);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // A wider fleet: the cheap fault kinds across every boundary.
  for (StorageFault::Kind kind :
       {StorageFault::Kind::kKill, StorageFault::Kind::kCorrupt}) {
    for (uint64_t boundary = 0; boundary <= rounds; ++boundary) {
      run_case(8, kind, boundary);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(runs, 6 * (rounds + 1));
  ExpectNoZombies("storage chaos matrix");
  std::filesystem::remove_all(ref_dir);
  Term::SetNextNullId(null_base);
}

/// A shard killed BETWEEN its last manifest check and the round commit:
/// its fragment was checked at boundary 1, the worker dies on receipt of
/// boundary 2's command (the round has not committed), and the respawned
/// worker is reseeded from the coordinator's instance at boundary 2.
TEST(StorageShardTest, KillBetweenAckAndCommitReseeds) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseResult reference = Chase(db, sigma, WitnessChaseOptions());
  ASSERT_TRUE(reference.complete);

  StorageShardOptions options = FastStorageOptions(2);
  options.faults.push_back(
      {2, 1, 1, StorageFault::Kind::kKill});
  Term::SetNextNullId(null_base);
  StorageShardStats stats;
  ChaseResult sharded =
      StorageShardChase(db, sigma, WitnessChaseOptions(), options, &stats);
  ASSERT_TRUE(sharded.complete);
  ExpectBitIdentical(sharded, reference, "ack-commit kill");
  ExpectWitnessIdentical(db, sigma, sharded, reference, "ack-commit kill");
  EXPECT_GE(stats.respawns, 1u);
  EXPECT_GE(stats.reseeds, 1u);
  EXPECT_EQ(stats.bad_acks, 0u);
  ExpectNoZombies("ack-commit kill");
  Term::SetNextNullId(null_base);
}

/// An irrecoverable shard with no inline fallback stops the run with
/// Status::kShardLost at the last committed boundary. That boundary is on
/// disk, and a resume under a different shard count lands bit-identical
/// to the uninterrupted run.
TEST(StorageShardTest, ShardLostRunResumesUnderDifferentShardCount) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseResult reference = Chase(db, sigma, WitnessChaseOptions());
  ASSERT_TRUE(reference.complete);
  ASSERT_GE(reference.rounds_completed, 4u);

  // Shard 1 dies on both attempts of its boundary-2 command.
  const std::string dir = FreshDir("lost_ckpt");
  StorageShardOptions doomed = FastStorageOptions(4);
  doomed.inline_fallback = false;
  doomed.max_attempts = 2;
  doomed.faults.push_back(
      {2, 1, 1, StorageFault::Kind::kKill});
  doomed.faults.push_back(
      {2, 1, 2, StorageFault::Kind::kOom});
  Term::SetNextNullId(null_base);
  StorageShardStats stats;
  ChaseResult lost = ResumeStorageShardChase(
      dir, db, sigma, WitnessChaseOptions(), doomed, nullptr, &stats);
  EXPECT_EQ(lost.outcome.status, Status::kShardLost);
  EXPECT_FALSE(lost.complete);
  EXPECT_EQ(lost.rounds_completed, 2u);
  EXPECT_EQ(stats.inline_fallbacks, 0u);
  ExpectNoZombies("storage shard lost");

  Term::SetNextNullId(null_base + 4321);
  StorageShardOptions after = FastStorageOptions(3);
  ResumeInfo info;
  ChaseResult resumed = ResumeStorageShardChase(
      dir, db, sigma, WitnessChaseOptions(), after, &info);
  EXPECT_TRUE(info.resumed);
  ASSERT_TRUE(resumed.complete);
  ExpectBitIdentical(resumed, reference, "resume after shard loss");
  ExpectWitnessIdentical(db, sigma, resumed, reference,
                         "resume after shard loss");

  std::filesystem::remove_all(dir);
  ExpectNoZombies("resume after shard loss");
  Term::SetNextNullId(null_base);
}

/// Whole-coordinator crash: kill the run mid-flight (governor fault
/// injector), then restart from the engine checkpoints under the same
/// layout. The restarted coordinator seeds its fresh fleet from the
/// resumed instance and the run lands bit-identical — including the
/// durable checkpoint bytes.
TEST(StorageShardTest, CoordinatorKillAndRestartSeedsFromResumedInstance) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  const std::string ref_dir = FreshDir("restart_ref");
  Term::SetNextNullId(null_base);
  ChaseResult reference =
      ResumeChase(ref_dir, db, sigma, WitnessChaseOptions());
  ASSERT_TRUE(reference.complete);
  CheckpointDir ref_checkpoints(ref_dir);
  std::string ref_bytes;
  ASSERT_TRUE(ReadFileBytes(ref_checkpoints.GenerationPath(
                                ref_checkpoints.Generations().back()),
                            &ref_bytes)
                  .ok());

  const std::string dir = FreshDir("restart_ckpt");

  // Phase 1: killed mid-run; the engine checkpoints survive on disk.
  Term::SetNextNullId(null_base);
  TestFaultInjector injector(Status::kCancelled, 60);
  ExecutionBudget budget;
  budget.max_facts = 0;
  Governor governor(budget, &injector);
  ChaseOptions killed_options = WitnessChaseOptions();
  killed_options.governor = &governor;
  StorageShardOptions options = FastStorageOptions(2);
  ChaseResult killed = ResumeStorageShardChase(dir, db, sigma, killed_options,
                                               options);
  ASSERT_EQ(killed.outcome.status, Status::kCancelled);
  ASSERT_FALSE(killed.complete);
  ExpectNoZombies("killed coordinator");

  // Phase 2: same layout — the fresh fleet is seeded at first contact,
  // which is not a recovery: no respawn, no reseed.
  Term::SetNextNullId(null_base + 7777);
  ResumeInfo info;
  StorageShardStats stats;
  ChaseResult resumed = ResumeStorageShardChase(
      dir, db, sigma, WitnessChaseOptions(), options, &info, &stats);
  EXPECT_TRUE(info.resumed);
  ASSERT_TRUE(resumed.complete);
  ExpectBitIdentical(resumed, reference, "coordinator restart");
  ExpectWitnessIdentical(db, sigma, resumed, reference,
                         "coordinator restart");
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_EQ(stats.reseeds, 0u);

  CheckpointDir checkpoints(dir);
  ASSERT_FALSE(checkpoints.Generations().empty());
  std::string resumed_bytes;
  ASSERT_TRUE(ReadFileBytes(checkpoints.GenerationPath(
                                checkpoints.Generations().back()),
                            &resumed_bytes)
                  .ok());
  EXPECT_EQ(resumed_bytes, ref_bytes);

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(ref_dir);
  ExpectNoZombies("coordinator restart");
  Term::SetNextNullId(null_base);
}

/// Restart under a different layout: the fresh fleet is seeded from the
/// resumed instance under the new shard count — still bit-identical,
/// down to the newest engine checkpoint's bytes.
TEST(StorageShardTest, RestartUnderDifferentLayoutReseeds) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  // Uninterrupted single-process durable reference.
  const std::string ref_dir = FreshDir("relayout_ref");
  Term::SetNextNullId(null_base);
  ChaseResult reference =
      ResumeChase(ref_dir, db, sigma, WitnessChaseOptions());
  ASSERT_TRUE(reference.complete);
  CheckpointDir ref_checkpoints(ref_dir);
  std::string ref_bytes;
  ASSERT_TRUE(ReadFileBytes(ref_checkpoints.GenerationPath(
                                ref_checkpoints.Generations().back()),
                            &ref_bytes)
                  .ok());

  for (const auto& [n, m] : {std::pair<int, int>{2, 3},
                             std::pair<int, int>{8, 2},
                             std::pair<int, int>{1, 8}}) {
    const std::string label =
        "relayout " + std::to_string(n) + "->" + std::to_string(m);
    const std::string dir = FreshDir("relayout_ckpt");

    // Phase 1: N shards, killed partway through; the engine checkpoints
    // survive on disk.
    Term::SetNextNullId(null_base);
    TestFaultInjector injector(Status::kCancelled, 60);
    ExecutionBudget budget;
    budget.max_facts = 0;
    Governor governor(budget, &injector);
    ChaseOptions killed_options = WitnessChaseOptions();
    killed_options.governor = &governor;
    StorageShardOptions before = FastStorageOptions(n);
    ChaseResult killed =
        ResumeStorageShardChase(dir, db, sigma, killed_options, before);
    ASSERT_EQ(killed.outcome.status, Status::kCancelled) << label;
    ASSERT_FALSE(killed.complete) << label;

    // Phase 2: restart under M shards from the same engine checkpoints.
    Term::SetNextNullId(null_base + 31);
    StorageShardOptions after = FastStorageOptions(m);
    ResumeInfo info;
    ChaseResult resumed = ResumeStorageShardChase(
        dir, db, sigma, WitnessChaseOptions(), after, &info);
    EXPECT_TRUE(info.resumed) << label;
    ASSERT_TRUE(resumed.complete) << label;
    ExpectBitIdentical(resumed, reference, label);
    ExpectWitnessIdentical(db, sigma, resumed, reference, label);

    CheckpointDir checkpoints(dir);
    ASSERT_FALSE(checkpoints.Generations().empty()) << label;
    std::string resumed_bytes;
    ASSERT_TRUE(ReadFileBytes(checkpoints.GenerationPath(
                                  checkpoints.Generations().back()),
                              &resumed_bytes)
                    .ok())
        << label;
    EXPECT_EQ(resumed_bytes, ref_bytes) << label;

    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(ref_dir);
  ExpectNoZombies("relayout restart");
  Term::SetNextNullId(null_base);
}

TEST(StorageShardTest, RetryStormOnOneShardStillConverges) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseResult reference = Chase(db, sigma, WitnessChaseOptions());

  StorageShardOptions options = FastStorageOptions(2);
  options.faults.push_back(
      {1, 1, 1, StorageFault::Kind::kKill});
  options.faults.push_back(
      {1, 1, 2, StorageFault::Kind::kCorrupt});
  Term::SetNextNullId(null_base);
  StorageShardStats stats;
  ChaseResult sharded =
      StorageShardChase(db, sigma, WitnessChaseOptions(), options, &stats);
  ASSERT_TRUE(sharded.complete);
  ExpectBitIdentical(sharded, reference, "retry storm");
  EXPECT_GE(stats.respawns, 2u);
  EXPECT_GE(stats.backoff_wait_ms, 0.0);
  Term::SetNextNullId(null_base);
}

TEST(StorageShardTest, ExhaustedRetriesDegradeToInlineFallback) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseResult reference = Chase(db, sigma, WitnessChaseOptions());

  StorageShardOptions options = FastStorageOptions(2);
  options.max_attempts = 2;
  options.faults.push_back(
      {1, 0, 1, StorageFault::Kind::kKill});
  options.faults.push_back(
      {1, 0, 2, StorageFault::Kind::kKill});
  Term::SetNextNullId(null_base);
  StorageShardStats stats;
  ChaseResult sharded =
      StorageShardChase(db, sigma, WitnessChaseOptions(), options, &stats);
  ASSERT_TRUE(sharded.complete);
  ExpectBitIdentical(sharded, reference, "inline fallback");
  ExpectWitnessIdentical(db, sigma, sharded, reference, "inline fallback");
  EXPECT_GE(stats.inline_fallbacks, 1u);
  Term::SetNextNullId(null_base);
}

TEST(StorageShardTest, CancelledRunPutsFleetDownCleanly) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseOptions options;
  options.budget.cancel = CancelToken::Create();
  options.budget.cancel.RequestCancel();
  StorageShardStats stats;
  ChaseResult result =
      StorageShardChase(db, sigma, options, FastStorageOptions(4), &stats);
  EXPECT_EQ(result.outcome.status, Status::kCancelled);
  EXPECT_FALSE(result.complete);
  ExpectNoZombies("cancelled storage run");
  Term::SetNextNullId(null_base);
}

/// A worker stalled mid-round does not hold the run past its deadline:
/// the coordinator's waits are capped at one heartbeat interval, so it
/// sees the deadline while the stalled worker is still within its
/// heartbeat timeout, and it puts the fleet down with SIGKILL instead of
/// waiting for workers to exit on their own.
TEST(StorageShardTest, DeadlineHoldsWhileAWorkerIsStalled) {
  TgdSet sigma = ParseTgds("ste(X, Y), ste(Y, Z) -> ste(X, Z).");
  Instance db;
  for (int i = 0; i < 40; ++i) {
    db.Insert(Atom::Make("ste",
                         {Term::Constant("stc" + std::to_string(i)),
                          Term::Constant("stc" + std::to_string(i + 1))}));
  }
  StorageShardOptions storage = FastStorageOptions(4);
  storage.faults.push_back(
      {1, 0, 1, StorageFault::Kind::kStall});
  ChaseOptions options;
  options.budget.deadline_ms = 50.0;
  const auto start = std::chrono::steady_clock::now();
  ChaseResult result = StorageShardChase(db, sigma, options, storage);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_EQ(result.outcome.status, Status::kDeadlineExceeded);
  EXPECT_FALSE(result.complete);
  EXPECT_LT(elapsed_ms, 150.0);
  ExpectNoZombies("stalled worker under a deadline");
}

}  // namespace
}  // namespace gqe
