// Partitioned fact storage with self-healing shards (shard/storage_shard):
// the instance is hash-partitioned into per-shard fragments owned by
// long-lived worker processes, derived facts are shipped to their owners
// through sequence-numbered CRC-enveloped exchanges, every shard
// checkpoints its fragment at round boundaries, and the coordinator
// survives kill -9 / OOM / stall / corrupt of any shard by respawning it
// and rebuilding the fragment from the newest good checkpoint plus the
// retained exchange log. The invariant under test everywhere:
// bit-identical results to the in-process chase — facts in insertion
// order, levels, null ids, witness certificates, durable checkpoint
// bytes — at every shard count, under every fault, across mid-run
// resharding and coordinator restart.

#include <gtest/gtest.h>

#include <errno.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "base/serialize.h"
#include "chase/chase.h"
#include "chase/checkpoint.h"
#include "parser/parser.h"
#include "shard/storage_shard.h"
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

/// Parses `<prefix><number><suffix>` file names under `dir`, ascending.
std::vector<uint64_t> NumberedFiles(const std::string& dir,
                                    const std::string& prefix,
                                    const std::string& suffix) {
  std::vector<uint64_t> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    out.push_back(std::strtoull(name.c_str() + prefix.size(), nullptr, 10));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A checkpoint sink that damages a shard's on-disk fragment files at a
/// chosen committed boundary: the newest generation only (recovery must
/// fall back to the previous good one + longer exchange-log replay) or
/// every retained generation (recovery must fail honestly).
class FragmentCorruptingSink : public ChaseCheckpointSink {
 public:
  enum class Damage { kFlipNewest, kTruncateNewest, kFlipAll };

  FragmentCorruptingSink(std::string shard_dir, uint64_t at_rounds,
                         Damage damage)
      : shard_dir_(std::move(shard_dir)),
        at_rounds_(at_rounds),
        damage_(damage) {}

  void Write(const ChaseCheckpointState& state, bool) override {
    if (fired_ || state.rounds_completed != at_rounds_) return;
    fired_ = true;
    const std::vector<uint64_t> gens =
        NumberedFiles(shard_dir_, "fragment-", ".frag");
    ASSERT_FALSE(gens.empty()) << "no fragments to corrupt in " << shard_dir_;
    for (uint64_t gen : gens) {
      if (damage_ != Damage::kFlipAll && gen != gens.back()) continue;
      const std::string path =
          shard_dir_ + "/fragment-" + std::to_string(gen) + ".frag";
      std::string bytes;
      ASSERT_TRUE(ReadFileBytes(path, &bytes).ok()) << path;
      ASSERT_FALSE(bytes.empty()) << path;
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (damage_ == Damage::kTruncateNewest) {
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
      } else {
        bytes[bytes.size() / 2] ^= 0x04;
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }
    }
    ++corrupted_;
  }

  int corrupted() const { return corrupted_; }

 private:
  std::string shard_dir_;
  uint64_t at_rounds_;
  Damage damage_;
  bool fired_ = false;
  int corrupted_ = 0;
};

TEST(StorageShardTest, FaultNamesAreStable) {
  EXPECT_STREQ(StorageFaultKindName(StorageFault::Kind::kKill), "kill");
  EXPECT_STREQ(StorageFaultKindName(StorageFault::Kind::kOom), "oom");
  EXPECT_STREQ(StorageFaultKindName(StorageFault::Kind::kStall), "stall");
  EXPECT_STREQ(StorageFaultKindName(StorageFault::Kind::kCorrupt), "corrupt");
  EXPECT_STREQ(StorageFaultPhaseName(StorageFault::Phase::kLoad), "load");
  EXPECT_STREQ(StorageFaultPhaseName(StorageFault::Phase::kDiscover),
               "discover");
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
    EXPECT_GE(stats.logs_written, stats.rounds) << label;
  }
  ExpectNoZombies("storage shard-count sweep");
  Term::SetNextNullId(null_base);
}

/// The durable layout: per-shard fragment checkpoints bounded by
/// keep_generations, and retained exchange logs pruned only once no
/// retained fragment generation could need them to replay forward.
TEST(StorageShardTest, DurableLayoutRetainsFragmentsAndPrunesLogs) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();
  const std::string state_dir = FreshDir("layout");

  Term::SetNextNullId(null_base);
  StorageShardOptions options = FastStorageOptions(2);
  options.state_dir = state_dir;
  StorageShardStats stats;
  ChaseResult result =
      StorageShardChase(db, sigma, WitnessChaseOptions(), options, &stats);
  ASSERT_TRUE(result.complete);
  ASSERT_GE(result.rounds_completed, 4u);

  uint64_t min_oldest_gen = ~0ull;
  for (int s = 0; s < 2; ++s) {
    const std::string shard_dir =
        state_dir + "/shard-" + std::to_string(s);
    const std::vector<uint64_t> gens =
        NumberedFiles(shard_dir, "fragment-", ".frag");
    ASSERT_FALSE(gens.empty()) << shard_dir;
    EXPECT_LE(gens.size(),
              static_cast<size_t>(options.keep_generations))
        << shard_dir;
    min_oldest_gen = std::min(min_oldest_gen, gens.front());
  }
  const std::vector<uint64_t> logs =
      NumberedFiles(state_dir + "/logs", "log-", ".log");
  ASSERT_FALSE(logs.empty());
  // Every surviving log is one some retained fragment generation still
  // needs for forward replay; everything older was pruned.
  EXPECT_GT(logs.front(), min_oldest_gen);
  EXPECT_GE(stats.logs_written, stats.rounds);
  EXPECT_GE(stats.logs_pruned, 1u);

  std::filesystem::remove_all(state_dir);
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

/// The acceptance-criteria chaos matrix: every fault kind, in both the
/// load and the discover phase, at every round boundary — each run
/// diffed against the fault-free single-process reference, including the
/// durable engine-checkpoint bytes.
TEST(StorageShardTest, ChaosMatrixEveryBoundaryBothPhasesIsBitIdentical) {
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
  const StorageFault::Phase phases[] = {StorageFault::Phase::kLoad,
                                        StorageFault::Phase::kDiscover};
  size_t runs = 0;
  auto run_case = [&](int shards, StorageFault::Kind kind,
                      StorageFault::Phase phase, uint64_t boundary) {
    const std::string label =
        std::string("kind=") + StorageFaultKindName(kind) +
        " phase=" + StorageFaultPhaseName(phase) +
        " shards=" + std::to_string(shards) +
        " boundary=" + std::to_string(boundary);
    const std::string dir = FreshDir("chaos_run");
    StorageShardOptions options = FastStorageOptions(shards);
    StorageFault fault;
    fault.boundary = boundary;
    fault.shard = static_cast<uint32_t>(boundary % shards);
    fault.attempt = 1;
    fault.kind = kind;
    fault.phase = phase;
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
    for (StorageFault::Phase phase : phases) {
      for (uint64_t boundary = 0; boundary <= rounds; ++boundary) {
        run_case(2, kind, phase, boundary);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // A wider fleet: the cheap fault kinds across every boundary.
  for (StorageFault::Kind kind :
       {StorageFault::Kind::kKill, StorageFault::Kind::kCorrupt}) {
    for (uint64_t boundary = 0; boundary <= rounds; ++boundary) {
      run_case(8, kind, StorageFault::Phase::kDiscover, boundary);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(runs, 8 * (rounds + 1));
  ExpectNoZombies("storage chaos matrix");
  std::filesystem::remove_all(ref_dir);
  Term::SetNextNullId(null_base);
}

/// Satellite regression: a shard killed BETWEEN its round ack and the
/// round commit. The exchange log for the boundary was fsynced before
/// the shard could ack it, so the respawned worker must rebuild from its
/// just-written fragment checkpoint + retained logs — never a reseed.
TEST(StorageShardTest, KillBetweenAckAndCommitRebuildsFromRetainedLog) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseResult reference = Chase(db, sigma, WitnessChaseOptions());
  ASSERT_TRUE(reference.complete);

  // Discover-phase kill: the load for boundary 2 has been acked (the
  // fragment checkpoint for generation 2 is durable) when the worker is
  // killed; the boundary itself has not committed.
  StorageShardOptions options = FastStorageOptions(2);
  options.faults.push_back(
      {2, 1, 1, StorageFault::Kind::kKill, StorageFault::Phase::kDiscover});
  Term::SetNextNullId(null_base);
  StorageShardStats stats;
  ChaseResult sharded =
      StorageShardChase(db, sigma, WitnessChaseOptions(), options, &stats);
  ASSERT_TRUE(sharded.complete);
  ExpectBitIdentical(sharded, reference, "ack-commit kill");
  ExpectWitnessIdentical(db, sigma, sharded, reference, "ack-commit kill");
  EXPECT_GE(stats.respawns, 1u);
  EXPECT_GE(stats.rebuilds, 1u);
  EXPECT_EQ(stats.reseeds, 0u);
  EXPECT_EQ(stats.bad_acks, 0u);
  ExpectNoZombies("ack-commit kill");
  Term::SetNextNullId(null_base);
}

/// Satellite: fragment-checkpoint corruption. Bit-flip and truncation of
/// the newest generation must push recovery to the previous good
/// generation plus a longer exchange-log replay — still bit-identical.
TEST(StorageShardTest, CorruptNewestFragmentFallsBackToOlderGeneration) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseResult reference = Chase(db, sigma, WitnessChaseOptions());
  ASSERT_TRUE(reference.complete);
  ASSERT_GE(reference.rounds_completed, 3u);

  for (FragmentCorruptingSink::Damage damage :
       {FragmentCorruptingSink::Damage::kFlipNewest,
        FragmentCorruptingSink::Damage::kTruncateNewest}) {
    const std::string label =
        damage == FragmentCorruptingSink::Damage::kFlipNewest ? "bit-flip"
                                                              : "truncate";
    const std::string state_dir = FreshDir("frag_corrupt_" + label);
    // After boundary 1 commits, damage shard 0's newest fragment
    // (generation 1); then kill shard 0's delta load at boundary 2. The
    // respawned worker must skip the damaged generation and rebuild from
    // generation 0 + logs 1..2.
    StorageShardOptions options = FastStorageOptions(2);
    options.state_dir = state_dir;
    options.faults.push_back(
        {2, 0, 1, StorageFault::Kind::kKill, StorageFault::Phase::kLoad});
    FragmentCorruptingSink sink(state_dir + "/shard-0", 2, damage);
    ChaseOptions chase_options = WitnessChaseOptions();
    chase_options.checkpoint_sink = &sink;

    Term::SetNextNullId(null_base);
    StorageShardStats stats;
    ChaseResult sharded =
        StorageShardChase(db, sigma, chase_options, options, &stats);
    ASSERT_TRUE(sharded.complete) << label;
    EXPECT_EQ(sink.corrupted(), 1) << label;
    ExpectBitIdentical(sharded, reference, label);
    ExpectWitnessIdentical(db, sigma, sharded, reference, label);
    EXPECT_GE(stats.rebuilds, 1u) << label;
    EXPECT_EQ(stats.reseeds, 0u) << label;
    EXPECT_EQ(stats.bad_acks, 0u) << label;
    std::filesystem::remove_all(state_dir);
  }
  ExpectNoZombies("fragment corruption");
  Term::SetNextNullId(null_base);
}

/// Satellite: double failure — every retained fragment generation of a
/// shard damaged, scratch replay impossible (old logs pruned), and no
/// inline fallback allowed. The run must stop honestly with
/// Status::kShardLost at the last committed boundary; a clean rerun over
/// fresh state still converges bit-identically.
TEST(StorageShardTest, DoubleFragmentCorruptionIsShardLostAtBoundary) {
  Instance db = StDb();
  TgdSet sigma = StSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseResult reference = Chase(db, sigma, WitnessChaseOptions());
  ASSERT_TRUE(reference.complete);
  ASSERT_GE(reference.rounds_completed, 4u);

  const std::string state_dir = FreshDir("frag_double");
  StorageShardOptions doomed = FastStorageOptions(2);
  doomed.state_dir = state_dir;
  doomed.inline_fallback = false;
  doomed.max_attempts = 2;
  doomed.faults.push_back(
      {3, 0, 1, StorageFault::Kind::kKill, StorageFault::Phase::kLoad});
  FragmentCorruptingSink sink(state_dir + "/shard-0", 3,
                              FragmentCorruptingSink::Damage::kFlipAll);
  ChaseOptions chase_options = WitnessChaseOptions();
  chase_options.checkpoint_sink = &sink;

  Term::SetNextNullId(null_base);
  StorageShardStats stats;
  ChaseResult lost =
      StorageShardChase(db, sigma, chase_options, doomed, &stats);
  EXPECT_EQ(lost.outcome.status, Status::kShardLost);
  EXPECT_FALSE(lost.complete);
  EXPECT_EQ(lost.rounds_completed, 3u);
  EXPECT_EQ(sink.corrupted(), 1);
  EXPECT_EQ(stats.reseeds, 0u);
  bool rebuild_failed = false;
  bool shard_lost = false;
  for (const StorageShardEvent& event : stats.events) {
    rebuild_failed |= event.cause == "rebuild-failed";
    shard_lost |= event.cause == "shard-lost";
  }
  EXPECT_TRUE(rebuild_failed);
  EXPECT_TRUE(shard_lost);
  ExpectNoZombies("double corruption");

  // The failure is clean: a rerun over fresh durable state converges.
  const std::string fresh_dir = FreshDir("frag_double_fresh");
  StorageShardOptions retry = FastStorageOptions(2);
  retry.state_dir = fresh_dir;
  Term::SetNextNullId(null_base);
  ChaseResult rerun =
      StorageShardChase(db, sigma, WitnessChaseOptions(), retry);
  ASSERT_TRUE(rerun.complete);
  ExpectBitIdentical(rerun, reference, "rerun after shard loss");

  std::filesystem::remove_all(state_dir);
  std::filesystem::remove_all(fresh_dir);
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

  // Shard 1 dies on both attempts of its boundary-2 discovery.
  const std::string dir = FreshDir("lost_ckpt");
  const std::string state_dir = FreshDir("lost_state");
  StorageShardOptions doomed = FastStorageOptions(4);
  doomed.state_dir = state_dir;
  doomed.inline_fallback = false;
  doomed.max_attempts = 2;
  doomed.faults.push_back(
      {2, 1, 1, StorageFault::Kind::kKill, StorageFault::Phase::kDiscover});
  doomed.faults.push_back(
      {2, 1, 2, StorageFault::Kind::kOom, StorageFault::Phase::kDiscover});
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
  after.state_dir = state_dir;
  ResumeInfo info;
  ChaseResult resumed = ResumeStorageShardChase(
      dir, db, sigma, WitnessChaseOptions(), after, &info);
  EXPECT_TRUE(info.resumed);
  ASSERT_TRUE(resumed.complete);
  ExpectBitIdentical(resumed, reference, "resume after shard loss");
  ExpectWitnessIdentical(db, sigma, resumed, reference,
                         "resume after shard loss");

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(state_dir);
  ExpectNoZombies("resume after shard loss");
  Term::SetNextNullId(null_base);
}

/// Whole-coordinator crash: kill the run mid-flight (governor fault
/// injector), then restart from the engine checkpoints with the same
/// durable state_dir and layout. The restarted fleet rebuilds its
/// fragments from disk and the run lands bit-identical — including the
/// durable checkpoint bytes.
TEST(StorageShardTest, CoordinatorKillAndRestartRebuildsFromDisk) {
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
  const std::string state_dir = FreshDir("restart_state");

  // Phase 1: killed mid-run; engine checkpoints and shard fragments
  // survive on disk.
  Term::SetNextNullId(null_base);
  TestFaultInjector injector(Status::kCancelled, 60);
  ExecutionBudget budget;
  budget.max_facts = 0;
  Governor governor(budget, &injector);
  ChaseOptions killed_options = WitnessChaseOptions();
  killed_options.governor = &governor;
  StorageShardOptions options = FastStorageOptions(2);
  options.state_dir = state_dir;
  ChaseResult killed = ResumeStorageShardChase(dir, db, sigma, killed_options,
                                               options);
  ASSERT_EQ(killed.outcome.status, Status::kCancelled);
  ASSERT_FALSE(killed.complete);
  ExpectNoZombies("killed coordinator");

  // Phase 2: same layout, same durable state — the fresh fleet rebuilds
  // from fragment checkpoints + retained logs.
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
  EXPECT_GE(stats.rebuilds + stats.reseeds, 1u);

  CheckpointDir checkpoints(dir);
  ASSERT_FALSE(checkpoints.Generations().empty());
  std::string resumed_bytes;
  ASSERT_TRUE(ReadFileBytes(checkpoints.GenerationPath(
                                checkpoints.Generations().back()),
                            &resumed_bytes)
                  .ok());
  EXPECT_EQ(resumed_bytes, ref_bytes);

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(state_dir);
  std::filesystem::remove_all(ref_dir);
  ExpectNoZombies("coordinator restart");
  Term::SetNextNullId(null_base);
}

/// Restart under a different layout: the old fragments and logs are
/// unusable under the new shard count, so the fleet reseeds — still
/// bit-identical, down to the newest engine checkpoint's bytes.
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
    const std::string state_dir = FreshDir("relayout_state");

    // Phase 1: N shards, killed partway through; engine checkpoints and
    // N-shard fragments survive on disk.
    Term::SetNextNullId(null_base);
    TestFaultInjector injector(Status::kCancelled, 60);
    ExecutionBudget budget;
    budget.max_facts = 0;
    Governor governor(budget, &injector);
    ChaseOptions killed_options = WitnessChaseOptions();
    killed_options.governor = &governor;
    StorageShardOptions before = FastStorageOptions(n);
    before.state_dir = state_dir;
    ChaseResult killed =
        ResumeStorageShardChase(dir, db, sigma, killed_options, before);
    ASSERT_EQ(killed.outcome.status, Status::kCancelled) << label;
    ASSERT_FALSE(killed.complete) << label;

    // Phase 2: restart under M shards over the same durable state.
    Term::SetNextNullId(null_base + 31);
    StorageShardOptions after = FastStorageOptions(m);
    after.state_dir = state_dir;
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
    std::filesystem::remove_all(state_dir);
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
      {1, 1, 1, StorageFault::Kind::kKill, StorageFault::Phase::kLoad});
  options.faults.push_back(
      {1, 1, 2, StorageFault::Kind::kCorrupt, StorageFault::Phase::kDiscover});
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
      {1, 0, 1, StorageFault::Kind::kKill, StorageFault::Phase::kLoad});
  options.faults.push_back(
      {1, 0, 2, StorageFault::Kind::kKill, StorageFault::Phase::kLoad});
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

}  // namespace
}  // namespace gqe
