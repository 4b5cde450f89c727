// Crash-safe checkpoint/resume tests (chase/checkpoint + the engine's
// round-boundary snapshots): kill-and-resume determinism — a chase
// tripped by the governor fault injector at checkpoints 1, 3, 7 (and
// deeper), resumed from disk, produces the bit-identical final instance
// an uninterrupted run produces — plus corruption handling: flipped
// bytes and truncations are rejected by checksum with a distinct status
// and recovery falls back to the previous good generation (or a fresh
// run), never a crash or a silently wrong instance.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "base/interner.h"
#include "base/serialize.h"
#include "chase/chase.h"
#include "chase/checkpoint.h"
#include "parser/parser.h"
#include "verify/verifier.h"
#include "verify/witness.h"

namespace gqe {
namespace {

/// University-style existential rules (labelled nulls) plus transitive
/// closure (several rounds of joins): nulls, levels and multi-round
/// delta frontiers are all in play.
TgdSet CkSigma() {
  return ParseTgds(R"(
    ckgrad(X) -> ckstud(X).
    ckstud(X) -> ckenr(X, U), ckuni(U).
    ckenr(X, U) -> ckactive(X).
    cke(X, Y), cke(Y, Z) -> cke(X, Z).
  )");
}

Instance CkDb() {
  Instance db;
  for (int i = 0; i < 6; ++i) {
    db.Insert(
        Atom::Make("ckgrad", {Term::Constant("cks" + std::to_string(i))}));
  }
  for (int i = 0; i < 24; ++i) {
    db.Insert(Atom::Make("cke",
                         {Term::Constant("cka" + std::to_string(i)),
                          Term::Constant("cka" + std::to_string(i + 1))}));
  }
  return db;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gqe_ckpt_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Bit-identical: same facts in the same insertion order (terms compared
/// by their 32-bit representation, so labelled-null ids count), same
/// levels, same completion.
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
}

/// In-memory sink recording every delivered boundary.
struct CollectingSink : ChaseCheckpointSink {
  std::vector<ChaseCheckpointState> states;
  void Write(const ChaseCheckpointState& state) override {
    states.push_back(state);
  }
};

TEST(CheckpointTest, ResumeFromEveryBoundaryIsBitIdentical) {
  Instance db = CkDb();
  TgdSet sigma = CkSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  CollectingSink sink;
  ChaseOptions options;
  options.checkpoint_sink = &sink;
  ChaseResult reference = Chase(db, sigma, options);
  ASSERT_TRUE(reference.complete);
  ASSERT_GE(sink.states.size(), 3u);
  EXPECT_TRUE(sink.states.back().complete);

  for (size_t i = 0; i < sink.states.size(); ++i) {
    // Clobber the null counter: resume must restore it from the state.
    Term::SetNextNullId(null_base + 1000);
    ChaseResult resumed = ResumeChaseFromState(sink.states[i], sigma);
    ExpectBitIdentical(resumed, reference,
                       "boundary " + std::to_string(i));
    EXPECT_EQ(resumed.rounds_completed, reference.rounds_completed);
  }
  Term::SetNextNullId(null_base);
}

TEST(CheckpointTest, KillAtInjectedCheckpointResumeFromDisk) {
  Instance db = CkDb();
  TgdSet sigma = CkSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseResult reference = Chase(db, sigma);
  ASSERT_TRUE(reference.complete);

  for (uint64_t at : {1u, 3u, 7u, 40u, 400u}) {
    const std::string label = "at=" + std::to_string(at);
    const std::string dir = FreshDir("kill_" + std::to_string(at));

    // The "crash": a run whose governor trips kCancelled at a fixed
    // logical checkpoint. Only the snapshots it wrote survive.
    Term::SetNextNullId(null_base);
    TestFaultInjector injector(Status::kCancelled, at);
    ExecutionBudget budget;
    budget.max_facts = 0;
    Governor governor(budget, &injector);
    ChaseOptions killed_options;
    killed_options.governor = &governor;
    ResumeInfo killed_info;
    ChaseResult killed =
        ResumeChase(dir, db, sigma, killed_options, &killed_info);
    ASSERT_EQ(killed.outcome.status, Status::kCancelled) << label;
    ASSERT_FALSE(killed.complete) << label;

    // The recovery: a fresh entry through ResumeChase, null counter
    // deliberately clobbered — the snapshot must restore it.
    Term::SetNextNullId(null_base + 5000);
    ChaseOptions resume_options;
    ResumeInfo info;
    ChaseResult resumed = ResumeChase(dir, db, sigma, resume_options, &info);
    EXPECT_TRUE(info.resumed) << label;
    ASSERT_TRUE(resumed.complete) << label;
    ExpectBitIdentical(resumed, reference, label);

    std::filesystem::remove_all(dir);
  }
  Term::SetNextNullId(null_base);
}

TEST(CheckpointTest, CompleteSnapshotShortCircuits) {
  Instance db = CkDb();
  TgdSet sigma = CkSigma();
  const uint32_t null_base = Term::NextNullId();
  const std::string dir = FreshDir("complete");

  Term::SetNextNullId(null_base);
  ResumeInfo first_info;
  ChaseResult first = ResumeChase(dir, db, sigma, {}, &first_info);
  ASSERT_TRUE(first.complete);
  EXPECT_FALSE(first_info.resumed);

  Term::SetNextNullId(null_base + 1234);
  ResumeInfo second_info;
  ChaseResult second = ResumeChase(dir, db, sigma, {}, &second_info);
  EXPECT_TRUE(second_info.resumed);
  EXPECT_TRUE(second_info.resumed_complete);
  ExpectBitIdentical(second, first, "complete-snapshot reuse");

  std::filesystem::remove_all(dir);
  Term::SetNextNullId(null_base);
}

TEST(CheckpointTest, CorruptionIsRejectedWithDistinctStatus) {
  Instance db = CkDb();
  TgdSet sigma = CkSigma();
  const uint32_t null_base = Term::NextNullId();
  const std::string dir = FreshDir("corrupt");

  Term::SetNextNullId(null_base);
  ChaseResult reference = ResumeChase(dir, db, sigma);
  ASSERT_TRUE(reference.complete);

  CheckpointDir checkpoints(dir);
  std::vector<uint64_t> generations = checkpoints.Generations();
  ASSERT_GE(generations.size(), 2u);
  const std::string newest = checkpoints.GenerationPath(generations.back());

  // Flip one payload byte in the newest snapshot.
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(newest, &bytes).ok());
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(newest, flipped).ok());

  // The corruption is diagnosed as exactly a checksum mismatch...
  std::string_view payload;
  EXPECT_EQ(UnwrapSnapshot(flipped, kSnapshotKindChase, &payload).error,
            SnapshotError::kChecksumMismatch);

  // ...and recovery silently falls back to the previous good generation,
  // still reproducing the bit-identical final instance.
  ChaseCheckpointState state;
  uint64_t generation = 0;
  int skipped = 0;
  ASSERT_TRUE(checkpoints
                  .LoadLatest(&state, ChaseWorkloadFingerprint(db, sigma, {}),
                              &generation, &skipped)
                  .ok());
  EXPECT_EQ(skipped, 1);
  EXPECT_EQ(generation, generations[generations.size() - 2]);

  Term::SetNextNullId(null_base + 777);
  ResumeInfo info;
  ChaseResult resumed = ResumeChase(dir, db, sigma, {}, &info);
  EXPECT_TRUE(info.resumed);
  EXPECT_EQ(info.skipped_generations, 1);
  ExpectBitIdentical(resumed, reference, "fallback after bit flip");

  // Truncate the (rewritten) newest generation mid-payload: kTruncated,
  // same fallback.
  generations = checkpoints.Generations();
  const std::string newest2 = checkpoints.GenerationPath(generations.back());
  ASSERT_TRUE(ReadFileBytes(newest2, &bytes).ok());
  ASSERT_TRUE(WriteFileAtomic(newest2, bytes.substr(0, bytes.size() / 2))
                  .ok());
  EXPECT_EQ(UnwrapSnapshot(bytes.substr(0, bytes.size() / 2),
                           kSnapshotKindChase, &payload)
                .error,
            SnapshotError::kTruncated);
  Term::SetNextNullId(null_base + 778);
  ChaseResult after_truncation = ResumeChase(dir, db, sigma, {}, &info);
  EXPECT_TRUE(info.resumed);
  ExpectBitIdentical(after_truncation, reference, "fallback after truncation");

  // Corrupt every generation: the load fails (with the last distinct
  // reason), ResumeChase starts fresh and the output is still right.
  for (uint64_t g : checkpoints.Generations()) {
    const std::string path = checkpoints.GenerationPath(g);
    ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
    bytes[bytes.size() - 1] ^= 0xFF;
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  }
  Term::SetNextNullId(null_base);
  ChaseResult fresh = ResumeChase(dir, db, sigma, {}, &info);
  EXPECT_FALSE(info.resumed);
  EXPECT_EQ(info.load_status.error, SnapshotError::kChecksumMismatch);
  ExpectBitIdentical(fresh, reference, "fresh run after total corruption");

  std::filesystem::remove_all(dir);
  Term::SetNextNullId(null_base);
}

TEST(CheckpointTest, WorkloadFingerprintLayoutIsPinned) {
  // The fingerprint gates every on-disk snapshot: a layout change would
  // orphan existing checkpoints. The byte after `restricted` is a retired
  // discovery-mode flag, pinned to 1.
  const Instance db = CkDb();
  const TgdSet sigma = CkSigma();
  for (bool restricted : {false, true}) {
    ChaseOptions options;
    options.restricted = restricted;
    options.max_level = 7;
    BinaryWriter expected;
    EncodeInstance(db, &expected);
    expected.WriteString(TgdSetToString(sigma));
    expected.WriteBool(restricted);
    expected.WriteU8(1);
    expected.WriteI32(options.max_level);
    EXPECT_EQ(ChaseWorkloadFingerprint(db, sigma, options),
              Crc32(expected.buffer()))
        << "restricted=" << restricted;
  }
}

TEST(CheckpointTest, ForeignWorkloadIsNotResumed) {
  Instance db = CkDb();
  TgdSet sigma = CkSigma();
  const uint32_t null_base = Term::NextNullId();
  const std::string dir = FreshDir("foreign");

  Term::SetNextNullId(null_base);
  ChaseResult first = ResumeChase(dir, db, sigma);
  ASSERT_TRUE(first.complete);

  // Same directory, different rule set: the fingerprint mismatch is
  // reported and the run starts fresh instead of continuing foreign
  // state.
  TgdSet other = ParseTgds("ckgrad(X) -> ckother(X).");
  Term::SetNextNullId(null_base);
  ResumeInfo info;
  ChaseResult fresh = ResumeChase(dir, db, other, {}, &info);
  EXPECT_FALSE(info.resumed);
  EXPECT_EQ(info.load_status.error, SnapshotError::kFormatError);
  EXPECT_TRUE(fresh.complete);

  std::filesystem::remove_all(dir);
  Term::SetNextNullId(null_base);
}

/// Names of every entry in `dir`.
std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  return names;
}

TEST(CheckpointTest, AnotherRunsGenerationsNeverShadowThisRuns) {
  // Run A chases a 64-chain to its fixpoint and leaves its newest
  // generations; run B, a different workload with fewer rounds, then
  // uses the same directory and is cancelled early. B's generations are
  // all older than A's, yet B's resume must find them: B's first save
  // deletes A's newer generations instead of pruning its own.
  const TgdSet sigma = CkSigma();
  Instance db_a;
  for (int i = 0; i < 64; ++i) {
    db_a.Insert(Atom::Make("cke",
                           {Term::Constant("cka" + std::to_string(i)),
                            Term::Constant("cka" + std::to_string(i + 1))}));
  }
  const Instance db_b = CkDb();
  const uint32_t null_base = Term::NextNullId();
  const std::string dir = FreshDir("other_run");

  Term::SetNextNullId(null_base);
  ASSERT_TRUE(ResumeChase(dir, db_a, sigma).complete);
  CheckpointDir checkpoints(dir);
  const std::vector<uint64_t> a_generations = checkpoints.Generations();
  ASSERT_EQ(a_generations.size(), CheckpointDir::kKeepGenerations);
  // A finished run leaves its snapshots and nothing else.
  for (const std::string& name : DirEntries(dir)) {
    EXPECT_TRUE(name.starts_with("chase-") && name.ends_with(".snap"))
        << name;
  }

  // The MANIFEST an older build kept beside A's snapshots: it goes
  // stale below, and nothing may read it as an index.
  std::FILE* manifest = std::fopen((dir + "/MANIFEST").c_str(), "w");
  ASSERT_NE(manifest, nullptr);
  for (uint64_t g : a_generations) {
    std::fprintf(manifest, "%llu\n", static_cast<unsigned long long>(g));
  }
  std::fclose(manifest);

  Term::SetNextNullId(null_base);
  const ChaseResult reference = Chase(db_b, sigma);
  ASSERT_TRUE(reference.complete);

  Term::SetNextNullId(null_base);
  // Cancelled at governor checkpoint 600: after B's second round.
  TestFaultInjector injector(Status::kCancelled, 600);
  ExecutionBudget budget;
  budget.max_facts = 0;
  Governor governor(budget, &injector);
  ChaseOptions killed_options;
  killed_options.governor = &governor;
  const ChaseResult killed = ResumeChase(dir, db_b, sigma, killed_options);
  ASSERT_FALSE(killed.complete);
  const uint64_t b_round = killed.rounds_completed;
  ASSERT_GE(b_round, 1u);
  ASSERT_LT(b_round, a_generations.front());
  ASSERT_FALSE(checkpoints.Generations().empty());
  EXPECT_EQ(checkpoints.Generations().back(), b_round);

  Term::SetNextNullId(null_base + 4242);
  ResumeInfo info;
  const ChaseResult resumed = ResumeChase(dir, db_b, sigma, {}, &info);
  EXPECT_TRUE(info.resumed) << info.load_status.message;
  EXPECT_EQ(info.generation, b_round);
  ExpectBitIdentical(resumed, reference, "resume over another run's dir");
  const std::vector<uint64_t> b_generations = checkpoints.Generations();
  EXPECT_LE(b_generations.size(), CheckpointDir::kKeepGenerations);
  EXPECT_EQ(b_generations.back(), resumed.rounds_completed);

  std::filesystem::remove_all(dir);
  Term::SetNextNullId(null_base);
}

TEST(CheckpointTest, ForeignFingerprintIsRejectedBeforeItsInterner) {
  // A snapshot of another workload whose interner section names a
  // constant this process never interned: the fingerprint mismatch is
  // what gets reported, and the foreign name is never interned.
  const Instance db = CkDb();
  const TgdSet sigma = CkSigma();
  const uint32_t null_base = Term::NextNullId();
  const std::string dir = FreshDir("foreign_interner");
  const uint32_t fingerprint = ChaseWorkloadFingerprint(db, sigma, {});

  std::string payload = EncodeChaseSnapshot(ChaseCheckpointState{},
                                            fingerprint ^ 1u);
  // Payload: u32 fingerprint, u64 constant count, then the first
  // constant's name as u64 length + bytes.
  BinaryReader reader(payload);
  uint32_t stored = 0;
  uint64_t constants = 0;
  std::string first;
  ASSERT_TRUE(reader.ReadU32(&stored) && reader.ReadU64(&constants) &&
              reader.ReadString(&first));
  ASSERT_FALSE(first.empty());
  payload.replace(4 + 8 + 8, first.size(), std::string(first.size(), '\x7f'));
  CheckpointDir checkpoints(dir);
  ASSERT_TRUE(WriteFileAtomic(checkpoints.GenerationPath(99),
                              WrapSnapshot(kSnapshotKindChase, payload))
                  .ok());

  Interner& interner = Interner::Global();
  const size_t before = interner.PoolSize(Interner::Pool::kConstant);
  ChaseCheckpointState state;
  EXPECT_EQ(checkpoints
                .LoadLatest(&state, fingerprint)
                .error,
            SnapshotError::kFormatError);
  EXPECT_EQ(interner.PoolSize(Interner::Pool::kConstant), before);

  Term::SetNextNullId(null_base);
  ResumeInfo info;
  EXPECT_TRUE(ResumeChase(dir, db, sigma, {}, &info).complete);
  EXPECT_FALSE(info.resumed);
  EXPECT_EQ(info.load_status.error, SnapshotError::kFormatError)
      << info.load_status.message;
  EXPECT_EQ(interner.PoolSize(Interner::Pool::kConstant), before);
  // The run's first save deleted the newer foreign generation.
  ASSERT_FALSE(checkpoints.Generations().empty());
  EXPECT_LT(checkpoints.Generations().back(), 99u);

  std::filesystem::remove_all(dir);
  Term::SetNextNullId(null_base);
}

TEST(CheckpointTest, WitnessLogSurvivesResumeBitIdentically) {
  // Certified answers (ISSUE 5): a witness-collecting chase killed at a
  // checkpoint and resumed from disk reproduces the *same replayable
  // derivation log* as an uninterrupted run — bit-identical steps, same
  // labelled nulls — and the independent checker replays it back to the
  // chase instance.
  Instance db = CkDb();
  TgdSet sigma = CkSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  ChaseOptions reference_options;
  reference_options.collect_witness = true;
  ChaseResult reference = Chase(db, sigma, reference_options);
  ASSERT_TRUE(reference.complete);
  ASSERT_TRUE(reference.derivation.collected);
  ASSERT_TRUE(reference.derivation.replay_exact);
  ASSERT_FALSE(reference.derivation.steps.empty());

  for (uint64_t at : {3u, 40u}) {
    const std::string label = "at=" + std::to_string(at);
    const std::string dir = FreshDir("witness_" + std::to_string(at));

    Term::SetNextNullId(null_base);
    TestFaultInjector injector(Status::kCancelled, at);
    ExecutionBudget budget;
    budget.max_facts = 0;
    Governor governor(budget, &injector);
    ChaseOptions killed_options;
    killed_options.collect_witness = true;
    killed_options.governor = &governor;
    ResumeInfo killed_info;
    ChaseResult killed =
        ResumeChase(dir, db, sigma, killed_options, &killed_info);
    ASSERT_FALSE(killed.complete) << label;

    // Resume with a clobbered null counter: the snapshot restores it
    // along with the fired-trigger and null logs.
    Term::SetNextNullId(null_base + 9000);
    ChaseOptions resume_options;
    resume_options.collect_witness = true;
    ResumeInfo info;
    ChaseResult resumed = ResumeChase(dir, db, sigma, resume_options, &info);
    EXPECT_TRUE(info.resumed) << label;
    ASSERT_TRUE(resumed.complete) << label;
    ASSERT_TRUE(resumed.derivation.collected) << label;
    EXPECT_TRUE(resumed.derivation == reference.derivation) << label;

    Instance replayed;
    VerifyResult check =
        VerifyDerivation(db, sigma, resumed.derivation, &replayed);
    EXPECT_TRUE(check.ok()) << label << ": " << check.reason;
    ASSERT_EQ(replayed.size(), resumed.instance.size()) << label;
    for (size_t i = 0; i < replayed.size(); ++i) {
      ASSERT_EQ(replayed.atom(i), resumed.instance.atom(i))
          << label << " fact " << i;
    }

    std::filesystem::remove_all(dir);
  }
  Term::SetNextNullId(null_base);
}

TEST(CheckpointTest, WitnessFieldsRoundTripThroughSnapshot) {
  // The PR-3 snapshot codec carries the witness half of the state —
  // fired-trigger null draws and the collected flag — field-for-field.
  Instance db = CkDb();
  TgdSet sigma = CkSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  CollectingSink sink;
  ChaseOptions options;
  options.collect_witness = true;
  options.checkpoint_sink = &sink;
  ChaseResult run = Chase(db, sigma, options);
  ASSERT_TRUE(run.complete);
  ASSERT_FALSE(sink.states.empty());

  const ChaseCheckpointState& state = sink.states.back();
  ASSERT_TRUE(state.witness_collected);
  ASSERT_EQ(state.fired_nulls.size(), state.fired.size());

  const std::string payload = EncodeChaseSnapshot(state, 0xBEEF);
  ChaseCheckpointState decoded;
  uint32_t fingerprint = 0;
  ASSERT_TRUE(DecodeChaseSnapshot(payload, &decoded, &fingerprint).ok());
  EXPECT_TRUE(decoded.witness_collected);
  EXPECT_EQ(decoded.fired, state.fired);
  EXPECT_EQ(decoded.fired_nulls, state.fired_nulls);

  Term::SetNextNullId(null_base);
}

TEST(CheckpointTest, ChaseSnapshotPayloadRoundTrips) {
  Instance db = CkDb();
  TgdSet sigma = CkSigma();
  const uint32_t null_base = Term::NextNullId();

  Term::SetNextNullId(null_base);
  CollectingSink sink;
  ChaseOptions options;
  options.checkpoint_sink = &sink;
  ChaseResult run = Chase(db, sigma, options);
  ASSERT_TRUE(run.complete);
  ASSERT_FALSE(sink.states.empty());

  const ChaseCheckpointState& state = sink.states[sink.states.size() / 2];
  const std::string payload = EncodeChaseSnapshot(state, 0xC0FFEE);
  ChaseCheckpointState decoded;
  uint32_t fingerprint = 0;
  ASSERT_TRUE(DecodeChaseSnapshot(payload, &decoded, &fingerprint).ok());
  EXPECT_EQ(fingerprint, 0xC0FFEEu);
  // Equal states re-encode to equal bytes (deterministic encoding).
  EXPECT_EQ(EncodeChaseSnapshot(decoded, 0xC0FFEE), payload);

  // A decode of mangled payload bytes reports kFormatError (the envelope
  // checksum normally catches this first; the decoder must still never
  // crash or fabricate state).
  std::string mangled = payload;
  mangled.resize(mangled.size() / 3);
  EXPECT_FALSE(DecodeChaseSnapshot(mangled, &decoded, &fingerprint).ok());

  Term::SetNextNullId(null_base);
}

}  // namespace
}  // namespace gqe
