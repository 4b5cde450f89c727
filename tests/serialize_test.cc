// Round-trip and corruption tests for the snapshot layer
// (base/serialize): writer/reader primitives, the checksummed envelope,
// interner and instance codecs, and the ToString -> parse -> serialize ->
// deserialize identity including labelled-null numbering.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "base/interner.h"
#include "base/serialize.h"
#include "chase/chase.h"
#include "chase/checkpoint.h"
#include "parser/parser.h"

namespace gqe {
namespace {

TEST(SerializeTest, WriterReaderRoundTrip) {
  BinaryWriter writer;
  writer.WriteU8(7);
  writer.WriteU16(300);
  writer.WriteU32(70000);
  writer.WriteU64(0x0123456789abcdefull);
  writer.WriteI32(-42);
  writer.WriteBool(true);
  writer.WriteString("hello\0world");  // literal truncates at NUL — fine
  writer.WriteString(std::string("a\0b", 3));

  BinaryReader reader(writer.buffer());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  bool flag = false;
  std::string s1, s2;
  EXPECT_TRUE(reader.ReadU8(&u8));
  EXPECT_TRUE(reader.ReadU16(&u16));
  EXPECT_TRUE(reader.ReadU32(&u32));
  EXPECT_TRUE(reader.ReadU64(&u64));
  EXPECT_TRUE(reader.ReadI32(&i32));
  EXPECT_TRUE(reader.ReadBool(&flag));
  EXPECT_TRUE(reader.ReadString(&s1));
  EXPECT_TRUE(reader.ReadString(&s2));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 300);
  EXPECT_EQ(u32, 70000u);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i32, -42);
  EXPECT_TRUE(flag);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, std::string("a\0b", 3));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializeTest, ReaderIsStickyAndBoundsChecked) {
  BinaryWriter writer;
  writer.WriteU16(9);
  BinaryReader reader(writer.buffer());
  uint32_t u32 = 0;
  EXPECT_FALSE(reader.ReadU32(&u32));  // only 2 bytes available
  EXPECT_FALSE(reader.ok());
  uint8_t u8 = 0;
  EXPECT_FALSE(reader.ReadU8(&u8));  // sticky after first failure
}

TEST(SerializeTest, Crc32KnownVector) {
  // The IEEE CRC-32 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(SerializeTest, EnvelopeRoundTrip) {
  const std::string payload = "some payload bytes";
  std::string bytes = WrapSnapshot(kSnapshotKindChase, payload);
  std::string_view out;
  SnapshotStatus status = UnwrapSnapshot(bytes, kSnapshotKindChase, &out);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(out, payload);
}

TEST(SerializeTest, EnvelopeRejectsCorruption) {
  const std::string payload(64, 'x');
  const std::string good = WrapSnapshot(kSnapshotKindChase, payload);
  std::string_view out;

  // Bit flip in the payload: checksum mismatch.
  std::string flipped = good;
  flipped[flipped.size() - 5] ^= 0x01;
  EXPECT_EQ(UnwrapSnapshot(flipped, kSnapshotKindChase, &out).error,
            SnapshotError::kChecksumMismatch);

  // Truncated tail.
  EXPECT_EQ(UnwrapSnapshot(std::string_view(good).substr(0, good.size() - 8),
                           kSnapshotKindChase, &out)
                .error,
            SnapshotError::kTruncated);

  // Shorter than the header itself.
  EXPECT_EQ(UnwrapSnapshot("GQ", kSnapshotKindChase, &out).error,
            SnapshotError::kTruncated);

  // Wrong magic.
  std::string magic = good;
  magic[0] = 'X';
  EXPECT_EQ(UnwrapSnapshot(magic, kSnapshotKindChase, &out).error,
            SnapshotError::kBadMagic);

  // Wrong kind.
  EXPECT_EQ(UnwrapSnapshot(good, kSnapshotKindInstance, &out).error,
            SnapshotError::kFormatError);

  // Every rejection has a distinct, printable name.
  EXPECT_STREQ(SnapshotErrorName(SnapshotError::kChecksumMismatch),
               "checksum-mismatch");
  EXPECT_STREQ(SnapshotErrorName(SnapshotError::kTruncated), "truncated");
}

TEST(SerializeTest, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "serialize_file_test.bin";
  const std::string bytes = "atomic write payload";
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  std::string back;
  ASSERT_TRUE(ReadFileBytes(path, &back).ok());
  EXPECT_EQ(back, bytes);
  std::remove(path.c_str());
  EXPECT_EQ(ReadFileBytes(path, &back).error, SnapshotError::kNotFound);
}

TEST(SerializeTest, ListNumberedFilesKeepsOnlyNumberedNames) {
  const std::string dir = ::testing::TempDir() + "serialize_numbered";
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(ListNumberedFiles(dir, "gen-", ".snap").empty());
  std::filesystem::create_directories(dir);
  for (const char* name :
       {"gen-12.snap", "gen-3.snap", "gen-003.snap", "gen-.snap",
        "gen-4x.snap", "gen-5.snap.tmp.77", "gen-+6.snap", "other-7.snap",
        "gen-99999999999999999999.snap", "MANIFEST"}) {
    ASSERT_TRUE(WriteFileAtomic(dir + "/" + name, "x").ok()) << name;
  }
  EXPECT_EQ(ListNumberedFiles(dir, "gen-", ".snap"),
            (std::vector<uint64_t>{3, 12}));
  std::filesystem::remove_all(dir);
}

/// This process's interner section, as EncodeInterner writes it, with
/// one more predicate `name`/`arity` appended to the predicate pool.
std::string InternerSectionWithPredicate(std::string_view name,
                                         int32_t arity) {
  BinaryWriter real;
  EncodeInterner(&real);
  const std::string& bytes = real.buffer();
  // Constants and variables (u64 count, then names), the predicates
  // (u64 count, then name and i32 arity each), then the u64 fresh
  // counter.
  BinaryReader reader(bytes);
  for (int pool = 0; pool < 2; ++pool) {
    uint64_t n = 0;
    std::string skipped;
    EXPECT_TRUE(reader.ReadU64(&n));
    for (uint64_t i = 0; i < n; ++i) EXPECT_TRUE(reader.ReadString(&skipped));
  }
  const size_t count_at = bytes.size() - reader.remaining();
  uint64_t predicates = 0;
  EXPECT_TRUE(reader.ReadU64(&predicates));
  BinaryWriter count;
  count.WriteU64(predicates + 1);
  BinaryWriter extra;
  extra.WriteString(name);
  extra.WriteI32(arity);
  const size_t pool_at = count_at + sizeof(uint64_t);
  const size_t fresh_at = bytes.size() - sizeof(uint64_t);
  return bytes.substr(0, count_at) + count.buffer() +
         bytes.substr(pool_at, fresh_at - pool_at) + extra.buffer() +
         bytes.substr(fresh_at);
}

TEST(SerializeTest, NegativePredicateArityIsRejectedUninterned) {
  const size_t before =
      Interner::Global().PoolSize(Interner::Pool::kPredicate);
  const std::string section = InternerSectionWithPredicate("sneg", -1);
  BinaryReader reader(section);
  const SnapshotStatus status = DecodeInterner(&reader);
  EXPECT_EQ(status.error, SnapshotError::kFormatError);
  EXPECT_NE(status.message.find("cut short or negative"), std::string::npos)
      << status.message;
  EXPECT_EQ(Interner::Global().PoolSize(Interner::Pool::kPredicate), before);
  EXPECT_EQ(predicates::Lookup("sneg"), static_cast<PredicateId>(-1));
}

TEST(SerializeTest, FactArityIsBoundedByTheBytesLeft) {
  // An interner section may name a predicate of arity 2^31-1, but no
  // fact of it fits in the bytes that follow: the decoder must refuse
  // before it reserves room for that many arguments.
  constexpr int32_t kWide = 0x7fffffff;
  const std::string section = InternerSectionWithPredicate("swide", kWide);
  BinaryReader interner_reader(section);
  ASSERT_TRUE(DecodeInterner(&interner_reader).ok());
  const PredicateId wide = predicates::Lookup("swide");
  ASSERT_EQ(predicates::Arity(wide), kWide);

  BinaryWriter facts;
  facts.WriteU64(1);
  facts.WriteU32(wide);
  facts.WriteU32(static_cast<uint32_t>(kWide));
  BinaryReader reader(facts.buffer());
  std::vector<Atom> atoms;
  const SnapshotStatus status = DecodeAtomVector(&reader, &atoms);
  EXPECT_EQ(status.error, SnapshotError::kFormatError);
  EXPECT_NE(status.message.find("fact arguments cut short"), std::string::npos)
      << status.message;
  EXPECT_TRUE(atoms.empty());
}

TEST(SerializeTest, InstanceRoundTripWithNulls) {
  Instance original;
  original.Insert(Atom::Make("sedge", {Term::Constant("sa"), Term::Null(11)}));
  original.Insert(Atom::Make("sedge", {Term::Null(11), Term::Null(12)}));
  original.Insert(Atom::Make("slabel", {Term::Constant("sb")}));

  BinaryWriter writer;
  EncodeInterner(&writer);
  EncodeInstance(original, &writer);

  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(DecodeInterner(&reader).ok());
  Instance decoded;
  ASSERT_TRUE(DecodeInstance(&reader, &decoded).ok());
  ASSERT_EQ(decoded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    // Bit-identical atoms in the same insertion order.
    EXPECT_EQ(decoded.atom(i), original.atom(i)) << i;
  }
}

TEST(SerializeTest, InstanceDecodeRejectsGarbage) {
  BinaryWriter writer;
  EncodeInterner(&writer);
  writer.WriteU64(1);           // one fact
  writer.WriteU32(0xFFFFFF);    // nonexistent predicate id
  writer.WriteU32(2);
  writer.WriteU32(0);
  writer.WriteU32(0);
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(DecodeInterner(&reader).ok());
  Instance decoded;
  EXPECT_EQ(DecodeInstance(&reader, &decoded).error,
            SnapshotError::kFormatError);
}

// The snapshot format of an instance, byte for byte: constants, labelled
// nulls, a 0-ary fact, a ternary fact and a duplicate insert. Predicate
// and constant ids come from the process-global interner, so the bytes
// are only reproducible in a fresh process: the encoding runs in a
// re-executed child, which exits 0 iff its CRC matches the pin.
TEST(SerializeTest, EncodeInstanceBytesArePinned) {
  constexpr uint32_t kPinnedCrc = 0xc06a0cdb;
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        Instance db;
        const Term a = Term::Constant("pin_a");
        const Term b = Term::Constant("pin_b");
        db.Insert(Atom::Make("pin_edge", {a, Term::Null(7)}));
        db.Insert(Atom::Make("pin_flag", {}));
        db.Insert(Atom::Make("pin_tri", {Term::Null(7), b, a}));
        db.Insert(Atom::Make("pin_edge", {a, Term::Null(7)}));  // duplicate
        db.Insert(Atom::Make("pin_edge", {Term::Null(8), b}));
        BinaryWriter writer;
        EncodeInstance(db, &writer);
        const uint32_t crc = Crc32(writer.buffer());
        std::fprintf(stderr, "%zu bytes, crc 0x%08x\n",
                     writer.buffer().size(), crc);
        std::exit(crc == kPinnedCrc ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(SerializeTest, ToStringParseSerializeRoundTrip) {
  // The full loop of the round-trip guarantee: an instance with labelled
  // nulls prints (Instance::ToString), the text parses back, and the
  // parsed instance serializes to the same bytes — null numbering
  // included.
  Instance original;
  original.Insert(
      Atom::Make("rtedge", {Term::Constant("rta"), Term::Constant("rtb")}));
  original.Insert(Atom::Make("rtedge", {Term::Constant("rtb"), Term::Null(21)}));
  original.Insert(Atom::Make("rtlives", {Term::Null(21), Term::Null(23)}));

  // ToString renders `{f1, f2, ...}`; strip the braces and terminate each
  // fact to form a parseable program. Facts end with ')', so splitting on
  // "), " never cuts inside an atom's argument list.
  std::string text = original.ToString();
  ASSERT_GE(text.size(), 2u);
  ASSERT_EQ(text.front(), '{');
  ASSERT_EQ(text.back(), '}');
  std::string program_text = text.substr(1, text.size() - 2);
  size_t pos = 0;
  while ((pos = program_text.find("), ", pos)) != std::string::npos) {
    program_text.replace(pos, 3, ").\n");
  }
  program_text += ".";

  ParseResult parsed = ParseProgram(program_text);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\nprogram:\n" << program_text;

  // ToString sorts facts, so compare order-insensitively first...
  EXPECT_EQ(parsed.program.database.ToString(), original.ToString());

  // ...then serialize both and require bit-identical payloads: the same
  // facts, the same term bits, the same labelled-null ids.
  BinaryWriter a, b;
  EncodeInstance(parsed.program.database, &a);
  Instance reordered;
  // Rebuild `original` in ToString (sorted) order so insertion order
  // matches what the parser saw.
  {
    ParseResult reparse = ParseProgram(program_text);
    ASSERT_TRUE(reparse.ok);
    reordered = reparse.program.database;
  }
  EncodeInstance(reordered, &b);
  ASSERT_EQ(a.buffer(), b.buffer());

  // And the serialized form itself round-trips bit-identically.
  BinaryWriter with_interner;
  EncodeInterner(&with_interner);
  EncodeInstance(parsed.program.database, &with_interner);
  BinaryReader reader(with_interner.buffer());
  ASSERT_TRUE(DecodeInterner(&reader).ok());
  Instance decoded;
  ASSERT_TRUE(DecodeInstance(&reader, &decoded).ok());
  BinaryWriter c;
  EncodeInstance(decoded, &c);
  EXPECT_EQ(c.buffer(), a.buffer());
}

TEST(SerializeTest, ToStringRoundTripCommaInsideAtoms) {
  // Multi-argument atoms carry ", " inside their parens; round-tripping a
  // ternary atom checks the null token and argument list survive intact.
  Instance original;
  original.Insert(Atom::Make("rt3", {Term::Constant("u"), Term::Constant("v"),
                                     Term::Null(31)}));
  std::string text = original.ToString();
  // One fact: no top-level ", " split needed at all.
  std::string program_text = text.substr(1, text.size() - 2) + ".";
  ParseResult parsed = ParseProgram(program_text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.program.database.size(), 1u);
  EXPECT_EQ(parsed.program.database.atom(0), original.atom(0));
}

/// Clears the write fault injector even when an ASSERT unwinds the test.
struct ScopedWriteFault {
  explicit ScopedWriteFault(WriteFaultInjectorForTest* injector) {
    SetWriteFaultInjectorForTest(injector);
  }
  ~ScopedWriteFault() { SetWriteFaultInjectorForTest(nullptr); }
};

TEST(SerializeTest, EnospcDuringAtomicWriteKeepsPreviousFile) {
  const std::string path = ::testing::TempDir() + "gqe_fault_enospc.snap";
  std::filesystem::remove(path);
  ASSERT_TRUE(WriteFileAtomic(path, "generation-one").ok());

  // The "device" fills up immediately: the very first write fails with
  // ENOSPC. The failure must be a clean kIoError — and the previously
  // renamed file must be untouched (the tmp file never reached it).
  WriteFaultInjectorForTest injector;
  injector.fail_after_bytes = 0;
  injector.error = ENOSPC;
  {
    ScopedWriteFault scoped(&injector);
    SnapshotStatus status = WriteFileAtomic(path, "generation-two");
    EXPECT_EQ(status.error, SnapshotError::kIoError);
    EXPECT_NE(status.message.find("No space"), std::string::npos)
        << status.message;
  }
  std::string back;
  ASSERT_TRUE(ReadFileBytes(path, &back).ok());
  EXPECT_EQ(back, "generation-one");
}

TEST(SerializeTest, ShortWritesThenFailureKeepsPreviousFile) {
  const std::string path = ::testing::TempDir() + "gqe_fault_short.snap";
  std::filesystem::remove(path);
  ASSERT_TRUE(WriteFileAtomic(path, "old-snapshot-bytes").ok());

  // Room for 7 bytes: the write loop sees short writes (exercising its
  // resume-at-offset arithmetic) before the hard ENOSPC. Still kIoError,
  // still the old file.
  WriteFaultInjectorForTest injector;
  injector.fail_after_bytes = 7;
  injector.error = ENOSPC;
  {
    ScopedWriteFault scoped(&injector);
    SnapshotStatus status =
        WriteFileAtomic(path, "a-much-longer-new-snapshot-payload");
    EXPECT_EQ(status.error, SnapshotError::kIoError);
    EXPECT_EQ(injector.written, 7u);  // the short write happened
  }
  std::string back;
  ASSERT_TRUE(ReadFileBytes(path, &back).ok());
  EXPECT_EQ(back, "old-snapshot-bytes");
  // No half-written tmp file left behind next to the snapshot.
  const std::string dir = ::testing::TempDir();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find("gqe_fault_short.snap.tmp"),
              std::string::npos)
        << entry.path();
  }
}

/// Keeps every round-boundary state a chase delivers.
struct CollectingSink : ChaseCheckpointSink {
  std::vector<ChaseCheckpointState> states;
  void Write(const ChaseCheckpointState& state) override {
    states.push_back(state);
  }
};

TEST(SerializeTest, SnapshotWithCarriedTriggersIsRejected) {
  // A trigger fires in the round that finds it, so a snapshot's trailing
  // carried-trigger count (kept for the byte layout) is always 0. A real
  // mid-run payload with that count set to 1 is malformed.
  TgdSet sigma = ParseTgds("sca(X) -> scb(X). scb(X) -> scc(X).");
  Instance db;
  db.Insert(Atom::Make("sca", {Term::Constant("sc1")}));
  CollectingSink sink;
  ChaseOptions options;
  options.checkpoint_sink = &sink;
  Chase(db, sigma, options);
  ASSERT_GE(sink.states.size(), 2u);
  std::string payload = EncodeChaseSnapshot(sink.states[1], 7);
  ChaseCheckpointState decoded;
  uint32_t fingerprint = 0;
  ASSERT_TRUE(DecodeChaseSnapshot(payload, &decoded, &fingerprint).ok());
  EXPECT_EQ(fingerprint, 7u);
  EXPECT_EQ(EncodeChaseSnapshot(decoded, fingerprint), payload);

  ASSERT_EQ(payload.substr(payload.size() - 8), std::string(8, '\0'));
  payload[payload.size() - 8] = 1;
  const SnapshotStatus status =
      DecodeChaseSnapshot(payload, &decoded, &fingerprint);
  EXPECT_EQ(status.error, SnapshotError::kFormatError);
}

TEST(SerializeTest, CheckpointSaveFaultKeepsPreviousGeneration) {
  // A real two-round chase provides genuine checkpoint states.
  TgdSet sigma = ParseTgds("swa(X) -> swb(X). swb(X) -> swc(X).");
  Instance db;
  db.Insert(Atom::Make("swa", {Term::Constant("sw1")}));
  db.Insert(Atom::Make("swa", {Term::Constant("sw2")}));

  CollectingSink sink;
  ChaseOptions options;
  options.checkpoint_sink = &sink;
  Chase(db, sigma, options);
  ASSERT_GE(sink.states.size(), 2u);
  const uint32_t fingerprint = ChaseWorkloadFingerprint(db, sigma, options);

  const std::string dir = ::testing::TempDir() + "gqe_fault_ckpt_dir";
  std::filesystem::remove_all(dir);
  CheckpointDir checkpoints(dir);
  ASSERT_TRUE(checkpoints.Save(sink.states[0], fingerprint).ok());

  // The next generation's save hits ENOSPC mid-snapshot: a clean
  // kIoError, and the directory still loads the previous generation.
  WriteFaultInjectorForTest injector;
  injector.fail_after_bytes = 32;
  injector.error = ENOSPC;
  {
    ScopedWriteFault scoped(&injector);
    SnapshotStatus status = checkpoints.Save(sink.states[1], fingerprint);
    EXPECT_EQ(status.error, SnapshotError::kIoError);
  }

  ChaseCheckpointState loaded;
  uint64_t generation = 0;
  ASSERT_TRUE(checkpoints.LoadLatest(&loaded, fingerprint, &generation).ok());
  EXPECT_EQ(generation, sink.states[0].rounds_completed);
  EXPECT_EQ(loaded.rounds_completed, sink.states[0].rounds_completed);

  // With space back, the interrupted generation saves and wins.
  ASSERT_TRUE(checkpoints.Save(sink.states[1], fingerprint).ok());
  ASSERT_TRUE(checkpoints.LoadLatest(&loaded, fingerprint, &generation).ok());
  EXPECT_EQ(generation, sink.states[1].rounds_completed);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gqe
