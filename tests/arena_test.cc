// Tests for the bump-pointer Arena and the columnar FactStore
// (src/base/arena.h, src/base/fact_store.h), plus the invariants the
// rest of the stack leans on: the columnar mirror inside Instance agrees
// with the row store atom-for-atom, and an instance built through the
// columnar path serializes byte-identically through the checkpoint
// codec (the PR-3 snapshot format must not notice the data-layout swap).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/arena.h"
#include "base/atom.h"
#include "base/fact_store.h"
#include "base/instance.h"
#include "base/serialize.h"
#include "base/term.h"

namespace gqe {
namespace {

bool IsAligned(const void* p, size_t align) {
  return reinterpret_cast<uintptr_t>(p) % align == 0;
}

TEST(ArenaTest, BasicAllocationAndAccounting) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  void* a = arena.Allocate(64);
  void* b = arena.Allocate(64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_GE(arena.bytes_used(), 128u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
  // Written bytes must not overlap.
  std::memset(a, 0xaa, 64);
  std::memset(b, 0xbb, 64);
  EXPECT_EQ(static_cast<unsigned char*>(a)[63], 0xaa);
  EXPECT_EQ(static_cast<unsigned char*>(b)[0], 0xbb);
}

TEST(ArenaTest, OverAlignedAllocations) {
  Arena arena;
  for (size_t align : {8u, 16u, 32u, 64u, 128u, 256u}) {
    for (int i = 0; i < 16; ++i) {
      void* p = arena.Allocate(align / 2 + 1, align);
      ASSERT_NE(p, nullptr);
      EXPECT_TRUE(IsAligned(p, align)) << "align " << align;
    }
    // Interleave odd-sized unaligned requests to skew the bump pointer.
    arena.Allocate(3, 1);
  }
}

TEST(ArenaTest, LargeAllocationsSpanBlocks) {
  Arena arena(/*block_bytes=*/256);
  // Many small allocations force chained blocks...
  for (int i = 0; i < 100; ++i) {
    void* p = arena.Allocate(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, i, 100);
  }
  EXPECT_GT(arena.block_count(), 1u);
  // ...and an oversized request (bigger than any block) still succeeds
  // without disturbing subsequent small allocations.
  size_t before = arena.bytes_used();
  void* huge = arena.Allocate(Arena::kMaxBlockBytes + 1024);
  ASSERT_NE(huge, nullptr);
  std::memset(huge, 0xcd, Arena::kMaxBlockBytes + 1024);
  EXPECT_GE(arena.bytes_used(), before + Arena::kMaxBlockBytes + 1024);
  void* small = arena.Allocate(8);
  ASSERT_NE(small, nullptr);
}

TEST(ArenaTest, ResetRecyclesAndBumpsEpoch) {
  Arena arena(/*block_bytes=*/128);
  for (int i = 0; i < 50; ++i) arena.Allocate(64);
  size_t reserved_grown = arena.bytes_reserved();
  uint64_t epoch = arena.epoch();
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.epoch(), epoch + 1);
  // Reset keeps one block: reserved shrinks but stays nonzero.
  EXPECT_GT(arena.bytes_reserved(), 0u);
  EXPECT_LT(arena.bytes_reserved(), reserved_grown);
  EXPECT_EQ(arena.block_count(), 1u);
  // The arena is immediately reusable.
  void* p = arena.Allocate(64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xee, 64);
}

TEST(ArenaTest, TypedAllocationHelpers) {
  Arena arena;
  uint32_t* run = arena.AllocateArray<uint32_t>(10);
  ASSERT_NE(run, nullptr);
  EXPECT_TRUE(IsAligned(run, alignof(uint32_t)));
  for (int i = 0; i < 10; ++i) run[i] = i;
  struct Pod {
    uint64_t a;
    uint32_t b;
  };
  Pod* pod = arena.New<Pod>(Pod{7, 9});
  ASSERT_NE(pod, nullptr);
  EXPECT_EQ(pod->a, 7u);
  EXPECT_EQ(pod->b, 9u);
  EXPECT_EQ(run[9], 9u);  // earlier allocation untouched
}

TEST(ArenaTest, MoveTransfersOwnership) {
  Arena arena(/*block_bytes=*/128);
  uint32_t* p = arena.AllocateArray<uint32_t>(4);
  p[0] = 41;
  Arena moved(std::move(arena));
  EXPECT_EQ(p[0], 41u);  // storage survives the move
  EXPECT_GT(moved.bytes_used(), 0u);
  uint32_t* q = moved.AllocateArray<uint32_t>(4);
  ASSERT_NE(q, nullptr);
}

#ifndef NDEBUG
TEST(ArenaPinDeathTest, ResetUnderPinAsserts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Arena arena;
        arena.Allocate(16);
        Arena::Pin pin(arena);
        arena.Reset();  // an engine holding pointers across Reset
      },
      "");
}
#endif

TEST(ArenaTest, PinReleaseAllowsReset) {
  Arena arena;
  arena.Allocate(16);
  {
    Arena::Pin pin(arena);
  }
  arena.Reset();  // no live pin: fine
  EXPECT_EQ(arena.bytes_used(), 0u);
}

Term C(int i) { return Term::Constant("fs_c" + std::to_string(i)); }

TEST(FactStoreTest, InsertUniqueAssignsDenseIds) {
  FactStore store;
  Atom a = Atom::Make("fs_p", {C(1), C(2)});
  Atom b = Atom::Make("fs_q", {C(3)});
  auto [id_a, fresh_a] =
      store.InsertUnique(a.predicate(), a.args());
  auto [id_b, fresh_b] =
      store.InsertUnique(b.predicate(), b.args());
  EXPECT_TRUE(fresh_a);
  EXPECT_TRUE(fresh_b);
  EXPECT_EQ(id_a, 0u);
  EXPECT_EQ(id_b, 1u);
  auto [id_dup, fresh_dup] =
      store.InsertUnique(a.predicate(), a.args());
  EXPECT_FALSE(fresh_dup);
  EXPECT_EQ(id_dup, id_a);
  EXPECT_EQ(store.size(), 2u);

  EXPECT_EQ(store.predicate(id_a), a.predicate());
  EXPECT_EQ(store.arity(id_a), 2u);
  ASSERT_EQ(store.args(id_a).size(), 2u);
  EXPECT_EQ(store.args(id_a)[0], C(1));
  EXPECT_EQ(store.args(id_a)[1], C(2));
  EXPECT_EQ(store.arity(id_b), 1u);
}

TEST(FactStoreTest, FindAndZeroArity) {
  FactStore store;
  Atom zero = Atom::Make("fs_flag", {});
  EXPECT_EQ(store.Find(zero.predicate(), {}), -1);
  auto [id, fresh] = store.InsertUnique(zero.predicate(), {});
  EXPECT_TRUE(fresh);
  EXPECT_EQ(store.Find(zero.predicate(), {}),
            static_cast<int64_t>(id));
  EXPECT_EQ(store.arity(id), 0u);
  EXPECT_TRUE(store.args(id).empty());
  // Same-name different-arity content must not collide.
  Term arg = C(9);
  EXPECT_EQ(store.Find(zero.predicate(), {&arg, 1}), -1);
}

TEST(FactStoreTest, HashDistinguishesArgOrder) {
  Term x = C(1), y = C(2);
  Term xy[] = {x, y};
  Term yx[] = {y, x};
  Atom p = Atom::Make("fs_ord", {x, y});
  EXPECT_NE(FactStore::HashFact(p.predicate(), xy),
            FactStore::HashFact(p.predicate(), yx));
  FactStore store;
  store.InsertUnique(p.predicate(), xy);
  EXPECT_EQ(store.Find(p.predicate(), yx), -1);
}

TEST(FactStoreTest, CopyAndMoveKeepIndexWorking) {
  FactStore store;
  std::vector<Atom> atoms;
  for (int i = 0; i < 200; ++i) {
    atoms.push_back(Atom::Make("fs_cm", {C(i % 50), C(i % 7)}));
    store.InsertUnique(atoms.back().predicate(), atoms.back().args());
  }
  FactStore copy(store);
  FactStore assigned;
  assigned = store;
  FactStore moved(std::move(copy));
  // The dedup index of each holds a back-pointer to its own columns; a
  // stale pointer would make these probes misbehave (or crash ASan).
  for (const Atom& atom : atoms) {
    int64_t want = store.Find(atom.predicate(), atom.args());
    ASSERT_GE(want, 0);
    EXPECT_EQ(assigned.Find(atom.predicate(), atom.args()), want);
    EXPECT_EQ(moved.Find(atom.predicate(), atom.args()), want);
  }
  // Inserting after copy/move appends into the right object's columns.
  Atom extra = Atom::Make("fs_cm_x", {C(1), C(2)});
  auto [id, fresh] =
      moved.InsertUnique(extra.predicate(), extra.args());
  EXPECT_TRUE(fresh);
  EXPECT_EQ(moved.predicate(id), extra.predicate());
  EXPECT_EQ(store.Find(extra.predicate(), extra.args()), -1);
}

TEST(FactStoreTest, ReserveAvoidsIndexRehashes) {
  FactStore store;
  store.Reserve(/*facts=*/2000, /*terms=*/4000);
  uint64_t rehashes = store.index_rehashes();
  for (int i = 0; i < 2000; ++i) {
    Atom atom = Atom::Make("fs_rs", {C(i), C(i + 1)});
    store.InsertUnique(atom.predicate(), atom.args());
  }
  EXPECT_EQ(store.index_rehashes(), rehashes);
  EXPECT_EQ(store.size(), 2000u);
}

TEST(FactStoreTest, ClearThenReuse) {
  FactStore store;
  Atom atom = Atom::Make("fs_cl", {C(4)});
  store.InsertUnique(atom.predicate(), atom.args());
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Find(atom.predicate(), atom.args()), -1);
  auto [id, fresh] =
      store.InsertUnique(atom.predicate(), atom.args());
  EXPECT_TRUE(fresh);
  EXPECT_EQ(id, 0u);
}

// ---- The FactStore columns inside Instance ----

Instance BuildMixedInstance() {
  Instance db;
  for (int i = 0; i < 60; ++i) {
    db.Insert(Atom::Make("col_e", {C(i % 12), C((i * 7) % 12)}));
  }
  for (int i = 0; i < 12; ++i) {
    if (i % 3 != 0) db.Insert(Atom::Make("col_u", {C(i)}));
  }
  db.Insert(Atom::Make("col_zero", {}));
  db.Insert(Atom::Make("col_t", {C(0), Term::Null(900001), C(3)}));
  db.Insert(Atom::Make("col_t", {Term::Null(900002), C(1), C(3)}));
  return db;
}

TEST(InstanceColumnarTest, AtomViewMatchesColumns) {
  Instance db = BuildMixedInstance();
  ASSERT_EQ(db.store().size(), db.size());
  const std::vector<Atom> atoms = db.atoms();
  ASSERT_EQ(atoms.size(), db.size());
  for (uint32_t i = 0; i < db.size(); ++i) {
    const Atom atom = db.atom(i);
    EXPECT_EQ(atom, atoms[i]);
    EXPECT_EQ(atom.predicate(), db.predicate_of(i));
    const std::span<const Term> col = db.args_of(i);
    EXPECT_TRUE(std::equal(col.begin(), col.end(), atom.args().begin(),
                           atom.args().end()));
    EXPECT_EQ(db.Find(atom), static_cast<int64_t>(i));
  }
}

TEST(InstanceColumnarTest, DuplicateInsertRejectedByColumnIndex) {
  Instance db = BuildMixedInstance();
  size_t before = db.size();
  EXPECT_FALSE(db.Insert(Atom::Make("col_e", {C(0), C(0)})));
  EXPECT_FALSE(db.Insert(Atom::Make("col_zero", {})));
  EXPECT_EQ(db.size(), before);
  EXPECT_TRUE(db.Insert(Atom::Make("col_e", {C(0), C(11)})));
  EXPECT_EQ(db.size(), before + 1);
}

TEST(InstanceColumnarTest, SerializesIdenticallyThroughCheckpointCodec) {
  // The snapshot format encodes the fact sequence in insertion order.
  // Build → encode → decode → re-encode must be byte-identical: the
  // columns must not perturb insertion order or term bits.
  Instance db = BuildMixedInstance();
  BinaryWriter first;
  EncodeInstance(db, &first);

  BinaryReader reader(first.buffer());
  Instance decoded;
  SnapshotStatus status = DecodeInstance(&reader, &decoded);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_EQ(decoded.size(), db.size());
  EXPECT_EQ(decoded.atoms(), db.atoms());

  BinaryWriter second;
  EncodeInstance(decoded, &second);
  EXPECT_EQ(first.buffer(), second.buffer());

  // And the decoded instance's dedup index is rebuilt consistently.
  for (uint32_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded.Find(decoded.atom(i)), static_cast<int64_t>(i));
  }
}

TEST(InstanceColumnarTest, ActiveDomainMatchesRowSemantics) {
  Instance db = BuildMixedInstance();
  // ActiveDomain must enumerate exactly the terms present in some fact,
  // and InDomain (now a flat-set probe) must agree with it.
  std::unordered_set<Term, TermHash> expect_domain;
  for (const Atom& atom : db.atoms()) {
    for (const Term& t : atom.args()) expect_domain.insert(t);
  }
  std::unordered_set<Term, TermHash> got_domain;
  for (const Term& t : db.ActiveDomain()) got_domain.insert(t);
  EXPECT_EQ(got_domain, expect_domain);
  for (const Term& t : expect_domain) EXPECT_TRUE(db.InDomain(t));
  EXPECT_FALSE(db.InDomain(Term::Constant("col_absent")));
}

}  // namespace
}  // namespace gqe
