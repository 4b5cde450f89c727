#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "base/atom.h"
#include "base/fact_store.h"
#include "base/instance.h"
#include "base/interner.h"
#include "base/schema.h"
#include "base/term.h"

namespace gqe {
namespace {

TEST(TermTest, ConstantsInternedOnce) {
  Term a1 = Term::Constant("alpha");
  Term a2 = Term::Constant("alpha");
  Term b = Term::Constant("beta");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_TRUE(a1.IsConstant());
  EXPECT_TRUE(a1.IsGround());
  EXPECT_EQ(a1.ToString(), "alpha");
}

TEST(TermTest, VariablesDistinctFromConstants) {
  Term c = Term::Constant("x");
  Term v = Term::Variable("x");
  EXPECT_NE(c, v);
  EXPECT_TRUE(v.IsVariable());
  EXPECT_FALSE(v.IsGround());
  EXPECT_EQ(v.ToString(), "x");
}

TEST(TermTest, NullsAreGroundAndFresh) {
  Term n1 = Term::FreshNull();
  Term n2 = Term::FreshNull();
  EXPECT_NE(n1, n2);
  EXPECT_TRUE(n1.IsNull());
  EXPECT_TRUE(n1.IsGround());
  EXPECT_EQ(Term::Null(n1.id()), n1);
  EXPECT_EQ(n1.ToString().substr(0, 3), "_:n");
}

TEST(TermTest, FreshVariableDoesNotCollide) {
  Term v1 = Term::FreshVariable();
  Term v2 = Term::FreshVariable();
  EXPECT_NE(v1, v2);
  EXPECT_TRUE(v1.IsVariable());
}

TEST(TermTest, RoundTripBits) {
  Term t = Term::Constant("roundtrip");
  EXPECT_EQ(Term::FromBits(t.bits()), t);
}

TEST(TermTest, HashableInUnorderedSet) {
  std::unordered_set<Term> set;
  set.insert(Term::Constant("h1"));
  set.insert(Term::Constant("h1"));
  set.insert(Term::Variable("h1"));
  EXPECT_EQ(set.size(), 2u);
}

TEST(PredicateTest, InternAndLookup) {
  PredicateId r = predicates::Intern("TestRel", 3);
  EXPECT_EQ(predicates::Arity(r), 3);
  EXPECT_EQ(predicates::Name(r), "TestRel");
  EXPECT_EQ(predicates::Lookup("TestRel"), r);
  EXPECT_EQ(predicates::Intern("TestRel", 3), r);
}

TEST(SchemaTest, MaxArityAndContains) {
  Schema schema;
  PredicateId r = schema.Add("SchemaR", 2);
  PredicateId s = schema.Add("SchemaS", 4);
  EXPECT_TRUE(schema.Contains(r));
  EXPECT_TRUE(schema.Contains(s));
  EXPECT_EQ(schema.MaxArity(), 4);
  EXPECT_EQ(schema.size(), 2u);
  schema.Add(r);  // idempotent
  EXPECT_EQ(schema.size(), 2u);
}

TEST(AtomTest, MakeAndPrint) {
  Atom atom = Atom::Make("Edge", {Term::Constant("a"), Term::Constant("b")});
  EXPECT_EQ(atom.arity(), 2);
  EXPECT_TRUE(atom.IsGround());
  EXPECT_EQ(atom.ToString(), "Edge(a,b)");
}

TEST(AtomTest, VariableCollection) {
  Term x = Term::Variable("X");
  Term y = Term::Variable("Y");
  Atom atom = Atom::Make("Tri", {x, y, x});
  std::vector<Term> vars;
  atom.CollectVariables(&vars);
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], x);
  EXPECT_EQ(vars[1], y);
  EXPECT_FALSE(atom.IsGround());
}

TEST(AtomTest, ContainsAll) {
  Term x = Term::Variable("X");
  Term y = Term::Variable("Y");
  Term z = Term::Variable("Z");
  Atom atom = Atom::Make("Tri2", {x, y, x});
  EXPECT_TRUE(atom.ContainsAll({x, y}));
  EXPECT_FALSE(atom.ContainsAll({x, z}));
}

TEST(AtomTest, EqualityAndHash) {
  Atom a1 = Atom::Make("EqR", {Term::Constant("a")});
  Atom a2 = Atom::Make("EqR", {Term::Constant("a")});
  Atom a3 = Atom::Make("EqR", {Term::Constant("b")});
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, a3);
  EXPECT_EQ(AtomHash{}(a1), AtomHash{}(a2));
}

class InstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = Term::Constant("ia");
    b_ = Term::Constant("ib");
    c_ = Term::Constant("ic");
    db_.Insert(Atom::Make("IEdge", {a_, b_}));
    db_.Insert(Atom::Make("IEdge", {b_, c_}));
    db_.Insert(Atom::Make("ILabel", {a_}));
  }

  Instance db_;
  Term a_, b_, c_;
};

TEST_F(InstanceTest, InsertDeduplicates) {
  EXPECT_EQ(db_.size(), 3u);
  EXPECT_FALSE(db_.Insert(Atom::Make("IEdge", {a_, b_})));
  EXPECT_EQ(db_.size(), 3u);
  EXPECT_TRUE(db_.Insert(Atom::Make("IEdge", {c_, a_})));
  EXPECT_EQ(db_.size(), 4u);
}

TEST_F(InstanceTest, ContainsAndDomain) {
  EXPECT_TRUE(db_.Contains(Atom::Make("IEdge", {a_, b_})));
  EXPECT_FALSE(db_.Contains(Atom::Make("IEdge", {b_, a_})));
  EXPECT_EQ(db_.ActiveDomain().size(), 3u);
  EXPECT_TRUE(db_.InDomain(a_));
  EXPECT_FALSE(db_.InDomain(Term::Constant("not_there")));
}

TEST_F(InstanceTest, PositionIndex) {
  PredicateId edge = predicates::Lookup("IEdge");
  EXPECT_EQ(db_.FactsWith(edge, 0, a_).size(), 1u);
  EXPECT_EQ(db_.FactsWith(edge, 1, b_).size(), 1u);
  EXPECT_EQ(db_.FactsWith(edge, 0, c_).size(), 0u);
  EXPECT_EQ(db_.FactsWithPredicate(edge).size(), 2u);
}

TEST_F(InstanceTest, Restrict) {
  Instance restricted = db_.Restrict({a_, b_});
  EXPECT_EQ(restricted.size(), 2u);  // IEdge(a,b), ILabel(a)
  EXPECT_TRUE(restricted.Contains(Atom::Make("IEdge", {a_, b_})));
  EXPECT_TRUE(restricted.Contains(Atom::Make("ILabel", {a_})));
}

TEST_F(InstanceTest, SubsetAndEquality) {
  Instance copy;
  copy.InsertAll(db_);
  EXPECT_TRUE(copy.SubsetOf(db_));
  EXPECT_TRUE(db_.SubsetOf(copy));
  copy.Insert(Atom::Make("ILabel", {b_}));
  EXPECT_TRUE(db_.SubsetOf(copy));
  EXPECT_FALSE(copy.SubsetOf(db_));
}

TEST_F(InstanceTest, FactsMentioning) {
  EXPECT_EQ(db_.FactsMentioning(b_).size(), 2u);
  EXPECT_EQ(db_.FactsMentioning(c_).size(), 1u);
}

TEST_F(InstanceTest, InducedSchema) {
  Schema schema = db_.InducedSchema();
  EXPECT_EQ(schema.size(), 2u);
  EXPECT_EQ(schema.MaxArity(), 2);
}

TEST_F(InstanceTest, SpanInsertIndexesLikeAtomInsert) {
  const Term d = Term::Constant("id");
  const std::vector<Atom> facts = {
      Atom::Make("IEdge", {c_, d}), Atom::Make("IEdge", {d, d}),
      Atom::Make("ILabel", {d}), Atom::Make("IEdge", {a_, b_}),
      Atom::Make("ITri", {d, a_, d})};
  Instance by_atom = db_;
  Instance by_span = db_;
  for (const Atom& fact : facts) {
    EXPECT_EQ(by_atom.Insert(fact),
              by_span.Insert(fact.predicate(), fact.args()));
  }
  ASSERT_EQ(by_span.size(), by_atom.size());
  for (size_t i = 0; i < by_atom.size(); ++i) {
    EXPECT_EQ(by_span.atom(i), by_atom.atom(i)) << "fact " << i;
  }
  EXPECT_EQ(by_span.ActiveDomain(), by_atom.ActiveDomain());
  for (Term t : by_atom.ActiveDomain()) {
    EXPECT_EQ(by_span.FactsMentioning(t), by_atom.FactsMentioning(t));
  }
  for (const Atom& fact : by_atom.atoms()) {
    EXPECT_EQ(by_span.FactsWithPredicate(fact.predicate()),
              by_atom.FactsWithPredicate(fact.predicate()));
    for (int pos = 0; pos < fact.arity(); ++pos) {
      const Term t = fact.args()[pos];
      EXPECT_EQ(by_span.FactsWith(fact.predicate(), pos, t),
                by_atom.FactsWith(fact.predicate(), pos, t));
    }
  }
  const FactStore& got = by_span.store();
  const FactStore& want = by_atom.store();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.term_column(), want.term_column());
  for (uint32_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.predicate(i), want.predicate(i));
    EXPECT_EQ(got.hash(i), want.hash(i));
    EXPECT_EQ(got.Find(want.predicate(i), want.args(i)),
              static_cast<int64_t>(i));
  }
}

}  // namespace
}  // namespace gqe
