#ifndef GQE_BASE_INSTANCE_H_
#define GQE_BASE_INSTANCE_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "base/atom.h"
#include "base/fact_store.h"
#include "base/flat_table.h"
#include "base/schema.h"
#include "base/term.h"

namespace gqe {

/// An instance over a schema: a set of facts (ground atoms) with
/// insertion-order storage, duplicate elimination, and inverted indexes
/// for join seeding (paper, Section 2: instances contain only constants —
/// here constants and labelled nulls).
///
/// Every fact is stored once, as a row of the columnar FactStore
/// (struct-of-arrays predicate and Term columns plus an open-addressing
/// dedup index). Fact ids are dense and assigned in insertion order, the
/// canonical order every serialization and merge depends on. Hot loops
/// read `predicate_of(i)` / `args_of(i)` spans; `atom(i)` and `atoms()`
/// build owned Atoms on demand for callers that store one.
///
/// A *database* is a finite instance; this class represents both (all
/// in-memory instances are finite portions).
class Instance {
 public:
  Instance() = default;

  /// Inserts the fact pred(args). Returns true if the fact was new.
  /// Aborts in debug builds if an argument is a variable. `args` must not
  /// point into this instance's own columns (an insert may grow them).
  bool Insert(PredicateId pred, std::span<const Term> args);
  bool Insert(const Atom& atom) {
    return Insert(atom.predicate(), atom.args());
  }

  /// Inserts all facts of another instance.
  void InsertAll(const Instance& other);
  void InsertAll(const std::vector<Atom>& atoms);

  bool Contains(const Atom& atom) const;

  /// Index of the fact equal to `atom`, or -1 if absent. The columnar
  /// replacement for `Contains` + a separate index lookup on hot paths.
  int64_t Find(const Atom& atom) const;

  size_t size() const { return store_.size(); }
  bool empty() const { return store_.empty(); }

  /// Predicate and argument span of fact `index` (fact ids are stable;
  /// a span is valid only until the next insert into this instance).
  PredicateId predicate_of(size_t index) const {
    return store_.predicate(static_cast<uint32_t>(index));
  }
  std::span<const Term> args_of(size_t index) const {
    return store_.args(static_cast<uint32_t>(index));
  }

  /// Fact `index` as an owned Atom (one O(arity) allocation), and all
  /// facts as owned Atoms in insertion order (O(n) allocations). Neither
  /// is for hot loops; those read the spans.
  Atom atom(size_t index) const;
  std::vector<Atom> atoms() const;

  /// The fact columns (read-only).
  const FactStore& store() const { return store_; }

  /// Pre-sizes the columns for `facts` facts holding `terms` argument
  /// positions in total (workload fingerprint / checkpoint header hint),
  /// at least doubling a filled instance's capacity (FactStore::Reserve).
  void Reserve(size_t facts, size_t terms);

  /// Indices of facts with the given predicate.
  const std::vector<uint32_t>& FactsWithPredicate(PredicateId pred) const;

  /// Indices of facts with the given predicate whose argument at
  /// `position` equals `term`.
  const std::vector<uint32_t>& FactsWith(PredicateId pred, int position,
                                         Term term) const;

  /// dom(I): the distinct ground terms appearing in facts, in order of
  /// first appearance.
  const std::vector<Term>& ActiveDomain() const { return domain_; }

  bool InDomain(Term t) const { return domain_set_.contains(t); }

  /// I|_T: the restriction of the instance to facts that mention only
  /// terms of `keep` (paper, Section 2).
  Instance Restrict(const std::vector<Term>& keep) const;

  /// The set of predicates with at least one fact.
  Schema InducedSchema() const;

  /// Facts mentioning `t` (indices, ascending, no duplicates).
  const std::vector<uint32_t>& FactsMentioning(Term t) const;

  /// All facts whose terms are all contained in `elements`.
  std::vector<Atom> AtomsOver(const std::vector<Term>& elements) const;

  /// True if every fact of this instance is a fact of `other`.
  bool SubsetOf(const Instance& other) const;

  /// Total rehashes across the dedup and inverted indexes. Debug guards
  /// snapshot this to assert no engine holds slot references across a
  /// growth window (fact *indices* are always stable; table slots never
  /// are).
  uint64_t IndexRehashes() const;

  std::string ToString() const;

 private:
  static uint64_t MakePosKey(PredicateId pred, int position, Term term) {
    // pred: 24 bits used in practice, position: 8 bits, term: 32 bits.
    return (static_cast<uint64_t>(pred) << 40) |
           (static_cast<uint64_t>(position & 0xff) << 32) | term.bits();
  }

  FactStore store_;  // the facts, in insertion order, + dedup index
  // Dense per-predicate postings (predicate ids are small and dense);
  // pred_order_ records first appearance for deterministic iteration.
  std::vector<std::vector<uint32_t>> by_predicate_;
  std::vector<PredicateId> pred_order_;
  FlatMap<uint64_t, std::vector<uint32_t>> by_position_;
  std::vector<Term> domain_;
  FlatSet<Term> domain_set_;
  FlatMap<Term, std::vector<uint32_t>> by_term_;
};

std::ostream& operator<<(std::ostream& os, const Instance& instance);

}  // namespace gqe

#endif  // GQE_BASE_INSTANCE_H_
