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
/// Storage is two-layer: the row store `atoms()` keeps whole Atoms in
/// insertion order (the canonical order every serialization and merge
/// depends on), and a columnar FactStore mirrors the same facts as
/// struct-of-arrays columns for cache-friendly scans and open-addressing
/// duplicate checks. Fact indices are shared between the layers: index i
/// in `atoms()` is fact id i in the store.
///
/// A *database* is a finite instance; this class represents both (all
/// in-memory instances are finite portions).
class Instance {
 public:
  Instance() = default;

  /// Inserts a fact. Returns true if the fact was new. Aborts in debug
  /// builds if the atom contains variables.
  bool Insert(const Atom& atom);

  /// As Insert(const Atom&), but a new fact's argument vector is moved
  /// into the row store instead of copied. A duplicate returns false and
  /// leaves `atom` untouched.
  bool Insert(Atom&& atom);

  /// Inserts all facts of another instance.
  void InsertAll(const Instance& other);
  void InsertAll(const std::vector<Atom>& atoms);

  bool Contains(const Atom& atom) const;

  /// Index of the fact equal to `atom`, or -1 if absent. The columnar
  /// replacement for `Contains` + a separate index lookup on hot paths.
  int64_t Find(const Atom& atom) const;

  size_t size() const { return atoms_.size(); }
  bool empty() const { return atoms_.empty(); }

  /// All facts, in insertion order. Indices into this vector are stable.
  const std::vector<Atom>& atoms() const { return atoms_; }
  const Atom& atom(size_t index) const { return atoms_[index]; }

  /// Columnar accessors: predicate and argument span of fact `index`
  /// without touching the row store (one contiguous Term column).
  PredicateId predicate_of(uint32_t index) const {
    return store_.predicate(index);
  }
  std::span<const Term> args_of(uint32_t index) const {
    return store_.args(index);
  }

  /// The columnar mirror itself (read-only).
  const FactStore& store() const { return store_; }

  /// Pre-sizes all layers for `facts` facts holding `terms` argument
  /// positions in total (workload fingerprint / checkpoint header hint).
  /// Growing an already-filled instance at least doubles the row and
  /// column capacity, so per-round calls keep amortized appends.
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

  /// Structural equality as sets of facts.
  bool SetEquals(const Instance& other) const;

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

  /// The body of both Insert overloads: dedups through the columnar
  /// store, posts a new fact into the inverted indexes, then copies or
  /// moves it into the row store.
  template <typename AtomRef>
  bool InsertRow(AtomRef&& atom);

  std::vector<Atom> atoms_;  // row store: canonical insertion order
  FactStore store_;          // columnar mirror + open-addressing dedup
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
