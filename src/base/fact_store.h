#ifndef GQE_BASE_FACT_STORE_H_
#define GQE_BASE_FACT_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "base/flat_table.h"
#include "base/schema.h"
#include "base/term.h"

namespace gqe {

/// Columnar (struct-of-arrays) fact storage: predicates, argument
/// offsets and a single flat Term column, plus the cached 64-bit content
/// hash of every fact and an open-addressing dedup index over the fact
/// ids. The saturation / join loops scan `args(i)` spans straight out of
/// one contiguous Term array instead of chasing one heap vector per Atom,
/// and duplicate detection probes the flat index with the cached hashes —
/// no Atom is materialized on either path.
///
/// Fact ids are dense, assigned in insertion order, and stable forever
/// (the store is append-only between clears). Pointers *into* the Term
/// column are only stable while no fact is appended: appends may grow the
/// column. Hold ids, not spans, across inserts.
class FactStore {
 public:
  FactStore();
  FactStore(const FactStore& other);
  FactStore(FactStore&& other) noexcept;
  FactStore& operator=(const FactStore& other);
  FactStore& operator=(FactStore&& other) noexcept;

  /// Content hash of a fact (predicate + argument bits), the key of the
  /// dedup index. Deterministic across runs and processes modulo the
  /// interner's id assignment.
  static uint64_t HashFact(PredicateId pred, std::span<const Term> args);

  /// Appends the fact if it is not already present. Returns {id, fresh}.
  std::pair<uint32_t, bool> InsertUnique(PredicateId pred,
                                         std::span<const Term> args);

  /// Id of the fact, or -1 if absent.
  int64_t Find(PredicateId pred, std::span<const Term> args) const;

  bool Contains(PredicateId pred, std::span<const Term> args) const {
    return Find(pred, args) >= 0;
  }

  size_t size() const { return preds_.size(); }
  bool empty() const { return preds_.empty(); }

  PredicateId predicate(uint32_t id) const { return preds_[id]; }
  uint32_t arity(uint32_t id) const { return offsets_[id + 1] - offsets_[id]; }
  std::span<const Term> args(uint32_t id) const {
    return {args_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
  }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }

  /// The whole Term column, for sequential cache-friendly sweeps.
  const std::vector<Term>& term_column() const { return args_; }

  /// Pre-sizes the columns and the dedup index (e.g. from a workload
  /// fingerprint or a checkpoint's fact count) so the build pays no
  /// intermediate rehashes. Growing a filled store at least doubles its
  /// fact and term capacity, so per-round calls keep amortized appends.
  void Reserve(size_t facts, size_t terms);

  void clear();

  /// Rehash count of the dedup index (debug guard support).
  uint64_t index_rehashes() const { return index_.rehashes(); }

 private:
  /// Heterogeneous probe for the dedup index: a fact not yet stored.
  struct FactRef {
    PredicateId pred;
    const Term* args;
    uint32_t arity;
    uint64_t hash;
  };

  struct IndexOps {
    const FactStore* store = nullptr;
    uint64_t hash(uint32_t id) const { return store->hashes_[id]; }
    uint64_t hash(const FactRef& ref) const { return ref.hash; }
    bool eq(uint32_t id, const FactRef& ref) const {
      return store->EqualsRef(id, ref);
    }
    bool eq(uint32_t a, uint32_t b) const { return a == b; }
  };

  bool EqualsRef(uint32_t id, const FactRef& ref) const;

  std::vector<PredicateId> preds_;
  std::vector<uint32_t> offsets_;  // size()+1 entries; offsets_[0] == 0
  std::vector<Term> args_;
  std::vector<uint64_t> hashes_;
  flat_internal::RawTable<uint32_t, IndexOps> index_;
};

}  // namespace gqe

#endif  // GQE_BASE_FACT_STORE_H_
