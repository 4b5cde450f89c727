#include "base/fact_store.h"

#include <algorithm>
#include <cstring>

namespace gqe {

FactStore::FactStore() {
  index_.ops().store = this;
  offsets_.push_back(0);
}

FactStore::FactStore(const FactStore& other)
    : preds_(other.preds_),
      offsets_(other.offsets_),
      args_(other.args_),
      hashes_(other.hashes_),
      index_(other.index_) {
  index_.ops().store = this;
}

FactStore::FactStore(FactStore&& other) noexcept
    : preds_(std::move(other.preds_)),
      offsets_(std::move(other.offsets_)),
      args_(std::move(other.args_)),
      hashes_(std::move(other.hashes_)),
      index_(std::move(other.index_)) {
  index_.ops().store = this;
  other.offsets_.push_back(0);
  other.index_.ops().store = &other;
}

FactStore& FactStore::operator=(const FactStore& other) {
  if (this == &other) return *this;
  preds_ = other.preds_;
  offsets_ = other.offsets_;
  args_ = other.args_;
  hashes_ = other.hashes_;
  index_ = other.index_;
  index_.ops().store = this;
  return *this;
}

FactStore& FactStore::operator=(FactStore&& other) noexcept {
  if (this == &other) return *this;
  preds_ = std::move(other.preds_);
  offsets_ = std::move(other.offsets_);
  args_ = std::move(other.args_);
  hashes_ = std::move(other.hashes_);
  index_ = std::move(other.index_);
  index_.ops().store = this;
  other.offsets_.push_back(0);
  other.index_.ops().store = &other;
  return *this;
}

uint64_t FactStore::HashFact(PredicateId pred, std::span<const Term> args) {
  uint64_t h = HashShuffle(0x9e3779b97f4a7c15ULL ^ pred);
  for (Term t : args) h = HashShuffle(h ^ t.bits());
  return h;
}

bool FactStore::EqualsRef(uint32_t id, const FactRef& ref) const {
  if (preds_[id] != ref.pred) return false;
  const uint32_t begin = offsets_[id];
  if (offsets_[id + 1] - begin != ref.arity) return false;
  return ref.arity == 0 ||
         std::memcmp(args_.data() + begin, ref.args,
                     ref.arity * sizeof(Term)) == 0;
}

std::pair<uint32_t, bool> FactStore::InsertUnique(
    PredicateId pred, std::span<const Term> args) {
  const FactRef ref{pred, args.data(), static_cast<uint32_t>(args.size()),
                    HashFact(pred, args)};
  auto [slot, fresh] = index_.InsertWith(ref, [&]() {
    const uint32_t new_id = static_cast<uint32_t>(preds_.size());
    preds_.push_back(pred);
    args_.insert(args_.end(), args.begin(), args.end());
    offsets_.push_back(static_cast<uint32_t>(args_.size()));
    hashes_.push_back(ref.hash);
    return new_id;
  });
  return {*slot, fresh};
}

int64_t FactStore::Find(PredicateId pred, std::span<const Term> args) const {
  const FactRef ref{pred, args.data(), static_cast<uint32_t>(args.size()),
                    HashFact(pred, args)};
  const uint32_t* slot = index_.find(ref);
  return slot == nullptr ? -1 : static_cast<int64_t>(*slot);
}

void FactStore::Reserve(size_t facts, size_t terms) {
  if (facts > preds_.capacity()) {
    facts = std::max(facts, 2 * preds_.capacity());
  }
  if (terms > args_.capacity()) terms = std::max(terms, 2 * args_.capacity());
  preds_.reserve(facts);
  offsets_.reserve(facts + 1);
  args_.reserve(terms);
  hashes_.reserve(facts);
  index_.reserve(facts);
}

void FactStore::clear() {
  preds_.clear();
  offsets_.clear();
  offsets_.push_back(0);
  args_.clear();
  hashes_.clear();
  index_.clear();
}

}  // namespace gqe
