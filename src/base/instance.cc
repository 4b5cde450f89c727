#include "base/instance.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>

namespace gqe {

namespace {
const std::vector<uint32_t>& EmptyIndexVector() {
  static const std::vector<uint32_t>* const kEmpty =
      new std::vector<uint32_t>();
  return *kEmpty;
}
}  // namespace

bool Instance::Insert(PredicateId pred, std::span<const Term> args) {
  assert(std::none_of(args.begin(), args.end(),
                      [](Term t) { return t.IsVariable(); }) &&
         "instances contain only ground atoms");
  auto [index, fresh] = store_.InsertUnique(pred, args);
  if (!fresh) return false;
  if (pred >= by_predicate_.size()) by_predicate_.resize(pred + 1);
  std::vector<uint32_t>& preds = by_predicate_[pred];
  if (preds.empty()) pred_order_.push_back(pred);
  preds.push_back(index);
  for (size_t pos = 0; pos < args.size(); ++pos) {
    const Term t = args[pos];
    by_position_[MakePosKey(pred, static_cast<int>(pos), t)].push_back(index);
    if (domain_set_.insert(t).second) domain_.push_back(t);
    std::vector<uint32_t>& mentions = by_term_[t];
    if (mentions.empty() || mentions.back() != index) {
      mentions.push_back(index);
    }
  }
  return true;
}

void Instance::InsertAll(const Instance& other) {
  Reserve(size() + other.size(), store_.term_column().size() +
                                     other.store_.term_column().size());
  for (uint32_t i = 0; i < other.size(); ++i) {
    Insert(other.predicate_of(i), other.args_of(i));
  }
}

void Instance::InsertAll(const std::vector<Atom>& atoms) {
  for (const Atom& atom : atoms) Insert(atom);
}

Atom Instance::atom(size_t index) const {
  const std::span<const Term> args = args_of(index);
  return Atom(predicate_of(index), {args.begin(), args.end()});
}

std::vector<Atom> Instance::atoms() const {
  std::vector<Atom> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back(atom(i));
  return out;
}

bool Instance::Contains(const Atom& atom) const {
  return store_.Contains(atom.predicate(), atom.args());
}

int64_t Instance::Find(const Atom& atom) const {
  return store_.Find(atom.predicate(), atom.args());
}

void Instance::Reserve(size_t facts, size_t terms) {
  // dom(I) never outgrows the instance's argument positions.
  domain_set_.reserve(terms);
  store_.Reserve(facts, terms);
}

const std::vector<uint32_t>& Instance::FactsWithPredicate(
    PredicateId pred) const {
  if (pred >= by_predicate_.size()) return EmptyIndexVector();
  return by_predicate_[pred];
}

const std::vector<uint32_t>& Instance::FactsWith(PredicateId pred,
                                                 int position,
                                                 Term term) const {
  const std::vector<uint32_t>* postings =
      by_position_.value(MakePosKey(pred, position, term));
  return postings == nullptr ? EmptyIndexVector() : *postings;
}

Instance Instance::Restrict(const std::vector<Term>& keep) const {
  FlatSet<Term> keep_set(keep.size());
  for (Term t : keep) keep_set.insert(t);
  Instance out;
  for (uint32_t i = 0; i < size(); ++i) {
    const std::span<const Term> args = store_.args(i);
    if (std::all_of(args.begin(), args.end(),
                    [&](Term t) { return keep_set.contains(t); })) {
      out.Insert(store_.predicate(i), args);
    }
  }
  return out;
}

Schema Instance::InducedSchema() const {
  Schema schema;
  for (PredicateId pred : pred_order_) schema.Add(pred);
  return schema;
}

const std::vector<uint32_t>& Instance::FactsMentioning(Term t) const {
  const std::vector<uint32_t>* mentions = by_term_.value(t);
  return mentions == nullptr ? EmptyIndexVector() : *mentions;
}

std::vector<Atom> Instance::AtomsOver(const std::vector<Term>& elements) const {
  FlatSet<Term> element_set(elements.size());
  for (Term t : elements) element_set.insert(t);
  FlatSet<uint32_t> seen;
  std::vector<Atom> out;
  // 0-ary facts have empty domains and belong in every restriction.
  for (PredicateId pred : pred_order_) {
    if (predicates::Arity(pred) == 0) {
      for (uint32_t index : by_predicate_[pred]) out.push_back(atom(index));
    }
  }
  for (Term e : elements) {
    for (uint32_t index : FactsMentioning(e)) {
      if (!seen.insert(index).second) continue;
      const std::span<const Term> args = store_.args(index);
      if (std::all_of(args.begin(), args.end(),
                      [&](Term t) { return element_set.contains(t); })) {
        out.push_back(atom(index));
      }
    }
  }
  return out;
}

bool Instance::SubsetOf(const Instance& other) const {
  for (uint32_t i = 0; i < size(); ++i) {
    if (!other.store_.Contains(store_.predicate(i), store_.args(i))) {
      return false;
    }
  }
  return true;
}

uint64_t Instance::IndexRehashes() const {
  return store_.index_rehashes() + by_position_.rehashes() +
         domain_set_.rehashes() + by_term_.rehashes();
}

std::string Instance::ToString() const {
  std::ostringstream out;
  out << "{";
  std::vector<Atom> sorted = atoms();
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out << ", ";
    out << sorted[i];
  }
  out << "}";
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const Instance& instance) {
  return os << instance.ToString();
}

}  // namespace gqe
