#include "base/instance.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>
#include <utility>

namespace gqe {

namespace {
const std::vector<uint32_t>& EmptyIndexVector() {
  static const std::vector<uint32_t>* const kEmpty =
      new std::vector<uint32_t>();
  return *kEmpty;
}
}  // namespace

template <typename AtomRef>
bool Instance::InsertRow(AtomRef&& atom) {
  assert(atom.IsGround() && "instances contain only ground atoms");
  const uint32_t arity = static_cast<uint32_t>(atom.arity());
  auto [index, fresh] =
      store_.InsertUnique(atom.predicate(), atom.args().data(), arity);
  if (!fresh) return false;
  assert(index == atoms_.size() && "row store and columnar store diverged");
  if (atom.predicate() >= by_predicate_.size()) {
    by_predicate_.resize(atom.predicate() + 1);
  }
  std::vector<uint32_t>& preds = by_predicate_[atom.predicate()];
  if (preds.empty()) pred_order_.push_back(atom.predicate());
  preds.push_back(index);
  for (int pos = 0; pos < atom.arity(); ++pos) {
    Term t = atom.args()[pos];
    by_position_[MakePosKey(atom.predicate(), pos, t)].push_back(index);
    if (domain_set_.insert(t).second) domain_.push_back(t);
    std::vector<uint32_t>& mentions = by_term_[t];
    if (mentions.empty() || mentions.back() != index) {
      mentions.push_back(index);
    }
  }
  // Last, so the indexing above still reads a not-yet-moved `atom`.
  atoms_.push_back(std::forward<AtomRef>(atom));
  return true;
}

bool Instance::Insert(const Atom& atom) { return InsertRow(atom); }

bool Instance::Insert(Atom&& atom) { return InsertRow(std::move(atom)); }

void Instance::InsertAll(const Instance& other) {
  Reserve(size() + other.size(), store_.term_column().size() +
                                     other.store_.term_column().size());
  for (const Atom& atom : other.atoms()) Insert(atom);
}

void Instance::InsertAll(const std::vector<Atom>& atoms) {
  for (const Atom& atom : atoms) Insert(atom);
}

bool Instance::Contains(const Atom& atom) const {
  return store_.Contains(atom.predicate(), atom.args().data(),
                         static_cast<uint32_t>(atom.arity()));
}

int64_t Instance::Find(const Atom& atom) const {
  return store_.Find(atom.predicate(), atom.args().data(),
                     static_cast<uint32_t>(atom.arity()));
}

void Instance::Reserve(size_t facts, size_t terms) {
  // dom(I) never outgrows the instance's argument positions.
  domain_set_.reserve(terms);
  if (facts > atoms_.capacity()) {
    facts = std::max(facts, 2 * atoms_.capacity());
  }
  const size_t term_capacity = store_.term_column().capacity();
  if (terms > term_capacity) terms = std::max(terms, 2 * term_capacity);
  atoms_.reserve(facts);
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
  for (uint32_t i = 0; i < atoms_.size(); ++i) {
    bool all = true;
    for (Term t : store_.args(i)) {
      if (!keep_set.contains(t)) {
        all = false;
        break;
      }
    }
    if (all) out.Insert(atoms_[i]);
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
      for (uint32_t index : by_predicate_[pred]) out.push_back(atoms_[index]);
    }
  }
  for (Term e : elements) {
    for (uint32_t index : FactsMentioning(e)) {
      if (!seen.insert(index).second) continue;
      bool inside = true;
      for (Term t : store_.args(index)) {
        if (!element_set.contains(t)) {
          inside = false;
          break;
        }
      }
      if (inside) out.push_back(atoms_[index]);
    }
  }
  return out;
}

bool Instance::SetEquals(const Instance& other) const {
  return size() == other.size() && SubsetOf(other);
}

bool Instance::SubsetOf(const Instance& other) const {
  for (const Atom& atom : atoms_) {
    if (!other.Contains(atom)) return false;
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
  std::vector<Atom> sorted = atoms_;
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
