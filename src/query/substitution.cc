#include "query/substitution.h"

#include "base/flat_table.h"

namespace gqe {

Atom Substitution::Apply(PredicateId pred, std::span<const Term> args) const {
  std::vector<Term> image;
  image.reserve(args.size());
  for (Term t : args) image.push_back(Apply(t));
  return Atom(pred, std::move(image));
}

std::vector<Atom> Substitution::Apply(const std::vector<Atom>& atoms) const {
  std::vector<Atom> out;
  out.reserve(atoms.size());
  for (const Atom& atom : atoms) out.push_back(Apply(atom));
  return out;
}

std::vector<Term> Substitution::Apply(const std::vector<Term>& terms) const {
  std::vector<Term> out;
  out.reserve(terms.size());
  for (Term t : terms) out.push_back(Apply(t));
  return out;
}

bool Substitution::SameMapping(const Substitution& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  for (const auto& [from, to] : entries_) {
    if (!other.Has(from) || other.Apply(from) != to) return false;
  }
  return true;
}

bool Substitution::IsInjective() const {
  FlatSet<Term> images(entries_.size());
  for (const auto& [from, to] : entries_) {
    if (!images.insert(to).second) return false;
  }
  return true;
}

std::string Substitution::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [from, to] : entries_) {
    if (!first) out += ", ";
    first = false;
    out += from.ToString() + "->" + to.ToString();
  }
  out += "}";
  return out;
}

}  // namespace gqe
