#include "base/atom.h"

#include <algorithm>
#include <cassert>
#include <ostream>

namespace gqe {

Atom::Atom(PredicateId predicate, std::vector<Term> args)
    : predicate_(predicate), args_(std::move(args)) {
  assert(predicates::Arity(predicate_) ==
         static_cast<int>(args_.size()));
}

Atom Atom::Make(std::string_view predicate_name, std::vector<Term> args) {
  const PredicateId id =
      predicates::Intern(predicate_name, static_cast<int>(args.size()));
  return Atom(id, std::move(args));
}

bool Atom::IsGround() const {
  for (Term t : args_) {
    if (t.IsVariable()) return false;
  }
  return true;
}

void Atom::CollectVariables(std::vector<Term>* out) const {
  for (Term t : args_) {
    if (t.IsVariable() &&
        std::find(out->begin(), out->end(), t) == out->end()) {
      out->push_back(t);
    }
  }
}

void CollectGroundTerms(std::span<const Term> args, std::vector<Term>* out) {
  for (Term t : args) {
    if (t.IsGround() &&
        std::find(out->begin(), out->end(), t) == out->end()) {
      out->push_back(t);
    }
  }
}

bool Atom::ContainsAll(const std::vector<Term>& terms) const {
  for (Term t : terms) {
    if (!Contains(t)) return false;
  }
  return true;
}

bool Atom::Contains(Term t) const {
  return std::find(args_.begin(), args_.end(), t) != args_.end();
}

std::string Atom::ToString() const {
  std::string out(predicates::Name(predicate_));
  out += "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ",";
    out += args_[i].ToString();
  }
  out += ")";
  return out;
}

std::ostream& operator<<(std::ostream& os, const Atom& atom) {
  return os << atom.ToString();
}

size_t AtomHash::operator()(const Atom& atom) const {
  size_t h = static_cast<size_t>(atom.predicate()) * 0x9e3779b97f4a7c15ull;
  for (Term t : atom.args()) {
    h ^= TermHash{}(t) + 0x9e3779b9u + (h << 6) + (h >> 2);
  }
  return h;
}

std::vector<Term> VariablesOf(const std::vector<Atom>& atoms) {
  std::vector<Term> vars;
  for (const Atom& atom : atoms) atom.CollectVariables(&vars);
  return vars;
}

std::vector<Term> GroundTermsOf(const std::vector<Atom>& atoms) {
  std::vector<Term> out;
  for (const Atom& atom : atoms) CollectGroundTerms(atom.args(), &out);
  return out;
}

std::string AtomsToString(const std::vector<Atom>& atoms) {
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms[i].ToString();
  }
  return out;
}

}  // namespace gqe
