#ifndef GQE_BASE_ATOM_H_
#define GQE_BASE_ATOM_H_

#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "base/schema.h"
#include "base/term.h"

namespace gqe {

/// Appends the distinct ground terms (constants and nulls) of `args` to
/// `out` that it does not hold yet, in order of first occurrence.
void CollectGroundTerms(std::span<const Term> args, std::vector<Term>* out);

/// An atom R(t1,...,tn): a predicate applied to terms (paper, Section 2).
/// Atoms over constants/nulls only are *facts* and populate instances;
/// atoms with variables appear in queries and TGDs.
class Atom {
 public:
  Atom() : predicate_(0) {}
  Atom(PredicateId predicate, std::vector<Term> args);

  /// Convenience factory that interns the predicate with the arity implied
  /// by the argument list.
  static Atom Make(std::string_view predicate_name,
                   std::vector<Term> args);

  PredicateId predicate() const { return predicate_; }
  const std::vector<Term>& args() const { return args_; }
  std::vector<Term>& mutable_args() { return args_; }
  int arity() const { return static_cast<int>(args_.size()); }

  /// True if no argument is a variable.
  bool IsGround() const;

  /// Appends the distinct variables of this atom to `out` (in order of
  /// first occurrence, no duplicates against the existing contents).
  void CollectVariables(std::vector<Term>* out) const;


  /// True if every term in `terms` occurs in this atom. Used for guard
  /// checks.
  bool ContainsAll(const std::vector<Term>& terms) const;

  bool Contains(Term t) const;

  std::string ToString() const;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.predicate_ == b.predicate_ && a.args_ == b.args_;
  }
  friend bool operator!=(const Atom& a, const Atom& b) { return !(a == b); }
  friend bool operator<(const Atom& a, const Atom& b) {
    if (a.predicate_ != b.predicate_) return a.predicate_ < b.predicate_;
    return a.args_ < b.args_;
  }

 private:
  PredicateId predicate_;
  std::vector<Term> args_;
};

std::ostream& operator<<(std::ostream& os, const Atom& atom);

struct AtomHash {
  size_t operator()(const Atom& atom) const;
};

/// Returns the distinct variables occurring in `atoms`, in order of first
/// occurrence.
std::vector<Term> VariablesOf(const std::vector<Atom>& atoms);

/// Returns the distinct ground terms (constants/nulls) in `atoms`.
std::vector<Term> GroundTermsOf(const std::vector<Atom>& atoms);

/// Prints a comma-separated atom list.
std::string AtomsToString(const std::vector<Atom>& atoms);

}  // namespace gqe

#endif  // GQE_BASE_ATOM_H_
