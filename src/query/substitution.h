#ifndef GQE_QUERY_SUBSTITUTION_H_
#define GQE_QUERY_SUBSTITUTION_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/atom.h"
#include "base/term.h"

namespace gqe {

/// A mapping from terms (usually variables) to terms. Applying a
/// substitution leaves unmapped terms unchanged, so it also serves as a
/// (partial) homomorphism witness.
///
/// Backed by an insertion-ordered flat vector: substitutions bind a
/// handful of variables, so a linear scan beats a hash map's indirection
/// on the homomorphism hot path, and iteration over `entries()` is
/// deterministic (binding order) instead of hash order.
class Substitution {
 public:
  Substitution() = default;

  void Set(Term from, Term to) {
    for (auto& [f, t] : entries_) {
      if (f == from) {
        t = to;
        return;
      }
    }
    entries_.emplace_back(from, to);
  }

  bool Has(Term t) const {
    for (const auto& [f, _] : entries_) {
      if (f == t) return true;
    }
    return false;
  }

  /// Returns the image of `t`, or `t` itself if unmapped.
  Term Apply(Term t) const {
    for (const auto& [f, to] : entries_) {
      if (f == t) return to;
    }
    return t;
  }

  Atom Apply(const Atom& atom) const {
    return Apply(atom.predicate(), atom.args());
  }
  /// The image of the fact pred(args), e.g. a stored fact's span.
  Atom Apply(PredicateId pred, std::span<const Term> args) const;
  std::vector<Atom> Apply(const std::vector<Atom>& atoms) const;
  std::vector<Term> Apply(const std::vector<Term>& terms) const;

  size_t size() const { return entries_.size(); }

  /// The bindings in binding order (first Set of each term).
  const std::vector<std::pair<Term, Term>>& entries() const {
    return entries_;
  }

  /// True if both substitutions bind the same terms to the same images,
  /// regardless of binding order.
  bool SameMapping(const Substitution& other) const;

  /// True if no two mapped terms share an image.
  bool IsInjective() const;

  std::string ToString() const;

 private:
  std::vector<std::pair<Term, Term>> entries_;
};

}  // namespace gqe

#endif  // GQE_QUERY_SUBSTITUTION_H_
