#ifndef GQE_QUERY_HOMOMORPHISM_H_
#define GQE_QUERY_HOMOMORPHISM_H_

#include <functional>
#include <optional>
#include <vector>

#include "base/atom.h"
#include "base/governor.h"
#include "base/instance.h"
#include "query/substitution.h"

namespace gqe {

/// Options for homomorphism search.
struct HomOptions {
  /// Require the mapping to be injective over variables *and* with respect
  /// to the constants/nulls occurring in the pattern (the paper's |=io
  /// checks need full injectivity of h on dom(D[q])).
  bool injective = false;

  /// Pre-assigned variables (e.g. candidate answers). Assignments must map
  /// variables to ground terms.
  Substitution fixed;

  /// Optional shared resource governor. Every candidate fact tried is a
  /// search node charged against the governor's budget; once the governor
  /// trips, the searcher abandons its remaining subtrees promptly and the
  /// enumeration is incomplete — check HomomorphismSearch::status() or the
  /// governor itself.
  Governor* governor = nullptr;
};

/// Backtracking homomorphism search: maps the variables of `pattern` into
/// the active domain of `target` such that every instantiated atom is a
/// fact of `target`. Constants and nulls occurring in `pattern` must map
/// to themselves (freeze non-fixed elements as variables to relax this;
/// see PatternFromInstance).
class HomomorphismSearch {
 public:
  HomomorphismSearch(const std::vector<Atom>& pattern, const Instance& target,
                     HomOptions options = {});

  /// Finds one homomorphism, if any: the first one in deterministic
  /// enumeration order.
  std::optional<Substitution> FindOne();

  /// Invokes `callback` for every homomorphism until it returns false.
  /// Returns the number of homomorphisms visited. The search is
  /// sequential and deterministic: callbacks arrive in enumeration order.
  size_t ForEach(const std::function<bool(const Substitution&)>& callback);

  /// Collects up to `limit` homomorphisms (0 = all), in enumeration
  /// order: FindAll(limit) is a prefix of FindAll().
  std::vector<Substitution> FindAll(size_t limit = 0);

  bool Exists();

  /// Status of the most recent FindOne/ForEach/FindAll/Exists call:
  /// kCompleted for a full enumeration, else the governor's trip cause
  /// (the results seen so far are a sound subset).
  Status status() const { return status_; }

 private:
  /// Records the governed status after a public entry point ran.
  void RecordStatus();

  const std::vector<Atom>& pattern_;
  const Instance& target_;
  HomOptions options_;
  Status status_ = Status::kCompleted;
};

/// Convenience: is there a homomorphism from `from` to `to` (instances),
/// treating every domain element of `from` except those in `fixed` as a
/// variable, and requiring elements of `fixed` to map to themselves?
/// Returns the witnessing element mapping.
std::optional<Substitution> InstanceHomomorphism(
    const Instance& from, const Instance& to,
    const std::vector<Term>& fixed = {}, bool injective = false);

/// Rewrites the facts of `from` into a pattern where every domain element
/// not in `fixed` becomes a variable. `element_to_var` receives the
/// element-to-variable correspondence.
std::vector<Atom> PatternFromInstance(
    const Instance& from, const std::vector<Term>& fixed,
    std::unordered_map<Term, Term>* element_to_var);

}  // namespace gqe

#endif  // GQE_QUERY_HOMOMORPHISM_H_
