#ifndef GQE_GUARDED_TYPE_CLOSURE_H_
#define GQE_GUARDED_TYPE_CLOSURE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "base/atom.h"
#include "base/instance.h"
#include "base/term.h"
#include "tgd/tgd.h"

namespace gqe {

/// Tabled closure computation for guarded TGD sets.
///
/// For guarded Σ every TGD body is covered by a single atom, so all
/// reasoning factors through *bags*: a set of at most w elements together
/// with the atoms over them (w bounded by Σ). This engine computes, for a
/// bag, every atom over its elements entailed by Σ — i.e. the restriction
/// of chase(bag, Σ) to the bag's elements. It memoizes results per
/// canonical bag *shape* (the bag up to renaming of elements), so repeated
/// and recursive shapes are computed once; recursion through existential
/// rules is resolved by a global fixpoint over the shape table.
///
/// This plays the role of the paper's type-based machinery: the types of
/// Lemma A.3 / Appendix A and the atomic rewriting ξ(Σ) of [24] — both
/// compute exactly these closures.
class TypeClosureEngine {
 public:
  /// `sigma` must be guarded (checked). The engine keeps references; the
  /// set must outlive the engine.
  explicit TypeClosureEngine(const TgdSet& sigma);

  /// Returns all atoms over `elements` entailed by Σ from `atoms`. Every
  /// atom in `atoms` must mention only terms from `elements`. The result
  /// contains `atoms` itself.
  std::vector<Atom> Closure(const std::vector<Atom>& atoms,
                            const std::vector<Term>& elements);

  /// Number of distinct canonical shapes in the memo table (a measure of
  /// the type space explored; bounded by a function of Σ only).
  size_t num_shapes() const { return entries_.size(); }

  /// The stable placeholder element used at canonical position `i`.
  static Term Placeholder(int i);

 private:
  struct Entry {
    Instance closure;  // current closure (over placeholders)
    int num_elements = 0;
  };

  /// Ensures an entry exists for the bag's canonical shape (BagShapeKey);
  /// returns the key. `order` receives the element order used
  /// (order[i] = element mapped to Placeholder(i)).
  std::string InternBag(const std::vector<Atom>& atoms,
                        const std::vector<Term>& elements,
                        std::vector<Term>* order);

  /// Applies all TGDs to one entry; returns true if its closure grew.
  /// May create new entries for child bags.
  bool ProcessEntry(const std::string& key);

  /// Runs rounds over all entries until global fixpoint.
  void FixpointAll();

  const TgdSet& sigma_;
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace gqe

#endif  // GQE_GUARDED_TYPE_CLOSURE_H_
