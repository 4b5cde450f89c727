#ifndef GQE_GUARDED_CHASE_TREE_H_
#define GQE_GUARDED_CHASE_TREE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/governor.h"
#include "base/instance.h"
#include "guarded/type_closure.h"
#include "tgd/tgd.h"

namespace gqe {

/// Options for materializing a finite portion of the guarded chase.
struct ChaseTreeOptions {
  /// A child bag whose canonical shape already occurs this many times on
  /// its ancestor path is recorded but not expanded (n-fold blocking).
  /// For certain answers of a CQ with n variables, n+1 repeats suffice:
  /// any homomorphic image that dips below a blocked bag revisits an
  /// ancestor shape often enough to be folded upward.
  int blocking_repeats = 2;

  /// Resource limits: every portion fact is charged against
  /// `budget.max_facts`, and the deadline / cancel token / node budget
  /// govern the bag expansion and its trigger searches. Ignored when
  /// `governor` is set.
  ExecutionBudget budget;

  /// Optional shared governor (see ChaseOptions::governor).
  Governor* governor = nullptr;
};

/// Bags this deep are not expanded and mark the tree truncated (a safety
/// net; blocking normally stops the unfolding long before).
inline constexpr int kMaxBagDepth = 128;

/// One bag (node) of the materialized chase forest.
struct ChaseBag {
  std::vector<Term> elements;
  int parent = -1;  // -1: root bag (over ground elements)
  int depth = 0;
  std::string shape_key;
  std::vector<Term> order;  // elements in the canonical order of shape_key
  bool blocked = false;  // shape repeated; children not materialized
};

/// A finite, homomorphically faithful portion of chase(D,Σ) for guarded Σ:
/// the ground saturation D⁺ plus the null-generating bag forest unfolded
/// with per-path shape blocking. `portion` is an honest sub-instance of
/// the chase (up to null renaming).
struct ChaseTree {
  Instance portion;
  std::vector<ChaseBag> bags;
  bool truncated = false;  // a safety cap was hit (not just blocking)

  /// Index of the bag that introduced each null (by term), -1 for ground.
  int BagOfNull(Term null_term) const;
  std::vector<std::pair<Term, int>> null_home;  // internal map
};

/// Materializes the chase portion. The engine is optional and reusable.
ChaseTree BuildChaseTree(const Instance& db, const TgdSet& sigma,
                         const ChaseTreeOptions& options = {},
                         TypeClosureEngine* engine = nullptr);

/// A child bag the unfolding has built but not yet added to the forest:
/// one existential trigger fired from its parent bag under fresh nulls.
struct ChildBag {
  ChaseBag bag;
  std::vector<Term> new_nulls;  // one per existential variable, in order
  std::vector<Atom> head;       // the trigger's head atoms over new_nulls
  std::vector<Atom> closed;     // its closure over bag.elements under Σ
  int topmost = -1;  // topmost bag of the same shape on the ancestor path
};

/// The forest under construction, as a blocked-child action sees it.
struct BagForest {
  ChaseTree tree;
  Governor* governor = nullptr;

  /// Adds an atom to the portion, charged against the fact budget. On a
  /// trip the atom is dropped, the tree marked truncated and false
  /// returned.
  bool Insert(const Atom& atom);

  /// Adds `child` as a bag: inserts its closure and records the bag that
  /// introduced each of its nulls. Returns the bag's index.
  int Add(ChildBag&& child);
};

/// What becomes of a child whose shape already occurs `blocking_repeats`
/// times on its ancestor path (`child.bag.blocked` is set). Whatever the
/// action adds is never expanded.
using BlockedChildAction = std::function<void(ChildBag&& child, BagForest*)>;

/// The guarded bag unfolding of chase(D,Σ) that both the chase portion
/// (Proposition 3.1) and the finite witness (Definition 6.5) walk: the
/// ground saturation D⁺, one root bag per distinct guarded set of D⁺,
/// then breadth-first expansion of each bag's closure by every
/// existential trigger, each trigger fired once. A child whose shape
/// repeats `blocking_repeats` times on its path goes to `on_blocked`;
/// every other child joins the forest and is expanded in turn, up to
/// kMaxBagDepth. BuildChaseTree keeps blocked children as leaves.
/// `governor` (non-null) is charged for every fact and trigger search.
ChaseTree UnfoldChaseTree(const Instance& db, const TgdSet& sigma,
                          int blocking_repeats, Governor* governor,
                          TypeClosureEngine* engine,
                          const BlockedChildAction& on_blocked);

/// Canonical shape of a bag (atoms over `elements`) under element
/// renaming: the smallest serialization over all element orders, ties
/// (a bag without atoms) going to the ascending order. When `order` is
/// non-null it receives the element order realizing the canonical form:
/// bags with equal keys are isomorphic via matching positions of their
/// orders.
std::string BagShapeKey(const std::vector<Atom>& atoms,
                        const std::vector<Term>& elements,
                        std::vector<Term>* order = nullptr);

}  // namespace gqe

#endif  // GQE_GUARDED_CHASE_TREE_H_
