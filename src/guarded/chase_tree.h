#ifndef GQE_GUARDED_CHASE_TREE_H_
#define GQE_GUARDED_CHASE_TREE_H_

#include <cstdint>
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

  /// Hard depth cap on the bag forest (safety net).
  int max_depth = 128;

  /// Resource limits: every portion fact is charged against
  /// `budget.max_facts`, and the deadline / cancel token / node budget
  /// govern the bag expansion and its trigger searches. Ignored when
  /// `governor` is set.
  ExecutionBudget budget;

  /// Optional shared governor (see ChaseOptions::governor).
  Governor* governor = nullptr;
};

/// One bag (node) of the materialized chase forest.
struct ChaseBag {
  std::vector<Term> elements;
  int parent = -1;  // -1: root bag (over ground elements)
  int depth = 0;
  std::string shape_key;
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

/// Canonical shape of a bag (atoms over `elements`) under element
/// renaming. When `order` is non-null it receives the element order
/// realizing the canonical form: bags with equal keys are isomorphic via
/// matching positions of their orders.
std::string BagShapeKey(const std::vector<Atom>& atoms,
                        const std::vector<Term>& elements,
                        std::vector<Term>* order = nullptr);

}  // namespace gqe

#endif  // GQE_GUARDED_CHASE_TREE_H_
