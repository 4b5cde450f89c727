#ifndef GQE_FC_WITNESS_H_
#define GQE_FC_WITNESS_H_

#include <string>

#include "base/governor.h"
#include "base/instance.h"
#include "omq/omq.h"
#include "query/cq.h"
#include "tgd/tgd.h"

namespace gqe {

/// A finite model M(D, Σ, n) in the sense of Definition 6.5 (strong
/// finite controllability): M ⊇ D, M |= Σ, and q(M) = q(chase(D,Σ)) for
/// every UCQ q with at most n variables. The paper obtains such witnesses
/// non-constructively through GNFO's 2^2^poly finite-model property
/// (Theorem 6.7); this module builds them constructively by *folding* the
/// guarded chase: the bag forest of the chase portion (UnfoldChaseTree)
/// is unfolded until a bag shape repeats n+1 times on a path, and the
/// blocked bag's existential witnesses are redirected to the path-topmost
/// bag of the same shape, closing cycles of length > n that no
/// n-variable query can see. Bags at kMaxBagDepth are not expanded; the
/// validating patch chase then decides whether the result is a model.
struct FiniteWitness {
  Instance model;

  /// Validated: model |= Σ. When folding leaves residual violations a
  /// bounded restricted chase patches them; if violations survive even
  /// that, this is false and the witness must not be used.
  bool is_model = false;

  /// True when the witness came straight from a terminating restricted
  /// chase (exact for every query, not just n-variable ones).
  bool from_terminating_chase = false;

  size_t folds = 0;

  /// Why the build ended; non-Completed implies is_model == false.
  Status status = Status::kCompleted;
};

struct FiniteWitnessOptions {
  /// Resource limits for the fold loop and the validation patch chase.
  /// Ignored when `governor` is set.
  ExecutionBudget budget;

  /// Optional shared governor (see ChaseOptions::governor). The initial
  /// restricted-chase probe always runs under its own sub-budget governor
  /// (capped at `restricted_chase_facts`, inheriting the cancel token but
  /// with a fresh deadline window) so an aggressive probe cannot drain
  /// the shared budget.
  Governor* governor = nullptr;

  /// Fact budget for the initial restricted-chase attempt.
  size_t restricted_chase_facts = 5000;
};

/// Builds M(D, Σ, n) for guarded Σ.
FiniteWitness BuildFiniteWitness(const Instance& db, const TgdSet& sigma,
                                 int n, const FiniteWitnessOptions& options = {});

/// Checks the Definition 6.5 property for one concrete query: the
/// witness's closed-world answers over dom(D) coincide with the certain
/// answers over (D, Σ).
bool WitnessAgreesOnQuery(const FiniteWitness& witness, const Instance& db,
                          const TgdSet& sigma, const UCQ& query);

/// The Proposition 5.8 / Lemma 6.8 fpt-reduction from OMQ evaluation to
/// CQS evaluation: builds D* = D⁺ ∪ ⋃_{ā∈A} M(D⁺|ā, Σ, n) with
/// (1) D* |= Σ and (2) Q(D) = q(D*) (closed-world).
struct OmqToCqsReduction {
  Instance dstar;
  bool exact = false;        // all witnesses validated
  size_t witness_count = 0;  // |A|
};

OmqToCqsReduction ReduceOmqToCqs(const Omq& omq, const Instance& db,
                                 const FiniteWitnessOptions& options = {});

}  // namespace gqe

#endif  // GQE_FC_WITNESS_H_
