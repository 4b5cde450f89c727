#ifndef GQE_LINEAR_LINEAR_CHASE_H_
#define GQE_LINEAR_LINEAR_CHASE_H_

#include <vector>

#include "base/instance.h"
#include "query/cq.h"
#include "tgd/tgd.h"
#include "verify/witness.h"

namespace gqe {

/// Result of level-bounded linear-chase evaluation (Lemma A.1: for linear
/// Σ there is a computable level g(‖Σ‖+‖q‖) such that
/// q(chase(D,Σ)) = q(chase^g(D,Σ))).
struct LinearChaseEvalResult {
  std::vector<std::vector<Term>> answers;

  /// The first level at which the answer set became stable (and stayed
  /// stable through the run).
  int stabilization_level = 0;

  /// Levels actually built.
  int levels_built = 0;

  bool hit_level_cap = false;
};

/// Evaluates a UCQ over the chase of a linear set built to `max_level`
/// (or to saturation, if sooner) and reports the level at which the
/// answer set last changed. It never stops early on an answer set that
/// stayed the same for a few levels: answers can first appear at any
/// level up to the Lemma A.1 bound, so such a stop would be unsound.
LinearChaseEvalResult LinearCertainAnswersViaChase(const Instance& db,
                                                   const TgdSet& sigma,
                                                   const UCQ& query,
                                                   int max_level = 32);

/// Exact certain answers via UCQ rewriting (Proposition D.2): rewrite
/// first, then evaluate over D directly.
std::vector<std::vector<Term>> LinearCertainAnswersViaRewriting(
    const Instance& db, const TgdSet& sigma, const UCQ& query);

/// Witness-emitting variant: `witnesses` receives one provenance record
/// per answer (aligned index-by-index) — the rewritten disjunct that
/// matched, the homomorphism placing it in D, and the rewriting depth.
/// VerifyRewriteProvenance re-checks each record against the *original*
/// query by chasing the homomorphic image forward, independent of the
/// rewriting procedure that produced it.
std::vector<std::vector<Term>> LinearCertainAnswersViaRewriting(
    const Instance& db, const TgdSet& sigma, const UCQ& query,
    std::vector<RewriteWitness>* witnesses);

}  // namespace gqe

#endif  // GQE_LINEAR_LINEAR_CHASE_H_
