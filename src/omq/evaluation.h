#ifndef GQE_OMQ_EVALUATION_H_
#define GQE_OMQ_EVALUATION_H_

#include <string>
#include <vector>

#include "base/governor.h"
#include "base/instance.h"
#include "omq/omq.h"
#include "verify/witness.h"

namespace gqe {

/// How an OMQ was evaluated, with an exactness guarantee.
struct OmqEvalResult {
  std::vector<std::vector<Term>> answers;

  /// True if the method is sound and complete for the ontology class
  /// (guarded / terminating sets); false for the bounded-chase fallback
  /// or any governed (partial) run.
  bool exact = true;

  /// One of "empty-ontology", "guarded-portion", "terminating-chase",
  /// "bounded-chase".
  std::string method;

  /// Why the run ended (a guard rail, or kCompleted).
  Status status = Status::kCompleted;

  /// True when a guard rail tripped somewhere in the pipeline: the
  /// reported answers are a sound under-approximation of the certain
  /// answers, not necessarily all of them.
  bool partial = false;

  /// Machine-checkable certificate (only with options.witness.collect):
  /// per-answer homomorphism witnesses, plus — for the chase-backed
  /// methods — the replayable derivation log of the instance the
  /// homomorphisms target. See verify/verifier.h for the checkers.
  EvalWitness witness;
};

/// Options for OMQ evaluation.
struct OmqEvalOptions {
  /// Level bound for the bounded-chase fallback (non-guarded,
  /// non-terminating ontologies, e.g. general frontier-guarded sets).
  int fallback_chase_level = 16;

  /// One budget for the whole pipeline: the nested engines (guarded
  /// portion build or chase, then query evaluation) share a single
  /// governor, so OMQ → chase no longer multiplies caps. Ignored when
  /// `governor` is set.
  ExecutionBudget budget;

  /// Optional shared governor (see ChaseOptions::governor).
  Governor* governor = nullptr;

  /// OmqHolds only: decide the candidate answer with the Prop. 2.1
  /// tree-decomposition DP (the Prop. 3.3(3) FPT algorithm when
  /// q ∈ UCQ_k) instead of the backtracking join; on guarded ontologies
  /// it is passed on to GuardedCertainlyHolds. EvaluateOmq enumerates
  /// answers with the backtracking join and ignores it.
  bool use_tree_dp = false;

  /// When non-empty, crash-safe evaluation for the two chase paths
  /// (terminating and bounded): they resume from (and write)
  /// round-boundary snapshots in this directory instead of re-chasing
  /// from scratch, and a directory written by a different workload is
  /// detected by fingerprint and ignored. The guarded path ignores it and
  /// always builds its portion afresh.
  std::string checkpoint_dir;

  /// Certificate collection (verify/witness.h). Off by default: the
  /// chase logs every trigger firing and each answer is paired with its
  /// witnessing homomorphism, which costs memory proportional to the
  /// materialized instance.
  WitnessOptions witness;
};

/// Certain answers Q(D) (Section 3.1 / Proposition 3.1). Dispatches by
/// ontology class: direct evaluation (empty Σ), guarded chase portion
/// (Σ ∈ G, exact), full chase (oblivious-terminating Σ, exact), bounded
/// chase (otherwise, sound but possibly incomplete — flagged).
OmqEvalResult EvaluateOmq(const Omq& omq, const Instance& db,
                          const OmqEvalOptions& options = {});

/// Decides c̄ ∈ Q(D) — the paper's OMQ-Evaluation problem.
bool OmqHolds(const Omq& omq, const Instance& db,
              const std::vector<Term>& answer,
              const OmqEvalOptions& options = {});

}  // namespace gqe

#endif  // GQE_OMQ_EVALUATION_H_
