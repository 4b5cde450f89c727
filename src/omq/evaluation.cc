#include "omq/evaluation.h"

#include <utility>

#include "chase/chase.h"
#include "chase/checkpoint.h"
#include "guarded/omq_eval.h"
#include "query/evaluation.h"
#include "query/tw_evaluation.h"

namespace gqe {

namespace {

/// Chase with optional crash-safe resume: with a checkpoint directory
/// the saturated (or level-bounded) chase is resumed from its last good
/// snapshot — a complete snapshot short-circuits the whole re-chase.
ChaseResult CheckpointedChase(const std::string& checkpoint_dir,
                              const Instance& db, const TgdSet& sigma,
                              const ChaseOptions& options) {
  if (checkpoint_dir.empty()) return Chase(db, sigma, options);
  return ResumeChase(checkpoint_dir, db, sigma, options);
}

}  // namespace

OmqEvalResult EvaluateOmq(const Omq& omq, const Instance& db,
                          const OmqEvalOptions& options) {
  OmqEvalResult result;
  // One governor spans the whole pipeline (portion build / chase plus
  // the query evaluation over the materialized instance).
  GovernorScope scope(options.governor, options.budget);
  Governor* governor = scope.get();
  const bool collect = options.witness.collect;
  if (omq.sigma.empty()) {
    result.method = "empty-ontology";
    if (collect) {
      result.answers = EvaluateUCQWithWitnesses(
          omq.query, db, &result.witness.answers, /*limit=*/0, governor);
      result.witness.kind = EvalWitness::Kind::kAnswers;
      result.witness.certified = true;
    } else {
      result.answers = EvaluateUCQ(omq.query, db, /*limit=*/0, governor);
    }
  } else if (IsGuardedSet(omq.sigma)) {
    result.method = "guarded-portion";
    GuardedEvalOptions guarded_options;
    guarded_options.governor = governor;
    guarded_options.witness = options.witness;
    GuardedAnswersResult guarded = EvaluateGuardedCertainAnswers(
        db, omq.sigma, omq.query, guarded_options);
    result.answers = std::move(guarded.answers);
    if (guarded.portion_truncated) result.exact = false;
    if (collect) {
      result.witness.kind = EvalWitness::Kind::kChaseAndAnswers;
      result.witness.derivation = std::move(guarded.derivation);
      result.witness.answers = std::move(guarded.witnesses);
      result.witness.certified = guarded.certified;
    }
  } else {
    ChaseOptions chase_options;
    chase_options.governor = governor;
    chase_options.collect_witness = collect;
    if (IsObliviousChaseTerminating(omq.sigma)) {
      result.method = "terminating-chase";
    } else {
      result.method = "bounded-chase";
      result.exact = false;
      chase_options.max_level = options.fallback_chase_level;
    }
    ChaseResult chased =
        CheckpointedChase(options.checkpoint_dir, db, omq.sigma,
                          chase_options);
    if (!chased.complete && result.method == "terminating-chase") {
      // A guard rail fired despite a terminating set.
      result.exact = false;
    }
    if (collect) {
      result.answers = EvaluateUCQWithWitnesses(
          omq.query, chased.instance, &result.witness.answers, /*limit=*/0,
          governor);
      result.answers = FilterToDomain(std::move(result.answers), db,
                                      &result.witness.answers);
      result.witness.kind = EvalWitness::Kind::kChaseAndAnswers;
      result.witness.derivation = std::move(chased.derivation);
      // A checkpoint resume from a witness-less (or pre-witness) snapshot
      // cannot reconstruct the trigger log; the answers stand, but the
      // certificate is incomplete.
      result.witness.certified = result.witness.derivation.collected;
    } else {
      result.answers = FilterToDomain(
          EvaluateUCQ(omq.query, chased.instance, /*limit=*/0, governor), db);
    }
  }
  if (collect) result.witness.method = result.method;
  result.status = governor->status();
  if (result.status != Status::kCompleted) {
    // Partial certain-answer status: the reported tuples are sound, the
    // enumeration was cut short.
    result.partial = true;
    result.exact = false;
  }
  return result;
}

bool OmqHolds(const Omq& omq, const Instance& db,
              const std::vector<Term>& answer,
              const OmqEvalOptions& options) {
  GovernorScope scope(options.governor, options.budget);
  Governor* governor = scope.get();
  if (omq.sigma.empty()) {
    return options.use_tree_dp
               ? HoldsUcqTreeDp(omq.query, db, answer, governor)
               : HoldsUCQ(omq.query, db, answer, governor);
  }
  if (IsGuardedSet(omq.sigma)) {
    GuardedEvalOptions guarded_options;
    guarded_options.governor = governor;
    guarded_options.use_tree_dp = options.use_tree_dp;
    return GuardedCertainlyHolds(db, omq.sigma, omq.query, answer,
                                 guarded_options);
  }
  ChaseOptions chase_options;
  chase_options.governor = governor;
  if (!IsObliviousChaseTerminating(omq.sigma)) {
    chase_options.max_level = options.fallback_chase_level;
  }
  ChaseResult chased =
      CheckpointedChase(options.checkpoint_dir, db, omq.sigma, chase_options);
  return options.use_tree_dp
             ? HoldsUcqTreeDp(omq.query, chased.instance, answer, governor)
             : HoldsUCQ(omq.query, chased.instance, answer, governor);
}

}  // namespace gqe
