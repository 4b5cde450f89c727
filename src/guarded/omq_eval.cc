#include "guarded/omq_eval.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "chase/chase.h"
#include "query/evaluation.h"
#include "query/tw_evaluation.h"

namespace gqe {

namespace {

size_t MaxQueryVariables(const UCQ& query) {
  size_t max_vars = 0;
  for (const CQ& cq : query.disjuncts()) {
    max_vars = std::max(max_vars, cq.AllVariables().size());
  }
  return max_vars;
}

ChaseTree BuildPortion(const Instance& db, const TgdSet& sigma,
                       const UCQ& query, Governor* governor,
                       TypeClosureEngine* engine) {
  ChaseTreeOptions tree_options;
  tree_options.blocking_repeats =
      static_cast<int>(MaxQueryVariables(query)) + 1;
  tree_options.governor = governor;
  return BuildChaseTree(db, sigma, tree_options, engine);
}

/// The governor to evaluate the query over `tree` with. A portion the
/// fact budget cut short is still a sub-instance of chase(D,Σ), so every
/// answer over it is certain, but the tripped `governor` would stop the
/// evaluation before its first answer. In that case the evaluation runs
/// under `rest`: the request's cancel token and what is left of its
/// deadline and node budget, with no fact cap. The result still reports
/// the trip (the caller reads `governor`'s status), so it stays partial.
Governor* EvaluationGovernor(const ChaseTree& tree, Governor* governor,
                             std::optional<Governor>* rest) {
  if (!tree.truncated) return governor;
  const Outcome spent = governor->MakeOutcome();
  const ExecutionBudget& budget = governor->budget();
  if (spent.status != Status::kBudgetExceeded || budget.max_facts == 0 ||
      spent.facts_charged <= budget.max_facts) {
    return governor;
  }
  ExecutionBudget left = budget;
  left.max_facts = 0;
  if (left.deadline_ms > 0) {
    // A deadline already passed trips at the first check.
    left.deadline_ms = std::max(left.deadline_ms - spent.elapsed_ms, 1e-6);
  }
  if (left.max_search_nodes > 0) {
    // Never 0, which would mean no limit.
    left.max_search_nodes -=
        std::min(left.max_search_nodes - 1, spent.nodes_charged);
  }
  rest->emplace(left);
  return &**rest;
}

/// Certifies each reported answer with a homomorphism into a bounded
/// oblivious chase (iterative deepening: l = 1, 2, 4, … up to the
/// witness cap, under a local fact budget separate from the request's
/// governor). chase^l(D,Σ) ⊆ chase(D,Σ), so every homomorphism found is
/// a sound certificate even though the full chase may be infinite.
void CertifyAnswers(const Instance& db, const TgdSet& sigma, const UCQ& query,
                    const WitnessOptions& witness_options,
                    GuardedAnswersResult* result) {
  result->certified = false;
  for (int level = 1; level <= witness_options.certify_max_level;
       level *= 2) {
    ChaseOptions chase_options;
    chase_options.max_level = level;
    chase_options.collect_witness = true;
    chase_options.budget.max_facts = witness_options.certify_max_facts;
    ChaseResult chased = Chase(db, sigma, chase_options);
    // Every round re-certifies *all* answers against this chase run:
    // each run draws its own fresh nulls, so homomorphisms from an
    // earlier (shallower) run would not match the derivation log kept
    // here. chase^l ⊆ chase^{2l} semantically, so nothing certified at a
    // shallower level is lost by redoing it deeper.
    result->witnesses.assign(result->answers.size(), HomWitness{});
    size_t found = 0;
    for (size_t i = 0; i < result->answers.size(); ++i) {
      if (FindUcqAnswerWitness(query, chased.instance, result->answers[i],
                               &result->witnesses[i])) {
        ++found;
      }
    }
    result->derivation = std::move(chased.derivation);
    if (found == result->answers.size()) {
      result->certified = true;
      break;
    }
    if (chased.outcome.status != Status::kCompleted) break;  // budget wall
    if (chased.complete) break;  // chase saturated; deeper levels add nothing
  }
}

}  // namespace

GuardedAnswersResult EvaluateGuardedCertainAnswers(
    const Instance& db, const TgdSet& sigma, const UCQ& query,
    const GuardedEvalOptions& options, TypeClosureEngine* engine) {
  GovernorScope scope(options.governor, options.budget);
  Governor* governor = scope.get();
  GuardedAnswersResult result;
  ChaseTree tree = BuildPortion(db, sigma, query, governor, engine);
  result.portion_truncated = tree.truncated;
  std::optional<Governor> rest;
  result.answers = FilterToDomain(
      EvaluateUCQ(query, tree.portion, /*limit=*/0,
                  EvaluationGovernor(tree, governor, &rest)),
      db);
  result.status = governor->status();
  if (options.witness.collect) {
    CertifyAnswers(db, sigma, query, options.witness, &result);
  }
  return result;
}

std::vector<std::vector<Term>> GuardedCertainAnswers(
    const Instance& db, const TgdSet& sigma, const UCQ& query,
    const GuardedEvalOptions& options, TypeClosureEngine* engine) {
  return EvaluateGuardedCertainAnswers(db, sigma, query, options, engine)
      .answers;
}

bool GuardedCertainlyHolds(const Instance& db, const TgdSet& sigma,
                           const UCQ& query, const std::vector<Term>& answer,
                           const GuardedEvalOptions& options,
                           TypeClosureEngine* engine) {
  GovernorScope scope(options.governor, options.budget);
  Governor* governor = scope.get();
  ChaseTree tree = BuildPortion(db, sigma, query, governor, engine);
  std::optional<Governor> rest;
  Governor* evaluation = EvaluationGovernor(tree, governor, &rest);
  if (options.use_tree_dp) {
    return HoldsUcqTreeDp(query, tree.portion, answer, evaluation);
  }
  return HoldsUCQ(query, tree.portion, answer, evaluation);
}

}  // namespace gqe
