#include "linear/linear_chase.h"

#include <utility>

#include "chase/chase.h"
#include "linear/rewriting.h"
#include "query/evaluation.h"

namespace gqe {

LinearChaseEvalResult LinearCertainAnswersViaChase(const Instance& db,
                                                   const TgdSet& sigma,
                                                   const UCQ& query,
                                                   int max_level) {
  LinearChaseEvalResult result;
  ChaseOptions options;
  options.max_level = max_level;
  ChaseResult chased = Chase(db, sigma, options);
  result.levels_built = chased.max_level_built;
  result.hit_level_cap = !chased.complete;

  std::vector<std::vector<Term>> previous;
  int last_change = 0;
  for (int level = 0; level <= chased.max_level_built; ++level) {
    Instance portion = chased.UpToLevel(level);
    std::vector<std::vector<Term>> answers =
        FilterToDomain(EvaluateUCQ(query, portion), db);
    if (level == 0 || answers != previous) last_change = level;
    previous = std::move(answers);
  }
  result.answers = std::move(previous);
  result.stabilization_level = last_change;
  return result;
}

std::vector<std::vector<Term>> LinearCertainAnswersViaRewriting(
    const Instance& db, const TgdSet& sigma, const UCQ& query) {
  RewriteResult rewrite = RewriteUnderLinearTgds(query, sigma);
  return FilterToDomain(EvaluateUCQ(rewrite.rewriting, db), db);
}

std::vector<std::vector<Term>> LinearCertainAnswersViaRewriting(
    const Instance& db, const TgdSet& sigma, const UCQ& query,
    std::vector<RewriteWitness>* witnesses) {
  RewriteResult rewrite = RewriteUnderLinearTgds(query, sigma);
  std::vector<std::vector<Term>> answers =
      FilterToDomain(EvaluateUCQ(rewrite.rewriting, db), db);
  witnesses->clear();
  witnesses->reserve(answers.size());
  for (const auto& answer : answers) {
    RewriteWitness record;
    record.chase_depth = static_cast<uint32_t>(rewrite.rounds);
    if (FindUcqAnswerWitness(rewrite.rewriting, db, answer, &record.hom)) {
      record.disjunct = record.hom.disjunct;
      record.rewritten = rewrite.rewriting.disjuncts()[record.disjunct];
      // The provenance record stands alone: its hom indexes into the
      // single CQ it carries, not into the full rewriting.
      record.hom.disjunct = 0;
    }
    witnesses->push_back(std::move(record));
  }
  return answers;
}

}  // namespace gqe
