#include "query/evaluation.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "query/homomorphism.h"

namespace gqe {

namespace {

void CollectAnswers(const CQ& cq, const Instance& db, size_t limit,
                    Governor* governor,
                    std::set<std::vector<Term>>* answers) {
  HomOptions options;
  options.governor = governor;
  HomomorphismSearch search(cq.atoms(), db, options);
  search.ForEach([&](const Substitution& sub) {
    answers->insert(sub.Apply(cq.answer_vars()));
    return limit == 0 || answers->size() < limit;
  });
}

/// Full-assignment record of a substitution over a disjunct's variables,
/// in CQ::AllVariables() order (deterministic across processes).
std::vector<std::pair<Term, Term>> AssignmentOf(const CQ& cq,
                                                const Substitution& sub) {
  std::vector<std::pair<Term, Term>> assignment;
  for (Term v : cq.AllVariables()) {
    if (sub.Has(v)) assignment.emplace_back(v, sub.Apply(v));
  }
  return assignment;
}

}  // namespace

std::vector<std::vector<Term>> EvaluateCQ(const CQ& cq, const Instance& db,
                                          size_t limit, Governor* governor) {
  std::set<std::vector<Term>> answers;
  CollectAnswers(cq, db, limit, governor, &answers);
  return {answers.begin(), answers.end()};
}

std::vector<std::vector<Term>> EvaluateUCQ(const UCQ& ucq, const Instance& db,
                                           size_t limit, Governor* governor) {
  std::set<std::vector<Term>> answers;
  for (const CQ& cq : ucq.disjuncts()) {
    CollectAnswers(cq, db, limit, governor, &answers);
    if (limit > 0 && answers.size() >= limit) break;
    if (governor != nullptr && governor->Tripped()) break;
  }
  return {answers.begin(), answers.end()};
}

std::vector<std::vector<Term>> EvaluateUCQWithWitnesses(
    const UCQ& ucq, const Instance& db, std::vector<HomWitness>* witnesses,
    size_t limit, Governor* governor) {
  std::map<std::vector<Term>, HomWitness> found;
  for (size_t d = 0; d < ucq.num_disjuncts(); ++d) {
    const CQ& cq = ucq.disjuncts()[d];
    HomOptions options;
    options.governor = governor;
    HomomorphismSearch search(cq.atoms(), db, options);
    search.ForEach([&](const Substitution& sub) {
      std::vector<Term> answer = sub.Apply(cq.answer_vars());
      auto [it, inserted] = found.try_emplace(std::move(answer));
      if (inserted) {
        it->second.disjunct = static_cast<uint32_t>(d);
        it->second.answer = it->first;
        it->second.assignment = AssignmentOf(cq, sub);
      }
      return limit == 0 || found.size() < limit;
    });
    if (limit > 0 && found.size() >= limit) break;
    if (governor != nullptr && governor->Tripped()) break;
  }
  std::vector<std::vector<Term>> answers;
  answers.reserve(found.size());
  if (witnesses != nullptr) {
    witnesses->clear();
    witnesses->reserve(found.size());
  }
  for (auto& [answer, witness] : found) {
    answers.push_back(answer);
    if (witnesses != nullptr) witnesses->push_back(std::move(witness));
  }
  return answers;
}

std::vector<std::vector<Term>> FilterToDomain(
    std::vector<std::vector<Term>> tuples, const Instance& db,
    std::vector<HomWitness>* witnesses) {
  std::vector<std::vector<Term>> out;
  std::vector<HomWitness> kept;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (!std::all_of(tuples[i].begin(), tuples[i].end(),
                     [&db](Term t) { return db.InDomain(t); })) {
      continue;
    }
    out.push_back(std::move(tuples[i]));
    if (witnesses != nullptr && i < witnesses->size()) {
      kept.push_back(std::move((*witnesses)[i]));
    }
  }
  if (witnesses != nullptr) *witnesses = std::move(kept);
  return out;
}

bool FindUcqAnswerWitness(const UCQ& ucq, const Instance& db,
                          const std::vector<Term>& answer, HomWitness* out,
                          Governor* governor) {
  for (size_t d = 0; d < ucq.num_disjuncts(); ++d) {
    const CQ& cq = ucq.disjuncts()[d];
    if (answer.size() != cq.answer_vars().size()) continue;
    HomOptions options;
    options.governor = governor;
    for (size_t i = 0; i < cq.answer_vars().size(); ++i) {
      options.fixed.Set(cq.answer_vars()[i], answer[i]);
    }
    HomomorphismSearch search(cq.atoms(), db, options);
    std::optional<Substitution> sub = search.FindOne();
    if (sub.has_value()) {
      if (out != nullptr) {
        out->disjunct = static_cast<uint32_t>(d);
        out->answer = answer;
        out->assignment = AssignmentOf(cq, *sub);
      }
      return true;
    }
    if (governor != nullptr && governor->Tripped()) break;
  }
  return false;
}

bool HoldsCQ(const CQ& cq, const Instance& db, const std::vector<Term>& answer,
             Governor* governor) {
  if (answer.size() != cq.answer_vars().size()) return false;
  HomOptions options;
  options.governor = governor;
  for (size_t i = 0; i < cq.answer_vars().size(); ++i) {
    options.fixed.Set(cq.answer_vars()[i], answer[i]);
  }
  HomomorphismSearch search(cq.atoms(), db, options);
  return search.Exists();
}

bool HoldsUCQ(const UCQ& ucq, const Instance& db,
              const std::vector<Term>& answer, Governor* governor) {
  for (const CQ& cq : ucq.disjuncts()) {
    if (HoldsCQ(cq, db, answer, governor)) return true;
    if (governor != nullptr && governor->Tripped()) break;
  }
  return false;
}

bool HoldsBooleanCQ(const CQ& cq, const Instance& db, Governor* governor) {
  return HoldsCQ(cq, db, {}, governor);
}

bool HoldsBooleanUCQ(const UCQ& ucq, const Instance& db, Governor* governor) {
  return HoldsUCQ(ucq, db, {}, governor);
}

bool HoldsInjectivelyOnly(const CQ& cq, const Instance& db,
                          const std::vector<Term>& answer,
                          Governor* governor) {
  HomOptions options;
  options.governor = governor;
  for (size_t i = 0; i < cq.answer_vars().size(); ++i) {
    options.fixed.Set(cq.answer_vars()[i], answer[i]);
  }
  HomomorphismSearch search(cq.atoms(), db, options);
  bool any = false;
  bool all_injective = true;
  search.ForEach([&](const Substitution& sub) {
    any = true;
    if (!sub.IsInjective()) {
      all_injective = false;
      return false;
    }
    // Injectivity with respect to pattern constants: a variable mapping
    // onto a constant of the pattern breaks injectivity of h on D[q].
    for (Term c : GroundTermsOf(cq.atoms())) {
      for (const auto& [var, image] : sub.entries()) {
        if (var != c && image == c) {
          all_injective = false;
          return false;
        }
      }
    }
    return true;
  });
  return any && all_injective;
}

}  // namespace gqe
