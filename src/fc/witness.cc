#include "fc/witness.h"

#include <algorithm>

#include "chase/chase.h"
#include "guarded/chase_tree.h"
#include "guarded/omq_eval.h"
#include "guarded/saturation.h"
#include "guarded/type_closure.h"
#include "query/evaluation.h"
#include "query/substitution.h"

namespace gqe {

FiniteWitness BuildFiniteWitness(const Instance& db, const TgdSet& sigma,
                                 int n, const FiniteWitnessOptions& options) {
  FiniteWitness witness;
  GovernorScope scope(options.governor, options.budget);
  Governor* governor = scope.get();

  // Attempt 1: a terminating restricted chase is a perfect witness (it is
  // a sub-instance of the oblivious chase and a model). The probe runs on
  // a sub-budget of its own so it cannot drain the shared budget; it
  // inherits the cancel token (a cancelled build stops here too) but gets
  // a fresh deadline window.
  {
    ChaseOptions chase_options;
    chase_options.restricted = true;
    chase_options.budget = governor->budget();
    chase_options.budget.max_facts = options.restricted_chase_facts;
    ChaseResult result = Chase(db, sigma, chase_options);
    if (result.complete) {
      witness.model = std::move(result.instance);
      witness.is_model = true;
      witness.from_terminating_chase = true;
      witness.status = governor->status();
      return witness;
    }
    if (result.outcome.status == Status::kCancelled) {
      witness.status = Status::kCancelled;
      return witness;
    }
  }

  // Attempt 2: fold the guarded chase at repeated shapes. A child whose
  // shape already occurs n+1 times on its path is not materialized: its
  // head atoms land on the topmost same-shape ancestor instead, its nulls
  // renamed through the two bags' canonical orders. Cycle lengths exceed
  // n, so queries with <= n variables cannot distinguish the folded model
  // from the chase.
  TypeClosureEngine engine(sigma);
  ChaseTree folded = UnfoldChaseTree(
      db, sigma, std::max(n, 0) + 1, governor, &engine,
      [&witness](ChildBag&& child, BagForest* forest) {
        const std::vector<Term>& target =
            forest->tree.bags[child.topmost].order;
        Substitution fold;
        for (Term null : child.new_nulls) {
          auto it = std::find(child.bag.order.begin(), child.bag.order.end(),
                              null);
          fold.Set(null, target[it - child.bag.order.begin()]);
        }
        for (const Atom& atom : child.head) {
          if (!forest->Insert(fold.Apply(atom))) break;
        }
        ++witness.folds;
      });

  // Attempt 3: patch residual violations (folding can expose new guarded
  // sets) with a bounded restricted chase, sharing the same governor (the
  // patch draws on whatever budget the fold loop left).
  ChaseOptions patch_options;
  patch_options.restricted = true;
  patch_options.governor = governor;
  ChaseResult patched = Chase(folded.portion, sigma, patch_options);
  witness.model = std::move(patched.instance);
  witness.is_model = patched.complete;
  witness.status = governor->status();
  if (witness.status != Status::kCompleted) witness.is_model = false;
  return witness;
}

bool WitnessAgreesOnQuery(const FiniteWitness& witness, const Instance& db,
                          const TgdSet& sigma, const UCQ& query) {
  return FilterToDomain(EvaluateUCQ(query, witness.model), db) ==
         GuardedCertainAnswers(db, sigma, query);
}

OmqToCqsReduction ReduceOmqToCqs(const Omq& omq, const Instance& db,
                                 const FiniteWitnessOptions& options) {
  OmqToCqsReduction reduction;
  TypeClosureEngine engine(omq.sigma);
  Instance dplus = GroundSaturation(db, omq.sigma, &engine);

  // A: the maximal guarded tuples of D⁺.
  std::vector<std::vector<Term>> guarded_sets;
  for (uint32_t f = 0; f < dplus.size(); ++f) {
    std::vector<Term> elements;
    CollectGroundTerms(dplus.args_of(f), &elements);
    std::sort(elements.begin(), elements.end());
    if (std::find(guarded_sets.begin(), guarded_sets.end(), elements) ==
        guarded_sets.end()) {
      guarded_sets.push_back(std::move(elements));
    }
  }
  std::vector<std::vector<Term>> maximal;
  for (const auto& candidate : guarded_sets) {
    bool strictly_inside = false;
    for (const auto& other : guarded_sets) {
      if (candidate.size() < other.size() &&
          std::includes(other.begin(), other.end(), candidate.begin(),
                        candidate.end())) {
        strictly_inside = true;
        break;
      }
    }
    if (!strictly_inside) maximal.push_back(candidate);
  }

  int n = 0;
  for (const CQ& cq : omq.query.disjuncts()) {
    n = std::max(n, static_cast<int>(cq.AllVariables().size()));
  }

  reduction.dstar.InsertAll(dplus);
  reduction.exact = true;
  reduction.witness_count = maximal.size();
  for (const auto& guarded_set : maximal) {
    if (options.governor != nullptr && options.governor->Tripped()) {
      reduction.exact = false;
      break;
    }
    Instance restricted;
    restricted.InsertAll(dplus.AtomsOver(guarded_set));
    FiniteWitness witness =
        BuildFiniteWitness(restricted, omq.sigma, n, options);
    if (!witness.is_model) reduction.exact = false;
    reduction.dstar.InsertAll(witness.model);
  }
  return reduction;
}

}  // namespace gqe
