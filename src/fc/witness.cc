#include "fc/witness.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "chase/chase.h"
#include "guarded/chase_tree.h"
#include "guarded/omq_eval.h"
#include "guarded/saturation.h"
#include "guarded/type_closure.h"
#include "query/evaluation.h"
#include "query/homomorphism.h"
#include "query/substitution.h"

namespace gqe {

namespace {

struct WitnessBag {
  std::vector<Term> elements;
  int parent = -1;
  std::string shape;
  std::vector<Term> order;  // canonical order matching `shape`
};

}  // namespace

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

  // Attempt 2: fold the guarded chase at repeated shapes. Cycle lengths
  // exceed the blocking threshold, so queries with <= n variables cannot
  // distinguish the folded model from the chase.
  TypeClosureEngine engine(sigma);
  Instance portion = GroundSaturation(db, sigma, &engine);
  governor->ChargeFacts(portion.size());
  auto try_insert = [&](const Atom& atom) {
    if (portion.Contains(atom)) return true;
    if (governor->ChargeFacts(1) != Status::kCompleted) return false;
    portion.Insert(atom);
    return true;
  };
  std::vector<WitnessBag> bags;
  std::deque<int> queue;
  std::unordered_set<std::string> roots_seen;
  const int blocking_repeats = n + 1;

  for (uint32_t f = 0; f < portion.size(); ++f) {
    std::vector<Term> elements;
    CollectGroundTerms(portion.args_of(f), &elements);
    std::string root_key;
    for (Term t : elements) root_key += std::to_string(t.bits()) + ",";
    if (!roots_seen.insert(root_key).second) continue;
    WitnessBag bag;
    bag.elements = elements;
    std::vector<Atom> bag_atoms = portion.AtomsOver(elements);
    bag.shape = BagShapeKey(bag_atoms, elements, &bag.order);
    bags.push_back(std::move(bag));
    queue.push_back(static_cast<int>(bags.size()) - 1);
  }

  std::unordered_set<std::string> fired;
  while (!queue.empty()) {
    if (governor->Check() != Status::kCompleted) break;
    const int bag_index = queue.front();
    queue.pop_front();
    const std::vector<Term> elements = bags[bag_index].elements;
    std::vector<Atom> closed =
        engine.Closure(portion.AtomsOver(elements), elements);
    for (const Atom& atom : closed) {
      if (!try_insert(atom)) break;
    }
    if (governor->Tripped()) break;
    Instance bag_instance;
    bag_instance.InsertAll(closed);

    for (size_t tgd_index = 0; tgd_index < sigma.size(); ++tgd_index) {
      const Tgd& tgd = sigma[tgd_index];
      if (tgd.IsFull()) continue;
      const std::vector<Term> frontier = tgd.Frontier();
      const std::vector<Term> existentials = tgd.ExistentialVariables();
      const std::vector<Term> body_vars = tgd.BodyVariables();
      HomOptions hom_options;
      hom_options.governor = governor;
      std::vector<Substitution> triggers =
          HomomorphismSearch(tgd.body(), bag_instance, hom_options).FindAll();
      for (const Substitution& sub : triggers) {
        if (governor->Tripped()) break;
        std::string trigger_key = std::to_string(tgd_index);
        for (Term v : body_vars) {
          trigger_key += ":" + std::to_string(sub.Apply(v).bits());
        }
        if (!fired.insert(trigger_key).second) continue;

        Substitution extended = sub;
        std::vector<Term> child_elements;
        for (Term x : frontier) {
          Term image = sub.Apply(x);
          if (std::find(child_elements.begin(), child_elements.end(),
                        image) == child_elements.end()) {
            child_elements.push_back(image);
          }
        }
        std::vector<Term> new_nulls;
        for (Term z : existentials) {
          Term null = Term::FreshNull();
          extended.Set(z, null);
          child_elements.push_back(null);
          new_nulls.push_back(null);
        }
        std::vector<Atom> child_atoms;
        for (const Atom& head_atom : tgd.head()) {
          child_atoms.push_back(extended.Apply(head_atom));
        }
        for (const Atom& atom : bag_instance.AtomsOver(child_elements)) {
          child_atoms.push_back(atom);
        }
        std::vector<Atom> child_closed =
            engine.Closure(child_atoms, child_elements);
        std::vector<Term> child_order;
        const std::string child_shape =
            BagShapeKey(child_closed, child_elements, &child_order);

        // Count the shape on the ancestor path and remember the topmost
        // occurrence.
        int repeats = 0;
        int topmost = -1;
        for (int a = bag_index; a != -1; a = bags[a].parent) {
          if (bags[a].shape == child_shape) {
            ++repeats;
            topmost = a;
          }
        }
        if (repeats >= blocking_repeats && topmost >= 0) {
          // Fold: redirect the existential witnesses to the topmost
          // same-shape ancestor via the canonical isomorphism.
          const WitnessBag& target = bags[topmost];
          Substitution fold = sub;
          for (size_t z = 0; z < existentials.size(); ++z) {
            Term null = new_nulls[z];
            auto it = std::find(child_order.begin(), child_order.end(), null);
            const size_t position =
                static_cast<size_t>(it - child_order.begin());
            fold.Set(existentials[z], target.order[position]);
          }
          for (const Atom& head_atom : tgd.head()) {
            if (!try_insert(fold.Apply(head_atom))) break;
          }
          ++witness.folds;
          continue;
        }
        // Materialize the child normally.
        for (const Atom& atom : child_closed) {
          if (!try_insert(atom)) break;
        }
        WitnessBag child;
        child.elements = child_elements;
        child.parent = bag_index;
        child.shape = child_shape;
        child.order = child_order;
        bags.push_back(std::move(child));
        queue.push_back(static_cast<int>(bags.size()) - 1);
      }
    }
  }

  // Attempt 3: patch residual violations (folding can expose new guarded
  // sets) with a bounded restricted chase, sharing the same governor (the
  // patch draws on whatever budget the fold loop left).
  ChaseOptions patch_options;
  patch_options.restricted = true;
  patch_options.governor = governor;
  ChaseResult patched = Chase(portion, sigma, patch_options);
  witness.model = std::move(patched.instance);
  witness.is_model = patched.complete;
  witness.status = governor->status();
  if (witness.status != Status::kCompleted) witness.is_model = false;
  return witness;
}

bool WitnessAgreesOnQuery(const FiniteWitness& witness, const Instance& db,
                          const TgdSet& sigma, const UCQ& query) {
  std::vector<std::vector<Term>> closed_world;
  for (auto& tuple : EvaluateUCQ(query, witness.model)) {
    bool over_db = true;
    for (Term t : tuple) {
      if (!db.InDomain(t)) {
        over_db = false;
        break;
      }
    }
    if (over_db) closed_world.push_back(std::move(tuple));
  }
  std::vector<std::vector<Term>> certain =
      GuardedCertainAnswers(db, sigma, query);
  return closed_world == certain;
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
