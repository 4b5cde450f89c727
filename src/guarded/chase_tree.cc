#include "guarded/chase_tree.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "guarded/saturation.h"
#include "query/homomorphism.h"
#include "query/substitution.h"

namespace gqe {

std::string BagShapeKey(const std::vector<Atom>& atoms,
                        const std::vector<Term>& elements,
                        std::vector<Term>* order) {
  std::vector<Term> perm = elements;
  std::sort(perm.begin(), perm.end());
  perm.erase(std::unique(perm.begin(), perm.end()), perm.end());
  std::string best;
  std::vector<Term> best_order;
  bool first = true;
  // Try all orderings; pick the lexicographically smallest serialization.
  // Bag sizes are bounded by the schema arity / rule width, so the
  // factorial blow-up is a small constant.
  do {
    std::unordered_map<Term, int> index;
    for (size_t i = 0; i < perm.size(); ++i) index[perm[i]] = static_cast<int>(i);
    std::vector<std::string> parts;
    parts.reserve(atoms.size());
    for (const Atom& atom : atoms) {
      std::string s = std::to_string(atom.predicate());
      s += "(";
      for (Term t : atom.args()) {
        s += std::to_string(index.at(t));
        s += ",";
      }
      s += ")";
      parts.push_back(std::move(s));
    }
    std::sort(parts.begin(), parts.end());
    parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
    std::string key;
    for (const auto& p : parts) {
      key += p;
      key += ";";
    }
    if (first || key < best) {
      best = std::move(key);
      best_order = perm;
      first = false;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  if (order != nullptr) *order = std::move(best_order);
  return best;
}

int ChaseTree::BagOfNull(Term null_term) const {
  for (const auto& [term, bag] : null_home) {
    if (term == null_term) return bag;
  }
  return -1;
}

bool BagForest::Insert(const Atom& atom) {
  if (tree.portion.Contains(atom)) return true;
  if (governor->ChargeFacts(1) != Status::kCompleted) {
    tree.truncated = true;
    return false;
  }
  tree.portion.Insert(atom);
  return true;
}

int BagForest::Add(ChildBag&& child) {
  for (const Atom& atom : child.closed) {
    if (!Insert(atom)) break;
  }
  const int index = static_cast<int>(tree.bags.size());
  for (Term null : child.new_nulls) tree.null_home.emplace_back(null, index);
  tree.bags.push_back(std::move(child.bag));
  return index;
}

ChaseTree UnfoldChaseTree(const Instance& db, const TgdSet& sigma,
                          int blocking_repeats, Governor* governor,
                          TypeClosureEngine* engine,
                          const BlockedChildAction& on_blocked) {
  BagForest forest;
  forest.governor = governor;
  ChaseTree& tree = forest.tree;
  tree.portion = GroundSaturation(db, sigma, engine);
  governor->ChargeFacts(tree.portion.size());

  // Root bags: one per ground fact (its guarded set), deduplicated over
  // identical element sets.
  std::deque<int> queue;
  std::unordered_set<std::string> root_seen;
  for (uint32_t f = 0; f < tree.portion.size(); ++f) {
    ChaseBag bag;
    CollectGroundTerms(tree.portion.args_of(f), &bag.elements);
    std::string root_key;
    for (Term t : bag.elements) root_key += std::to_string(t.bits()) + ",";
    if (!root_seen.insert(root_key).second) continue;
    bag.shape_key = BagShapeKey(tree.portion.AtomsOver(bag.elements),
                                bag.elements, &bag.order);
    tree.bags.push_back(std::move(bag));
    queue.push_back(static_cast<int>(tree.bags.size()) - 1);
  }

  // Global oblivious-trigger dedup: the same trigger may be discoverable
  // from several bags (shared ground elements); fire it once.
  std::unordered_set<std::string> fired;

  // Expand bags breadth-first.
  while (!queue.empty()) {
    // Per-bag checkpoint: probes the deadline, cancellation and the
    // injector.
    if (governor->Check() != Status::kCompleted) break;
    const int bag_index = queue.front();
    queue.pop_front();
    // Copy what we need: tree.bags may reallocate as children are added.
    const std::vector<Term> elements = tree.bags[bag_index].elements;
    const int depth = tree.bags[bag_index].depth;
    if (depth >= kMaxBagDepth) {
      tree.truncated = true;
      continue;
    }
    // Saturate the bag and add everything to the portion.
    std::vector<Atom> closed =
        engine->Closure(tree.portion.AtomsOver(elements), elements);
    for (const Atom& atom : closed) {
      if (!forest.Insert(atom)) break;
    }

    // Fire existential rules one level.
    Instance bag_instance;
    bag_instance.InsertAll(closed);
    for (size_t tgd_index = 0; tgd_index < sigma.size(); ++tgd_index) {
      if (governor->Tripped()) break;
      const Tgd& tgd = sigma[tgd_index];
      if (tgd.IsFull()) continue;  // covered by the closure
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

        ChildBag child;
        ChaseBag& bag = child.bag;
        Substitution extended = sub;
        for (Term x : frontier) {
          Term image = sub.Apply(x);
          if (std::find(bag.elements.begin(), bag.elements.end(), image) ==
              bag.elements.end()) {
            bag.elements.push_back(image);
          }
        }
        for (Term z : existentials) {
          Term null = Term::FreshNull();
          extended.Set(z, null);
          bag.elements.push_back(null);
          child.new_nulls.push_back(null);
        }
        for (const Atom& head_atom : tgd.head()) {
          child.head.push_back(extended.Apply(head_atom));
        }
        // Inherit parent atoms over the frontier images.
        std::vector<Atom> child_atoms = child.head;
        for (const Atom& atom : bag_instance.AtomsOver(bag.elements)) {
          child_atoms.push_back(atom);
        }
        child.closed = engine->Closure(child_atoms, bag.elements);
        bag.shape_key = BagShapeKey(child.closed, bag.elements, &bag.order);
        bag.parent = bag_index;
        bag.depth = depth + 1;

        // Blocking: count this shape on the ancestor path, remembering
        // its topmost occurrence.
        int repeats = 0;
        for (int a = bag_index; a != -1; a = tree.bags[a].parent) {
          if (tree.bags[a].shape_key == bag.shape_key) {
            ++repeats;
            child.topmost = a;
          }
        }
        bag.blocked = repeats >= blocking_repeats;
        if (bag.blocked) {
          on_blocked(std::move(child), &forest);
        } else {
          queue.push_back(forest.Add(std::move(child)));
        }
      }
    }
  }
  if (governor->Tripped()) tree.truncated = true;
  return std::move(forest.tree);
}

ChaseTree BuildChaseTree(const Instance& db, const TgdSet& sigma,
                         const ChaseTreeOptions& options,
                         TypeClosureEngine* engine) {
  std::unique_ptr<TypeClosureEngine> owned;
  if (engine == nullptr) {
    owned = std::make_unique<TypeClosureEngine>(sigma);
    engine = owned.get();
  }
  GovernorScope scope(options.governor, options.budget);
  // A blocked child is materialized as a leaf: the bag exists in the
  // chase; only the expansion below it is cut.
  return UnfoldChaseTree(
      db, sigma, options.blocking_repeats, scope.get(), engine,
      [](ChildBag&& child, BagForest* forest) {
        forest->Add(std::move(child));
      });
}

}  // namespace gqe
