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
  do {
    std::unordered_map<Term, int> index;
    for (size_t i = 0; i < perm.size(); ++i) index[perm[i]] = static_cast<int>(i);
    std::vector<std::string> parts;
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
    if (best.empty() || key < best) {
      best = key;
      best_order = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  if (order != nullptr) *order = best_order;
  return best;
}

namespace {

std::string ShapeKey(const std::vector<Atom>& atoms,
                     const std::vector<Term>& elements) {
  return BagShapeKey(atoms, elements);
}

}  // namespace

int ChaseTree::BagOfNull(Term null_term) const {
  for (const auto& [term, bag] : null_home) {
    if (term == null_term) return bag;
  }
  return -1;
}

ChaseTree BuildChaseTree(const Instance& db, const TgdSet& sigma,
                         const ChaseTreeOptions& options,
                         TypeClosureEngine* engine) {
  std::unique_ptr<TypeClosureEngine> owned;
  if (engine == nullptr) {
    owned = std::make_unique<TypeClosureEngine>(sigma);
    engine = owned.get();
  }
  ChaseTree tree;
  GovernorScope scope(options.governor, options.budget);
  Governor* governor = scope.get();
  tree.portion = GroundSaturation(db, sigma, engine);
  governor->ChargeFacts(tree.portion.size());

  // Gate every portion insertion on the fact budget; a budget trip marks
  // the tree truncated and (via the sticky status) stops the build.
  auto try_insert = [&](const Atom& atom) {
    if (tree.portion.Contains(atom)) return true;
    if (governor->ChargeFacts(1) != Status::kCompleted) {
      tree.truncated = true;
      return false;
    }
    tree.portion.Insert(atom);
    return true;
  };

  // Root bags: one per ground fact (its guarded set).
  std::deque<int> queue;
  std::unordered_set<std::string> root_seen;
  for (uint32_t f = 0; f < tree.portion.size(); ++f) {
    std::vector<Term> elements;
    CollectGroundTerms(tree.portion.args_of(f), &elements);
    std::vector<Atom> bag_atoms = tree.portion.AtomsOver(elements);
    std::string key = ShapeKey(bag_atoms, elements);
    // Deduplicate root bags over identical element sets.
    std::string root_key;
    for (Term t : elements) root_key += std::to_string(t.bits()) + ",";
    if (!root_seen.insert(root_key).second) continue;
    ChaseBag bag;
    bag.elements = elements;
    bag.parent = -1;
    bag.depth = 0;
    bag.shape_key = std::move(key);
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
    if (governor->Check() != Status::kCompleted) {
      tree.truncated = true;
      break;
    }
    const int bag_index = queue.front();
    queue.pop_front();
    // Copy what we need: tree.bags may reallocate as children are added.
    const std::vector<Term> elements = tree.bags[bag_index].elements;
    const int depth = tree.bags[bag_index].depth;
    if (depth >= options.max_depth) {
      tree.truncated = true;
      continue;
    }
    // Saturate the bag and add everything to the portion.
    std::vector<Atom> bag_atoms = tree.portion.AtomsOver(elements);
    std::vector<Atom> closed = engine->Closure(bag_atoms, elements);
    for (const Atom& atom : closed) {
      if (!try_insert(atom)) break;
    }
    if (governor->Tripped()) break;

    // Fire existential rules one level.
    Instance bag_instance;
    bag_instance.InsertAll(closed);
    for (size_t tgd_index = 0; tgd_index < sigma.size(); ++tgd_index) {
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
        // Inherit parent atoms over the frontier images.
        for (const Atom& atom : bag_instance.AtomsOver(child_elements)) {
          child_atoms.push_back(atom);
        }
        std::vector<Atom> child_closed =
            engine->Closure(child_atoms, child_elements);
        const std::string child_shape = ShapeKey(child_closed, child_elements);

        // Blocking: count this shape on the ancestor path.
        int repeats = 0;
        for (int a = bag_index; a != -1; a = tree.bags[a].parent) {
          if (tree.bags[a].shape_key == child_shape) ++repeats;
        }
        ChaseBag child;
        child.elements = child_elements;
        child.parent = bag_index;
        child.depth = depth + 1;
        child.shape_key = child_shape;
        child.blocked = repeats >= options.blocking_repeats;
        // Materialize the child's atoms either way (the bag exists in the
        // chase); only expansion below it is cut when blocked.
        for (const Atom& atom : child_closed) {
          if (!try_insert(atom)) break;
        }
        for (Term null : new_nulls) {
          tree.null_home.emplace_back(null,
                                      static_cast<int>(tree.bags.size()));
        }
        tree.bags.push_back(child);
        if (!child.blocked) {
          queue.push_back(static_cast<int>(tree.bags.size()) - 1);
        }
        if (governor->Tripped()) break;
      }
      if (governor->Tripped()) break;
    }
    if (governor->Tripped()) {
      tree.truncated = true;
      break;
    }
  }
  if (governor->Tripped()) tree.truncated = true;
  return tree;
}

}  // namespace gqe
