#include "guarded/type_closure.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <unordered_set>

#include "guarded/chase_tree.h"
#include "query/homomorphism.h"
#include "query/substitution.h"

namespace gqe {

Term TypeClosureEngine::Placeholder(int i) {
  static std::vector<Term>* const kPlaceholders = new std::vector<Term>();
  while (static_cast<int>(kPlaceholders->size()) <= i) {
    kPlaceholders->push_back(Term::FreshNull());
  }
  return (*kPlaceholders)[i];
}

TypeClosureEngine::TypeClosureEngine(const TgdSet& sigma) : sigma_(sigma) {
  if (!IsGuardedSet(sigma)) {
    std::fprintf(stderr, "TypeClosureEngine requires a guarded TGD set\n");
    std::abort();
  }
}

std::string TypeClosureEngine::InternBag(const std::vector<Atom>& atoms,
                                         const std::vector<Term>& elements,
                                         std::vector<Term>* order) {
  std::string key = BagShapeKey(atoms, elements, order);
  auto it = entries_.find(key);
  if (it != entries_.end()) return key;
  Entry entry;
  entry.num_elements = static_cast<int>(order->size());
  std::unordered_map<Term, Term> rename;
  for (size_t i = 0; i < order->size(); ++i) {
    rename[(*order)[i]] = Placeholder(static_cast<int>(i));
  }
  for (const Atom& atom : atoms) {
    std::vector<Term> args;
    args.reserve(atom.args().size());
    for (Term t : atom.args()) args.push_back(rename.at(t));
    entry.closure.Insert(Atom(atom.predicate(), std::move(args)));
  }
  entries_.emplace(key, std::move(entry));
  return key;
}

bool TypeClosureEngine::ProcessEntry(const std::string& key) {
  // NOTE: InternBag may rehash entries_, so references into the map are
  // re-acquired after every call that can insert.
  bool changed = false;
  const int num_elements = entries_.at(key).num_elements;
  std::unordered_set<Term> parent_set;
  for (int i = 0; i < num_elements; ++i) parent_set.insert(Placeholder(i));

  for (const Tgd& tgd : sigma_) {
    const std::vector<Term> frontier = tgd.Frontier();
    const std::vector<Term> existentials = tgd.ExistentialVariables();
    // Collect triggers first: inserting while iterating the closure's
    // index vectors would invalidate them.
    std::vector<Substitution> triggers =
        HomomorphismSearch(tgd.body(), entries_.at(key).closure).FindAll();
    for (const Substitution& sub : triggers) {
      if (existentials.empty()) {
        Entry& parent = entries_.at(key);
        for (const Atom& head_atom : tgd.head()) {
          if (parent.closure.Insert(sub.Apply(head_atom))) changed = true;
        }
        continue;
      }
      // Existential rule: build the child bag.
      std::vector<Term> frontier_images;
      for (Term x : frontier) {
        Term image = sub.Apply(x);
        if (std::find(frontier_images.begin(), frontier_images.end(),
                      image) == frontier_images.end()) {
          frontier_images.push_back(image);
        }
      }
      Substitution extended = sub;
      std::vector<Term> child_elements = frontier_images;
      for (size_t i = 0; i < existentials.size(); ++i) {
        // Temporary child-local elements, distinct from all parent
        // placeholders.
        Term fresh = Placeholder(num_elements + static_cast<int>(i));
        extended.Set(existentials[i], fresh);
        child_elements.push_back(fresh);
      }
      std::vector<Atom> child_atoms;
      for (const Atom& head_atom : tgd.head()) {
        child_atoms.push_back(extended.Apply(head_atom));
      }
      // The child inherits every known atom over the frontier images.
      const Instance& closure = entries_.at(key).closure;
      for (uint32_t f = 0; f < closure.size(); ++f) {
        const std::span<const Term> args = closure.args_of(f);
        if (std::all_of(args.begin(), args.end(), [&](Term t) {
              return std::find(frontier_images.begin(), frontier_images.end(),
                               t) != frontier_images.end();
            })) {
          child_atoms.push_back(closure.atom(f));
        }
      }
      std::vector<Term> child_order;
      const std::string child_key =
          InternBag(child_atoms, child_elements, &child_order);
      // Pull back the child's current closure over the frontier images.
      // child_order[i] is the element of `child_elements` playing
      // Placeholder(i) inside the child entry.
      Substitution back;
      for (size_t i = 0; i < child_order.size(); ++i) {
        back.Set(Placeholder(static_cast<int>(i)), child_order[i]);
      }
      std::vector<Atom> pulled_atoms;
      const Instance& child = entries_.at(child_key).closure;
      for (uint32_t f = 0; f < child.size(); ++f) {
        const std::span<const Term> args = child.args_of(f);
        if (std::all_of(args.begin(), args.end(), [&](Term t) {
              return parent_set.count(back.Apply(t)) > 0;
            })) {
          pulled_atoms.push_back(back.Apply(child.predicate_of(f), args));
        }
      }
      Entry& parent = entries_.at(key);
      for (const Atom& atom : pulled_atoms) {
        if (parent.closure.Insert(atom)) changed = true;
      }
    }
  }
  return changed;
}

void TypeClosureEngine::FixpointAll() {
  bool changed = true;
  while (changed) {
    changed = false;
    // Snapshot keys: processing may add entries (picked up next round).
    std::vector<std::string> keys;
    keys.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) keys.push_back(key);
    const size_t entries_before = entries_.size();
    for (const std::string& key : keys) {
      if (ProcessEntry(key)) changed = true;
    }
    // Newly created child entries have not been processed yet.
    if (entries_.size() != entries_before) changed = true;
  }
}

std::vector<Atom> TypeClosureEngine::Closure(
    const std::vector<Atom>& atoms, const std::vector<Term>& elements) {
#ifndef NDEBUG
  std::unordered_set<Term> element_set(elements.begin(), elements.end());
  for (const Atom& atom : atoms) {
    for (Term t : atom.args()) assert(element_set.count(t) > 0);
  }
#endif
  std::vector<Term> order;
  const std::string key = InternBag(atoms, elements, &order);
  FixpointAll();
  const Entry& entry = entries_[key];
  Substitution back;
  for (size_t i = 0; i < order.size(); ++i) {
    back.Set(Placeholder(static_cast<int>(i)), order[i]);
  }
  std::vector<Atom> result;
  result.reserve(entry.closure.size());
  for (uint32_t f = 0; f < entry.closure.size(); ++f) {
    result.push_back(
        back.Apply(entry.closure.predicate_of(f), entry.closure.args_of(f)));
  }
  return result;
}

}  // namespace gqe
