#include "guarded/unraveling.h"

#include <algorithm>
#include <deque>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "omq/evaluation.h"

namespace gqe {

namespace {

/// The distinct guarded sets of a database: the (sorted) domains of its
/// facts.
std::vector<std::vector<Term>> GuardedSets(const Instance& db) {
  std::set<std::vector<Term>> sets;
  for (uint32_t f = 0; f < db.size(); ++f) {
    std::vector<Term> elements;
    CollectGroundTerms(db.args_of(f), &elements);
    std::sort(elements.begin(), elements.end());
    sets.insert(elements);
  }
  return {sets.begin(), sets.end()};
}

struct UnravelNode {
  std::vector<Term> originals;          // guarded set in D (sorted)
  std::unordered_map<Term, Term> copy;  // original -> copy at this node
  int depth = 0;
};

/// Inserts the copies of all D-facts over `node.originals`.
void EmitNodeAtoms(const Instance& db, const UnravelNode& node,
                   Instance* out, Substitution* to_original) {
  for (const Atom& fact : db.AtomsOver(node.originals)) {
    std::vector<Term> args;
    args.reserve(fact.args().size());
    for (Term t : fact.args()) args.push_back(node.copy.at(t));
    out->Insert(fact.predicate(), args);
  }
  if (to_original != nullptr) {
    for (const auto& [original, copy] : node.copy) {
      to_original->Set(copy, original);
    }
  }
}

}  // namespace

Instance GuardedUnraveling(const Instance& db, const std::vector<Term>& root,
                           int depth, Substitution* to_original,
                           size_t max_nodes) {
  Instance out;
  const std::vector<std::vector<Term>> guarded_sets = GuardedSets(db);

  UnravelNode root_node;
  root_node.originals = root;
  std::sort(root_node.originals.begin(), root_node.originals.end());
  for (Term t : root_node.originals) root_node.copy[t] = t;  // uncopied
  EmitNodeAtoms(db, root_node, &out, to_original);
  if (to_original != nullptr) {
    for (Term t : root) to_original->Set(t, t);
  }

  std::deque<UnravelNode> queue = {root_node};
  size_t nodes = 1;
  while (!queue.empty() && nodes < max_nodes) {
    UnravelNode node = std::move(queue.front());
    queue.pop_front();
    if (node.depth >= depth) continue;
    for (const std::vector<Term>& next : guarded_sets) {
      // Adjacent guarded sets must intersect the current one.
      std::vector<Term> shared;
      std::set_intersection(node.originals.begin(), node.originals.end(),
                            next.begin(), next.end(),
                            std::back_inserter(shared));
      if (shared.empty()) continue;
      if (next == node.originals) continue;  // no self-loops in the tree
      UnravelNode child;
      child.originals = next;
      child.depth = node.depth + 1;
      for (Term t : next) {
        auto it = std::find(shared.begin(), shared.end(), t);
        if (it != shared.end()) {
          child.copy[t] = node.copy.at(t);
        } else {
          Term fresh = Term::FreshNull();
          child.copy[t] = fresh;
        }
      }
      EmitNodeAtoms(db, child, &out, to_original);
      queue.push_back(std::move(child));
      if (++nodes >= max_nodes) break;
    }
  }
  return out;
}

Instance KUnraveling(const Instance& db, const std::vector<Term>& anchors,
                     int k, int depth, size_t max_nodes,
                     Substitution* to_original) {
  Instance out;
  std::unordered_set<Term> anchor_set(anchors.begin(), anchors.end());
  // Bags: maximal (≤ k+1)-subsets of fact domains (so every fact fits in
  // some bag up to truncation).
  std::set<std::vector<Term>> bag_set;
  for (uint32_t f = 0; f < db.size(); ++f) {
    std::vector<Term> elements;
    CollectGroundTerms(db.args_of(f), &elements);
    std::sort(elements.begin(), elements.end());
    if (static_cast<int>(elements.size()) <= k + 1) {
      bag_set.insert(elements);
    }
  }
  std::vector<std::vector<Term>> bags(bag_set.begin(), bag_set.end());

  UnravelNode root_node;
  if (!bags.empty()) {
    root_node.originals = bags.front();
  }
  for (Term t : root_node.originals) {
    root_node.copy[t] = anchor_set.count(t) ? t : Term::FreshNull();
  }
  // Anchors map to themselves everywhere.
  EmitNodeAtoms(db, root_node, &out, to_original);

  std::deque<UnravelNode> queue = {root_node};
  size_t nodes = 1;
  // Every bag is also seeded as its own root so disconnected parts are
  // covered.
  for (size_t b = 1; b < bags.size(); ++b) {
    UnravelNode seed;
    seed.originals = bags[b];
    for (Term t : seed.originals) {
      seed.copy[t] = anchor_set.count(t) ? t : Term::FreshNull();
    }
    EmitNodeAtoms(db, seed, &out, to_original);
    queue.push_back(std::move(seed));
    ++nodes;
  }
  while (!queue.empty() && nodes < max_nodes) {
    UnravelNode node = std::move(queue.front());
    queue.pop_front();
    if (node.depth >= depth) continue;
    for (const std::vector<Term>& next : bags) {
      if (next == node.originals) continue;
      std::vector<Term> shared;
      std::set_intersection(node.originals.begin(), node.originals.end(),
                            next.begin(), next.end(),
                            std::back_inserter(shared));
      if (shared.empty()) continue;
      UnravelNode child;
      child.originals = next;
      child.depth = node.depth + 1;
      for (Term t : next) {
        if (anchor_set.count(t)) {
          child.copy[t] = t;
        } else if (std::find(shared.begin(), shared.end(), t) !=
                   shared.end()) {
          child.copy[t] = node.copy.at(t);
        } else {
          child.copy[t] = Term::FreshNull();
        }
      }
      EmitNodeAtoms(db, child, &out, to_original);
      queue.push_back(std::move(child));
      if (++nodes >= max_nodes) break;
    }
  }
  if (to_original != nullptr) {
    for (Term t : anchors) to_original->Set(t, t);
  }
  return out;
}

DiversifyResult DiversifyDatabase(const Instance& db, const Omq& query,
                                  const std::vector<Term>& protect) {
  DiversifyResult result;
  std::unordered_set<Term> protect_set(protect.begin(), protect.end());
  Instance current = db;
  bool changed = true;
  while (changed) {
    changed = false;
    // Count occurrences of each constant across (atom, position) slots.
    std::unordered_map<Term, int> occurrences;
    for (Term t : current.store().term_column()) ++occurrences[t];
    for (uint32_t a = 0; a < current.size() && !changed; ++a) {
      // Read only until `current` is replaced, right before the break.
      const std::span<const Term> atom_args = current.args_of(a);
      for (size_t pos = 0; pos < atom_args.size(); ++pos) {
        Term t = atom_args[pos];
        if (protect_set.count(t) > 0 || occurrences[t] <= 1) continue;
        // Candidate: split this occurrence off onto a fresh constant.
        Instance candidate;
        Term fresh = Term::Constant("_dv" + std::to_string(result.splits) +
                                    "_" + t.ToString());
        for (uint32_t b = 0; b < current.size(); ++b) {
          if (b != a) {
            candidate.Insert(current.predicate_of(b), current.args_of(b));
            continue;
          }
          std::vector<Term> args(atom_args.begin(), atom_args.end());
          args[pos] = fresh;
          candidate.Insert(current.predicate_of(b), args);
        }
        if (OmqHolds(query, candidate, {})) {
          current = std::move(candidate);
          ++result.splits;
          changed = true;
          break;
        }
      }
    }
  }
  result.diversified = std::move(current);
  return result;
}

}  // namespace gqe
