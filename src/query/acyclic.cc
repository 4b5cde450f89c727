#include "query/acyclic.h"

#include <algorithm>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "query/substitution.h"

namespace gqe {

namespace {

std::set<Term> AtomVarSet(const Atom& atom) {
  std::set<Term> vars;
  for (Term t : atom.args()) {
    if (t.IsVariable()) vars.insert(t);
  }
  return vars;
}

}  // namespace

std::optional<JoinTree> GyoJoinTree(const CQ& cq) {
  const size_t n = cq.atoms().size();
  std::vector<std::set<Term>> var_sets(n);
  for (size_t i = 0; i < n; ++i) var_sets[i] = AtomVarSet(cq.atoms()[i]);

  JoinTree tree;
  tree.parent.assign(n, -1);
  std::vector<bool> removed(n, false);
  size_t remaining = n;
  while (remaining > 0) {
    // Count in how many remaining atoms each variable occurs.
    std::unordered_map<Term, int> occurrences;
    for (size_t i = 0; i < n; ++i) {
      if (removed[i]) continue;
      for (Term v : var_sets[i]) ++occurrences[v];
    }
    bool found_ear = false;
    for (size_t i = 0; i < n && !found_ear; ++i) {
      if (removed[i]) continue;
      // Shared variables of atom i (those also in another remaining atom).
      std::set<Term> shared;
      for (Term v : var_sets[i]) {
        if (occurrences[v] >= 2) shared.insert(v);
      }
      if (shared.empty()) {
        // Isolated ear: becomes a root (or child of nothing).
        removed[i] = true;
        --remaining;
        tree.order.push_back(static_cast<int>(i));
        found_ear = true;
        break;
      }
      for (size_t j = 0; j < n; ++j) {
        if (j == i || removed[j]) continue;
        if (std::includes(var_sets[j].begin(), var_sets[j].end(),
                          shared.begin(), shared.end())) {
          tree.parent[i] = static_cast<int>(j);
          removed[i] = true;
          --remaining;
          tree.order.push_back(static_cast<int>(i));
          found_ear = true;
          break;
        }
      }
    }
    if (!found_ear) return std::nullopt;  // cyclic hypergraph
  }
  return tree;
}

bool IsAcyclicCq(const CQ& cq) { return GyoJoinTree(cq).has_value(); }

std::optional<bool> HoldsAcyclicCq(const CQ& cq, const Instance& db,
                                   const std::vector<Term>& answer,
                                   JoinTreeWitness* tree_witness,
                                   HomWitness* hom_witness) {
  Substitution candidate;
  for (size_t i = 0; i < cq.answer_vars().size(); ++i) {
    candidate.Set(cq.answer_vars()[i], answer[i]);
  }
  std::vector<Atom> atoms;
  for (const Atom& atom : cq.atoms()) atoms.push_back(candidate.Apply(atom));
  CQ grounded({}, atoms);
  std::optional<JoinTree> tree = GyoJoinTree(grounded);
  if (!tree.has_value()) return std::nullopt;
  if (tree_witness != nullptr) {
    tree_witness->parent.assign(tree->parent.begin(), tree->parent.end());
    tree_witness->order.assign(tree->order.begin(), tree->order.end());
  }

  // Per-atom relations: tuples of variable bindings matching the atom.
  const size_t n = atoms.size();
  std::vector<std::vector<Term>> var_lists(n);
  std::vector<std::vector<std::vector<Term>>> relations(n);
  for (size_t i = 0; i < n; ++i) {
    const Atom& atom = atoms[i];
    atom.CollectVariables(&var_lists[i]);
    for (uint32_t fact_index : db.FactsWithPredicate(atom.predicate())) {
      const std::span<const Term> fact_args = db.args_of(fact_index);
      Substitution binding;
      bool ok = true;
      for (int pos = 0; pos < atom.arity() && ok; ++pos) {
        Term t = atom.args()[pos];
        Term image = fact_args[pos];
        if (t.IsGround()) {
          ok = (t == image);
        } else if (binding.Has(t)) {
          ok = (binding.Apply(t) == image);
        } else {
          binding.Set(t, image);
        }
      }
      if (!ok) continue;
      std::vector<Term> tuple;
      for (Term v : var_lists[i]) tuple.push_back(binding.Apply(v));
      relations[i].push_back(std::move(tuple));
    }
    std::sort(relations[i].begin(), relations[i].end());
    relations[i].erase(std::unique(relations[i].begin(), relations[i].end()),
                       relations[i].end());
  }

  // Bottom-up semijoins in GYO removal order (leaves first).
  for (int child : tree->order) {
    const int parent = tree->parent[child];
    if (parent < 0) {
      if (relations[child].empty()) return false;
      continue;
    }
    // Shared variable positions.
    std::vector<size_t> child_pos, parent_pos;
    for (size_t a = 0; a < var_lists[child].size(); ++a) {
      for (size_t b = 0; b < var_lists[parent].size(); ++b) {
        if (var_lists[child][a] == var_lists[parent][b]) {
          child_pos.push_back(a);
          parent_pos.push_back(b);
        }
      }
    }
    std::set<std::vector<Term>> child_projections;
    for (const auto& tuple : relations[child]) {
      std::vector<Term> projection;
      for (size_t a : child_pos) projection.push_back(tuple[a]);
      child_projections.insert(std::move(projection));
    }
    std::vector<std::vector<Term>> filtered;
    for (const auto& tuple : relations[parent]) {
      std::vector<Term> projection;
      for (size_t b : parent_pos) projection.push_back(tuple[b]);
      if (child_projections.count(projection) > 0) {
        filtered.push_back(tuple);
      }
    }
    relations[parent] = std::move(filtered);
    if (relations[parent].empty()) return false;
  }
  if (hom_witness != nullptr) {
    // Yannakakis traceback, parents before children (reverse GYO
    // order): each atom picks a tuple consistent with its parent's
    // choice on the shared variables. The join tree's connectedness
    // property propagates equality along paths, so the union of choices
    // plus the candidate grounding is a single homomorphism.
    std::vector<std::vector<Term>> chosen(n);
    for (auto it = tree->order.rbegin(); it != tree->order.rend(); ++it) {
      const size_t i = static_cast<size_t>(*it);
      const int parent = tree->parent[i];
      if (parent < 0) {
        chosen[i] = relations[i].front();
        continue;
      }
      std::vector<size_t> child_pos, parent_pos;
      for (size_t a = 0; a < var_lists[i].size(); ++a) {
        for (size_t b = 0; b < var_lists[parent].size(); ++b) {
          if (var_lists[i][a] == var_lists[parent][b]) {
            child_pos.push_back(a);
            parent_pos.push_back(b);
          }
        }
      }
      for (const auto& tuple : relations[i]) {
        bool matches = true;
        for (size_t p = 0; p < child_pos.size() && matches; ++p) {
          matches = tuple[child_pos[p]] == chosen[parent][parent_pos[p]];
        }
        if (matches) {
          chosen[i] = tuple;
          break;
        }
      }
    }
    Substitution assignment = candidate;
    for (size_t i = 0; i < n; ++i) {
      for (size_t a = 0; a < var_lists[i].size() && a < chosen[i].size();
           ++a) {
        assignment.Set(var_lists[i][a], chosen[i][a]);
      }
    }
    hom_witness->disjunct = 0;
    hom_witness->answer = answer;
    hom_witness->assignment.clear();
    for (Term v : cq.AllVariables()) {
      if (assignment.Has(v)) {
        hom_witness->assignment.emplace_back(v, assignment.Apply(v));
      }
    }
  }
  return true;
}

}  // namespace gqe
