#include "query/homomorphism.h"

#include <cassert>
#include <limits>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "base/flat_table.h"

namespace gqe {

namespace {

/// Backtracking state for one search (the substitution and bookkeeping
/// are private to the searcher).
class Searcher {
 public:
  Searcher(const std::vector<Atom>& pattern, const Instance& target,
           const HomOptions& options,
           const std::function<bool(const Substitution&)>& callback)
      : pattern_(pattern),
        target_(target),
        options_(options),
        callback_(callback),
        governor_(options.governor),
        charge_batch_(options.governor != nullptr
                          ? options.governor->NodeChargeBatch()
                          : 0) {}

  /// Seeds the assignment with fixed variables and injectivity
  /// bookkeeping. Returns false if the seed itself is contradictory, in
  /// which case no homomorphism exists.
  bool Seed() {
    processed_.assign(pattern_.size(), false);
    for (const auto& [var, value] : options_.fixed.entries()) {
      assert(var.IsVariable() && value.IsGround());
      assignment_.Set(var, value);
      if (options_.injective && !used_.insert(value).second) return false;
    }
    if (options_.injective) {
      // Ground terms of the pattern map to themselves; they occupy their
      // own images.
      for (Term t : GroundTermsOf(pattern_)) {
        if (!used_.insert(t).second) {
          // A fixed variable already maps onto this constant: only
          // admissible if... it is not (images must be distinct).
          return false;
        }
      }
    }
    return true;
  }

  size_t Run() {
    count_ = 0;
    stopped_ = false;
    Recurse(0);
    FlushNodeCharges();
    return count_;
  }

 private:
  bool Stopped() const {
    return stopped_ || (governor_ != nullptr && governor_->Tripped());
  }

  /// Accounts one candidate fact tried against the governor's search-node
  /// budget. Charges are batched (batch 1 under a fault injector, so every
  /// node is a checkpoint).
  void ChargeNode() {
    if (governor_ == nullptr) return;
    if (++pending_nodes_ >= charge_batch_) FlushNodeCharges();
  }

  void FlushNodeCharges() {
    if (governor_ == nullptr || pending_nodes_ == 0) return;
    governor_->ChargeNodes(pending_nodes_);
    pending_nodes_ = 0;
  }

  /// Picks the unprocessed atom with the fewest candidate facts under the
  /// current partial assignment; returns false if none remain. The
  /// returned pointer aliases an Instance postings list (stable while the
  /// target is not mutated), so no per-node candidate copy is made.
  bool PickAtom(int* best_atom, const std::vector<uint32_t>** best_candidates) {
    size_t best_count = std::numeric_limits<size_t>::max();
    *best_atom = -1;
    for (size_t i = 0; i < pattern_.size(); ++i) {
      if (processed_[i]) continue;
      const Atom& atom = pattern_[i];
      // Find the most selective bound position.
      const std::vector<uint32_t>* candidates = nullptr;
      size_t count = std::numeric_limits<size_t>::max();
      for (int pos = 0; pos < atom.arity(); ++pos) {
        Term t = atom.args()[pos];
        Term bound = t.IsVariable() ? assignment_.Apply(t) : t;
        if (!bound.IsGround()) continue;
        const auto& facts = target_.FactsWith(atom.predicate(), pos, bound);
        if (facts.size() < count) {
          count = facts.size();
          candidates = &facts;
        }
      }
      if (candidates == nullptr) {
        const auto& facts = target_.FactsWithPredicate(atom.predicate());
        count = facts.size();
        candidates = &facts;
      }
      if (count < best_count) {
        best_count = count;
        *best_atom = static_cast<int>(i);
        *best_candidates = candidates;
        if (count == 0) return true;  // dead end; fail fast
      }
    }
    return *best_atom >= 0;
  }

  void Recurse(size_t depth) {
    if (Stopped()) return;
    if (depth == pattern_.size()) {
      ++count_;
      if (!callback_(assignment_)) stopped_ = true;
      return;
    }
    int atom_index;
    const std::vector<uint32_t>* candidates = nullptr;
    if (!PickAtom(&atom_index, &candidates)) return;
    ExpandAtom(atom_index, *candidates, depth);
  }

  /// Tries every candidate fact for `atom_index` in turn, recursing into
  /// the rest of the pattern on each successful unification.
  void ExpandAtom(int atom_index, const std::vector<uint32_t>& candidates,
                  size_t depth) {
    processed_[atom_index] = true;
    const Atom& atom = pattern_[atom_index];
    // Rollback journal, hoisted so the candidate loop reuses its storage.
    std::vector<Term> newly_bound;
    for (const uint32_t fact_index : candidates) {
      ChargeNode();
      if (Stopped()) break;
      if (target_.predicate_of(fact_index) != atom.predicate()) continue;
      // Attempt unification against the columnar argument span; record
      // newly bound variables for rollback.
      const std::span<const Term> fact_args = target_.args_of(fact_index);
      newly_bound.clear();
      bool ok = true;
      for (int pos = 0; pos < atom.arity() && ok; ++pos) {
        Term t = atom.args()[pos];
        Term image = fact_args[pos];
        if (t.IsGround()) {
          ok = (t == image);
          continue;
        }
        Term current = assignment_.Apply(t);
        if (current.IsGround()) {
          ok = (current == image);
          continue;
        }
        if (options_.injective && used_.count(image) > 0) {
          ok = false;
          continue;
        }
        assignment_.Set(t, image);
        if (options_.injective) used_.insert(image);
        newly_bound.push_back(t);
      }
      if (ok) Recurse(depth + 1);
      for (Term t : newly_bound) {
        if (options_.injective) used_.erase(assignment_.Apply(t));
        assignment_.Set(t, t);  // unbind: map back to itself
      }
      if (Stopped()) break;
    }
    processed_[atom_index] = false;
  }

  const std::vector<Atom>& pattern_;
  const Instance& target_;
  const HomOptions& options_;
  const std::function<bool(const Substitution&)>& callback_;

  Substitution assignment_;
  std::vector<char> processed_;
  FlatSet<Term> used_;
  size_t count_ = 0;
  bool stopped_ = false;

  Governor* governor_;
  uint64_t charge_batch_;
  uint64_t pending_nodes_ = 0;
};

}  // namespace

HomomorphismSearch::HomomorphismSearch(const std::vector<Atom>& pattern,
                                       const Instance& target,
                                       HomOptions options)
    : pattern_(pattern), target_(target), options_(std::move(options)) {}

void HomomorphismSearch::RecordStatus() {
  status_ = options_.governor != nullptr ? options_.governor->status()
                                         : Status::kCompleted;
}

size_t HomomorphismSearch::ForEach(
    const std::function<bool(const Substitution&)>& callback) {
  Searcher searcher(pattern_, target_, options_, callback);
  if (!searcher.Seed()) {
    RecordStatus();
    return 0;
  }
  size_t count = searcher.Run();
  RecordStatus();
  return count;
}

std::vector<Substitution> HomomorphismSearch::FindAll(size_t limit) {
  std::vector<Substitution> all;
  ForEach([&all, limit](const Substitution& sub) {
    all.push_back(sub);
    return limit == 0 || all.size() < limit;
  });
  return all;
}

std::optional<Substitution> HomomorphismSearch::FindOne() {
  std::optional<Substitution> result;
  ForEach([&result](const Substitution& sub) {
    result = sub;
    return false;  // stop after the first
  });
  return result;
}

bool HomomorphismSearch::Exists() { return FindOne().has_value(); }

std::vector<Atom> PatternFromInstance(
    const Instance& from, const std::vector<Term>& fixed,
    std::unordered_map<Term, Term>* element_to_var) {
  std::unordered_set<Term> fixed_set(fixed.begin(), fixed.end());
  std::unordered_map<Term, Term> to_var;
  std::vector<Atom> pattern;
  pattern.reserve(from.size());
  for (uint32_t i = 0; i < from.size(); ++i) {
    const std::span<const Term> fact_args = from.args_of(i);
    std::vector<Term> args;
    args.reserve(fact_args.size());
    for (Term t : fact_args) {
      if (fixed_set.count(t) > 0) {
        args.push_back(t);
        continue;
      }
      auto it = to_var.find(t);
      if (it == to_var.end()) {
        it = to_var.emplace(t, Term::FreshVariable()).first;
      }
      args.push_back(it->second);
    }
    pattern.push_back(Atom(from.predicate_of(i), std::move(args)));
  }
  if (element_to_var != nullptr) *element_to_var = std::move(to_var);
  return pattern;
}

std::optional<Substitution> InstanceHomomorphism(const Instance& from,
                                                 const Instance& to,
                                                 const std::vector<Term>& fixed,
                                                 bool injective) {
  std::unordered_map<Term, Term> element_to_var;
  std::vector<Atom> pattern = PatternFromInstance(from, fixed, &element_to_var);
  HomOptions options;
  options.injective = injective;
  HomomorphismSearch search(pattern, to, options);
  std::optional<Substitution> var_solution = search.FindOne();
  if (!var_solution.has_value()) return std::nullopt;
  // Translate variable assignment back to an element mapping.
  Substitution element_map;
  for (const auto& [element, var] : element_to_var) {
    element_map.Set(element, var_solution->Apply(var));
  }
  for (Term t : fixed) element_map.Set(t, t);
  return element_map;
}

}  // namespace gqe
