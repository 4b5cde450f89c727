#include "chase/chase.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <span>
#include <utility>

#include "base/flat_table.h"
#include "chase/trigger_set.h"
#include "query/homomorphism.h"
#include "query/substitution.h"

namespace gqe {

namespace {

/// Identity of an oblivious-chase trigger: the TGD index plus the images
/// of its body variables (paper: the pair (σ, (c̄, c̄'))), written into
/// `key` (reused across calls).
void FillTriggerKey(size_t tgd_index, const std::vector<Term>& body_vars,
                    const Substitution& sub, std::vector<uint32_t>* key) {
  key->clear();
  key->push_back(static_cast<uint32_t>(tgd_index));
  for (Term v : body_vars) key->push_back(sub.Apply(v).bits());
}

/// True if the head of `tgd` is satisfied in `instance` with the frontier
/// fixed as in `sub`.
bool HeadSatisfied(const Instance& instance, const Tgd& tgd,
                   const Substitution& sub, Governor* governor = nullptr) {
  HomOptions options;
  options.governor = governor;
  for (Term v : tgd.Frontier()) options.fixed.Set(v, sub.Apply(v));
  HomomorphismSearch search(tgd.head(), instance, options);
  return search.Exists();
}

/// Rebuilds a replayable derivation log from the fired-trigger keys and
/// the parallel null-draw log: key[0] is the TGD index, key[1..] the
/// body-variable images (term bits), nulls[i] the labelled nulls step i
/// invented. The digest fields are only meaningful for an exact log.
void BuildDerivationWitness(const std::vector<std::vector<uint32_t>>& keys,
                            const std::vector<std::vector<uint32_t>>& nulls,
                            bool exact, bool complete, ChaseResult* result) {
  DerivationWitness& witness = result->derivation;
  witness.collected = true;
  witness.complete = complete;
  witness.replay_exact = exact;
  witness.steps.clear();
  witness.steps.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    DerivationStep step;
    if (!keys[i].empty()) {
      step.tgd_index = keys[i][0];
      step.body_images.reserve(keys[i].size() - 1);
      for (size_t j = 1; j < keys[i].size(); ++j) {
        step.body_images.push_back(Term::FromBits(keys[i][j]));
      }
    }
    if (i < nulls.size()) {
      step.existential_images.reserve(nulls[i].size());
      for (uint32_t id : nulls[i]) {
        step.existential_images.push_back(Term::Null(id));
      }
    }
    witness.steps.push_back(std::move(step));
  }
  witness.final_facts = result->instance.size();
  witness.instance_crc = exact ? InstanceTextCrc(result->instance) : 0;
}

/// An anchored (TGD, body atom) pair's delta is split into this many
/// discovery units, each of at least kMinDiscoveryChunk facts. The local
/// engine runs the units back to back, so the split does not change what
/// it derives; it is kept fixed because the storage-shard coordinator
/// ships these unit boundaries to its workers in every discover command,
/// so changing either constant changes the sharded chase's wire traffic.
constexpr size_t kDiscoveryChunksPerDelta = 4;
constexpr size_t kMinDiscoveryChunk = 64;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Shared implementation of Chase and ResumeChaseFromState: exactly one
/// of `db` (fresh run) / `resume` (continue from a round boundary) is
/// non-null.
ChaseResult ChaseImpl(const Instance* db, const ChaseCheckpointState* resume,
                      const TgdSet& tgds, const ChaseOptions& options) {
  ChaseResult result;
  GovernorScope scope(options.governor, options.budget);
  Governor* governor = scope.get();

  // Derivation-witness collection (oblivious chase only: the restricted
  // chase's skipped triggers have no replayable step semantics). The
  // null-draw log runs parallel to the fired-key log below.
  bool collecting = options.collect_witness && !options.restricted;
  bool witness_exact = true;

  // Trigger keys of the current round. A trigger's body facts are fixed
  // and it binds at least one delta fact, so it is discovered in exactly
  // one round: the set only drops a trigger found again in the same round
  // (several body atoms landing on delta facts), and is cleared per round.
  TriggerKeySet seen;
  std::vector<uint32_t> key;  // reused key buffer
  std::vector<std::vector<Term>> body_vars(tgds.size());
  std::vector<std::vector<Term>> existentials(tgds.size());
  for (size_t i = 0; i < tgds.size(); ++i) {
    body_vars[i] = tgds[i].BodyVariables();
    existentials[i] = tgds[i].ExistentialVariables();
  }

  struct PendingTrigger {
    size_t tgd_index;
    Substitution sub;
  };

  // Semi-naive trigger discovery: after the first full pass, only search
  // for homomorphisms in which at least one body atom maps onto a fact
  // created since the previous round (the delta frontier).
  size_t delta_start = 0;  // first fact index of the current delta

  // Lemma A.1 level of fact i, parallel to the instance's insertion
  // order.
  std::vector<int32_t>& levels = result.levels;

  if (resume != nullptr) {
    // Rebuild the round-boundary state. Insertion order, levels and the
    // null counter come straight from the snapshot, so the continued run
    // interleaves with the committed prefix exactly as the original
    // would have.
    Term::SetNextNullId(resume->next_null_id);
    result.instance.Reserve(resume->atoms.size(), resume->atoms.size() * 2);
    levels.reserve(resume->atoms.size());
    for (size_t i = 0; i < resume->atoms.size(); ++i) {
      if (result.instance.Insert(resume->atoms[i])) {
        levels.push_back(i < resume->levels.size() ? resume->levels[i] : 0);
      }
    }
    // The committed prefix counts toward the fact budget just as the
    // original run charged it, so a resumed run sees the same rails.
    governor->ChargeFacts(resume->atoms.size());
    result.rounds_completed = resume->rounds_completed;
    result.triggers_fired = resume->triggers_fired;
    result.max_level_built = resume->max_level_built;
    delta_start = static_cast<size_t>(resume->delta_start);
  } else {
    result.instance = *db;
    levels.assign(result.instance.size(), 0);
    // Copying the input counts toward the fact budget, so nested engines
    // sharing a governor cannot multiply caps by re-copying.
    governor->ChargeFacts(db->size());
  }

  if (resume != nullptr && resume->complete) {
    // A saturated snapshot: the restored instance is chase(D, Σ). When
    // it recorded null draws the derivation log is rebuilt from it, so
    // a resumed-from-fixpoint run still ships a checkable witness.
    result.complete = true;
    if (collecting && resume->witness_collected &&
        resume->fired_nulls.size() == resume->fired.size()) {
      BuildDerivationWitness(resume->fired, resume->fired_nulls,
                             /*exact=*/true, /*complete=*/true, &result);
    }
    result.outcome = governor->MakeOutcome();
    return result;
  }

  // Checkpoint tracking: `boundary` mirrors the state at the most recent
  // round boundary, maintained incrementally (append-only facts and
  // fired keys), and every boundary is delivered before the next round
  // starts. A guard-rail trip mid-round leaves the delivered boundary as
  // the last *consistent* state — rounds stay transactional on disk just
  // as they are in memory.
  ChaseCheckpointSink* sink = options.checkpoint_sink;
  const bool tracking = sink != nullptr;
  ChaseCheckpointState boundary;
  // Fired keys in firing order (tracking or witness collection) and,
  // when collecting, the parallel per-step null draws.
  std::vector<std::vector<uint32_t>> fired_log;
  std::vector<std::vector<uint32_t>> null_log;
  // Generation already delivered to the sink (the resumed-from state is
  // durable by definition).
  uint64_t delivered = resume != nullptr ? resume->rounds_completed
                                         : ~static_cast<uint64_t>(0);
  if (resume != nullptr) {
    if (collecting) {
      if (resume->witness_collected &&
          resume->fired_nulls.size() == resume->fired.size()) {
        null_log = resume->fired_nulls;
      } else if (!resume->fired.empty()) {
        // The committed prefix never recorded its null draws: the log
        // cannot be reconstructed, so the witness stays uncollected.
        collecting = false;
      }
    }
    if (tracking) boundary = *resume;
  }
  const bool logging = tracking || collecting;
  if (resume != nullptr && logging) fired_log = resume->fired;
  auto sync_boundary = [&]() {
    for (size_t i = boundary.atoms.size(); i < result.instance.size(); ++i) {
      boundary.atoms.push_back(result.instance.atom(i));
      boundary.levels.push_back(levels[i]);
    }
    for (size_t i = boundary.fired.size(); i < fired_log.size(); ++i) {
      boundary.fired.push_back(fired_log[i]);
    }
    if (collecting) {
      for (size_t i = boundary.fired_nulls.size(); i < null_log.size(); ++i) {
        boundary.fired_nulls.push_back(null_log[i]);
      }
    }
    boundary.witness_collected = collecting;
    boundary.delta_start = delta_start;
    boundary.rounds_completed = result.rounds_completed;
    boundary.triggers_fired = result.triggers_fired;
    boundary.max_level_built = result.max_level_built;
    boundary.next_null_id = Term::NextNullId();
    boundary.complete = result.complete;
  };

  for (;;) {
    if (tracking) {
      sync_boundary();
      if (delivered != result.rounds_completed) {
        sink->Write(boundary);
        delivered = result.rounds_completed;
      }
    }
    // Round-boundary checkpoint: probes the deadline, cancellation and the
    // injector. One checkpoint per round, deterministically placed.
    if (governor->Check() != Status::kCompleted) {
      result.complete = false;
      break;
    }
    // Lemma A.1, level-wise: every trigger this round finds binds a delta
    // fact (level `level`) and no newer one, so the round is one level.
    const int level = result.max_level_built;
    const size_t delta_end = result.instance.size();

    // Discovery units in the order the discovery loop visits them. Chunk
    // boundaries never affect the merge order (chunks of one TGD × anchor
    // pair are merged in ascending fact order).
    const size_t delta_size = delta_end - delta_start;
    const size_t chunk = std::max(
        kMinDiscoveryChunk,
        (delta_size + kDiscoveryChunksPerDelta - 1) / kDiscoveryChunksPerDelta);
    std::vector<ChaseDiscoveryUnit> units;
    for (size_t t = 0; t < tgds.size(); ++t) {
      const auto& body = tgds[t].body();
      // An empty-body TGD fires in round 0 only. Over an empty database
      // the delta still starts at 0 in round 1, so the full pass repeats
      // there; every other trigger it finds binds a round-0 fact.
      if (body.empty() && result.rounds_completed > 0) continue;
      if (delta_start == 0) {
        units.push_back({t, -1, 0, 0});
        continue;
      }
      for (size_t anchor = 0; anchor < body.size(); ++anchor) {
        for (size_t begin = delta_start; begin < delta_end; begin += chunk) {
          units.push_back({t, static_cast<int>(anchor), begin,
                           std::min(begin + chunk, delta_end)});
        }
      }
    }

    ChaseRoundStats stats;
    auto discovery_start = std::chrono::steady_clock::now();
    // Discovery only reads the (frozen) instance and writes per-unit
    // buffers; all state updates happen in the merge below.
#ifndef NDEBUG
    // Discovery holds spans into the columnar Term column; any insert or
    // index rehash while it runs would dangle those spans.
    const size_t frozen_facts = result.instance.size();
    const uint64_t frozen_rehashes = result.instance.IndexRehashes();
#endif
    std::vector<std::vector<Substitution>> found(units.size());
    if (options.discovery_hook != nullptr) {
      // Distributed discovery: the hook owns this round's units (the
      // sharded chase's coordinator). Its order contract — (*found)[u]
      // holds exactly what RunChaseDiscoveryUnit(units[u]) would emit —
      // keeps the merge below canonical.
      ChaseDiscoveryRound round_ctx;
      round_ctx.instance = &result.instance;
      round_ctx.tgds = &tgds;
      round_ctx.units = &units;
      round_ctx.delta_start = delta_start;
      round_ctx.delta_end = delta_end;
      round_ctx.round = result.rounds_completed;
      round_ctx.governor = governor;
      if (!options.discovery_hook->DiscoverRound(round_ctx, &found)) {
        // The round's candidates could not be produced (an irrecoverable
        // shard): discard the round and stop at the last committed
        // boundary. Trip is sticky, so an earlier deadline/cancel cause
        // is preserved.
        governor->Trip(Status::kShardLost);
        found.assign(units.size(), {});
      }
      found.resize(units.size());
    } else {
      for (size_t u = 0; u < units.size(); ++u) {
        RunChaseDiscoveryUnit(units[u], tgds, result.instance, governor,
                              &found[u]);
      }
    }
#ifndef NDEBUG
    assert(result.instance.size() == frozen_facts &&
           result.instance.IndexRehashes() == frozen_rehashes &&
           "instance mutated during discovery: spans dangled");
#endif
    stats.discovery_ms = MsSince(discovery_start);

    // Deterministic merge: visiting units (and candidates within a unit)
    // in canonical order fixes the pending list — and hence null
    // allocation and fact insertion order — whoever produced the units'
    // candidates.
    auto merge_start = std::chrono::steady_clock::now();
    for (const std::vector<Substitution>& subs : found) {
      stats.candidates += subs.size();
    }
    seen.clear();
    seen.reserve(stats.candidates);
    std::vector<PendingTrigger> pending;
    pending.reserve(stats.candidates);
    for (size_t u = 0; u < units.size(); ++u) {
      const size_t t = units[u].tgd_index;
      for (Substitution& sub : found[u]) {
        FillTriggerKey(t, body_vars[t], sub, &key);
        if (seen.insert(key)) pending.push_back({t, std::move(sub)});
      }
    }
    found.clear();

    delta_start = delta_end;
    // A trip during discovery leaves an incomplete pending list; discard
    // the round rather than fire from it.
    if (governor->Check() != Status::kCompleted) {
      stats.merge_ms = MsSince(merge_start);
      result.round_stats.push_back(stats);
      result.complete = false;
      break;
    }
    if (pending.empty()) {
      stats.merge_ms = MsSince(merge_start);
      result.round_stats.push_back(stats);
      result.complete = true;
      if (tracking) {
        // Deliver the fixpoint as a *complete* snapshot: loading it
        // yields the saturated chase with no further work (OMQ
        // evaluation resumes from it instead of re-chasing).
        sync_boundary();
        sink->Write(boundary);
      }
      break;
    }
    if (options.max_level >= 0 && level >= options.max_level) {
      // Every pending trigger would create facts beyond the level budget.
      stats.merge_ms = MsSince(merge_start);
      result.round_stats.push_back(stats);
      result.complete = false;
      break;
    }
    // Fire phase (sequential, deterministic). Insertions are staged and
    // committed at the round boundary: a cancellation / deadline /
    // injected trip detected at any fire-phase checkpoint discards the
    // partial round, so the committed prefix is the last round boundary.
    // A fact-budget trip instead commits the staged prefix (the
    // budget gates every insertion — a run never holds more than
    // budget.max_facts facts unless the input database already does, and
    // the sequential fire order makes the kept prefix deterministic too).
    // The restricted chase flushes after each trigger instead of at the
    // round boundary: head-satisfaction checks must see the facts fired
    // earlier in the same round, which is the paper-exact restricted
    // semantics.
    bool budget_hit = false;
    Status abort_status = Status::kCompleted;
    // Staged head facts, deduplicated in their own columns. Every staged
    // fact has level `level` + 1.
    FactStore staged;
    std::vector<Term> head_args;
    size_t round_fired = 0;
    // An aborted (discarded) round truncates the witness logs back here
    // so the derivation log only ever describes committed facts.
    const size_t round_log_start = fired_log.size();
    auto commit_staged = [&]() {
      if (staged.empty()) return;
      result.instance.Reserve(result.instance.size() + staged.size(),
                              result.instance.store().term_column().size() +
                                  staged.term_column().size());
      for (uint32_t i = 0; i < staged.size(); ++i) {
        if (result.instance.Insert(staged.predicate(i), staged.args(i))) {
          levels.push_back(level + 1);
        }
      }
      result.max_level_built = level + 1;
      staged.clear();
    };
    for (PendingTrigger& trigger : pending) {
      const Status at_trigger = governor->Check();
      if (at_trigger != Status::kCompleted) {
        abort_status = at_trigger;
        break;
      }
      if (logging) {
        FillTriggerKey(trigger.tgd_index, body_vars[trigger.tgd_index],
                       trigger.sub, &key);
        fired_log.push_back(key);
      }
      const Tgd& tgd = tgds[trigger.tgd_index];
      if (options.restricted &&
          HeadSatisfied(result.instance, tgd, trigger.sub, governor)) {
        continue;
      }
      ++round_fired;
      // The trigger is spent after this step, so its substitution is
      // extended in place.
      Substitution& extended = trigger.sub;
      std::vector<uint32_t> drawn;
      for (Term z : existentials[trigger.tgd_index]) {
        Term fresh = Term::FreshNull();
        if (collecting) drawn.push_back(fresh.id());
        extended.Set(z, fresh);
      }
      if (collecting) null_log.push_back(std::move(drawn));
      for (const Atom& head_atom : tgd.head()) {
        const PredicateId pred = head_atom.predicate();
        head_args.clear();
        for (Term a : head_atom.args()) head_args.push_back(extended.Apply(a));
        if (result.instance.store().Contains(pred, head_args) ||
            staged.Contains(pred, head_args)) {
          continue;
        }
        const Status charged = governor->ChargeFacts(1);
        if (charged != Status::kCompleted) {
          // Only a fact-budget trip keeps the staged prefix; a cancel or
          // deadline landing on this checkpoint discards the round like
          // one caught at a trigger boundary.
          if (charged == Status::kBudgetExceeded) {
            budget_hit = true;
          } else {
            abort_status = charged;
          }
          break;
        }
        staged.InsertUnique(pred, head_args);
      }
      if (abort_status != Status::kCompleted) {
        --round_fired;  // this trigger's facts are discarded below
        break;
      }
      if (options.restricted) commit_staged();
      if (budget_hit) break;
    }
    if (abort_status != Status::kCompleted) {
      // Discard the staged partial round (already-flushed restricted-mode
      // triggers stay; restricted rounds are per-trigger transactional).
      staged.clear();
      if (collecting) {
        fired_log.resize(round_log_start);
        null_log.resize(round_log_start);
      }
      if (options.restricted) {
        result.triggers_fired += round_fired;
        stats.triggers_fired = round_fired;
      }
      stats.merge_ms = MsSince(merge_start);
      result.round_stats.push_back(stats);
      result.complete = false;
      break;
    }
    commit_staged();
    result.triggers_fired += round_fired;
    stats.triggers_fired = round_fired;
    stats.merge_ms = MsSince(merge_start);
    result.round_stats.push_back(stats);
    if (budget_hit) {
      // The staged prefix is committed in memory but the round is
      // partial: the durable state stays at the previous boundary, so a
      // resume with a larger budget replays and completes the round.
      // The last logged step's head facts are only partially committed,
      // so the derivation log is sound but no longer exact.
      witness_exact = false;
      result.complete = false;
      break;
    }
    ++result.rounds_completed;
  }
  if (collecting) {
    BuildDerivationWitness(fired_log, null_log, witness_exact,
                           result.complete, &result);
  }
  result.outcome = governor->MakeOutcome();
  return result;
}

}  // namespace

bool BindDiscoveryAnchor(const Atom& anchor_atom, PredicateId fact_predicate,
                         std::span<const Term> fact_args,
                         Substitution* fixed) {
  if (fact_predicate != anchor_atom.predicate()) return false;
  for (size_t pos = 0; pos < fact_args.size(); ++pos) {
    Term t_pat = anchor_atom.args()[pos];
    Term image = fact_args[pos];
    if (t_pat.IsGround()) {
      if (!(t_pat == image)) return false;
    } else if (fixed->Has(t_pat)) {
      if (!(fixed->Apply(t_pat) == image)) return false;
    } else {
      fixed->Set(t_pat, image);
    }
  }
  return true;
}

void RunChaseDiscoveryAtFact(size_t tgd_index, int anchor, size_t fact_index,
                             const TgdSet& tgds, const Instance& instance,
                             Governor* governor,
                             std::vector<Substitution>* out) {
  if (governor->Tripped()) return;
  const auto& body = tgds[tgd_index].body();
  const Atom& anchor_atom = body[anchor];
  const uint32_t fi = static_cast<uint32_t>(fact_index);
  // Bind the anchor atom's variables against this fact.
  HomOptions options;
  if (!BindDiscoveryAnchor(anchor_atom, instance.predicate_of(fi),
                           instance.args_of(fi), &options.fixed)) {
    return;
  }
  options.governor = governor;
  HomomorphismSearch search(body, instance, options);
  search.ForEach([&](const Substitution& sub) {
    out->push_back(sub);
    return true;
  });
}

void RunChaseDiscoveryUnit(const ChaseDiscoveryUnit& unit, const TgdSet& tgds,
                           const Instance& instance, Governor* governor,
                           std::vector<Substitution>* out) {
  if (governor->Tripped()) return;
  if (unit.anchor < 0) {
    // Initial full pass, in enumeration order.
    const auto& body = tgds[unit.tgd_index].body();
    HomOptions options;
    options.governor = governor;
    HomomorphismSearch search(body, instance, options);
    *out = search.FindAll();
    return;
  }
  // Anchor one body atom at each fact of this unit's delta chunk. Only
  // facts of the anchor's predicate can bind it, so the walk covers that
  // predicate's (ascending) postings inside the chunk — the same facts,
  // in the same order, as a sweep of the whole chunk would bind.
  const std::vector<uint32_t>& facts = instance.FactsWithPredicate(
      tgds[unit.tgd_index].body()[unit.anchor].predicate());
  for (auto it = std::lower_bound(facts.begin(), facts.end(),
                                  unit.delta_begin);
       it != facts.end() && *it < unit.delta_end; ++it) {
    if (governor->Tripped()) return;
    RunChaseDiscoveryAtFact(unit.tgd_index, unit.anchor, *it, tgds, instance,
                            governor, out);
  }
}

ChaseResult Chase(const Instance& db, const TgdSet& tgds,
                  const ChaseOptions& options) {
  return ChaseImpl(&db, nullptr, tgds, options);
}

ChaseResult ResumeChaseFromState(const ChaseCheckpointState& state,
                                 const TgdSet& tgds,
                                 const ChaseOptions& options) {
  return ChaseImpl(nullptr, &state, tgds, options);
}

Instance ChaseResult::UpToLevel(int level) const {
  Instance out;
  for (size_t i = 0; i < levels.size(); ++i) {
    if (levels[i] > level) continue;
    out.Insert(instance.predicate_of(i), instance.args_of(i));
  }
  return out;
}

bool Satisfies(const Instance& instance, const Tgd& tgd) {
  bool satisfied = true;
  HomomorphismSearch search(tgd.body(), instance);
  search.ForEach([&](const Substitution& sub) {
    if (!HeadSatisfied(instance, tgd, sub)) {
      satisfied = false;
      return false;
    }
    return true;
  });
  return satisfied;
}

bool Satisfies(const Instance& instance, const TgdSet& tgds) {
  return std::all_of(tgds.begin(), tgds.end(), [&](const Tgd& tgd) {
    return Satisfies(instance, tgd);
  });
}

}  // namespace gqe
