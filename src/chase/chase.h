#ifndef GQE_CHASE_CHASE_H_
#define GQE_CHASE_CHASE_H_

#include <cstdint>
#include <vector>

#include "base/atom.h"
#include "base/governor.h"
#include "base/instance.h"
#include "query/substitution.h"
#include "tgd/tgd.h"
#include "verify/witness.h"

namespace gqe {

/// The complete engine state at a chase round boundary, sufficient to
/// continue the run and reproduce the bit-identical final instance a
/// straight-through run produces (same facts in the same insertion
/// order, same labelled-null ids, same levels). Round boundaries are the
/// only consistent snapshot points: rounds are transactional, so
/// mid-round state never escapes. A round fires every trigger it finds,
/// so no trigger outlives its round.
struct ChaseCheckpointState {
  /// Value Term::NextNullId() held at the boundary; restored on resume
  /// so re-fired triggers allocate the same labelled nulls.
  uint32_t next_null_id = 0;

  /// Committed rounds so far — the checkpoint's generation number.
  uint64_t rounds_completed = 0;

  /// First fact index of the semi-naive delta frontier.
  uint64_t delta_start = 0;

  uint64_t triggers_fired = 0;
  int32_t max_level_built = 0;

  /// True iff this snapshot is a fixpoint (a saturated chase): loading
  /// it yields chase(D, Σ) with no further work.
  bool complete = false;

  /// Committed facts in insertion order, with their Lemma A.1 levels.
  std::vector<Atom> atoms;
  std::vector<int32_t> levels;

  /// Keys of fired triggers (tgd index + body-variable images), in
  /// firing order. A resumed run needs them only for the derivation
  /// witness: no later round can find a trigger that already fired.
  std::vector<std::vector<uint32_t>> fired;

  /// When the run collects a derivation witness: the labelled-null ids
  /// each fired trigger invented (parallel to `fired`, in
  /// Tgd::ExistentialVariables() order), so a resumed run reproduces a
  /// bit-identical replayable derivation log. Empty when
  /// `witness_collected` is false.
  std::vector<std::vector<uint32_t>> fired_nulls;
  bool witness_collected = false;
};

/// Receives round-boundary snapshots from a running chase. Implemented
/// by chase/checkpoint.h's DirectoryCheckpointSink (atomic tmp-file +
/// rename persistence); tests plug in in-memory sinks.
class ChaseCheckpointSink {
 public:
  virtual ~ChaseCheckpointSink() = default;

  /// Called with the committed state at every round boundary, and once
  /// more when the run reaches its fixpoint (the same generation, now
  /// marked complete). A run stopped by a guard rail or budget mid-round
  /// loses only that round: its last boundary was already delivered.
  virtual void Write(const ChaseCheckpointState& state) = 0;
};

/// One unit of trigger-discovery work: the sequential discovery loop,
/// split at its natural grain. anchor < 0 is the initial full pass over a
/// TGD's body; anchor >= 0 searches with body[anchor] bound onto each
/// fact of [delta_begin, delta_end) — a contiguous chunk of the delta
/// frontier. Units are created — and their outputs merged — in the exact
/// order the discovery loop visits the (tgd, anchor, fact) triples,
/// which is what makes the storage-sharded chase bit-identical to the
/// local one.
struct ChaseDiscoveryUnit {
  size_t tgd_index = 0;
  int anchor = -1;
  size_t delta_begin = 0;
  size_t delta_end = 0;
};

/// Runs one discovery unit against a frozen instance, appending every
/// body homomorphism found to `out` in canonical (enumeration) order.
/// Read-only on the instance; safe to run in forked worker processes.
void RunChaseDiscoveryUnit(const ChaseDiscoveryUnit& unit, const TgdSet& tgds,
                           const Instance& instance, Governor* governor,
                           std::vector<Substitution>* out);

/// The single-fact slice of an anchored unit: body[anchor] of TGD
/// `tgd_index` is bound onto fact `fact_index` only, emitting exactly the
/// substitutions the enclosing unit emits for that fact, in the same
/// order. The storage-shard coordinator runs this inline for a fact
/// whose residual join spans several fragments.
void RunChaseDiscoveryAtFact(size_t tgd_index, int anchor, size_t fact_index,
                             const TgdSet& tgds, const Instance& instance,
                             Governor* governor,
                             std::vector<Substitution>* out);

/// Binds `anchor_atom`'s arguments against one fact (predicate +
/// argument terms), accumulating the variable bindings into `fixed`.
/// Returns false on any mismatch: wrong predicate, a ground argument
/// that differs, or two positions demanding different images for the
/// same variable. This is the exact binding step of
/// RunChaseDiscoveryAtFact, exposed so storage-shard workers can
/// classify and seed per-fact discovery on their fragments with
/// bit-identical semantics.
bool BindDiscoveryAnchor(const Atom& anchor_atom, PredicateId fact_predicate,
                         std::span<const Term> fact_args, Substitution* fixed);

/// Everything a discovery hook needs to produce one round's candidate
/// triggers: the frozen committed instance, the rule set, the round's
/// discovery units in canonical order and the delta frontier they cover.
struct ChaseDiscoveryRound {
  const Instance* instance = nullptr;
  const TgdSet* tgds = nullptr;
  const std::vector<ChaseDiscoveryUnit>* units = nullptr;
  size_t delta_start = 0;
  size_t delta_end = 0;
  /// Committed rounds before this one — the round's generation number.
  uint64_t round = 0;
  Governor* governor = nullptr;
};

/// Replaces the engine's local discovery phase (the shard coordinator's
/// seam). The hook must fill (*found)[u] with exactly the substitutions
/// RunChaseDiscoveryUnit((*round.units)[u], ...) produces, in the same
/// order — the engine's deterministic merge, level assignment, null
/// allocation and fire phase run unchanged on top, which is what makes a
/// distributed discovery bit-identical to the local one by construction.
/// Returning false means the round's candidates could not be produced
/// (e.g. an irrecoverable shard): the engine discards the round, trips
/// the governor with Status::kShardLost and stops at the last committed
/// boundary — from which a later resume can continue.
class ChaseDiscoveryHook {
 public:
  virtual ~ChaseDiscoveryHook() = default;
  virtual bool DiscoverRound(const ChaseDiscoveryRound& round,
                             std::vector<std::vector<Substitution>>* found) = 0;
};

/// Options for the chase procedure (paper, Section 2).
struct ChaseOptions {
  /// Resource limits (fact budget, search-node budget, deadline, cancel
  /// token). Replaces the old `max_facts` field: set
  /// `budget.max_facts` to bound materialization. Ignored when `governor`
  /// is set.
  ExecutionBudget budget;

  /// Optional shared governor (e.g. from an enclosing OMQ evaluation) so
  /// nested engines draw on one budget. When null the chase governs
  /// itself from `budget`.
  Governor* governor = nullptr;

  /// Build the chase only up to this level (Lemma A.1 levels: database
  /// facts have level 0; a fact created by a trigger has level
  /// 1 + max level of the matched body facts). Negative: unlimited.
  int max_level = -1;

  /// Restricted chase: skip a trigger whose head is already satisfied
  /// with the frontier mapped as the trigger prescribes. The paper's
  /// reference semantics is the *oblivious* chase (false).
  bool restricted = false;

  /// When set, the engine delivers every round-boundary state snapshot
  /// to this sink (see ChaseCheckpointSink::Write); the sink owns
  /// persistence. Null disables checkpointing (no tracking overhead is
  /// paid).
  ChaseCheckpointSink* checkpoint_sink = nullptr;

  /// When set, the engine delegates each round's trigger discovery to
  /// this hook (see ChaseDiscoveryHook) instead of running the units
  /// itself — the seam the storage-sharded multi-process chase
  /// (shard/storage_shard.h) plugs into. The merge/fire machinery is
  /// unaffected, so results stay bit-identical as long as the hook
  /// honors the per-unit order contract.
  ChaseDiscoveryHook* discovery_hook = nullptr;

  /// Collect a replayable derivation log (verify/witness.h) into
  /// ChaseResult::derivation. Oblivious chase only: the restricted
  /// chase's skipped-trigger semantics has no step-by-step replay, so
  /// the flag is ignored (witness stays uncollected) when `restricted`
  /// is set. Resuming from a snapshot that did not record null draws
  /// also leaves the witness uncollected — the prefix is unknown.
  bool collect_witness = false;
};

/// Per-round instrumentation of the chase engine (discovery vs merge
/// time, candidate and fire counts).
struct ChaseRoundStats {
  /// Candidate triggers emitted by the units, before deduplication.
  size_t candidates = 0;
  /// Triggers fired after the merge.
  size_t triggers_fired = 0;
  /// Wall-clock time of the discovery phase.
  double discovery_ms = 0.0;
  /// Wall-clock time of the merge + fire phase.
  double merge_ms = 0.0;
};

/// Result of a chase run.
struct ChaseResult {
  Instance instance;

  /// Lemma A.1 s-level of every fact (level-wise chase sequence),
  /// parallel to the instance's fact ids: levels[i] is the level of fact i.
  /// Look a fact's level up as levels[instance.Find(atom)].
  std::vector<int32_t> levels;

  /// True iff a fixpoint was reached: no unfired applicable trigger
  /// remains, hence instance |= Σ.
  bool complete = false;

  /// Why (and with how much work) the run ended. `outcome.status` is
  /// kCompleted for a fixpoint or a max_level stop (a requested bound,
  /// not a resource trip); any other status means a guard rail fired and
  /// `instance` is the last committed prefix. Chase rounds are
  /// transactional: a cancellation or deadline trip discards the partial
  /// round, so the committed prefix ends at a round boundary (the
  /// restricted chase also keeps the triggers it already flushed).
  Outcome outcome;

  int max_level_built = 0;
  size_t triggers_fired = 0;

  /// Committed rounds over the whole logical run (resumed runs continue
  /// the checkpoint's count, so this is also the generation number of
  /// the last consistent boundary).
  uint64_t rounds_completed = 0;

  /// One entry per chase round, in order.
  std::vector<ChaseRoundStats> round_stats;

  /// Replayable derivation log (ChaseOptions::collect_witness):
  /// re-firing its steps from the database reproduces `instance`
  /// bit-for-bit — VerifyDerivation (verify/verifier.h) is the
  /// independent checker. `derivation.collected` is false when
  /// collection was off, restricted, or resumed from a witness-less
  /// snapshot.
  DerivationWitness derivation;

  /// chase^l: the sub-instance of facts with level <= l, in the
  /// instance's insertion order (a walk over `levels` by fact index).
  Instance UpToLevel(int level) const;
};

/// Runs the (oblivious, level-wise) chase of `db` under `tgds`
/// (Section 2). With default options this terminates only when the chase
/// is finite (e.g. full or weakly-acyclic sets); use max_level or the
/// options' budget (facts / deadline / cancel) to bound it otherwise.
ChaseResult Chase(const Instance& db, const TgdSet& tgds,
                  const ChaseOptions& options = {});

/// Continues a chase from a round-boundary checkpoint state (the
/// in-memory half of crash recovery; chase/checkpoint.h adds the disk
/// layer). Restores the instance, levels, fired-trigger log, delta
/// frontier and the labelled-null counter, then runs the ordinary round
/// loop: killed at any round and resumed, the final instance is
/// bit-identical to an uninterrupted run. `tgds` must be the rule set the
/// checkpointed run used.
ChaseResult ResumeChaseFromState(const ChaseCheckpointState& state,
                                 const TgdSet& tgds,
                                 const ChaseOptions& options = {});

/// I |= σ: every homomorphism from the body extends to a homomorphism of
/// the head (Section 2, via q_ϕ(I) ⊆ q_ψ(I)).
bool Satisfies(const Instance& instance, const Tgd& tgd);
bool Satisfies(const Instance& instance, const TgdSet& tgds);

}  // namespace gqe

#endif  // GQE_CHASE_CHASE_H_
