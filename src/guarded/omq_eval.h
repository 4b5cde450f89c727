#ifndef GQE_GUARDED_OMQ_EVAL_H_
#define GQE_GUARDED_OMQ_EVAL_H_

#include <vector>

#include "base/governor.h"
#include "base/instance.h"
#include "guarded/chase_tree.h"
#include "guarded/type_closure.h"
#include "query/cq.h"
#include "tgd/tgd.h"
#include "verify/witness.h"

namespace gqe {

/// Options for guarded certain-answer evaluation.
///
/// The portion blocks a bag whose shape repeats (#query variables + 1)
/// times on its path (see DESIGN.md §2 item 3) and expands no bag deeper
/// than kMaxBagDepth.
struct GuardedEvalOptions {
  /// Resource limits shared by the portion build and the query
  /// evaluation over it. Ignored when `governor` is set.
  ExecutionBudget budget;

  /// Optional shared governor (see ChaseOptions::governor).
  Governor* governor = nullptr;

  /// GuardedCertainlyHolds only: decide the candidate answer over the
  /// materialized portion with the Proposition 2.1 tree-decomposition DP
  /// (the FPT algorithm of Prop. 3.3(3) when the query is in UCQ_k)
  /// instead of the backtracking join. EvaluateGuardedCertainAnswers
  /// always enumerates answers with the backtracking join.
  bool use_tree_dp = false;

  /// Certificate collection. The guarded portion itself is not a chase
  /// prefix, so answers are certified independently: an
  /// iteratively-deepened *oblivious* chase (levels 1, 2, 4, … up to
  /// `witness.certify_max_level`, at most `witness.certify_max_facts`
  /// facts) is replayed until every reported answer has a homomorphism
  /// into it. Since chase^l(D,Σ) ⊆ chase(D,Σ), any such homomorphism is
  /// a sound certificate of certain membership.
  WitnessOptions witness;
};

/// Certain answers plus the governed status of the run. When `status` is
/// not kCompleted (or `portion_truncated` is set) the answer set is a
/// sound *under*-approximation: every tuple reported is a certain answer
/// over the materialized portion, but certain answers may be missing. A
/// portion cut short by the fact budget is still evaluated (under the
/// request's other limits), so such a run reports what it found.
struct GuardedAnswersResult {
  std::vector<std::vector<Term>> answers;
  Status status = Status::kCompleted;
  bool portion_truncated = false;

  /// Certification (only with options.witness.collect): the derivation
  /// log of the bounded certification chase, one homomorphism witness
  /// per certified answer (aligned with `answers`; uncertified answers
  /// hold an empty assignment), and whether *every* answer was certified
  /// before the deepening caps were reached.
  DerivationWitness derivation;
  std::vector<HomWitness> witnesses;
  bool certified = false;
};

/// Certain answers Q(D) = q(chase(D,Σ)) of a UCQ under a guarded set
/// (Proposition 3.1): materializes a finite chase portion with n-fold
/// blocking (n = query variables) and evaluates q over it, keeping only
/// tuples over dom(D).
GuardedAnswersResult EvaluateGuardedCertainAnswers(
    const Instance& db, const TgdSet& sigma, const UCQ& query,
    const GuardedEvalOptions& options = {},
    TypeClosureEngine* engine = nullptr);

/// Back-compat wrapper returning only the answer tuples.
std::vector<std::vector<Term>> GuardedCertainAnswers(
    const Instance& db, const TgdSet& sigma, const UCQ& query,
    const GuardedEvalOptions& options = {}, TypeClosureEngine* engine = nullptr);

/// Decides c̄ ∈ Q(D) (the paper's OMQ-Evaluation problem for guarded
/// ontologies).
bool GuardedCertainlyHolds(const Instance& db, const TgdSet& sigma,
                           const UCQ& query, const std::vector<Term>& answer,
                           const GuardedEvalOptions& options = {},
                           TypeClosureEngine* engine = nullptr);

}  // namespace gqe

#endif  // GQE_GUARDED_OMQ_EVAL_H_
