#ifndef GQE_QUERY_EVALUATION_H_
#define GQE_QUERY_EVALUATION_H_

#include <vector>

#include "base/governor.h"
#include "base/instance.h"
#include "query/cq.h"
#include "query/substitution.h"
#include "verify/witness.h"

namespace gqe {

/// Evaluates q over an instance: the set of answers q(I) (paper,
/// Section 2). Tuples are returned sorted and deduplicated. `limit` > 0
/// stops after that many distinct answers. All entry points take an
/// optional shared `governor`: homomorphism-search nodes are charged
/// against it and a trip makes the enumeration stop early (check the
/// governor's status; a tripped run may under-report answers).
std::vector<std::vector<Term>> EvaluateCQ(const CQ& cq, const Instance& db,
                                          size_t limit = 0,
                                          Governor* governor = nullptr);

std::vector<std::vector<Term>> EvaluateUCQ(const UCQ& ucq, const Instance& db,
                                           size_t limit = 0,
                                           Governor* governor = nullptr);

/// Witness-collecting evaluation: like EvaluateUCQ, but `witnesses`
/// receives one homomorphism certificate per returned answer, aligned
/// index-by-index with the (sorted, deduplicated) answer list. Each
/// certificate records the first disjunct and the first homomorphism (in
/// deterministic enumeration order) that produced the answer; the full
/// variable assignment lets VerifyHomomorphism re-check it atom-by-atom.
std::vector<std::vector<Term>> EvaluateUCQWithWitnesses(
    const UCQ& ucq, const Instance& db, std::vector<HomWitness>* witnesses,
    size_t limit = 0, Governor* governor = nullptr);

/// The tuples whose terms all lie in dom(db), in their input order:
/// certain answers range over the input database's constants only. With
/// `witnesses` (aligned with `tuples` on entry) the witnesses of the
/// dropped tuples are dropped too.
std::vector<std::vector<Term>> FilterToDomain(
    std::vector<std::vector<Term>> tuples, const Instance& db,
    std::vector<HomWitness>* witnesses = nullptr);

/// Finds a homomorphism certificate for one candidate answer: the first
/// disjunct (and first homomorphism) placing the query in `db` at
/// `answer`. Returns false when the answer does not hold (or the
/// governor tripped first).
bool FindUcqAnswerWitness(const UCQ& ucq, const Instance& db,
                          const std::vector<Term>& answer, HomWitness* out,
                          Governor* governor = nullptr);

/// Decides c̄ ∈ q(I) for a candidate answer (the paper's evaluation
/// problem). A candidate whose arity differs from the query's is never
/// an answer (returns false).
bool HoldsCQ(const CQ& cq, const Instance& db, const std::vector<Term>& answer,
             Governor* governor = nullptr);
bool HoldsUCQ(const UCQ& ucq, const Instance& db,
              const std::vector<Term>& answer, Governor* governor = nullptr);

/// Boolean query satisfaction I |= q.
bool HoldsBooleanCQ(const CQ& cq, const Instance& db,
                    Governor* governor = nullptr);
bool HoldsBooleanUCQ(const UCQ& ucq, const Instance& db,
                     Governor* governor = nullptr);

/// I |=io q(ā) (Appendix D): q holds with answer ā and *every*
/// homomorphism witnessing it is injective.
bool HoldsInjectivelyOnly(const CQ& cq, const Instance& db,
                          const std::vector<Term>& answer,
                          Governor* governor = nullptr);

}  // namespace gqe

#endif  // GQE_QUERY_EVALUATION_H_
