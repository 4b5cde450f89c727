// The unified resource governor: deterministic fault injection through
// the chase, homomorphism search and treewidth engines; wall-clock
// deadlines on diverging workloads; graceful degradation. The invariant
// under test everywhere: a governed engine that was cut short reports the
// exact guard rail that stopped it — a truncated result is never labelled
// kCompleted.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/governor.h"
#include "chase/chase.h"
#include "graph/graph.h"
#include "graph/tree_decomposition.h"
#include "graph/treewidth.h"
#include "omq/evaluation.h"
#include "parser/parser.h"
#include "query/homomorphism.h"

namespace gqe {
namespace {

// ---------------------------------------------------------------------
// Governor core.
// ---------------------------------------------------------------------

TEST(GovernorCoreTest, NullTokenNeverCancels) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.CancelRequested());
  token.RequestCancel();  // no-op
  EXPECT_FALSE(token.CancelRequested());
}

TEST(GovernorCoreTest, TokenCopiesShareOneFlag) {
  CancelToken token = CancelToken::Create();
  CancelToken copy = token;
  EXPECT_FALSE(copy.CancelRequested());
  token.RequestCancel();
  EXPECT_TRUE(copy.CancelRequested());

  ExecutionBudget budget;
  budget.cancel = copy;
  Governor governor(budget);
  EXPECT_EQ(governor.Check(), Status::kCancelled);
}

TEST(GovernorCoreTest, FactBudgetTripsAndSticks) {
  ExecutionBudget budget;
  budget.max_facts = 5;
  Governor governor(budget);
  EXPECT_EQ(governor.ChargeFacts(5), Status::kCompleted);
  EXPECT_EQ(governor.ChargeFacts(1), Status::kBudgetExceeded);
  // Sticky: every later checkpoint reports the same cause.
  EXPECT_EQ(governor.Check(), Status::kBudgetExceeded);
  EXPECT_EQ(governor.ChargeNodes(1), Status::kBudgetExceeded);
  Outcome outcome = governor.MakeOutcome();
  EXPECT_EQ(outcome.status, Status::kBudgetExceeded);
  EXPECT_EQ(outcome.facts_charged, 6u);
  EXPECT_FALSE(outcome.ok());
}

TEST(GovernorCoreTest, NodeBudgetTrips) {
  ExecutionBudget budget;
  budget.max_facts = 0;
  budget.max_search_nodes = 10;
  Governor governor(budget);
  EXPECT_EQ(governor.ChargeNodes(10), Status::kCompleted);
  EXPECT_EQ(governor.ChargeNodes(1), Status::kBudgetExceeded);
}

TEST(GovernorCoreTest, InjectorTripsAtNthCheckpoint) {
  TestFaultInjector injector(Status::kDeadlineExceeded, 3);
  ExecutionBudget budget;
  budget.max_facts = 0;
  Governor governor(budget, &injector);
  EXPECT_EQ(governor.NodeChargeBatch(), 1u);
  EXPECT_EQ(governor.Check(), Status::kCompleted);
  EXPECT_EQ(governor.Check(), Status::kCompleted);
  EXPECT_EQ(governor.Check(), Status::kDeadlineExceeded);
  EXPECT_EQ(governor.MakeOutcome().checkpoints, 3u);
}

// ---------------------------------------------------------------------
// Fault injection through the engines: the injected guard rail must come
// back as the reported status, and the result must never claim natural
// completion.
// ---------------------------------------------------------------------

TgdSet DivergingSigma() {
  // Non-weakly-acyclic: every round invents fresh nulls forever.
  return ParseTgds("gve(X, Y) -> gve(Y, Z).");
}

Instance DivergingDb(int chains) {
  Instance db;
  for (int i = 0; i < chains; ++i) {
    db.Insert(Atom::Make("gve",
                         {Term::Constant("gv" + std::to_string(i)),
                          Term::Constant("gv" + std::to_string(i) + "b")}));
  }
  return db;
}

TEST(GovernorInjectionTest, ChaseReportsTheInjectedCause) {
  for (Status cause : {Status::kBudgetExceeded, Status::kDeadlineExceeded,
                       Status::kCancelled}) {
    TestFaultInjector injector(cause, 40);
    ExecutionBudget budget;
    budget.max_facts = 0;
    Governor governor(budget, &injector);
    ChaseOptions options;
    options.governor = &governor;
    ChaseResult result = Chase(DivergingDb(4), DivergingSigma(), options);
    EXPECT_EQ(result.outcome.status, cause) << StatusName(cause);
    // Never a truncated result labelled kCompleted.
    EXPECT_FALSE(result.complete) << StatusName(cause);
  }
}

TEST(GovernorInjectionTest, UntrippedChaseCompletesWithCompletedStatus) {
  TgdSet sigma = ParseTgds("gvt(X) -> gvu(X).");
  Instance db = ParseDatabase("gvt(gvc).");
  ExecutionBudget budget;
  ChaseOptions options;
  options.budget = budget;
  ChaseResult result = Chase(db, sigma, options);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.outcome.status, Status::kCompleted);
  EXPECT_TRUE(result.outcome.ok());
}

TEST(GovernorInjectionTest, HomSearchStopsWithInjectedStatus) {
  Instance db;
  for (int i = 0; i < 30; ++i) {
    db.Insert(Atom::Make("gvh",
                         {Term::Constant("gh" + std::to_string(i)),
                          Term::Constant("gh" + std::to_string(i + 1))}));
  }
  std::vector<Atom> pattern = {
      Atom::Make("gvh", {Term::Variable("X"), Term::Variable("Y")}),
      Atom::Make("gvh", {Term::Variable("Y"), Term::Variable("Z")})};
  const size_t full = HomomorphismSearch(pattern, db).FindAll().size();
  ASSERT_GT(full, 0u);

  TestFaultInjector injector(Status::kCancelled, 8);
  ExecutionBudget budget;
  budget.max_facts = 0;
  Governor governor(budget, &injector);
  HomOptions options;
  options.governor = &governor;
  HomomorphismSearch search(pattern, db, options);
  std::vector<Substitution> results = search.FindAll();
  EXPECT_EQ(search.status(), Status::kCancelled);
  EXPECT_LT(results.size(), full);
}

TEST(GovernorInjectionTest, HomSearchNodeBudgetWithoutInjector) {
  // Large enough that the search charges well past one 64-node batch.
  Instance db;
  for (int i = 0; i < 300; ++i) {
    db.Insert(Atom::Make("gvn",
                         {Term::Constant("gn" + std::to_string(i)),
                          Term::Constant("gn" + std::to_string(i + 1))}));
  }
  std::vector<Atom> pattern = {
      Atom::Make("gvn", {Term::Variable("X"), Term::Variable("Y")}),
      Atom::Make("gvn", {Term::Variable("Y"), Term::Variable("Z")})};
  ExecutionBudget budget;
  budget.max_facts = 0;
  budget.max_search_nodes = 64;  // one charge batch, trips soon after
  Governor governor(budget);
  HomOptions options;
  options.governor = &governor;
  HomomorphismSearch search(pattern, db, options);
  search.FindAll();
  EXPECT_EQ(search.status(), Status::kBudgetExceeded);
}

TEST(GovernorInjectionTest, TreewidthDegradesToHeuristicOnInjectedTrip) {
  Graph clique = Graph::Clique(12);
  TestFaultInjector injector(Status::kBudgetExceeded, 5);
  ExecutionBudget budget;
  budget.max_facts = 0;
  Governor governor(budget, &injector);
  TreewidthOptions options;
  options.governor = &governor;
  TreewidthResult result = ComputeTreewidth(clique, options);
  EXPECT_EQ(result.status, Status::kBudgetExceeded);
  EXPECT_TRUE(result.degraded);
  // Degraded results are never labelled exact, even though min-fill on a
  // clique matches the degeneracy lower bound.
  EXPECT_FALSE(result.exact());
  EXPECT_EQ(result.upper_bound, 11);
  std::string why;
  EXPECT_TRUE(result.decomposition.Validate(clique, &why)) << why;
}

TEST(GovernorInjectionTest, OmqPipelineSharesOneBudget) {
  // Nested OMQ -> guarded chase tree share one governor: a tiny fact
  // budget on the pipeline cuts the portion build, and the overall result
  // is flagged partial with the budget status — not silently truncated.
  TgdSet sigma = ParseTgds("gvo(X) -> gvp(X, Y), gvo(Y).");
  Omq omq = Omq::WithFullDataSchema(sigma, ParseUcq("gvq(X) :- gvo(X)."));
  Instance db = ParseDatabase("gvo(gvseed).");
  OmqEvalOptions options;
  // Bag-shape blocking keeps the guarded portion finite, so the budget
  // must be tight enough to land inside the first bag expansion.
  options.budget.max_facts = 2;
  OmqEvalResult result = EvaluateOmq(omq, db, options);
  EXPECT_EQ(result.status, Status::kBudgetExceeded);
  EXPECT_TRUE(result.partial);
  EXPECT_FALSE(result.exact);
}

// ---------------------------------------------------------------------
// Wall-clock deadlines (the acceptance scenario): a diverging chase
// under a 100 ms deadline returns kDeadlineExceeded promptly.
// ---------------------------------------------------------------------

TEST(GovernorDeadlineTest, DivergingChaseHitsDeadlinePromptly) {
  const double deadline_ms = 100.0;
  ChaseOptions options;
  options.budget.max_facts = 0;
  options.budget.deadline_ms = deadline_ms;
  ChaseResult result = Chase(DivergingDb(8), DivergingSigma(), options);
  EXPECT_EQ(result.outcome.status, Status::kDeadlineExceeded);
  EXPECT_FALSE(result.complete);
  EXPECT_GE(result.outcome.elapsed_ms, deadline_ms);
  // ~2x the deadline, with headroom for sanitizer-slowed checkpoints.
  EXPECT_LE(result.outcome.elapsed_ms, 4 * deadline_ms);
}

TEST(GovernorDeadlineTest, CliqueTreewidthDegradesUnderDeadline) {
  // 30-vertex clique: the exact DP would walk ~2^30 subsets; under a
  // deadline it must abandon the DP and still return a *valid* heuristic
  // decomposition (min-fill width 29) flagged non-exact.
  Graph clique = Graph::Clique(30);
  TreewidthOptions options;
  options.exact_vertex_limit = 30;
  options.budget.max_facts = 0;
  options.budget.deadline_ms = 60.0;
  TreewidthResult result = ComputeTreewidth(clique, options);
  EXPECT_EQ(result.status, Status::kDeadlineExceeded);
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.exact());
  EXPECT_EQ(result.upper_bound, 29);
  std::string why;
  EXPECT_TRUE(result.decomposition.Validate(clique, &why)) << why;
}

TEST(GovernorDeadlineTest, CancelTokenStopsChase) {
  // A pre-cancelled token: the chase must notice at its first checkpoint
  // and return kCancelled without committing any round.
  CancelToken token = CancelToken::Create();
  token.RequestCancel();
  ChaseOptions options;
  options.budget.max_facts = 0;
  options.budget.cancel = token;
  Instance db = DivergingDb(4);
  ChaseResult result = Chase(db, DivergingSigma(), options);
  EXPECT_EQ(result.outcome.status, Status::kCancelled);
  EXPECT_FALSE(result.complete);
  // Only the input facts were committed.
  EXPECT_EQ(result.instance.size(), db.size());
}

}  // namespace
}  // namespace gqe
