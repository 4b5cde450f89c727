// E11 (Theorem 5.3): the OMQ dichotomy for (G, UCQ). Family A: the
// Example 4.4 pattern scaled up — 4-cycles with unary markers whose
// ontology (R2 ⊆ R4) makes them UCQ_1-equivalent; certain answers via
// the rewriting stay cheap. Family B: the same queries with an inert
// ontology are stuck at treewidth 2. The shape: A's rewriting wins and
// is available; for B no treewidth-1 rewriting exists.
//
// --deadline-ms=X / --budget-facts=N run every configuration under that
// budget; timeout rows show "deadline"/"budget" in the status column and
// the closing watchdog table tallies timeout-vs-complete.
//
// SIGINT/SIGTERM cancel cooperatively, so an interrupted run still
// prints the partial table (with "cancelled" rows).

#include <cstdio>

#include "approx/meta.h"
#include "omq/evaluation.h"
#include "omq/omq.h"
#include "parser/parser.h"
#include "query/evaluation.h"
#include "workload/generators.h"
#include "workload/report.h"

namespace gqe {
namespace {

/// The Example 4.4 query with `copies` disjoint 4-cycles conjoined
/// (treewidth 2; with the ontology, collapsible to treewidth 1).
UCQ ScaledQuery(int copies) {
  std::vector<Atom> atoms;
  auto var = [](int c, int i) {
    return Term::Variable("x" + std::to_string(c) + "_" + std::to_string(i));
  };
  for (int c = 0; c < copies; ++c) {
    atoms.push_back(Atom::Make("e11p", {var(c, 2), var(c, 1)}));
    atoms.push_back(Atom::Make("e11p", {var(c, 4), var(c, 1)}));
    atoms.push_back(Atom::Make("e11p", {var(c, 2), var(c, 3)}));
    atoms.push_back(Atom::Make("e11p", {var(c, 4), var(c, 3)}));
    atoms.push_back(Atom::Make("e11r1", {var(c, 1)}));
    atoms.push_back(Atom::Make("e11r2", {var(c, 2)}));
    atoms.push_back(Atom::Make("e11r3", {var(c, 3)}));
    atoms.push_back(Atom::Make("e11r4", {var(c, 4)}));
  }
  return UCQ({CQ({}, std::move(atoms))});
}

Instance MakeData(int n, uint64_t seed) {
  WorkloadRng rng(seed);
  Instance db;
  auto constant = [](uint32_t i) {
    return Term::Constant("e11c" + std::to_string(i));
  };
  for (int i = 0; i < 6 * n; ++i) {
    db.Insert(Atom::Make("e11p", {constant(rng.Below(n)),
                                  constant(rng.Below(n))}));
  }
  for (int i = 0; i < n; ++i) {
    if (rng.Chance(60)) db.Insert(Atom::Make("e11r1", {constant(i)}));
    if (rng.Chance(60)) db.Insert(Atom::Make("e11r2", {constant(i)}));
    if (rng.Chance(60)) db.Insert(Atom::Make("e11r3", {constant(i)}));
    if (rng.Chance(30)) db.Insert(Atom::Make("e11r4", {constant(i)}));
  }
  return db;
}

void Run(const ExecutionBudget& budget, const BenchJsonFlags& json_flags) {
  TgdSet collapsing = ParseTgds("e11r2(X) -> e11r4(X).");
  TgdSet inert = ParseTgds("e11mark(X) -> e11marked(X).");
  BenchWatchdog watchdog;
  BenchJson json("omq", json_flags);

  ReportTable table({"family", "copies", "UCQ_1-equivalent",
                     "eval via rewriting ms", "direct certain ms", "agree",
                     "status"});
  Instance db = MakeData(60, 21);
  for (int copies : {1, 2}) {
    UCQ q = ScaledQuery(copies);
    // Family A: collapsing ontology.
    {
      Governor governor(budget);
      Omq omq = Omq::WithFullDataSchema(collapsing, q);
      MetaResult meta =
          DecideUcqkEquivalenceOmqFullSchema(omq, 1, &governor);
      OmqEvalOptions eval_options;
      eval_options.governor = &governor;
      double rewriting_ms = -1;
      bool via_rewriting = false;
      if (meta.equivalent) {
        Omq rewritten = Omq::WithFullDataSchema(collapsing, meta.rewriting);
        Stopwatch w;
        via_rewriting = OmqHolds(rewritten, db, {}, eval_options);
        rewriting_ms = w.ElapsedMs();
      }
      Stopwatch w2;
      bool direct = OmqHolds(omq, db, {}, eval_options);
      double direct_ms = w2.ElapsedMs();
      watchdog.Record("A copies=" + std::to_string(copies),
                      governor.MakeOutcome());
      json.Add("omq_A/c" + std::to_string(copies), direct_ms * 1e6);
      if (rewriting_ms >= 0) {
        json.Add("omq_A_rw/c" + std::to_string(copies), rewriting_ms * 1e6);
      }
      table.AddRow({"A: R2 c R4 ontology", ReportTable::Cell(copies),
                    ReportTable::Cell(meta.equivalent),
                    ReportTable::Cell(rewriting_ms),
                    ReportTable::Cell(direct_ms),
                    ReportTable::Cell(!meta.equivalent ||
                                      via_rewriting == direct),
                    StatusName(governor.status())});
    }
    // Family B: inert ontology.
    {
      Governor governor(budget);
      Omq omq = Omq::WithFullDataSchema(inert, q);
      MetaResult meta =
          DecideUcqkEquivalenceOmqFullSchema(omq, 1, &governor);
      OmqEvalOptions eval_options;
      eval_options.governor = &governor;
      Stopwatch w2;
      bool direct = OmqHolds(omq, db, {}, eval_options);
      double direct_ms = w2.ElapsedMs();
      (void)direct;
      watchdog.Record("B copies=" + std::to_string(copies),
                      governor.MakeOutcome());
      json.Add("omq_B/c" + std::to_string(copies), direct_ms * 1e6);
      table.AddRow({"B: inert ontology", ReportTable::Cell(copies),
                    ReportTable::Cell(meta.equivalent), std::string("-"),
                    ReportTable::Cell(direct_ms), ReportTable::Cell(true),
                    StatusName(governor.status())});
    }
  }
  table.Print(
      "E11 / Thm 5.3: OMQ dichotomy — the ontology decides which side of "
      "the FPT boundary a class sits on");
  watchdog.Print("E11 watchdog: timeout vs complete");
  json.Write();
}

}  // namespace
}  // namespace gqe

int main(int argc, char** argv) {
  gqe::ExecutionBudget budget = gqe::ParseBudgetFlags(&argc, argv);
  gqe::BenchJsonFlags json = gqe::ParseBenchJsonFlags(&argc, argv);
  if (argc > 1) {
    // Reject a flag this bench does not take rather than ignore it.
    std::fprintf(stderr, "bench_omq_dichotomy: unknown argument '%s'\n",
                 argv[1]);
    return 2;
  }
  gqe::CancelToken cancel = gqe::CancelToken::Create();
  budget.cancel = cancel;
  gqe::InstallBenchSignalHandlers(cancel);
  gqe::Run(budget, json);
  return 0;
}
