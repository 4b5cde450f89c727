// E1 (Proposition 2.1): bounded-treewidth CQ evaluation runs in
// O(||D||^{k+1} * ||q||). Series: decision time of path (tw 1) and grid
// (tw 2) queries over growing grid databases, for the generic
// backtracking join vs the tree-decomposition DP. The shape to observe:
// both are polynomial, the DP degrades gracefully with k and |D| while
// exhaustive backtracking depends on instance luck.
//
// Uses google-benchmark for the timing series, then prints the summary
// table EXPERIMENTS.md records.

#include <benchmark/benchmark.h>

#include "query/evaluation.h"
#include "query/homomorphism.h"
#include "query/tw_evaluation.h"
#include "workload/generators.h"
#include "workload/report.h"

namespace gqe {
namespace {

void BM_PathQueryTreeDp(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  Instance db = GridDatabase("e1h", "e1v", side, side);
  CQ query = PathQuery("e1h", 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HoldsBooleanCqTreeDp(query, db));
  }
  state.counters["facts"] = static_cast<double>(db.size());
}
BENCHMARK(BM_PathQueryTreeDp)->Arg(8)->Arg(16)->Arg(32);

void BM_PathQueryBacktracking(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  Instance db = GridDatabase("e1h", "e1v", side, side);
  CQ query = PathQuery("e1h", 4);
  for (auto _ : state) {
    HomomorphismSearch search(query.atoms(), db);
    benchmark::DoNotOptimize(search.Exists());
  }
  state.counters["facts"] = static_cast<double>(db.size());
}
BENCHMARK(BM_PathQueryBacktracking)->Arg(8)->Arg(16)->Arg(32);

void BM_GridQueryTreeDp(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  Instance db = GridDatabase("e1h", "e1v", side, side);
  CQ query = GridQuery("e1h", "e1v", 2, 3);  // treewidth 2
  for (auto _ : state) {
    benchmark::DoNotOptimize(HoldsBooleanCqTreeDp(query, db));
  }
  state.counters["facts"] = static_cast<double>(db.size());
}
BENCHMARK(BM_GridQueryTreeDp)->Arg(8)->Arg(16);

void PrintSummary() {
  ReportTable table({"query (tw)", "grid side", "|D|", "tree-DP ms",
                     "backtracking ms", "answer"});
  for (int side : {8, 16, 24, 32}) {
    Instance db = GridDatabase("e1h", "e1v", side, side);
    for (int tw : {1, 2}) {
      CQ query = tw == 1 ? PathQuery("e1h", 6) : GridQuery("e1h", "e1v", 2, 4);
      Stopwatch w1;
      bool dp = HoldsBooleanCqTreeDp(query, db);
      double dp_ms = w1.ElapsedMs();
      Stopwatch w2;
      bool bt = HoldsBooleanCQ(query, db);
      double bt_ms = w2.ElapsedMs();
      if (dp != bt) {
        std::printf("DISAGREEMENT at side=%d tw=%d\n", side, tw);
      }
      table.AddRow({tw == 1 ? "path-6 (1)" : "grid-2x4 (2)",
                    ReportTable::Cell(side), ReportTable::Cell(db.size()),
                    ReportTable::Cell(dp_ms), ReportTable::Cell(bt_ms),
                    ReportTable::Cell(dp)});
    }
  }
  table.Print("E1 / Prop 2.1: CQ_k evaluation scales polynomially in ||D||");
}

}  // namespace
}  // namespace gqe

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  gqe::PrintSummary();
  return 0;
}
