// Certified answers (ISSUE 5): the price of a machine-checkable result.
// google-benchmark series compare each engine with and without witness
// collection, and separately time the independent checker, over growing
// chase workloads and query answer sets. The summary table (pasted into
// EXPERIMENTS.md) reports per-workload wall-clock for baseline
// evaluation, witness-collecting evaluation, and verification, plus the
// collection overhead — the quantity the serve daemon's --verify mode
// pays per request.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "parser/parser.h"
#include "query/evaluation.h"
#include "verify/verifier.h"
#include "verify/witness.h"
#include "workload/report.h"

namespace gqe {
namespace {

TgdSet UniversityOntology() {
  return ParseTgds(R"(
    bvgrad(X) -> bvstud(X).
    bvstud(X) -> bvenr(X, U), bvuni(U).
    bvenr(X, U) -> bvactive(X).
  )");
}

Instance UniversityDatabase(int n) {
  Instance db;
  for (int i = 0; i < n; ++i) {
    db.Insert(Atom::Make("bvgrad", {Term::Constant("s" + std::to_string(i))}));
  }
  return db;
}

TgdSet TransitiveClosure() {
  return ParseTgds("bve(X, Y), bve(Y, Z) -> bve(X, Z).");
}

Instance ChainDatabase(int n) {
  Instance db;
  for (int i = 0; i < n; ++i) {
    db.Insert(Atom::Make("bve", {Term::Constant("a" + std::to_string(i)),
                                 Term::Constant("a" + std::to_string(i + 1))}));
  }
  return db;
}

void BM_ChaseBaseline(benchmark::State& state) {
  Instance db = UniversityDatabase(static_cast<int>(state.range(0)));
  TgdSet sigma = UniversityOntology();
  for (auto _ : state) {
    ChaseResult result = Chase(db, sigma);
    benchmark::DoNotOptimize(result.instance.size());
  }
}
BENCHMARK(BM_ChaseBaseline)->Arg(64)->Arg(256)->Arg(1024);

void BM_ChaseCollectWitness(benchmark::State& state) {
  Instance db = UniversityDatabase(static_cast<int>(state.range(0)));
  TgdSet sigma = UniversityOntology();
  ChaseOptions options;
  options.collect_witness = true;
  for (auto _ : state) {
    ChaseResult result = Chase(db, sigma, options);
    benchmark::DoNotOptimize(result.derivation.steps.size());
  }
}
BENCHMARK(BM_ChaseCollectWitness)->Arg(64)->Arg(256)->Arg(1024);

void BM_VerifyDerivation(benchmark::State& state) {
  Instance db = UniversityDatabase(static_cast<int>(state.range(0)));
  TgdSet sigma = UniversityOntology();
  ChaseOptions options;
  options.collect_witness = true;
  ChaseResult chased = Chase(db, sigma, options);
  for (auto _ : state) {
    VerifyResult check = VerifyDerivation(db, sigma, chased.derivation);
    benchmark::DoNotOptimize(check.ok());
  }
  state.counters["steps"] =
      static_cast<double>(chased.derivation.steps.size());
}
BENCHMARK(BM_VerifyDerivation)->Arg(64)->Arg(256)->Arg(1024);

void BM_UcqEvalBaseline(benchmark::State& state) {
  Instance db = ChainDatabase(static_cast<int>(state.range(0)));
  ChaseResult chased = Chase(db, TransitiveClosure());
  UCQ q = ParseUcq("bvq(X, Y) :- bve(X, Y).");
  for (auto _ : state) {
    auto answers = EvaluateUCQ(q, chased.instance);
    benchmark::DoNotOptimize(answers.size());
  }
}
BENCHMARK(BM_UcqEvalBaseline)->Arg(16)->Arg(32)->Arg(64);

void BM_UcqEvalWithWitnesses(benchmark::State& state) {
  Instance db = ChainDatabase(static_cast<int>(state.range(0)));
  ChaseResult chased = Chase(db, TransitiveClosure());
  UCQ q = ParseUcq("bvq(X, Y) :- bve(X, Y).");
  for (auto _ : state) {
    std::vector<HomWitness> witnesses;
    auto answers = EvaluateUCQWithWitnesses(q, chased.instance, &witnesses);
    benchmark::DoNotOptimize(witnesses.size());
  }
}
BENCHMARK(BM_UcqEvalWithWitnesses)->Arg(16)->Arg(32)->Arg(64);

void BM_VerifyHomomorphisms(benchmark::State& state) {
  Instance db = ChainDatabase(static_cast<int>(state.range(0)));
  ChaseResult chased = Chase(db, TransitiveClosure());
  UCQ q = ParseUcq("bvq(X, Y) :- bve(X, Y).");
  std::vector<HomWitness> witnesses;
  auto answers = EvaluateUCQWithWitnesses(q, chased.instance, &witnesses);
  for (auto _ : state) {
    size_t ok = 0;
    for (const HomWitness& w : witnesses) {
      if (VerifyHomomorphism(q, chased.instance, w).ok()) ++ok;
    }
    benchmark::DoNotOptimize(ok);
  }
  state.counters["answers"] = static_cast<double>(witnesses.size());
}
BENCHMARK(BM_VerifyHomomorphisms)->Arg(16)->Arg(32)->Arg(64);

template <typename Fn>
double TimeMs(Fn&& fn, int repeats = 5) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  return MedianMs(samples);
}

/// The EXPERIMENTS.md table: per workload, baseline vs collecting vs
/// checking, with the overhead ratio --verify pays end-to-end.
void PrintOverheadTable() {
  ReportTable table({"workload", "baseline ms", "+witness ms", "verify ms",
                     "collect overhead", "witness size"});
  struct Row {
    std::string name;
    Instance db;
    TgdSet sigma;
  };
  std::vector<Row> rows;
  rows.push_back({"university n=256", UniversityDatabase(256),
                  UniversityOntology()});
  rows.push_back({"university n=1024", UniversityDatabase(1024),
                  UniversityOntology()});
  rows.push_back({"closure n=48", ChainDatabase(48), TransitiveClosure()});
  for (Row& row : rows) {
    double baseline = TimeMs([&] {
      ChaseResult r = Chase(row.db, row.sigma);
      benchmark::DoNotOptimize(r.instance.size());
    });
    ChaseOptions collect;
    collect.collect_witness = true;
    DerivationWitness witness;
    double with_witness = TimeMs([&] {
      ChaseResult r = Chase(row.db, row.sigma, collect);
      witness = std::move(r.derivation);
    });
    double verify = TimeMs([&] {
      VerifyResult check = VerifyDerivation(row.db, row.sigma, witness);
      benchmark::DoNotOptimize(check.ok());
    });
    char overhead[32];
    std::snprintf(overhead, sizeof(overhead), "%.2fx",
                  baseline > 0 ? with_witness / baseline : 0.0);
    table.AddRow({row.name, ReportTable::Cell(baseline),
                  ReportTable::Cell(with_witness),
                  ReportTable::Cell(verify), overhead,
                  std::to_string(witness.steps.size()) + " steps"});
  }
  table.Print("Certified answers: witness collection + verification cost");
}

}  // namespace
}  // namespace gqe

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  gqe::PrintOverheadTable();
  return 0;
}
