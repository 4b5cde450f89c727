// closed-world and chase-sharded: one stream of seeded random graphs,
// each materialized under join-heavy full TGDs plus one weakly-acyclic
// existential rule and then asked eight closed-world UCQs (CQS
// evaluation; the promise D |= Σ holds because D is the chase result).
// closed-world materializes with Chase(); chase-sharded runs the same
// stream through StorageShardChase with four storage shards.

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "chase/chase.h"
#include "cqs/cqs.h"
#include "cqs/evaluation.h"
#include "inputs.h"
#include "parser/parser.h"
#include "query/tw_evaluation.h"
#include "shard/storage_shard.h"
#include "tgd/tgd.h"
#include "verify/witness.h"

namespace perfbench {

namespace {

/// Database sizes vary over a 3x range, so per-op times spread out and
/// their median moves smoothly when the host's speed changes mid-run.
constexpr int kMinNodes = 300;
constexpr int kMaxNodes = 900;
constexpr int kShards = 4;
constexpr int kSetupReps = 9;
/// Databases built during set-up; later ones are built between ops.
constexpr uint64_t kSetupDatabases = 48;
/// Tree-DP cross-check sample per query and op: the first, the last and
/// one random reported answer must hold, and random candidate tuples
/// outside the answer set must not.
constexpr int kCrossCheckNegatives = 2;

struct Workload {
  gqe::TgdSet tgds;
  std::vector<std::string> names;
  std::vector<std::string> shapes;
  std::vector<gqe::Cqs> queries;
  std::vector<gqe::Instance> databases;
  double parse_ms = 0.0;
  double classify_us = 0.0;
  double insert_ms = 0.0;
  size_t inserted = 0;
};

gqe::Instance BuildDatabase(const Options& options, uint64_t index,
                            Tracer& tracer, Workload* w) {
  const std::vector<gqe::Atom> facts =
      ClosedWorldFacts(options.seed, index, kMinNodes, kMaxNodes);
  gqe::Instance db;
  w->insert_ms += Timed(tracer, "base.Instance::Insert", "base",
                        static_cast<int64_t>(index), [&] {
                          for (const gqe::Atom& fact : facts) db.Insert(fact);
                        });
  w->inserted += facts.size();
  return db;
}

void SetUp(const Options& options, Tracer& tracer, Workload* w) {
  *w = Workload();
  gqe::ParseResult parsed;
  w->parse_ms = Timed(tracer, "parser.ParseProgram", "parser", -1,
                      [&] { parsed = gqe::ParseProgram(ClosedWorldRules()); });
  w->tgds = parsed.program.tgds;
  w->classify_us = 1000.0 * Timed(tracer, "tgd.classify", "tgd", -1, [&] {
                     volatile bool guarded = gqe::IsGuardedSet(w->tgds);
                     volatile bool terminating =
                         gqe::IsObliviousChaseTerminating(w->tgds);
                     (void)guarded;
                     (void)terminating;
                   });
  for (const auto& [name, ucq] : parsed.program.queries) {
    w->names.push_back(name);
    w->shapes.push_back(ClosedWorldShape(name));
    w->queries.push_back(gqe::Cqs{w->tgds, ucq});
  }
  for (uint64_t i = 0; i < kSetupDatabases; ++i) {
    w->databases.push_back(BuildDatabase(options, i, tracer, w));
  }
}

std::string CheckChase(const gqe::ChaseResult& result,
                       const gqe::TgdSet& tgds) {
  if (!result.complete) return "chase did not reach a fixpoint";
  if (!gqe::Satisfies(result.instance, tgds)) {
    return "chase result violates a TGD";
  }
  return "";
}

/// Cross-checks an answer set with the Prop. 2.1 tree-decomposition DP,
/// an engine independent of the one that produced the answers.
std::string CrossCheckAnswers(const gqe::Cqs& cqs, const gqe::Instance& db,
                              const std::vector<std::vector<gqe::Term>>& answers,
                              Rng& rng) {
  if (!answers.empty()) {
    const size_t picks[3] = {0, answers.size() - 1,
                             rng.Below(static_cast<uint32_t>(answers.size()))};
    for (size_t pick : picks) {
      if (!gqe::HoldsUcqTreeDp(cqs.query, db, answers[pick])) {
        return "tree DP rejects a reported answer";
      }
    }
  }
  const std::vector<gqe::Term>& domain = db.ActiveDomain();
  const int arity = cqs.query.arity();
  for (int i = 0; i < kCrossCheckNegatives; ++i) {
    std::vector<gqe::Term> tuple;
    for (int k = 0; k < arity; ++k) {
      tuple.push_back(domain[rng.Below(static_cast<uint32_t>(domain.size()))]);
    }
    if (std::binary_search(answers.begin(), answers.end(), tuple)) continue;
    if (gqe::HoldsUcqTreeDp(cqs.query, db, tuple)) {
      return "tree DP finds an answer the engine missed";
    }
  }
  return "";
}

struct ChaseCounts {
  double rounds = 0, candidates = 0, fired = 0;
};

/// Runs the eight queries over a materialized instance: times each
/// EvaluateCqs call, checks it, and folds the answers into `digest`.
void AnswerQueries(const Options& options, const Workload& w,
                   const gqe::Instance& instance, uint64_t index, int64_t* op,
                   Tracer& tracer, Report* report,
                   std::vector<double>* answer_ms,
                   std::map<std::string, std::vector<double>>* shape_ms,
                   uint64_t* digest) {
  Rng rng(options.seed, "cross-check", index);
  for (size_t k = 0; k < w.queries.size(); ++k, ++*op) {
    ++report->attempted;
    gqe::CqsEvalResult result;
    const double ms =
        Timed(tracer, "cqs.EvaluateCqs", "cqs", *op,
              [&] { result = gqe::EvaluateCqs(w.queries[k], instance); });
    answer_ms->push_back(ms);
    (*shape_ms)[w.shapes[k]].push_back(ms);
    if (result.status != gqe::Status::kCompleted) {
      report->Fail(w.names[k] + ": evaluation did not complete");
    }
    if (!InjectedFault(options).empty()) {
      // Self-test: report a tuple over a constant the instance lacks.
      result.answers.push_back(std::vector<gqe::Term>(
          w.queries[k].query.arity(), gqe::Term::Constant("injected")));
    }
    const std::string why =
        CrossCheckAnswers(w.queries[k], instance, result.answers, rng);
    if (!why.empty()) report->Fail(w.names[k] + ": " + why);
    *digest = Fnv1a(AnswerText(result.answers), *digest);
  }
}

void ReportEndToEnd(double setup_s, const std::vector<double>& answer_ms,
                    const std::vector<double>& chase_ms, double facts,
                    Report* report) {
  double answer_total = 0, chase_total = 0;
  for (double ms : answer_ms) answer_total += ms;
  for (double ms : chase_ms) chase_total += ms;
  report->E2E("setup_s", setup_s, "s");
  report->E2E("answer_p50_ms", Percentile(answer_ms, 0.5), "ms");
  report->E2E("answer_p90_ms", Percentile(answer_ms, 0.9), "ms");
  report->E2E("queries_per_s", 1000.0 * answer_ms.size() / answer_total,
              "1/s");
  report->E2E("chase_p50_ms", Percentile(chase_ms, 0.5), "ms");
  report->E2E("chase_p90_ms", Percentile(chase_ms, 0.9), "ms");
  report->E2E("facts_per_s", 1000.0 * facts / chase_total, "1/s");
  report->E2E("peak_rss_mb", PeakRssMb(), "MB");
}

/// Per-layer metrics both workloads share: set-up layers, the in-process
/// chase breakdown and the per-shape query times.
void ReportChaseLayers(const Workload& w, const std::vector<double>& chase_ms,
                       const std::vector<std::vector<double>>& parts,
                       const ChaseCounts& counts,
                       const std::map<std::string, std::vector<double>>& shape_ms,
                       Report* report) {
  report->Layer("parser.parse_ms", w.parse_ms, "ms");
  report->Layer("tgd.classify_us", w.classify_us, "us");
  report->Layer("base.insert_ns",
                w.inserted ? 1e6 * w.insert_ms / static_cast<double>(w.inserted)
                           : 0.0,
                "ns");
  const std::vector<double> band = MedianBandMeans(chase_ms, parts);
  report->Layer("chase.discovery_ms", band[0], "ms");
  report->Layer("chase.merge_ms", band[1], "ms");
  report->Layer("chase.self_ms", band[2], "ms");
  const double n = static_cast<double>(parts.size());
  report->Layer("chase.rounds", counts.rounds / n, "count");
  report->Layer("chase.candidates", counts.candidates / n, "count");
  report->Layer("chase.triggers_fired", counts.fired / n, "count");
  report->Layer("chase.fire_ratio",
                counts.candidates > 0 ? counts.fired / counts.candidates : 0.0,
                "ratio");
  for (const auto& [shape, samples] : shape_ms) {
    report->Layer("query.eval_ms." + shape, Percentile(samples, 0.5), "ms");
  }
  report->notes.push_back(
      {"layer_sum_ms", std::to_string(band[0] + band[1] + band[2])});
}

void AddChaseParts(const gqe::ChaseResult& result, double wall,
                   std::vector<std::vector<double>>* parts,
                   ChaseCounts* counts) {
  double discovery = 0, merge = 0;
  for (const gqe::ChaseRoundStats& round : result.round_stats) {
    discovery += round.discovery_ms;
    merge += round.merge_ms;
    counts->candidates += static_cast<double>(round.candidates);
    counts->fired += static_cast<double>(round.triggers_fired);
  }
  counts->rounds += static_cast<double>(result.rounds_completed);
  parts->push_back({discovery, merge, wall - discovery - merge});
}

}  // namespace

Report RunClosedWorld(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  Workload w;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&](int) {
    SetUp(options, tracer, &w);
    // Warm-up on a database outside the measured stream.
    gqe::Instance warm = BuildDatabase(options, ~0ull, tracer, &w);
    const gqe::ChaseResult chased = gqe::Chase(warm, w.tgds);
    for (const gqe::Cqs& cqs : w.queries) gqe::EvaluateCqs(cqs, chased.instance);
  });

  std::vector<double> answer_ms, chase_ms;
  std::map<std::string, std::vector<double>> shape_ms;
  std::vector<std::vector<double>> parts;
  ChaseCounts counts;
  double facts = 0;
  int64_t op = 0;
  const Clock::time_point start = Clock::now();
  for (uint64_t index = 0;
       MsBetween(start, Clock::now()) < options.seconds * 1000.0; ++index) {
    if (index >= w.databases.size()) {
      w.databases.push_back(BuildDatabase(options, index, tracer, &w));
    }
    ++report.attempted;
    gqe::ChaseResult chased;
    const double wall = Timed(tracer, "chase.Chase", "chase", op++, [&] {
      chased = gqe::Chase(w.databases[index], w.tgds);
    });
    chase_ms.push_back(wall);
    facts += static_cast<double>(chased.instance.size());
    const std::string why = CheckChase(chased, w.tgds);
    if (!why.empty()) report.Fail(why);
    if (options.trace) AddChaseParts(chased, wall, &parts, &counts);

    uint64_t digest =
        Fnv1a(std::to_string(gqe::InstanceTextCrc(chased.instance)));
    AnswerQueries(options, w, chased.instance, index, &op, tracer, &report,
                  &answer_ms, &shape_ms, &digest);
    report.digests.push_back(digest);
    w.databases[index] = gqe::Instance();  // keep memory flat
  }

  ReportEndToEnd(setup_s, answer_ms, chase_ms, facts, &report);
  report.counts["databases"] = static_cast<double>(chase_ms.size());
  report.counts["queries"] = static_cast<double>(answer_ms.size());
  report.sizes["min_nodes"] = kMinNodes;
  report.sizes["max_nodes"] = kMaxNodes;
  report.sizes["setup_databases"] = kSetupDatabases;
  report.counts["mean_chase_facts"] = facts / static_cast<double>(chase_ms.size());
  if (options.trace) {
    ReportChaseLayers(w, chase_ms, parts, counts, shape_ms, &report);
    tracer.WriteChrome(options.out_dir + "/trace-closed-world.json");
  }
  return report;
}

Report RunChaseSharded(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  Workload w;
  const std::string state_dir = options.out_dir + "/shard-state";
  gqe::StorageShardOptions shard_options;
  shard_options.shards = kShards;
  shard_options.state_dir = state_dir;

  const double setup_s = MedianSetupSeconds(kSetupReps, [&](int) {
    SetUp(options, tracer, &w);
    gqe::Instance warm = BuildDatabase(options, ~0ull, tracer, &w);
    std::filesystem::remove_all(state_dir);
    gqe::StorageShardChase(warm, w.tgds, gqe::ChaseOptions(), shard_options);
    std::filesystem::remove_all(state_dir);
  });

  std::vector<double> answer_ms, chase_ms, local_ms, overhead;
  std::map<std::string, std::vector<double>> shape_ms;
  std::vector<std::vector<double>> parts;
  ChaseCounts counts;
  double facts = 0;
  double rounds = 0, bytes = 0, candidates = 0, shipped = 0, fragment = 0;
  double respawns = 0;
  int64_t op = 0;
  const Clock::time_point start = Clock::now();
  for (uint64_t index = 0;
       MsBetween(start, Clock::now()) < options.seconds * 1000.0; ++index) {
    if (index >= w.databases.size()) {
      w.databases.push_back(BuildDatabase(options, index, tracer, &w));
    }
    const gqe::Instance& db = w.databases[index];
    ++report.attempted;
    const uint32_t null_base = gqe::Term::NextNullId();
    gqe::StorageShardStats stats;
    gqe::ChaseResult sharded;
    const double wall =
        Timed(tracer, "shard.StorageShardChase", "shard", op, [&] {
          sharded = gqe::StorageShardChase(db, w.tgds, gqe::ChaseOptions(),
                                           shard_options, &stats);
        });
    chase_ms.push_back(wall);
    std::filesystem::remove_all(state_dir);
    facts += static_cast<double>(sharded.instance.size());

    // The in-process chase of the same input, from the same null id, is
    // both the output check (bit-identical facts in the same order) and
    // the baseline of shard.overhead_ratio.
    gqe::Term::SetNextNullId(null_base);
    gqe::ChaseResult local;
    const double local_wall = Timed(tracer, "chase.Chase", "chase", op++, [&] {
      local = gqe::Chase(db, w.tgds);
    });
    std::string why = CheckChase(sharded, w.tgds);
    if (why.empty() && (sharded.instance.atoms() != local.instance.atoms() ||
                        !InjectedFault(options).empty())) {
      why = "sharded chase differs from Chase()";
    }
    if (why.empty() && stats.respawns != 0) why = "shard workers respawned";
    if (!why.empty()) report.Fail(why);

    if (options.trace) {
      local_ms.push_back(local_wall);
      overhead.push_back(wall / local_wall);
      AddChaseParts(local, local_wall, &parts, &counts);
      rounds += static_cast<double>(stats.rounds);
      bytes += static_cast<double>(stats.exchanged_bytes);
      candidates += static_cast<double>(stats.exchanged_candidates);
      shipped += static_cast<double>(stats.shipped_facts);
      fragment = std::max(fragment, static_cast<double>(stats.max_fragment_facts));
      respawns += static_cast<double>(stats.respawns);
    }

    uint64_t digest =
        Fnv1a(std::to_string(gqe::InstanceTextCrc(sharded.instance)));
    AnswerQueries(options, w, sharded.instance, index, &op, tracer, &report,
                  &answer_ms, &shape_ms, &digest);
    report.digests.push_back(digest);
    w.databases[index] = gqe::Instance();
  }

  ReportEndToEnd(setup_s, answer_ms, chase_ms, facts, &report);
  report.counts["databases"] = static_cast<double>(chase_ms.size());
  report.counts["queries"] = static_cast<double>(answer_ms.size());
  report.sizes["min_nodes"] = kMinNodes;
  report.sizes["max_nodes"] = kMaxNodes;
  report.sizes["setup_databases"] = kSetupDatabases;
  report.sizes["shards"] = kShards;
  report.counts["mean_chase_facts"] = facts / static_cast<double>(chase_ms.size());
  if (options.trace) {
    ReportChaseLayers(w, local_ms, parts, counts, shape_ms, &report);
    const double n = static_cast<double>(local_ms.size());
    report.Layer("shard.overhead_ratio", Percentile(overhead, 0.5), "ratio");
    report.Layer("shard.rounds", rounds / n, "count");
    report.Layer("shard.exchanged_bytes", bytes / n, "bytes");
    report.Layer("shard.exchanged_candidates", candidates / n, "count");
    report.Layer("shard.shipped_facts", shipped / n, "count");
    report.Layer("shard.max_fragment_facts", fragment, "count");
    report.Layer("shard.respawns", respawns, "count");
    tracer.WriteChrome(options.out_dir + "/trace-chase-sharded.json");
  }
  return report;
}

}  // namespace perfbench
