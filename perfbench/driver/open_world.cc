// open-world: OMQ evaluation under guarded TGDs with an infinite chase
// (the paper's open-world problem, Prop. 3.1 / 3.3(3)). Closed loop, one
// caller. Per database: one GroundSaturation call (the "chase" op: the
// finite ground part chase↓(D,Σ)), then 14 EvaluateOmq calls (the
// "answer" ops).

#include <string>
#include <vector>

#include "bench.h"
#include "guarded/chase_tree.h"
#include "guarded/saturation.h"
#include "guarded/type_closure.h"
#include "inputs.h"
#include "omq/evaluation.h"
#include "omq/omq.h"
#include "parser/parser.h"
#include "query/evaluation.h"
#include "tgd/tgd.h"
#include "verify/verifier.h"

namespace perfbench {

namespace {

constexpr int kSetupDatabases = 8;
constexpr int kMinFacts = 22;
constexpr int kMaxFacts = 22;
constexpr int kQueries = 14;
constexpr int kSetupReps = 9;
/// Every n-th query is re-run with certificate collection and checked.
constexpr int kCertifyEvery = 8;

struct Database {
  gqe::Program program;
  std::vector<gqe::Omq> omqs;
};

Database LoadDatabase(const Options& options, uint64_t index, Tracer& tracer,
                      double* parse_ms) {
  const std::string text = OpenWorldProgram(options.seed, index, kQueries, kMinFacts, kMaxFacts);
  gqe::ParseResult parsed;
  *parse_ms += Timed(tracer, "parser.ParseProgram", "parser",
                     static_cast<int64_t>(index),
                     [&] { parsed = gqe::ParseProgram(text); });
  Database db;
  db.program = std::move(parsed.program);
  for (const auto& [name, ucq] : db.program.queries) {
    db.omqs.push_back(gqe::Omq::WithFullDataSchema(db.program.tgds, ucq));
  }
  return db;
}

size_t MaxQueryVariables(const gqe::UCQ& query) {
  size_t vars = 0;
  for (const gqe::CQ& cq : query.disjuncts()) {
    vars = std::max(vars, cq.AllVariables().size());
  }
  return vars;
}

/// Independent check of one answer set: re-run with certificates, replay
/// the certification chase with VerifyDerivation and check every answer's
/// homomorphism with VerifyHomomorphism.
std::string CertifyAnswers(const Options& options, const gqe::Omq& omq,
                           const gqe::Instance& db,
                           const std::vector<std::vector<gqe::Term>>& answers) {
  gqe::OmqEvalOptions with_witness;
  with_witness.witness.collect = true;
  const gqe::OmqEvalResult certified = gqe::EvaluateOmq(omq, db, with_witness);
  if (AnswerText(certified.answers) !=
      AnswerText(answers) + InjectedFault(options)) {
    return "certified run gave different answers";
  }
  if (!certified.witness.certified) return "answers not certified";
  gqe::Instance replayed;
  const gqe::VerifyResult replay = gqe::VerifyDerivation(
      db, omq.sigma, certified.witness.derivation, &replayed);
  if (!replay.ok()) return "derivation rejected: " + replay.reason;
  if (certified.witness.answers.size() != certified.answers.size()) {
    return "witness count differs from answer count";
  }
  for (size_t i = 0; i < certified.witness.answers.size(); ++i) {
    const gqe::HomWitness& hom = certified.witness.answers[i];
    if (hom.answer != certified.answers[i]) return "witness for another tuple";
    const gqe::VerifyResult check =
        gqe::VerifyHomomorphism(omq.query, replayed, hom);
    if (!check.ok()) return "homomorphism rejected: " + check.reason;
  }
  return "";
}

}  // namespace

Report RunOpenWorld(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  std::vector<Database> pool;
  double parse_ms = 0.0;

  const double setup_s = MedianSetupSeconds(kSetupReps, [&](int) {
    pool.clear();
    parse_ms = 0.0;
    for (int i = 0; i < kSetupDatabases; ++i) {
      pool.push_back(LoadDatabase(options, i, tracer, &parse_ms));
      // Warm-up: one query per database, so lazy set-up is paid before
      // timing.
      gqe::EvaluateOmq(pool[i].omqs[0], pool[i].program.database);
    }
  });

  std::vector<double> answer_ms, chase_ms;
  double saturation_facts = 0.0;
  // Traced breakdown per query: classify, saturation, tree self, portion
  // evaluation, omq self.
  std::vector<std::vector<double>> parts;
  double shapes = 0, portion_facts = 0, bags = 0, blocked = 0;
  size_t db_facts = 0, query_count = 0;

  const Clock::time_point start = Clock::now();
  const auto out_of_time = [&] {
    return MsBetween(start, Clock::now()) >= options.seconds * 1000.0;
  };
  int64_t op = 0;
  for (uint64_t index = 0; !out_of_time(); ++index) {
    if (index >= pool.size()) {
      double ignored = 0.0;
      pool.push_back(LoadDatabase(options, index, tracer, &ignored));
    }
    const Database& db = pool[index];
    const gqe::Instance& data = db.program.database;
    db_facts += data.size();

    ++report.attempted;
    gqe::Instance saturated;
    chase_ms.push_back(Timed(tracer, "guarded.GroundSaturation", "guarded", op,
                             [&] {
                               saturated = gqe::GroundSaturation(
                                   data, db.program.tgds);
                             }));
    saturation_facts += static_cast<double>(saturated.size());
    if (!data.SubsetOf(saturated)) report.Fail("saturation lost input facts");
    uint64_t digest = Fnv1a(std::to_string(saturated.size()));
    ++op;

    size_t q = 0;
    for (; q < db.omqs.size() && !out_of_time(); ++q, ++op) {
      const gqe::Omq& omq = db.omqs[q];
      ++report.attempted;
      ++query_count;
      gqe::OmqEvalResult result;
      const double wall = Timed(tracer, "omq.EvaluateOmq", "omq", op, [&] {
        result = gqe::EvaluateOmq(omq, data);
      });
      answer_ms.push_back(wall);
      const std::string text = AnswerText(result.answers);
      digest = Fnv1a(text, digest);
      if (result.method != "guarded-portion" || !result.exact ||
          result.partial) {
        report.Fail("query not answered exactly: method " + result.method);
      }
      if (q % kCertifyEvery == 0) {
        const std::string why =
            CertifyAnswers(options, omq, data, result.answers);
        if (!why.empty()) report.Fail("open-world certificate: " + why);
      }
      if (!options.trace) continue;

      // Replay EvaluateOmq's pipeline through the layers' public
      // functions to split its time.
      const double classify_ms =
          Timed(tracer, "tgd.classify", "tgd", op, [&] {
            volatile bool guarded = gqe::IsGuardedSet(omq.sigma);
            volatile bool terminating =
                gqe::IsObliviousChaseTerminating(omq.sigma);
            (void)guarded;
            (void)terminating;
          });
      const double saturation_ms =
          Timed(tracer, "guarded.GroundSaturation", "guarded", op,
                [&] { gqe::GroundSaturation(data, omq.sigma); });
      gqe::TypeClosureEngine engine(omq.sigma);
      gqe::ChaseTreeOptions tree_options;
      tree_options.blocking_repeats =
          static_cast<int>(MaxQueryVariables(omq.query)) + 1;
      gqe::ChaseTree tree;
      const double tree_ms =
          Timed(tracer, "guarded.BuildChaseTree", "guarded", op, [&] {
            tree = gqe::BuildChaseTree(data, omq.sigma, tree_options, &engine);
          });
      const double eval_ms =
          Timed(tracer, "query.EvaluateUCQ(portion)", "query", op,
                [&] { gqe::EvaluateUCQ(omq.query, tree.portion); });
      parts.push_back({classify_ms, saturation_ms, tree_ms - saturation_ms,
                       eval_ms,
                       wall - classify_ms - tree_ms - eval_ms});
      shapes += static_cast<double>(engine.num_shapes());
      portion_facts += static_cast<double>(tree.portion.size());
      bags += static_cast<double>(tree.bags.size());
      for (const gqe::ChaseBag& bag : tree.bags) blocked += bag.blocked ? 1 : 0;
    }
    // Only whole databases get a digest, so runs that stop at different
    // points still agree on their common prefix.
    if (q < db.omqs.size()) break;
    report.digests.push_back(digest);
  }

  double answer_total = 0, chase_total = 0;
  for (double ms : answer_ms) answer_total += ms;
  for (double ms : chase_ms) chase_total += ms;
  report.E2E("setup_s", setup_s, "s");
  report.E2E("answer_p50_ms", Percentile(answer_ms, 0.5), "ms");
  report.E2E("answer_p90_ms", Percentile(answer_ms, 0.9), "ms");
  report.E2E("queries_per_s", 1000.0 * answer_ms.size() / answer_total, "1/s");
  report.E2E("chase_p50_ms", Percentile(chase_ms, 0.5), "ms");
  report.E2E("chase_p90_ms", Percentile(chase_ms, 0.9), "ms");
  report.E2E("facts_per_s", 1000.0 * saturation_facts / chase_total, "1/s");
  report.E2E("peak_rss_mb", PeakRssMb(), "MB");

  report.sizes["min_facts"] = kMinFacts;
  report.sizes["max_facts"] = kMaxFacts;
  report.sizes["queries_per_database"] = kQueries;
  report.sizes["setup_databases"] = kSetupDatabases;
  report.sizes["certify_every"] = kCertifyEvery;
  report.counts["databases"] = static_cast<double>(chase_ms.size());
  report.counts["queries"] = static_cast<double>(query_count);
  report.counts["mean_db_facts"] =
      static_cast<double>(db_facts) / static_cast<double>(chase_ms.size());

  if (options.trace) {
    const std::vector<double> band = MedianBandMeans(answer_ms, parts);
    report.Layer("parser.parse_ms", parse_ms, "ms");
    report.Layer("tgd.classify_us", band[0] * 1000.0, "us");
    report.Layer("guarded.saturation_ms", band[1], "ms");
    report.Layer("guarded.tree_self_ms", band[2], "ms");
    report.Layer("query.portion_eval_ms", band[3], "ms");
    report.Layer("omq.self_ms", band[4], "ms");
    const double n = static_cast<double>(parts.size());
    report.Layer("guarded.shapes", shapes / n, "count");
    report.Layer("guarded.portion_facts", portion_facts / n, "count");
    report.Layer("guarded.bags", bags / n, "count");
    report.Layer("guarded.blocked_ratio", bags > 0 ? blocked / bags : 0.0,
                 "ratio");
    report.notes.push_back(
        {"layer_sum_ms", std::to_string(band[0] + band[1] + band[2] +
                                        band[3] + band[4])});
    tracer.WriteChrome(options.out_dir + "/trace-open-world.json");
  }
  return report;
}

}  // namespace perfbench
