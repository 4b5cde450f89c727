// Crash-contained serving tests (serve/*): the chaos matrix — a worker
// killed with SIGKILL, put over its CPU or address-space rlimit, or
// stalled with SIGSTOP mid-run must leave the final report bit-identical
// to a fault-free run of the same manifest; a killed worker's retry must
// resume from its checkpoint instead of recomputing; plus manifest
// parsing, admission-control shedding, the degradation ladder, permanent
// failures and the chaos soak from the acceptance criteria.

#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "chase/checkpoint.h"
#include "parser/parser.h"
#include "serve/request.h"
#include "serve/service.h"
#include "serve/worker.h"
#include "sanitized.h"

namespace gqe {
namespace {

/// The 12-stage pipeline (cf. examples/serve/chain.gqe): one chase round
/// per stage, so kill/stall checkpoints in the low tens land mid-run.
constexpr const char* kChainProgram = R"(
sv0(a). sv0(b). sv0(c). sv0(d).
svlink(a, b). svlink(b, c). svlink(c, d).
sv0(X) -> sv1(X).
sv1(X) -> sv2(X).
sv2(X) -> sv3(X).
sv3(X) -> sv4(X).
sv4(X) -> sv5(X).
sv5(X) -> sv6(X).
sv6(X) -> sv7(X).
sv7(X) -> sv8(X).
sv8(X) -> sv9(X).
sv9(X) -> sv10(X).
sv10(X) -> sv11(X).
sv11(X) -> sv12(X).
svlink(X, Y) -> svconn(X, Y).
svconn(X, Y) -> svconn(Y, X).
svq(X) :- sv12(X).
)";

constexpr const char* kUniversityProgram = R"(
sven(ann, cs). sven(bob, math). sven(carol, cs).
svteach(dana, cs).
sven(S, C) -> svteach(P, C), svprof(P).
svteach(P, C) -> svcourse(C).
svprof(P) -> svemp(P).
svuq(C) :- svteach(P, C), svcourse(C).
)";

std::string WriteProgram(const std::string& name, const char* text) {
  std::string path = ::testing::TempDir() + "gqe_serve_" + name + ".gqe";
  std::FILE* file = std::fopen(path.c_str(), "w");
  EXPECT_NE(file, nullptr) << path;
  if (file != nullptr) {
    std::fputs(text, file);
    std::fclose(file);
  }
  return path;
}

EvalRequest ChaseRequest(const std::string& id, const std::string& program) {
  EvalRequest request;
  request.id = id;
  request.kind = RequestKind::kChase;
  request.program_path = program;
  request.budget.max_facts = 100000;
  return request;
}

/// Options tuned for fast tests: short backoff, and a heartbeat timeout
/// short enough that a SIGSTOP stall is reaped quickly but long enough
/// (vs the 20ms beat interval) to never fire on a healthy worker.
ServeOptions FastOptions() {
  ServeOptions options;
  options.backoff_base_ms = 2.0;
  options.backoff_cap_ms = 20.0;
  options.heartbeat_timeout_ms = 400.0;
  return options;
}

const RequestRow& RowById(const ServeReport& report, const std::string& id) {
  for (const RequestRow& row : report.rows) {
    if (row.id == id) return row;
  }
  ADD_FAILURE() << "no row for " << id;
  static RequestRow missing;
  return missing;
}

TEST(ServeManifestParseTest, ParsesKindsBudgetsAndFaults) {
  Manifest manifest;
  std::string error;
  ASSERT_TRUE(ParseManifest(
      "# comment\n"
      "id=r1 kind=chase program=p.gqe max_facts=100 deadline_ms=50\n"
      "id=r2 kind=omq program=/abs/p.gqe query=q as_mb=512\n"
      "id=r3 kind=cqs program=p.gqe query=q fault=kill@8/attempt=2\n"
      "id=r4 kind=cq program=p.gqe fault=cpu\n",
      "/base", &manifest, &error))
      << error;
  ASSERT_EQ(manifest.requests.size(), 4u);
  EXPECT_EQ(manifest.requests[0].program_path, "/base/p.gqe");
  EXPECT_EQ(manifest.requests[0].budget.max_facts, 100u);
  EXPECT_EQ(manifest.requests[0].budget.deadline_ms, 50.0);
  EXPECT_EQ(manifest.requests[1].program_path, "/abs/p.gqe");
  EXPECT_EQ(manifest.requests[1].address_space_mb, 512u);
  EXPECT_EQ(manifest.requests[2].fault.type, FaultSpec::Type::kKill);
  EXPECT_EQ(manifest.requests[2].fault.at_checkpoint, 8u);
  EXPECT_EQ(manifest.requests[2].fault.on_attempt, 2);
  EXPECT_EQ(manifest.requests[3].fault.type, FaultSpec::Type::kCpu);
}

TEST(ServeManifestParseTest, RejectsDuplicateIdsAndUnknownKeys) {
  Manifest manifest;
  std::string error;
  EXPECT_FALSE(ParseManifest(
      "id=r1 kind=chase program=p.gqe\nid=r1 kind=cq program=p.gqe\n", "",
      &manifest, &error));
  EXPECT_NE(error.find("r1"), std::string::npos);
  EXPECT_FALSE(ParseManifest("id=r2 kind=chase program=p.gqe maxfacts=3\n",
                             "", &manifest, &error));
}

TEST(ServeChaosSpecTest, ParsesAndRejects) {
  ChaosConfig config;
  std::string error;
  ASSERT_TRUE(ParseChaosSpec("kill=0.3,oom=0.1,stall=0.25,seed=7", &config,
                             &error))
      << error;
  EXPECT_DOUBLE_EQ(config.kill_p, 0.3);
  EXPECT_DOUBLE_EQ(config.oom_p, 0.1);
  EXPECT_DOUBLE_EQ(config.stall_p, 0.25);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_TRUE(config.enabled());
  EXPECT_FALSE(ParseChaosSpec("kill=2.0", &config, &error));
  EXPECT_FALSE(ParseChaosSpec("frobnicate=0.1", &config, &error));
}

TEST(ServeWorkerResultTest, EncodeDecodeRoundTrip) {
  WorkerResult result;
  result.id = "r-42";
  result.status = Status::kBudgetExceeded;
  result.exact = false;
  result.degraded = true;
  result.method = "omq(fallback)";
  result.answer_count = 17;
  result.answer_crc = 0xdeadbeef;
  result.facts = 123;
  result.rounds_completed = 9;
  result.resumed = true;
  result.resume_generation = 6;
  result.eval_ms = 3.25;
  result.witness = std::string("opaque\0witness\xff", 15);

  const std::string bytes = EncodeWorkerResult(result);
  WorkerResult decoded;
  ASSERT_TRUE(DecodeWorkerResult(bytes, &decoded).ok());
  EXPECT_EQ(decoded.id, result.id);
  EXPECT_EQ(decoded.status, result.status);
  EXPECT_FALSE(decoded.exact);
  EXPECT_TRUE(decoded.degraded);
  EXPECT_EQ(decoded.method, result.method);
  EXPECT_EQ(decoded.answer_count, 17u);
  EXPECT_EQ(decoded.answer_crc, 0xdeadbeefu);
  EXPECT_EQ(decoded.rounds_completed, 9u);
  EXPECT_TRUE(decoded.resumed);
  EXPECT_EQ(decoded.resume_generation, 6u);
  // The witness blob travels opaquely — embedded NULs and all.
  EXPECT_EQ(decoded.witness, result.witness);

  // A truncated blob is diagnosed, never trusted.
  WorkerResult garbage;
  EXPECT_FALSE(
      DecodeWorkerResult(std::string_view(bytes).substr(0, bytes.size() / 2),
                         &garbage)
          .ok());
}

/// A CRC-valid worker result blob, field for field as EncodeWorkerResult
/// lays it out, carrying `eval_us` verbatim.
std::string WorkerResultBlob(uint64_t eval_us) {
  BinaryWriter writer;
  writer.WriteString("r-1");
  writer.WriteI32(static_cast<int32_t>(Status::kCompleted));
  writer.WriteBool(true);
  writer.WriteBool(false);
  writer.WriteString("cq");
  writer.WriteU64(1);
  writer.WriteU32(2);
  writer.WriteU64(3);
  writer.WriteU64(0);
  writer.WriteBool(false);
  writer.WriteU64(0);
  writer.WriteU64(eval_us);
  writer.WriteString("");
  return WrapSnapshot(kSnapshotKindWorkerResult, writer.Take());
}

TEST(ServeWorkerResultTest, EvalTimeIsBounded) {
  // The supervisor re-encodes decoded results into journal records, so a
  // decoded eval time must convert back to microseconds without UB.
  WorkerResult decoded;
  ASSERT_TRUE(DecodeWorkerResult(WorkerResultBlob(kMaxEvalUs), &decoded).ok());
  EXPECT_EQ(decoded.eval_ms, static_cast<double>(kMaxEvalUs) / 1000.0);
  WorkerResult again;
  ASSERT_TRUE(DecodeWorkerResult(EncodeWorkerResult(decoded), &again).ok());
  EXPECT_EQ(again.eval_ms, decoded.eval_ms);

  const SnapshotStatus huge = DecodeWorkerResult(
      WorkerResultBlob(std::numeric_limits<uint64_t>::max()), &decoded);
  EXPECT_EQ(huge.error, SnapshotError::kFormatError);
  EXPECT_FALSE(
      DecodeWorkerResult(WorkerResultBlob(kMaxEvalUs + 1), &decoded).ok());

  // The encoder maps NaN and negative times to 0 and caps large ones.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (double in : {kNan, -5.0, -kInf, 1e300, kInf}) {
    WorkerResult result;
    result.eval_ms = in;
    WorkerResult out;
    ASSERT_TRUE(DecodeWorkerResult(EncodeWorkerResult(result), &out).ok())
        << in;
    EXPECT_EQ(out.eval_ms,
              in > 0 ? static_cast<double>(kMaxEvalUs) / 1000.0 : 0.0)
        << in;
  }
}

/// Runs one invocation in this process and decodes its result; the exit
/// code lands in `code`.
WorkerResult RunInProcess(const WorkerInvocation& invocation, int* code) {
  const std::string path = ::testing::TempDir() + "gqe_serve_inproc.bin";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  EXPECT_GE(fd, 0) << path;
  *code = RunWorkerInProcess(invocation, fd, -1);
  ::close(fd);
  WorkerResult result;
  std::string bytes;
  if (*code == kWorkerExitOk) {
    EXPECT_TRUE(ReadFileBytes(path, &bytes).ok());
    EXPECT_TRUE(DecodeWorkerResult(bytes, &result).ok());
  }
  return result;
}

/// A worker handed an already-parsed program evaluates it without
/// touching request.program_path, and digests exactly as a worker that
/// read and parsed the file itself.
TEST(ServeWorkerTest, PreparsedProgramMatchesPathBasedRun) {
  const std::string chain = WriteProgram("preparsed_chain", kChainProgram);
  const std::string univ = WriteProgram("preparsed_univ", kUniversityProgram);
  ParseResult chain_parsed = ParseProgram(kChainProgram);
  ParseResult univ_parsed = ParseProgram(kUniversityProgram);
  ASSERT_TRUE(chain_parsed.ok) << chain_parsed.error;
  ASSERT_TRUE(univ_parsed.ok) << univ_parsed.error;

  WorkerInvocation chase;
  chase.request = ChaseRequest("pre-chase", chain);
  WorkerInvocation cqs;
  cqs.request.id = "pre-cqs";
  cqs.request.kind = RequestKind::kCqs;
  cqs.request.program_path = univ;
  cqs.request.query = "svuq";

  for (auto [invocation, program] :
       {std::pair{chase, &chain_parsed.program},
        std::pair{cqs, &univ_parsed.program}}) {
    int code = -1;
    const WorkerResult from_path = RunInProcess(invocation, &code);
    ASSERT_EQ(code, kWorkerExitOk) << invocation.request.id;

    invocation.program = program;
    invocation.request.program_path = "/nonexistent";
    const WorkerResult preparsed = RunInProcess(invocation, &code);
    ASSERT_EQ(code, kWorkerExitOk) << invocation.request.id;
    EXPECT_EQ(preparsed.answer_count, from_path.answer_count)
        << invocation.request.id;
    EXPECT_EQ(preparsed.answer_crc, from_path.answer_crc)
        << invocation.request.id;
    EXPECT_EQ(preparsed.facts, from_path.facts) << invocation.request.id;
  }
}

/// Transitive closure plus one existential rule that terminates (the
/// invented node has no outgoing edge), so omq takes the terminating
/// chase, which checkpoints through the work dir as served chases do.
/// svpq has answers over the database alone.
constexpr const char* kPairProgram = R"(
svpe(a, b). svpe(b, c). svpe(c, d). svpstart(a). svpstart(c).
svpe(X, Y), svpe(Y, Z) -> svpe(X, Z).
svpstart(X) -> svpe(X, N), svpnode(N).
svpq(X, Z) :- svpe(X, Y), svpe(Y, Z).
)";

/// A database that already satisfies its rules, so cqs evaluates under
/// its promise instead of reporting the violation.
constexpr const char* kClosedProgram = R"(
svcq(a, b). svcq(b, c). svcr(a). svcr(b).
svcq(X, Y) -> svcr(X).
svcqq(X) :- svcq(X, Y), svcr(Y).
)";

/// Engine pair: a served request (a forked worker whose chase
/// checkpoints every round into the request's work dir) digests exactly
/// as the same invocation run in this process with no work dir, for
/// every request kind. Null ids are pinned on both sides, so chase CRCs
/// (which encode null ids) compare too.
TEST(ServeTest, ServedResultsMatchInProcessWorker) {
  const std::string chain = WriteProgram("pair_chain", kChainProgram);
  const std::string univ = WriteProgram("pair_univ", kUniversityProgram);
  const std::string pair = WriteProgram("pair_tc", kPairProgram);
  const std::string closed = WriteProgram("pair_closed", kClosedProgram);
  auto query = [](const std::string& id, RequestKind kind,
                  const std::string& program, const std::string& name) {
    EvalRequest request;
    request.id = id;
    request.kind = kind;
    request.program_path = program;
    request.query = name;
    request.budget.max_facts = 100000;
    return request;
  };
  Manifest manifest;
  manifest.requests.push_back(ChaseRequest("pair-chase-chain", chain));
  manifest.requests.push_back(ChaseRequest("pair-chase-univ", univ));
  manifest.requests.push_back(ChaseRequest("pair-chase-tc", pair));
  manifest.requests.push_back(query("pair-cq", RequestKind::kCq, pair, "svpq"));
  manifest.requests.push_back(
      query("pair-cqs", RequestKind::kCqs, closed, "svcqq"));
  manifest.requests.push_back(
      query("pair-omq", RequestKind::kOmq, pair, "svpq"));
  manifest.requests.push_back(
      query("pair-omq-guarded", RequestKind::kOmq, univ, "svuq"));

  // In-process first: it interns every name, so the forked workers
  // inherit the same interner ids.
  const uint32_t null_base = Term::NextNullId();
  std::vector<WorkerResult> direct;
  for (const EvalRequest& request : manifest.requests) {
    WorkerInvocation invocation;
    invocation.request = request;
    Term::SetNextNullId(null_base);
    int code = -1;
    direct.push_back(RunInProcess(invocation, &code));
    ASSERT_EQ(code, kWorkerExitOk) << request.id;
  }

  ServeOptions options = FastOptions();
  options.work_dir = ::testing::TempDir() + "gqe_serve_pair_work";
  std::filesystem::remove_all(options.work_dir);
  Term::SetNextNullId(null_base);
  const ServeReport report = ServeManifest(manifest, options);
  ASSERT_EQ(report.completed, manifest.requests.size());

  for (size_t i = 0; i < manifest.requests.size(); ++i) {
    const EvalRequest& request = manifest.requests[i];
    const WorkerResult& served = RowById(report, request.id).result;
    EXPECT_EQ(served.answer_crc, direct[i].answer_crc) << request.id;
    EXPECT_EQ(served.answer_count, direct[i].answer_count) << request.id;
    EXPECT_EQ(served.facts, direct[i].facts) << request.id;
    EXPECT_EQ(served.rounds_completed, direct[i].rounds_completed)
        << request.id;
    EXPECT_EQ(served.method, direct[i].method) << request.id;
    if (request.kind == RequestKind::kChase) {
      // The served chase really went through its checkpoint directory.
      const std::vector<uint64_t> generations =
          CheckpointDir(options.work_dir + "/" + request.id).Generations();
      ASSERT_FALSE(generations.empty()) << request.id;
      EXPECT_EQ(generations.back(), served.rounds_completed) << request.id;
    }
  }
  EXPECT_GE(RowById(report, "pair-chase-chain").result.rounds_completed, 12u);
  EXPECT_GT(RowById(report, "pair-cq").result.answer_count, 0u);
  EXPECT_EQ(RowById(report, "pair-cqs").result.method, "cqs");
  EXPECT_GT(RowById(report, "pair-cqs").result.answer_count, 0u);
  EXPECT_GT(RowById(report, "pair-omq").result.answer_count,
            RowById(report, "pair-cq").result.answer_count);
  std::filesystem::remove_all(options.work_dir);
  Term::SetNextNullId(null_base);
}

TEST(ServeTest, FaultFreeManifestCompletesEveryKind) {
  const std::string chain = WriteProgram("chain", kChainProgram);
  const std::string univ = WriteProgram("univ", kUniversityProgram);

  Manifest manifest;
  manifest.requests.push_back(ChaseRequest("chase-1", chain));
  EvalRequest cq;
  cq.id = "cq-1";
  cq.kind = RequestKind::kCq;
  cq.program_path = chain;
  cq.query = "svq";
  manifest.requests.push_back(cq);
  EvalRequest omq;
  omq.id = "omq-1";
  omq.kind = RequestKind::kOmq;
  omq.program_path = univ;
  omq.query = "svuq";
  manifest.requests.push_back(omq);
  EvalRequest cqs;
  cqs.id = "cqs-1";
  cqs.kind = RequestKind::kCqs;
  cqs.program_path = univ;
  cqs.query = "svuq";
  manifest.requests.push_back(cqs);

  ServeReport report = ServeManifest(manifest, FastOptions());
  ASSERT_EQ(report.rows.size(), 4u);
  EXPECT_EQ(report.completed, 4u);
  for (const RequestRow& row : report.rows) {
    EXPECT_EQ(row.state, TerminalState::kCompleted) << row.id;
    EXPECT_EQ(row.attempts.size(), 1u) << row.id;
    EXPECT_EQ(row.attempts[0].cause, "ok") << row.id;
  }
  // The chase saw real multi-round work (one round per pipeline stage).
  EXPECT_GE(RowById(report, "chase-1").result.rounds_completed, 12u);
  // cq answers: the four chain members do NOT reach sv12 without the
  // chase — closed-world evaluation sees only the database.
  EXPECT_EQ(RowById(report, "cq-1").result.answer_count, 0u);
  // omq certain answers consult the ontology.
  EXPECT_GE(RowById(report, "omq-1").result.answer_count, 1u);
}

/// The chaos matrix: every containment path — kill -9, rlimit-CPU,
/// rlimit-AS (OOM), SIGSTOP stall, spurious exit — produces a final
/// report bit-identical to the fault-free run of the same manifest.
TEST(ServeTest, ChaosMatrixReportsBitIdenticalToFaultFree) {
  const std::string chain = WriteProgram("matrix", kChainProgram);

  Manifest clean;
  clean.requests.push_back(ChaseRequest("m-kill", chain));
  clean.requests.push_back(ChaseRequest("m-cpu", chain));
  clean.requests.push_back(ChaseRequest("m-oom", chain));
  clean.requests.push_back(ChaseRequest("m-stall", chain));
  clean.requests.push_back(ChaseRequest("m-exit", chain));

  ServeOptions options = FastOptions();
  const ServeReport clean_report = ServeManifest(clean, options);
  ASSERT_EQ(clean_report.completed, 5u);

  Manifest faulty = clean;
  auto set_fault = [&faulty](size_t i, FaultSpec::Type type,
                             uint64_t checkpoint) {
    faulty.requests[i].fault.type = type;
    faulty.requests[i].fault.at_checkpoint = checkpoint;
  };
  set_fault(0, FaultSpec::Type::kKill, 30);
  set_fault(1, FaultSpec::Type::kCpu, 0);
  set_fault(2, FaultSpec::Type::kOom, 0);
  set_fault(3, FaultSpec::Type::kStall, 30);
  set_fault(4, FaultSpec::Type::kExit, 0);
  faulty.requests[4].fault.exit_code = 3;

  const ServeReport faulty_report = ServeManifest(faulty, options);
  EXPECT_EQ(faulty_report.completed, 5u);

  // The soak criterion, in miniature: deterministic result lines are
  // bit-identical; only the ops story (attempts, causes) differs.
  EXPECT_EQ(faulty_report.DeterministicText(),
            clean_report.DeterministicText());

  EXPECT_EQ(RowById(faulty_report, "m-kill").attempts[0].cause, "sigkill");
  EXPECT_EQ(RowById(faulty_report, "m-cpu").attempts[0].cause, "cpu-limit");
#ifdef GQE_SANITIZED
  // The sanitizer allocator dies instead of throwing (see sanitized.h):
  // still a contained, retried death, but not the dedicated OOM exit.
  EXPECT_NE(RowById(faulty_report, "m-oom").attempts[0].cause, "ok");
#else
  EXPECT_EQ(RowById(faulty_report, "m-oom").attempts[0].cause, "oom");
#endif
  EXPECT_EQ(RowById(faulty_report, "m-stall").attempts[0].cause,
            "heartbeat-timeout");
  EXPECT_EQ(RowById(faulty_report, "m-exit").attempts[0].cause, "exit:3");
  for (const RequestRow& row : faulty_report.rows) {
    ASSERT_EQ(row.attempts.size(), 2u) << row.id;
    EXPECT_EQ(row.attempts[1].cause, "ok") << row.id;
    EXPECT_GT(row.attempts[1].backoff_ms, 0.0) << row.id;
  }
}

/// A worker SIGKILLed mid-chase is retried and must RESUME from its
/// checkpoint directory, not recompute: the retry reports resumed=true
/// with a positive generation, and the total round count matches the
/// fault-free run (the round counters are the resume witness).
TEST(ServeTest, KillRetryResumesFromCheckpoint) {
  const std::string chain = WriteProgram("resume", kChainProgram);

  Manifest clean;
  clean.requests.push_back(ChaseRequest("res-1", chain));
  ServeOptions options = FastOptions();
  const ServeReport clean_report = ServeManifest(clean, options);
  const RequestRow& clean_row = RowById(clean_report, "res-1");
  ASSERT_EQ(clean_row.state, TerminalState::kCompleted);
  EXPECT_FALSE(clean_row.result.resumed);

  Manifest faulty = clean;
  faulty.requests[0].fault.type = FaultSpec::Type::kKill;
  faulty.requests[0].fault.at_checkpoint = 40;
  options.verify = true;
  const ServeReport report = ServeManifest(faulty, options);
  const RequestRow& row = RowById(report, "res-1");

  ASSERT_EQ(row.state, TerminalState::kCompleted);
  ASSERT_EQ(row.attempts.size(), 2u);
  EXPECT_EQ(row.attempts[0].cause, "sigkill");
  EXPECT_TRUE(row.result.resumed);
  EXPECT_GT(row.result.resume_generation, 0u);
  // The resumed run's derivation log (restored from the snapshot) still
  // replays: the supervisor independently verified the retried answer.
  EXPECT_EQ(row.verify_outcome, VerifyOutcome::kVerified)
      << row.verify_reason;
  // Same logical run: same total rounds, same facts, same digest.
  EXPECT_EQ(row.result.rounds_completed, clean_row.result.rounds_completed);
  EXPECT_EQ(row.result.facts, clean_row.result.facts);
  EXPECT_EQ(row.result.answer_crc, clean_row.result.answer_crc);
}

TEST(ServeTest, AdmissionControlShedsBeyondCapacity) {
  const std::string chain = WriteProgram("shed", kChainProgram);
  Manifest manifest;
  for (int i = 0; i < 4; ++i) {
    manifest.requests.push_back(
        ChaseRequest("shed-" + std::to_string(i), chain));
  }
  ServeOptions options = FastOptions();
  options.queue_capacity = 2;
  ServeReport report = ServeManifest(manifest, options);
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.shed, 2u);
  EXPECT_EQ(RowById(report, "shed-2").state, TerminalState::kShed);
  EXPECT_EQ(RowById(report, "shed-3").failure_cause, "queue-full");
}

/// Exact retry budget exhausted -> the degradation ladder answers under
/// the tighter degraded budget, flagged inexact, instead of failing.
TEST(ServeTest, DegradationLadderAnswersAfterRetryBudget) {
  const std::string chain = WriteProgram("ladder", kChainProgram);
  Manifest manifest;
  manifest.requests.push_back(ChaseRequest("lad-1", chain));
  // The fault fires on every exact attempt (attempt 1 of 1).
  manifest.requests[0].fault.type = FaultSpec::Type::kExit;
  manifest.requests[0].fault.exit_code = 9;

  ServeOptions options = FastOptions();
  options.max_attempts = 1;
  ServeReport report = ServeManifest(manifest, options);
  const RequestRow& row = RowById(report, "lad-1");
  ASSERT_EQ(row.state, TerminalState::kDegraded);
  EXPECT_TRUE(row.result.degraded);
  EXPECT_FALSE(row.result.exact);
  ASSERT_EQ(row.attempts.size(), 2u);
  EXPECT_EQ(row.attempts[0].cause, "exit:9");
  EXPECT_TRUE(row.attempts[1].degraded);

  // With the ladder disabled the same request is a structured failure.
  options.enable_degraded_ladder = false;
  ServeReport failed = ServeManifest(manifest, options);
  EXPECT_EQ(RowById(failed, "lad-1").state, TerminalState::kFailed);
  EXPECT_EQ(RowById(failed, "lad-1").failure_cause, "exit:9");
}

TEST(ServeTest, PermanentFailuresAreNotRetried) {
  Manifest manifest;
  manifest.requests.push_back(
      ChaseRequest("gone-1", "/nonexistent/program.gqe"));
  ServeReport report = ServeManifest(manifest, FastOptions());
  const RequestRow& row = RowById(report, "gone-1");
  EXPECT_EQ(row.state, TerminalState::kFailed);
  EXPECT_EQ(row.failure_cause, "parse-error");
  EXPECT_EQ(row.attempts.size(), 1u);
}

/// Verify mode hands workers the supervisor's parse; a program the
/// supervisor could not read or parse is left to the worker, which fails
/// it permanently exactly as without --verify.
TEST(ServeTest, PermanentFailuresAreNotRetriedUnderVerify) {
  const std::string broken = WriteProgram("broken", "svq(X) :- sv0(X");
  Manifest manifest;
  manifest.requests.push_back(
      ChaseRequest("gone-1", "/nonexistent/program.gqe"));
  manifest.requests.push_back(ChaseRequest("broken-1", broken));
  ServeOptions options = FastOptions();
  options.verify = true;
  ServeReport report = ServeManifest(manifest, options);
  for (const RequestRow& row : report.rows) {
    EXPECT_EQ(row.state, TerminalState::kFailed) << row.id;
    EXPECT_EQ(row.failure_cause, "parse-error") << row.id;
    EXPECT_EQ(row.attempts.size(), 1u) << row.id;
  }
}

/// A finished worker exits at once instead of waiting out its heartbeat
/// interval: attempt latency is the evaluation's, not the beat period's.
TEST(ServeTest, HeartbeatIntervalDoesNotDelayCompletion) {
  const std::string chain = WriteProgram("prompt", kChainProgram);
  Manifest manifest;
  EvalRequest cq;
  cq.id = "prompt-cq";
  cq.kind = RequestKind::kCq;
  cq.program_path = chain;
  cq.query = "svq";
  manifest.requests.push_back(cq);

  ServeOptions options = FastOptions();
  options.heartbeat_interval_ms = 500.0;
  options.heartbeat_timeout_ms = 5000.0;
  ServeReport report = ServeManifest(manifest, options);
  const RequestRow& row = RowById(report, "prompt-cq");
  ASSERT_EQ(row.state, TerminalState::kCompleted);
  ASSERT_EQ(row.attempts.size(), 1u);
  EXPECT_LT(row.attempts[0].ms, 250.0);
}

/// Certified answers across every request kind: with verify on, a
/// fault-free run independently re-checks each worker's witness — the
/// chase derivation replays, every query answer's homomorphism holds,
/// and the supervisor's digest of the re-checked answers matches the
/// worker's CRC.
TEST(ServeTest, VerifyModeChecksEveryKind) {
  const std::string chain = WriteProgram("vchain", kChainProgram);
  const std::string univ = WriteProgram("vuniv", kUniversityProgram);

  Manifest manifest;
  manifest.requests.push_back(ChaseRequest("v-chase", chain));
  EvalRequest cq;
  cq.id = "v-cq";
  cq.kind = RequestKind::kCq;
  cq.program_path = chain;
  cq.query = "svq";
  manifest.requests.push_back(cq);
  EvalRequest omq;
  omq.id = "v-omq";
  omq.kind = RequestKind::kOmq;
  omq.program_path = univ;
  omq.query = "svuq";
  manifest.requests.push_back(omq);
  EvalRequest cqs;
  cqs.id = "v-cqs";
  cqs.kind = RequestKind::kCqs;
  cqs.program_path = univ;
  cqs.query = "svuq";
  manifest.requests.push_back(cqs);

  ServeOptions options = FastOptions();
  options.verify = true;
  ServeReport report = ServeManifest(manifest, options);
  ASSERT_EQ(report.completed, 4u);
  for (const RequestRow& row : report.rows) {
    EXPECT_EQ(row.verify_outcome, VerifyOutcome::kVerified)
        << row.id << ": " << row.verify_reason;
  }
  EXPECT_EQ(report.verified, 4u);
  EXPECT_EQ(report.unverified, 0u);
  EXPECT_EQ(report.witness_rejections, 0u);

  // The deterministic lines carry the outcome — and verify mode must not
  // perturb the answers themselves, only annotate them.
  const std::string text = report.DeterministicText();
  EXPECT_NE(text.find("verified=yes"), std::string::npos);
  options.verify = false;
  ServeReport plain = ServeManifest(manifest, options);
  std::string plain_text = plain.DeterministicText();
  EXPECT_EQ(plain_text.find("verified="), std::string::npos);
  std::string stripped = text;
  size_t at;
  while ((at = stripped.find(" verified=yes")) != std::string::npos) {
    stripped.erase(at, 13);
  }
  EXPECT_EQ(stripped, plain_text);
}

/// Acceptance-criteria soak: a 50+ request manifest under
/// --chaos kill=0.3,stall=0.1 with verify on. The daemon never crashes,
/// every request reaches a terminal state, completed answers are
/// bit-identical to the fault-free run, and every positive answer's
/// witness was independently re-checked by the supervisor.
TEST(ServeTest, ChaosSoakFiftyRequestsBitIdentical) {
  const std::string chain = WriteProgram("soak_chain", kChainProgram);
  const std::string univ = WriteProgram("soak_univ", kUniversityProgram);

  Manifest manifest;
  for (int i = 0; i < 50; ++i) {
    if (i % 3 == 0) {
      EvalRequest cq;
      cq.id = "soak-" + std::to_string(i);
      cq.kind = i % 2 == 0 ? RequestKind::kCq : RequestKind::kOmq;
      cq.program_path = univ;
      cq.query = "svuq";
      manifest.requests.push_back(cq);
    } else {
      manifest.requests.push_back(
          ChaseRequest("soak-" + std::to_string(i), chain));
    }
  }

  ServeOptions options = FastOptions();
  options.concurrency = 8;
  options.verify = true;
  const ServeReport clean_report = ServeManifest(manifest, options);
  ASSERT_EQ(clean_report.rows.size(), 50u);
  ASSERT_EQ(clean_report.completed, 50u);
  EXPECT_EQ(clean_report.verified, 50u);
  EXPECT_EQ(clean_report.witness_rejections, 0u);

  ASSERT_TRUE(
      ParseChaosSpec("kill=0.3,stall=0.1,seed=11", &options.chaos, nullptr));
  options.chaos.max_checkpoint = 64;  // land inside these small runs
  const ServeReport chaos_report = ServeManifest(manifest, options);

  // Every request terminal (nothing dropped), answers bit-identical.
  ASSERT_EQ(chaos_report.rows.size(), 50u);
  EXPECT_EQ(chaos_report.completed + chaos_report.degraded +
                chaos_report.failed + chaos_report.shed,
            50u);
  EXPECT_EQ(chaos_report.DeterministicText(),
            clean_report.DeterministicText());

  // Every answer-bearing terminal row was independently re-checked —
  // chaos (kills, resumes, retries) must not cost certification.
  for (const RequestRow& row : chaos_report.rows) {
    if (row.state == TerminalState::kCompleted ||
        row.state == TerminalState::kDegraded) {
      EXPECT_EQ(row.verify_outcome, VerifyOutcome::kVerified)
          << row.id << ": " << row.verify_reason;
    }
  }

  // The chaos actually did something: some attempt was injected.
  size_t injected = 0;
  for (const RequestRow& row : chaos_report.rows) {
    for (const AttemptRecord& attempt : row.attempts) {
      if (attempt.chaos) ++injected;
    }
  }
  EXPECT_GT(injected, 0u);

  // And the same chaos seed reproduces the same attempt history.
  const ServeReport again = ServeManifest(manifest, options);
  ASSERT_EQ(again.rows.size(), chaos_report.rows.size());
  for (size_t i = 0; i < again.rows.size(); ++i) {
    ASSERT_EQ(again.rows[i].attempts.size(),
              chaos_report.rows[i].attempts.size())
        << again.rows[i].id;
    for (size_t j = 0; j < again.rows[i].attempts.size(); ++j) {
      EXPECT_EQ(again.rows[i].attempts[j].cause,
                chaos_report.rows[i].attempts[j].cause)
          << again.rows[i].id << " attempt " << j;
    }
  }
}

}  // namespace
}  // namespace gqe
