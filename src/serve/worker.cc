#include "serve/worker.h"

#include <signal.h>

#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "base/subprocess.h"
#include "chase/chase.h"
#include "chase/checkpoint.h"
#include "cqs/cqs.h"
#include "cqs/evaluation.h"
#include "omq/evaluation.h"
#include "omq/omq.h"
#include "parser/parser.h"
#include "query/evaluation.h"
#include "verify/witness.h"
#include "workload/report.h"

namespace gqe {

namespace {

/// Address-space cap the OOM fault installs, and the allocation it then
/// attempts. The allocation is strictly larger than the cap, so the
/// bad_alloc is deterministic no matter how much memory the worker
/// already mapped.
constexpr size_t kOomFaultLimitBytes = 64ull << 20;
constexpr size_t kOomFaultProbeBytes = 128ull << 20;

/// Bounded-chase level an OMQ falls back to on a degraded-ladder attempt.
constexpr int kDegradedFallbackLevel = 3;

void ApplyPreEvalFault(const FaultSpec& fault) {
  switch (fault.type) {
    case FaultSpec::Type::kExit:
      ::_exit(fault.exit_code);
    case FaultSpec::Type::kKill:
      if (fault.at_checkpoint == 0) ::raise(SIGKILL);
      break;
    case FaultSpec::Type::kStall:
      if (fault.at_checkpoint == 0) ::raise(SIGSTOP);
      break;
    case FaultSpec::Type::kOom: {
      WorkerLimits limits;
      limits.address_space_bytes = kOomFaultLimitBytes;
      InstallWorkerLimits(limits);
      // Force the cap to bite now: this throws std::bad_alloc, which the
      // worker entry point turns into kWorkerExitOom. A direct
      // operator-new call — a `new[]`/`delete[]` pair may legally be
      // elided by the optimizer, and then no allocation ever happens.
      void* probe = ::operator new(kOomFaultProbeBytes);
      *static_cast<volatile char*>(probe) = 1;
      ::operator delete(probe);
      break;
    }
    case FaultSpec::Type::kCpu: {
      WorkerLimits limits;
      limits.cpu_seconds = 1.0;
      InstallWorkerLimits(limits);
      // Spin until the kernel's SIGXCPU arrives — a cpu-limit death.
      volatile uint64_t sink = 0;
      for (;;) sink = sink + 1;
      break;
    }
    case FaultSpec::Type::kNone:
      break;
  }
}

/// After the governed evaluation returns: a kill/stall fault whose
/// checkpoint was reached tripped the injector (status kCancelled); the
/// worker now dies the prescribed death at a deterministic logical point.
/// If the run finished before the checkpoint, the fault misses — exactly
/// like a real chaos kill racing a fast request.
void ApplyPostEvalFault(const FaultSpec& fault, Status status) {
  if (status != Status::kCancelled) return;
  if (fault.type == FaultSpec::Type::kKill) ::raise(SIGKILL);
  if (fault.type == FaultSpec::Type::kStall) ::raise(SIGSTOP);
}

/// Canonical textual digest of query answers: "name(t1, t2)\n" per tuple
/// in the engines' sorted order. Equal digests <=> identical answer sets.
void FoldAnswers(const std::string& name,
                 const std::vector<std::vector<Term>>& answers,
                 std::string* digest, uint64_t* count) {
  for (const auto& tuple : answers) {
    digest->append(name);
    digest->push_back('(');
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) digest->append(", ");
      digest->append(tuple[i].ToString());
    }
    digest->append(")\n");
  }
  *count += answers.size();
}

struct NamedQuery {
  std::string name;
  const UCQ* query;
};

bool ResolveQueries(const Program& program, const std::string& wanted,
                    std::vector<NamedQuery>* out) {
  if (!wanted.empty()) {
    auto it = program.queries.find(wanted);
    if (it == program.queries.end()) return false;
    out->push_back({it->first, &it->second});
    return true;
  }
  for (const auto& [name, query] : program.queries) {
    out->push_back({name, &query});
  }
  return true;
}

int EvaluateRequest(const WorkerInvocation& invocation,
                    const Program& program, Governor* governor,
                    WorkerResult* result) {
  const EvalRequest& request = invocation.request;
  result->id = request.id;
  result->degraded = invocation.degraded;
  result->method = RequestKindName(request.kind);
  Stopwatch watch;

  if (request.kind == RequestKind::kChase) {
    ChaseOptions options;
    options.governor = governor;
    options.max_level = request.max_level;
    options.collect_witness = invocation.collect_witness;
    ResumeInfo info;
    ChaseResult chase;
    if (!invocation.checkpoint_dir.empty()) {
      chase = ResumeChase(invocation.checkpoint_dir, program.database,
                          program.tgds, options, &info);
    } else {
      chase = Chase(program.database, program.tgds, options);
    }
    result->status = chase.outcome.status;
    result->exact = chase.complete && !invocation.degraded;
    result->facts = chase.instance.size();
    result->answer_count = chase.instance.size();
    result->rounds_completed = chase.rounds_completed;
    result->resumed = info.resumed;
    result->resume_generation = info.generation;
    BinaryWriter writer;
    EncodeInstance(chase.instance, &writer);
    result->answer_crc = Crc32(writer.buffer());
    if (invocation.collect_witness) {
      EvalWitness witness;
      witness.kind = EvalWitness::Kind::kDerivation;
      witness.method = result->method;
      witness.derivation = std::move(chase.derivation);
      // A resume from a pre-witness snapshot loses the trigger log; the
      // result stands but can only be reported unverified.
      witness.certified = witness.derivation.collected;
      result->witness = EncodeEvalWitnessToString(witness);
    }
    result->eval_ms = watch.ElapsedMs();
    return kWorkerExitOk;
  }

  std::vector<NamedQuery> queries;
  if (!ResolveQueries(program, request.query, &queries)) {
    return kWorkerExitBadRequest;
  }

  std::string digest;
  uint64_t count = 0;
  bool exact = true;
  Status worst = Status::kCompleted;
  std::string method = RequestKindName(request.kind);
  const bool collect = invocation.collect_witness;
  // One EvalWitness per named query; merged below.
  std::vector<EvalWitness> collected;
  for (const NamedQuery& nq : queries) {
    EvalWitness query_witness;
    switch (request.kind) {
      case RequestKind::kCq: {
        std::vector<std::vector<Term>> answers;
        if (collect) {
          answers = EvaluateUCQWithWitnesses(
              *nq.query, program.database, &query_witness.answers, 0,
              governor);
          query_witness.kind = EvalWitness::Kind::kAnswers;
          query_witness.certified = true;
        } else {
          answers = EvaluateUCQ(*nq.query, program.database, 0, governor);
        }
        FoldAnswers(nq.name, answers, &digest, &count);
        break;
      }
      case RequestKind::kCqs: {
        Cqs cqs{program.tgds, *nq.query};
        WitnessOptions witness_options;
        witness_options.collect = collect;
        CqsEvalResult eval =
            EvaluateCqs(cqs, program.database, /*check_promise=*/true,
                        governor, witness_options);
        if (!eval.promise_ok) method = "cqs(promise-violated)";
        if (eval.status != Status::kCompleted) worst = eval.status;
        if (collect) {
          query_witness.kind = EvalWitness::Kind::kAnswers;
          query_witness.answers = std::move(eval.witnesses);
          query_witness.certified = true;
        }
        FoldAnswers(nq.name, eval.answers, &digest, &count);
        break;
      }
      case RequestKind::kOmq: {
        Omq omq = Omq::WithFullDataSchema(program.tgds, *nq.query);
        OmqEvalOptions options;
        options.governor = governor;
        options.checkpoint_dir = invocation.checkpoint_dir;
        options.witness.collect = collect;
        if (invocation.degraded) {
          options.fallback_chase_level = kDegradedFallbackLevel;
        }
        OmqEvalResult eval = EvaluateOmq(omq, program.database, options);
        if (!eval.exact || eval.partial) exact = false;
        if (eval.status != Status::kCompleted) worst = eval.status;
        method = eval.method;
        if (collect) query_witness = std::move(eval.witness);
        FoldAnswers(nq.name, eval.answers, &digest, &count);
        break;
      }
      case RequestKind::kChase:
        break;  // handled above
    }
    if (collect) {
      for (HomWitness& hom : query_witness.answers) hom.query = nq.name;
      collected.push_back(std::move(query_witness));
    }
    if (governor->Tripped()) break;
  }
  if (governor->Tripped()) {
    worst = governor->status();
    exact = false;
  }
  result->status = worst;
  result->exact = exact && !invocation.degraded;
  result->method = method;
  result->answer_count = count;
  result->answer_crc = Crc32(digest);
  result->facts = program.database.size();
  if (collect) {
    EvalWitness merged;
    if (collected.size() == 1) {
      merged = std::move(collected[0]);
    } else {
      // Multi-query requests: homomorphism certificates concatenate, but
      // two independent chase derivations cannot share one witness. A
      // request mixing chase-backed queries is reported uncertified.
      merged.kind = EvalWitness::Kind::kAnswers;
      merged.certified = !collected.empty();
      for (EvalWitness& cw : collected) {
        if (cw.kind == EvalWitness::Kind::kAnswers) {
          merged.certified = merged.certified && cw.certified;
          for (HomWitness& hom : cw.answers) {
            merged.answers.push_back(std::move(hom));
          }
        } else {
          merged.certified = false;
        }
      }
    }
    merged.method = method;
    result->witness = EncodeEvalWitnessToString(merged);
  }
  result->eval_ms = watch.ElapsedMs();
  return kWorkerExitOk;
}

}  // namespace

const char* WorkerExitCodeName(int code) {
  switch (code) {
    case kWorkerExitOk:
      return "ok";
    case kWorkerExitParseError:
      return "parse-error";
    case kWorkerExitBadRequest:
      return "bad-request";
    case kWorkerExitOom:
      return "oom";
    case kWorkerExitResultWriteError:
      return "result-write-error";
    case kWorkerExitSupervisorGone:
      return "supervisor-gone";
  }
  return "exit";
}

std::string EncodeWorkerResult(const WorkerResult& result) {
  BinaryWriter writer;
  writer.WriteString(result.id);
  writer.WriteI32(static_cast<int32_t>(result.status));
  writer.WriteBool(result.exact);
  writer.WriteBool(result.degraded);
  writer.WriteString(result.method);
  writer.WriteU64(result.answer_count);
  writer.WriteU32(result.answer_crc);
  writer.WriteU64(result.facts);
  writer.WriteU64(result.rounds_completed);
  writer.WriteBool(result.resumed);
  writer.WriteU64(result.resume_generation);
  // eval_ms as microseconds; latency needs no float precision. The
  // guards keep the cast defined (NaN fails `us > 0`).
  const double us = result.eval_ms * 1000.0;
  uint64_t eval_us = 0;
  if (us >= static_cast<double>(kMaxEvalUs)) {
    eval_us = kMaxEvalUs;
  } else if (us > 0.0) {
    eval_us = static_cast<uint64_t>(us);
  }
  writer.WriteU64(eval_us);
  writer.WriteString(result.witness);
  return WrapSnapshot(kSnapshotKindWorkerResult, writer.Take());
}

SnapshotStatus DecodeWorkerResult(std::string_view bytes,
                                  WorkerResult* result) {
  std::string_view payload;
  SnapshotStatus status =
      UnwrapSnapshot(bytes, kSnapshotKindWorkerResult, &payload);
  if (!status.ok()) return status;
  BinaryReader reader(payload);
  WorkerResult decoded;
  int32_t status_raw = 0;
  uint64_t eval_us = 0;
  if (!reader.ReadString(&decoded.id) || !reader.ReadI32(&status_raw) ||
      !reader.ReadBool(&decoded.exact) || !reader.ReadBool(&decoded.degraded) ||
      !reader.ReadString(&decoded.method) ||
      !reader.ReadU64(&decoded.answer_count) ||
      !reader.ReadU32(&decoded.answer_crc) || !reader.ReadU64(&decoded.facts) ||
      !reader.ReadU64(&decoded.rounds_completed) ||
      !reader.ReadBool(&decoded.resumed) ||
      !reader.ReadU64(&decoded.resume_generation) ||
      !reader.ReadU64(&eval_us) || !reader.ReadString(&decoded.witness) ||
      !reader.AtEnd()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "worker result blob cut short");
  }
  if (status_raw < 0 || status_raw > static_cast<int32_t>(Status::kCancelled)) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "worker result has impossible status");
  }
  if (eval_us > kMaxEvalUs) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "worker result has impossible eval time");
  }
  decoded.status = static_cast<Status>(status_raw);
  decoded.eval_ms = static_cast<double>(eval_us) / 1000.0;
  *result = std::move(decoded);
  return SnapshotStatus::Ok();
}

int RunWorkerInProcess(const WorkerInvocation& invocation, int result_fd,
                       int heartbeat_fd) {
  std::optional<HeartbeatWriter> heartbeat;
  if (heartbeat_fd >= 0) {
    heartbeat.emplace(heartbeat_fd, invocation.heartbeat_interval_ms);
  }

  try {
    ApplyPreEvalFault(invocation.fault);

    // Without a supervisor-parsed program (non-verify mode, in-process
    // callers) the worker parses its own. Non-verify mode must: result
    // lines carry a chase CRC over interned ids, and a supervisor-side
    // parse would make those ids depend on request admission order.
    ParseResult parsed;
    const Program* program = invocation.program;
    if (program == nullptr) {
      std::string text;
      if (!ReadFileBytes(invocation.request.program_path, &text).ok()) {
        return kWorkerExitParseError;
      }
      parsed = ParseProgram(text);
      if (!parsed.ok) return kWorkerExitParseError;
      program = &parsed.program;
    }

    // A kill/stall fault rides the governor's deterministic fault
    // injector: the evaluation stops at exactly checkpoint N (status
    // kCancelled), then the worker dies for real.
    std::optional<TestFaultInjector> injector;
    if ((invocation.fault.type == FaultSpec::Type::kKill ||
         invocation.fault.type == FaultSpec::Type::kStall) &&
        invocation.fault.at_checkpoint > 0) {
      injector.emplace(Status::kCancelled, invocation.fault.at_checkpoint);
    }
    Governor governor(invocation.request.budget,
                      injector.has_value() ? &*injector : nullptr);

    WorkerResult result;
    const int code =
        EvaluateRequest(invocation, *program, &governor, &result);
    ApplyPostEvalFault(invocation.fault, governor.status());
    if (code != kWorkerExitOk) return code;

    if (result_fd >= 0) {
      int write_errno = 0;
      if (!WriteAllToFd(result_fd, EncodeWorkerResult(result),
                        &write_errno)) {
        // SIGPIPE is ignored in the worker (subprocess.cc child setup),
        // so a dead supervisor lands here as EPIPE, not a signal death.
        return IsPeerGoneErrno(write_errno) ? kWorkerExitSupervisorGone
                                            : kWorkerExitResultWriteError;
      }
    }
    return kWorkerExitOk;
  } catch (const std::bad_alloc&) {
    return kWorkerExitOom;
  }
}

}  // namespace gqe
