#ifndef GQE_SERVE_WORKER_H_
#define GQE_SERVE_WORKER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/serialize.h"
#include "serve/request.h"

namespace gqe {

struct Program;

/// Worker exit codes the supervisor classifies. Anything else (including
/// signal deaths) is treated as a crash and retried.
constexpr int kWorkerExitOk = 0;
/// The program file failed to read or parse — permanent, never retried.
constexpr int kWorkerExitParseError = 10;
/// The request references a query the program does not define — permanent.
constexpr int kWorkerExitBadRequest = 11;
/// An allocation failed (rlimit-AS or genuine memory pressure) — retried,
/// and eligible for the degradation ladder (a smaller budget may fit).
constexpr int kWorkerExitOom = 12;
/// The result blob could not be written back (I/O failure on the pipe).
constexpr int kWorkerExitResultWriteError = 13;
/// The result pipe's reader vanished (EPIPE/ECONNRESET): the supervisor
/// died or abandoned this attempt. Distinct from a write failure so the
/// loss is attributed to the right side of the pipe.
constexpr int kWorkerExitSupervisorGone = 14;

const char* WorkerExitCodeName(int code);

/// What a worker computed, serialized over the result pipe. Contains only
/// scalars and strings — decoding never touches the interner, so the
/// supervisor can read it from any child without having parsed the
/// program the child evaluated.
struct WorkerResult {
  std::string id;
  /// Governor status of the evaluation (deadline/budget trips end up
  /// here, not as process failures: the request asked for that budget).
  Status status = Status::kCompleted;
  /// False when answers are a sound under-approximation (governed trip,
  /// bounded-chase fallback, or a degraded-ladder run).
  bool exact = true;
  /// True when this result came from a degraded-ladder attempt.
  bool degraded = false;
  /// Evaluation method (kind name, or the OMQ engine's method string).
  std::string method;

  /// Canonical answer digest: number of tuples and CRC-32 of the sorted
  /// textual answer list (queries), or fact count and CRC-32 of the
  /// serialized instance (chase). Equal digests <=> bit-identical output.
  uint64_t answer_count = 0;
  uint32_t answer_crc = 0;
  uint64_t facts = 0;

  /// Chase round counters: total committed rounds of the logical run and
  /// the checkpoint generation this attempt resumed from (0 = fresh).
  /// A retried worker that resumed shows resume_generation > 0 while
  /// rounds_completed matches the fault-free run — the "no recompute
  /// from round 0" witness.
  uint64_t rounds_completed = 0;
  bool resumed = false;
  uint64_t resume_generation = 0;

  /// Travels as whole microseconds, at most kMaxEvalUs.
  double eval_ms = 0.0;

  /// Serialized EvalWitness blob (verify/witness.h), empty when witness
  /// collection was off. The supervisor decodes and independently
  /// re-checks it against its own parse of the program before trusting
  /// the digest above.
  std::string witness;
};

/// Largest encoded `eval_ms` in microseconds: 2^53, below which every
/// integer survives the round trip through double. The encoder maps NaN
/// and negative times to 0 and caps larger ones here; the decoder rejects
/// anything above it, so re-encoding a decoded result stays defined.
constexpr uint64_t kMaxEvalUs = uint64_t{1} << 53;

std::string EncodeWorkerResult(const WorkerResult& result);
SnapshotStatus DecodeWorkerResult(std::string_view bytes,
                                  WorkerResult* result);

/// Everything the forked child needs to run one attempt.
struct WorkerInvocation {
  EvalRequest request;
  int attempt = 1;
  /// Degradation-ladder attempt: evaluation runs under the (smaller)
  /// budget already folded into request.budget by the supervisor, OMQ
  /// falls back to a level-3 bounded chase, and the result is marked
  /// degraded / not exact.
  bool degraded = false;
  /// Per-request checkpoint directory (chase + omq resume). Empty = no
  /// checkpointing (then every retry recomputes from scratch).
  std::string checkpoint_dir;
  double heartbeat_interval_ms = 25.0;
  /// The fault this attempt must inject into itself (chaos or manifest).
  FaultSpec fault;
  /// Collect a machine-checkable certificate alongside the result
  /// (supervisor --verify mode).
  bool collect_witness = false;
  /// The already-parsed program to evaluate, or null to read and parse
  /// request.program_path. The verify-mode supervisor points this into
  /// its own program cache, parsed before the fork; the forked child
  /// reads it from its copy-on-write image. Not owned.
  const Program* program = nullptr;
};

/// Child-side entry point: evaluates the request against
/// `invocation.program` (reading and parsing request.program_path when
/// that is null) under a governor built from its budget, injects `fault`
/// at the prescribed checkpoint, writes the encoded WorkerResult to
/// `result_fd` and returns the exit code. Runs inside the forked worker;
/// callable in-process from tests only with a non-lethal fault spec.
int RunWorkerInProcess(const WorkerInvocation& invocation, int result_fd,
                       int heartbeat_fd);

}  // namespace gqe

#endif  // GQE_SERVE_WORKER_H_
