#include "serve/service.h"

#include <signal.h>
#include <stdlib.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>

#include "base/subprocess.h"
#include "parser/parser.h"
#include "serve/journal.h"
#include "verify/verifier.h"
#include "verify/witness.h"
#include "workload/report.h"

namespace gqe {

namespace {

/// Seed of the retry backoff's deterministic jitter.
constexpr uint64_t kJitterSeed = 1;

/// The degradation ladder's budget: each caps the request's own budget
/// (an unset request limit is capped too).
constexpr size_t kDegradedMaxFacts = 20000;
constexpr uint64_t kDegradedMaxNodes = 500000;
constexpr double kDegradedDeadlineMs = 2000.0;

// Deterministic, order-independent chaos and jitter draws on top of the
// shared Mix64 (base/subprocess.h): every (request id, attempt) pair gets
// its own stream, so concurrent scheduling cannot reorder the randomness.
uint64_t HashId(const std::string& id) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : id) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

double UnitDraw(uint64_t* state) {
  *state = Mix64(*state);
  return static_cast<double>(*state >> 11) /
         static_cast<double>(1ull << 53);
}

std::string SanitizeId(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (char c : id) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    out.push_back(keep ? c : '_');
  }
  return out.empty() ? "request" : out;
}

bool PermanentExitCode(int code) {
  return code == kWorkerExitParseError || code == kWorkerExitBadRequest;
}

struct Job {
  EvalRequest request;
  uint64_t ticket = 0;
  bool done = false;
  bool running = false;
  bool degraded_phase = false;
  int exact_attempts = 0;     // exact attempts finished
  int degraded_attempts = 0;  // degraded attempts finished
  int attempt_number = 0;     // 1-based across both phases
  double ready_at = 0.0;
  double next_backoff_ms = 0.0;
  /// FormatRequestLine(request), the journal's idempotency key — cached
  /// so duplicate-id probes don't re-format on every frame.
  std::string canonical_line;
  RequestRow row;
};

struct Inflight {
  WorkerProcess proc;
  uint64_t ticket = 0;
  double started_at = 0.0;
  double last_beat = 0.0;
  AttemptRecord record;
  std::string kill_cause;  // set when the supervisor decided the death
};

}  // namespace

/// The supervisor state machine, shared verbatim by the batch and
/// network front ends. Jobs live in a ticket-ordered map so launches
/// keep submission order (the old manifest order) while finished jobs
/// can be erased as soon as they are harvested.
class ServeEngine::Impl {
 public:
  explicit Impl(const ServeOptions& options) : options_(options) {
    SetUpWorkDir();
    OpenJournal();
  }

  ~Impl() {
    // WorkerProcess dtors kill and reap any child still running — the
    // engine never leaks a worker, even torn down mid-request.
    inflight_.clear();
    jobs_.clear();
    TearDownWorkDir();
  }

  double NowMs() const { return clock_.ElapsedMs(); }

  /// Parses and caches a program (verify mode) for witness re-checking
  /// and as the program workers evaluate (StartAttempt), so each program
  /// is parsed once. Parsing must happen *before* the first fork touching
  /// the program: worker children then inherit an interner with
  /// identical ids, so the supervisor's replayed instances serialize to
  /// the same bytes as the workers' and the digest cross-checks in
  /// CheckWitness are exact.
  void PreloadProgram(const std::string& path) {
    if (!options_.verify || programs_.count(path) > 0) return;
    std::string text;
    if (!ReadFileBytes(path, &text).ok()) return;
    ParseResult parsed = ParseProgram(text);
    if (parsed.ok) programs_.emplace(path, std::move(parsed.program));
  }

  uint64_t Submit(const EvalRequest& request) {
    const uint64_t ticket = SubmitJob(request, /*journal_admission=*/true);
    return ticket;
  }

  ServeEngine::CacheLookup LookupCompleted(const EvalRequest& request,
                                           RequestRow* row) {
    if (!journaling_) return ServeEngine::CacheLookup::kMiss;
    auto it = cache_.find(request.id);
    if (it == cache_.end()) return ServeEngine::CacheLookup::kMiss;
    Cached& cached = it->second;
    if (cached.request_line != FormatRequestLine(request)) {
      return ServeEngine::CacheLookup::kMismatch;
    }
    const bool has_answer = cached.state == TerminalState::kCompleted ||
                            cached.state == TerminalState::kDegraded;
    if (options_.verify && has_answer && !cached.verify_checked) {
      // Re-check the *persisted* witness before ever serving a journaled
      // answer: a corrupted or tampered cache entry is recomputed, not
      // replayed.
      PreloadProgram(request.program_path);
      WorkerResult result;
      std::string reason = "cached-result-decode";
      VerifyOutcome outcome = VerifyOutcome::kRejected;
      if (DecodeWorkerResult(cached.worker_result, &result).ok()) {
        outcome = CheckWitness(request, result, &reason);
      }
      if (outcome == VerifyOutcome::kRejected) {
        ++journal_verify_rejections_;
        ++witness_rejections_;
        if (options_.verbose) {
          std::printf("serve: journal reject id=%s witness: %s\n",
                      request.id.c_str(), reason.c_str());
        }
        cache_.erase(it);
        return ServeEngine::CacheLookup::kMiss;
      }
      cached.verify_checked = true;
      cached.verify_outcome = outcome;
      cached.verify_reason = reason;
    }
    row->id = request.id;
    row->kind = request.kind;
    row->state = cached.state;
    row->replayed_line = cached.line;
    row->verify_outcome = cached.verify_outcome;
    row->verify_reason = cached.verify_reason;
    if (!cached.worker_result.empty()) {
      DecodeWorkerResult(cached.worker_result, &row->result);
    }
    ++journal_hits_;
    return ServeEngine::CacheLookup::kHit;
  }

  uint64_t FindInflight(const EvalRequest& request, bool* mismatch) {
    *mismatch = false;
    if (!journaling_) return 0;
    auto it = ticket_by_id_.find(request.id);
    if (it == ticket_by_id_.end()) return 0;
    auto job_it = jobs_.find(it->second);
    if (job_it == jobs_.end()) return 0;
    if (job_it->second.canonical_line != FormatRequestLine(request)) {
      *mismatch = true;
      return 0;
    }
    return it->second;
  }

  void FlushJournal() {
    if (journaling_ && journal_.open()) journal_.Sync();
  }

  ServeEngine::JournalInfo journal_info() const {
    ServeEngine::JournalInfo info;
    info.enabled = journaling_;
    info.failed = journal_.stats().failed;
    info.recovered_completed = recovered_completed_;
    info.recovered_inflight = recovered_inflight_;
    info.torn_bytes = recovered_torn_bytes_;
    info.hits = journal_hits_;
    info.verify_rejections = journal_verify_rejections_;
    return info;
  }

  bool Pump(std::vector<Finished>* finished) {
    const double now = clock_.ElapsedMs();
    LaunchReady(now);
    const bool progressed = PollInflight(now);
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      if (!it->second.done) {
        ++it;
        continue;
      }
      it->second.row.total_ms = now;
      finished->push_back(Finished{it->first, std::move(it->second.row)});
      it = jobs_.erase(it);
    }
    return progressed;
  }

  bool Idle() const { return jobs_.empty(); }
  size_t ActiveJobs() const { return jobs_.size(); }
  size_t InflightWorkers() const { return inflight_.size(); }
  size_t witness_rejections() const { return witness_rejections_; }

 private:
  void SetUpWorkDir() {
    if (!options_.work_dir.empty()) {
      work_dir_ = options_.work_dir;
      std::error_code ec;
      std::filesystem::create_directories(work_dir_, ec);
      return;
    }
    if (!options_.journal_dir.empty()) {
      // Durable serving: checkpoints must survive the daemon the same
      // way the journal does, or an in-flight request recovered from the
      // journal would restart its evaluation from round 0.
      work_dir_ = options_.journal_dir + "/work";
      std::error_code ec;
      std::filesystem::create_directories(work_dir_, ec);
      return;
    }
    const char* tmpdir = ::getenv("TMPDIR");
    std::string templ = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                        "/gqe-serve-XXXXXX";
    std::vector<char> buffer(templ.begin(), templ.end());
    buffer.push_back('\0');
    if (::mkdtemp(buffer.data()) != nullptr) {
      work_dir_ = buffer.data();
      owns_work_dir_ = true;
    }
    // On mkdtemp failure workers run without checkpoint dirs: retries
    // recompute from scratch — degraded crash recovery, not a crash.
  }

  void TearDownWorkDir() {
    if (owns_work_dir_ && !options_.keep_work_dir && !work_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(work_dir_, ec);
    }
  }

  /// Opens the write-ahead journal and replays it: completed requests
  /// populate the result cache (served without a worker from now on),
  /// unfinished ones are resubmitted with their ladder state restored.
  /// Journal trouble never takes serving down — it latches the journal
  /// into a diagnosed failed state and the daemon runs non-durably.
  void OpenJournal() {
    if (options_.journal_dir.empty()) return;
    JournalOptions jopts;
    jopts.segment_bytes = options_.journal_segment_bytes;
    jopts.fsync_each_record = options_.journal_fsync;
    JournalRecovery recovery;
    const SnapshotStatus status =
        journal_.Open(options_.journal_dir, jopts, &recovery);
    if (!status.ok()) {
      std::fprintf(stderr, "serve: journal disabled: %s\n",
                   status.message.c_str());
      journaling_ = false;
      return;
    }
    journaling_ = true;
    recovered_torn_bytes_ = recovery.torn_bytes;
    for (const JournalEntry& entry : recovery.entries) {
      if (entry.has_result) {
        Cached cached;
        cached.state = entry.state;
        cached.request_line = entry.request_line;
        cached.line = entry.result_line;
        cached.worker_result = entry.worker_result;
        cache_.emplace(entry.id, std::move(cached));
        ++recovered_completed_;
        continue;
      }
      // Admitted but unfinished when the previous daemon died: re-parse
      // the journaled canonical line (program paths were resolved before
      // admission, so no base dir applies) and resubmit without a second
      // ADMITTED record.
      Manifest manifest;
      std::string error;
      if (!ParseManifest(entry.request_line, "", &manifest, &error) ||
          manifest.requests.size() != 1) {
        std::fprintf(stderr,
                     "serve: journal entry id=%s does not re-parse (%s); "
                     "dropped\n",
                     entry.id.c_str(), error.c_str());
        continue;
      }
      const uint64_t ticket =
          SubmitJob(manifest.requests[0], /*journal_admission=*/false);
      Job& job = jobs_.at(ticket);
      job.exact_attempts = entry.exact_attempts;
      job.degraded_attempts = entry.degraded_attempts;
      job.attempt_number = entry.exact_attempts + entry.degraded_attempts;
      job.degraded_phase =
          options_.enable_degraded_ladder && options_.degraded_attempts > 0 &&
          job.exact_attempts >= options_.max_attempts;
      for (const JournalRecord& attempt : entry.attempt_records) {
        AttemptRecord record;
        record.attempt = static_cast<int>(attempt.attempt);
        record.degraded = attempt.degraded;
        record.cause = attempt.cause;
        job.row.attempts.push_back(std::move(record));
      }
      ++recovered_inflight_;
    }
    if (recovery.segments > 2) {
      // Shed rotated-away dead weight (superseded attempts of completed
      // requests) while we hold the full recovered state anyway.
      journal_.Compact(recovery.entries);
    }
    if (options_.verbose &&
        (recovered_completed_ + recovered_inflight_ > 0)) {
      std::printf(
          "serve: journal recovered %zu completed, %zu in-flight "
          "(%zu torn bytes truncated)\n",
          recovered_completed_, recovered_inflight_, recovery.torn_bytes);
    }
  }

  uint64_t SubmitJob(const EvalRequest& request, bool journal_admission) {
    PreloadProgram(request.program_path);
    const uint64_t ticket = next_ticket_++;
    Job& job = jobs_[ticket];
    job.request = request;
    job.ticket = ticket;
    job.row.manifest_index = static_cast<size_t>(ticket);
    job.row.id = request.id;
    job.row.kind = request.kind;
    if (journaling_) {
      job.canonical_line = FormatRequestLine(request);
      ticket_by_id_[request.id] = ticket;
      // Write-ahead: the admission is durable before the first fork, so
      // a daemon death at any later instant leaves a replayable record.
      if (journal_admission) {
        JournalWrite(journal_.AppendAdmitted(request.id, job.canonical_line));
      }
    }
    return ticket;
  }

  /// Journal append error policy: diagnose once, keep serving.
  void JournalWrite(const SnapshotStatus& status) {
    if (status.ok() || journal_warned_) return;
    journal_warned_ = true;
    std::fprintf(stderr, "serve: journal failed (now non-durable): %s\n",
                 status.message.c_str());
  }

  int MaxConcurrency() const {
    return options_.concurrency > 0 ? options_.concurrency : 1;
  }

  /// Draws the fault this attempt self-injects: a manifest fault pinned
  /// to this attempt wins; otherwise chaos rolls its per-(id, attempt)
  /// dice. Degraded attempts and (by default) the final exact attempt
  /// are spared — see ChaosConfig::spare_final_attempt.
  FaultSpec ResolveFault(const Job& job, bool* chaos_injected) {
    *chaos_injected = false;
    FaultSpec fault;
    if (job.degraded_phase) return fault;
    const int upcoming = job.exact_attempts + 1;
    const EvalRequest& request = job.request;
    if (request.fault.active() && request.fault.on_attempt == upcoming) {
      return request.fault;
    }
    const ChaosConfig& chaos = options_.chaos;
    if (!chaos.enabled()) return fault;
    if (chaos.spare_final_attempt && upcoming >= options_.max_attempts) {
      return fault;
    }
    uint64_t state = Mix64(chaos.seed ^ HashId(request.id) ^
                           (static_cast<uint64_t>(upcoming) << 32));
    const double roll = UnitDraw(&state);
    if (roll < chaos.kill_p) {
      fault.type = FaultSpec::Type::kKill;
    } else if (roll < chaos.kill_p + chaos.stall_p) {
      fault.type = FaultSpec::Type::kStall;
    } else if (roll < chaos.kill_p + chaos.stall_p + chaos.oom_p) {
      fault.type = FaultSpec::Type::kOom;
    } else {
      return fault;
    }
    const uint64_t max_ckpt = chaos.max_checkpoint > 0 ? chaos.max_checkpoint
                                                       : 1;
    fault.at_checkpoint =
        1 + (Mix64(state) % max_ckpt);
    *chaos_injected = true;
    return fault;
  }

  ExecutionBudget DegradedBudget(const ExecutionBudget& base) const {
    ExecutionBudget budget = base;
    if (budget.max_facts == 0 || budget.max_facts > kDegradedMaxFacts) {
      budget.max_facts = kDegradedMaxFacts;
    }
    if (budget.max_search_nodes == 0 ||
        budget.max_search_nodes > kDegradedMaxNodes) {
      budget.max_search_nodes = kDegradedMaxNodes;
    }
    if (budget.deadline_ms == 0 || budget.deadline_ms > kDegradedDeadlineMs) {
      budget.deadline_ms = kDegradedDeadlineMs;
    }
    return budget;
  }

  void LaunchReady(double now) {
    for (auto& [ticket, job] : jobs_) {
      if (static_cast<int>(inflight_.size()) >= MaxConcurrency()) return;
      if (job.done || job.running || job.ready_at > now) continue;
      StartAttempt(job, now);
    }
  }

  void StartAttempt(Job& job, double now) {
    ++job.attempt_number;

    WorkerInvocation invocation;
    invocation.request = job.request;
    invocation.attempt = job.attempt_number;
    invocation.degraded = job.degraded_phase;
    invocation.heartbeat_interval_ms = options_.heartbeat_interval_ms;
    invocation.collect_witness = options_.verify;
    // Verify mode: the worker evaluates the supervisor's own parse (map
    // nodes never move, and the child reads its copy-on-write image).
    // Elsewhere programs_ is empty and the worker parses the file itself.
    auto program_it = programs_.find(job.request.program_path);
    if (program_it != programs_.end()) {
      invocation.program = &program_it->second;
    }
    if (!work_dir_.empty()) {
      invocation.checkpoint_dir =
          work_dir_ + "/" + SanitizeId(job.request.id);
    }
    if (job.degraded_phase) {
      invocation.request.budget = DegradedBudget(job.request.budget);
    }
    bool chaos_injected = false;
    invocation.fault = ResolveFault(job, &chaos_injected);

    WorkerLimits limits;
    if (invocation.request.budget.deadline_ms > 0) {
      // CPU rlimit backs up the in-process deadline: generous headroom
      // (4x + 1s) so it only fires when the governor failed to.
      limits.cpu_seconds =
          invocation.request.budget.deadline_ms / 1000.0 * 4.0 + 1.0;
    }
    limits.address_space_bytes = invocation.request.address_space_mb << 20;

    Inflight flight;
    flight.ticket = job.ticket;
    flight.started_at = now;
    flight.last_beat = now;
    flight.record.attempt = job.attempt_number;
    flight.record.degraded = job.degraded_phase;
    flight.record.chaos = chaos_injected;
    flight.record.backoff_ms = job.next_backoff_ms;
    job.next_backoff_ms = 0.0;

    std::string error;
    const bool spawned = WorkerProcess::Spawn(
        limits,
        [invocation](int result_fd, int heartbeat_fd) {
          return RunWorkerInProcess(invocation, result_fd, heartbeat_fd);
        },
        &flight.proc, &error);
    if (options_.verbose) {
      std::printf("serve: start id=%s attempt=%d%s%s\n",
                  job.request.id.c_str(), job.attempt_number,
                  job.degraded_phase ? " (degraded)" : "",
                  chaos_injected ? " (chaos)" : "");
    }
    if (!spawned) {
      flight.record.cause = "spawn-error";
      flight.record.ms = 0.0;
      job.row.attempts.push_back(flight.record);
      FinishAttempt(job, flight.record.cause, /*permanent=*/false, nullptr,
                    now);
      return;
    }
    job.running = true;
    inflight_.push_back(std::move(flight));
  }

  bool PollInflight(double now) {
    bool progressed = false;
    for (size_t i = 0; i < inflight_.size();) {
      Inflight& flight = inflight_[i];
      if (flight.proc.DrainHeartbeats() > 0) flight.last_beat = now;
      flight.proc.DrainResult();

      if (flight.proc.Poll()) {
        progressed = true;
        HandleExit(flight, now);
        inflight_[i] = std::move(inflight_.back());
        inflight_.pop_back();
        continue;
      }
      if (flight.kill_cause.empty()) {
        if (options_.heartbeat_timeout_ms > 0 &&
            now - flight.last_beat > options_.heartbeat_timeout_ms) {
          flight.kill_cause = "heartbeat-timeout";
          flight.proc.Kill(SIGKILL);
        } else if (options_.wall_timeout_ms > 0 &&
                   now - flight.started_at > options_.wall_timeout_ms) {
          flight.kill_cause = "wall-timeout";
          flight.proc.Kill(SIGKILL);
        }
      }
      ++i;
    }
    return progressed;
  }

  void HandleExit(Inflight& flight, double now) {
    Job& job = jobs_.at(flight.ticket);
    job.running = false;
    flight.record.ms = now - flight.started_at;

    const WorkerExit& exit = flight.proc.exit_status();
    std::string cause;
    bool permanent = false;
    WorkerResult decoded;
    const WorkerResult* result = nullptr;

    if (exit.exited && exit.exit_code == kWorkerExitOk) {
      const SnapshotStatus status =
          DecodeWorkerResult(flight.proc.result_bytes(), &decoded);
      if (status.ok()) {
        cause = "ok";
        result = &decoded;
        if (options_.verify) {
          std::string reason;
          const VerifyOutcome outcome =
              CheckWitness(job.request, decoded, &reason);
          if (outcome == VerifyOutcome::kRejected) {
            // The certificate failed a check: discard the result and walk
            // the normal retry/degradation ladder.
            cause = "bad-witness";
            result = nullptr;
            ++witness_rejections_;
            if (options_.verbose) {
              std::printf("serve: reject id=%s attempt=%d witness: %s\n",
                          job.request.id.c_str(), flight.record.attempt,
                          reason.c_str());
            }
          } else {
            job.row.verify_outcome = outcome;
            job.row.verify_reason = reason;
          }
        }
      } else {
        cause = "bad-result";
      }
    } else if (exit.exited) {
      cause = WorkerExitCodeName(exit.exit_code);
      if (std::strcmp(cause.c_str(), "exit") == 0) {
        cause = "exit:" + std::to_string(exit.exit_code);
      }
      permanent = PermanentExitCode(exit.exit_code);
    } else if (exit.signaled) {
      cause = !flight.kill_cause.empty() ? flight.kill_cause
                                         : SignalCauseName(exit.term_signal);
    } else {
      cause = "unknown-exit";
    }

    flight.record.cause = cause;
    job.row.attempts.push_back(flight.record);
    if (options_.verbose) {
      std::printf("serve: end id=%s attempt=%d cause=%s (%.1f ms)\n",
                  job.request.id.c_str(), flight.record.attempt,
                  cause.c_str(), flight.record.ms);
    }
    FinishAttempt(job, cause, permanent, result, now);
  }

  /// One finished attempt: journal it, walk the retry/degradation
  /// ladder, and if the request just reached a terminal state journal
  /// the result (the exact line a client will ever see for this id,
  /// written before any client can see it) and prime the result cache.
  void FinishAttempt(Job& job, const std::string& cause, bool permanent,
                     const WorkerResult* result, double now) {
    if (journaling_) {
      JournalWrite(journal_.AppendAttempt(
          job.request.id, static_cast<uint32_t>(job.attempt_number),
          job.degraded_phase, cause));
    }
    FinishAttemptLadder(job, cause, permanent, result, now);
    if (!job.done || !journaling_) return;
    std::string line;
    AppendResultLine(job.row, &line);
    const bool has_answer = job.row.state == TerminalState::kCompleted ||
                            job.row.state == TerminalState::kDegraded;
    const std::string encoded =
        has_answer ? EncodeWorkerResult(job.row.result) : std::string();
    JournalWrite(
        journal_.AppendResult(job.request.id, job.row.state, line, encoded));
    Cached cached;
    cached.state = job.row.state;
    cached.request_line = job.canonical_line;
    cached.line = line;
    cached.worker_result = encoded;
    // This run already verified (or rejected) the live result; don't
    // re-check the same witness on the first duplicate hit.
    cached.verify_checked = options_.verify;
    cached.verify_outcome = job.row.verify_outcome;
    cached.verify_reason = job.row.verify_reason;
    cache_[job.request.id] = std::move(cached);
    ticket_by_id_.erase(job.request.id);
  }

  /// Walks the containment ladder: success -> terminal; retry budget
  /// left -> exponential backoff + jitter; exact budget exhausted ->
  /// degraded phase; everything exhausted -> structured FAILED row.
  void FinishAttemptLadder(Job& job, const std::string& cause, bool permanent,
                           const WorkerResult* result, double now) {
    if (job.degraded_phase) {
      ++job.degraded_attempts;
    } else {
      ++job.exact_attempts;
    }

    if (result != nullptr) {
      job.done = true;
      job.row.state = job.degraded_phase ? TerminalState::kDegraded
                                         : TerminalState::kCompleted;
      job.row.result = *result;
      return;
    }
    if (permanent) {
      job.done = true;
      job.row.state = TerminalState::kFailed;
      job.row.failure_cause = cause;
      return;
    }

    const bool exact_left =
        !job.degraded_phase && job.exact_attempts < options_.max_attempts;
    const bool can_degrade =
        options_.enable_degraded_ladder && options_.degraded_attempts > 0 &&
        (!job.degraded_phase ||
         job.degraded_attempts < options_.degraded_attempts);

    if (!exact_left && !job.degraded_phase) {
      if (!can_degrade) {
        job.done = true;
        job.row.state = TerminalState::kFailed;
        job.row.failure_cause = cause;
        return;
      }
      job.degraded_phase = true;
    } else if (job.degraded_phase &&
               job.degraded_attempts >= options_.degraded_attempts) {
      job.done = true;
      job.row.state = TerminalState::kFailed;
      job.row.failure_cause = cause;
      return;
    }

    // Exponential backoff with deterministic jitter in [0.5, 1.5)
    // (shared with the shard coordinator via base/subprocess.h).
    const int phase_attempts = job.degraded_phase ? job.degraded_attempts
                                                  : job.exact_attempts;
    const double delay = BackoffDelayMs(
        phase_attempts, options_.backoff_base_ms, options_.backoff_cap_ms,
        kJitterSeed,
        HashId(job.request.id) ^
            (static_cast<uint64_t>(job.attempt_number) << 40));
    job.ready_at = now + delay;
    job.next_backoff_ms = delay;
    job.row.retry_wait_ms += delay;
  }

  /// Independently re-checks a worker's certificate against the
  /// supervisor's own parse of the program. kRejected means the result
  /// must be discarded (a check failed); kUnverified means the result
  /// stands but no full certificate was available; kVerified means every
  /// check — derivation replay, per-answer homomorphisms, and the digest
  /// cross-check binding the certificate to the reported answers —
  /// passed.
  VerifyOutcome CheckWitness(const EvalRequest& request,
                             const WorkerResult& result,
                             std::string* reason) {
    auto program_it = programs_.find(request.program_path);
    if (program_it == programs_.end()) {
      *reason = "program-unavailable";
      return VerifyOutcome::kUnverified;
    }
    const Program& program = program_it->second;
    if (result.witness.empty()) {
      // Workers in verify mode always attach a witness blob, even an
      // uncollected one; a missing blob is a protocol violation.
      *reason = "no-witness";
      return VerifyOutcome::kRejected;
    }
    EvalWitness witness;
    const SnapshotStatus status =
        DecodeEvalWitnessFromString(result.witness, &witness);
    if (!status.ok()) {
      *reason = "witness-decode: " + status.message;
      return VerifyOutcome::kRejected;
    }

    if (request.kind == RequestKind::kChase) {
      if (witness.kind != EvalWitness::Kind::kDerivation) {
        *reason = "wrong-witness-kind";
        return VerifyOutcome::kRejected;
      }
      if (!witness.derivation.collected) {
        *reason = "derivation-not-collected";
        return VerifyOutcome::kUnverified;
      }
      Instance replayed;
      DerivationCheckOptions check;
      check.check_model = true;
      const VerifyResult replay = VerifyDerivation(
          program.database, program.tgds, witness.derivation, &replayed,
          check);
      if (!replay.ok()) {
        *reason = std::string(VerifyCodeName(replay.code)) + ": " +
                  replay.reason;
        return VerifyOutcome::kRejected;
      }
      if (!witness.derivation.replay_exact) {
        // Budget-hit prefix: the logged steps replayed cleanly but the
        // final instance is not fully covered by the log.
        *reason = "inexact-derivation";
        return VerifyOutcome::kUnverified;
      }
      if (replayed.size() != result.facts) {
        *reason = "replay disagrees with reported fact count";
        return VerifyOutcome::kRejected;
      }
      BinaryWriter writer;
      EncodeInstance(replayed, &writer);
      if (Crc32(writer.buffer()) != result.answer_crc) {
        *reason = "replay disagrees with reported instance digest";
        return VerifyOutcome::kRejected;
      }
      return VerifyOutcome::kVerified;
    }

    // Query kinds: the homomorphisms target either the database itself
    // or an instance the witness's derivation log reconstructs.
    if (witness.kind == EvalWitness::Kind::kNone) {
      *reason = "wrong-witness-kind";
      return VerifyOutcome::kRejected;
    }
    Instance replayed;
    const Instance* target = &program.database;
    if (witness.kind == EvalWitness::Kind::kChaseAndAnswers) {
      if (!witness.derivation.collected) {
        *reason = "derivation-not-collected";
        return VerifyOutcome::kUnverified;
      }
      const VerifyResult replay = VerifyDerivation(
          program.database, program.tgds, witness.derivation, &replayed);
      if (!replay.ok()) {
        *reason = std::string(VerifyCodeName(replay.code)) + ": " +
                  replay.reason;
        return VerifyOutcome::kRejected;
      }
      if (!witness.derivation.replay_exact) {
        *reason = "inexact-derivation";
        return VerifyOutcome::kUnverified;
      }
      target = &replayed;
    }
    if (!witness.certified) {
      // e.g. a guarded certification that hit its deepening cap, or a
      // multi-query request mixing chase-backed engines.
      *reason = "uncertified";
      return VerifyOutcome::kUnverified;
    }
    // Re-check each answer's homomorphism atom-by-atom and rebuild the
    // worker's digest from the certificate alone: matching CRCs bind the
    // emitted result line to independently checked answers.
    std::string digest;
    uint64_t count = 0;
    for (const HomWitness& hom : witness.answers) {
      auto query_it = program.queries.find(hom.query);
      if (query_it == program.queries.end()) {
        *reason = "witness names unknown query '" + hom.query + "'";
        return VerifyOutcome::kRejected;
      }
      const VerifyResult check = VerifyHomomorphism(query_it->second, *target,
                                                    hom);
      if (!check.ok()) {
        *reason = std::string(VerifyCodeName(check.code)) + ": " +
                  check.reason;
        return VerifyOutcome::kRejected;
      }
      digest.append(hom.query);
      digest.push_back('(');
      for (size_t i = 0; i < hom.answer.size(); ++i) {
        if (i > 0) digest.append(", ");
        digest.append(hom.answer[i].ToString());
      }
      digest.append(")\n");
      ++count;
    }
    if (count != result.answer_count) {
      *reason = "witness count disagrees with reported answer count";
      return VerifyOutcome::kRejected;
    }
    if (Crc32(digest) != result.answer_crc) {
      *reason = "witness digest disagrees with reported answer digest";
      return VerifyOutcome::kRejected;
    }
    return VerifyOutcome::kVerified;
  }

  /// One journal-replayable terminal result: everything a duplicate or
  /// resent request id is served from, without a worker.
  struct Cached {
    TerminalState state = TerminalState::kFailed;
    std::string request_line;   // canonical admission line (idempotency key)
    std::string line;           // verbatim recorded "result:" line
    std::string worker_result;  // encoded WorkerResult (carries the witness)
    bool verify_checked = false;
    VerifyOutcome verify_outcome = VerifyOutcome::kNotChecked;
    std::string verify_reason;
  };

  const ServeOptions options_;
  std::map<uint64_t, Job> jobs_;  // ticket order = submission order
  uint64_t next_ticket_ = 1;
  std::vector<Inflight> inflight_;
  Stopwatch clock_;
  std::string work_dir_;
  bool owns_work_dir_ = false;
  std::map<std::string, Program> programs_;
  size_t witness_rejections_ = 0;

  RequestJournal journal_;
  bool journaling_ = false;
  bool journal_warned_ = false;
  std::map<std::string, Cached> cache_;         // id -> recorded result
  std::map<std::string, uint64_t> ticket_by_id_;  // in-flight ids
  size_t recovered_completed_ = 0;
  size_t recovered_inflight_ = 0;
  size_t recovered_torn_bytes_ = 0;
  size_t journal_hits_ = 0;
  size_t journal_verify_rejections_ = 0;
};

ServeEngine::ServeEngine(const ServeOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

ServeEngine::~ServeEngine() = default;

double ServeEngine::NowMs() const { return impl_->NowMs(); }

void ServeEngine::PreloadProgram(const std::string& path) {
  impl_->PreloadProgram(path);
}

uint64_t ServeEngine::Submit(const EvalRequest& request) {
  return impl_->Submit(request);
}

bool ServeEngine::Pump(std::vector<Finished>* finished) {
  return impl_->Pump(finished);
}

bool ServeEngine::Idle() const { return impl_->Idle(); }

size_t ServeEngine::ActiveJobs() const { return impl_->ActiveJobs(); }

size_t ServeEngine::InflightWorkers() const {
  return impl_->InflightWorkers();
}

size_t ServeEngine::witness_rejections() const {
  return impl_->witness_rejections();
}

ServeEngine::CacheLookup ServeEngine::LookupCompleted(
    const EvalRequest& request, RequestRow* row) {
  return impl_->LookupCompleted(request, row);
}

uint64_t ServeEngine::FindInflight(const EvalRequest& request,
                                   bool* mismatch) {
  return impl_->FindInflight(request, mismatch);
}

void ServeEngine::FlushJournal() { impl_->FlushJournal(); }

ServeEngine::JournalInfo ServeEngine::journal_info() const {
  return impl_->journal_info();
}

const char* TerminalStateName(TerminalState state) {
  switch (state) {
    case TerminalState::kCompleted:
      return "completed";
    case TerminalState::kDegraded:
      return "degraded";
    case TerminalState::kFailed:
      return "failed";
    case TerminalState::kShed:
      return "shed";
  }
  return "unknown";
}

bool ParseChaosSpec(std::string_view spec, ChaosConfig* config,
                    std::string* error) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view field = spec.substr(pos, end - pos);
    pos = end + 1;
    if (field.empty()) continue;
    const size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) {
        *error = "chaos field '" + std::string(field) + "' is not key=value";
      }
      return false;
    }
    const std::string key(field.substr(0, eq));
    const std::string value(field.substr(eq + 1));
    char* parse_end = nullptr;
    const double p = std::strtod(value.c_str(), &parse_end);
    const bool numeric = parse_end != nullptr && *parse_end == '\0';
    if (key == "kill" && numeric && p >= 0 && p <= 1) {
      config->kill_p = p;
    } else if (key == "oom" && numeric && p >= 0 && p <= 1) {
      config->oom_p = p;
    } else if (key == "stall" && numeric && p >= 0 && p <= 1) {
      config->stall_p = p;
    } else if (key == "seed" && numeric && p >= 0) {
      config->seed = static_cast<uint64_t>(p);
    } else if (key == "ckpt" && numeric && p >= 1) {
      config->max_checkpoint = static_cast<uint64_t>(p);
    } else {
      if (error != nullptr) {
        *error = "bad chaos field '" + std::string(field) +
                 "' (want kill|oom|stall=probability, seed=N or ckpt=N)";
      }
      return false;
    }
  }
  return true;
}

void AppendResultLine(const RequestRow& row, std::string* out) {
  if (!row.replayed_line.empty()) {
    // Journal replay: byte-for-byte the line recorded when the request
    // first completed, possibly in a previous daemon process.
    *out += row.replayed_line;
    return;
  }
  char buffer[256];
  *out += "result: id=" + row.id +
          " kind=" + std::string(RequestKindName(row.kind)) +
          " state=" + TerminalStateName(row.state);
  if (row.state == TerminalState::kFailed ||
      row.state == TerminalState::kShed) {
    *out += " cause=" + row.failure_cause;
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  " status=%s exact=%s method=%s answers=%llu crc=%08x "
                  "facts=%llu rounds=%llu",
                  StatusName(row.result.status),
                  row.result.exact ? "yes" : "no",
                  row.result.method.c_str(),
                  static_cast<unsigned long long>(row.result.answer_count),
                  row.result.answer_crc,
                  static_cast<unsigned long long>(row.result.facts),
                  static_cast<unsigned long long>(
                      row.result.rounds_completed));
    *out += buffer;
    // Fault-invariant by design: a resumed retry restores the witness
    // log from the snapshot, so chaos and fault-free runs of the same
    // manifest verify identically.
    if (row.verify_outcome != VerifyOutcome::kNotChecked) {
      *out += " verified=";
      *out += row.verify_outcome == VerifyOutcome::kVerified ? "yes" : "no";
    }
  }
  *out += '\n';
}

std::string ServeReport::DeterministicText() const {
  std::string out;
  for (const RequestRow& row : rows) AppendResultLine(row, &out);
  return out;
}

void ServeReport::PrintOps(const std::string& title) const {
  // New columns append at the end: the chaos smoke greps this table by
  // column position.
  ReportTable table({"id", "kind", "state", "attempts", "causes",
                     "resumed gen", "rounds", "eval ms", "retry wait ms",
                     "verify"});
  for (const RequestRow& row : rows) {
    std::string causes;
    for (const AttemptRecord& attempt : row.attempts) {
      if (!causes.empty()) causes += ",";
      causes += attempt.cause;
      if (attempt.chaos) causes += "*";
    }
    if (causes.empty()) causes = "-";
    table.AddRow({row.id, RequestKindName(row.kind),
                  TerminalStateName(row.state),
                  ReportTable::Cell(row.attempts.size()), causes,
                  row.result.resumed
                      ? ReportTable::Cell(
                            static_cast<size_t>(row.result.resume_generation))
                      : std::string("-"),
                  ReportTable::Cell(
                      static_cast<size_t>(row.result.rounds_completed)),
                  ReportTable::Cell(row.result.eval_ms),
                  ReportTable::Cell(row.retry_wait_ms),
                  row.verify_outcome == VerifyOutcome::kNotChecked
                      ? std::string("-")
                      : std::string(VerifyOutcomeName(row.verify_outcome))});
  }
  table.Print(title);
  std::printf(
      "serve: %zu completed, %zu degraded, %zu failed, %zu shed "
      "in %.1f ms (chaos marked *)\n",
      completed, degraded, failed, shed, wall_ms);
  if (verified + unverified + witness_rejections > 0) {
    std::printf(
        "serve: verify: %zu verified, %zu unverified, "
        "%zu witness rejections\n",
        verified, unverified, witness_rejections);
  }
}

ServeReport ServeManifest(const Manifest& manifest,
                          const ServeOptions& options) {
  ServeEngine engine(options);
  const size_t n = manifest.requests.size();
  std::vector<RequestRow> rows(n);

  // Verification parses every distinct program up front, in manifest
  // order, before the first fork (see ServeEngine::PreloadProgram).
  if (options.verify) {
    for (const EvalRequest& request : manifest.requests) {
      engine.PreloadProgram(request.program_path);
    }
  }

  // Admission control: the batch arrives at once; waiting requests past
  // queue_capacity are shed with a structured row, never silently
  // dropped and never allowed to grow the queue without bound.
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < n; ++i) {
    const EvalRequest& request = manifest.requests[i];
    if (options.queue_capacity > 0 && i >= options.queue_capacity) {
      rows[i].id = request.id;
      rows[i].kind = request.kind;
      rows[i].state = TerminalState::kShed;
      rows[i].failure_cause = "queue-full";
      continue;
    }
    // Durable serving: a request whose id already reached a terminal
    // state in the journal replays its recorded line without a worker;
    // one the previous daemon left in flight was already resubmitted on
    // recovery, so attach to that ticket instead of double-firing.
    switch (engine.LookupCompleted(request, &rows[i])) {
      case ServeEngine::CacheLookup::kHit:
        continue;
      case ServeEngine::CacheLookup::kMismatch:
        rows[i].id = request.id;
        rows[i].kind = request.kind;
        rows[i].state = TerminalState::kFailed;
        rows[i].failure_cause = "id-reuse-mismatch";
        continue;
      case ServeEngine::CacheLookup::kMiss:
        break;
    }
    bool mismatch = false;
    const uint64_t inflight = engine.FindInflight(request, &mismatch);
    if (mismatch) {
      rows[i].id = request.id;
      rows[i].kind = request.kind;
      rows[i].state = TerminalState::kFailed;
      rows[i].failure_cause = "id-reuse-mismatch";
      continue;
    }
    index_of[inflight != 0 ? inflight : engine.Submit(request)] = i;
  }

  std::vector<ServeEngine::Finished> finished;
  while (!engine.Idle()) {
    finished.clear();
    const bool progressed = engine.Pump(&finished);
    for (ServeEngine::Finished& f : finished) {
      // Recovered in-flight tickets the manifest does not mention still
      // run to a (journaled) terminal state; they just have no row here.
      auto it = index_of.find(f.ticket);
      if (it != index_of.end()) rows[it->second] = std::move(f.row);
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  engine.FlushJournal();

  ServeReport report;
  const double wall_ms = engine.NowMs();
  for (size_t i = 0; i < n; ++i) {
    RequestRow& row = rows[i];
    row.manifest_index = i;
    row.total_ms = wall_ms;
    switch (row.state) {
      case TerminalState::kCompleted:
        ++report.completed;
        break;
      case TerminalState::kDegraded:
        ++report.degraded;
        break;
      case TerminalState::kFailed:
        ++report.failed;
        break;
      case TerminalState::kShed:
        ++report.shed;
        break;
    }
    switch (row.verify_outcome) {
      case VerifyOutcome::kVerified:
        ++report.verified;
        break;
      case VerifyOutcome::kUnverified:
        ++report.unverified;
        break;
      default:
        break;
    }
    report.rows.push_back(std::move(row));
  }
  report.witness_rejections = engine.witness_rejections();
  report.wall_ms = engine.NowMs();
  return report;
}

}  // namespace gqe
