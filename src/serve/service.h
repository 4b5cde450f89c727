#ifndef GQE_SERVE_SERVICE_H_
#define GQE_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/request.h"
#include "serve/worker.h"
#include "workload/report.h"

namespace gqe {

/// Chaos-injection configuration (`--chaos kill=p,oom=p,stall=p`): each
/// non-degraded attempt independently draws one fault with the given
/// probabilities from a deterministic per-(request, attempt) PRNG, so a
/// chaos run is reproducible bit-for-bit from its seed regardless of
/// scheduling order.
struct ChaosConfig {
  double kill_p = 0.0;
  double oom_p = 0.0;
  double stall_p = 0.0;
  uint64_t seed = 1;

  /// Injected kills/stalls fire at a random governor checkpoint in
  /// [1, max_checkpoint] — early enough to land mid-run on real work.
  uint64_t max_checkpoint = 4096;

  /// Never inject into a request's final exact attempt. This keeps chaos
  /// a test of the *containment* path, not the degradation path: with it,
  /// every request reaches the terminal state of a fault-free run (the
  /// soak criterion), even at kill probability 1.
  bool spare_final_attempt = true;

  bool enabled() const { return kill_p > 0 || oom_p > 0 || stall_p > 0; }
};

/// Parses "kill=0.3,oom=0.1,stall=0.1" (any subset, any order). Also
/// accepts "seed=N" and "ckpt=N" (max_checkpoint — match it to the
/// workload size so injected kills land mid-run instead of after it).
bool ParseChaosSpec(std::string_view spec, ChaosConfig* config,
                    std::string* error);

/// Daemon policy knobs.
struct ServeOptions {
  /// Workers running at once. The supervisor itself stays single-threaded
  /// (fork safety); concurrency comes from overlapping children.
  int concurrency = 4;

  /// Admission control: requests beyond this many waiting are shed with a
  /// structured row instead of queued without bound. 0 = unbounded.
  size_t queue_capacity = 0;

  /// Exact attempts per request before the degradation ladder.
  int max_attempts = 5;

  /// Exponential backoff between attempts: min(cap, base * 2^(n-1)),
  /// scaled by deterministic jitter in [0.5, 1.5) from a fixed seed.
  double backoff_base_ms = 25.0;
  double backoff_cap_ms = 1000.0;

  /// Worker liveness: the child heartbeats every `heartbeat_interval_ms`;
  /// missing beats for `heartbeat_timeout_ms` gets it SIGKILLed (this is
  /// what catches SIGSTOP stalls and livelocks). A non-zero
  /// `wall_timeout_ms` additionally caps each attempt's wall clock.
  double heartbeat_interval_ms = 20.0;
  double heartbeat_timeout_ms = 1500.0;
  double wall_timeout_ms = 0.0;

  /// Checkpoint root: each request gets <work_dir>/<id>/ so retries
  /// resume instead of recomputing. Empty = a fresh temp directory,
  /// removed when the report is done (unless keep_work_dir).
  std::string work_dir;
  bool keep_work_dir = false;

  ChaosConfig chaos;

  /// Graceful degradation after the exact retry budget: up to
  /// `degraded_attempts` runs under a tighter fixed budget (20000 facts,
  /// 500000 search nodes, 2 s; OMQ falls back to a level-3 bounded
  /// chase), answers flagged inexact, and only then a structured FAILED
  /// row.
  bool enable_degraded_ladder = true;
  int degraded_attempts = 2;

  /// Durable serving (--journal-dir): every admission, finished attempt
  /// and terminal result is appended to a write-ahead journal under this
  /// directory (serve/journal.h) *before* it becomes client-visible. On
  /// the next startup with the same directory, completed requests replay
  /// their recorded result lines byte-identically from the journal-backed
  /// cache (no worker fires), and admitted-but-unfinished requests are
  /// resubmitted with their retry-ladder state restored, resuming from
  /// their checkpoint dirs. Empty = no journal (the pre-PR-9 behavior).
  /// When set and work_dir is empty, checkpoints default to
  /// <journal_dir>/work so resume survives restarts too.
  std::string journal_dir;
  /// fsync the journal after every record (power-loss durability; plain
  /// process death never loses write()n records either way).
  bool journal_fsync = true;
  size_t journal_segment_bytes = 4 * 1024 * 1024;

  /// Per-attempt progress lines on stdout.
  bool verbose = false;

  /// Certified answers (--verify): workers collect a machine-checkable
  /// witness with every result, and the supervisor independently
  /// re-checks it — replaying chase derivation logs step-by-step and
  /// homomorphism certificates atom-by-atom against its *own* parse of
  /// the program — before emitting the result line. A result whose
  /// certificate fails a check is discarded ("bad-witness") and the
  /// attempt walks the normal retry/degradation ladder; a result with no
  /// full certificate (e.g. resumed from a pre-witness snapshot) is
  /// accepted but flagged unverified. The supervisor parses every
  /// distinct program up front, before the first fork, so worker
  /// children inherit an identical interner and digests stay comparable;
  /// the children evaluate that parse instead of re-reading the file.
  bool verify = false;
};

/// Terminal state of a request. Every admitted request ends in exactly
/// one of these — the daemon never drops a request on the floor.
enum class TerminalState : int {
  kCompleted = 0,  // exact evaluation succeeded
  kDegraded = 1,   // degraded-ladder answer (sound, flagged inexact)
  kFailed = 2,     // structured failure row with the worker's exit cause
  kShed = 3,       // rejected by admission control
};

const char* TerminalStateName(TerminalState state);

/// One worker attempt as the supervisor saw it.
struct AttemptRecord {
  int attempt = 1;
  bool degraded = false;
  /// "ok", "sigkill", "sigsegv", "cpu-limit", "oom", "heartbeat-timeout",
  /// "wall-timeout", "parse-error", "bad-request", "bad-result",
  /// "spawn-error", "exit:<code>" or "signal:<n>".
  std::string cause;
  /// True when the supervisor injected a chaos fault into this attempt.
  bool chaos = false;
  double ms = 0.0;
  /// Backoff waited before this attempt started.
  double backoff_ms = 0.0;
};

/// Final per-request row.
struct RequestRow {
  size_t manifest_index = 0;
  std::string id;
  RequestKind kind = RequestKind::kChase;
  TerminalState state = TerminalState::kFailed;
  /// Valid for kCompleted / kDegraded.
  WorkerResult result;
  /// Last attempt's cause for kFailed ("queue-full" for kShed).
  std::string failure_cause;
  std::vector<AttemptRecord> attempts;
  double total_ms = 0.0;
  double retry_wait_ms = 0.0;

  /// Supervisor-side witness check of the accepted result (kNotChecked
  /// unless ServeOptions::verify). `verify_reason` explains kUnverified.
  VerifyOutcome verify_outcome = VerifyOutcome::kNotChecked;
  std::string verify_reason;

  /// Journal replay: when nonempty, AppendResultLine emits exactly these
  /// bytes (the line recorded when the request first completed) instead
  /// of re-formatting the row — the byte-identity guarantee across
  /// daemon restarts reduces to string equality.
  std::string replayed_line;
};

struct ServeReport {
  std::vector<RequestRow> rows;  // manifest order
  size_t completed = 0;
  size_t degraded = 0;
  size_t failed = 0;
  size_t shed = 0;
  double wall_ms = 0.0;

  /// Verification tallies (--verify): results whose certificate was
  /// independently re-checked, results accepted without a full
  /// certificate, and attempts discarded for a failed check.
  size_t verified = 0;
  size_t unverified = 0;
  size_t witness_rejections = 0;

  /// One "result:" line per request, manifest order, containing only
  /// fault-invariant fields (terminal state, status, answer digest,
  /// counts — no attempts, no latency). A chaos run and a fault-free run
  /// of the same manifest produce bit-identical text; the chaos smoke
  /// diffs exactly this.
  std::string DeterministicText() const;

  /// Operational tables (attempts, causes, resume generations, latency,
  /// retry waits) via ReportTable — the part that legitimately differs
  /// under chaos.
  void PrintOps(const std::string& title) const;
};

/// Formats one request's deterministic "result:" line (trailing newline
/// included). Both ServeReport::DeterministicText and the network result
/// frames are built from exactly this function, which is what makes a
/// TCP-served answer byte-comparable against the file-manifest path.
void AppendResultLine(const RequestRow& row, std::string* out);

/// The retry/degradation supervisor behind both serving front ends,
/// exposed as an incremental engine: callers submit requests one at a
/// time and pump the scheduler from their own loop. ServeManifest drives
/// it to completion over a batch; the network server (net/server.h)
/// pumps it from the epoll loop as request frames arrive.
///
/// Single-threaded by contract: workers are forked without exec, which
/// is only safe while the process has one thread (see base/subprocess.h).
/// All methods must be called from the same thread.
class ServeEngine {
 public:
  explicit ServeEngine(const ServeOptions& options);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Milliseconds since the engine was built (the scheduler clock every
  /// deadline below is measured against).
  double NowMs() const;

  /// Parses and caches `path` (verify mode) for witness re-checking and
  /// as the program forked workers evaluate, so no worker re-parses it.
  /// Parsing must precede the first worker fork touching the program so
  /// children inherit an identical interner; Submit calls this itself,
  /// so explicit preloading is only an ordering optimization for batch
  /// callers. A file that fails to read or parse is not cached; workers
  /// then try it themselves and fail with parse-error.
  void PreloadProgram(const std::string& path);

  /// Accepts a request (copied) and returns its ticket. No admission
  /// control happens here — front ends shed *before* submitting, each
  /// with its own policy (batch: queue_capacity index cut; network:
  /// structured OVERLOADED frames).
  uint64_t Submit(const EvalRequest& request);

  struct Finished {
    uint64_t ticket = 0;
    RequestRow row;
  };

  /// One scheduler step: launches ready attempts (respecting
  /// concurrency and backoff), polls in-flight workers, classifies
  /// exits, and appends every request that reached a terminal state to
  /// `finished`. Returns true when a worker made observable progress —
  /// callers sleep (or epoll-wait) briefly when it returns false.
  bool Pump(std::vector<Finished>* finished);

  /// True when no submitted request is waiting or running.
  bool Idle() const;

  /// Requests submitted but not yet harvested through Pump.
  size_t ActiveJobs() const;

  /// Worker processes currently alive.
  size_t InflightWorkers() const;

  size_t witness_rejections() const;

  /// Journal-backed result cache lookup (idempotent replay). kHit fills
  /// `row` with the recorded terminal state and the verbatim recorded
  /// result line (row.replayed_line); under ServeOptions::verify the
  /// persisted witness is independently re-checked first, and a result
  /// whose certificate no longer verifies is dropped from the cache
  /// (kMiss — the caller resubmits and a fresh worker recomputes).
  /// kMismatch means the id was seen before with a *different* canonical
  /// request line — an id reuse, which front ends reject. Always kMiss
  /// when no journal is configured.
  enum class CacheLookup { kMiss, kHit, kMismatch };
  CacheLookup LookupCompleted(const EvalRequest& request, RequestRow* row);

  /// Ticket of the in-flight (admitted, not yet terminal) request with
  /// this id, or 0. Lets a front end attach a second waiter to the same
  /// evaluation — duplicate-id coalescing, which with the journal
  /// extends across restarts. `mismatch` is set instead when the id is
  /// in flight under a different canonical request line.
  uint64_t FindInflight(const EvalRequest& request, bool* mismatch);

  /// fsyncs the journal (graceful drain calls this before exit 0).
  void FlushJournal();

  /// Journal health and replay counters for stats lines and ops logs.
  struct JournalInfo {
    bool enabled = false;
    bool failed = false;
    size_t recovered_completed = 0;  // entries replayable from the cache
    size_t recovered_inflight = 0;   // entries resubmitted on startup
    size_t torn_bytes = 0;           // truncated off the tail on recovery
    size_t hits = 0;                 // requests served from the cache
    size_t verify_rejections = 0;    // cached results dropped by --verify
  };
  JournalInfo journal_info() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Runs every manifest request to a terminal state in fork-isolated
/// workers under the options' containment policy. Never throws for
/// worker-side trouble; the process running ServeManifest survives any
/// worker segfault, OOM kill, rlimit trip or stall.
ServeReport ServeManifest(const Manifest& manifest,
                          const ServeOptions& options);

}  // namespace gqe

#endif  // GQE_SERVE_SERVICE_H_
