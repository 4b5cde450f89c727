#ifndef GQE_BASE_GOVERNOR_H_
#define GQE_BASE_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

namespace gqe {

/// Why a governed computation stopped. Every kernel this repo relies on
/// is worst-case intractable (the chase need not terminate, homomorphism
/// search is NP-hard, exact treewidth is exponential); a production
/// service must be able to say *which* guard rail stopped a run instead
/// of hanging or silently truncating.
enum class Status : int {
  /// The engine reached its natural end (fixpoint, full enumeration, …).
  kCompleted = 0,
  /// A fact or search-node budget was exhausted.
  kBudgetExceeded = 1,
  /// The wall-clock deadline passed.
  kDeadlineExceeded = 2,
  /// The CancelToken was tripped by another thread.
  kCancelled = 3,
  /// A sharded run lost a shard irrecoverably (retries exhausted, no
  /// fallback): the round was discarded and the committed prefix is the
  /// last consistent boundary — the structured degradation terminal of
  /// shard/storage_shard.h.
  kShardLost = 4,
};

const char* StatusName(Status status);

/// Snapshot of a governed run: the sticky status plus resource counters.
struct Outcome {
  Status status = Status::kCompleted;
  double elapsed_ms = 0.0;
  size_t facts_charged = 0;
  uint64_t nodes_charged = 0;
  uint64_t checkpoints = 0;

  bool ok() const { return status == Status::kCompleted; }
};

/// A copyable, thread-safe cooperative cancellation handle. The default
/// constructor makes a *null* token that can never be cancelled (so every
/// ExecutionBudget carries one for free); Create() makes a live token
/// whose copies share one flag.
class CancelToken {
 public:
  CancelToken() = default;

  static CancelToken Create();

  /// Requests cancellation. Safe from any thread; no-op on a null token.
  void RequestCancel() const;

  bool CancelRequested() const;

  bool valid() const { return flag_ != nullptr; }

  /// The raw shared flag, for async-signal-safe cancellation from signal
  /// handlers: storing to a lock-free std::atomic<bool> is signal-safe,
  /// while copying the token (a shared_ptr op) is not. The caller must
  /// keep a token copy alive for as long as a handler may dereference the
  /// pointer. Null for a null token.
  std::atomic<bool>* SignalSafeFlag() const { return flag_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Limits shared by every long-running engine. A zero field means
/// "unlimited" for that dimension. The single `kDefaultMaxFacts` replaces
/// the five divergent per-engine `max_facts` defaults the engines used to
/// carry (chase 1M, fc 50k, omq/guarded 5M); nested calls now share one
/// Governor instead of multiplying caps.
struct ExecutionBudget {
  static constexpr size_t kDefaultMaxFacts = 1000000;

  /// Total facts the computation may materialize (every insertion into an
  /// engine-owned instance is charged, including copying the input).
  size_t max_facts = kDefaultMaxFacts;

  /// Backtracking-search nodes (candidate facts tried) across all
  /// homomorphism searches and treewidth DP frames. 0 = unlimited.
  uint64_t max_search_nodes = 0;

  /// Wall-clock deadline, measured from Governor construction.
  /// 0 = no deadline.
  double deadline_ms = 0.0;

  /// Cooperative cancellation; null by default.
  CancelToken cancel;
};

/// Deterministic fault injection for tests: trips `status` as soon as the
/// governor's global checkpoint counter reaches `at_checkpoint`.
/// Checkpoint counts are deterministic for a fixed workload (each engine
/// charges a fixed amount of work per checkpoint), so the trip lands at
/// the same logical point on every run.
class TestFaultInjector {
 public:
  TestFaultInjector(Status status, uint64_t at_checkpoint)
      : status_(status), at_checkpoint_(at_checkpoint) {}

  Status status() const { return status_; }
  uint64_t at_checkpoint() const { return at_checkpoint_; }

 private:
  Status status_;
  uint64_t at_checkpoint_;
};

/// Thread-safe resource governor: engines call the Charge*/Check
/// checkpoints at every round / backtrack node batch / fact insertion,
/// and unwind promptly once the status turns non-Completed. The status is
/// *sticky*: after the first trip every further checkpoint reports the
/// same cause, so a governor shared across nested engines (OMQ → guarded
/// chase → homomorphism search) stops the whole pipeline.
class Governor {
 public:
  explicit Governor(const ExecutionBudget& budget,
                    const TestFaultInjector* injector = nullptr);

  /// Cooperative checkpoint: probes cancellation, the deadline and the
  /// fault injector. Call at least once per engine round.
  Status Check() { return Charge(0, 0); }

  /// Accounts `n` search nodes (batch-charged by the searchers), then
  /// checkpoints.
  Status ChargeNodes(uint64_t n) { return Charge(n, 0); }

  /// Accounts `n` fact insertions, then checkpoints. When this returns
  /// kBudgetExceeded the caller must not perform the insertion.
  Status ChargeFacts(size_t n) { return Charge(0, n); }

  /// Current sticky status without consuming a checkpoint. Cheap (one
  /// relaxed atomic load); safe to call per backtrack node.
  Status status() const {
    return static_cast<Status>(status_.load(std::memory_order_relaxed));
  }

  bool Tripped() const { return status() != Status::kCompleted; }

  /// Forces the governor into `cause` (idempotent; the first trip wins).
  void Trip(Status cause);

  /// Snapshot of counters + status for result structs.
  Outcome MakeOutcome() const;

  const ExecutionBudget& budget() const { return budget_; }

  /// How many search nodes a searcher should accumulate locally before
  /// calling ChargeNodes. Under a fault injector this is 1, so checkpoint
  /// counts equal node counts (the injected trip lands at the same
  /// logical point on every run); otherwise kNodeBatch keeps the shared
  /// counters out of the hot loop.
  uint64_t NodeChargeBatch() const { return injector_ != nullptr ? 1 : kNodeBatch; }

  static constexpr uint64_t kNodeBatch = 64;

 private:
  Status Charge(uint64_t nodes, size_t facts);

  ExecutionBudget budget_;
  const TestFaultInjector* injector_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point deadline_;
  bool has_deadline_ = false;

  std::atomic<int> status_{static_cast<int>(Status::kCompleted)};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> nodes_{0};
  std::atomic<uint64_t> facts_{0};
};

/// Engines accept an optional shared `Governor*` in their options; when
/// none is given they govern themselves from the options' budget. This
/// helper owns the local governor in that second case.
class GovernorScope {
 public:
  GovernorScope(Governor* shared, const ExecutionBudget& budget,
                const TestFaultInjector* injector = nullptr) {
    if (shared != nullptr) {
      governor_ = shared;
    } else {
      local_.emplace(budget, injector);
      governor_ = &*local_;
    }
  }

  Governor* get() { return governor_; }
  Governor* operator->() { return governor_; }

 private:
  std::optional<Governor> local_;
  Governor* governor_ = nullptr;
};

}  // namespace gqe

#endif  // GQE_BASE_GOVERNOR_H_
