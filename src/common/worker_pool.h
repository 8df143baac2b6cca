#ifndef XBENCH_COMMON_WORKER_POOL_H_
#define XBENCH_COMMON_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace xbench {

/// Accounting for one ParallelFor region.
struct ParallelRunStats {
  /// Morsels (index chunks) executed.
  size_t morsels = 0;
};

/// Fixed-size shared worker pool for morsel-driven intra-query
/// parallelism (DESIGN.md §12). One process-wide pool (Default()) is
/// shared by every concurrently executing query: ParallelFor callers
/// publish a region of index-addressed work, workers and the caller pull
/// morsels (index chunks) from a shared cursor until the region drains —
/// pulling from a shared cursor is what makes the morsels self-balancing
/// (a stalled lane simply takes fewer).
///
/// Concurrency contract for the work function: it runs on pool threads
/// and the caller concurrently, must only write state owned by its index,
/// and must not take engine-level locks. The second rule is enforced: the
/// pool marks every morsel with the `exec.morsel` pseudo-lock rank, so a
/// task body acquiring the collection/cache/plan locks aborts under the
/// lock-rank enforcer instead of deadlocking against the query's own
/// caller-held collection lock.
///
/// I/O attribution: simulated-disk and buffer-pool traffic performed by
/// pool workers inside a region is credited to the calling thread's
/// ThisThreadIo() before ParallelFor returns, so a session's before/after
/// I/O delta stays exact no matter which lane did the I/O.
class WorkerPool {
 public:
  /// The process-wide pool. Thread count is hardware_concurrency clamped
  /// to [3, 16], overridable with the XBENCH_EXEC_WORKERS environment
  /// variable; the instance leaks by design (workers live for the
  /// process, same pattern as MetricsRegistry).
  static WorkerPool& Default();

  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int thread_count() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(0) .. fn(total - 1) across up to `parallelism` lanes (the
  /// calling thread is one of them) and returns when every index has
  /// finished. Indexes are grabbed in ascending chunks, so low indexes
  /// always start no later than high ones. On errors the non-OK Status
  /// of the lowest failing index is returned (deterministic regardless
  /// of interleaving) and remaining morsels are cancelled. `stats`, when
  /// non-null, receives the region's morsel count.
  Status ParallelFor(size_t total, int parallelism,
                     const std::function<Status(size_t)>& fn,
                     ParallelRunStats* stats = nullptr);

 private:
  struct Region;

  void WorkerMain();
  /// Runs morsels of `region` until its cursor is exhausted (or an error
  /// cancelled it).
  static void DrainRegion(Region& region);

  Mutex mu_{LockRank::kWorkerPool, "worker.pool"};
  std::condition_variable_any work_cv_;
  std::condition_variable_any done_cv_;
  std::vector<Region*> regions_ XBENCH_GUARDED_BY(mu_);
  bool stop_ XBENCH_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace xbench

#endif  // XBENCH_COMMON_WORKER_POOL_H_
