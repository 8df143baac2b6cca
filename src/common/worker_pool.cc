#include "common/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "common/lock_rank.h"
#include "common/thread_io.h"
#include "obs/metrics.h"

namespace xbench {

namespace {

/// Address identity of the `exec.morsel` pseudo-lock. Every task body on
/// every lane notes the same pseudo-lock, so the enforcer flags any
/// engine-level (lower-ranked) acquisition inside a task.
const int kMorselLockTag = 0;

/// Rank-marks "inside a morsel task" for the duration of one morsel.
class MorselScope {
 public:
  MorselScope() {
    lockrank::NoteAcquire(&kMorselLockTag, LockRank::kMorselTask,
                          "exec.morsel");
  }
  ~MorselScope() { lockrank::NoteRelease(&kMorselLockTag); }
  MorselScope(const MorselScope&) = delete;
  MorselScope& operator=(const MorselScope&) = delete;
};

void AddIoDelta(ThreadIoCounters& out, const ThreadIoCounters& before,
                const ThreadIoCounters& after) {
  out.io_micros += after.io_micros - before.io_micros;
  out.pool_hits += after.pool_hits - before.pool_hits;
  out.pool_misses += after.pool_misses - before.pool_misses;
  out.pool_evictions += after.pool_evictions - before.pool_evictions;
  out.pool_writebacks += after.pool_writebacks - before.pool_writebacks;
  out.disk_page_reads += after.disk_page_reads - before.disk_page_reads;
  out.disk_page_writes += after.disk_page_writes - before.disk_page_writes;
  out.disk_bytes_read += after.disk_bytes_read - before.disk_bytes_read;
  out.disk_bytes_written += after.disk_bytes_written - before.disk_bytes_written;
}

int DefaultThreadCount() {
  if (const char* env = std::getenv("XBENCH_EXEC_WORKERS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return std::min(parsed, 64);
  }
  // At least 3 workers so a wide region is genuinely 4-lane concurrent
  // (caller + 3) even on small hosts — that concurrency is what the
  // TSAN smoke exercises.
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 3u, 16u));
}

}  // namespace

/// One published ParallelFor call. Lives on the caller's stack; workers
/// hold a pointer only while registered in `attached`, and the caller
/// waits for attached == 0 before returning, so the pointer can never
/// dangle.
struct WorkerPool::Region {
  size_t total = 0;
  size_t chunk_size = 1;
  size_t num_chunks = 0;
  const std::function<Status(size_t)>* fn = nullptr;
  /// Next chunk index to grab; ascending, so low indexes always start
  /// no later than high ones (this is what makes lowest-error-wins
  /// deterministic).
  std::atomic<size_t> next_chunk{0};
  /// Set on the first error; lanes stop grabbing new chunks.
  std::atomic<bool> cancelled{false};
  /// Per-chunk slots, each written by exactly the lane that ran the
  /// chunk (no synchronization needed; the detach handshake under the
  /// pool mutex publishes them to the caller).
  std::vector<signed char> chunk_ran;
  std::vector<Status> chunk_status;
  /// Workers currently draining this region (pool mutex).
  int attached = 0;
  /// Worker-side I/O performed inside this region (pool mutex);
  /// credited to the caller before ParallelFor returns.
  ThreadIoCounters worker_io;
};

WorkerPool& WorkerPool::Default() {
  static WorkerPool* pool = new WorkerPool(DefaultThreadCount());
  return *pool;
}

WorkerPool::WorkerPool(int threads) {
  obs::MetricsRegistry::Default()
      .GetGauge("xbench.exec.workers")
      .Set(static_cast<double>(std::max(threads, 0)));
  threads_.reserve(static_cast<size_t>(std::max(threads, 0)));
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

WorkerPool::~WorkerPool() {
  mu_.lock();
  stop_ = true;
  mu_.unlock();
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void WorkerPool::DrainRegion(Region& region) {
  while (!region.cancelled.load(std::memory_order_relaxed)) {
    const size_t chunk =
        region.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= region.num_chunks) break;
    const size_t begin = chunk * region.chunk_size;
    const size_t end = std::min(region.total, begin + region.chunk_size);
    Status status;
    {
      MorselScope morsel;
      for (size_t i = begin; i < end && status.ok(); ++i) {
        status = (*region.fn)(i);
      }
    }
    region.chunk_ran[chunk] = 1;
    if (!status.ok()) {
      region.chunk_status[chunk] = std::move(status);
      region.cancelled.store(true, std::memory_order_relaxed);
    }
  }
}

void WorkerPool::WorkerMain() {
  mu_.lock();
  while (!stop_) {
    Region* region = nullptr;
    for (Region* candidate : regions_) {
      if (!candidate->cancelled.load(std::memory_order_relaxed) &&
          candidate->next_chunk.load(std::memory_order_relaxed) <
              candidate->num_chunks) {
        region = candidate;
        break;
      }
    }
    if (region == nullptr) {
      work_cv_.wait(mu_);
      continue;
    }
    ++region->attached;
    mu_.unlock();
    const ThreadIoCounters before = ThisThreadIo();
    DrainRegion(*region);
    const ThreadIoCounters after = ThisThreadIo();
    mu_.lock();
    AddIoDelta(region->worker_io, before, after);
    --region->attached;
    done_cv_.notify_all();
  }
  mu_.unlock();
}

Status WorkerPool::ParallelFor(size_t total, int parallelism,
                               const std::function<Status(size_t)>& fn,
                               ParallelRunStats* stats) {
  if (stats != nullptr) *stats = ParallelRunStats{};
  if (total == 0) return Status::Ok();
  static obs::Counter& morsel_counter =
      obs::MetricsRegistry::Default().GetCounter("xbench.exec.morsels");
  static obs::Counter& region_counter =
      obs::MetricsRegistry::Default().GetCounter(
          "xbench.exec.parallel_regions");
  const int lanes = std::max(parallelism, 1);

  Region region;
  region.total = total;
  region.chunk_size =
      std::max<size_t>(1, total / (8 * static_cast<size_t>(lanes)));
  region.num_chunks =
      (total + region.chunk_size - 1) / region.chunk_size;
  region.fn = &fn;
  region.chunk_ran.assign(region.num_chunks, 0);
  region.chunk_status.assign(region.num_chunks, Status::Ok());

  const bool use_workers = lanes > 1 && !threads_.empty() && total > 1;
  if (use_workers) {
    {
      MutexLock lock(mu_);
      regions_.push_back(&region);
    }
    work_cv_.notify_all();
  }

  DrainRegion(region);

  if (use_workers) {
    mu_.lock();
    while (region.attached != 0) done_cv_.wait(mu_);
    for (auto it = regions_.begin(); it != regions_.end(); ++it) {
      if (*it == &region) {
        regions_.erase(it);
        break;
      }
    }
    mu_.unlock();
    // Credit worker-side I/O to the calling thread so a session's
    // before/after attribution delta stays exact under intra-query
    // parallelism (caller-side I/O was attributed normally).
    ThreadIoCounters& mine = ThisThreadIo();
    const ThreadIoCounters zero;
    AddIoDelta(mine, zero, region.worker_io);
  }

  const size_t ran = static_cast<size_t>(
      std::count(region.chunk_ran.begin(), region.chunk_ran.end(), 1));
  morsel_counter.Increment(ran);
  region_counter.Increment();
  if (stats != nullptr) stats->morsels = ran;
  for (size_t i = 0; i < region.num_chunks; ++i) {
    if (!region.chunk_status[i].ok()) return region.chunk_status[i];
  }
  return Status::Ok();
}

}  // namespace xbench
