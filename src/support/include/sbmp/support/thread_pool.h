#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sbmp {

/// Fixed-size thread pool over one FIFO queue.
///
/// Every `submit` appends to one mutex-guarded deque and wakes one
/// worker through one condition variable; workers take tasks from the
/// front. The pool's client, `parallel_for`, balances its work through
/// a per-call atomic index counter, so the queue only ever holds cheap
/// runner stubs and needs no per-worker deques or stealing.
///
/// The pool is a pure execution substrate: it imposes no ordering, and
/// callers that need deterministic results must aggregate by task index
/// (see `parallel_for`, which the parallel pipeline engine builds on).
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 uses default_thread_count().
  explicit ThreadPool(int threads = 0);
  /// Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker. Tasks must not throw;
  /// wrap throwing work (parallel_for does this for its bodies).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// std::thread::hardware_concurrency(), never less than 1.
  [[nodiscard]] static int default_thread_count();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;  ///< guards everything below
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> tasks_;
  std::int64_t pending_ = 0;  ///< submitted, not yet finished
  bool stop_ = false;
};

/// The process-wide shared pool, created lazily on first use with
/// default_thread_count() workers. Batch entry points (`compile`, the
/// bench grids, the sbmpd fan-out) all run on this one pool, so a
/// process pays thread-spawn cost once, ever — not once per batch. The
/// instance is intentionally never destroyed: its idle workers park on a
/// condition variable and die with the process, which sidesteps
/// static-destruction-order hazards for late parallel work at exit.
ThreadPool& shared_thread_pool();

/// Runs `body(i)` for every i in [begin, end) on `pool`, blocking until
/// all complete. Runners — up to one pool task per extra worker, plus
/// the calling thread — claim one index at a time from a shared atomic
/// counter, so load balances item by item and a loop is never slower
/// than running it inline. Bodies run concurrently in unspecified order
/// and every body runs even after another throws. Failures are aggregated after the loop drains:
/// exactly one failed index rethrows the original exception
/// (type-preserving); several throw one ParallelForError
/// (sbmp/support/status.h) listing every failed index and message in
/// index order, so one bad item can never hide the rest of a batch.
/// Safe to call from multiple threads sharing one pool, and from inside
/// a body running on that pool: completion is tracked per call, not
/// pool-wide, and the caller can claim every index itself, so a nested
/// call never waits on a queued task.
void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body);

/// Convenience form running on the shared process-wide pool with
/// concurrency capped at `jobs` (the cap counts the calling thread,
/// which participates). `jobs` <= 1 runs the loop inline on the calling
/// thread in index order — no pool involvement, and results are
/// bit-identical to the pool path (including the aggregate failure
/// semantics above) — so callers can expose a `--jobs 1` escape hatch
/// that bypasses threading entirely. `jobs` 0 uses
/// ThreadPool::default_thread_count().
void parallel_for(int jobs, std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body);

}  // namespace sbmp
