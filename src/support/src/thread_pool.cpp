#include "sbmp/support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <system_error>
#include <utility>

#include "sbmp/support/status.h"

namespace sbmp {

namespace {

std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Per-call failure collector shared by the pool and inline paths, so
/// both surface every failed index identically: one failure rethrows the
/// original exception (type-preserving, the historical contract), more
/// than one throws a ParallelForError listing all of them by index.
struct FailureSet {
  std::mutex mu;
  std::exception_ptr first;
  std::int64_t first_index = 0;
  std::vector<IndexedFailure> failures;

  void record(std::int64_t index) {
    const std::string message = describe_current_exception();
    std::lock_guard<std::mutex> lock(mu);
    if (!first || index < first_index) {
      first = std::current_exception();
      first_index = index;
    }
    failures.push_back({index, message});
  }

  [[noreturn]] void rethrow() {
    if (failures.size() == 1) std::rethrow_exception(first);
    std::sort(failures.begin(), failures.end(),
              [](const IndexedFailure& a, const IndexedFailure& b) {
                return a.index < b.index;
              });
    throw ParallelForError(std::move(failures));
  }

  /// Move the collected state into `out`, leaving this set empty. Used
  /// by the pooled path so the caller rethrows from a stack-local copy:
  /// the shared per-call block may be destroyed later on a worker thread
  /// (a stale runner stub dropping the last reference), and that
  /// destruction must not release the exception_ptr the caller is still
  /// holding live.
  void drain_into(FailureSet& out) {
    out.first = std::move(first);
    first = nullptr;
    out.first_index = first_index;
    out.failures = std::move(failures);
    failures.clear();
  }

  [[nodiscard]] bool any() const { return !failures.empty(); }
};

/// State of one pooled parallel_for call. Runners (pool tasks plus the
/// calling thread) claim one index at a time through `next` until the
/// range is exhausted, so load balances dynamically item by item.
/// Heap-allocated and shared with every runner task: when the caller
/// claims every index itself (a busy pool), its runner stubs may execute
/// after the call already returned, and must still find this state
/// alive — they claim no index and exit without ever touching `body`.
struct IndexedLoop {
  std::int64_t begin = 0;
  std::int64_t n = 0;
  const std::function<void(std::int64_t)>* body = nullptr;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> done{0};
  std::mutex mu;
  std::condition_variable done_cv;
  FailureSet failures;

  void run() {
    for (;;) {
      const std::int64_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= n) return;
      try {
        (*body)(begin + k);
      } catch (...) {
        failures.record(begin + k);
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) == n - 1) {
        std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_all();
      }
    }
  }
};

/// The inline path shared by `jobs <= 1` and degenerate ranges: index
/// order on the calling thread, with the exact pooled failure contract.
void run_inline(std::int64_t begin, std::int64_t end,
                const std::function<void(std::int64_t)>& body) {
  FailureSet failures;
  for (std::int64_t i = begin; i < end; ++i) {
    try {
      body(i);
    } catch (...) {
      failures.record(i);
    }
  }
  if (failures.any()) failures.rethrow();
}

/// Fan-out over `pool` with total concurrency (pool runners plus the
/// participating caller) capped at `max_workers`.
void parallel_for_capped(ThreadPool& pool, int max_workers,
                         std::int64_t begin, std::int64_t end,
                         const std::function<void(std::int64_t)>& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const int workers = static_cast<int>(std::min<std::int64_t>(
      {static_cast<std::int64_t>(std::max(max_workers, 1)),
       static_cast<std::int64_t>(pool.size()) + 1, n}));
  if (workers <= 1) {
    run_inline(begin, end, body);
    return;
  }
  auto state = std::make_shared<IndexedLoop>();
  state->begin = begin;
  state->n = n;
  state->body = &body;
  for (int w = 0; w + 1 < workers; ++w)
    pool.submit([state] { state->run(); });
  state->run();  // the calling thread is worker 0
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&state] {
      return state->done.load(std::memory_order_acquire) == state->n;
    });
  }
  // Every index is done (acq_rel fetch_add / acquire wait above), so the
  // caller owns the failure state now. Drain it to a local before
  // throwing — see FailureSet::drain_into.
  if (state->failures.any()) {
    FailureSet local;
    state->failures.drain_into(local);
    local.rethrow();
  }
}

}  // namespace

int ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  const int count = threads > 0 ? threads : default_thread_count();
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    try {
      workers_.emplace_back([this] { worker_loop(); });
    } catch (const std::system_error&) {
      // Out of thread resources: run with however many workers exist.
      if (workers_.empty()) throw;
      break;
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    ++pending_;
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      // Stopping only once the queue is empty drains every queued task.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
    task = nullptr;  // release its captures before counting it finished
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) idle_cv_.notify_all();
  }
}

ThreadPool& shared_thread_pool() {
  // Intentionally leaked (never destroyed): the workers idle on the
  // condition variable until process exit, so no static-destruction
  // ordering can race a late parallel_for against a dying pool. The
  // pointer lives in static storage, so leak checkers see the block as
  // reachable.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body) {
  parallel_for_capped(pool, pool.size() + 1, begin, end, body);
}

void parallel_for(int jobs, std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body) {
  const int resolved = jobs > 0 ? jobs : ThreadPool::default_thread_count();
  if (resolved <= 1 || end - begin <= 1) {
    run_inline(begin, end, body);
    return;
  }
  parallel_for_capped(shared_thread_pool(), resolved, begin, end, body);
}

}  // namespace sbmp
