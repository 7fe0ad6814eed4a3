#ifndef DIALITE_COMMON_THREAD_POOL_H_
#define DIALITE_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "obs/observability.h"

namespace dialite {

/// Fixed-size worker pool used by the parallel Full Disjunction operator and
/// the lake index builders.
///
/// Usage:
///   ThreadPool pool(4);
///   pool.Submit([&] { ... });
///   pool.Wait();            // blocks until the queue drains and workers idle
///
/// The destructor waits for outstanding work, so a stack-scoped pool is safe.
///
/// Error handling: a task that throws does not kill the worker or wedge the
/// pool. The first exception is captured and rethrown from the next Wait()
/// (or ParallelFor(), which waits internally); later exceptions from the same
/// batch are dropped. The destructor swallows any still-unclaimed exception —
/// claim errors with Wait() if you care about them.
///
/// Reentrancy: calling Wait() or ParallelFor() from inside a task running on
/// this same pool is NOT supported (the worker would wait on itself).
/// ParallelFor() detects this misuse, asserts in debug builds, and degrades
/// to running the loop inline on the calling thread in release builds so the
/// process does not deadlock.
class ThreadPool {
 public:
  /// `num_threads` == 0 selects the hardware concurrency (min 1). With a
  /// non-null `obs`, the pool emits `threadpool.tasks_run` (counter),
  /// `threadpool.queue_depth` (histogram, sampled at submit), and
  /// `threadpool.task_wait_ns` (histogram, enqueue → start latency). The
  /// context must outlive the pool; a null context costs nothing.
  explicit ThreadPool(size_t num_threads = 0,
                      ObservabilityContext* obs = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task) DIALITE_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished. Rethrows the first
  /// exception that escaped a task since the last Wait(), if any.
  void Wait() DIALITE_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for completion.
  /// Work is chunked so small n does not oversubscribe. Degrades to an
  /// inline serial loop when the pool has no workers or when called from a
  /// worker thread of this pool (reentrant misuse; see class comment).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool InWorkerThread() const;

 private:
  void WorkerLoop();
  /// Waits for idle without rethrowing captured task exceptions.
  void WaitNoThrow() DIALITE_EXCLUDES(mu_);
  /// True when the queue is drained and no task is mid-execution.
  [[nodiscard]] bool IdleLocked() const DIALITE_REQUIRES(mu_) {
    return queue_.empty() && in_flight_ == 0;
  }

  /// A queued task and, when observability is on, its enqueue timestamp.
  struct Task {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;
  };

  // workers_ is written once in the constructor and joined in the
  // destructor; between those it is read-only, so it is not guarded.
  // analyze: no-guard(written once in ctor, joined in dtor, const between)
  std::vector<std::thread> workers_;
  // Instruments resolved once at construction (null when disabled) so the
  // per-task cost is an atomic add, not a registry lookup.
  // analyze: no-guard(resolved once at construction, read-only after)
  Counter* tasks_run_ = nullptr;
  // analyze: no-guard(resolved once at construction, read-only after)
  Histogram* queue_depth_ = nullptr;
  // analyze: no-guard(resolved once at construction, read-only after)
  Histogram* task_wait_ns_ = nullptr;
  Mutex mu_{"ThreadPool::mu_"};
  CondVar task_cv_;  // signaled when work arrives / shutdown
  CondVar idle_cv_;  // signaled when a task completes
  std::deque<Task> queue_ DIALITE_GUARDED_BY(mu_);
  size_t in_flight_ DIALITE_GUARDED_BY(mu_) = 0;
  bool shutdown_ DIALITE_GUARDED_BY(mu_) = false;
  // First exception escaping a task.
  std::exception_ptr first_error_ DIALITE_GUARDED_BY(mu_);
};

/// Runs `fn(i)` for i in [0, n) — on the calling thread when the effective
/// thread count (`num_threads`, 0 = hardware concurrency) is 1 or n < 2,
/// else via a stack-scoped ThreadPool::ParallelFor. `fn` must be safe to
/// call concurrently for distinct i and must not throw. A non-null `obs`
/// is handed to the pool so parallel builds feed the threadpool.* metrics.
/// The compute phase of every lake-wide build (tokens, discovery indexes).
void ForEachTableIndex(size_t num_threads, size_t n,
                       const std::function<void(size_t)>& fn,
                       ObservabilityContext* obs = nullptr);

}  // namespace dialite

#endif  // DIALITE_COMMON_THREAD_POOL_H_
