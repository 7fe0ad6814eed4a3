#include "common/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dialite {

namespace {

/// The pool whose WorkerLoop the current thread is running, if any. Lets
/// ParallelFor detect reentrant misuse without scanning workers_.
thread_local const ThreadPool* current_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, ObservabilityContext* obs) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (obs != nullptr) {
    tasks_run_ = obs->metrics().counter("threadpool.tasks_run");
    queue_depth_ = obs->metrics().histogram("threadpool.queue_depth");
    task_wait_ns_ = obs->metrics().histogram("threadpool.task_wait_ns");
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  WaitNoThrow();
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  task_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  const uint64_t now = tasks_run_ != nullptr ? WallNowNs() : 0;
  {
    MutexLock lock(mu_);
    queue_.push_back(Task{std::move(task), now});
    if (queue_depth_ != nullptr) queue_depth_->Record(queue_.size());
  }
  task_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    while (!IdleLocked()) idle_cv_.Wait(mu_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::WaitNoThrow() {
  MutexLock lock(mu_);
  while (!IdleLocked()) idle_cv_.Wait(mu_);
  first_error_ = nullptr;
}

bool ThreadPool::InWorkerThread() const {
  return current_worker_pool == this;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // A worker of this pool calling back into it would wait on itself
  // (reentrant misuse — documented unsupported); a pool with no workers has
  // nobody to drain the queue. Both degrade to the inline serial loop, which
  // is always correct, just not parallel.
  assert(!InWorkerThread() &&
         "ThreadPool::ParallelFor called from a worker of the same pool");
  if (workers_.empty() || InWorkerThread()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t chunks = std::min(n, workers_.size() * 4);
  const size_t per_chunk = (n + chunks - 1) / chunks;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * per_chunk;
    const size_t end = std::min(n, begin + per_chunk);
    if (begin >= end) break;
    Submit([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) task_cv_.Wait(mu_);
      if (shutdown_ && queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    if (tasks_run_ != nullptr) {
      tasks_run_->Add(1);
      const uint64_t now = WallNowNs();
      task_wait_ns_->Record(now > task.enqueue_ns ? now - task.enqueue_ns : 0);
    }
    try {
      task.fn();
    } catch (...) {
      MutexLock lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      --in_flight_;
    }
    idle_cv_.NotifyAll();
  }
  current_worker_pool = nullptr;
}

void ForEachTableIndex(size_t num_threads, size_t n,
                       const std::function<void(size_t)>& fn,
                       ObservabilityContext* obs) {
  size_t threads = num_threads == 0
                       ? std::max(1u, std::thread::hardware_concurrency())
                       : num_threads;
  if (threads <= 1 || n < 2) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(threads, n), obs);
  pool.ParallelFor(n, fn);
}

}  // namespace dialite
