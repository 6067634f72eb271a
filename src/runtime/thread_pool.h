// Minimal persistent thread pool for parallel loop execution and
// analysis-level task parallelism.
//
// The interpreter's parallel loops follow the SUIF execution model: a
// parallel region is dispatched to T workers, which share out the
// iteration space in blocks (runtime/scheduler.h), with a barrier at
// loop exit (runOnAll).
// On top of that, the pool offers a submit()/future API used by the
// driver and the evaluation harness to run independent analyses (the
// baseline/predicated pair, whole corpus programs) concurrently.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace padfa {

class ThreadPool {
 public:
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run fn(worker_index) on every worker (0..size-1) and wait for all.
  /// worker 0 runs on the calling thread. Exceptions thrown by workers
  /// are rethrown on the caller (first one wins).
  ///
  /// Re-entry guard: calling runOnAll from inside one of this pool's own
  /// workers would deadlock — the calling worker is busy and can never
  /// pick up the generation job assigned to it, so the barrier's
  /// remaining-count never reaches zero. Nested dispatch therefore throws
  /// std::logic_error instead of hanging. (Dispatching onto a *different*
  /// pool from a worker is fine and used by the bench harness: analysis
  /// workers run the interpreter, which owns its own pool.)
  void runOnAll(const std::function<void(unsigned)>& fn);

  /// Schedule `f` to run on some worker and get a future for its result.
  /// Exceptions propagate through the future. submit() from inside one of
  /// this pool's own workers executes `f` inline (same-pool nesting must
  /// not wait on queue capacity that the blocked worker itself provides);
  /// a pool with no extra workers (num_threads <= 1) also executes
  /// inline. Pending tasks are abandoned (futures broken) if the pool is
  /// destroyed first — keep the pool alive until every future is ready.
  template <class F>
  auto submit(F f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Is the calling thread one of this pool's worker threads?
  bool onWorkerThread() const;

  /// Cooperative cancellation: set automatically when any worker throws
  /// during the current runOnAll dispatch (and resettable by jobs that
  /// want to stop their siblings). Long-running jobs poll this between
  /// iterations and bail out early; the dispatch still rethrows the
  /// first error after the barrier.
  void requestCancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancelRequested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

 private:
  void workerLoop(unsigned index);
  /// Run `task` on some worker, or inline when called from one of this
  /// pool's workers / when the pool has no workers.
  void enqueue(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::deque<std::function<void()>> tasks_;
  uint64_t generation_ = 0;
  unsigned remaining_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::atomic<bool> cancel_{false};
};

/// The process-wide pool used for analysis-level task parallelism (the
/// baseline/predicated pair in compileSource, corpus fan-out in benches
/// and sweep tests). Sized by the PADFA_THREADS environment variable
/// (default: hardware concurrency). Constructed on first use; lives for
/// the process.
ThreadPool& analysisPool();

/// The thread count analysisPool() is (or will be) built with.
unsigned analysisThreadCount();

}  // namespace padfa
