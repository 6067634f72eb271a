#include "runtime/thread_pool.h"

#include <cstdlib>
#include <stdexcept>

namespace padfa {

namespace {
// Which pool (if any) owns the calling thread. Per-pool, not a plain
// bool: the bench harness runs the interpreter (which creates its own
// pool) from analysis-pool workers, and that cross-pool nesting is
// legal — only same-pool nesting is special-cased.
thread_local ThreadPool* t_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  unsigned extra = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(extra);
  for (unsigned i = 0; i < extra; ++i)
    workers_.emplace_back([this, i] { workerLoop(i + 1); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::onWorkerThread() const { return t_worker_pool == this; }

void ThreadPool::workerLoop(unsigned index) {
  t_worker_pool = this;
  uint64_t seen = 0;
  while (true) {
    const std::function<void(unsigned)>* job = nullptr;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] {
        return stop_ || generation_ != seen || !tasks_.empty();
      });
      if (stop_) return;
      // Barrier dispatches take priority over queued tasks: runOnAll's
      // caller is blocked on every worker, while submit()ters hold a
      // future they can wait on.
      if (generation_ != seen) {
        seen = generation_;
        job = job_;
      } else {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
    }
    if (job) {
      try {
        (*job)(index);
      } catch (...) {
        requestCancel();  // tell sibling workers to stop early
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) cv_done_.notify_all();
    } else {
      task();  // packaged_task: exceptions land in the caller's future
    }
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  // Same-pool submit from a worker runs inline: the submitting worker
  // may immediately wait on the future, and with every other worker
  // equally blocked the queued task could starve forever.
  if (t_worker_pool == this || workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_start_.notify_one();
}

void ThreadPool::runOnAll(const std::function<void(unsigned)>& fn) {
  if (onWorkerThread())
    throw std::logic_error(
        "ThreadPool::runOnAll: nested dispatch from this pool's own worker "
        "would deadlock (the calling worker can never run its share of the "
        "job); use a separate pool or submit()");
  cancel_.store(false, std::memory_order_relaxed);
  if (workers_.empty()) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    remaining_ = static_cast<unsigned>(workers_.size());
    error_ = nullptr;
    ++generation_;
  }
  cv_start_.notify_all();
  std::exception_ptr caller_error;
  try {
    fn(0);
  } catch (...) {
    requestCancel();
    caller_error = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return remaining_ == 0; });
    job_ = nullptr;
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (error_) std::rethrow_exception(error_);
}

unsigned analysisThreadCount() {
  static unsigned n = [] {
    if (const char* env = std::getenv("PADFA_THREADS")) {
      long v = std::strtol(env, nullptr, 10);
      if (v >= 1 && v <= 256) return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 4u;
  }();
  return n;
}

ThreadPool& analysisPool() {
  static ThreadPool pool(analysisThreadCount());
  return pool;
}

}  // namespace padfa
