#ifndef LIMCAP_COMMON_THREAD_POOL_H_
#define LIMCAP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace limcap {

/// A fixed pool of worker threads driven in lockstep "parallel regions":
/// RunOnAll(fn) wakes every worker, runs fn(worker_index) on each, and
/// blocks the caller until all workers finish. Workers idle between
/// regions, so per-batch dispatch (the fetch scheduler runs one region per
/// concurrent batch) costs two condition-variable sweeps instead of thread
/// spawns.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// Runs `fn(worker_index)` on every worker and returns when all have
  /// finished. `fn` must not call RunOnAll reentrantly. Exceptions must
  /// not escape `fn`.
  void RunOnAll(const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop(std::size_t index);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  uint64_t generation_ = 0;
  std::size_t running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace limcap

#endif  // LIMCAP_COMMON_THREAD_POOL_H_
