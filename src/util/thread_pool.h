// Small fixed-size worker pool for data-parallel stages — the matcher's
// per-record requirement evaluation is the motivating user.
//
// parallel_for partitions [0, count) into one contiguous chunk per worker;
// callers write results into index-addressed slots and merge in index order,
// so the output is byte-identical to a serial loop no matter how the chunks
// are scheduled. Determinism comes from the partitioning, not the timing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace smartsock::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs body(begin, end) over disjoint chunks covering [0, count), one
  /// chunk on the calling thread and the rest on the workers; blocks until
  /// every chunk finished. Safe to call from several threads concurrently —
  /// each call joins on its own completion latch. Do not call from inside a
  /// pool job (the nested call could wait on workers that are all busy).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Queues one fire-and-forget job (the reactor's offload path). Jobs
  /// queued before destruction are drained before the workers exit.
  void submit(std::function<void()> job);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace smartsock::util
