#include "util/thread_pool.h"

#include <algorithm>

namespace smartsock::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  std::size_t chunks = std::min(count, workers_.size() + 1);
  if (chunks <= 1) {
    body(0, count);
    return;
  }

  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending;
  } latch;
  latch.pending = chunks - 1;

  // Chunk c gets count/chunks records, the remainder spread over the first
  // chunks. Chunk 0 runs inline on the caller.
  std::size_t per = count / chunks;
  std::size_t extra = count % chunks;
  std::size_t first_end = per + (extra > 0 ? 1 : 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t begin = first_end;
    for (std::size_t c = 1; c < chunks; ++c) {
      std::size_t end = begin + per + (c < extra ? 1 : 0);
      queue_.push_back([&latch, &body, begin, end] {
        body(begin, end);
        std::lock_guard<std::mutex> done(latch.mu);
        if (--latch.pending == 0) latch.cv.notify_one();
      });
      begin = end;
    }
  }
  cv_.notify_all();

  body(0, first_end);
  std::unique_lock<std::mutex> done(latch.mu);
  latch.cv.wait(done, [&latch] { return latch.pending == 0; });
}

}  // namespace smartsock::util
