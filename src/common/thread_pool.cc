#include "common/thread_pool.h"

namespace ips {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

StripedThreadPool::StripedThreadPool(size_t num_threads, size_t num_shards,
                                     size_t max_queue)
    : max_queue_(max_queue) {
  if (num_threads == 0) num_threads = 1;
  num_workers_ = num_threads;
  num_shards = RoundUpPow2(std::max(num_shards, num_threads));
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

StripedThreadPool::~StripedThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool StripedThreadPool::Submit(uint64_t shard_hint,
                               std::function<void()> task) {
  // The bound check and the increments are racy against each other by
  // design: two submitters may both pass the check at max_queue_-1 and land
  // one task over the bound. The bound is a pressure valve, not an
  // accounting invariant, and an off-by-a-few overshoot is harmless.
  if (queued_.load(std::memory_order_relaxed) >= max_queue_) return false;
  Shard& shard = *shards_[shard_hint & (shards_.size() - 1)];
  {
    // wake_mu_ does double duty: checking shutdown_ under it BEFORE the push
    // means a task is either enqueued strictly before the destructor flips
    // shutdown_ (the drain loop then runs it) or rejected outright — there is
    // no acknowledged-then-discarded window, and no rollback that could pop
    // a different submitter's task. Holding it across the push also pairs
    // with the predicate check in WorkerLoop so a worker deciding to sleep
    // cannot miss this task.
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (shutdown_) return false;
    {
      std::lock_guard<std::mutex> shard_lock(shard.mu);
      shard.queue.push_back(std::move(task));
    }
    pending_.fetch_add(1, std::memory_order_relaxed);
    queued_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_one();
  return true;
}

size_t StripedThreadPool::ShardQueueDepth(size_t shard) const {
  const Shard& s = *shards_[shard & (shards_.size() - 1)];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.queue.size();
}

bool StripedThreadPool::PopTask(size_t worker,
                                std::function<void()>* out_task) {
  const size_t num_shards = shards_.size();
  const size_t num_workers = num_workers_;
  // Home stripe first (FIFO within each shard), then steal. Both passes scan
  // with stride 1 so every worker can reach every shard: a stride-num_workers
  // scan only visits shards congruent to the start mod gcd(num_workers,
  // num_shards), which strands tasks on the unreachable shards until an
  // unrelated Submit happens to wake a capable worker. The steal pass starts
  // just past the home shard so concurrent stealers spread out instead of
  // piling onto shard 0.
  for (size_t pass = 0; pass < 2; ++pass) {
    const bool stealing = pass == 1;
    for (size_t i = 0; i < num_shards; ++i) {
      const size_t s = (worker + i + (stealing ? 1 : 0)) % num_shards;
      const bool home = s % num_workers == worker % num_workers;
      if (home == stealing) continue;
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.queue.empty()) continue;
      *out_task = std::move(shard.queue.front());
      shard.queue.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      if (stealing) steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void StripedThreadPool::WorkerLoop(size_t worker) {
  for (;;) {
    std::function<void()> task;
    if (!PopTask(worker, &task)) {
      std::unique_lock<std::mutex> lock(wake_mu_);
      work_cv_.wait(lock, [this] {
        return shutdown_ || queued_.load(std::memory_order_acquire) > 0;
      });
      if (shutdown_ && queued_.load(std::memory_order_acquire) == 0) return;
      continue;
    }
    task();
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(wake_mu_);
      idle_cv_.notify_all();
    }
  }
}

void StripedThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace ips
