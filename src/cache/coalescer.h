// Coalescer: the cross-request batching primitive behind both GCache round
// trips (the batching stage of the "Enhanced Batch Query Architecture",
// PAPERS.md). Callers park per-pid work in a shared in-flight table; one of
// them — the collector — waits out a short wall-clock window so concurrent
// callers' pids pile into the same pending set, then dispatches the whole
// set in chunks of at most max_batch_pids and publishes every outcome back
// into the shared entries.
//
// Scheduling is leader/follower with no background thread: the first caller
// to create a pending entry while no collector is active becomes the
// collector, on its own thread. Invariant: a non-empty pending set always
// has an active collector, so no pending entry can stall.
//
// The coalescer owns the mechanics once — the in-flight table, the pending
// list, collector election, the window (closed early once max_batch_pids
// are pending), claiming, chunked dispatch with the lock released, and
// publication. What a duplicate pid does on arrival, what a round trip is
// and how an outcome fans back to callers is policy, implemented on top of
// Join/Collect/Await by LoadBroker (read) and StoreBroker (write).
//
// Trace attribution: window, claim, chunk bookkeeping and publication
// report as the policy's coalesce span; a caller waiting on a round trip
// another thread is driving reports as its shared span. The collector's own
// round trip reports whatever spans the dispatched layers open.
#ifndef IPS_CACHE_COALESCER_H_
#define IPS_CACHE_COALESCER_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/trace.h"
#include "core/types.h"

namespace ips {

/// State every coalesced entry carries; policies derive their entry type.
/// Entries are created pending, move in flight when a collector claims them
/// and are done once their outcome is published. Callers hold shared_ptrs,
/// so an entry outlives its removal from the in-flight table.
struct CoalescedEntry {
  enum class State { kPending, kInFlight, kDone };
  State state = State::kPending;  // guarded by the coalescer's mutex
};

/// Thread-safe. Join, Collect and Await expect the lock returned by Lock()
/// to be held.
template <typename Entry>
class Coalescer {
 public:
  using EntryPtr = std::shared_ptr<Entry>;
  using State = CoalescedEntry::State;
  static constexpr TimestampMs kNoDeadline =
      std::numeric_limits<TimestampMs>::max();

  /// One claimed chunk, pids and entries aligned. The entries are in flight
  /// (their fields frozen by the policy) until publication.
  struct Chunk {
    std::vector<ProfileId> pids;
    std::vector<Entry*> entries;
  };

  /// `clock` is the deadline domain; it may be null when no caller passes a
  /// deadline. Span names must outlive the coalescer (string literals).
  Coalescer(int64_t window_micros, size_t max_batch_pids, Clock* clock,
            const char* coalesce_span, const char* shared_span)
      : window_micros_(window_micros),
        max_batch_pids_(std::max<size_t>(1, max_batch_pids)),
        clock_(clock),
        coalesce_span_(coalesce_span),
        shared_span_(shared_span) {}

  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

  std::unique_lock<std::mutex> Lock() {
    return std::unique_lock<std::mutex>(mu_);
  }

  /// The in-flight entry for `pid`, or a fresh pending one queued for the
  /// next dispatch; `*created` reports which.
  EntryPtr Join(ProfileId pid, bool* created) {
    auto [it, inserted] = inflight_.try_emplace(pid);
    *created = inserted;
    if (inserted) {
      it->second = std::make_shared<Entry>();
      pending_.push_back(pid);
    }
    return it->second;
  }

  /// Ends a Join round that created `created` entries. An active collector
  /// is woken when the round filled its window; with none active the duty
  /// is ours (every pending pid was created by this same lock hold): wait
  /// out the window — skipped once `deadline_ms` has passed, but the
  /// dispatch still runs because other waiters may depend on it — claim
  /// the ENTIRE pending set and, chunk by chunk, run `dispatch(chunk)` with
  /// the lock released and `publish(chunk)` with it held. Published entries
  /// leave the table (a later arrival starts afresh), turn done and wake
  /// their waiters. Returns with the lock held.
  template <typename Dispatch, typename Publish>
  void Collect(std::unique_lock<std::mutex>& lock, size_t created,
               TimestampMs deadline_ms, Dispatch&& dispatch,
               Publish&& publish) {
    if (created == 0) return;
    if (collector_active_) {
      // The window wait only re-checks the pending count on notification.
      if (pending_.size() >= max_batch_pids_) cv_.notify_all();
      return;
    }
    collector_active_ = true;
    const bool expired =
        deadline_ms != kNoDeadline && clock_->NowMs() >= deadline_ms;
    if (window_micros_ > 0 && !expired && pending_.size() < max_batch_pids_) {
      ScopedSpan window_span(coalesce_span_);
      const auto wall_deadline = std::chrono::steady_clock::now() +
                                 std::chrono::microseconds(window_micros_);
      while (pending_.size() < max_batch_pids_) {
        if (cv_.wait_until(lock, wall_deadline) == std::cv_status::timeout) {
          break;
        }
      }
    }

    // Claiming everything (not just max_batch_pids) keeps the invariant
    // that no pending entry is left without a collector.
    std::vector<ProfileId> batch;
    std::vector<EntryPtr> entries;
    {
      ScopedSpan claim_span(coalesce_span_);
      batch.swap(pending_);
      entries.reserve(batch.size());
      for (ProfileId pid : batch) {
        entries.push_back(inflight_.find(pid)->second);
        entries.back()->state = State::kInFlight;
      }
      collector_active_ = false;
      // Followers re-attribute their wait to the shared span, and a new
      // arrival can elect the next collector.
      cv_.notify_all();
    }

    Chunk chunk;
    for (size_t begin = 0; begin < batch.size(); begin += max_batch_pids_) {
      const size_t end = std::min(batch.size(), begin + max_batch_pids_);
      {
        ScopedSpan chunk_span(coalesce_span_);
        chunk.pids.assign(batch.begin() + begin, batch.begin() + end);
        chunk.entries.clear();
        for (size_t i = begin; i < end; ++i) {
          chunk.entries.push_back(entries[i].get());
        }
      }
      lock.unlock();
      dispatch(chunk);
      // Re-acquiring the lock (contention included) charges to coalescing,
      // not to an untraced gap.
      ScopedSpan publish_span(coalesce_span_);
      lock.lock();
      publish(chunk);
      for (size_t i = 0; i < chunk.pids.size(); ++i) {
        inflight_.erase(chunk.pids[i]);
        chunk.entries[i]->state = State::kDone;
      }
      cv_.notify_all();
    }
  }

  /// Blocks until every entry in `entries` is done or `deadline_ms` (in the
  /// clock's domain) passes. The wait reports as the coalesce span while a
  /// collector is still gathering any of them, then as the shared span while
  /// their round trip is in flight.
  void Await(std::unique_lock<std::mutex>& lock,
             const std::vector<EntryPtr>& entries, TimestampMs deadline_ms) {
    const auto any_in = [&entries](State state) {
      for (const EntryPtr& entry : entries) {
        if (entry->state == state) return true;
      }
      return false;
    };
    if (any_in(State::kPending)) {
      ScopedSpan coalesce_span(coalesce_span_);
      WaitUntil(lock, deadline_ms, [&] { return !any_in(State::kPending); });
    }
    if (any_in(State::kInFlight)) {
      ScopedSpan shared_span(shared_span_);
      WaitUntil(lock, deadline_ms, [&] { return !any_in(State::kInFlight); });
    }
  }

  /// Pids currently pending or in flight.
  size_t InFlightCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_.size();
  }

 private:
  /// Polls at ~1ms wall granularity when a deadline is set, so a
  /// ManualClock advanced past the deadline wakes the waiter promptly.
  template <typename Pred>
  void WaitUntil(std::unique_lock<std::mutex>& lock, TimestampMs deadline_ms,
                 Pred pred) {
    if (deadline_ms == kNoDeadline) {
      cv_.wait(lock, pred);
      return;
    }
    while (!pred() && clock_->NowMs() < deadline_ms) {
      cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  const int64_t window_micros_;
  const size_t max_batch_pids_;
  Clock* const clock_;
  const char* const coalesce_span_;
  const char* const shared_span_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<ProfileId, EntryPtr> inflight_;
  /// Pids created but not yet claimed by a collector, in arrival order.
  std::vector<ProfileId> pending_;
  bool collector_active_ = false;
};

}  // namespace ips

#endif  // IPS_CACHE_COALESCER_H_
