#include "cache/load_broker.h"

#include <unordered_set>

#include "common/trace.h"

namespace ips {

namespace {
constexpr char kCoalesceSpan[] = "server.coalesce";
}  // namespace

LoadBroker::LoadBroker(LoadBrokerOptions options, BrokerFetchFn fetch,
                       Clock* clock, MetricsRegistry* metrics)
    : options_(options),
      fetch_(std::move(fetch)),
      coalescer_(options.window_micros, options.max_batch_pids, clock,
                 kCoalesceSpan, "kv.load.shared") {
  if (options_.max_batch_pids == 0) options_.max_batch_pids = 1;
  if (metrics != nullptr) {
    // Registered eagerly so the names are live (and the docs-completeness
    // test sees them) even before the first coalesced load.
    single_flight_hits_ = metrics->GetCounter("broker.single_flight_hits");
    cross_request_dedup_ = metrics->GetCounter("broker.cross_request_dedup");
    window_batches_ = metrics->GetCounter("broker.window_batches");
    deadline_detaches_ = metrics->GetCounter("broker.deadline_detaches");
    batch_pids_ = metrics->GetHistogram("broker.batch_pids");
  }
}

std::vector<Result<ProfileData>> LoadBroker::Load(
    const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded,
    TimestampMs deadline_ms) {
  // Same-call duplicates (callers normally pre-dedup) must not count as
  // cross-request coalescing. Thread-local so the steady state allocates
  // nothing.
  thread_local std::unordered_set<ProfileId> seen_in_call;

  std::vector<Result<ProfileData>> results;
  std::vector<Coalescer<Entry>::EntryPtr> slots;
  std::unique_lock<std::mutex> lock;
  size_t created = 0;
  {
    // Broker bookkeeping — slot setup, taking the lock (contention
    // included) and joining in-flight loads — is coalescing work;
    // attributing it to server.coalesce keeps the traced stage sum covering
    // the full path.
    ScopedSpan attach_span(kCoalesceSpan);
    out_degraded->assign(pids.size(), false);
    if (pids.empty()) return results;
    results.reserve(pids.size());
    seen_in_call.clear();
    slots.reserve(pids.size());
    lock = coalescer_.Lock();
    for (ProfileId pid : pids) {
      const bool first_in_call = seen_in_call.insert(pid).second;
      bool inserted = false;
      auto entry = coalescer_.Join(pid, &inserted);
      if (inserted) {
        ++created;
      } else if (first_in_call) {
        // Riding a round trip already on the wire, or merged into a window
        // another request opened.
        Counter* joined = entry->state == CoalescedEntry::State::kInFlight
                              ? single_flight_hits_
                              : cross_request_dedup_;
        if (joined != nullptr) joined->Increment();
      }
      ++entry->waiters;
      slots.push_back(std::move(entry));
    }
  }

  // The collector's fetch runs on this request thread outside the lock, so
  // kv.load / codec.decode spans attribute to its trace like any inline
  // load.
  std::vector<bool> degraded;
  std::vector<Result<ProfileData>> fetched;
  coalescer_.Collect(
      lock, created, deadline_ms,
      [&](const Coalescer<Entry>::Chunk& chunk) {
        degraded.assign(chunk.pids.size(), false);
        fetched = fetch_(chunk.pids, &degraded);
      },
      [&](const Coalescer<Entry>::Chunk& chunk) {
        if (window_batches_ != nullptr) window_batches_->Increment();
        if (batch_pids_ != nullptr) {
          batch_pids_->Record(static_cast<int64_t>(chunk.pids.size()));
        }
        for (size_t i = 0; i < chunk.entries.size(); ++i) {
          Entry& entry = *chunk.entries[i];
          entry.degraded = i < degraded.size() && degraded[i];
          if (i < fetched.size()) {
            entry.result.emplace(std::move(fetched[i]));
          } else {
            entry.result.emplace(
                Status::Internal("batch loader returned a short result list"));
          }
        }
      });
  coalescer_.Await(lock, slots, deadline_ms);

  // Fan the shared result — including its degraded flag — to this waiter.
  // A pid still unresolved here means our deadline expired: we detach (drop
  // our waiter count) and fail only our own slot; the entry stays healthy
  // for the collector and the other waiters. Fan-out copies are coalescing
  // overhead, so they report as server.coalesce too.
  ScopedSpan collect_span(kCoalesceSpan);
  int64_t detached = 0;
  for (size_t i = 0; i < pids.size(); ++i) {
    Entry& entry = *slots[i];
    --entry.waiters;
    if (entry.state != CoalescedEntry::State::kDone) {
      ++detached;
      results.emplace_back(
          Status::DeadlineExceeded("deadline expired during shared load"));
      continue;
    }
    (*out_degraded)[i] = entry.degraded;
    if (entry.waiters == 0 && entry.result.has_value()) {
      // Last waiter out takes the value without a copy (the common
      // uncontended case stays move-only end to end).
      results.push_back(std::move(*entry.result));
      entry.result.reset();
    } else {
      results.push_back(*entry.result);
    }
  }
  if (detached > 0 && deadline_detaches_ != nullptr) {
    deadline_detaches_->Increment(detached);
  }
  return results;
}

}  // namespace ips
