// LoadBroker: server-side coalescing stage for the cache-miss load path
// (ROADMAP open item "cross-request batching"; cf. Bilibili's "Enhanced
// Batch Query Architecture", PAPERS.md). GCache batching amortizes storage
// round trips *within* one request; under Zipfian celebrity-user traffic the
// remaining waste is *across* requests — two concurrent misses for the same
// hot pid pay two kv.load round trips, and misses from different requests
// arriving microseconds apart each pay their own MultiGet. The broker sits
// between GCache and the persister's batch loader and removes both:
//
//   * single-flight — an in-flight table keyed by pid: concurrent misses for
//     the same profile attach to the one pending load, and the decoded
//     result (and its degraded flag) fans back to every attached waiter;
//   * window batching — misses arriving within a small collection window
//     merge into ONE Persister::LoadBatch / KvStore::MultiGet round trip,
//     with duplicate pids deduped across requests.
//
// Both run on the shared Coalescer (cache/coalescer.h); this file is the read
// policy on top of it. A pid joins an in-flight load in any state — pending
// (merged into an open window) or fetching (riding the round trip already
// on the wire). A waiter whose deadline expires detaches — its unfinished
// pids fail with DeadlineExceeded — WITHOUT cancelling or poisoning the
// shared load; the collector still completes it for the remaining waiters.
//
// Trace attribution (bench_table2_latency's stage-sum self-check): time a
// waiter spends in the collection window reports as `server.coalesce`, time
// spent waiting on a fetch another thread is driving reports as
// `kv.load.shared`. The collector's own fetch reports the usual `kv.load` /
// `codec.decode` from the layers doing the work, so the disjoint-stage sum
// stays complete on every thread.
#ifndef IPS_CACHE_LOAD_BROKER_H_
#define IPS_CACHE_LOAD_BROKER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "cache/coalescer.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/profile_data.h"
#include "core/types.h"

namespace ips {

struct LoadBrokerOptions {
  /// Collection window in wall-clock microseconds: how long the collector
  /// lingers for other requests' misses before dispatching. Zero dispatches
  /// immediately (single-flight only, no cross-request batching).
  int64_t window_micros = 200;
  /// The window closes early once this many unique pids are pending, and
  /// dispatches larger than this are split into multiple fetch calls.
  size_t max_batch_pids = 256;
};

/// Downstream fetch: same shape as GCache's BatchLoadFn (results align with
/// the pid list, `out_degraded` never null). Typically Persister::LoadBatch.
using BrokerFetchFn = std::function<std::vector<Result<ProfileData>>(
    const std::vector<ProfileId>&, std::vector<bool>* out_degraded)>;

/// Thread-safe. Callers must quiesce (no Load in flight) before destruction,
/// the same lifetime contract as the cache above it.
class LoadBroker {
 public:
  /// Sentinel deadline meaning "wait forever" (== CallContext::kNoDeadline).
  static constexpr TimestampMs kNoDeadline =
      std::numeric_limits<TimestampMs>::max();

  LoadBroker(LoadBrokerOptions options, BrokerFetchFn fetch, Clock* clock,
             MetricsRegistry* metrics = nullptr);

  LoadBroker(const LoadBroker&) = delete;
  LoadBroker& operator=(const LoadBroker&) = delete;

  /// Loads `pids`, coalescing with every other concurrent Load call.
  /// Results (and `out_degraded`, never null) align with `pids`; NotFound
  /// marks profiles that were never persisted, exactly like the underlying
  /// fetch. Blocks until every pid resolves or `deadline_ms` (absolute, in
  /// `clock`'s domain) passes; expired waiters get DeadlineExceeded for the
  /// unresolved pids while the shared load keeps running for everyone else.
  std::vector<Result<ProfileData>> Load(const std::vector<ProfileId>& pids,
                                        std::vector<bool>* out_degraded,
                                        TimestampMs deadline_ms = kNoDeadline);

  /// Pids currently pending or fetching (tests: an expired waiter must not
  /// leave a poisoned entry behind).
  size_t InFlightCount() const { return coalescer_.InFlightCount(); }

  const LoadBrokerOptions& options() const { return options_; }

 private:
  /// One coalesced load: every waiter holds it until the result publishes.
  struct Entry : CoalescedEntry {
    int waiters = 0;        // guarded by the coalescer
    bool degraded = false;  // guarded by the coalescer
    /// Unset until done (Result has no default construction).
    std::optional<Result<ProfileData>> result;  // guarded by the coalescer
  };

  LoadBrokerOptions options_;
  BrokerFetchFn fetch_;
  Coalescer<Entry> coalescer_;

  // Cached metric handles (null when no registry is wired).
  Counter* single_flight_hits_ = nullptr;
  Counter* cross_request_dedup_ = nullptr;
  Counter* window_batches_ = nullptr;
  Counter* deadline_detaches_ = nullptr;
  Histogram* batch_pids_ = nullptr;
};

}  // namespace ips

#endif  // IPS_CACHE_LOAD_BROKER_H_
