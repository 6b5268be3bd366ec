// StoreBroker: server-side coalescing stage for the dirty-flush store path —
// the write-side mirror of LoadBroker (ROADMAP open item "write-side
// coalescing to match the read broker"). GCache's batched flush amortizes
// storage round trips *within* one dirty-shard group; the remaining waste is
// *across* groups — concurrent flush passes (multiple flush threads, a
// FlushAll storm at shutdown or failover) each pay their own
// KvStore::MultiSet, and a hot dirty pid re-snapshotted by a second pass
// while its previous store is still on the wire is written twice. The broker
// sits between GCache::FlushShard and the persister's batch store and
// removes both:
//
//   * window batching — flush groups submitted within a small collection
//     window, typically from different dirty shards on different flush
//     threads, merge into ONE Persister::StoreBatch / KvStore::MultiSet
//     round trip (chunked at max_batch_pids);
//   * single-flight store-backs — an in-flight table keyed by pid: a second
//     flush of a pid whose store is already on the wire piggybacks on the
//     pending write when its snapshot epoch is unchanged (the in-flight
//     bytes are identical), and requeues behind it when the epoch moved on
//     (the newer snapshot must still be written, but never concurrently with
//     the older one, and only after it has landed).
//
// Both run on the shared Coalescer (cache/coalescer.h); this file is the
// write policy on top of it. Per-pid statuses fan back to each originating
// submission, so a partial MultiSet failure keeps GCache's per-status
// requeue semantics, and the cache's mutation-epoch recheck after Store()
// returns still guards lost updates — the broker only decides *which
// snapshot bytes* ride *which round trip*.
//
// There is no deadline detach (flush passes have no deadlines): a submitter
// always blocks until every one of its pids resolves, which is also what
// keeps the borrowed ProfileData snapshot pointers valid for the duration of
// the shared store.
//
// Trace attribution (bench_table2_latency's stage-sum self-check): time
// spent in the collection window or on broker bookkeeping reports as
// `server.store_coalesce`; time spent waiting on a store another thread is
// driving reports as `kv.store.shared`. The collector's own store reports
// the usual `kv.store` from the layers doing the work.
#ifndef IPS_CACHE_STORE_BROKER_H_
#define IPS_CACHE_STORE_BROKER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cache/coalescer.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/profile_data.h"
#include "core/types.h"

namespace ips {

struct StoreBrokerOptions {
  /// Collection window in wall-clock microseconds: how long the collector
  /// lingers for other flush threads' groups before dispatching. Zero
  /// dispatches immediately (single-flight only, no cross-shard batching).
  /// Flush passes run on background threads, so the write window can afford
  /// to be wider than the read broker's.
  int64_t window_micros = 500;
  /// The window closes early once this many unique pids are pending, and
  /// dispatches larger than this are split into multiple store calls.
  size_t max_batch_pids = 256;
};

/// Downstream store: GCache's BatchStoreFn without the epochs (statuses
/// align with the pid list). Typically Persister::StoreBatch.
using BrokerStoreFn = std::function<std::vector<Status>(
    const std::vector<ProfileId>&, const std::vector<const ProfileData*>&)>;

/// Thread-safe. Callers must quiesce (no Store in flight) before
/// destruction, the same lifetime contract as the cache above it.
class StoreBroker {
 public:
  StoreBroker(StoreBrokerOptions options, BrokerStoreFn store,
              MetricsRegistry* metrics = nullptr);

  StoreBroker(const StoreBroker&) = delete;
  StoreBroker& operator=(const StoreBroker&) = delete;

  /// Stores the given snapshots, coalescing with every other concurrent
  /// Store call. `profiles[i]` is a borrowed snapshot of pid `pids[i]` taken
  /// at mutation epoch `epochs[i]`; the pointers must stay valid until the
  /// call returns (it blocks until every pid resolves, so stack-owned
  /// snapshots — GCache's flush groups — are fine). Returned statuses align
  /// with `pids`, exactly like the underlying store: a batch can partially
  /// fail, and each originating submission sees its own pids' outcomes.
  ///
  /// Duplicate-pid handling against the in-flight table:
  ///   * entry still pending (window open): the submissions merge; the
  ///     higher-epoch snapshot rides, both wait on the one write.
  ///   * entry storing, epoch unchanged or older than the in-flight write:
  ///     piggyback — ride the pending write's status (single-flight).
  ///   * entry storing, our epoch newer: wait for the in-flight write to
  ///     complete, then resubmit the newer snapshot (requeue).
  std::vector<Status> Store(const std::vector<ProfileId>& pids,
                            const std::vector<const ProfileData*>& profiles,
                            const std::vector<uint64_t>& epochs);

  /// Pids currently pending or storing (tests: the table must drain clean).
  size_t InFlightCount() const { return coalescer_.InFlightCount(); }

  const StoreBrokerOptions& options() const { return options_; }

 private:
  /// One coalesced store-back. Its snapshot pointer and epoch change only
  /// while pending; once in flight they are frozen, so later duplicates
  /// piggyback or requeue but never mutate it.
  struct Entry : CoalescedEntry {
    /// Epoch of the snapshot this entry will write (the newest merged in
    /// while pending). Guarded by the coalescer.
    uint64_t epoch = 0;
    /// Borrowed from the submitter whose snapshot rides; that submitter is
    /// blocked until this entry is done, so the pointer stays valid across
    /// the unlocked store.
    const ProfileData* profile = nullptr;
    /// Submission id of the creator (cross-shard merge detection).
    uint64_t submission = 0;
    /// Unset until done.
    std::optional<Status> status;  // guarded by the coalescer
  };

  StoreBrokerOptions options_;
  BrokerStoreFn store_;
  Coalescer<Entry> coalescer_;
  /// Monotonic id per Store call, for cross-shard merge accounting. Guarded
  /// by the coalescer.
  uint64_t next_submission_ = 0;

  // Cached metric handles (null when no registry is wired).
  Counter* single_flight_hits_ = nullptr;
  Counter* cross_shard_batches_ = nullptr;
  Counter* requeued_pids_ = nullptr;
  Histogram* batch_pids_ = nullptr;
};

}  // namespace ips

#endif  // IPS_CACHE_STORE_BROKER_H_
