// GCache (Section III-C, Figs 6-9): the write-back compute cache at the heart
// of the IPS compute-cache layer. Profiles live in memory wrapped in cache
// entries tracked by two structures:
//
//   * a sharded LRU list (Fig 7) — swap threads evict cold entries when
//     memory exceeds the configured threshold, starting from the largest
//     shard, probing entries with try_lock and skipping contended ones
//     instead of blocking (Fig 8);
//   * a sharded dirty list (Fig 9) — flush threads persist updated profiles
//     to the key-value store; the flush-thread count is a multiple of the
//     dirty-shard count so every shard has dedicated threads.
//
// Serving reaches entries through ONE batch resolve: WithProfiles (reads)
// and WithProfilesMutable (writes) share it, and the single-profile calls
// are batches of one, so every miss of a request — read or write — costs
// one loader call. Persistence and load are injected as ONE batch load
// callable and ONE batch store callable, so this layer stays independent of
// the codec/kvstore choices (bulk vs slice-split modes both plug in here)
// and of whether a coalescing broker sits in front of the persister.
#ifndef IPS_CACHE_GCACHE_H_
#define IPS_CACHE_GCACHE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/profile_data.h"
#include "core/types.h"

namespace ips {

struct GCacheOptions {
  /// LRU partitions (Fig 7). Power of two.
  size_t lru_shards = 8;
  /// Dirty-list partitions (Fig 9). Power of two.
  size_t dirty_shards = 4;
  /// Flush threads; must be a positive multiple of dirty_shards.
  size_t flush_threads = 4;
  /// Swap (eviction) threads.
  size_t swap_threads = 1;
  /// Hard memory budget for cached profiles, in bytes.
  size_t memory_limit_bytes = 256 << 20;
  /// Swapping starts when usage exceeds limit * high watermark and stops
  /// below limit * low watermark (the paper's clusters hold ~85% usage).
  double high_watermark = 0.85;
  double low_watermark = 0.80;
  /// Background thread cadence.
  int64_t swap_interval_ms = 50;
  int64_t flush_interval_ms = 100;
  /// Failed flushes tolerated per flush pass over one dirty shard: after
  /// this many the pass stops and requeues the untried remainder, so an
  /// injected storage outage cannot turn the flush thread into a tight
  /// retry loop over the whole dirty list.
  size_t max_flush_failures_per_pass = 8;
  /// Backoff between failing flush passes, doubling up to the max; reset by
  /// the first clean pass.
  int64_t flush_backoff_ms = 50;
  int64_t flush_backoff_max_ms = 2000;
  /// Largest group of dirty entries a flush pass hands to the store in one
  /// call (one storage round trip per group).
  size_t flush_batch_max = 64;
  /// When false no background threads start; tests drive SwapOnce/FlushOnce
  /// manually for determinism.
  bool start_background_threads = true;
  /// Write slice granularity for profiles created on first touch.
  int64_t write_granularity_ms = 60'000;
};

class VictimCache;

/// Loads many profiles in one storage round trip: the single funnel for
/// every cache miss. Results align with the pid list; NotFound marks
/// profiles that were never persisted. `out_degraded` (never null) aligns
/// with the pid list and flags profiles served from a fallback replica
/// (possibly stale); the cache carries the flag through to readers.
/// `deadline_ms` (absolute, in the cache clock's domain) bounds waits on
/// loads shared with other requests; pids unresolved at the deadline come
/// back DeadlineExceeded. A loader that cannot abandon its work ignores it.
using BatchLoadFn = std::function<std::vector<Result<ProfileData>>(
    const std::vector<ProfileId>&, std::vector<bool>* out_degraded,
    TimestampMs deadline_ms)>;
/// Persists many profiles in one storage round trip: the single funnel for
/// flush, eviction and Invalidate write-backs. Invoked on snapshots with NO
/// entry lock held, so the round trip never blocks readers or writers of
/// the entries being stored (a concurrent write is caught by an epoch
/// recheck afterwards). `epochs[i]` is the mutation epoch `profiles[i]` was
/// snapshotted at, so a coalescing store can tell an identical re-flush from
/// a newer one; a plain store ignores it. Returned statuses align with the
/// pid list — a batch can partially land.
using BatchStoreFn = std::function<std::vector<Status>(
    const std::vector<ProfileId>&, const std::vector<const ProfileData*>&,
    const std::vector<uint64_t>& epochs)>;
/// Encodes a profile into the victim tier's byte format (the persister's
/// compressed block format). Called on eviction snapshots with no lock held.
using VictimEncodeFn = std::function<void(const ProfileData&, std::string*)>;
/// Decodes victim-tier bytes back into a profile (promotion). Corruption on
/// malformed input: the promotion is abandoned and the miss falls through to
/// the loader.
using VictimDecodeFn = std::function<Status(std::string_view, ProfileData*)>;

class GCache {
 public:
  GCache(GCacheOptions options, Clock* clock, BatchStoreFn store,
         BatchLoadFn load, MetricsRegistry* metrics = nullptr);
  ~GCache();

  GCache(const GCache&) = delete;
  GCache& operator=(const GCache&) = delete;

  /// Batch read path (the spine of MultiQuery): resolves every pid to its
  /// entry — hits against the shard maps, ALL misses with one loader call —
  /// then runs `fn(index, profile)` under the entry lock for every present
  /// profile. `statuses` aligns with `pids`; unknown profiles get NotFound
  /// and no callback. Duplicate pids are coalesced for loading but each
  /// occurrence gets its own callback and status; occurrences of the same
  /// pid are served back-to-back, in input order, under ONE entry lock hold
  /// (callbacks are grouped by entry, not issued in strict input order).
  /// Returns the number of cache hits. `fn` runs under the entry lock and
  /// must not call back into the cache.
  /// `out_degraded`, when non-null, is filled aligned with `pids` and flags
  /// profiles that may be stale: loaded from a fallback replica, or served
  /// while the backing store is unhealthy (the resident copy cannot be
  /// revalidated or flushed). `deadline_ms` is handed to the loader (see
  /// BatchLoadFn).
  size_t WithProfiles(const std::vector<ProfileId>& pids,
                      const std::function<void(size_t, const ProfileData&)>& fn,
                      std::vector<Status>* statuses,
                      std::vector<bool>* out_degraded = nullptr,
                      TimestampMs deadline_ms =
                          std::numeric_limits<TimestampMs>::max());

  /// Batch write path (MultiAdd, the isolation merge): the write twin of
  /// WithProfiles. A pid the loader reports NotFound is created as an empty
  /// profile; any other load failure lands in its status with no callback.
  /// Each entry is locked once, its occurrences applied in input order, then
  /// re-measured and marked dirty once. Writes give the loader no deadline.
  /// Returns the number of cache hits.
  size_t WithProfilesMutable(const std::vector<ProfileId>& pids,
                             const std::function<void(size_t, ProfileData&)>& fn,
                             std::vector<Status>* statuses);

  /// Read path for one profile: a batch of one over WithProfiles.
  /// `out_was_hit`, when non-null, reports whether this was a cache hit —
  /// the Table II latency split keys on it; `out_degraded` as WithProfiles.
  Status WithProfile(ProfileId pid,
                     const std::function<void(const ProfileData&)>& fn,
                     bool* out_was_hit = nullptr,
                     bool* out_degraded = nullptr) {
    std::vector<Status> statuses;
    std::vector<bool> degraded;
    const size_t hits = WithProfiles(
        {pid}, [&fn](size_t, const ProfileData& profile) { fn(profile); },
        &statuses, &degraded);
    if (out_was_hit != nullptr) *out_was_hit = hits > 0;
    if (out_degraded != nullptr) *out_degraded = degraded[0];
    return statuses[0];
  }

  /// Write path for one profile: a batch of one over WithProfilesMutable.
  Status WithProfileMutable(ProfileId pid,
                            const std::function<void(ProfileData&)>& fn,
                            bool* out_was_hit = nullptr) {
    std::vector<Status> statuses;
    const size_t hits = WithProfilesMutable(
        {pid}, [&fn](size_t, ProfileData& profile) { fn(profile); },
        &statuses);
    if (out_was_hit != nullptr) *out_was_hit = hits > 0;
    return statuses[0];
  }

  /// Installs the compressed L2 victim tier (non-owning; must outlive the
  /// cache) together with the codec callbacks that translate between
  /// ProfileData and the tier's encoded-bytes format. With a tier installed:
  ///   * every lookup feeds the tier's admission sketch;
  ///   * every miss probes the tier (the cache.l2_lookup trace stage) and a
  ///     hit promotes the bytes back into L1 — decode instead of KV trip;
  ///   * eviction demotes written-back victims into the tier instead of
  ///     dropping them;
  ///   * Invalidate erases the pid from BOTH tiers.
  /// Not thread-safe w.r.t. concurrent reads; call during setup, right after
  /// construction.
  void set_victim_cache(VictimCache* victim, VictimEncodeFn encode,
                        VictimDecodeFn decode) {
    victim_cache_ = victim;
    victim_encode_ = std::move(encode);
    victim_decode_ = std::move(decode);
  }

  /// Maintenance write path (compaction): snapshots the profile under the
  /// entry lock, runs `work` on the snapshot with NO lock held, then commits
  /// the result back under the lock — but only if the entry's mutation
  /// epoch is unchanged (the same collect→work→commit discipline the flush
  /// and eviction paths use). A long pass therefore never pins the entry
  /// lock: serving writes and FlushShard proceed concurrently, and a pass
  /// that lost the race retries from a fresh snapshot (each lost race is
  /// counted as compaction.overlap_stalls), up to `max_retries` extra
  /// attempts before giving up with Aborted — harmless, later traffic
  /// re-triggers. `work` returns false to abandon the pass (nothing to
  /// change); the entry is left untouched and OK is returned.
  ///
  /// Unlike WithProfilesMutable this never faults the profile in from
  /// storage: NotFound for non-resident pids. Compacting an uncached
  /// profile would drag cold data into memory just to shrink it; persisted
  /// slices get compacted when real traffic next loads them.
  Status WithProfileOffLockMutate(ProfileId pid,
                                  const std::function<bool(ProfileData&)>& work,
                                  int max_retries = 2);

  /// Runs one eviction pass if usage exceeds the high watermark. Returns the
  /// number of entries evicted.
  size_t SwapOnce();

  /// Flushes every dirty entry in every shard; returns entries flushed.
  size_t FlushOnce();

  /// Flush + wait until the dirty lists are empty and no concurrent flush
  /// pass still holds a batch it took off them — on return every entry
  /// dirtied before the call has reached the store (shutdown, controlled
  /// failover, tests), unless the store kept failing.
  void FlushAll();

  /// Drops a clean entry from the cache (failover handover). Dirty entries
  /// are flushed first.
  Status Invalidate(ProfileId pid);

  /// Profile ids currently cached (ops sweeps, e.g. forced compaction).
  std::vector<ProfileId> CachedIds() const;

  size_t EntryCount() const;
  size_t MemoryBytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }
  double MemoryUsageRatio() const {
    // A zero limit means "unbounded" (degenerate test configs); report 0
    // rather than dividing by zero.
    if (options_.memory_limit_bytes == 0) return 0.0;
    return static_cast<double>(MemoryBytes()) /
           static_cast<double>(options_.memory_limit_bytes);
  }
  size_t DirtyCount() const;

  /// Lifetime hit ratio in [0,1]; 0 when no lookups yet.
  double HitRatio() const;

  /// Whether the backing store is currently considered unhealthy (last
  /// flush/load against it failed with Unavailable). While set, every hit
  /// is reported degraded — the resident copy cannot be revalidated.
  bool StoreUnhealthy() const {
    return store_unhealthy_.load(std::memory_order_relaxed);
  }

  const GCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    ProfileId pid = 0;
    ProfileData profile;
    std::mutex mu;
    /// Approximate bytes, maintained under mu, mirrored into shard/global
    /// accounting.
    size_t bytes = 0;
    bool dirty = false;
    /// Loaded from a fallback replica (may be stale). Guarded by mu; cleared
    /// by the first successful flush (the entry's state then reached the
    /// primary store and is authoritative again).
    bool degraded = false;
    /// Bumped (under mu) on every mutation. Flush passes snapshot the
    /// profile plus this epoch, store WITHOUT the entry lock, then recheck:
    /// an entry re-dirtied mid-flight keeps its dirty bit and requeues
    /// instead of silently losing the newer write.
    uint64_t mutation_epoch = 0;
    /// Guarded by the owning DirtyShard's mutex.
    bool in_dirty_list = false;
    /// Set (under mu) when the entry is removed from its shard map by
    /// eviction or Invalidate. A mutator holding a stale EntryPtr from
    /// before the removal must NOT write into it — the entry is unmapped,
    /// nothing would ever flush the write — so the write path rechecks this
    /// after locking and resolves the pid again instead.
    bool evicted = false;

    Entry(ProfileId id, ProfileData data)
        : pid(id), profile(std::move(data)) {}
  };
  using EntryPtr = std::shared_ptr<Entry>;

  struct LruShard {
    /// Map payload: the entry plus its position in the LRU list, so a hit
    /// resolves entry AND recency bookkeeping with ONE hash probe (the old
    /// layout kept a separate pid -> iterator map and paid a second probe
    /// per touch).
    struct Slot {
      EntryPtr entry;
      std::list<ProfileId>::iterator lru_it;
    };
    mutable std::mutex mu;
    std::unordered_map<ProfileId, Slot> map;
    /// Most-recent at front. Kept strictly in sync with `map` under `mu`.
    std::list<ProfileId> lru;
    std::atomic<size_t> bytes{0};
  };

  struct DirtyShard {
    mutable std::mutex mu;
    std::list<ProfileId> dirty;
    /// FlushShard passes in flight on this shard: the batch a pass took off
    /// `dirty` is in neither the list nor the store until the pass ends.
    /// `idle` is notified when a pass ends.
    size_t passes = 0;
    std::condition_variable idle;
  };

  size_t LruIndex(ProfileId pid) const;
  size_t DirtyIndex(ProfileId pid) const;

  /// Loads `pids` (unique, sorted): victim-tier promotions first, the loader
  /// for the rest. Results and `out_degraded` align with `pids`. The single
  /// funnel for every miss in the cache.
  std::vector<Result<ProfileData>> LoadMisses(
      const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded,
      TimestampMs deadline_ms);

  /// Probes the victim tier for `pid` (caller wraps in the cache.l2_lookup
  /// span); on a hit the bytes are taken out of the tier and decoded into
  /// `*out` (promotion), `*out_degraded` carries the demoted staleness mark.
  /// False on tier miss — and on decode failure, where the corrupt bytes are
  /// simply dropped and the miss falls through to the loader.
  bool TryPromoteFromL2(ProfileId pid, ProfileData* out, bool* out_degraded);

  /// Moves the slot's pid to the LRU front (shard lock held). Splicing via
  /// the stored iterator: no second hash probe.
  void TouchLru(LruShard& shard, LruShard::Slot& slot);

  /// Reusable per-thread buffers for the batch paths, so the warm batch
  /// read path does no steady-state allocation of its own.
  struct BatchScratch;
  static BatchScratch& ThreadBatchScratch();

  /// The one routine that turns pids into entries for serving: probes the
  /// shard maps for the occurrences in `scratch.pending` (one hash probe
  /// each, plus the victim-sketch bump), counts cache.hit / cache.miss /
  /// cache.batch_loads, loads every unique miss with ONE LoadMisses call
  /// outside all shard locks and inserts what came back. Fills
  /// `scratch.entries[i]`, or `(*statuses)[i]` when the pid cannot be
  /// served. With `create_if_missing` (writes) a NotFound load becomes an
  /// empty profile; without it (reads) NotFound is reported. Returns hits.
  size_t ResolveEntries(const std::vector<ProfileId>& pids,
                        bool create_if_missing, TimestampMs deadline_ms,
                        BatchScratch& scratch, std::vector<Status>* statuses);

  /// The grouped serve loop behind WithProfiles (`mutate` false) and
  /// WithProfilesMutable (`mutate` true). With `mutate`, an occurrence whose
  /// entry was unmapped (Entry::evicted) between resolve and lock is
  /// resolved again in a further round instead of written into the dead
  /// entry.
  size_t ServeBatch(const std::vector<ProfileId>& pids, bool mutate,
                    const std::function<void(size_t, ProfileData&)>& fn,
                    std::vector<Status>* statuses,
                    std::vector<bool>* out_degraded, TimestampMs deadline_ms);

  /// Re-measures entry bytes (entry lock held) and fixes accounting.
  void UpdateAccounting(LruShard& shard, Entry& entry);

  void MarkDirty(Entry& entry);

  /// Evicts from `shard` until `target_bytes` freed or shard exhausted.
  /// Victims are collected (and snapshotted) under shard.mu, written back
  /// and encoded for demotion with NO lock held, then committed one at a
  /// time under shard.mu + entry lock with the flush path's mutation-epoch
  /// recheck — an entry re-dirtied during the unlocked round trip stays
  /// resident and keeps its newer state.
  size_t EvictFromShard(LruShard& shard, size_t target_bytes);

  /// Where a store-health observation came from. Batch observations are the
  /// flush/load passes that sweep many pids — representative of the store's
  /// real state, so one success clears the unhealthy flag. Point
  /// observations are single-pid eviction/Invalidate write-backs; one lucky
  /// point success mid-outage used to clear the flag while batch loads were
  /// still failing (flapping), so the point path needs
  /// kPointHealthClearStreak consecutive successes to clear it.
  enum class StoreHealthSource { kBatch, kPoint };
  static constexpr int kPointHealthClearStreak = 3;

  /// Marks the backing store healthy/unhealthy from a flush/load outcome.
  void NoteStoreHealth(const Status& status,
                       StoreHealthSource source = StoreHealthSource::kBatch);

  /// An unlocked copy of an entry's profile at one mutation epoch: what the
  /// flush, eviction and Invalidate write-backs hand to the store. Their
  /// commit relocks the entry and compares epochs, so a write that landed
  /// during the round trip keeps the entry dirty.
  struct Snapshot {
    EntryPtr entry;
    ProfileData profile;
    uint64_t epoch = 0;
  };

  /// The one store round trip, shared by flush, eviction and Invalidate:
  /// hands the snapshots to the store with no lock held and returns
  /// statuses aligned with `snapshots` (a short result list fails them
  /// all). Counts cache.flushed / cache.flush_failures and notes store
  /// health from `source`.
  std::vector<Status> StoreSnapshots(
      const std::vector<const Snapshot*>& snapshots,
      StoreHealthSource source);

  /// Flushes all entries queued in one dirty shard. Stops early after
  /// max_flush_failures_per_pass failed flushes (requeueing the untried
  /// remainder); `out_failures`, when non-null, reports the failure count.
  size_t FlushShard(DirtyShard& shard, size_t* out_failures = nullptr);

  /// Waits until no FlushShard pass is in flight on any shard, then returns
  /// the number of queued dirty entries.
  size_t DirtyCountAfterPasses();

  void SwapLoop();
  void FlushLoop(size_t thread_index);

  /// Inserts a freshly loaded entry into its shard, or adopts the entry a
  /// concurrent loader already established. Returns the entry to use.
  EntryPtr InsertLoaded(ProfileId pid, ProfileData loaded, bool degraded);

  GCacheOptions options_;
  Clock* clock_;
  BatchStoreFn store_;
  BatchLoadFn load_;
  /// Non-owning; installed at setup (see set_victim_cache).
  VictimCache* victim_cache_ = nullptr;
  VictimEncodeFn victim_encode_;
  VictimDecodeFn victim_decode_;
  // Cached metric handles (null when no registry is wired).
  Counter* hit_ = nullptr;
  Counter* miss_ = nullptr;
  Counter* batch_loads_ = nullptr;
  Counter* batch_flushes_ = nullptr;
  Counter* flushed_ = nullptr;
  Counter* flush_failures_ = nullptr;
  Counter* evicted_ = nullptr;
  Counter* demoted_ = nullptr;
  Counter* l2_decode_failures_ = nullptr;
  Counter* overlap_stalls_ = nullptr;

  std::vector<std::unique_ptr<LruShard>> lru_shards_;
  std::vector<std::unique_ptr<DirtyShard>> dirty_shards_;
  std::atomic<size_t> memory_bytes_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<bool> store_unhealthy_{false};
  /// Consecutive successful point write-backs observed while unhealthy; see
  /// StoreHealthSource.
  std::atomic<int> point_success_streak_{0};

  std::atomic<bool> shutdown_{false};
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  std::vector<std::thread> background_threads_;
};

}  // namespace ips

#endif  // IPS_CACHE_GCACHE_H_
