#include "cache/gcache.h"

#include <algorithm>

#include "cache/victim_cache.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/trace.h"

namespace ips {

namespace {

size_t RoundUpPow2(size_t n) {
  if (n == 0) return 1;
  while ((n & (n - 1)) != 0) ++n;
  return n;
}

}  // namespace

GCache::GCache(GCacheOptions options, Clock* clock, BatchStoreFn store,
               BatchLoadFn load, MetricsRegistry* metrics)
    : options_(options),
      clock_(clock),
      store_(std::move(store)),
      load_(std::move(load)) {
  if (metrics != nullptr) {
    hit_ = metrics->GetCounter("cache.hit");
    miss_ = metrics->GetCounter("cache.miss");
    batch_loads_ = metrics->GetCounter("cache.batch_loads");
    batch_flushes_ = metrics->GetCounter("cache.batch_flushes");
    flushed_ = metrics->GetCounter("cache.flushed");
    flush_failures_ = metrics->GetCounter("cache.flush_failures");
    evicted_ = metrics->GetCounter("cache.evicted");
    demoted_ = metrics->GetCounter("cache.demoted");
    l2_decode_failures_ = metrics->GetCounter("cache_l2.decode_failures");
    overlap_stalls_ = metrics->GetCounter("compaction.overlap_stalls");
  }
  options_.lru_shards = RoundUpPow2(options_.lru_shards);
  options_.dirty_shards = RoundUpPow2(options_.dirty_shards);
  if (options_.flush_threads < options_.dirty_shards) {
    options_.flush_threads = options_.dirty_shards;
  }
  // Round flush threads up to a multiple of the shard count so the shards
  // are covered evenly (the Fig 9 constraint).
  if (options_.flush_threads % options_.dirty_shards != 0) {
    options_.flush_threads +=
        options_.dirty_shards -
        options_.flush_threads % options_.dirty_shards;
  }
  for (size_t i = 0; i < options_.lru_shards; ++i) {
    lru_shards_.push_back(std::make_unique<LruShard>());
  }
  for (size_t i = 0; i < options_.dirty_shards; ++i) {
    dirty_shards_.push_back(std::make_unique<DirtyShard>());
  }
  if (options_.start_background_threads) {
    for (size_t i = 0; i < options_.swap_threads; ++i) {
      background_threads_.emplace_back([this] { SwapLoop(); });
    }
    for (size_t i = 0; i < options_.flush_threads; ++i) {
      background_threads_.emplace_back([this, i] { FlushLoop(i); });
    }
  }
}

GCache::~GCache() {
  shutdown_.store(true, std::memory_order_relaxed);
  bg_cv_.notify_all();
  for (auto& t : background_threads_) t.join();
  // Final write-back so no acknowledged update is lost on clean shutdown.
  FlushAll();
}

size_t GCache::LruIndex(ProfileId pid) const {
  return Mix64(pid) & (options_.lru_shards - 1);
}

size_t GCache::DirtyIndex(ProfileId pid) const {
  // Use a different bit range than the LRU shard index so the two shardings
  // are independent.
  return (Mix64(pid) >> 17) & (options_.dirty_shards - 1);
}

void GCache::TouchLru(LruShard& shard, LruShard::Slot& slot) {
  shard.lru.splice(shard.lru.begin(), shard.lru, slot.lru_it);
}

GCache::EntryPtr GCache::InsertLoaded(ProfileId pid, ProfileData loaded,
                                      bool degraded) {
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  auto entry = std::make_shared<Entry>(pid, std::move(loaded));
  {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    entry->bytes = entry->profile.ApproximateBytes();
    entry->degraded = degraded;
  }

  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(pid);
  if (!inserted) {
    // Lost a race with a concurrent loader; use the established entry and
    // drop ours. (Its loaded contents are equivalent.)
    TouchLru(shard, it->second);
    return it->second.entry;
  }
  shard.lru.push_front(pid);
  it->second.entry = entry;
  it->second.lru_it = shard.lru.begin();
  shard.bytes.fetch_add(entry->bytes, std::memory_order_relaxed);
  memory_bytes_.fetch_add(entry->bytes, std::memory_order_relaxed);
  return entry;
}

bool GCache::TryPromoteFromL2(ProfileId pid, ProfileData* out,
                              bool* out_degraded) {
  std::string encoded;
  bool degraded = false;
  if (!victim_cache_->Take(pid, &encoded, &degraded)) return false;
  const Status decoded = victim_decode_(encoded, out);
  if (!decoded.ok()) {
    // Corrupt demoted bytes: Take already removed them, so the tier cannot
    // serve them again; the miss falls through to the authoritative store.
    if (l2_decode_failures_ != nullptr) l2_decode_failures_->Increment();
    return false;
  }
  *out_degraded = degraded;
  return true;
}

struct GCache::BatchScratch {
  std::vector<EntryPtr> entries;  // aligned with the batch's pids
  /// Occurrence indices the current resolve round covers.
  std::vector<uint32_t> pending;
  /// (pid, occurrence index) per missing occurrence; sorted to group
  /// duplicates without a per-call hash map.
  std::vector<std::pair<ProfileId, uint32_t>> misses;
  std::vector<ProfileId> miss_pids;  // unique, in loader order
  /// Serve order: occurrence indices grouped by entry.
  std::vector<uint32_t> order;
};

GCache::BatchScratch& GCache::ThreadBatchScratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

std::vector<Result<ProfileData>> GCache::LoadMisses(
    const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded,
    TimestampMs deadline_ms) {
  // Victim tier first: misses served by promoting demoted bytes never reach
  // the loader at all — a decode instead of a storage round trip.
  const bool tiered = victim_cache_ != nullptr;
  std::vector<Result<ProfileData>> results;
  std::vector<ProfileId> remaining;
  std::vector<size_t> remaining_ix;  // positions in `pids` still to load
  if (tiered) {
    ScopedSpan l2_span("cache.l2_lookup");
    out_degraded->assign(pids.size(), false);
    results.assign(pids.size(),
                   Result<ProfileData>(Status::NotFound("unresolved")));
    for (size_t i = 0; i < pids.size(); ++i) {
      ProfileData promoted(options_.write_granularity_ms);
      bool promoted_degraded = false;
      if (TryPromoteFromL2(pids[i], &promoted, &promoted_degraded)) {
        results[i] = std::move(promoted);
        (*out_degraded)[i] = promoted_degraded;
      } else {
        remaining.push_back(pids[i]);
        remaining_ix.push_back(i);
      }
    }
    if (remaining.empty()) return results;
  }
  const std::vector<ProfileId>& load_pids = tiered ? remaining : pids;

  // Dispatch what the tier could not serve.
  std::vector<bool> loaded_degraded(load_pids.size(), false);
  std::vector<Result<ProfileData>> loaded =
      load_(load_pids, &loaded_degraded, deadline_ms);
  if (loaded.size() != load_pids.size()) {
    loaded.assign(load_pids.size(),
                  Result<ProfileData>(Status::Internal(
                      "batch loader returned a short result list")));
  }
  if (loaded_degraded.size() != load_pids.size()) {
    loaded_degraded.assign(load_pids.size(), false);
  }

  // Store health is judged ONLY on outcomes that actually touched the
  // loader: a degraded profile served out of the victim tier carries its
  // historical staleness mark and says nothing about the store's current
  // state.
  bool any_unavailable = false;
  bool any_degraded = false;
  for (size_t m = 0; m < loaded.size(); ++m) {
    if (!loaded[m].ok()) {
      if (loaded[m].status().IsUnavailable()) any_unavailable = true;
    } else if (loaded_degraded[m]) {
      any_degraded = true;
    }
  }
  NoteStoreHealth(any_unavailable || any_degraded
                      ? Status::Unavailable("batch load")
                      : Status::OK());

  if (!tiered) {
    *out_degraded = std::move(loaded_degraded);
    return loaded;
  }
  for (size_t m = 0; m < remaining_ix.size(); ++m) {
    results[remaining_ix[m]] = std::move(loaded[m]);
    (*out_degraded)[remaining_ix[m]] = loaded_degraded[m];
  }
  return results;
}

size_t GCache::ResolveEntries(const std::vector<ProfileId>& pids,
                              bool create_if_missing, TimestampMs deadline_ms,
                              BatchScratch& scratch,
                              std::vector<Status>* statuses) {
  // Phase 1: partition into hits and misses against the shard maps — a
  // single hash probe per pid resolves the entry and its LRU position
  // together. Misses are coalesced (via sort, not a per-call hash map) so
  // each unique pid is loaded once even when the incoming batch carries
  // duplicates. The cache.lookup span covers this in-memory partition; the
  // storage round trip (phase 2) reports itself as kv.load / codec.decode
  // from the layers that do the work.
  size_t hits = 0;
  auto& entries = scratch.entries;
  auto& misses = scratch.misses;
  auto& miss_pids = scratch.miss_pids;
  {
    ScopedSpan lookup_span("cache.lookup");
    misses.clear();
    miss_pids.clear();
    for (const uint32_t i : scratch.pending) {
      const ProfileId pid = pids[i];
      LruShard& shard = *lru_shards_[LruIndex(pid)];
      // Every lookup — hit or miss, every occurrence — feeds the victim
      // tier's admission sketch, outside the shard lock: a profile hot
      // because it is L1-resident must still look hot to the admission
      // check when it is eventually demoted.
      if (victim_cache_ != nullptr) victim_cache_->RecordAccess(pid);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(pid);
      if (it != shard.map.end()) {
        TouchLru(shard, it->second);
        entries[i] = it->second.entry;
        ++hits;
        continue;
      }
      entries[i].reset();
      misses.emplace_back(pid, i);
    }
    std::sort(misses.begin(), misses.end());
    for (const auto& [pid, i] : misses) {
      if (miss_pids.empty() || miss_pids.back() != pid) {
        miss_pids.push_back(pid);
      }
    }
    hits_.fetch_add(static_cast<int64_t>(hits), std::memory_order_relaxed);
    misses_.fetch_add(static_cast<int64_t>(miss_pids.size()),
                      std::memory_order_relaxed);
    if (hits > 0 && hit_ != nullptr) {
      hit_->Increment(static_cast<int64_t>(hits));
    }
    if (!miss_pids.empty() && miss_ != nullptr) {
      miss_->Increment(static_cast<int64_t>(miss_pids.size()));
      batch_loads_->Increment();
    }
  }
  if (miss_pids.empty()) return hits;

  // Phase 2: one LoadMisses call covers every miss, outside all shard locks
  // (loads can take milliseconds and must not block unrelated traffic on a
  // shard). With a broker behind the loader, concurrent requests' misses
  // merge into one storage round trip and hot pids already on the wire are
  // joined, not refetched. Store health is noted inside LoadMisses.
  std::vector<bool> loaded_degraded;
  std::vector<Result<ProfileData>> loaded =
      LoadMisses(miss_pids, &loaded_degraded, deadline_ms);
  // Integrating loaded profiles back into the shard maps (entry creation,
  // LRU insert, accounting) is cache-index work like the phase-1 probe, so
  // it reports under the same cache.lookup stage.
  ScopedSpan insert_span("cache.lookup");
  size_t cursor = 0;  // walks `misses`, whose pids ascend like miss_pids
  for (size_t m = 0; m < miss_pids.size(); ++m) {
    const ProfileId pid = miss_pids[m];
    const size_t begin = cursor;
    while (cursor < misses.size() && misses[cursor].first == pid) ++cursor;
    EntryPtr entry;
    if (loaded[m].ok()) {
      entry = InsertLoaded(pid, std::move(loaded[m]).value(),
                           loaded_degraded[m]);
    } else if (create_if_missing && loaded[m].status().IsNotFound()) {
      entry = InsertLoaded(pid, ProfileData(options_.write_granularity_ms),
                           /*degraded=*/false);
    }
    for (size_t x = begin; x < cursor; ++x) {
      if (entry) {
        entries[misses[x].second] = entry;
      } else {
        (*statuses)[misses[x].second] = loaded[m].status();
      }
    }
  }
  return hits;
}

size_t GCache::ServeBatch(const std::vector<ProfileId>& pids, bool mutate,
                          const std::function<void(size_t, ProfileData&)>& fn,
                          std::vector<Status>* statuses,
                          std::vector<bool>* out_degraded,
                          TimestampMs deadline_ms) {
  BatchScratch& scratch = ThreadBatchScratch();
  auto& entries = scratch.entries;
  auto& pending = scratch.pending;
  auto& order = scratch.order;
  {
    ScopedSpan setup_span("cache.lookup");
    statuses->assign(pids.size(), Status::OK());
    if (out_degraded != nullptr) out_degraded->assign(pids.size(), false);
    entries.assign(pids.size(), EntryPtr());
    pending.resize(pids.size());
    for (size_t i = 0; i < pids.size(); ++i) {
      pending[i] = static_cast<uint32_t>(i);
    }
  }
  size_t hits = 0;
  while (!pending.empty()) {
    hits += ResolveEntries(pids, /*create_if_missing=*/mutate, deadline_ms,
                           scratch, statuses);
    // Serve each present profile under its entry lock. Occurrences are
    // grouped by entry so every entry is locked exactly ONCE per round —
    // duplicate pids share a single lock hold, in input order, instead of
    // re-locking per occurrence. Entries are still locked one at a time, so
    // no lock-order concerns.
    const bool store_unhealthy = StoreUnhealthy();
    {
      // Grouping occurrences by entry is cache-index bookkeeping, same stage
      // as the probe. The locked serve loop below is not spanned — it nests
      // the caller's feature.compute spans.
      ScopedSpan group_span("cache.lookup");
      order.clear();
      for (const uint32_t i : pending) {
        if (entries[i]) order.push_back(i);
      }
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        const Entry* ea = entries[a].get();
        const Entry* eb = entries[b].get();
        if (ea != eb) return ea < eb;
        return a < b;  // per-entry occurrence order is input order
      });
      pending.clear();
    }
    for (size_t x = 0; x < order.size();) {
      Entry* const entry = entries[order[x]].get();
      size_t end = x + 1;
      while (end < order.size() && entries[order[end]].get() == entry) ++end;
      std::lock_guard<std::mutex> lock(entry->mu);
      if (mutate && entry->evicted) {
        // Unmapped by eviction/Invalidate since the resolve: a write into
        // it would be silently lost (no flush pass can reach it), so these
        // occurrences go round again. Terminates in practice: the next
        // resolve re-inserts the pid at the LRU front, where an eviction
        // pass cannot reach it without first draining the whole shard.
        pending.insert(pending.end(), order.begin() + x, order.begin() + end);
        x = end;
        continue;
      }
      const bool degraded = entry->degraded || store_unhealthy;
      for (; x < end; ++x) {
        fn(order[x], entry->profile);
        if (out_degraded != nullptr) (*out_degraded)[order[x]] = degraded;
      }
      if (mutate) {
        UpdateAccounting(*lru_shards_[LruIndex(entry->pid)], *entry);
        MarkDirty(*entry);
      }
    }
  }
  // Drop the entry references before the next batch reuses the buffer.
  entries.clear();
  return hits;
}

size_t GCache::WithProfiles(
    const std::vector<ProfileId>& pids,
    const std::function<void(size_t, const ProfileData&)>& fn,
    std::vector<Status>* statuses, std::vector<bool>* out_degraded,
    TimestampMs deadline_ms) {
  return ServeBatch(
      pids, /*mutate=*/false,
      [&fn](size_t i, ProfileData& profile) { fn(i, profile); }, statuses,
      out_degraded, deadline_ms);
}

size_t GCache::WithProfilesMutable(
    const std::vector<ProfileId>& pids,
    const std::function<void(size_t, ProfileData&)>& fn,
    std::vector<Status>* statuses) {
  return ServeBatch(pids, /*mutate=*/true, fn, statuses,
                    /*out_degraded=*/nullptr,
                    std::numeric_limits<TimestampMs>::max());
}

void GCache::UpdateAccounting(LruShard& shard, Entry& entry) {
  const size_t now_bytes = entry.profile.ApproximateBytes();
  const size_t old_bytes = entry.bytes;
  entry.bytes = now_bytes;
  if (now_bytes >= old_bytes) {
    const size_t delta = now_bytes - old_bytes;
    shard.bytes.fetch_add(delta, std::memory_order_relaxed);
    memory_bytes_.fetch_add(delta, std::memory_order_relaxed);
  } else {
    const size_t delta = old_bytes - now_bytes;
    shard.bytes.fetch_sub(delta, std::memory_order_relaxed);
    memory_bytes_.fetch_sub(delta, std::memory_order_relaxed);
  }
}

void GCache::MarkDirty(Entry& entry) {
  // Caller holds entry.mu. The epoch bump is what lets an unlocked
  // snapshot-flush detect writes that landed during its storage round trip.
  ++entry.mutation_epoch;
  if (entry.dirty) return;
  entry.dirty = true;
  DirtyShard& dshard = *dirty_shards_[DirtyIndex(entry.pid)];
  std::lock_guard<std::mutex> lock(dshard.mu);
  if (!entry.in_dirty_list) {
    dshard.dirty.push_back(entry.pid);
    entry.in_dirty_list = true;
  }
}

void GCache::NoteStoreHealth(const Status& status, StoreHealthSource source) {
  if (status.IsUnavailable()) {
    point_success_streak_.store(0, std::memory_order_relaxed);
    store_unhealthy_.store(true, std::memory_order_relaxed);
    return;
  }
  if (source == StoreHealthSource::kBatch) {
    // A batch pass swept many pids against the store — representative, so
    // one success clears the flag outright (and resets the point streak;
    // it is only meaningful as *consecutive* successes).
    point_success_streak_.store(0, std::memory_order_relaxed);
    store_unhealthy_.store(false, std::memory_order_relaxed);
    return;
  }
  // Point observation (single-pid eviction/Invalidate write-back). One lucky
  // success mid-outage must not clear the flag while batch traffic is still
  // failing — that flapped the degraded-read marking on and off. Require a
  // streak before trusting it.
  if (!store_unhealthy_.load(std::memory_order_relaxed)) return;
  const int streak =
      point_success_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= kPointHealthClearStreak) {
    point_success_streak_.store(0, std::memory_order_relaxed);
    store_unhealthy_.store(false, std::memory_order_relaxed);
  }
}

Status GCache::WithProfileOffLockMutate(
    ProfileId pid, const std::function<bool(ProfileData&)>& work,
    int max_retries) {
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    // Resolve the resident entry without touching LRU recency: a
    // maintenance pass reading a profile is not evidence of user interest,
    // and promoting victims-to-be would fight the eviction policy.
    EntryPtr entry;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(pid);
      if (it == shard.map.end()) {
        return Status::NotFound("profile not resident");
      }
      entry = it->second.entry;
    }
    ProfileData snapshot;
    uint64_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (entry->evicted) {
        // Unmapped between the shard lookup and the entry lock; re-resolve.
        continue;
      }
      snapshot = entry->profile;
      epoch = entry->mutation_epoch;
    }

    // The expensive part — merge/truncate/shrink — runs here with no lock
    // held, overlapping serving writes and dirty-shard flushes of the same
    // entry.
    if (!work(snapshot)) return Status::OK();

    {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (entry->evicted || entry->mutation_epoch != epoch) {
        // A write (or an eviction) landed during the unlocked pass.
        // Committing the stale snapshot would silently drop that write, so
        // throw this pass away and redo it from the current state.
        if (overlap_stalls_ != nullptr) overlap_stalls_->Increment();
        continue;
      }
      entry->profile = std::move(snapshot);
      UpdateAccounting(shard, *entry);
      MarkDirty(*entry);
    }
    return Status::OK();
  }
  return Status::Aborted("off-lock mutate kept losing the epoch race");
}

size_t GCache::EvictFromShard(LruShard& shard, size_t target_bytes) {
  // The eviction mirror of FlushShard's snapshot-then-store-unlocked design:
  // no KV millisecond of a dirty victim's write-back is spent holding
  // shard.mu, and the store is epoch-protected against concurrent writers.
  // Four phases:
  //   1. collect victims under shard.mu (try_lock probing, Fig 8),
  //      snapshotting profile + epoch one entry lock at a time;
  //   2. write dirty victims back through the store with NO lock held (a
  //      coalescing store merges an eviction storm with a flush storm);
  //   3. encode surviving victims for L2 demotion, still unlocked;
  //   4. commit per victim under shard.mu + entry try_lock with the flush
  //      path's mutation-epoch recheck — an entry re-dirtied during the
  //      round trip stays resident with its newer state. The demotion Put
  //      happens under shard.mu BEFORE the map erase, so no concurrent
  //      reload can slip a fresh entry in while stale bytes land in L2.
  struct Victim : Snapshot {
    bool dirty = false;
  };
  std::vector<Victim> victims;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    size_t planned = 0;
    auto it = shard.lru.end();
    while (planned < target_bytes && it != shard.lru.begin()) {
      --it;
      const ProfileId pid = *it;
      auto map_it = shard.map.find(pid);
      if (map_it == shard.map.end()) {
        // Stale pid in the list; drop it. (Unreachable now that the map slot
        // owns the list position, kept as a cheap guard.)
        it = shard.lru.erase(it);
        continue;
      }
      EntryPtr entry = map_it->second.entry;
      // Fig 8: probe with try_lock; a contended entry is being served right
      // now — skip it and move up the list instead of blocking.
      std::unique_lock<std::mutex> entry_lock(entry->mu, std::try_to_lock);
      if (!entry_lock.owns_lock()) continue;
      Victim v;
      v.epoch = entry->mutation_epoch;
      v.dirty = entry->dirty;
      // Clean victims only need the snapshot when a tier exists to demote
      // them into; dirty ones always need it for the write-back.
      if (entry->dirty || victim_cache_ != nullptr) {
        v.profile = entry->profile;
      }
      planned += entry->bytes;
      v.entry = std::move(entry);
      victims.push_back(std::move(v));
    }
  }
  if (victims.empty()) return 0;

  // Phase 2: dirty write-backs, no lock held. Point-source health: a lone
  // eviction success must not clear an outage flag batch traffic still sees.
  std::vector<Status> statuses(victims.size(), Status::OK());
  std::vector<size_t> dirty_ix;
  std::vector<const Snapshot*> dirty;
  for (size_t i = 0; i < victims.size(); ++i) {
    if (!victims[i].dirty) continue;
    dirty_ix.push_back(i);
    dirty.push_back(&victims[i]);
  }
  if (!dirty.empty()) {
    std::vector<Status> stored =
        StoreSnapshots(dirty, StoreHealthSource::kPoint);
    for (size_t k = 0; k < dirty_ix.size(); ++k) {
      statuses[dirty_ix[k]] = std::move(stored[k]);
    }
  }

  // Phase 3: encode demotions from the snapshots, still unlocked (the codec
  // walk can be hundreds of microseconds for large profiles). WouldAdmit
  // pre-check skips the encode for scan traffic the tier would reject.
  std::vector<std::string> encoded(victims.size());
  std::vector<bool> demote(victims.size(), false);
  if (victim_cache_ != nullptr) {
    for (size_t i = 0; i < victims.size(); ++i) {
      if (!statuses[i].ok()) continue;  // stays resident; nothing to demote
      if (!victim_cache_->WouldAdmit(victims[i].entry->pid)) continue;
      victim_encode_(victims[i].profile, &encoded[i]);
      demote[i] = true;
    }
  }

  // Phase 4: commit.
  size_t evicted = 0;
  size_t demoted = 0;
  for (size_t i = 0; i < victims.size(); ++i) {
    if (!statuses[i].ok()) continue;  // write-back failed: flush later, keep
    Victim& v = victims[i];
    const ProfileId pid = v.entry->pid;
    std::lock_guard<std::mutex> lock(shard.mu);
    auto map_it = shard.map.find(pid);
    if (map_it == shard.map.end() || map_it->second.entry != v.entry) {
      continue;  // already gone / replaced while unlocked
    }
    std::unique_lock<std::mutex> entry_lock(v.entry->mu, std::try_to_lock);
    if (!entry_lock.owns_lock()) continue;  // being served again — keep it
    Entry& entry = *v.entry;
    if (entry.mutation_epoch != v.epoch) continue;  // re-dirtied mid-flight
    if (v.dirty) {
      // The snapshot (== current state, by the epoch check) reached the
      // store: the entry is clean and authoritative again.
      entry.dirty = false;
      entry.degraded = false;
    }
    if (demote[i]) {
      if (victim_cache_->Put(pid, std::move(encoded[i]), entry.degraded)) {
        ++demoted;
      }
    }
    entry.evicted = true;
    const size_t bytes = entry.bytes;
    shard.lru.erase(map_it->second.lru_it);
    shard.map.erase(map_it);
    shard.bytes.fetch_sub(bytes, std::memory_order_relaxed);
    memory_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    ++evicted;
  }
  if (evicted > 0 && evicted_ != nullptr) {
    evicted_->Increment(static_cast<int64_t>(evicted));
  }
  if (demoted > 0 && demoted_ != nullptr) {
    demoted_->Increment(static_cast<int64_t>(demoted));
  }
  return evicted;
}

size_t GCache::SwapOnce() {
  const size_t high = static_cast<size_t>(
      static_cast<double>(options_.memory_limit_bytes) *
      options_.high_watermark);
  const size_t low = static_cast<size_t>(
      static_cast<double>(options_.memory_limit_bytes) *
      options_.low_watermark);
  size_t evicted = 0;
  // Evict starting from the largest shard until usage drops under the low
  // watermark (the paper's largest-shard-first strategy).
  while (MemoryBytes() > high) {
    LruShard* largest = nullptr;
    size_t largest_bytes = 0;
    for (auto& shard : lru_shards_) {
      const size_t b = shard->bytes.load(std::memory_order_relaxed);
      if (b > largest_bytes) {
        largest_bytes = b;
        largest = shard.get();
      }
    }
    if (largest == nullptr || largest_bytes == 0) break;
    const size_t over = MemoryBytes() - low;
    const size_t pass = EvictFromShard(*largest, std::min(over, largest_bytes));
    if (pass == 0) break;  // everything contended or dirty-unflushable
    evicted += pass;
    if (MemoryBytes() <= low) break;
  }
  return evicted;
}

std::vector<Status> GCache::StoreSnapshots(
    const std::vector<const Snapshot*>& snapshots, StoreHealthSource source) {
  std::vector<ProfileId> pids;
  std::vector<const ProfileData*> profiles;
  std::vector<uint64_t> epochs;
  pids.reserve(snapshots.size());
  profiles.reserve(snapshots.size());
  epochs.reserve(snapshots.size());
  for (const Snapshot* snap : snapshots) {
    pids.push_back(snap->entry->pid);
    profiles.push_back(&snap->profile);
    epochs.push_back(snap->epoch);
  }
  std::vector<Status> statuses = store_(pids, profiles, epochs);
  if (statuses.size() != pids.size()) {
    statuses.assign(pids.size(),
                    Status::Internal("store returned a short result list"));
  }
  size_t ok = 0;
  bool any_unavailable = false;
  for (const Status& status : statuses) {
    if (status.ok()) {
      ++ok;
    } else if (status.IsUnavailable()) {
      any_unavailable = true;
    }
  }
  NoteStoreHealth(any_unavailable ? Status::Unavailable("store write-back")
                                  : Status::OK(),
                  source);
  if (ok > 0 && flushed_ != nullptr) {
    flushed_->Increment(static_cast<int64_t>(ok));
  }
  if (ok < statuses.size() && flush_failures_ != nullptr) {
    flush_failures_->Increment(static_cast<int64_t>(statuses.size() - ok));
  }
  return statuses;
}

size_t GCache::FlushShard(DirtyShard& dshard, size_t* out_failures) {
  // Grab the current batch; new dirties accumulate behind it. Until the
  // pass ends the batch is only here, so the pass counts as in flight.
  std::list<ProfileId> batch;
  {
    std::lock_guard<std::mutex> lock(dshard.mu);
    batch.swap(dshard.dirty);
    ++dshard.passes;
  }
  const size_t group_max = std::max<size_t>(1, options_.flush_batch_max);
  size_t flushed = 0;
  size_t failures = 0;
  std::list<ProfileId> requeue;
  auto it = batch.begin();
  while (it != batch.end()) {
    if (failures >= options_.max_flush_failures_per_pass) {
      // The store is misbehaving: stop the pass and requeue the untried
      // remainder rather than grinding through the whole dirty list (the
      // caller backs off between passes).
      requeue.insert(requeue.end(), it, batch.end());
      break;
    }

    // Gather the next group as unlocked SNAPSHOTS: each entry's profile is
    // copied under its own lock — entries locked strictly one at a time —
    // together with its mutation epoch, then the lock drops. The storage
    // round trip below runs with NO entry lock held, so a multi-millisecond
    // store never blocks readers or writers of the entries being flushed.
    std::vector<Snapshot> group;
    while (it != batch.end() && group.size() < group_max) {
      const ProfileId pid = *it;
      ++it;
      LruShard& shard = *lru_shards_[LruIndex(pid)];
      EntryPtr entry;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        auto map_it = shard.map.find(pid);
        if (map_it != shard.map.end()) entry = map_it->second.entry;
      }
      if (!entry) continue;  // evicted (was flushed on eviction)
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      {
        std::lock_guard<std::mutex> dlock(dshard.mu);
        entry->in_dirty_list = false;
      }
      if (!entry->dirty) continue;
      ProfileData copy = entry->profile;
      const uint64_t epoch = entry->mutation_epoch;
      group.push_back(Snapshot{std::move(entry), std::move(copy), epoch});
    }
    if (group.empty()) continue;

    // One storage round trip per group, outside every entry lock.
    std::vector<const Snapshot*> refs;
    refs.reserve(group.size());
    for (const Snapshot& snap : group) refs.push_back(&snap);
    const std::vector<Status> statuses =
        StoreSnapshots(refs, StoreHealthSource::kBatch);
    if (batch_flushes_ != nullptr) batch_flushes_->Increment();

    // Commit: relock each entry and recheck its epoch. A write that landed
    // during the unlocked round trip means the store holds the snapshot but
    // the entry carries newer state — keep it dirty and requeue. The
    // snapshot itself persisted, so it still counts as progress.
    for (size_t g = 0; g < group.size(); ++g) {
      Entry& entry = *group[g].entry;
      std::lock_guard<std::mutex> entry_lock(entry.mu);
      if (statuses[g].ok()) {
        ++flushed;
        // The snapshot reached the primary store: whatever stale base the
        // entry was loaded from, the persisted copy is now the
        // authoritative merge.
        entry.degraded = false;
        if (entry.mutation_epoch == group[g].epoch) {
          entry.dirty = false;
          continue;
        }
      } else {
        ++failures;
      }
      std::lock_guard<std::mutex> dlock(dshard.mu);
      if (!entry.in_dirty_list) {
        requeue.push_back(entry.pid);
        entry.in_dirty_list = true;
      }
    }
  }
  {
    // Requeue and end the pass in one step, so a FlushAll that sees no pass
    // in flight also sees everything the pass put back.
    std::lock_guard<std::mutex> lock(dshard.mu);
    dshard.dirty.splice(dshard.dirty.end(), requeue);
    --dshard.passes;
  }
  dshard.idle.notify_all();
  if (out_failures != nullptr) *out_failures = failures;
  return flushed;
}

size_t GCache::FlushOnce() {
  size_t total = 0;
  for (auto& shard : dirty_shards_) total += FlushShard(*shard);
  return total;
}

void GCache::FlushAll() {
  // Loop because flushes may fail transiently (injected storage errors) and
  // new dirties can appear. Failing rounds back off (doubling, capped) and
  // the loop gives up after a few rounds of zero progress — a dead store at
  // shutdown must not hold the destructor hostage.
  int64_t backoff_ms = 0;
  int stuck_rounds = 0;
  for (int round = 0; round < 64; ++round) {
    size_t failures = 0;
    size_t flushed = 0;
    for (auto& shard : dirty_shards_) {
      size_t shard_failures = 0;
      flushed += FlushShard(*shard, &shard_failures);
      failures += shard_failures;
    }
    // Done only once no other pass (a background flusher) still holds a
    // batch it swapped out before this call.
    if (flushed == 0 && failures == 0 && DirtyCountAfterPasses() == 0) return;
    if (flushed > 0) {
      backoff_ms = 0;
      stuck_rounds = 0;
      if (failures == 0) continue;
    } else if (++stuck_rounds >= 4) {
      // Zero progress — regardless of the failure count: a pass can flush
      // nothing while reporting no failures (e.g. max_flush_failures_per_pass
      // of 0 requeues everything untried), and that must back off and bail
      // like any other stuck pass instead of busy-spinning 64 rounds.
      break;
    }
    backoff_ms = std::min(options_.flush_backoff_max_ms,
                          backoff_ms > 0 ? backoff_ms * 2
                                         : options_.flush_backoff_ms);
    clock_->SleepMs(backoff_ms);
  }
  IPS_LOG(Warn) << "FlushAll: dirty entries remain after bounded retries";
}

Status GCache::Invalidate(ProfileId pid) {
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  // The profile must leave EVERY tier: stale demoted bytes left in L2 would
  // serve a later miss after the handover.
  if (victim_cache_ != nullptr) victim_cache_->Erase(pid);
  // Same snapshot → unlocked store → epoch-checked commit discipline as
  // FlushShard and EvictFromShard. The erase only happens after
  // re-acquiring both locks and re-checking `dirty`: a write that slipped in
  // during the store (or between commit and erase) sends us back around to
  // store again instead of being discarded with the entry.
  for (int attempt = 0; attempt < 16; ++attempt) {
    EntryPtr entry;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(pid);
      if (it == shard.map.end()) return Status::OK();
      entry = it->second.entry;
    }
    Snapshot snap;
    {
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      if (entry->evicted) continue;  // raced an eviction; re-probe the map
      if (entry->dirty) {
        snap = Snapshot{entry, entry->profile, entry->mutation_epoch};
      }
    }
    if (snap.entry) {
      Status status = StoreSnapshots({&snap}, StoreHealthSource::kPoint)[0];
      if (!status.ok()) return status;
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      entry->degraded = false;
      if (entry->mutation_epoch == snap.epoch) entry->dirty = false;
    }
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(pid);
    if (it == shard.map.end() || it->second.entry != entry) {
      return Status::OK();
    }
    std::unique_lock<std::mutex> entry_lock(entry->mu, std::try_to_lock);
    // Contended: a writer may hold the lock right now — re-run the flush
    // check rather than erasing state we have not re-examined.
    if (!entry_lock.owns_lock()) continue;
    if (entry->dirty) continue;  // re-dirtied in the window: store again
    entry->evicted = true;
    shard.lru.erase(it->second.lru_it);
    shard.map.erase(it);
    shard.bytes.fetch_sub(entry->bytes, std::memory_order_relaxed);
    memory_bytes_.fetch_sub(entry->bytes, std::memory_order_relaxed);
    return Status::OK();
  }
  return Status::Aborted("invalidate: entry kept being re-dirtied");
}

std::vector<ProfileId> GCache::CachedIds() const {
  std::vector<ProfileId> ids;
  for (const auto& shard : lru_shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [pid, slot] : shard->map) ids.push_back(pid);
  }
  return ids;
}

size_t GCache::EntryCount() const {
  size_t total = 0;
  for (const auto& shard : lru_shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

size_t GCache::DirtyCountAfterPasses() {
  size_t total = 0;
  for (auto& shard : dirty_shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->idle.wait(lock, [&] { return shard->passes == 0; });
    total += shard->dirty.size();
  }
  return total;
}

size_t GCache::DirtyCount() const {
  size_t total = 0;
  for (const auto& shard : dirty_shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->dirty.size();
  }
  return total;
}

double GCache::HitRatio() const {
  const int64_t h = hits_.load(std::memory_order_relaxed);
  const int64_t m = misses_.load(std::memory_order_relaxed);
  return h + m == 0 ? 0.0
                    : static_cast<double>(h) / static_cast<double>(h + m);
}

void GCache::SwapLoop() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (!shutdown_.load(std::memory_order_relaxed)) {
    bg_cv_.wait_for(lock,
                    std::chrono::milliseconds(options_.swap_interval_ms));
    if (shutdown_.load(std::memory_order_relaxed)) return;
    lock.unlock();
    SwapOnce();
    lock.lock();
  }
}

void GCache::FlushLoop(size_t thread_index) {
  DirtyShard& my_shard =
      *dirty_shards_[thread_index % options_.dirty_shards];
  int64_t backoff_ms = 0;  // extra wait after failing passes, doubling
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (!shutdown_.load(std::memory_order_relaxed)) {
    bg_cv_.wait_for(lock, std::chrono::milliseconds(
                              options_.flush_interval_ms + backoff_ms));
    if (shutdown_.load(std::memory_order_relaxed)) return;
    lock.unlock();
    size_t failures = 0;
    FlushShard(my_shard, &failures);
    if (failures == 0) {
      backoff_ms = 0;
    } else {
      backoff_ms = std::min(options_.flush_backoff_max_ms,
                            backoff_ms > 0 ? backoff_ms * 2
                                           : options_.flush_backoff_ms);
    }
    lock.lock();
  }
}

}  // namespace ips
