#include "cache/store_broker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/gcache.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "kvstore/mem_kv_store.h"
#include "server/ips_instance.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;

ProfileData MakeProfile(FeatureId fid) {
  ProfileData profile(kMinute);
  profile.Add(kMinute, 1, 1, fid, CountVector{1}).ok();
  return profile;
}

// Blocks the store callback until the test opens the gate, and lets the test
// wait until the callback has actually entered (i.e. the write is on the
// wire), so piggyback-vs-requeue ordering is deterministic.
struct StoreGate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool open = false;

  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

// Polls (wall clock) until pred holds; fails the test after ~5s.
template <typename Pred>
::testing::AssertionResult Eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return ::testing::AssertionSuccess();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return ::testing::AssertionFailure() << "condition not reached within 5s";
}

// Records each dispatched chunk's pids AND snapshot pointers, so tests can
// assert which epoch's bytes rode which round trip.
struct StoreRecorder {
  std::atomic<int> calls{0};
  std::mutex mu;
  std::vector<std::vector<ProfileId>> batches;
  std::vector<std::vector<const ProfileData*>> profile_batches;
};

BrokerStoreFn CountingStore(StoreRecorder* rec, StoreGate* gate = nullptr) {
  return [rec, gate](const std::vector<ProfileId>& pids,
                     const std::vector<const ProfileData*>& profiles) {
    rec->calls.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(rec->mu);
      rec->batches.push_back(pids);
      rec->profile_batches.push_back(profiles);
    }
    if (gate != nullptr) gate->Enter();
    return std::vector<Status>(pids.size(), Status::OK());
  };
}

TEST(StoreBrokerTest, SameEpochReflushPiggybacksOnInFlightWrite) {
  MetricsRegistry metrics;
  StoreRecorder rec;
  StoreGate gate;
  StoreBrokerOptions options;
  options.window_micros = 0;  // single-flight only
  StoreBroker broker(options, CountingStore(&rec, &gate), &metrics);

  const ProfileData snapshot = MakeProfile(1);
  std::optional<std::vector<Status>> leader_results, follower_results;
  std::thread leader([&] {
    leader_results = broker.Store({7}, {&snapshot}, {5});
  });
  gate.AwaitEntered();  // epoch-5 write is now on the wire, gate closed

  // A second flush of pid 7 with the SAME snapshot epoch: the in-flight
  // bytes are identical, so it rides the pending write instead of paying a
  // second round trip.
  std::thread follower([&] {
    follower_results = broker.Store({7}, {&snapshot}, {5});
  });
  ASSERT_TRUE(Eventually([&] {
    return metrics.GetCounter("store_broker.single_flight_hits")->Value() ==
           1;
  }));
  gate.Open();
  leader.join();
  follower.join();

  EXPECT_EQ(rec.calls.load(), 1);  // two flushes, ONE kv.store
  ASSERT_EQ(leader_results->size(), 1u);
  EXPECT_TRUE((*leader_results)[0].ok());
  ASSERT_EQ(follower_results->size(), 1u);
  EXPECT_TRUE((*follower_results)[0].ok());
  EXPECT_EQ(metrics.GetCounter("store_broker.requeued_pids")->Value(), 0);
  EXPECT_EQ(broker.InFlightCount(), 0u);
}

TEST(StoreBrokerTest, NewerEpochRequeuesBehindInFlightWrite) {
  MetricsRegistry metrics;
  StoreRecorder rec;
  StoreGate gate;
  StoreBrokerOptions options;
  options.window_micros = 0;
  StoreBroker broker(options, CountingStore(&rec, &gate), &metrics);

  const ProfileData old_snapshot = MakeProfile(1);
  const ProfileData new_snapshot = MakeProfile(2);
  std::optional<std::vector<Status>> leader_results, follower_results;
  std::thread leader([&] {
    leader_results = broker.Store({7}, {&old_snapshot}, {5});
  });
  gate.AwaitEntered();

  // The pid was re-dirtied while its epoch-5 store is on the wire: the
  // epoch-6 snapshot must still be written, but only AFTER the older write
  // lands (per-pid writes stay in epoch order — never concurrent).
  std::thread follower([&] {
    follower_results = broker.Store({7}, {&new_snapshot}, {6});
  });
  ASSERT_TRUE(Eventually([&] {
    return metrics.GetCounter("store_broker.requeued_pids")->Value() == 1;
  }));
  EXPECT_EQ(rec.calls.load(), 1);  // newer write not dispatched yet
  gate.Open();
  leader.join();
  follower.join();

  EXPECT_EQ(rec.calls.load(), 2);
  ASSERT_TRUE((*leader_results)[0].ok());
  ASSERT_TRUE((*follower_results)[0].ok());
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    ASSERT_EQ(rec.batches.size(), 2u);
    EXPECT_EQ(rec.batches[0], (std::vector<ProfileId>{7}));
    EXPECT_EQ(rec.batches[1], (std::vector<ProfileId>{7}));
    // The requeued round trip carried the epoch-6 snapshot, not a replay of
    // the epoch-5 bytes.
    EXPECT_EQ(rec.profile_batches[1],
              (std::vector<const ProfileData*>{&new_snapshot}));
  }
  EXPECT_EQ(metrics.GetCounter("store_broker.single_flight_hits")->Value(),
            0);
  EXPECT_EQ(broker.InFlightCount(), 0u);
}

TEST(StoreBrokerTest, PendingWindowMergeCarriesNewestSnapshot) {
  MetricsRegistry metrics;
  StoreRecorder rec;
  StoreBrokerOptions options;
  options.window_micros = 10'000'000;  // 10s: only early close can pass
  options.max_batch_pids = 2;
  StoreBroker broker(options, CountingStore(&rec), &metrics);

  const ProfileData v1 = MakeProfile(1);
  const ProfileData v2 = MakeProfile(2);
  const ProfileData other = MakeProfile(3);
  std::optional<std::vector<Status>> ra, rb, rc;
  std::thread a([&] { ra = broker.Store({1}, {&v1}, {1}); });
  // Pid 1 registered == the collector is already parked in its window (the
  // entry creation and collector election share one lock hold).
  ASSERT_TRUE(Eventually([&] { return broker.InFlightCount() >= 1; }));
  // Same pid, newer epoch, while the entry is still PENDING: the
  // submissions merge and the newer snapshot replaces the older one on the
  // single write. No new unique pid, so the window stays open.
  std::thread b([&] { rb = broker.Store({1}, {&v2}, {2}); });
  ASSERT_TRUE(Eventually([&] {
    return metrics.GetCounter("store_broker.single_flight_hits")->Value() ==
           1;
  }));
  // A second unique pid fills the window and closes it early.
  std::thread c([&] { rc = broker.Store({2}, {&other}, {1}); });
  a.join();
  b.join();
  c.join();

  EXPECT_EQ(rec.calls.load(), 1);
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    ASSERT_EQ(rec.batches.size(), 1u);
    ASSERT_EQ(rec.batches[0].size(), 2u);
    for (size_t i = 0; i < rec.batches[0].size(); ++i) {
      if (rec.batches[0][i] == 1) {
        EXPECT_EQ(rec.profile_batches[0][i], &v2);  // newest merged wins
      }
    }
  }
  ASSERT_TRUE((*ra)[0].ok());
  ASSERT_TRUE((*rb)[0].ok());
  ASSERT_TRUE((*rc)[0].ok());
  // Three distinct submissions rode the one chunk.
  EXPECT_EQ(metrics.GetCounter("store_broker.cross_shard_batches")->Value(),
            1);
  EXPECT_EQ(broker.InFlightCount(), 0u);
}

TEST(StoreBrokerTest, CrossShardGroupsMergeAndCloseEarly) {
  MetricsRegistry metrics;
  StoreRecorder rec;
  StoreBrokerOptions options;
  options.window_micros = 10'000'000;
  options.max_batch_pids = 3;
  StoreBroker broker(options, CountingStore(&rec), &metrics);

  const ProfileData p1 = MakeProfile(1);
  const ProfileData p2 = MakeProfile(2);
  const ProfileData p3 = MakeProfile(3);
  const auto start = std::chrono::steady_clock::now();
  std::optional<std::vector<Status>> ra, rb, rc;
  std::thread a([&] { ra = broker.Store({1}, {&p1}, {1}); });
  ASSERT_TRUE(Eventually([&] { return broker.InFlightCount() >= 1; }));
  std::thread b([&] { rb = broker.Store({2}, {&p2}, {1}); });
  std::thread c([&] { rc = broker.Store({3}, {&p3}, {1}); });
  a.join();
  b.join();
  c.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Three flush groups (think: three dirty shards' passes) within the
  // window: one merged store, dispatched on the third arrival rather than
  // after the 10s window.
  EXPECT_EQ(rec.calls.load(), 1);
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    ASSERT_EQ(rec.batches.size(), 1u);
    std::vector<ProfileId> merged = rec.batches[0];
    std::sort(merged.begin(), merged.end());
    EXPECT_EQ(merged, (std::vector<ProfileId>{1, 2, 3}));
  }
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);
  ASSERT_TRUE((*ra)[0].ok());
  ASSERT_TRUE((*rb)[0].ok());
  ASSERT_TRUE((*rc)[0].ok());
  EXPECT_EQ(metrics.GetCounter("store_broker.cross_shard_batches")->Value(),
            1);
  EXPECT_EQ(broker.InFlightCount(), 0u);
}

TEST(StoreBrokerTest, PartialStoreFailureFansBackPerPid) {
  MetricsRegistry metrics;
  std::atomic<int> calls{0};
  StoreBrokerOptions options;
  options.window_micros = 10'000'000;
  options.max_batch_pids = 3;
  StoreBroker broker(
      options,
      [&](const std::vector<ProfileId>& pids,
          const std::vector<const ProfileData*>&) {
        calls.fetch_add(1);
        std::vector<Status> statuses;
        for (ProfileId pid : pids) {
          statuses.push_back(pid == 2 ? Status::Unavailable("disk full")
                                      : Status::OK());
        }
        return statuses;
      },
      &metrics);

  const ProfileData p1 = MakeProfile(1);
  const ProfileData p2 = MakeProfile(2);
  const ProfileData p3 = MakeProfile(3);
  std::optional<std::vector<Status>> ra, rb;
  std::thread a([&] { ra = broker.Store({1, 2}, {&p1, &p2}, {1, 1}); });
  ASSERT_TRUE(Eventually([&] { return broker.InFlightCount() >= 2; }));
  std::thread b([&] { rb = broker.Store({3}, {&p3}, {1}); });
  a.join();
  b.join();

  // One merged round trip, but pid 2's failure reaches exactly the
  // submission that flushed pid 2 — submission B sees only its own OK, so
  // GCache's per-status requeue semantics survive the merge.
  EXPECT_EQ(calls.load(), 1);
  ASSERT_EQ(ra->size(), 2u);
  EXPECT_TRUE((*ra)[0].ok());
  EXPECT_TRUE((*ra)[1].IsUnavailable());
  ASSERT_EQ(rb->size(), 1u);
  EXPECT_TRUE((*rb)[0].ok());
  EXPECT_EQ(broker.InFlightCount(), 0u);
}

TEST(StoreBrokerTest, OversizedPendingSetSplitsIntoChunkedStores) {
  MetricsRegistry metrics;
  StoreRecorder rec;
  StoreBrokerOptions options;
  options.window_micros = 0;
  options.max_batch_pids = 2;
  StoreBroker broker(options, CountingStore(&rec), &metrics);

  std::vector<ProfileData> owned;
  std::vector<ProfileId> pids;
  std::vector<const ProfileData*> profiles;
  std::vector<uint64_t> epochs;
  owned.reserve(5);
  for (ProfileId pid = 1; pid <= 5; ++pid) {
    owned.push_back(MakeProfile(static_cast<FeatureId>(pid)));
    pids.push_back(pid);
    profiles.push_back(&owned.back());
    epochs.push_back(1);
  }
  std::vector<Status> results = broker.Store(pids, profiles, epochs);
  ASSERT_EQ(results.size(), 5u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << i;
  }
  // The whole pending set was claimed (no stranded entries), dispatched in
  // max_batch_pids chunks.
  EXPECT_EQ(rec.calls.load(), 3);
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    ASSERT_EQ(rec.batches.size(), 3u);
    for (const auto& batch : rec.batches) EXPECT_LE(batch.size(), 2u);
  }
  EXPECT_EQ(metrics.GetHistogram("store_broker.batch_pids")->count(), 3u);
  // One submission: chunking alone is not cross-shard merging.
  EXPECT_EQ(metrics.GetCounter("store_broker.cross_shard_batches")->Value(),
            0);
  EXPECT_EQ(broker.InFlightCount(), 0u);
}

TEST(StoreBrokerTest, ShortStoreResultListFailsSubmittersNotCrash) {
  MetricsRegistry metrics;
  StoreBrokerOptions options;
  options.window_micros = 0;
  StoreBroker broker(
      options,
      [](const std::vector<ProfileId>&,
         const std::vector<const ProfileData*>&) {
        return std::vector<Status>{};  // misbehaving store: short list
      },
      &metrics);
  const ProfileData snapshot = MakeProfile(3);
  std::vector<Status> results = broker.Store({3}, {&snapshot}, {1});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(broker.InFlightCount(), 0u);
}

TEST(StoreBrokerTest, MismatchedInputsRejectedUpFront) {
  MetricsRegistry metrics;
  std::atomic<int> calls{0};
  StoreBrokerOptions options;
  StoreBroker broker(
      options,
      [&](const std::vector<ProfileId>& pids,
          const std::vector<const ProfileData*>&) {
        calls.fetch_add(1);
        return std::vector<Status>(pids.size(), Status::OK());
      },
      &metrics);
  const ProfileData snapshot = MakeProfile(1);
  std::vector<Status> results = broker.Store({1, 2}, {&snapshot}, {1, 1});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].IsInvalidArgument());
  EXPECT_TRUE(results[1].IsInvalidArgument());
  EXPECT_EQ(calls.load(), 0);  // nothing reached the store
  EXPECT_EQ(broker.InFlightCount(), 0u);
}

// TSan hammer: random overlapping pids and monotonically growing epochs from
// many threads, against a slow store. Exercises merge, piggyback, requeue,
// collector handoff, and chunking concurrently; every status must resolve
// and the in-flight table must drain clean.
TEST(StoreBrokerTest, ConcurrentStormResolvesEveryPidAndDrainsClean) {
  MetricsRegistry metrics;
  StoreBrokerOptions options;
  options.window_micros = 200;
  options.max_batch_pids = 8;
  StoreBroker broker(
      options,
      [](const std::vector<ProfileId>& pids,
         const std::vector<const ProfileData*>&) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return std::vector<Status>(pids.size(), Status::OK());
      },
      &metrics);

  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  constexpr ProfileId kPidSpace = 12;
  std::atomic<uint64_t> epoch_source{1};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) * 7919 + 1);
      for (int iter = 0; iter < kIters; ++iter) {
        const size_t group = 1 + rng() % 3;
        std::vector<ProfileId> pids;
        std::vector<uint64_t> epochs;
        for (size_t g = 0; g < group && pids.size() < kPidSpace; ++g) {
          const ProfileId pid = rng() % kPidSpace;
          if (std::find(pids.begin(), pids.end(), pid) != pids.end()) {
            continue;  // GCache dirty lists never hold same-call duplicates
          }
          pids.push_back(pid);
          epochs.push_back(epoch_source.fetch_add(1));
        }
        std::vector<ProfileData> owned;
        std::vector<const ProfileData*> profiles;
        owned.reserve(pids.size());
        for (ProfileId pid : pids) {
          owned.push_back(MakeProfile(static_cast<FeatureId>(pid + 1)));
          profiles.push_back(&owned.back());
        }
        std::vector<Status> results = broker.Store(pids, profiles, epochs);
        if (results.size() != pids.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (const Status& status : results) {
          if (!status.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(broker.InFlightCount(), 0u);
  // The storm must have actually exercised the single-flight paths.
  EXPECT_GT(metrics.GetHistogram("store_broker.batch_pids")->count(), 0u);
}

TEST(StoreBrokerTest, EvictionWriteBackRoutesThroughBrokerWhenInstalled) {
  // Eviction write-backs used to bypass the broker unconditionally (they ran
  // under the entry lock and could not park in a collection window). Now the
  // victims are stored as unlocked snapshots, so with a broker installed an
  // eviction storm must ride broker batches — and with the broker ablated it
  // must fall back to the batch flusher, never silently drop the writes.
  MetricsRegistry metrics;
  StoreRecorder rec;
  StoreBrokerOptions broker_options;
  broker_options.window_micros = 0;
  StoreBroker broker(broker_options, CountingStore(&rec), &metrics);

  auto make_cache = [](BatchStoreFn store) {
    GCacheOptions options;
    options.start_background_threads = false;
    options.lru_shards = 1;
    options.dirty_shards = 1;
    options.memory_limit_bytes = 4 << 10;
    options.write_granularity_ms = kMinute;
    return std::make_unique<GCache>(
        options, SystemClock::Instance(), std::move(store),
        [](const std::vector<ProfileId>& pids, std::vector<bool>*,
           TimestampMs) {
          return std::vector<Result<ProfileData>>(
              pids.size(), Result<ProfileData>(Status::NotFound("cold")));
        });
  };
  auto fill = [](GCache& cache) {
    for (ProfileId pid = 1; pid <= 40; ++pid) {
      cache
          .WithProfileMutable(pid,
                              [&](ProfileData& profile) {
                                for (int i = 0; i < 8; ++i) {
                                  profile
                                      .Add(kMinute * (i + 1), 1, 1,
                                           static_cast<FeatureId>(i + 1),
                                           CountVector{1, 2})
                                      .ok();
                                }
                              })
          .ok();
    }
  };

  // The cache has exactly one store callable, so there is no per-pid path
  // left to bypass the broker; the counter stays as a regression guard.
  std::atomic<int> direct_flushes{0};
  std::atomic<int> batch_flushes{0};
  std::unique_ptr<GCache> cache =
      make_cache([&broker](const std::vector<ProfileId>& pids,
                           const std::vector<const ProfileData*>& profiles,
                           const std::vector<uint64_t>& epochs) {
        return broker.Store(pids, profiles, epochs);
      });
  fill(*cache);
  ASSERT_GT(cache->MemoryBytes(), cache->options().memory_limit_bytes);
  ASSERT_GT(cache->SwapOnce(), 0u);
  // The dirty victims' write-backs all rode the broker; neither fallback
  // path saw a single call.
  EXPECT_GT(rec.calls.load(), 0);
  EXPECT_EQ(direct_flushes.load(), 0);
  EXPECT_EQ(batch_flushes.load(), 0);
  // And nothing was dropped: every pid is still resident or went out in a
  // broker batch.
  std::set<ProfileId> stored;
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    for (const auto& batch : rec.batches) {
      stored.insert(batch.begin(), batch.end());
    }
  }
  std::vector<ProfileId> resident = cache->CachedIds();
  std::set<ProfileId> covered(resident.begin(), resident.end());
  covered.insert(stored.begin(), stored.end());
  for (ProfileId pid = 1; pid <= 40; ++pid) {
    EXPECT_TRUE(covered.count(pid) == 1) << pid;
  }

  // Ablation: identical cache with NO broker — the eviction pass write-back
  // falls back to the batch flusher and the broker sees nothing.
  const int broker_calls_before = rec.calls.load();
  std::atomic<int> ablated_direct{0};
  std::atomic<int> ablated_batch{0};
  std::unique_ptr<GCache> ablated =
      make_cache([&](const std::vector<ProfileId>& pids,
                     const std::vector<const ProfileData*>&,
                     const std::vector<uint64_t>&) {
        ablated_batch.fetch_add(1);
        return std::vector<Status>(pids.size(), Status::OK());
      });
  fill(*ablated);
  ASSERT_GT(ablated->SwapOnce(), 0u);
  EXPECT_GT(ablated_batch.load(), 0);
  EXPECT_EQ(ablated_direct.load(), 0);  // batch flusher preempts point path
  EXPECT_EQ(rec.calls.load(), broker_calls_before);
}

// ---------------------------------------------------------------------------
// Instance-level wiring: concurrent flush passes over different dirty shards
// must merge into ONE KvStore::MultiSet round trip.

TEST(StoreBrokerInstanceTest, ConcurrentFlushPassesShareOneMultiSet) {
  MemKvStore kv;
  ManualClock clock(100 * kDay);
  IpsInstanceOptions options;
  options.start_background_threads = false;
  options.cache.start_background_threads = false;
  options.cache.write_granularity_ms = kMinute;
  options.compaction.synchronous = true;
  options.compaction.min_interval_ms = 0;
  options.isolation_enabled = false;
  options.store_broker.window_micros = 10'000'000;  // early close must fire
  options.store_broker.max_batch_pids = 2;
  TableSchema schema = DefaultTableSchema("profiles");
  schema.write_granularity_ms = kMinute;
  IpsInstance instance(options, &kv, &clock);
  ASSERT_TRUE(instance.CreateTable(schema).ok());

  // Two pids in DIFFERENT dirty shards (same sharding function as GCache),
  // so each FlushAll pass submits its own one-pid group and the merge is
  // genuinely cross-shard.
  const ProfileId pid_a = 1;
  const size_t shard_a =
      (Mix64(pid_a) >> 17) & (options.cache.dirty_shards - 1);
  ProfileId pid_b = 2;
  while (((Mix64(pid_b) >> 17) & (options.cache.dirty_shards - 1)) ==
         shard_a) {
    ++pid_b;
  }
  for (ProfileId pid : {pid_a, pid_b}) {
    ASSERT_TRUE(instance
                    .AddProfile("test", "profiles", pid,
                                clock.NowMs() - kMinute, 1, 1,
                                static_cast<FeatureId>(pid), CountVector{1})
                    .ok());
  }
  const int64_t multi_sets_before = kv.MultiSetCalls();
  const int64_t point_writes_before = kv.PointWriteCalls();

  const auto start = std::chrono::steady_clock::now();
  std::thread t1([&] { instance.FlushAll(); });
  std::thread t2([&] { instance.FlushAll(); });
  t1.join();
  t2.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Each pass flushed one shard's group; the broker merged them into one
  // MultiSet, and the window closed on the second group's arrival rather
  // than after 10 seconds.
  EXPECT_EQ(kv.MultiSetCalls() - multi_sets_before, 1);
  EXPECT_EQ(kv.PointWriteCalls() - point_writes_before, 0);
  EXPECT_EQ(
      instance.metrics()->GetCounter("store_broker.cross_shard_batches")
          ->Value(),
      1);
  EXPECT_EQ(instance.metrics()->GetCounter("cache.flushed")->Value(), 2);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);

  // The merged write is durable: a cold instance reads both profiles back.
  // (Zero window: the reader's shutdown flush of compaction-dirtied entries
  // should not linger in a 10s collection window per shard.)
  IpsInstanceOptions cold_options = options;
  cold_options.store_broker.window_micros = 0;
  IpsInstance cold(cold_options, &kv, &clock);
  ASSERT_TRUE(cold.CreateTable(schema).ok());
  for (ProfileId pid : {pid_a, pid_b}) {
    auto result = cold.GetProfileTopK("test", "profiles", pid, 1,
                                      std::nullopt, TimeRange::Current(kDay),
                                      SortBy::kActionCount, 0, 10);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->features.size(), 1u);
    EXPECT_EQ(result->features[0].fid, static_cast<FeatureId>(pid));
  }
}

TEST(StoreBrokerInstanceTest, BrokerAblationKeepsBatchedFlushAndDurability) {
  MemKvStore kv;
  ManualClock clock(100 * kDay);
  IpsInstanceOptions options;
  options.start_background_threads = false;
  options.cache.start_background_threads = false;
  options.cache.write_granularity_ms = kMinute;
  options.compaction.synchronous = true;
  options.compaction.min_interval_ms = 0;
  options.isolation_enabled = false;
  options.enable_store_broker = false;  // ablation: no broker wired
  TableSchema schema = DefaultTableSchema("profiles");
  schema.write_granularity_ms = kMinute;
  IpsInstance instance(options, &kv, &clock);
  ASSERT_TRUE(instance.CreateTable(schema).ok());
  for (ProfileId pid = 1; pid <= 3; ++pid) {
    ASSERT_TRUE(instance
                    .AddProfile("test", "profiles", pid,
                                clock.NowMs() - kMinute, 1, 1,
                                static_cast<FeatureId>(pid), CountVector{1})
                    .ok());
  }
  const int64_t multi_sets_before = kv.MultiSetCalls();
  instance.FlushAll();

  // The direct batch-flusher path still amortizes within the pass, writes
  // are durable, and no broker metric moves.
  EXPECT_GE(kv.MultiSetCalls() - multi_sets_before, 1);
  EXPECT_EQ(instance.metrics()->GetCounter("cache.flushed")->Value(), 3);
  EXPECT_EQ(
      instance.metrics()->GetCounter("store_broker.single_flight_hits")
          ->Value(),
      0);
  EXPECT_EQ(
      instance.metrics()->GetCounter("store_broker.cross_shard_batches")
          ->Value(),
      0);
  EXPECT_EQ(instance.metrics()->GetHistogram("store_broker.batch_pids")
                ->count(),
            0u);

  IpsInstance cold(options, &kv, &clock);
  ASSERT_TRUE(cold.CreateTable(schema).ok());
  auto result = cold.GetProfileTopK("test", "profiles", 2, 1, std::nullopt,
                                    TimeRange::Current(kDay),
                                    SortBy::kActionCount, 0, 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].fid, 2u);
}

}  // namespace
}  // namespace ips
