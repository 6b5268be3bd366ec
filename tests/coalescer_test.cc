// Seeded randomized histories for the Coalescer under both of its policies.
// Eight threads hammer a small pid space through LoadBroker (read policy)
// and StoreBroker (write policy) across window x max_batch_pids settings.
// The fake backends stamp every dispatched chunk with ticks from one global
// sequence, and each call is stamped on entry and return. After the join,
// every outcome is checked against the recorded history:
//
//   * a result (value, degraded flag, status) must be exactly what some
//     round trip for its pid returned, and that round trip must be one the
//     call could have joined: it started before the call returned and was
//     not superseded by a later round trip for the pid before the call
//     began (published entries leave the table; later arrivals start anew);
//   * round trips for one pid never overlap (single flight), chunks carry
//     unique pids and respect max_batch_pids;
//   * a waiter whose deadline expired may detach, but never poisons the
//     entry: callers without a deadline always get a correct value;
//   * write policy: a submission is served by a write of its epoch or a
//     newer one, with its own pid's status, and that write starts only
//     after every older write of the pid that was on the wire when the
//     submission began (epoch-ordered requeue);
//   * the in-flight table drains to zero, so no pending entry stalls.
#include "cache/coalescer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/load_broker.h"
#include "cache/store_broker.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "core/profile_data.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int kThreads = 8;
constexpr int kCallsPerThread = 150;
constexpr ProfileId kPids = 16;

struct Config {
  int64_t window_micros;
  size_t max_batch_pids;
};

const Config kConfigs[] = {{0, 2}, {0, 256}, {200, 2}, {200, 256}};

// One feature whose count carries `tag` (a fetch id or a write epoch).
ProfileData Tagged(ProfileId pid, int64_t tag) {
  ProfileData profile(kMinute);
  profile.Add(kMinute, 1, 1, static_cast<FeatureId>(pid), CountVector{tag})
      .ok();
  return profile;
}

int64_t TagOf(const ProfileData& profile, ProfileId pid) {
  return profile.slices()
      .front()
      .FindSlot(1)
      ->Find(1)
      ->Find(static_cast<FeatureId>(pid))
      ->counts[0];
}

// The global order every stamp is drawn from.
struct Ticks {
  std::atomic<int64_t> next{0};
  int64_t Now() { return next.fetch_add(1); }
};

// One round trip as seen by the fake backend, per pid.
struct Trip {
  int64_t id = 0;  // fetch id (read) / write sequence (write)
  int64_t start = 0;
  int64_t end = 0;
  int64_t epoch = 0;  // write policy only
  bool ok = true;
  bool degraded = false;  // read policy only
};

// Shared bookkeeping of the fake backends: per-pid trip history, overlap
// detection, chunk-shape checks. Violations are collected, not asserted, so
// the check runs on the test thread.
struct Backend {
  explicit Backend(size_t max_batch) : max_batch_pids(max_batch) {}

  // Opens a chunk: validates its shape, marks its pids busy, returns the
  // chunk id.
  int64_t Enter(const std::vector<ProfileId>& pids) {
    std::lock_guard<std::mutex> lock(mu);
    if (pids.empty() || pids.size() > max_batch_pids) {
      Violation("chunk of " + std::to_string(pids.size()) + " pids");
    }
    if (std::set<ProfileId>(pids.begin(), pids.end()).size() != pids.size()) {
      Violation("duplicate pid inside one chunk");
    }
    for (ProfileId pid : pids) {
      if (busy[pid]) {
        Violation("overlapping round trips for pid " + std::to_string(pid));
      }
      busy[pid] = true;
    }
    return next_id++;
  }

  void Exit(const std::vector<ProfileId>& pids, std::vector<Trip> trips,
            int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    for (size_t i = 0; i < pids.size(); ++i) {
      busy[pids[i]] = false;
      trips[i].end = end;
      history[pids[i]].push_back(trips[i]);
    }
  }

  void Violation(const std::string& what) {
    if (violations.size() < 8) violations.push_back(what);
    ++violation_count;
  }

  // Whether `trip` could have served a call stamped [s0, s1] on `pid`.
  bool Eligible(ProfileId pid, const Trip& trip, int64_t s0,
                int64_t s1) const {
    if (trip.start >= s1) return false;
    for (const Trip& later : history[pid]) {
      if (later.start > trip.end && later.start < s0) return false;
    }
    return true;
  }

  const size_t max_batch_pids;
  std::mutex mu;
  int64_t next_id = 1;
  bool busy[kPids + 1] = {};
  std::vector<Trip> history[kPids + 1];
  std::vector<std::string> violations;
  int violation_count = 0;
};

void SleepMicros(int64_t micros) {
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

// ------------------------------------------------------------ read policy ---

struct ReadCall {
  ProfileId pid = 0;
  int64_t s0 = 0;
  int64_t s1 = 0;
  bool has_deadline = false;
  bool ok = false;
  bool not_found = false;
  bool deadline_exceeded = false;
  bool degraded = false;
  int64_t fetch_id = 0;
};

TEST(CoalescerRandomizedTest, ReadPolicyFansOutExactlyWhatItsFetchReturned) {
  // Summed over every config: the history must have exercised the paths
  // under test, not just independent fetches.
  MetricsRegistry metrics;
  for (const Config& config : kConfigs) {
    SCOPED_TRACE("window=" + std::to_string(config.window_micros) +
                 "us max_batch=" + std::to_string(config.max_batch_pids));
    Ticks ticks;
    Backend backend(config.max_batch_pids);
    LoadBrokerOptions options;
    options.window_micros = config.window_micros;
    options.max_batch_pids = config.max_batch_pids;
    LoadBroker broker(
        options,
        [&](const std::vector<ProfileId>& pids,
            std::vector<bool>* out_degraded) {
          const int64_t id = backend.Enter(pids);
          std::vector<Trip> trips(pids.size());
          std::vector<Result<ProfileData>> out;
          const int64_t start = ticks.Now();
          for (size_t i = 0; i < pids.size(); ++i) {
            trips[i].id = id;
            trips[i].start = start;
            // Every fifth pid was never persisted; the rest come back
            // degraded on a pseudo-random subset of fetches.
            trips[i].ok = pids[i] % 5 != 0;
            trips[i].degraded = trips[i].ok && (id * 31 + pids[i]) % 3 == 0;
            (*out_degraded)[i] = trips[i].degraded;
            if (trips[i].ok) {
              out.emplace_back(Tagged(pids[i], id));
            } else {
              out.emplace_back(Status::NotFound("never persisted"));
            }
          }
          SleepMicros(id * 7919 % 60);
          backend.Exit(pids, std::move(trips), ticks.Now());
          return out;
        },
        SystemClock::Instance(), &metrics);

    std::vector<std::vector<ReadCall>> calls(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937_64 rng(0xC0A1E5CE + t * 7919 + config.window_micros +
                            config.max_batch_pids);
        for (int c = 0; c < kCallsPerThread; ++c) {
          // 1-6 pids, duplicates allowed (per-call dedup is policy).
          std::vector<ProfileId> pids(1 + rng() % 6);
          for (ProfileId& pid : pids) pid = 1 + rng() % kPids;
          // A third of the calls carry a deadline: already expired, or one
          // that can expire mid-wait.
          TimestampMs deadline = LoadBroker::kNoDeadline;
          switch (rng() % 6) {
            case 0: deadline = SystemClock::Instance()->NowMs() - 1; break;
            case 1: deadline = SystemClock::Instance()->NowMs() + 1; break;
            default: break;
          }
          std::vector<bool> degraded;
          const int64_t s0 = ticks.Now();
          std::vector<Result<ProfileData>> results =
              broker.Load(pids, &degraded, deadline);
          const int64_t s1 = ticks.Now();
          for (size_t i = 0; i < pids.size(); ++i) {
            ReadCall call;
            call.pid = pids[i];
            call.s0 = s0;
            call.s1 = s1;
            call.has_deadline = deadline != LoadBroker::kNoDeadline;
            if (i < results.size()) {
              call.ok = results[i].ok();
              call.not_found = results[i].status().IsNotFound();
              call.deadline_exceeded =
                  results[i].status().IsDeadlineExceeded();
              if (call.ok) call.fetch_id = TagOf(*results[i], pids[i]);
            }
            call.degraded = i < degraded.size() && degraded[i];
            calls[t].push_back(call);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(broker.InFlightCount(), 0u);
    EXPECT_EQ(backend.violation_count, 0)
        << (backend.violations.empty() ? "" : backend.violations[0]);
    int wrong = 0;
    std::string first_wrong;
    for (const auto& per_thread : calls) {
      for (const ReadCall& call : per_thread) {
        bool explained = false;
        if (call.deadline_exceeded) {
          explained = call.has_deadline;  // only an expired waiter detaches
        } else {
          for (const Trip& trip : backend.history[call.pid]) {
            if (!backend.Eligible(call.pid, trip, call.s0, call.s1)) continue;
            if (call.ok && trip.ok && trip.id == call.fetch_id &&
                trip.degraded == call.degraded) {
              explained = true;
            } else if (call.not_found && !trip.ok && !call.degraded) {
              explained = true;
            }
            if (explained) break;
          }
        }
        if (!explained) {
          if (wrong++ == 0) {
            first_wrong = "pid " + std::to_string(call.pid) + " fetch " +
                          std::to_string(call.fetch_id);
          }
        }
      }
    }
    EXPECT_EQ(wrong, 0) << "first unexplained result: " << first_wrong;
  }
  EXPECT_GT(metrics.GetCounter("broker.single_flight_hits")->Value(), 0);
  EXPECT_GT(metrics.GetCounter("broker.cross_request_dedup")->Value(), 0);
  EXPECT_GT(metrics.GetCounter("broker.deadline_detaches")->Value(), 0);
}

// ----------------------------------------------------------- write policy ---

struct Submission {
  ProfileId pid = 0;
  int64_t epoch = 0;
  int64_t s0 = 0;
  int64_t s1 = 0;
  bool ok = false;
};

TEST(CoalescerRandomizedTest, WritePolicyKeepsEpochOrderAndOwnStatuses) {
  MetricsRegistry metrics;
  for (const Config& config : kConfigs) {
    SCOPED_TRACE("window=" + std::to_string(config.window_micros) +
                 "us max_batch=" + std::to_string(config.max_batch_pids));
    Ticks ticks;
    Backend backend(config.max_batch_pids);
    StoreBrokerOptions options;
    options.window_micros = config.window_micros;
    options.max_batch_pids = config.max_batch_pids;
    StoreBroker broker(
        options, [&](const std::vector<ProfileId>& pids,
                     const std::vector<const ProfileData*>& profiles) {
          const int64_t id = backend.Enter(pids);
          std::vector<Trip> trips(pids.size());
          std::vector<Status> statuses;
          const int64_t start = ticks.Now();
          for (size_t i = 0; i < pids.size(); ++i) {
            trips[i].id = id;
            trips[i].start = start;
            trips[i].epoch = TagOf(*profiles[i], pids[i]);
            // Partial failures: a pseudo-random pid of some writes fails.
            trips[i].ok = (id + pids[i]) % 4 != 0;
            statuses.push_back(trips[i].ok ? Status::OK()
                                           : Status::Unavailable("injected"));
          }
          SleepMicros(id * 7919 % 60);
          backend.Exit(pids, std::move(trips), ticks.Now());
          return statuses;
        },
        &metrics);

    std::atomic<int64_t> epochs[kPids + 1] = {};
    std::vector<std::vector<Submission>> submissions(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937_64 rng(0x5707E + t * 104729 + config.window_micros +
                            config.max_batch_pids);
        int64_t last_epoch[kPids + 1] = {};
        for (int c = 0; c < kCallsPerThread; ++c) {
          // 1-4 distinct pids (dirty lists never repeat a pid in a group).
          std::vector<ProfileId> pids;
          const size_t want = 1 + rng() % 4;
          while (pids.size() < want) {
            const ProfileId pid = 1 + rng() % kPids;
            if (std::find(pids.begin(), pids.end(), pid) == pids.end()) {
              pids.push_back(pid);
            }
          }
          // Mostly a fresh epoch; sometimes an identical re-flush of this
          // thread's last snapshot (the piggyback path).
          std::vector<uint64_t> call_epochs;
          std::vector<ProfileData> snapshots;
          for (ProfileId pid : pids) {
            if (last_epoch[pid] == 0 || rng() % 4 != 0) {
              last_epoch[pid] = epochs[pid].fetch_add(1) + 1;
            }
            call_epochs.push_back(static_cast<uint64_t>(last_epoch[pid]));
            snapshots.push_back(Tagged(pid, last_epoch[pid]));
          }
          std::vector<const ProfileData*> profiles;
          for (const ProfileData& snapshot : snapshots) {
            profiles.push_back(&snapshot);
          }
          const int64_t s0 = ticks.Now();
          std::vector<Status> statuses =
              broker.Store(pids, profiles, call_epochs);
          const int64_t s1 = ticks.Now();
          for (size_t i = 0; i < pids.size(); ++i) {
            Submission sub;
            sub.pid = pids[i];
            sub.epoch = static_cast<int64_t>(call_epochs[i]);
            sub.s0 = s0;
            sub.s1 = s1;
            sub.ok = i < statuses.size() && statuses[i].ok();
            submissions[t].push_back(sub);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(broker.InFlightCount(), 0u);
    EXPECT_EQ(backend.violation_count, 0)
        << (backend.violations.empty() ? "" : backend.violations[0]);
    int unexplained = 0;
    std::string first;
    for (const auto& per_thread : submissions) {
      for (const Submission& sub : per_thread) {
        const std::vector<Trip>& writes = backend.history[sub.pid];
        bool explained = false;
        for (const Trip& write : writes) {
          if (write.epoch < sub.epoch || write.ok != sub.ok) continue;
          if (!backend.Eligible(sub.pid, write, sub.s0, sub.s1)) continue;
          // Epoch-ordered requeue: every OLDER write on the wire when the
          // submission began must have landed before this one started.
          bool ordered = true;
          for (const Trip& older : writes) {
            if (older.epoch < sub.epoch && older.start < sub.s0 &&
                older.end > sub.s0 && write.start < older.end) {
              ordered = false;
            }
          }
          if (ordered) {
            explained = true;
            break;
          }
        }
        if (!explained && unexplained++ == 0) {
          first = "pid " + std::to_string(sub.pid) + " epoch " +
                  std::to_string(sub.epoch) + (sub.ok ? " ok" : " failed");
        }
      }
    }
    EXPECT_EQ(unexplained, 0) << "first unexplained submission: " << first;
  }
  EXPECT_GT(metrics.GetCounter("store_broker.single_flight_hits")->Value(), 0);
  EXPECT_GT(metrics.GetCounter("store_broker.requeued_pids")->Value(), 0);
  EXPECT_GT(metrics.GetCounter("store_broker.cross_shard_batches")->Value(),
            0);
}

}  // namespace
}  // namespace ips
