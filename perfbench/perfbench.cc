// ips_perfbench: the repository benchmark. One process drives an in-process
// single-region, two-node Deployment through IpsClient with an open-loop
// load generator, checks every answer, and prints end-to-end metrics (or,
// with --trace 1, per-layer metrics from a traced run of the same inputs).
//
//   ips_perfbench --workload hot_read|cold_read|ingest_mixed --seed N
//                 --seconds S --trace 0|1 [--source-rev REV]
//
// The last line of standard output is one JSON object with every metric
// measured:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// perfbench/run.py builds and runs this binary and restricts that line to
// the metrics BENCHMARK.json names. Workloads, metrics and their predicted
// interactions: perfbench/README.md.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.h"
#include "cluster/deployment.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "common/trace_collector.h"
#include "compaction/compactor.h"
#include "core/table_schema.h"
#include "helpers.h"
#include "ingest/workload.h"
#include "kvstore/mem_kv_store.h"
#include "server/persistence.h"

namespace perfbench {
namespace {

using ips::AddRecord;
using ips::CallContext;
using ips::Deployment;
using ips::IpsClient;
using ips::IpsInstance;
using ips::IpsNode;
using ips::kMillisPerDay;
using ips::ManualClock;
using ips::MetricsRegistry;
using ips::MonotonicNanos;
using ips::MultiAddItem;
using ips::ProfileId;
using ips::QueryResult;
using ips::QuerySpec;
using ips::Status;
using ips::TimestampMs;

constexpr char kTable[] = "user_profile";
constexpr char kRegion[] = "lf";
constexpr size_t kNodes = 2;
/// Simulated time at which every set-up starts (profile history lies in the
/// 30 days before it).
constexpr TimestampMs kSimEpochMs = 500 * kMillisPerDay;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Senders never exceed this many threads (nor the host's core count).
constexpr unsigned kMaxSenders = 4;
/// A run is invalid when idle senders woke later than this (p99): the
/// generator, not the program, fell behind. The development host's
/// scheduling stalls reach about 18 ms.
constexpr double kMaxGenLagUs = 25'000.0;
/// "Sent late": a request leaving its sender this long after it was due.
constexpr int64_t kLateNs = 1'000'000;

/// Every user's history: this many records, timestamps spread over the 30
/// days before the simulated epoch. Back-fill writes spread the same way
/// back from their simulated send time.
constexpr uint32_t kRecordsPerUser = 48;
constexpr int64_t kHistoryMs = 30 * kMillisPerDay;
/// Latency limit (the deadline every request carries) of every workload:
/// far above the host's scheduling stalls, so a miss means the program
/// fell behind.
constexpr int64_t kLimitMs = 250;
/// Open-loop warm-up pass at the workload's rates that ends set-up.
constexpr double kWarmupSeconds = 1.0;

/// One workload: a population, a request mix and its offered rates. Every
/// value is fixed here; nothing is calibrated per run.
struct Workload {
  const char* name;
  const char* why;
  /// Users written before timing.
  uint64_t population;
  /// L1 (GCache) budget of each of the two nodes.
  size_t l1_bytes_per_node;
  /// Set-up loads the whole population into L1 (else only the probe pids).
  bool warm_all;
  /// MultiQuery stream: offered requests/s, pids per request, popularity
  /// skew, share of pids of never-written users.
  double read_rate;
  size_t read_batch;
  double read_zipf;
  double unknown_frac;
  /// MultiAdd stream of back-fill records (0 = read-only workload): offered
  /// requests/s and items (one record each) per request.
  double write_rate;
  size_t write_items;
  /// Simulated milliseconds per scheduled millisecond (the ManualClock is
  /// advanced from the schedule at this pace).
  double sim_speed;
};

constexpr double kHotReadRate = 1000.0;

const Workload kWorkloads[] = {
    {"hot_read",
     "L1-resident population, Zipf 0.99 batches: pure CPU in dispatch, "
     "admission, cache lookup and query compute",
     /*population=*/8000, /*l1_bytes_per_node=*/256u << 20,
     /*warm_all=*/true, /*read_rate=*/kHotReadRate, /*read_batch=*/32,
     /*read_zipf=*/0.99, /*unknown_frac=*/0.0, /*write_rate=*/0,
     /*write_items=*/0, /*sim_speed=*/1.0},
    {"cold_read",
     "population 8x the L1 budget, Zipf 0.6, 5% new users: misses, KV "
     "MultiGet, decode and eviction carry the time",
     /*population=*/16000, /*l1_bytes_per_node=*/12u << 20,
     /*warm_all=*/false, /*read_rate=*/100.0, /*read_batch=*/32,
     /*read_zipf=*/0.6, /*unknown_frac=*/0.05, /*write_rate=*/0,
     /*write_items=*/0, /*sim_speed=*/1.0},
    {"ingest_mixed",
     "back-fill MultiAdd stream beside reads: isolation merge, flush, "
     "write-back and continuous compaction",
     /*population=*/8000, /*l1_bytes_per_node=*/256u << 20,
     /*warm_all=*/true, /*read_rate=*/kHotReadRate / 4, /*read_batch=*/32,
     /*read_zipf=*/0.99, /*unknown_frac=*/0.0, /*write_rate=*/100.0,
     /*write_items=*/8, /*sim_speed=*/12.0},
};

/// The write probe of every set-up: kProbeBursts fixed bursts of MultiAdd
/// requests to the hottest users (resident in L1), each followed by the
/// durability drain. durable_s (all workloads) and the write latencies of
/// the read-only workloads come from it, so they exist for every workload
/// and do not depend on where the background merger happens to be in its
/// cycle when a window ends.
constexpr int kProbeBursts = 3;
constexpr size_t kProbeRequests = 1000;
constexpr double kProbeRate = 2000.0;
constexpr size_t kProbeUsers = 512;
constexpr size_t kProbeItems = 4;

/// The KV store's calibrated latency (the values of bench::CalibratedKv):
/// >= 1.2 ms per round trip, a sleep rather than a spin.
ips::MemKvOptions CalibratedKv() {
  ips::MemKvOptions options;
  options.base_latency_us = 1200;
  options.tail_latency_us = 500;
  options.per_kib_us = 20;
  return options;
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::exit(1);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double ResidentMb() {
  long pages_total = 0;
  long pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
    pages_resident = 0;
  }
  std::fclose(f);
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Generated inputs. Everything the program sees is derived from the seed.

ProfileId UserPid(uint64_t rank) { return ips::ScrambleId(rank); }

/// Pids of never-written users: ranks far beyond any population.
ProfileId NewUserPid(ips::Rng& rng) {
  return ips::ScrambleId((uint64_t{1} << 40) + rng.Uniform(uint64_t{1} << 30));
}

ips::WorkloadOptions GeneratorOptions(const Workload& w, double zipf,
                                      uint64_t seed) {
  ips::WorkloadOptions options;
  options.num_users = w.population;
  options.user_zipf_theta = zipf;
  options.seed = seed;
  return options;
}

/// Every user's history: kRecordsPerUser records (the same count for every
/// user and seed, so profile sizes do not vary between seeds).
std::vector<std::vector<AddRecord>> MakePopulation(const Workload& w,
                                                   uint64_t seed) {
  ips::WorkloadGenerator gen(GeneratorOptions(w, 0.99, seed ^ 0x9e3779b9));
  std::vector<std::vector<AddRecord>> records(w.population);
  for (auto& user : records) {
    user.reserve(kRecordsPerUser);
    for (uint32_t j = 0; j < kRecordsPerUser; ++j) {
      ProfileId ignored = 0;
      const TimestampMs ts =
          kSimEpochMs - 1 -
          static_cast<TimestampMs>(gen.rng().Uniform(kHistoryMs));
      user.push_back(gen.NextAddBatch(ts, &ignored)[0]);
    }
  }
  return records;
}

struct Request {
  int64_t due_ns = 0;  // offset from the start of the phase
  bool write = false;
  QuerySpec spec;
  std::vector<ProfileId> pids;
  std::vector<uint8_t> new_user;  // 1 where `pids` holds a never-written user
  std::vector<MultiAddItem> items;
};

/// Simulated time at a scheduled offset of a phase starting at `base_ms`.
TimestampMs SimAt(TimestampMs base_ms, double speed, int64_t offset_ns) {
  return base_ms + static_cast<TimestampMs>(static_cast<double>(offset_ns) *
                                            1e-6 * speed);
}

/// The workload's open-loop schedule over `seconds`: Poisson arrivals per
/// stream, merged by due time.
std::vector<Request> MakeSchedule(const Workload& w, uint64_t seed,
                                  double seconds, TimestampMs base_ms) {
  std::vector<Request> out;
  const int64_t horizon_ns = static_cast<int64_t>(seconds * 1e9);
  if (w.read_rate > 0) {
    ips::WorkloadGenerator gen(GeneratorOptions(w, w.read_zipf, seed));
    ips::Rng& rng = gen.rng();
    double t_ns = rng.Exponential(1e9 / w.read_rate);
    while (t_ns < static_cast<double>(horizon_ns)) {
      Request r;
      r.due_ns = static_cast<int64_t>(t_ns);
      ProfileId ignored = 0;
      r.spec = gen.NextQuerySpec(&ignored);
      r.pids.reserve(w.read_batch);
      r.new_user.assign(w.read_batch, 0);
      for (size_t i = 0; i < w.read_batch; ++i) {
        if (w.unknown_frac > 0 && rng.Bernoulli(w.unknown_frac)) {
          r.pids.push_back(NewUserPid(rng));
          r.new_user[i] = 1;
        } else {
          r.pids.push_back(gen.SampleUser());
        }
      }
      out.push_back(std::move(r));
      t_ns += rng.Exponential(1e9 / w.read_rate);
    }
  }
  if (w.write_rate > 0) {
    ips::WorkloadGenerator gen(
        GeneratorOptions(w, w.read_zipf, seed ^ 0x5bd1e995));
    ips::Rng& rng = gen.rng();
    double t_ns = rng.Exponential(1e9 / w.write_rate);
    while (t_ns < static_cast<double>(horizon_ns)) {
      Request r;
      r.write = true;
      r.due_ns = static_cast<int64_t>(t_ns);
      const TimestampMs now_ms = SimAt(base_ms, w.sim_speed, r.due_ns);
      for (size_t i = 0; i < w.write_items; ++i) {
        MultiAddItem item;
        item.records = gen.NextAddBatch(
            now_ms - static_cast<TimestampMs>(rng.Uniform(kHistoryMs)),
            &item.pid);
        r.items.push_back(std::move(item));
      }
      out.push_back(std::move(r));
      t_ns += rng.Exponential(1e9 / w.write_rate);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Request& a, const Request& b) {
                     return a.due_ns < b.due_ns;
                   });
  return out;
}

/// The write probe: kProbeRequests MultiAdds over the kProbeUsers hottest
/// users at kProbeRate.
std::vector<Request> MakeProbe(const Workload& w, uint64_t seed,
                               TimestampMs base_ms) {
  ips::WorkloadGenerator gen(GeneratorOptions(w, 0.99, seed ^ 0x7f4a7c15));
  ips::Rng& rng = gen.rng();
  std::vector<Request> out;
  double t_ns = 0;
  for (size_t n = 0; n < kProbeRequests; ++n) {
    t_ns += rng.Exponential(1e9 / kProbeRate);
    Request r;
    r.write = true;
    r.due_ns = static_cast<int64_t>(t_ns);
    const TimestampMs now_ms = SimAt(base_ms, w.sim_speed, r.due_ns);
    for (size_t i = 0; i < kProbeItems; ++i) {
      MultiAddItem item;
      ProfileId ignored = 0;
      item.records = gen.NextAddBatch(
          now_ms - 1 - static_cast<TimestampMs>(rng.Uniform(kHistoryMs)),
          &ignored);
      item.pid = UserPid(rng.Uniform(kProbeUsers));
      r.items.push_back(std::move(item));
    }
    out.push_back(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The system under test.

struct System {
  // Declared in dependency order, so destruction runs clients, then the
  // deployment, then the clock and registry it points to.
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<ManualClock> clock;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<IpsClient> reader;
  std::unique_ptr<IpsClient> writer;
  std::vector<IpsNode*> nodes;
  ips::TableSchema schema;
};

ips::DeploymentOptions MakeDeploymentOptions(const Workload& w) {
  ips::DeploymentOptions options;
  options.regions = {{kRegion, kNodes, /*is_primary=*/true}};
  // Shipped instance defaults (isolation on, both brokers on, L2 victim
  // tier off, async compaction, default flush cadence); only the L1 budget
  // is a workload property.
  options.instance = ips::IpsInstanceOptions{};
  options.instance.cache.memory_limit_bytes = w.l1_bytes_per_node;
  // Zero channel latency: sub-millisecond delays are spin loops that would
  // burn the cores under test.
  options.channel = ips::ChannelOptions{};
  options.kv.store_options = CalibratedKv();
  // No node fails here; keep discovery entries alive without heartbeats
  // however far the simulated clock runs.
  options.discovery_ttl_ms = 3650 * kMillisPerDay;
  return options;
}

std::unique_ptr<System> MakeSystem(const Workload& w) {
  auto sys = std::make_unique<System>();
  sys->metrics = std::make_unique<MetricsRegistry>();
  sys->clock = std::make_unique<ManualClock>(kSimEpochMs);
  sys->deployment = std::make_unique<Deployment>(
      MakeDeploymentOptions(w), sys->clock.get(), sys->metrics.get());
  sys->schema = ips::DefaultTableSchema(kTable);
  Check(sys->deployment->CreateTableEverywhere(sys->schema), "create table");
  sys->nodes = sys->deployment->NodesInRegion(kRegion);
  ips::IpsClientOptions reader_options;
  reader_options.caller = "ranker";
  reader_options.local_region = kRegion;
  sys->reader = std::make_unique<IpsClient>(reader_options,
                                            sys->deployment.get());
  ips::IpsClientOptions writer_options = reader_options;
  writer_options.caller = "ingest";
  sys->writer = std::make_unique<IpsClient>(writer_options,
                                            sys->deployment.get());
  return sys;
}

/// Persists the population straight into the KV through the persister (the
/// same codec and key layout the instances use): each user's history is
/// folded into a profile, fully compacted at the epoch and stored in
/// batches.
void PersistPopulation(System& sys,
                       const std::vector<std::vector<AddRecord>>& population) {
  ips::PersisterOptions persist_options =
      ips::IpsInstanceOptions{}.persistence;
  ips::Persister persister(kTable, sys.deployment->kv().master(),
                           persist_options);
  ips::Compactor compactor(&sys.schema);
  constexpr size_t kChunk = 512;
  std::vector<ProfileId> pids;
  std::vector<ips::ProfileData> profiles;
  for (size_t begin = 0; begin < population.size(); begin += kChunk) {
    const size_t end = std::min(population.size(), begin + kChunk);
    pids.clear();
    profiles.clear();
    profiles.reserve(end - begin);
    for (size_t rank = begin; rank < end; ++rank) {
      ips::ProfileData profile(sys.schema.write_granularity_ms);
      for (const AddRecord& r : population[rank]) {
        Check(profile.Add(r.timestamp, r.slot, r.type, r.fid, r.counts,
                          sys.schema.reduce),
              "build profile");
      }
      compactor.FullCompact(profile, kSimEpochMs);
      pids.push_back(UserPid(rank));
      profiles.push_back(std::move(profile));
    }
    std::vector<const ips::ProfileData*> views;
    for (const auto& p : profiles) views.push_back(&p);
    for (const Status& s : persister.StoreBatch(pids, views)) {
      Check(s, "persist population");
    }
  }
}

/// Loads `pids` into L1 through the serving read path.
void WarmPids(System& sys, const std::vector<ProfileId>& pids) {
  QuerySpec spec;
  constexpr size_t kBatch = 256;
  for (size_t begin = 0; begin < pids.size(); begin += kBatch) {
    const size_t end = std::min(pids.size(), begin + kBatch);
    std::vector<ProfileId> batch(pids.begin() + static_cast<long>(begin),
                                 pids.begin() + static_cast<long>(end));
    auto result = sys.reader->MultiQuery(kTable, batch, spec);
    Check(result.status(), "warm L1");
    for (const Status& s : result->statuses) Check(s, "warm L1 pid");
  }
}

/// The durability drain: merge the isolation write tables, drain
/// compaction, flush every dirty entry. Nodes drain in parallel.
///
/// FlushAll can return while a background flush pass still holds a batch it
/// took off the dirty list before the call: that batch's store lands after
/// FlushAll returned, and an entry changed meanwhile stays dirty for the
/// next pass. So after FlushAll the drain waits until the KV has taken no
/// write for kSettleNs (longer than the flush cadence), flushes again, and
/// ends when a FlushAll writes nothing. Durability is reached at the last
/// store call; `late_store_calls` counts those after the first FlushAll.
constexpr int64_t kSettleNs = 150'000'000;

int64_t KvWriteCalls(System& sys) {
  const ips::MemKvStore* kv = sys.deployment->kv().master_store();
  return kv->PointWriteCalls() + kv->MultiSetCalls();
}

struct Durability {
  double total_s = 0;
  int64_t late_store_calls = 0;
  double merge_s = 0;  // longest node's MergeWriteTablesOnce
  double drain_s = 0;  // longest node's DrainCompactions
  double flush_s = 0;  // longest node's FlushAll
};

Durability MakeDurable(System& sys) {
  Durability out;
  std::vector<Durability> per_node(sys.nodes.size());
  const int64_t begin = MonotonicNanos();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sys.nodes.size(); ++i) {
    threads.emplace_back([&, i] {
      IpsInstance& instance = sys.nodes[i]->instance();
      int64_t t0 = MonotonicNanos();
      instance.MergeWriteTablesOnce();
      int64_t t1 = MonotonicNanos();
      instance.DrainCompactions();
      int64_t t2 = MonotonicNanos();
      instance.FlushAll();
      int64_t t3 = MonotonicNanos();
      per_node[i].merge_s = Seconds(t1 - t0);
      per_node[i].drain_s = Seconds(t2 - t1);
      per_node[i].flush_s = Seconds(t3 - t2);
    });
  }
  for (auto& t : threads) t.join();
  int64_t durable_at = MonotonicNanos();
  const int64_t flushed_calls = KvWriteCalls(sys);
  int64_t seen_calls = flushed_calls;
  for (;;) {
    for (int64_t quiet_since = MonotonicNanos();
         MonotonicNanos() - quiet_since < kSettleNs;) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      const int64_t calls = KvWriteCalls(sys);
      if (calls != seen_calls) {
        seen_calls = calls;
        durable_at = quiet_since = MonotonicNanos();
      }
    }
    for (IpsNode* node : sys.nodes) node->instance().FlushAll();
    const int64_t calls = KvWriteCalls(sys);
    if (calls == seen_calls) break;
    seen_calls = calls;
    durable_at = MonotonicNanos();
  }
  out.late_store_calls = seen_calls - flushed_calls;
  out.total_s = Seconds(durable_at - begin);
  for (const Durability& d : per_node) {
    out.merge_s = std::max(out.merge_s, d.merge_s);
    out.drain_s = std::max(out.drain_s, d.drain_s);
    out.flush_s = std::max(out.flush_s, d.flush_s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The open-loop generator.

struct Outcome {
  bool write = false;
  int64_t due_ns = 0;      // scheduled offset from the phase start
  int64_t latency_ns = 0;  // completion minus due time
  int64_t lag_ns = 0;      // send minus due time
  bool idle = false;       // the sender was waiting when the request fell due
  bool ok = false;         // every item succeeded, within the deadline
  bool shed = false;       // refused by admission (overload/quota)
  bool traced = false;
  std::map<std::string, int64_t> self_ns;  // traced requests only
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  int64_t wall_ns = 0;  // phase start to last completion
  double cpu_s = 0;
  // Answers that contradict the inputs (wrong arity, a failed status for a
  // known user, data for a never-written one).
  size_t wrong_answers = 0;
  size_t negative_lookups = 0;  // never-written pids answered empty
  // Acknowledged writes: pid -> slots written.
  std::map<ProfileId, std::set<ips::SlotId>> acked;
  double acked_record_bytes = 0;
};

/// Runs `requests` open-loop: senders take requests in due order, sleep
/// until each is due and time it from its due time. The ManualClock is
/// advanced from the schedule by a ticker thread.
PhaseResult RunPhase(System& sys, const Workload& w,
                     const std::vector<Request>& requests,
                     ips::TraceCollector* collector) {
  PhaseResult out;
  out.outcomes.resize(requests.size());
  std::vector<uint8_t> wrong(requests.size(), 0);
  std::vector<uint32_t> negatives(requests.size(), 0);
  const TimestampMs base_ms = sys.clock->NowMs();
  const unsigned senders = std::max(
      1u, std::min(kMaxSenders, std::thread::hardware_concurrency()));
  std::atomic<size_t> next{0};
  std::atomic<bool> stop_ticker{false};
  const double cpu_begin = ProcessCpuSeconds();
  const int64_t start_ns = MonotonicNanos() + 2'000'000;
  auto wait_until = [](int64_t ns) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ns)));
  };

  // Only ever advances: a client's retry backoff sleeps on the same clock
  // (advancing it), and simulated time must not run backwards after that.
  std::thread ticker([&] {
    int64_t tick = start_ns;
    while (!stop_ticker.load(std::memory_order_relaxed)) {
      wait_until(tick);
      const TimestampMs want = SimAt(
          base_ms, w.sim_speed, std::max<int64_t>(0, MonotonicNanos() - start_ns));
      const TimestampMs now = sys.clock->NowMs();
      if (want > now) sys.clock->AdvanceMs(want - now);
      tick += 1'000'000;
    }
  });

  auto send = [&](size_t i) {
    const Request& r = requests[i];
    Outcome& o = out.outcomes[i];
    o.write = r.write;
    o.due_ns = r.due_ns;
    const int64_t due = start_ns + r.due_ns;
    o.idle = MonotonicNanos() < due;
    if (o.idle) wait_until(due);
    const int64_t sent = MonotonicNanos();
    o.lag_ns = sent - due;
    CallContext ctx = CallContext::WithDeadline(
        SimAt(base_ms, w.sim_speed, r.due_ns + kLimitMs * 1'000'000));

    std::unique_ptr<ips::Trace> trace =
        collector != nullptr ? collector->MaybeStartTrace() : nullptr;
    bool all_ok = true;
    auto note = [&](const Status& status) {
      if (status.ok()) return;
      all_ok = false;
      o.shed = o.shed || status.IsThrottled();
    };
    {
      ips::TraceInstallScope install(
          ips::TraceCollector::ContextFor(trace.get()));
      ips::ScopedSpan root(r.write ? "bench.multi_add" : "bench.multi_query");
      ctx.trace = ips::CurrentTrace();
      if (r.write) {
        auto result = sys.writer->MultiAdd(kTable, r.items, ctx);
        if (!result.ok()) {
          note(result.status());
        } else if (result->statuses.size() != r.items.size()) {
          all_ok = false;
          wrong[i] = 1;
        } else {
          for (const Status& status : result->statuses) note(status);
        }
      } else {
        auto result = sys.reader->MultiQuery(kTable, r.pids, r.spec, ctx);
        if (!result.ok()) {
          note(result.status());
        } else if (result->statuses.size() != r.pids.size() ||
                   result->results.size() != r.pids.size()) {
          all_ok = false;
          wrong[i] = 1;
        } else {
          for (size_t k = 0; k < r.pids.size(); ++k) {
            note(result->statuses[k]);
            if (r.new_user[k] == 0 || !result->statuses[k].ok()) continue;
            // Never-written users are empty profiles, never errors.
            if (result->results[k].features.empty()) {
              ++negatives[i];
            } else {
              wrong[i] = 1;
            }
          }
        }
      }
    }
    const int64_t done = MonotonicNanos();
    o.latency_ns = done - due;
    o.ok = all_ok && o.latency_ns <= kLimitMs * 1'000'000;
    if (trace != nullptr) {
      o.traced = true;
      o.self_ns = SelfTimesByName(trace->Spans());
      collector->Finish(std::move(trace));
    }
  };

  std::vector<std::thread> threads;
  for (unsigned s = 0; s < senders; ++s) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        send(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_ns = MonotonicNanos() - start_ns;
  stop_ticker.store(true, std::memory_order_relaxed);
  ticker.join();
  out.cpu_s = ProcessCpuSeconds() - cpu_begin;

  for (size_t i = 0; i < requests.size(); ++i) {
    out.wrong_answers += wrong[i];
    out.negative_lookups += negatives[i];
    const Request& r = requests[i];
    if (!r.write || !out.outcomes[i].ok) continue;
    for (const MultiAddItem& item : r.items) {
      for (const AddRecord& rec : item.records) {
        out.acked[item.pid].insert(rec.slot);
        out.acked_record_bytes += static_cast<double>(
            ips::EstimateAddPayloadBytes({rec}) -
            ips::EstimateAddPayloadBytes({}));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Counters over a window.

constexpr char kBatchPidsCount[] = "bench.store_broker.batch_pids.count";
constexpr char kBatchPidsSum[] = "bench.store_broker.batch_pids.sum";

CounterSnapshot TakeSnapshot(System& sys) {
  CounterSnapshot snap(sys.metrics->SnapshotValues());
  const ips::MemKvStore* kv = sys.deployment->kv().master_store();
  snap.Set("kv.point_reads", kv->PointReadCalls());
  snap.Set("kv.multi_get_calls", kv->MultiGetCalls());
  snap.Set("kv.multi_get_keys", kv->MultiGetKeys());
  snap.Set("kv.point_writes", kv->PointWriteCalls());
  snap.Set("kv.multi_set_calls", kv->MultiSetCalls());
  snap.Set("kv.bytes_written", kv->TotalBytesWritten());
  const ips::Histogram* batch =
      sys.metrics->GetHistogram("store_broker.batch_pids");
  snap.Set(kBatchPidsCount, batch->count());
  snap.Set(kBatchPidsSum, batch->sum());
  return snap;
}

// ---------------------------------------------------------------------------
// Correctness: after the durability drain, a fresh instance over the master
// KV must answer exactly as the live deployment does, and every pid with an
// acknowledged write must be in the KV.

bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (a.features.size() != b.features.size()) return false;
  for (size_t i = 0; i < a.features.size(); ++i) {
    const ips::FeatureResult& x = a.features[i];
    const ips::FeatureResult& y = b.features[i];
    if (x.fid != y.fid || x.newest_ms != y.newest_ms ||
        x.counts.size() != y.counts.size() || x.weighted != y.weighted) {
      return false;
    }
    for (size_t k = 0; k < x.counts.size(); ++k) {
      if (x.counts[k] != y.counts[k]) return false;
    }
  }
  return true;
}

struct Verdict {
  bool ok = true;
  std::string why;
  size_t queries = 0;
  size_t acked_pids = 0;
  void Fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

using Acked = std::map<ProfileId, std::set<ips::SlotId>>;

void Compare(System& sys, IpsInstance& fresh,
             const std::vector<ProfileId>& pids, const QuerySpec& spec,
             Verdict* verdict) {
  auto live = sys.reader->MultiQuery(kTable, pids, spec);
  auto again = fresh.MultiQuery("verify", kTable, pids, spec);
  verdict->queries += pids.size();
  if (!live.ok() || !again.ok()) {
    verdict->Fail("verification query failed");
    return;
  }
  for (size_t k = 0; k < pids.size(); ++k) {
    if (!live->statuses[k].ok() || !again->statuses[k].ok()) {
      verdict->Fail("verification query returned an error");
      return;
    }
    if (!SameResult(live->results[k], again->results[k])) {
      // A write the client retried on a ring successor (after a shed) lands
      // in a node that does not own the pid; both nodes then write the
      // profile back and the KV keeps whichever flushed last.
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "pid %" PRIu64 ": KV copy answers differently (%" PRId64
                    " client retries in this run)",
                    pids[k],
                    sys.metrics->GetCounter("client.retries")->Value());
      verdict->Fail(buf);
      return;
    }
  }
}

Verdict CompareWithKv(System& sys, const Workload& w, uint64_t seed,
                      const Acked& acked) {
  Verdict verdict;
  ips::KvStore* master = sys.deployment->kv().master();

  // Every acknowledged write's profile must be in the KV.
  ips::Persister persister(kTable, master,
                           ips::IpsInstanceOptions{}.persistence);
  std::vector<ProfileId> acked_pids;
  for (const auto& [pid, slots] : acked) acked_pids.push_back(pid);
  verdict.acked_pids = acked_pids.size();
  constexpr size_t kBatch = 256;
  for (size_t begin = 0; begin < acked_pids.size(); begin += kBatch) {
    const size_t end = std::min(acked_pids.size(), begin + kBatch);
    std::vector<ProfileId> batch(acked_pids.begin() + static_cast<long>(begin),
                                 acked_pids.begin() + static_cast<long>(end));
    for (const auto& loaded : persister.LoadBatch(batch)) {
      if (!loaded.ok()) {
        verdict.Fail("acknowledged write lost: " + loaded.status().ToString());
        return verdict;
      }
    }
  }

  ips::IpsInstanceOptions fresh_options;
  fresh_options.instance_id = "verify";
  fresh_options.start_background_threads = false;
  IpsInstance fresh(fresh_options, master, sys.clock.get());
  Check(fresh.CreateTable(sys.schema), "verify: create table");
  fresh.SetCompactionEnabled(false);

  // A fixed seeded sample of the workload's own queries.
  Workload reads = w;
  reads.write_rate = 0;
  std::vector<Request> sample =
      MakeSchedule(reads, seed ^ 0x2545f491, 64.0 / w.read_rate,
                   sys.clock->NowMs());
  for (const Request& r : sample) {
    Compare(sys, fresh, r.pids, r.spec, &verdict);
    if (!verdict.ok) return verdict;
  }

  // Everything ever written to each acknowledged (pid, slot).
  std::map<ips::SlotId, std::vector<ProfileId>> by_slot;
  for (const auto& [pid, slots] : acked) {
    for (ips::SlotId slot : slots) by_slot[slot].push_back(pid);
  }
  for (const auto& [slot, pids] : by_slot) {
    QuerySpec spec;
    spec.slot = slot;
    spec.time_range = ips::TimeRange::Current(3650 * kMillisPerDay);
    spec.sort_by = ips::SortBy::kFeatureId;
    for (size_t begin = 0; begin < pids.size(); begin += kBatch) {
      const size_t end = std::min(pids.size(), begin + kBatch);
      std::vector<ProfileId> batch(pids.begin() + static_cast<long>(begin),
                                   pids.begin() + static_cast<long>(end));
      Compare(sys, fresh, batch, spec, &verdict);
      if (!verdict.ok) return verdict;
    }
  }
  return verdict;
}

/// Runs the comparison with compaction switched off on the live nodes (no
/// pass may rewrite a profile between its flush and the comparison), then
/// switches it back on.
Verdict Verify(System& sys, const Workload& w, uint64_t seed,
               const Acked& acked) {
  for (IpsNode* node : sys.nodes) node->instance().SetCompactionEnabled(false);
  MakeDurable(sys);
  Verdict verdict = CompareWithKv(sys, w, seed, acked);
  for (IpsNode* node : sys.nodes) node->instance().SetCompactionEnabled(true);
  return verdict;
}

// ---------------------------------------------------------------------------
// One run: set-up, optional write probe, timed window, durability drain and
// verification.

struct SetupStats {
  double setup_s = 0;
  // L1 contents of both nodes when set-up ends.
  size_t resident_profiles = 0;
  size_t resident_bytes = 0;
  // One entry per burst of the write probe.
  std::vector<PhaseResult> probes;
  std::vector<Durability> drains;
};

std::vector<ProfileId> ProbePids() {
  std::vector<ProfileId> pids;
  for (uint64_t rank = 0; rank < kProbeUsers; ++rank) {
    pids.push_back(UserPid(rank));
  }
  return pids;
}

void MergeAcked(const PhaseResult& phase, Acked* acked) {
  for (const auto& [pid, slots] : phase.acked) {
    (*acked)[pid].insert(slots.begin(), slots.end());
  }
}

/// Builds a system ready for the timed window. Set-up time excludes the
/// write probe, which is a measured phase of its own.
std::unique_ptr<System> SetUp(
    const Workload& w, uint64_t seed,
    const std::vector<std::vector<AddRecord>>& population,
    ips::TraceCollector* collector, SetupStats* stats, Acked* acked) {
  const int64_t t0 = MonotonicNanos();
  std::unique_ptr<System> sys = MakeSystem(w);
  PersistPopulation(*sys, population);
  if (w.warm_all) {
    std::vector<ProfileId> all;
    for (uint64_t rank = 0; rank < w.population; ++rank) {
      all.push_back(UserPid(rank));
    }
    WarmPids(*sys, all);
  } else {
    WarmPids(*sys, ProbePids());
  }
  const int64_t t1 = MonotonicNanos();

  for (int burst = 0; burst < kProbeBursts; ++burst) {
    stats->probes.push_back(RunPhase(
        *sys, w, MakeProbe(w, seed + burst, sys->clock->NowMs()), collector));
    stats->drains.push_back(MakeDurable(*sys));
    if (stats->probes.back().wrong_answers > 0) {
      Fail("write probe: wrong answers");
    }
    MergeAcked(stats->probes.back(), acked);
  }

  const std::vector<Request> warm_requests = MakeSchedule(
      w, seed ^ 0xa0761d64, kWarmupSeconds, sys->clock->NowMs());
  const int64_t t2 = MonotonicNanos();
  PhaseResult warm = RunPhase(*sys, w, warm_requests, nullptr);
  if (warm.wrong_answers > 0) Fail("warm-up: wrong answers");
  MergeAcked(warm, acked);
  MakeDurable(*sys);
  for (IpsNode* node : sys->nodes) {
    auto table = node->instance().GetTableStats(kTable);
    Check(table.status(), "table stats");
    stats->resident_profiles += table->cached_profiles;
    stats->resident_bytes += table->cache_bytes;
  }
  if (w.warm_all && stats->resident_profiles < w.population) {
    Fail("set-up: population not resident in L1 (" +
         std::to_string(stats->resident_profiles) + " of " +
         std::to_string(w.population) + ")");
  }
  const int64_t t3 = MonotonicNanos();
  stats->setup_s = Seconds((t1 - t0) + (t3 - t2));
  return sys;
}

struct WindowResult {
  PhaseResult phase;
  CounterSnapshot before;
  CounterSnapshot after;
  double rss_mb = 0;
  Durability durable;
  Verdict verdict;
  std::vector<Request> requests;
};

WindowResult RunWindow(System& sys, const Workload& w, uint64_t seed,
                       double seconds, ips::TraceCollector* collector,
                       const Acked& acked_before) {
  WindowResult out;
  out.requests = MakeSchedule(w, seed, seconds, sys.clock->NowMs());
  if (out.requests.empty()) Fail("empty schedule");
  sys.metrics->GetHistogram("compaction.micros")->Reset();
  out.before = TakeSnapshot(sys);
  out.phase = RunPhase(sys, w, out.requests, collector);
  out.rss_mb = ResidentMb();
  out.after = TakeSnapshot(sys);
  out.durable = MakeDurable(sys);
  Acked acked = acked_before;
  MergeAcked(out.phase, &acked);
  out.verdict = Verify(sys, w, seed, acked);
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  // 0 for counts and ratios
};

struct Report {
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
};

/// Latencies in microseconds of one kind of request; a failed request
/// counts as having missed every limit.
double LatencyUs(const Outcome& o) {
  return o.ok ? static_cast<double>(o.latency_ns) * 1e-3 : 1e12;
}

/// Median of per-part percentiles (sub-windows, or the probes of several
/// set-ups), over `count` samples in all.
Summary MedianOf(std::vector<double> p50s, std::vector<double> p90s,
                 std::vector<double> p99s, size_t count) {
  Summary out;
  out.count = count;
  out.p50 = Median(std::move(p50s));
  out.p90 = Median(std::move(p90s));
  out.p99 = Median(std::move(p99s));
  out.p99_supported = count >= 1000;
  return out;
}

/// Latency of one kind of request, robust to short stalls of the host: the
/// window is cut into consecutive sub-windows of at least a second and about
/// 100 requests at the offered rate (so a sub-window's p90 has ten samples
/// beyond it); p50 and p90 are the medians over the sub-windows of each
/// sub-window's percentile, so one stalled second moves one sub-window, not
/// the reported figure. p99 and `count` are over every request.
Summary Windowed(const std::vector<Outcome>& outcomes, bool writes,
                 double rate) {
  const int64_t span_ns = static_cast<int64_t>(
      std::max(1.0, std::ceil(100.0 / rate)) * 1e9);
  const size_t expected =
      static_cast<size_t>(rate * static_cast<double>(span_ns) * 1e-9);
  std::map<int64_t, std::vector<double>> windows;
  std::vector<double> all;
  for (const Outcome& o : outcomes) {
    if (o.write != writes) continue;
    windows[o.due_ns / span_ns].push_back(LatencyUs(o));
    all.push_back(LatencyUs(o));
  }
  Summary out = Summarize(std::move(all));
  std::vector<double> p50s;
  std::vector<double> p90s;
  for (auto& [index, samples] : windows) {
    // A trailing partial sub-window is too small for its own percentiles.
    if (samples.size() * 2 < expected) continue;
    const Summary s = Summarize(std::move(samples));
    p50s.push_back(s.p50);
    p90s.push_back(s.p90);
  }
  if (!p50s.empty()) {
    out.p50 = Median(std::move(p50s));
    out.p90 = Median(std::move(p90s));
  }
  return out;
}

/// Client retries and admission sheds in the window: a retried call may
/// land on a node that does not own the pid.
void PrintRetries(const WindowResult& win) {
  auto delta = [&](const char* name) {
    return static_cast<long long>(win.before.Delta(win.after, name));
  };
  std::printf("client: %lld retries, %lld sheds (deadline %lld, brown-out "
              "%lld), %lld deadline misses\n",
              delta("client.retries"),
              delta("admission.shed_deadline") +
                  delta("admission.shed_brownout"),
              delta("admission.shed_deadline"),
              delta("admission.shed_brownout"),
              delta("client.deadline_exceeded"));
}

struct Load {
  size_t attempted = 0;
  size_t failed = 0;
  size_t shed = 0;
  size_t completed = 0;
  size_t sent_late = 0;
  Summary gen_lag_us;
};

Load Tally(const PhaseResult& phase) {
  Load load;
  std::vector<double> idle_lag_us;
  for (const Outcome& o : phase.outcomes) {
    ++load.attempted;
    if (o.ok) {
      ++load.completed;
    } else {
      ++load.failed;
    }
    if (o.shed) ++load.shed;
    if (o.lag_ns > kLateNs) ++load.sent_late;
    if (o.idle) idle_lag_us.push_back(static_cast<double>(o.lag_ns) * 1e-3);
  }
  load.gen_lag_us = Summarize(std::move(idle_lag_us));
  return load;
}

/// Per-request self time of the named spans over the traced requests of one
/// kind, in microseconds: median over the requests in which any occurs.
Summary StageUs(const PhaseResult& phase, bool writes,
                std::initializer_list<const char*> spans) {
  std::vector<double> samples;
  for (const Outcome& o : phase.outcomes) {
    if (!o.traced || o.write != writes) continue;
    int64_t ns = 0;
    bool found = false;
    for (const char* span : spans) {
      auto it = o.self_ns.find(span);
      if (it == o.self_ns.end()) continue;
      ns += it->second;
      found = true;
    }
    if (found) samples.push_back(static_cast<double>(ns) * 1e-3);
  }
  return Summarize(std::move(samples));
}

void PrintMetrics(const Report& report) {
  for (const Metric& m : report.metrics) {
    if (m.samples > 0) {
      std::printf("  %-38s %14.4f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-38s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

void PrintResultLine(bool correct, const Load& load, const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", load.attempted, load.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string source_rev = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--source-rev") {
      args.source_rev = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Fail("--seconds must be positive");
  return args;
}

void PrintProvenance(const Workload& w, const Args& args, unsigned senders) {
  const ips::GCacheOptions cache;
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"cores\": %u, \"senders\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"source_rev\": \"%s\", "
      "\"offered_read_rate\": %g, \"offered_write_rate\": %g, "
      "\"read_batch\": %zu, \"write_items\": %zu, \"population\": %" PRIu64
      ", \"records_per_user\": %u, \"l1_bytes_per_node\": %zu, \"nodes\": %zu"
      ", \"sim_speed\": %g, \"limit_ms\": %" PRId64
      ", \"flush_policy\": \"write-back, %zu flush threads every %" PRId64
      " ms, isolation merge every %" PRId64 " ms\"}\n",
      w.name, args.seed, args.seconds, args.trace,
      std::thread::hardware_concurrency(), senders, PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, args.source_rev.c_str(), w.read_rate, w.write_rate,
      w.read_batch, w.write_items, w.population, kRecordsPerUser,
      w.l1_bytes_per_node, kNodes, w.sim_speed, kLimitMs,
      cache.flush_threads, cache.flush_interval_ms,
      ips::IpsInstanceOptions{}.isolation_merge_interval_ms);
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Workload self-checks over the window's counter deltas: a workload that
/// stopped exercising its layer fails instead of reporting numbers.
std::string SelfCheck(const Workload& w, const WindowResult& win) {
  auto delta = [&](const char* name) {
    return static_cast<double>(win.before.Delta(win.after, name));
  };
  const double hits = delta("cache.hit");
  const double misses = delta("cache.miss");
  const double hit_ratio = Ratio(hits, hits + misses);
  const double kv_reads = delta("kv.point_reads") + delta("kv.multi_get_calls");
  if (win.phase.wrong_answers > 0) return "answers contradict the inputs";
  if (w.read_rate > 0 && hits + misses == 0) return "no cache lookups";
  if (std::string(w.name) == "hot_read") {
    if (kv_reads != 0) return "hot_read read from the KV";
    if (hit_ratio < 0.999) return "hot_read hit ratio below 0.999";
  }
  if (std::string(w.name) == "cold_read") {
    if (hit_ratio >= 0.5) return "cold_read: most pids did not miss";
    if (win.phase.negative_lookups == 0) return "cold_read: no new users";
    if (kv_reads == 0) return "cold_read: no KV reads";
  }
  if (w.write_rate > 0) {
    if (delta("compaction.full") + delta("compaction.partial") == 0) {
      return "ingest: no compaction passes";
    }
    if (delta("cache.flushed") == 0) return "ingest: no flushes";
    if (delta("isolation.merged_profiles") == 0) {
      return "ingest: no isolation merges";
    }
  }
  return "";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* found = FindWorkload(args.workload);
  if (found == nullptr) Fail("unknown workload '" + args.workload + "'");
  const Workload& w = *found;
  const unsigned senders = std::max(
      1u, std::min(kMaxSenders, std::thread::hardware_concurrency()));
  const int64_t run_begin = MonotonicNanos();
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n", w.name,
              args.seed, args.seconds, args.trace);
  std::printf("why: %s\n", w.why);
  PrintProvenance(w, args, senders);
  std::fflush(stdout);

  const std::vector<std::vector<AddRecord>> population =
      MakePopulation(w, args.seed);
  Report report;
  bool correct = true;
  std::string problem;
  Load load;

  if (args.trace == 0) {
    std::vector<double> setup_s;
    std::vector<double> probe_p50s, probe_p90s, probe_p99s;
    size_t probe_writes = 0;
    int64_t probe_late_calls = 0;
    std::vector<double> probe_durable_s;
    auto note_setup = [&](const SetupStats& stats) {
      setup_s.push_back(stats.setup_s);
      for (const PhaseResult& probe : stats.probes) {
        const Summary s = Windowed(probe.outcomes, true, kProbeRate);
        probe_p50s.push_back(s.p50);
        probe_p90s.push_back(s.p90);
        probe_p99s.push_back(s.p99);
        probe_writes += s.count;
      }
      for (const Durability& drain : stats.drains) {
        probe_durable_s.push_back(drain.total_s);
        probe_late_calls += drain.late_store_calls;
      }
    };

    Acked acked;
    SetupStats stats;
    std::unique_ptr<System> sys =
        SetUp(w, args.seed, population, nullptr, &stats, &acked);
    note_setup(stats);
    std::printf("L1 after set-up: %zu profiles, %.1f MiB in both nodes\n",
                stats.resident_profiles,
                static_cast<double>(stats.resident_bytes) / (1 << 20));
    WindowResult win = RunWindow(*sys, w, args.seed, args.seconds, nullptr,
                                 acked);
    sys.reset();
    // Further set-ups on the same inputs: setup_s (and the write probe)
    // report the median over all of them.
    for (int k = 1; k < kSetups; ++k) {
      malloc_trim(0);
      Acked ignored;
      SetupStats more;
      std::unique_ptr<System> again =
          SetUp(w, args.seed, population, nullptr, &more, &ignored);
      note_setup(more);
    }

    load = Tally(win.phase);
    const Summary reads =
        Windowed(win.phase.outcomes, /*writes=*/false, w.read_rate);
    // The read-only workloads take write latency from the write probe of
    // every set-up (median over the probes).
    const Summary writes =
        w.write_rate > 0
            ? Windowed(win.phase.outcomes, /*writes=*/true, w.write_rate)
            : MedianOf(probe_p50s, probe_p90s, probe_p99s, probe_writes);
    const double durable_s = Median(probe_durable_s);
    const double window_s = Seconds(win.phase.wall_ns);

    report.Add("setup_s", Median(setup_s), "s", setup_s.size());
    report.Add("read_p50_us", reads.p50, "us", reads.count);
    report.Add("read_p90_us", reads.p90, "us", reads.count);
    report.Add("read_p99_us", reads.p99, "us", reads.count);
    report.Add("write_p50_us", writes.p50, "us", writes.count);
    report.Add("write_p90_us", writes.p90, "us", writes.count);
    report.Add("write_p99_us", writes.p99, "us", writes.count);
    report.Add("ops_per_s", static_cast<double>(load.completed) / window_s,
               "1/s", load.completed);
    report.Add("cpu_us_per_op",
               win.phase.cpu_s * 1e6 /
                   static_cast<double>(std::max<size_t>(1, load.completed)),
               "us", load.completed);
    report.Add("rss_mb", win.rss_mb, "MB");
    report.Add("durable_s", durable_s, "s", probe_durable_s.size());

    std::printf("end-to-end (untraced):\n");
    PrintMetrics(report);
    std::printf("  %-38s %14.6f (failed %zu of %zu, shed %zu)\n",
                "error_frac",
                Ratio(static_cast<double>(load.failed),
                      static_cast<double>(load.attempted)),
                load.failed, load.attempted, load.shed);
    std::printf("  write latencies from: %s\n",
                w.write_rate > 0 ? "the timed window"
                                 : "the write probe of every set-up");
    std::printf("  durable_s from: the write probe of every set-up (%" PRId64
                " store calls landed after FlushAll returned)\n",
                probe_late_calls);
    std::printf("  window end drain: %.4f s (merge %.4f s, drain %.4f s, "
                "flush %.4f s, %" PRId64
                " store calls landed after FlushAll returned)\n",
                win.durable.total_s, win.durable.merge_s, win.durable.drain_s,
                win.durable.flush_s, win.durable.late_store_calls);
    std::printf("generator: p99 wake-up lag %.1f us (n=%zu), sent late %zu\n",
                load.gen_lag_us.p99, load.gen_lag_us.count, load.sent_late);
    PrintRetries(win);
    std::printf("verification: %zu query answers compared, %zu acknowledged "
                "pids checked: %s\n",
                win.verdict.queries, win.verdict.acked_pids,
                win.verdict.ok ? "ok" : win.verdict.why.c_str());

    problem = SelfCheck(w, win);
    if (!win.verdict.ok) problem = "verification: " + win.verdict.why;
    if (load.gen_lag_us.p99 > kMaxGenLagUs) {
      problem = "invalid run: the generator fell behind";
    }
  } else {
    // One set-up: an untraced reference window for the tracing overhead,
    // then the same inputs again with every request traced (the write probe
    // too). The collector keeps its own registry so trace bookkeeping stays
    // out of the program's counters.
    MetricsRegistry trace_metrics;
    ips::TraceCollectorOptions trace_options;
    trace_options.sample_every_n = 1;
    ips::TraceCollector collector(trace_options, ips::SystemClock::Instance(),
                                  &trace_metrics);
    Acked acked;
    SetupStats stats;
    std::unique_ptr<System> sys =
        SetUp(w, args.seed, population, &collector, &stats, &acked);
    const WindowResult reference =
        RunWindow(*sys, w, args.seed, args.seconds, nullptr, acked);
    const double untraced_p50 =
        Windowed(reference.phase.outcomes, false, w.read_rate).p50;
    if (!reference.verdict.ok) {
      problem = "verification: " + reference.verdict.why;
    }
    MergeAcked(reference.phase, &acked);
    WindowResult win = RunWindow(*sys, w, args.seed, args.seconds,
                                 &collector, acked);
    load = Tally(win.phase);
    auto delta = [&](const char* name) {
      return static_cast<double>(win.before.Delta(win.after, name));
    };
    const double window_s = Seconds(win.phase.wall_ns);
    const double reads = static_cast<double>(std::count_if(
        win.requests.begin(), win.requests.end(),
        [](const Request& r) { return !r.write; }));
    // Write-side stages come from the window's writes, or from the traced
    // write probe on the read-only workloads.
    PhaseResult probe_writes;
    for (const PhaseResult& probe : stats.probes) {
      probe_writes.outcomes.insert(probe_writes.outcomes.end(),
                                   probe.outcomes.begin(),
                                   probe.outcomes.end());
    }
    const PhaseResult& write_phase =
        w.write_rate > 0 ? win.phase : probe_writes;
    // The read-only workloads' drain figures come from the probe burst whose
    // drain took the median time.
    std::vector<Durability> drains = stats.drains;
    std::sort(drains.begin(), drains.end(),
              [](const Durability& a, const Durability& b) {
                return a.total_s < b.total_s;
              });
    const Durability& durable =
        w.write_rate > 0 ? win.durable : drains[drains.size() / 2];
    auto stage = [&](const char* name, const char* span) {
      const Summary s = StageUs(win.phase, false, {span});
      report.Add(name, s.p50, "us", s.count);
    };
    {
      // Client-side dispatch of a batched call is the self time of its
      // umbrella span (routing, fan-out threads, reassembly).
      const Summary s =
          StageUs(win.phase, false, {"rpc.dispatch", "client.multi_query"});
      report.Add("cluster.dispatch_us", s.p50, "us", s.count);
    }
    stage("cluster.transfer_us", "rpc.transfer");
    stage("server.queue_us", "server.queue");
    {
      const Summary s = StageUs(write_phase, true, {"server.add"});
      report.Add("server.add_us", s.p50, "us", s.count);
    }
    report.Add("server.shed_frac",
               Ratio(delta("admission.shed_deadline") +
                         delta("admission.shed_brownout"),
                     static_cast<double>(load.attempted)),
               "ratio");
    report.Add("server.merge_s", durable.merge_s, "s", 1);
    stage("cache.lookup_us", "cache.lookup");
    report.Add("cache.hit_ratio",
               Ratio(delta("cache.hit"),
                     delta("cache.hit") + delta("cache.miss")),
               "ratio");
    stage("cache.coalesce_us", "server.coalesce");
    stage("cache.shared_load_us", "kv.load.shared");
    report.Add("cache.evicted_per_s", delta("cache.evicted") / window_s,
               "1/s");
    report.Add("cache.flushed_per_s", delta("cache.flushed") / window_s,
               "1/s");
    report.Add("cache.flush_failures", delta("cache.flush_failures"),
               "count");
    report.Add("cache.store_batch_pids",
               Ratio(delta(kBatchPidsSum), delta(kBatchPidsCount)), "pids");
    stage("query.compute_us", "feature.compute");
    stage("codec.decode_us", "codec.decode");
    report.Add("codec.zero_copy_frac",
               Ratio(delta("codec.zero_copy_decodes"), delta("cache.miss")),
               "ratio");
    stage("kvstore.load_us", "kv.load");
    report.Add("kvstore.read_calls_per_query",
               Ratio(delta("kv.point_reads") + delta("kv.multi_get_calls"),
                     reads),
               "count");
    report.Add("kvstore.keys_per_multiget",
               Ratio(delta("kv.multi_get_keys"), delta("kv.multi_get_calls")),
               "count");
    report.Add("kvstore.write_calls_per_flushed_pid",
               Ratio(delta("kv.point_writes") + delta("kv.multi_set_calls"),
                     delta("cache.flushed")),
               "count");
    report.Add("kvstore.bytes_written_per_user_byte",
               Ratio(delta("kv.bytes_written"), win.phase.acked_record_bytes),
               "ratio");
    const double passes =
        delta("compaction.full") + delta("compaction.partial");
    report.Add("compaction.passes_per_s", passes / window_s, "1/s");
    {
      ips::Histogram* micros = sys->metrics->GetHistogram("compaction.micros");
      report.Add("compaction.pass_us",
                 static_cast<double>(micros->Percentile(0.5)), "us",
                 static_cast<size_t>(micros->count()));
    }
    report.Add("compaction.overlap_stall_frac",
               Ratio(delta("compaction.overlap_stalls"), passes), "ratio");
    report.Add("compaction.dropped_frac",
               Ratio(delta("compaction.dropped"),
                     delta("compaction.triggered")),
               "ratio");
    report.Add("compaction.drain_s", durable.drain_s, "s", 1);
    const double traced_p50 =
        Windowed(win.phase.outcomes, false, w.read_rate).p50;
    report.Add("common.trace_overhead_frac",
               Ratio(traced_p50 - untraced_p50, untraced_p50), "ratio");
    report.Add("common.gen_lag_us", load.gen_lag_us.p99, "us",
               load.gen_lag_us.count);

    std::printf("per-layer (traced; untraced read p50 %.1f us, traced %.1f "
                "us):\n",
                untraced_p50, traced_p50);
    PrintMetrics(report);
    PrintRetries(win);
    std::printf("verification: %zu query answers compared, %zu acknowledged "
                "pids checked: %s\n",
                win.verdict.queries, win.verdict.acked_pids,
                win.verdict.ok ? "ok" : win.verdict.why.c_str());
    const std::string self = SelfCheck(w, win);
    if (!self.empty()) problem = self;
    if (!win.verdict.ok) problem = "verification: " + win.verdict.why;
    if (load.gen_lag_us.p99 > kMaxGenLagUs) {
      problem = "invalid run: the generator fell behind";
    }
  }

  if (!problem.empty()) {
    correct = false;
    std::printf("FAILED: %s\n", problem.c_str());
  }
  std::printf("total run time %.1f s\n",
              Seconds(MonotonicNanos() - run_begin));
  PrintResultLine(correct, load, report);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
