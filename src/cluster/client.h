// Unified IPS client (Section III): the single library every upstream
// application uses. It refreshes the instance list from service discovery
// periodically, routes each profile id with consistent hashing, retries
// failed calls on ring successors, prefers the local region for reads, and
// fans writes out to every region (Fig 15). Every call — single-profile or
// batched, read or write — goes through one scatter round per region.
// Client-observed errors feed the error-rate metric of Fig 17.
#ifndef IPS_CLUSTER_CLIENT_H_
#define IPS_CLUSTER_CLIENT_H_

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/circuit_breaker.h"
#include "cluster/consistent_hash.h"
#include "cluster/deployment.h"
#include "cluster/retry_policy.h"
#include "common/call_context.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "query/query.h"

namespace ips {

struct IpsClientOptions {
  std::string caller = "default";
  std::string local_region;
  /// Region preference order after the local one (failover targets).
  std::vector<std::string> failover_regions;
  /// Attempts per read per region, each on the next ring successor; also
  /// the bound on same-node re-offers of a shed read.
  int max_read_attempts = 2;
  /// Attempts per write per region; also the bound on same-node re-offers
  /// of a shed write.
  int max_write_attempts = 2;
  /// Discovery view refresh interval (simulated time).
  int64_t refresh_interval_ms = 2000;
  /// Estimated request/response payloads for the transport cost model.
  size_t request_bytes = 256;
  size_t response_bytes = 2048;
  /// Deadline applied to requests whose caller passes no explicit
  /// CallContext; 0 disables (no deadline).
  int64_t default_timeout_ms = 0;
  /// Retry classification / backoff / budget. Attempts beyond the first are
  /// granted by this policy; disabling it restores blind successor loops.
  RetryPolicyOptions retry;
  /// Per-node circuit breaking, consulted during candidate selection.
  CircuitBreakerOptions breaker;
};

/// Per-region outcome of a multi-region write. A write is acknowledged when
/// at least one region accepted it, but regions_ok < regions_total means
/// some region silently missed the update (its readers serve stale data
/// until replication repair) — callers that care must check `complete()`.
struct WriteAck {
  size_t regions_ok = 0;
  size_t regions_total = 0;
  bool complete() const { return regions_ok == regions_total; }
};

/// Estimated wire size of an encoded add-record batch: the size-proportional
/// transport cost model (Table II) has to see the real payload, not a fixed
/// per-request constant, or large writes are charged like small ones.
size_t EstimateAddPayloadBytes(const std::vector<AddRecord>& records);

class IpsClient {
 public:
  IpsClient(IpsClientOptions options, Deployment* deployment);

  /// Write path: the record is sent to the owning instance in *every*
  /// region (multi-region writing). Succeeds when at least one region
  /// acknowledged; per-region failures are counted but tolerated, matching
  /// the weak-consistency contract. Batch-of-one wrapper over MultiAdd.
  Status AddProfile(const std::string& table, ProfileId pid,
                    TimestampMs timestamp, SlotId slot, TypeId type,
                    FeatureId fid, const CountVector& counts);

  Status AddProfiles(const std::string& table, ProfileId pid,
                     const std::vector<AddRecord>& records);

  /// AddProfiles under an explicit caller identity (e.g. a bulk-import job
  /// writing under its own quota while sharing the client plumbing).
  Status AddProfilesAs(const std::string& caller, const std::string& table,
                       ProfileId pid, const std::vector<AddRecord>& records) {
    return AddProfilesAs(caller, table, pid, records, DefaultContext());
  }

  /// `out_ack`, when non-null, reports how many regions accepted the write;
  /// a partial multi-region write still returns OK (weak-consistency
  /// contract) but is visible through the ack and the
  /// `client.write_partial_regions` counter.
  Status AddProfilesAs(const std::string& caller, const std::string& table,
                       ProfileId pid, const std::vector<AddRecord>& records,
                       const CallContext& ctx, WriteAck* out_ack = nullptr);

  /// Batched write path (mirror of MultiQuery): one scatter round per
  /// region groups the items by owning instance on that region's ring and
  /// sends each group as ONE MultiAdd RPC — sub-batches fan out to their
  /// owners in parallel and per-item statuses reassemble in input order. An
  /// item is OK when at least one region accepted it; items accepted by
  /// only some regions bump `client.write_partial_regions`. Within a region
  /// a failed item moves to its ring successor under the retry policy and
  /// breaker gates; a shed item goes back to the same owner (see Query).
  Result<MultiAddResult> MultiAdd(const std::string& table,
                                  const std::vector<MultiAddItem>& items) {
    return MultiAddAs(options_.caller, table, items, DefaultContext());
  }

  Result<MultiAddResult> MultiAdd(const std::string& table,
                                  const std::vector<MultiAddItem>& items,
                                  const CallContext& ctx) {
    return MultiAddAs(options_.caller, table, items, ctx);
  }

  Result<MultiAddResult> MultiAddAs(const std::string& caller,
                                    const std::string& table,
                                    const std::vector<MultiAddItem>& items,
                                    const CallContext& ctx);

  /// True when some live node in any region has the table (pre-flight check
  /// for batch jobs).
  bool HasTableAnywhere(const std::string& table);

  /// Read path: local region first, ring successor retries, then failover
  /// regions. Attempts after the first are granted by the retry policy
  /// (classification + budget) and separated by jittered backoff; nodes
  /// with an open circuit breaker are skipped at candidate selection. A
  /// load-shed with a retry-after hint is re-offered to the SAME node after
  /// the server-paced wait (at most max_read_attempts times), never to a
  /// successor; a hint-less quota rejection is terminal. Batch-of-one
  /// wrapper over MultiQuery that keeps its own root span (client.query)
  /// and counters (client.read_*).
  Result<QueryResult> Query(const std::string& table, ProfileId pid,
                            const QuerySpec& spec) {
    return Query(table, pid, spec, DefaultContext());
  }

  Result<QueryResult> Query(const std::string& table, ProfileId pid,
                            const QuerySpec& spec, const CallContext& ctx);

  /// Batched read path (the serving hot path): pids are deduplicated,
  /// grouped by owning instance on the consistent-hash ring, and each group
  /// goes out as ONE MultiQuery RPC — sub-batches fan out to their owners in
  /// parallel and reassemble in input order with per-pid statuses. Retries
  /// regroup unfinished pids by ring successor, then failover regions.
  /// Duplicate pids share one lookup but each occurrence gets its own
  /// result slot.
  Result<MultiQueryResult> MultiQuery(const std::string& table,
                                      std::span<const ProfileId> pids,
                                      const QuerySpec& spec) {
    return MultiQuery(table, pids, spec, DefaultContext());
  }

  Result<MultiQueryResult> MultiQuery(const std::string& table,
                                      std::span<const ProfileId> pids,
                                      const QuerySpec& spec,
                                      const CallContext& ctx);

  Result<QueryResult> GetProfileTopK(const std::string& table, ProfileId pid,
                                     SlotId slot, std::optional<TypeId> type,
                                     const TimeRange& range, SortBy sort_by,
                                     ActionIndex sort_action, size_t k);

  /// Forces a discovery refresh now (tests; normally interval-driven).
  void RefreshView();

  /// Observability: client-side request/error counters.
  int64_t requests() const;
  int64_t errors() const;
  double ErrorRate() const;

  /// Fault-tolerance state (tests / observability).
  RetryPolicy& retry_policy() { return retry_policy_; }
  CircuitBreakerRegistry& breakers() { return breakers_; }

 private:
  /// Ordered candidate node ids for `pid` reads in `region`: ring
  /// successors, with open-breaker nodes filtered out (the ring is probed
  /// deeper to keep `attempts` usable candidates; if breakers reject every
  /// successor the unfiltered list is returned as a last resort).
  std::vector<std::string> ReadCandidates(ProfileId pid,
                                          const std::string& region,
                                          int attempts);
  void MaybeRefresh();

  CallContext DefaultContext() const {
    return CallContext::WithTimeout(*deployment_->clock(),
                                    options_.default_timeout_ms);
  }

  /// Gate for every attempt after the first: classifies `last_error`,
  /// withdraws retry budget and sleeps the jittered backoff (clamped to the
  /// deadline). False when the request must stop retrying.
  bool PrepareRetry(const Status& last_error, const CallContext& ctx);

  /// Records a call outcome on the node's breaker.
  void RecordOutcome(const std::string& node_id, const Status& status);

  /// One request's items on their way through ScatterRound (client.cc).
  struct Scatter;
  enum class RoundEnd;

  /// The one request loop. Walks the open items of `s` through their ring
  /// candidates in `region`: each attempt groups them by owner, gates the
  /// retry (deadline, retry policy), calls every owner group once — one
  /// group on this thread, the others on workers — and folds the per-item
  /// statuses. A failed item moves to its next candidate; a shed item
  /// (throttled with a retry-after hint) stays on the same node, at most
  /// `max_attempts` times; a hint-less quota rejection stops the round.
  RoundEnd ScatterRound(const std::string& region, Scatter& s);

  /// Read direction: regions in preference order until every pid is done.
  /// `root_span` names the request's root span.
  MultiQueryResult QueryBatch(const char* root_span, const std::string& table,
                              std::span<const ProfileId> pids,
                              const QuerySpec& spec, const CallContext& ctx);

  /// Write direction: one round per region, counting region acks per item
  /// into `out_regions_ok` when non-null. `root_span` may be null (no root
  /// span of its own).
  MultiAddResult AddBatch(const char* root_span, const std::string& caller,
                          const std::string& table,
                          const std::vector<MultiAddItem>& items,
                          const CallContext& ctx,
                          std::vector<size_t>* out_regions_ok);

  IpsClientOptions options_;
  Deployment* deployment_;
  MetricsRegistry* metrics_;
  RetryPolicy retry_policy_;
  CircuitBreakerRegistry breakers_;

  std::mutex mu_;
  /// region -> ring over that region's live instances.
  std::unordered_map<std::string, ConsistentHashRing> rings_;
  TimestampMs last_refresh_ms_ = -1;
};

}  // namespace ips

#endif  // IPS_CLUSTER_CLIENT_H_
