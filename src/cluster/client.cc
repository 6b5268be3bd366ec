#include "cluster/client.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "common/trace.h"

namespace ips {

size_t EstimateAddPayloadBytes(const std::vector<AddRecord>& records) {
  // Fixed envelope (caller, table, pid, batch framing) plus the encoded
  // fields of every record. Counts dominate for wide action vectors.
  size_t bytes = 64;
  for (const auto& r : records) {
    bytes += sizeof(r.timestamp) + sizeof(r.slot) + sizeof(r.type) +
             sizeof(r.fid) + r.counts.size() * sizeof(int64_t);
  }
  return bytes;
}

IpsClient::IpsClient(IpsClientOptions options, Deployment* deployment)
    : options_(std::move(options)),
      deployment_(deployment),
      metrics_(deployment->metrics()),
      retry_policy_(options_.retry),
      breakers_(options_.breaker) {
  RefreshView();
}

void IpsClient::RefreshView() {
  std::lock_guard<std::mutex> lock(mu_);
  rings_.clear();
  for (const auto& region : deployment_->region_names()) {
    std::vector<std::string> members;
    for (const auto& entry : deployment_->discovery().Snapshot(region)) {
      members.push_back(entry.instance_id);
    }
    rings_[region].SetMembers(members);
  }
  last_refresh_ms_ = deployment_->clock()->NowMs();
}

void IpsClient::MaybeRefresh() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const TimestampMs now = deployment_->clock()->NowMs();
    if (last_refresh_ms_ >= 0 &&
        now - last_refresh_ms_ < options_.refresh_interval_ms) {
      return;
    }
  }
  RefreshView();
}

std::vector<std::string> IpsClient::ReadCandidates(ProfileId pid,
                                                   const std::string& region,
                                                   int attempts) {
  std::vector<std::string> successors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rings_.find(region);
    if (it == rings_.end()) return {};
    // Probe the ring a little deeper than `attempts` so filtering open
    // breakers still leaves a full candidate list when possible.
    const size_t probe =
        static_cast<size_t>(attempts) + (breakers_.enabled() ? 2 : 0);
    successors = it->second.LookupN(pid, probe);
  }
  if (!breakers_.enabled()) {
    if (successors.size() > static_cast<size_t>(attempts)) {
      successors.resize(static_cast<size_t>(attempts));
    }
    return successors;
  }
  const TimestampMs now = deployment_->clock()->NowMs();
  std::vector<std::string> usable;
  usable.reserve(static_cast<size_t>(attempts));
  int64_t skipped = 0;
  for (const auto& node_id : successors) {
    if (usable.size() >= static_cast<size_t>(attempts)) break;
    if (breakers_.Get(node_id)->AllowRequest(now)) {
      usable.push_back(node_id);
    } else {
      ++skipped;
    }
  }
  if (skipped > 0) {
    metrics_->GetCounter("client.breaker_skips")->Increment(skipped);
  }
  if (usable.empty() && !successors.empty()) {
    // Every successor's breaker is open. Refusing to try at all would turn
    // a flapping cluster into a guaranteed failure, so fall back to plain
    // ring order — the calls double as half-open probes.
    successors.resize(
        std::min(successors.size(), static_cast<size_t>(attempts)));
    return successors;
  }
  return usable;
}

bool IpsClient::PrepareRetry(const Status& last_error, const CallContext& ctx) {
  const auto delay = retry_policy_.NextRetryDelayMs(last_error);
  if (!delay.has_value()) {
    // Distinguish "error is terminal" from "budget said no": only the
    // latter is a policy intervention worth a counter.
    if (retry_policy_.enabled() && last_error.IsRetryable()) {
      metrics_->GetCounter("client.retry_budget_exhausted")->Increment();
    }
    return false;
  }
  const int64_t sleep_ms = *delay;
  if (ctx.has_deadline()) {
    const int64_t remaining = ctx.RemainingMs(deployment_->clock()->NowMs());
    // The backoff must leave headroom for the attempt itself: sleeping the
    // full remaining budget lands exactly on the deadline, guaranteeing a
    // dead-on-arrival attempt whose DeadlineExceeded outcome would then be
    // charged to a healthy node's breaker. Fail with the real error now.
    if (remaining <= sleep_ms) return false;
  }
  if (last_error.IsThrottled() && last_error.has_retry_after()) {
    metrics_->GetCounter("client.throttle_backoffs")->Increment();
  }
  metrics_->GetCounter("client.retries")->Increment();
  if (sleep_ms > 0) deployment_->clock()->SleepMs(sleep_ms);
  return true;
}

void IpsClient::RecordOutcome(const std::string& node_id,
                              const Status& status) {
  if (!breakers_.enabled()) return;
  CircuitBreaker* breaker = breakers_.Get(node_id);
  if (CircuitBreaker::IsNodeFault(status)) {
    breaker->RecordFailure(deployment_->clock()->NowMs());
  } else {
    breaker->RecordSuccess();
  }
}

Status IpsClient::AddProfile(const std::string& table, ProfileId pid,
                             TimestampMs timestamp, SlotId slot, TypeId type,
                             FeatureId fid, const CountVector& counts) {
  AddRecord record;
  record.timestamp = timestamp;
  record.slot = slot;
  record.type = type;
  record.fid = fid;
  record.counts = counts;
  return AddProfiles(table, pid, {record});
}

Status IpsClient::AddProfiles(const std::string& table, ProfileId pid,
                              const std::vector<AddRecord>& records) {
  return AddProfilesAs(options_.caller, table, pid, records);
}

bool IpsClient::HasTableAnywhere(const std::string& table) {
  MaybeRefresh();
  for (const auto& region : deployment_->region_names()) {
    for (auto* node : deployment_->NodesInRegion(region)) {
      if (!node->IsDown() && node->instance().HasTable(table)) return true;
    }
  }
  return false;
}

namespace {

/// Where an item of a request stands in the region being scattered to.
enum class ItemState : char {
  kOpen,      // still walking its ring candidates
  kAccepted,  // the region served / applied it
  kGivenUp,   // shed past its re-offers, or quota-rejected: no more attempts
};

}  // namespace

enum class IpsClient::RoundEnd {
  kExhausted,  // every item accepted, given up or out of candidates
  kStopped,    // quota rejection, or the retry policy refused an attempt
  kDeadline,   // the caller's deadline expired
};

struct IpsClient::Scatter {
  /// Built right after the root span opens: the calls carry the root as
  /// their trace parent, and the client-side work around them reports as
  /// rpc.dispatch.
  Scatter(const CallContext& caller_ctx, int attempts)
      : ctx(caller_ctx), call_ctx(caller_ctx), max_attempts(attempts) {
    call_ctx.trace = CurrentTrace();
    dispatch.emplace("rpc.dispatch");
  }

  /// Opens every item for a round whose first attempt is not a retry.
  void Open() {
    statuses.assign(pids.size(), Status::Unavailable("no live instance"));
    states.assign(pids.size(), ItemState::kOpen);
    retry_next = false;
  }

  const CallContext& ctx;  // the caller's deadline
  CallContext call_ctx;
  int max_attempts;
  std::vector<ProfileId> pids;   // one per item
  std::vector<Status> statuses;  // per item: the last outcome
  std::vector<ItemState> states;
  bool retry_next = false;  // the next attempt needs a retry grant
  /// Wire size of one owner group's request and response.
  std::function<std::pair<size_t, size_t>(const std::vector<size_t>&)>
      wire_bytes;
  /// Sends one owner group (item indices) to `instance` as one batch call
  /// and fills the per-item statuses aligned with the group; a non-OK
  /// return fails the whole group.
  std::function<Status(IpsInstance&, const std::vector<size_t>&,
                       std::vector<Status>*)>
      send;
  /// Client-side dispatch work — discovery refresh, routing, retry policy,
  /// outcome bookkeeping. Suspended around the calls so it never overlaps
  /// rpc.transfer or any server-side stage.
  std::optional<ScopedSpan> dispatch;
};

IpsClient::RoundEnd IpsClient::ScatterRound(const std::string& region,
                                            Scatter& s) {
  const size_t n = s.pids.size();
  // Ring candidates per open item, computed once per region. `next` is the
  // candidate an item goes to in the coming attempt; `reoffers` bounds how
  // often a shed item goes back to the same node.
  std::vector<std::vector<std::string>> candidates(n);
  for (size_t i = 0; i < n; ++i) {
    if (s.states[i] == ItemState::kOpen) {
      candidates[i] = ReadCandidates(s.pids[i], region, s.max_attempts);
    }
  }
  std::vector<size_t> next(n, 0);
  std::vector<int> reoffers(n, s.max_attempts);

  for (;;) {
    // Group the open items by this attempt's ring owner. std::map keeps the
    // scatter order deterministic.
    std::map<std::string, std::vector<size_t>> by_node;
    for (size_t i = 0; i < n; ++i) {
      if (s.states[i] == ItemState::kOpen && next[i] < candidates[i].size()) {
        by_node[candidates[i][next[i]]].push_back(i);
      }
    }
    if (by_node.empty()) return RoundEnd::kExhausted;

    if (s.ctx.Expired(deployment_->clock()->NowMs())) {
      metrics_->GetCounter("client.deadline_exceeded")->Increment();
      for (size_t i = 0; i < n; ++i) {
        if (s.states[i] != ItemState::kAccepted) {
          s.statuses[i] = Status::DeadlineExceeded("client deadline expired");
        }
      }
      return RoundEnd::kDeadline;
    }
    // Attempts after the first need a grant from the retry policy; an open
    // item's last outcome is the representative error.
    if (s.retry_next && retry_policy_.enabled() &&
        !PrepareRetry(s.statuses[by_node.begin()->second.front()], s.ctx)) {
      return RoundEnd::kStopped;
    }
    s.retry_next = true;

    // One call per owner group. Each group writes only its own items'
    // entries, so the groups need no lock between them.
    std::atomic<bool> saw_quota{false};
    auto call_group = [&](const std::string& node_id,
                          const std::vector<size_t>& group, bool inline_call) {
      IpsNode* node = deployment_->FindNode(node_id);
      if (node == nullptr) {
        for (size_t i : group) ++next[i];
        return;
      }
      const auto [request_bytes, response_bytes] = s.wire_bytes(group);
      std::vector<Status> item_statuses;
      if (inline_call) s.dispatch.reset();
      const Status call = node->Call(
          s.call_ctx, request_bytes, response_bytes,
          [&](IpsInstance& instance) {
            return s.send(instance, group, &item_statuses);
          });
      if (inline_call) s.dispatch.emplace("rpc.dispatch");
      RecordOutcome(node_id, call);
      for (size_t j = 0; j < group.size(); ++j) {
        const size_t i = group[j];
        // A group-level failure (node down, quota, unknown table) is every
        // item's outcome.
        s.statuses[i] = call.ok() ? item_statuses[j] : call;
        const Status& status = s.statuses[i];
        if (status.ok()) {
          s.states[i] = ItemState::kAccepted;
        } else if (!status.IsThrottled()) {
          ++next[i];  // the ring successor takes over
        } else if (!status.has_retry_after()) {
          // A hint-less quota rejection is a server decision, not a node
          // fault: successors enforce the same per-caller budget.
          s.states[i] = ItemState::kGivenUp;
          saw_quota.store(true, std::memory_order_relaxed);
        } else if (reoffers[i] == 0) {
          s.states[i] = ItemState::kGivenUp;
        } else {
          // A load-shed with a retry-after hint means "come back to ME":
          // the item stays on this node, and the next attempt's
          // PrepareRetry waits out the hint without burning budget. Sending
          // it to the successor instead would split the profile across two
          // write-back caches.
          --reoffers[i];
        }
      }
    };
    // The first group runs on this thread, so a batch of one starts no
    // thread; the others run on workers.
    std::vector<std::thread> workers;
    workers.reserve(by_node.size() - 1);
    for (auto it = std::next(by_node.begin()); it != by_node.end(); ++it) {
      workers.emplace_back(call_group, std::cref(it->first),
                           std::cref(it->second), /*inline_call=*/false);
    }
    call_group(by_node.begin()->first, by_node.begin()->second,
               /*inline_call=*/true);
    if (!workers.empty()) {
      s.dispatch.reset();
      for (auto& worker : workers) worker.join();
      s.dispatch.emplace("rpc.dispatch");
    }
    if (saw_quota.load(std::memory_order_relaxed)) return RoundEnd::kStopped;
  }
}

Status IpsClient::AddProfilesAs(const std::string& caller,
                                const std::string& table, ProfileId pid,
                                const std::vector<AddRecord>& records,
                                const CallContext& ctx, WriteAck* out_ack) {
  metrics_->GetCounter("client.write_requests")->Increment();
  std::vector<size_t> regions_ok;
  const MultiAddResult batch = AddBatch(/*root_span=*/nullptr, caller, table,
                                        {{pid, records}}, ctx, &regions_ok);
  if (out_ack != nullptr) {
    out_ack->regions_ok = regions_ok[0];
    out_ack->regions_total = deployment_->region_names().size();
  }
  if (!batch.statuses[0].ok()) {
    metrics_->GetCounter("client.write_errors")->Increment();
  }
  return batch.statuses[0];
}

Result<MultiAddResult> IpsClient::MultiAddAs(
    const std::string& caller, const std::string& table,
    const std::vector<MultiAddItem>& items, const CallContext& ctx) {
  if (items.empty()) return Status::InvalidArgument("empty add batch");
  metrics_->GetCounter("client.multi_write_requests")->Increment();
  metrics_->GetCounter("client.multi_write_pids")
      ->Increment(static_cast<int64_t>(items.size()));
  MultiAddResult out =
      AddBatch("client.multi_add", caller, table, items, ctx, nullptr);
  if (out.ok_items < items.size()) {
    metrics_->GetCounter("client.multi_write_errors")
        ->Increment(static_cast<int64_t>(items.size() - out.ok_items));
  }
  return out;
}

MultiAddResult IpsClient::AddBatch(const char* root_span,
                                   const std::string& caller,
                                   const std::string& table,
                                   const std::vector<MultiAddItem>& items,
                                   const CallContext& ctx,
                                   std::vector<size_t>* out_regions_ok) {
  TraceInstallScope trace_install(ctx.trace);
  std::optional<ScopedSpan> root;
  if (root_span != nullptr) root.emplace(root_span);
  Scatter s(ctx, options_.max_write_attempts);
  MaybeRefresh();
  retry_policy_.OnRequestStart();
  s.pids.reserve(items.size());
  for (const auto& item : items) s.pids.push_back(item.pid);
  s.wire_bytes = [&](const std::vector<size_t>& group) {
    // The transport cost model is size-proportional: charge the encoded
    // size of the records, not a fixed per-request constant.
    size_t request_bytes = 0;
    for (size_t i : group) {
      request_bytes += EstimateAddPayloadBytes(items[i].records);
    }
    return std::pair<size_t, size_t>(request_bytes, 64 * group.size());
  };
  s.send = [&](IpsInstance& instance, const std::vector<size_t>& group,
               std::vector<Status>* statuses) -> Status {
    std::vector<MultiAddItem> sub;
    if (group.size() < items.size()) {
      sub.reserve(group.size());
      for (size_t i : group) sub.push_back(items[i]);
    }
    IPS_ASSIGN_OR_RETURN(
        MultiAddResult batch,
        instance.MultiAdd(caller, table, sub.empty() ? items : sub,
                          s.call_ctx));
    *statuses = std::move(batch.statuses);
    return Status::OK();
  };

  // Multi-region writing: every region gets every item on its owner. The
  // region fan-out is the write contract, not a retry, so each region's
  // round starts without one; only the deadline stops the fan-out.
  const std::vector<std::string> regions = deployment_->region_names();
  std::vector<size_t> regions_ok(items.size(), 0);
  int64_t region_errors = 0;
  for (const auto& region : regions) {
    s.Open();
    const RoundEnd end = ScatterRound(region, s);
    for (size_t i = 0; i < items.size(); ++i) {
      if (s.states[i] == ItemState::kAccepted) {
        ++regions_ok[i];
      } else {
        ++region_errors;
      }
    }
    if (end == RoundEnd::kDeadline) break;
  }
  if (region_errors > 0) {
    metrics_->GetCounter("client.write_region_errors")
        ->Increment(region_errors);
  }

  // Gather: an item is acknowledged when at least one region accepted it
  // (the weak-consistency write contract); partial region coverage is
  // surfaced through the counter rather than silently dropped. A deadline
  // can stop the fan-out before later regions were attempted; they still
  // count as not-acked.
  MultiAddResult out;
  out.statuses.assign(items.size(), Status::OK());
  int64_t partial = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (regions_ok[i] == 0) {
      out.statuses[i] = s.statuses[i];
      continue;
    }
    ++out.ok_items;
    if (regions_ok[i] < regions.size()) ++partial;
  }
  if (partial > 0) {
    metrics_->GetCounter("client.write_partial_regions")->Increment(partial);
  }
  if (out_regions_ok != nullptr) *out_regions_ok = std::move(regions_ok);
  return out;
}

Result<QueryResult> IpsClient::Query(const std::string& table, ProfileId pid,
                                     const QuerySpec& spec,
                                     const CallContext& ctx) {
  metrics_->GetCounter("client.read_requests")->Increment();
  MultiQueryResult batch = QueryBatch(
      "client.query", table, std::span<const ProfileId>(&pid, 1), spec, ctx);
  if (!batch.statuses[0].ok()) {
    metrics_->GetCounter("client.read_errors")->Increment();
    return batch.statuses[0];
  }
  return std::move(batch.results[0]);
}

Result<MultiQueryResult> IpsClient::MultiQuery(const std::string& table,
                                               std::span<const ProfileId> pids,
                                               const QuerySpec& spec,
                                               const CallContext& ctx) {
  if (pids.empty()) return Status::InvalidArgument("empty pid batch");
  metrics_->GetCounter("client.multi_read_requests")->Increment();
  metrics_->GetCounter("client.multi_read_pids")
      ->Increment(static_cast<int64_t>(pids.size()));
  MultiQueryResult out =
      QueryBatch("client.multi_query", table, pids, spec, ctx);
  const int64_t failed =
      std::count_if(out.statuses.begin(), out.statuses.end(),
                    [](const Status& status) { return !status.ok(); });
  if (failed > 0) {
    metrics_->GetCounter("client.multi_read_errors")->Increment(failed);
  }
  return out;
}

MultiQueryResult IpsClient::QueryBatch(const char* root_span,
                                       const std::string& table,
                                       std::span<const ProfileId> pids,
                                       const QuerySpec& spec,
                                       const CallContext& ctx) {
  // Root span for the whole request. The calls carry it as their trace
  // parent, so per-node spans nest under it on whichever thread runs them.
  TraceInstallScope trace_install(ctx.trace);
  ScopedSpan root(root_span);
  Scatter s(ctx, options_.max_read_attempts);
  MaybeRefresh();
  retry_policy_.OnRequestStart();

  // Deduplicate while preserving first-seen order: duplicate candidates cost
  // one lookup and fan back out on reassembly.
  std::vector<size_t> item_of(pids.size());
  {
    std::unordered_map<ProfileId, size_t> seen;
    for (size_t i = 0; i < pids.size(); ++i) {
      auto [it, inserted] = seen.try_emplace(pids[i], s.pids.size());
      if (inserted) s.pids.push_back(pids[i]);
      item_of[i] = it->second;
    }
  }
  s.Open();
  std::vector<QueryResult> results(s.pids.size());
  std::atomic<size_t> cache_hits{0};
  s.wire_bytes = [&](const std::vector<size_t>& group) {
    return std::pair<size_t, size_t>(
        options_.request_bytes + group.size() * sizeof(ProfileId),
        options_.response_bytes * group.size());
  };
  s.send = [&](IpsInstance& instance, const std::vector<size_t>& group,
               std::vector<Status>* statuses) -> Status {
    std::vector<ProfileId> sub;
    if (group.size() < s.pids.size()) {
      sub.reserve(group.size());
      for (size_t i : group) sub.push_back(s.pids[i]);
    }
    IPS_ASSIGN_OR_RETURN(
        MultiQueryResult batch,
        instance.MultiQuery(options_.caller, table, sub.empty() ? s.pids : sub,
                            spec, s.call_ctx));
    cache_hits.fetch_add(batch.cache_hits, std::memory_order_relaxed);
    for (size_t j = 0; j < group.size(); ++j) {
      if (batch.statuses[j].ok()) {
        results[group[j]] = std::move(batch.results[j]);
      }
    }
    *statuses = std::move(batch.statuses);
    return Status::OK();
  };

  // Region preference: local first, then failover regions in order, until
  // no item is open. A quota stop, a refused retry or the deadline ends the
  // request.
  std::vector<std::string> regions;
  if (!options_.local_region.empty()) regions.push_back(options_.local_region);
  for (const auto& r : options_.failover_regions) regions.push_back(r);
  if (regions.empty()) regions = deployment_->region_names();
  for (const auto& region : regions) {
    if (ScatterRound(region, s) != RoundEnd::kExhausted) break;
  }

  // Gather: expand the items back to input order. Without duplicates every
  // result moves out; a duplicated pid's result is copied per occurrence.
  const bool no_duplicates = s.pids.size() == pids.size();
  MultiQueryResult out;
  out.results.resize(pids.size());
  out.statuses.assign(pids.size(), Status::OK());
  out.cache_hits = cache_hits.load(std::memory_order_relaxed);
  for (size_t i = 0; i < pids.size(); ++i) {
    const size_t item = item_of[i];
    if (s.states[item] != ItemState::kAccepted) {
      out.statuses[i] = s.statuses[item];
      continue;
    }
    out.results[i] =
        no_duplicates ? std::move(results[item]) : results[item];
    if (out.results[i].degraded) ++out.degraded;
  }
  if (out.degraded > 0) {
    metrics_->GetCounter("client.degraded_reads")
        ->Increment(static_cast<int64_t>(out.degraded));
  }
  return out;
}

Result<QueryResult> IpsClient::GetProfileTopK(
    const std::string& table, ProfileId pid, SlotId slot,
    std::optional<TypeId> type, const TimeRange& range, SortBy sort_by,
    ActionIndex sort_action, size_t k) {
  QuerySpec spec;
  spec.slot = slot;
  spec.type = type;
  spec.time_range = range;
  spec.sort_by = sort_by;
  spec.sort_action = sort_action;
  spec.k = k;
  return Query(table, pid, spec);
}

int64_t IpsClient::requests() const {
  return metrics_->GetCounter("client.read_requests")->Value() +
         metrics_->GetCounter("client.write_requests")->Value();
}

int64_t IpsClient::errors() const {
  return metrics_->GetCounter("client.read_errors")->Value() +
         metrics_->GetCounter("client.write_errors")->Value();
}

double IpsClient::ErrorRate() const {
  const int64_t total = requests();
  return total == 0 ? 0.0
                    : static_cast<double>(errors()) /
                          static_cast<double>(total);
}

}  // namespace ips
