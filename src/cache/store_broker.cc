#include "cache/store_broker.h"

#include <numeric>

#include "common/trace.h"

namespace ips {

namespace {
constexpr char kCoalesceSpan[] = "server.store_coalesce";
}  // namespace

StoreBroker::StoreBroker(StoreBrokerOptions options, BrokerStoreFn store,
                         MetricsRegistry* metrics)
    : options_(options),
      store_(std::move(store)),
      coalescer_(options.window_micros, options.max_batch_pids,
                 /*clock=*/nullptr, kCoalesceSpan, "kv.store.shared") {
  if (options_.max_batch_pids == 0) options_.max_batch_pids = 1;
  if (metrics != nullptr) {
    // Registered eagerly so the names are live (and the docs-completeness
    // test sees them) even before the first coalesced store.
    single_flight_hits_ =
        metrics->GetCounter("store_broker.single_flight_hits");
    cross_shard_batches_ =
        metrics->GetCounter("store_broker.cross_shard_batches");
    requeued_pids_ = metrics->GetCounter("store_broker.requeued_pids");
    batch_pids_ = metrics->GetHistogram("store_broker.batch_pids");
  }
}

std::vector<Status> StoreBroker::Store(
    const std::vector<ProfileId>& pids,
    const std::vector<const ProfileData*>& profiles,
    const std::vector<uint64_t>& epochs) {
  using Chunk = Coalescer<Entry>::Chunk;
  using EntryPtr = Coalescer<Entry>::EntryPtr;
  constexpr TimestampMs kNoDeadline = Coalescer<Entry>::kNoDeadline;

  std::vector<Status> results(pids.size(), Status::OK());
  if (profiles.size() != pids.size() || epochs.size() != pids.size()) {
    results.assign(pids.size(),
                   Status::InvalidArgument(
                       "StoreBroker pids/profiles/epochs mismatch"));
    return results;
  }
  if (pids.empty()) return results;

  // A submitted pid either attaches to an entry whose write will carry its
  // bytes (or newer ones), or blocks behind an in-flight write of OLDER
  // bytes and resubmits once it lands. `remaining` holds the indices still
  // to attach; the requeue path feeds it for the next round.
  std::vector<size_t> attached_ix, blocked_ix;
  std::vector<EntryPtr> attached, blocked;
  std::vector<size_t> remaining(pids.size());
  std::iota(remaining.begin(), remaining.end(), size_t{0});

  std::unique_lock<std::mutex> lock;
  {
    // Broker bookkeeping — taking the lock (contention included) and joining
    // in-flight entries — is coalescing work; attributing it to
    // server.store_coalesce keeps the traced stage sum covering the path.
    ScopedSpan setup_span(kCoalesceSpan);
    attached_ix.reserve(pids.size());
    attached.reserve(pids.size());
    lock = coalescer_.Lock();
  }
  const uint64_t submission = ++next_submission_;

  // The collector's store runs on this flush thread outside the lock, so
  // kv.store spans attribute to its trace like any inline store. The
  // snapshot pointers are owned by submitters blocked until their entries
  // publish, so they stay valid across the unlocked call.
  std::vector<const ProfileData*> chunk_profiles;
  std::vector<Status> statuses;
  bool cross_shard = false;
  const auto dispatch = [&](const Chunk& chunk) {
    {
      ScopedSpan chunk_span(kCoalesceSpan);
      chunk_profiles.clear();
      cross_shard = false;
      for (const Entry* entry : chunk.entries) {
        chunk_profiles.push_back(entry->profile);
        cross_shard |= entry->submission != chunk.entries[0]->submission;
      }
    }
    statuses = store_(chunk.pids, chunk_profiles);
  };
  const auto publish = [&](const Chunk& chunk) {
    if (batch_pids_ != nullptr) {
      batch_pids_->Record(static_cast<int64_t>(chunk.pids.size()));
    }
    if (cross_shard && cross_shard_batches_ != nullptr) {
      cross_shard_batches_->Increment();
    }
    for (size_t i = 0; i < chunk.entries.size(); ++i) {
      chunk.entries[i]->status.emplace(
          i < statuses.size()
              ? statuses[i]
              : Status::Internal("batch store returned a short result list"));
    }
  };

  while (!remaining.empty()) {
    size_t created = 0;
    {
      ScopedSpan attach_span(kCoalesceSpan);
      for (size_t i : remaining) {
        bool inserted = false;
        EntryPtr entry = coalescer_.Join(pids[i], &inserted);
        if (inserted) {
          entry->epoch = epochs[i];
          entry->profile = profiles[i];
          entry->submission = submission;
          ++created;
        } else if (entry->state == CoalescedEntry::State::kPending) {
          // Merged into a window another flush thread opened before its
          // write dispatched: ONE write serves both submissions, carrying
          // the newest snapshot of the pid.
          if (epochs[i] > entry->epoch) {
            entry->epoch = epochs[i];
            entry->profile = profiles[i];
          }
          if (single_flight_hits_ != nullptr) single_flight_hits_->Increment();
        } else if (epochs[i] > entry->epoch) {
          // The write already on the wire carries an older snapshot; ours
          // must still be written — but never concurrently with the older
          // one. Requeue: wait for the in-flight write, then resubmit.
          if (requeued_pids_ != nullptr) requeued_pids_->Increment();
          blocked_ix.push_back(i);
          blocked.push_back(std::move(entry));
          continue;
        } else {
          // In flight with our exact snapshot (epoch unchanged) or a newer
          // one that supersedes it: piggyback. The hot-dirty-pid case — one
          // kv.store serves several flushes.
          if (single_flight_hits_ != nullptr) single_flight_hits_->Increment();
        }
        attached_ix.push_back(i);
        attached.push_back(std::move(entry));
      }
    }
    remaining.clear();

    coalescer_.Collect(lock, created, kNoDeadline, dispatch, publish);
    coalescer_.Await(lock, attached, kNoDeadline);
    {
      // Fan each shared status back to this submission's slot, so a partial
      // MultiSet failure reaches exactly the flush groups whose pids failed.
      ScopedSpan collect_span(kCoalesceSpan);
      for (size_t k = 0; k < attached.size(); ++k) {
        results[attached_ix[k]] = *attached[k]->status;
      }
      attached_ix.clear();
      attached.clear();
    }

    if (!blocked.empty()) {
      // Requeued pids: the older in-flight writes must land before the
      // newer snapshots may be submitted (per-pid store order stays epoch
      // order). The wake and the resubmission share one lock hold, so no
      // third writer can slip between them unobserved.
      coalescer_.Await(lock, blocked, kNoDeadline);
      remaining.swap(blocked_ix);
      blocked.clear();
    }
  }
  return results;
}

}  // namespace ips
