// Test adapters for GCache's batch callables: lift a per-pid fake (one
// profile in, one status or result out) to the BatchLoadFn / BatchStoreFn
// shape, calling it once per pid in order.
#ifndef IPS_TESTS_CACHE_TEST_UTIL_H_
#define IPS_TESTS_CACHE_TEST_UTIL_H_

#include <functional>
#include <utility>
#include <vector>

#include "cache/gcache.h"

namespace ips {

using PointLoadFn =
    std::function<Result<ProfileData>(ProfileId, bool* out_degraded)>;
using PointFlushFn = std::function<Status(ProfileId, const ProfileData&)>;

inline BatchLoadFn BatchedLoader(PointLoadFn load) {
  return [load = std::move(load)](const std::vector<ProfileId>& pids,
                                  std::vector<bool>* out_degraded,
                                  TimestampMs) {
    out_degraded->assign(pids.size(), false);
    std::vector<Result<ProfileData>> out;
    for (size_t i = 0; i < pids.size(); ++i) {
      bool degraded = false;
      out.push_back(load(pids[i], &degraded));
      (*out_degraded)[i] = degraded;
    }
    return out;
  };
}

inline BatchStoreFn BatchedFlusher(PointFlushFn flush) {
  return [flush = std::move(flush)](
             const std::vector<ProfileId>& pids,
             const std::vector<const ProfileData*>& profiles,
             const std::vector<uint64_t>&) {
    std::vector<Status> statuses;
    for (size_t i = 0; i < pids.size(); ++i) {
      statuses.push_back(flush(pids[i], *profiles[i]));
    }
    return statuses;
  };
}

}  // namespace ips

#endif  // IPS_TESTS_CACHE_TEST_UTIL_H_
