// Profile Table (Section III-B): the logical container mapping profile IDs
// to profile data, sharded by hashed profile id. Its one user is the
// read-write isolation write buffer (Section III-F) in IpsInstance; the
// serving path wraps profiles in the GCache layer (src/cache) for LRU/dirty
// management.
#ifndef IPS_CORE_PROFILE_TABLE_H_
#define IPS_CORE_PROFILE_TABLE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/profile_data.h"
#include "core/types.h"

namespace ips {

class ProfileTable {
 public:
  /// `num_shards` must be a power of two. Profiles created on first touch
  /// use `write_granularity_ms` slices.
  explicit ProfileTable(TimestampMs write_granularity_ms,
                        size_t num_shards = 16);

  /// Runs `fn` with exclusive access, creating the profile when absent.
  void WithProfileMutable(ProfileId pid,
                          const std::function<void(ProfileData&)>& fn);

  size_t ProfileCount() const;

  /// Removes and returns every profile (the isolation merge). Each shard's
  /// map is swapped out under that shard's lock, so a write either lands
  /// before the swap and is returned, or after it and stays in the table.
  std::vector<std::pair<ProfileId, ProfileData>> TakeAll();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<ProfileId, ProfileData> profiles;
  };

  TimestampMs write_granularity_ms_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ips

#endif  // IPS_CORE_PROFILE_TABLE_H_
