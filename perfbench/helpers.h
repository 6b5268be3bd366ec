// Measurement helpers of the repository benchmark: latency summaries with
// their sample counts, per-request span self time, and counter-delta
// snapshots. Header-only so helpers_test.cc can exercise them without the
// load generator.
#ifndef IPS_PERFBENCH_HELPERS_H_
#define IPS_PERFBENCH_HELPERS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.h"

namespace perfbench {

/// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

/// A timing as reported: median, 90th and 99th percentiles and how many
/// samples they rest on. `p99_supported` says whether at least ten samples
/// lie beyond the 99th percentile (1000 or more samples), the smallest
/// sample for which the percentile is more than the few largest values.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
};

inline Summary Summarize(std::vector<double> samples) {
  Summary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = SortedQuantile(samples, 0.50);
  out.p90 = SortedQuantile(samples, 0.90);
  out.p99 = SortedQuantile(samples, 0.99);
  out.p99_supported = samples.size() >= 1000;
  return out;
}

/// Median of a sample (the p50 of Summarize); 0 when empty.
inline double Median(std::vector<double> samples) {
  return Summarize(std::move(samples)).p50;
}

/// Self time of every closed span, summed per span name: a span's duration
/// minus the part of its interval covered by its direct children (children
/// that ran in parallel on other threads are merged, not double-counted).
/// Open spans (end_ns == 0) are ignored, and so are children of open spans.
inline std::map<std::string, int64_t> SelfTimesByName(
    const std::vector<ips::TraceSpan>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const ips::TraceSpan& span : spans) {
    if (span.end_ns == 0 || span.parent < 0 ||
        static_cast<size_t>(span.parent) >= spans.size()) {
      continue;
    }
    children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                            span.end_ns);
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const ips::TraceSpan& span = spans[i];
    if (span.end_ns == 0) continue;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool in_run = false;
    for (const auto& [child_start, child_end] : kids) {
      const int64_t lo = std::max(child_start, span.start_ns);
      const int64_t hi = std::min(child_end, span.end_ns);
      if (hi <= lo) continue;
      if (in_run && lo <= run_end) {
        run_end = std::max(run_end, hi);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = lo;
      run_end = hi;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    out[span.name] += (span.end_ns - span.start_ns) - covered;
  }
  return out;
}

/// A named set of monotonically increasing counts read at one instant.
/// Delta() gives how much each moved between two snapshots; names missing
/// from a snapshot read as zero (counters are created on first use).
class CounterSnapshot {
 public:
  CounterSnapshot() = default;
  explicit CounterSnapshot(std::map<std::string, int64_t> values)
      : values_(std::move(values)) {}

  void Set(const std::string& name, int64_t value) { values_[name] = value; }

  int64_t Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  /// `later` minus `this` for one name.
  int64_t Delta(const CounterSnapshot& later, const std::string& name) const {
    return later.Get(name) - Get(name);
  }

 private:
  std::map<std::string, int64_t> values_;
};

/// a / b, or 0 when b is 0 (a ratio over an idle layer reads as zero).
inline double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench

#endif  // IPS_PERFBENCH_HELPERS_H_
