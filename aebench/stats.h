// The benchmark's own arithmetic: percentiles, the tail-percentile rule,
// failure and SLO accounting, and span self time. Header-only so that
// selftest.cc checks exactly the code main.cc runs.
#ifndef AEBENCH_STATS_H_
#define AEBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace aebench {

/// 1-based nearest rank of the p-th percentile of n > 0 samples. The
/// epsilon keeps p * n / 100 from rounding up past an exact integer
/// (99.9 / 100 * 10000 is 9990.000000000002 in doubles).
inline size_t NearestRank(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return rank < 1.0 ? 1 : static_cast<size_t>(rank);
}

/// Nearest-rank percentile of `values` (p in (0, 100]): the smallest sample
/// with at least p% of the samples at or below it. 0 for no samples.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = NearestRank(values.size(), p) - 1;
  return values[std::min(idx, values.size() - 1)];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, double p) {
  size_t r = NearestRank(n, p);
  return r >= n ? 0 : n - r;
}

/// The tail percentile a latency is reported at: the highest of
/// 99.9 / 99 / 90 / 50 that still has at least `min_beyond` samples beyond
/// it. 0 when even the median has fewer (too few samples for any tail).
inline double TailPercentile(size_t n, size_t min_beyond = 10) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

/// One timed value (a latency, or 1/0 for success/failure) and when it
/// happened, in seconds from the window start.
struct Sample {
  double t_s = 0;
  double value = 0;
};

/// The median over the whole one-second slices of [0, seconds) of the mean
/// sample value in each slice (for 1/0 outcomes: the success share). Slices
/// without samples are skipped; 0 when there are none.
inline double MedianSliceMean(const std::vector<Sample>& samples,
                              double seconds) {
  const size_t slices = std::max<size_t>(1, static_cast<size_t>(seconds));
  std::vector<double> sum(slices, 0.0), count(slices, 0.0);
  for (const Sample& s : samples) {
    if (s.t_s < 0) continue;
    size_t i = std::min(static_cast<size_t>(s.t_s), slices - 1);
    sum[i] += s.value;
    count[i] += 1;
  }
  std::vector<double> means;
  for (size_t i = 0; i < slices; ++i) {
    if (count[i] > 0) means.push_back(sum[i] / count[i]);
  }
  return Percentile(std::move(means), 50);
}

/// A timed interval in nanoseconds, [start, end).
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
  int64_t length() const { return end > start ? end - start : 0; }
};

/// Length of the union of `children` clipped to `parent`. Overlapping
/// children count once, and parts outside the parent not at all.
inline int64_t CoveredLength(const Interval& parent,
                             std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t cursor = parent.start;
  for (const Interval& c : children) {
    int64_t s = std::max(c.start, cursor);
    int64_t e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

/// A span's self time: its duration minus the part its children cover.
inline int64_t SelfTime(const Interval& parent,
                        const std::vector<Interval>& children) {
  return parent.length() - CoveredLength(parent, children);
}

/// Outcome tally of a closed-loop transaction workload. Every attempt lands
/// in exactly one of committed / aborted / hard_errors; wrong_results is
/// found by the post-run checks and counts as failed too.
struct TxnAccount {
  uint64_t committed = 0;
  uint64_t aborted = 0;      // rolled back: contention or intentional
  uint64_t hard_errors = 0;  // anything else
  uint64_t wrong_results = 0;

  uint64_t attempted() const { return committed + aborted + hard_errors; }
  uint64_t failed() const { return hard_errors + wrong_results; }
  double abort_share() const { return Share(aborted, attempted()); }

  static double Share(uint64_t part, uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  }
};

/// Outcome tally of an open-loop request workload against a latency limit.
/// Every scheduled request lands in exactly one bucket; all but
/// `within_limit` are SLO misses (a failure or shed request misses the limit
/// by definition).
struct SloAccount {
  uint64_t within_limit = 0;  // correct answer, latency <= limit
  uint64_t over_limit = 0;    // correct answer, too late
  uint64_t wrong = 0;         // answered, but failed validation
  uint64_t shed = 0;          // refused by the server (overload, deadline)
  uint64_t errors = 0;        // any other error
  uint64_t unsent = 0;        // scheduled but never sent before the cut-off

  uint64_t scheduled() const {
    return within_limit + over_limit + wrong + shed + errors + unsent;
  }
  uint64_t misses() const { return scheduled() - within_limit; }
  uint64_t failed() const { return wrong + shed + errors + unsent; }
  double miss_share() const {
    return TxnAccount::Share(misses(), scheduled());
  }
};

}  // namespace aebench

#endif  // AEBENCH_STATS_H_
