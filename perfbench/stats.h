// Arithmetic of the benchmark: percentiles and the tail rule, span self
// time and the request residual, and the queue-depth cost ratio.
// Header-only and free of engine dependencies so selftest.cc can check it
// in isolation.
#ifndef SVC_PERFBENCH_STATS_H_
#define SVC_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `v`; NaN when empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

/// Samples strictly above the nearest-rank position of percentile p.
inline size_t SamplesBeyond(size_t n, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (rank > n) rank = n;
  return n - rank;
}

/// The tail rule: the highest of p99 / p95 / p90 / p75 that leaves at
/// least ten samples beyond it for a sample of size n; 0 when even p75
/// does not (fewer than 40 samples).
inline double TailPercentileFor(size_t n) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0.0;
}

inline double Median(const std::vector<double>& v) {
  return Percentile(v, 50.0);
}

/// One traced interval. `parent` is 0 for a request's root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// A span's self time: its duration minus the part of [start, end] that
/// the union of its children's intervals covers (children may nest, overlap
/// each other, or stick out of the parent; only the covered part inside
/// the parent counts).
inline double SelfTime(const Span& parent, const std::vector<Span>& spans) {
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans) {
    if (s.parent != parent.id || s.request != parent.request) continue;
    double a = std::max(s.start, parent.start);
    double b = std::min(s.end, parent.end);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, cur_a = 0.0, cur_b = 0.0;
  bool open = false;
  for (const auto& k : kids) {
    if (!open || k.first > cur_b) {
      if (open) covered += cur_b - cur_a;
      cur_a = k.first;
      cur_b = k.second;
      open = true;
    } else {
      cur_b = std::max(cur_b, k.second);
    }
  }
  if (open) covered += cur_b - cur_a;
  return (parent.end - parent.start) - covered;
}

/// The residual of a request: its root span's duration minus the sum of
/// the self times of every other span of the request (the measured
/// layers). Positive when the layers leave part of the request
/// unexplained, negative when they add up to more than the request took.
inline double Residual(const Span& root, const std::vector<Span>& spans) {
  double sum = 0.0;
  for (const Span& s : spans) {
    if (s.request == root.request && s.id != root.id) sum += SelfTime(s, spans);
  }
  return (root.end - root.start) - sum;
}

/// Per-statement cost in the deepest tenth of the queue over the
/// shallowest tenth, from (depth, cost) pairs: the ratio of the median
/// costs of the statements whose depth lies in the top and bottom tenth of
/// the observed depth range. 1.0 means cost does not grow with depth
/// (linear ingest); a per-statement cost proportional to depth gives ~19.
/// NaN when either tenth is empty.
inline double DepthCostRatio(const std::vector<std::pair<double, double>>& pts) {
  if (pts.empty()) return std::numeric_limits<double>::quiet_NaN();
  double lo = pts[0].first, hi = pts[0].first;
  for (const auto& p : pts) {
    lo = std::min(lo, p.first);
    hi = std::max(hi, p.first);
  }
  const double span = hi - lo;
  std::vector<double> shallow, deep;
  for (const auto& p : pts) {
    if (p.first <= lo + 0.1 * span) shallow.push_back(p.second);
    if (p.first >= hi - 0.1 * span) deep.push_back(p.second);
  }
  if (shallow.empty() || deep.empty() || span <= 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return Median(deep) / Median(shallow);
}

}  // namespace perfbench

#endif  // SVC_PERFBENCH_STATS_H_
