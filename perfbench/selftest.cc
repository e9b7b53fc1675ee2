// Self-tests for the benchmark's own arithmetic (stats.h). Run with
//   python3 perfbench/run.py --selftest
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void TestTailRule() {
  using perfbench::SamplesBeyond;
  using perfbench::TailPercentileFor;
  Check(TailPercentileFor(1000) == 99.0, "n=1000 -> p99 (10 beyond)");
  Check(TailPercentileFor(999) == 95.0, "n=999 -> p95 (p99 leaves 9)");
  Check(TailPercentileFor(200) == 95.0, "n=200 -> p95");
  Check(TailPercentileFor(199) == 90.0, "n=199 -> p90");
  Check(TailPercentileFor(100) == 90.0, "n=100 -> p90");
  Check(TailPercentileFor(99) == 75.0, "n=99 -> p75");
  Check(TailPercentileFor(40) == 75.0, "n=40 -> p75");
  Check(TailPercentileFor(39) == 0.0, "n=39 -> no valid tail");
  for (size_t n : {40u, 57u, 100u, 123u, 200u, 531u, 1000u, 4321u}) {
    double p = TailPercentileFor(n);
    Check(SamplesBeyond(n, p) >= 10, "chosen tail leaves >= 10 beyond");
  }
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Check(perfbench::Percentile(v, 90) == 90.0, "nearest-rank p90 of 1..100");
  Check(perfbench::Percentile(v, 50) == 50.0, "nearest-rank p50 of 1..100");
}

void TestSelfTime() {
  using perfbench::Span;
  // Parent [0, 10]; children [1, 3] and [2, 5] overlap -> cover [1, 5];
  // a grandchild [1.5, 2] must not count against the parent; a child
  // [9, 12] sticks out and covers only [9, 10].
  std::vector<Span> spans = {
      {1, 0, 7, "request", 0, 10},  {2, 1, 7, "session", 1, 3},
      {3, 1, 7, "engine", 2, 5},    {4, 2, 7, "parse", 1.5, 2},
      {5, 1, 7, "late", 9, 12},     {6, 1, 8, "other-request", 0, 10},
  };
  Check(Near(perfbench::SelfTime(spans[0], spans), 10 - 4 - 1, 1e-12),
        "self time subtracts the union of overlapping children");
  Check(Near(perfbench::SelfTime(spans[1], spans), 2 - 0.5, 1e-12),
        "nested child counts against its own parent only");
  Check(Near(perfbench::SelfTime(spans[3], spans), 0.5, 1e-12),
        "leaf self time is its duration");
  // Sum of self times over a tree whose children lie inside their parents
  // equals the root's duration.
  std::vector<Span> tree = {{1, 0, 1, "r", 0, 8},
                            {2, 1, 1, "a", 0, 5},
                            {3, 2, 1, "b", 1, 2},
                            {4, 2, 1, "c", 2, 4}};
  double sum = 0;
  for (const auto& s : tree) sum += perfbench::SelfTime(s, tree);
  Check(Near(sum, 8.0, 1e-12), "self times of a proper tree sum to the root");
}

void TestResidual() {
  using perfbench::Span;
  // Request [0, 10] (root, no layer); layers [0, 4] with a child [0, 1]
  // explain 4 s, so 6 s are left unexplained.
  std::vector<Span> under = {{1, 0, 1, "request", 0, 10},
                             {2, 1, 1, "sql", 0, 4},
                             {3, 2, 1, "sql.parse", 0, 1}};
  Check(Near(perfbench::Residual(under[0], under), 6.0, 1e-12),
        "residual is positive when the layers explain less than the request");
  // Layers [0, 7] and [7, 12] add up to more than the 10 s request.
  std::vector<Span> over = {{1, 0, 2, "request", 0, 10},
                            {2, 1, 2, "sql", 0, 7},
                            {3, 1, 2, "storage", 7, 12}};
  Check(Near(perfbench::Residual(over[0], over), -2.0, 1e-12),
        "residual is negative when the layers add up to more than the request");
  // A child measured longer than its parent: the parent's self time is 0
  // and the child counts in full.
  std::vector<Span> stick = {{1, 0, 3, "request", 0, 10},
                             {2, 1, 3, "sql", 0, 3},
                             {3, 2, 3, "core", 0, 5}};
  Check(Near(perfbench::Residual(stick[0], stick), 5.0, 1e-12),
        "a child that sticks out of its parent counts in full");
  std::vector<Span> exact = {{1, 0, 4, "request", 0, 8},
                             {2, 1, 4, "sql", 0, 8},
                             {3, 2, 4, "core", 1, 5}};
  Check(Near(perfbench::Residual(exact[0], exact), 0.0, 1e-12),
        "layers covering the request exactly leave no residual");
}

void TestDepthCostRatio() {
  std::vector<std::pair<double, double>> linear, quadratic;
  for (int d = 0; d < 8000; d += 10) {
    // Constant per-statement cost (with deterministic jitter) is linear
    // ingest; cost proportional to depth is quadratic ingest.
    double jitter = 1.0 + 0.05 * std::sin(d * 0.37);
    linear.emplace_back(d, 2.0 * jitter);
    quadratic.emplace_back(d, 0.001 * (d + 1) * jitter);
  }
  double lr = perfbench::DepthCostRatio(linear);
  double qr = perfbench::DepthCostRatio(quadratic);
  Check(Near(lr, 1.0, 0.1), "linear ingest -> depth_cost_ratio ~ 1");
  Check(qr > 15.0 && qr < 25.0, "quadratic ingest -> depth_cost_ratio ~ 19");
  Check(std::isnan(perfbench::DepthCostRatio({})), "empty series -> NaN");
}

}  // namespace

int main() {
  TestTailRule();
  TestSelfTime();
  TestResidual();
  TestDepthCostRatio();
  std::printf("%s (%d failed)\n", failures ? "SELFTEST FAILED" : "selftest ok",
              failures);
  return failures ? 1 : 0;
}
