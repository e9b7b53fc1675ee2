// Shared plumbing of the benchmark program: clocks, the report printer,
// result parsing, SQL lowering for engine-API probes, exact answers and
// table comparison. Everything here is a client of the library's public
// headers.
#ifndef SVC_PERFBENCH_HARNESS_H_
#define SVC_PERFBENCH_HARNESS_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/svc.h"
#include "relational/value.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "stats.h"

namespace perfbench {

using svc::Result;
using svc::Status;

inline double Now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Time of one call in seconds.
template <typename Fn>
double TimeIt(Fn&& fn) {
  double t0 = Now();
  fn();
  return Now() - t0;
}

/// Statement classes the end-to-end metrics are kept by.
enum class Kind { kSvc = 0, kSelect, kWrite, kRefresh };
constexpr int kNumKinds = 4;
inline const char* KindName(Kind k) {
  switch (k) {
    case Kind::kSvc: return "svc";
    case Kind::kSelect: return "select";
    case Kind::kWrite: return "insert";
    case Kind::kRefresh: return "refresh";
  }
  return "?";
}

/// Named metrics in print order, plus the run's verdict.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.unit = unit;
        m.value = value;
        return;
      }
    }
    metrics_.push_back({name, unit, value});
  }
  void Fail(const std::string& why) {
    if (errors_.size() < 20) errors_.push_back(why);
    correct_ = false;
  }
  void CountOp(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void Note(const std::string& line) { notes_.push_back(line); }
  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Human-readable lines, then the one-line JSON result (last line).
  /// `json` names the metrics (with units) that go into the JSON object; a
  /// metric never measured reads 0.
  void Print(const std::vector<std::pair<std::string, std::string>>& json) const {
    for (const auto& n : notes_) std::printf("%s\n", n.c_str());
    for (const auto& e : errors_) std::printf("CHECK FAILED: %s\n", e.c_str());
    for (const auto& m : metrics_) {
      std::printf("metric %-40s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, unit] : json) {
      const Metric* m = Find(name);
      double v = m ? m->value : 0.0;
      if (!std::isfinite(v)) v = 0.0;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", v);
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name, unit;
    double value;
  };
  const Metric* Find(const std::string& name) const {
    for (const auto& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Latency samples (ms) per statement kind.
struct Latencies {
  std::vector<double> ms[kNumKinds];
  void Add(Kind k, double seconds) {
    ms[static_cast<int>(k)].push_back(seconds * 1e3);
  }
  const std::vector<double>& of(Kind k) const {
    return ms[static_cast<int>(k)];
  }
};

/// Adds <kind>_p50_ms and <kind>_tail_ms at the fixed tail percentile
/// `tail_p` and records the sample counts as a note.
inline void AddLatencyMetrics(Report* r, const Latencies& lat, Kind k,
                              double tail_p) {
  const auto& v = lat.of(k);
  std::string base = KindName(k);
  r->Add(base + "_p50_ms", "ms", Median(v));
  if (k == Kind::kRefresh) {
    r->Note("samples " + base + ": n=" + std::to_string(v.size()));
    return;
  }
  r->Add(base + "_tail_ms", "ms", Percentile(v, tail_p));
  size_t beyond = SamplesBeyond(v.size(), tail_p);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "samples %s: n=%zu tail=p%.0f beyond=%zu%s", base.c_str(),
                v.size(), tail_p, beyond,
                beyond < 10 ? " (below the 10-sample tail rule)" : "");
  r->Note(buf);
}

inline double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// ---- Results -------------------------------------------------------------

/// One estimate row of a WITH SVC result: group key, value and CI.
struct EstRow {
  std::string group;
  double value = 0, lo = 0, hi = 0;
  bool has_ci = false;
};

inline std::string GroupKey(const svc::Row& row, size_t n) {
  std::string k;
  for (size_t i = 0; i < n && i < row.size(); ++i) {
    if (i) k += "|";
    k += row[i].ToString();
  }
  return k;
}

/// Estimate rows of a kEstimate result (columns: groups..., value, ci_low,
/// ci_high, mode, sample_rows).
inline std::vector<EstRow> Estimates(const svc::SqlResult& r) {
  std::vector<EstRow> out;
  const size_t ncols = r.rows.schema().NumColumns();
  if (ncols < 5) return out;
  const size_t g = ncols - 5;
  for (const auto& row : r.rows.rows()) {
    EstRow e;
    e.group = GroupKey(row, g);
    e.value = row[g].is_null() ? 0.0 : row[g].ToDouble();
    e.has_ci = !row[g + 1].is_null() && !row[g + 2].is_null();
    if (e.has_ci) {
      e.lo = row[g + 1].ToDouble();
      e.hi = row[g + 2].ToDouble();
    }
    out.push_back(e);
  }
  return out;
}

/// Every estimate lies inside its own CI.
inline bool EstimatesConsistent(const std::vector<EstRow>& est,
                                std::string* why) {
  for (const auto& e : est) {
    if (e.has_ci && !(e.lo <= e.value && e.value <= e.hi)) {
      *why = "estimate " + std::to_string(e.value) + " outside its CI [" +
             std::to_string(e.lo) + ", " + std::to_string(e.hi) + "]";
      return false;
    }
  }
  return true;
}

/// Exact equality of two result sets' estimate columns.
inline bool SameEstimates(const std::vector<EstRow>& a,
                          const std::vector<EstRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].group != b[i].group || a[i].value != b[i].value ||
        a[i].has_ci != b[i].has_ci || a[i].lo != b[i].lo ||
        a[i].hi != b[i].hi) {
      return false;
    }
  }
  return true;
}

// ---- Lowering a WITH SVC statement for engine-API probes ------------------

/// The engine-API form of a `SELECT ... WITH SVC` statement, lowered the
/// way the SQL layer documents it: one aggregate over one view.
struct Lowered {
  std::string view;
  std::vector<std::string> group_by;
  svc::AggregateQuery q;
  svc::SvcQueryOptions opts;
};

inline Result<Lowered> Lower(const std::string& sql) {
  auto st = svc::ParseStatement(sql);
  if (!st.ok()) return st.status();
  const svc::Statement& s = *st;
  if (s.kind != svc::Statement::Kind::kSelect || !s.svc.present ||
      !s.select || s.select->from.size() != 1) {
    return Status::InvalidArgument("not a single-view WITH SVC select: " + sql);
  }
  Lowered l;
  l.view = s.select->from[0].table;
  l.group_by = s.select->group_by;
  for (const auto& item : s.select->items) {
    if (!item.is_agg) continue;
    l.q.func = item.agg;
    if (item.agg_input) l.q.attr = item.agg_input->Clone();
  }
  if (s.select->where) l.q.predicate = s.select->where->Clone();
  if (s.svc.ratio) l.opts.ratio = *s.svc.ratio;
  if (s.svc.mode) l.opts.mode = *s.svc.mode;
  return l;
}

/// Exact answers of `l` over a fresh view table, as estimate rows with the
/// SQL layer's group order (sorted by key values).
inline Result<std::vector<EstRow>> Exact(const svc::Table& fresh,
                                         const Lowered& l) {
  std::vector<EstRow> out;
  if (l.group_by.empty()) {
    auto v = svc::ExactAggregate(fresh, l.q);
    if (!v.ok()) return v.status();
    EstRow e;
    e.value = *v;
    out.push_back(e);
    return out;
  }
  auto g = svc::ExactAggregateGrouped(fresh, l.group_by, l.q);
  if (!g.ok()) return g.status();
  for (size_t i = 0; i < g->group_keys.size(); ++i) {
    EstRow e;
    e.group = GroupKey(g->group_keys[i], l.group_by.size());
    e.value = g->estimates[i].value;
    out.push_back(e);
  }
  return out;
}

/// Estimate rows of an engine-API answer in the SQL layer's group order.
inline std::vector<EstRow> FromAnswer(const svc::SvcAnswer& a) {
  EstRow e;
  e.value = a.estimate.value;
  e.has_ci = a.estimate.has_ci;
  e.lo = e.has_ci ? a.estimate.ci_low : 0;
  e.hi = e.has_ci ? a.estimate.ci_high : 0;
  return {e};
}
inline std::vector<EstRow> FromAnswer(const svc::SvcGroupedAnswer& a,
                                      size_t ngroup) {
  std::vector<size_t> order(a.result.group_keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const svc::Row& kx = a.result.group_keys[x];
    const svc::Row& ky = a.result.group_keys[y];
    for (size_t c = 0; c < kx.size() && c < ky.size(); ++c) {
      if (kx[c] < ky[c]) return true;
      if (ky[c] < kx[c]) return false;
    }
    return x < y;
  });
  std::vector<EstRow> out;
  for (size_t i : order) {
    const svc::Estimate& est = a.result.estimates[i];
    EstRow e;
    e.group = GroupKey(a.result.group_keys[i], ngroup);
    e.value = est.value;
    e.has_ci = est.has_ci;
    e.lo = e.has_ci ? est.ci_low : 0;
    e.hi = e.has_ci ? est.ci_high : 0;
    out.push_back(e);
  }
  return out;
}

/// Relative errors and CI coverage of estimates against exact answers.
struct Accuracy {
  std::vector<double> rel;
  size_t covered = 0, total = 0;
  void Add(const std::vector<EstRow>& est, const std::vector<EstRow>& truth) {
    std::map<std::string, double> t;
    for (const auto& e : truth) t[e.group] = e.value;
    for (const auto& e : est) {
      auto it = t.find(e.group);
      if (it == t.end() || it->second == 0.0) continue;
      rel.push_back(std::fabs(e.value - it->second) / std::fabs(it->second));
      ++total;
      if (e.has_ci && e.lo <= it->second && it->second <= e.hi) ++covered;
    }
  }
};

// ---- Tables ---------------------------------------------------------------

/// True iff two tables hold the same multiset of rows (order ignored).
inline bool SameRows(const svc::Table& a, const svc::Table& b,
                     std::string* why) {
  if (a.NumRows() != b.NumRows()) {
    *why = "row counts differ: " + std::to_string(a.NumRows()) + " vs " +
           std::to_string(b.NumRows());
    return false;
  }
  if (a.schema().NumColumns() != b.schema().NumColumns()) {
    *why = "column counts differ";
    return false;
  }
  std::vector<size_t> all(a.schema().NumColumns());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  auto keys = [&](const svc::Table& t) {
    std::vector<std::string> k;
    k.reserve(t.NumRows());
    for (const auto& r : t.rows()) k.push_back(svc::EncodeRowKey(r, all));
    std::sort(k.begin(), k.end());
    return k;
  };
  if (keys(a) != keys(b)) {
    *why = "row contents differ";
    return false;
  }
  return true;
}

/// Bytes written to a data directory, observed from outside: the sum over
/// every file ever seen of its largest observed size (WAL segments only
/// grow, checkpoints are written once). A WAL record appended in the same
/// statement that rotates the log is not seen.
class DiskMeter {
 public:
  explicit DiskMeter(std::string dir) : dir_(std::move(dir)) {}
  void Observe() {
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(dir_, ec)) {
      std::error_code ec2;
      auto sz = e.file_size(ec2);
      if (ec2) continue;
      auto& m = max_[e.path().filename().string()];
      if (sz > m) m = sz;
    }
  }
  uint64_t Total() const {
    uint64_t t = 0;
    for (const auto& kv : max_) t += kv.second;
    return t;
  }

 private:
  std::string dir_;
  std::map<std::string, uint64_t> max_;
};

}  // namespace perfbench

#endif  // SVC_PERFBENCH_HARNESS_H_
