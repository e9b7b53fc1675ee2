// Span recording for the traced run. Spans are recorded from the
// benchmark's own code around calls into each layer, kept in memory and
// written out when the run ends.
//
// A request's root span is its end-to-end time and belongs to no layer.
// The layer spans come from separate probe executions (each on its own
// engine fork of the snapshot the request saw), so they are assembled into
// a tree under the root here: a node's children are laid back to back from
// the node's start. A layer's self time is its span minus the part its
// children cover (stats.h SelfTime); a child measured longer than its
// parent sticks out. The per-kind residual is end-to-end minus the sum of
// the layers' self times (stats.h Residual): positive when the probes
// leave part of the request unexplained, negative when they add up to
// more than the request took.
#ifndef SVC_PERFBENCH_TRACE_H_
#define SVC_PERFBENCH_TRACE_H_

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "stats.h"

namespace perfbench {

class Tracer {
 public:
  /// One measured interval and the intervals it contains.
  struct Node {
    std::string layer;
    double seconds = 0;
    std::vector<Node> kids;
  };

  /// Records one request of `kind` that took `e2e` seconds end to end and
  /// the layer probes measured for it.
  void AddRequest(const std::string& kind, double e2e, const std::vector<Node>& layers) {
    const uint64_t req = ++requests_;
    const size_t first = spans_.size();
    Lay({"request", e2e, layers}, req, 0, 0.0);
    const std::vector<Span> mine(spans_.begin() + first, spans_.end());
    for (size_t i = 1; i < mine.size(); ++i) {
      self_[kind][mine[i].name].push_back(SelfTime(mine[i], mine));
    }
    e2e_[kind].push_back(e2e);
    residual_[kind].push_back(Residual(mine[0], mine));
  }

  /// A per-layer measurement; reported as the median of its samples.
  void Sample(const std::string& metric, double v) { samples_[metric].push_back(v); }
  /// A per-layer count; reported as the sum.
  void Count(const std::string& metric, double v) { counts_[metric] += v; }

  /// Writes every span as one JSON line: request, id, parent, name, start
  /// and end in microseconds from the request's start.
  void Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"request\": %llu, \"id\": %llu, \"parent\": %llu, "
                   "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name.c_str(),
                   s.start * 1e6, s.end * 1e6);
    }
    std::fclose(f);
  }

  /// Per kind: median end-to-end, median self time per layer and the
  /// median residual; adds the per-layer metrics to the report with the
  /// units `unit_of` gives.
  void Summarize(const std::function<std::string(const std::string&)>& unit_of,
                 Report* rep) const {
    double worst_share = 0;
    for (const auto& k : e2e_) {
      const std::string& kind = k.first;
      const double e2e = Median(k.second);
      const double res = Median(residual_.at(kind));
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "trace %-8s n=%zu e2e_p50=%.3f ms residual_p50=%.4f ms",
                    kind.c_str(), k.second.size(), e2e * 1e3, res * 1e3);
      rep->Note(buf);
      for (const auto& l : self_.at(kind)) {
        std::snprintf(buf, sizeof(buf), "trace %-8s   self %-22s p50=%.4f ms",
                      kind.c_str(), l.first.c_str(), Median(l.second) * 1e3);
        rep->Note(buf);
      }
      if (e2e > 0) worst_share = std::max(worst_share, std::fabs(res) / e2e);
    }
    rep->Add("bench.trace_residual_share", "ratio", worst_share);
    for (const auto& s : samples_) {
      rep->Add(s.first, unit_of(s.first), Median(s.second));
    }
    for (const auto& c : counts_) rep->Add(c.first, unit_of(c.first), c.second);
  }

 private:
  void Lay(const Node& n, uint64_t req, uint64_t parent, double start) {
    Span s;
    s.id = ++ids_;
    s.parent = parent;
    s.request = req;
    s.name = n.layer;
    s.start = start;
    s.end = start + n.seconds;
    spans_.push_back(s);
    const uint64_t id = s.id;
    double t = start;
    for (const Node& k : n.kids) {
      Lay(k, req, id, t);
      t += k.seconds;
    }
  }

  uint64_t requests_ = 0, ids_ = 0;
  std::vector<Span> spans_;
  std::map<std::string, std::map<std::string, std::vector<double>>> self_;
  std::map<std::string, std::vector<double>> e2e_, residual_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counts_;
};

}  // namespace perfbench

#endif  // SVC_PERFBENCH_TRACE_H_
