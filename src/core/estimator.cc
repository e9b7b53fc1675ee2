#include "core/estimator.h"

#include <algorithm>
#include <cmath>

#include "core/bootstrap.h"

namespace svc {

std::string AggregateQuery::ToString() const {
  std::string out = AggFuncName(func);
  if (func != AggFunc::kCountStar) {
    out += "(" + (attr ? attr->ToString() : std::string("<no attribute>")) +
           ")";
  }
  if (predicate) out += " WHERE " + predicate->ToString();
  return out;
}

namespace {

/// Per-row evaluation of an aggregate query: did the row satisfy the
/// predicate, and what is its aggregation value.
struct EvalRow {
  bool pred = false;
  bool x_null = false;
  double x = 0.0;
};

Result<std::vector<EvalRow>> EvalRows(const Table& t,
                                      const AggregateQuery& q) {
  ExprPtr pred, attr;
  if (q.predicate) {
    pred = q.predicate->Clone();
    SVC_RETURN_IF_ERROR(pred->Bind(t.schema()));
  }
  if (q.attr) {
    attr = q.attr->Clone();
    SVC_RETURN_IF_ERROR(attr->Bind(t.schema()));
  } else if (q.func != AggFunc::kCountStar) {
    return Status::InvalidArgument(
        std::string(AggFuncName(q.func)) +
        " requires an aggregation attribute (only count(*) takes none); "
        "query: " +
        q.ToString());
  }
  std::vector<EvalRow> out;
  out.reserve(t.NumRows());
  for (const auto& r : t.rows()) {
    EvalRow er;
    er.pred = !pred || pred->Eval(r).IsTrue();
    if (attr) {
      const Value v = attr->Eval(r);
      if (v.is_null() || !v.IsNumeric()) {
        er.x_null = true;
      } else {
        er.x = v.ToDouble();
      }
    } else {
      er.x = 1.0;  // count(*)
    }
    out.push_back(er);
  }
  return out;
}

/// The per-row "trans" term of §5.2.1 (unscaled): the row's contribution
/// to the query total. sum -> x·cond, count(*) -> cond, count(a) ->
/// cond·[a not null].
double SumTerm(const AggregateQuery& q, const EvalRow& er) {
  if (!er.pred) return 0.0;
  switch (q.func) {
    case AggFunc::kSum:
      return er.x_null ? 0.0 : er.x;
    case AggFunc::kCountStar:
      return 1.0;
    case AggFunc::kCount:
      return er.x_null ? 0.0 : 1.0;
    default:
      return 0.0;
  }
}

bool IsTotalQuery(AggFunc f) {
  return f == AggFunc::kSum || f == AggFunc::kCount ||
         f == AggFunc::kCountStar;
}

/// Values satisfying the predicate (for avg / median / min / max).
std::vector<double> PredValues(const std::vector<EvalRow>& rows) {
  std::vector<double> out;
  for (const auto& er : rows) {
    if (er.pred && !er.x_null) out.push_back(er.x);
  }
  return out;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double SampleVariance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double s = 0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size() - 1);
}

/// Horvitz–Thompson total estimate and CI under Bernoulli(m) sampling:
/// T̂ = Σ t_i/m, V̂(T̂) = (1−m)/m² · Σ t_i².
Estimate HtTotal(const std::vector<double>& terms, double m, double z,
                 double confidence) {
  double total = 0, ssq = 0;
  for (double t : terms) {
    total += t;
    ssq += t * t;
  }
  Estimate e;
  e.value = total / m;
  const double var = (1.0 - m) / (m * m) * ssq;
  const double hw = z * std::sqrt(std::max(0.0, var));
  e.ci_low = e.value - hw;
  e.ci_high = e.value + hw;
  e.confidence = confidence;
  e.has_ci = true;
  e.sample_rows = terms.size();
  return e;
}

/// Conditional-mean estimate and CI (avg queries).
Estimate MeanEstimate(const std::vector<double>& values, double m, double z,
                      double confidence) {
  Estimate e;
  e.value = Mean(values);
  e.sample_rows = values.size();
  if (values.size() >= 2) {
    const double var =
        SampleVariance(values) * (1.0 - m) / static_cast<double>(values.size());
    const double hw = z * std::sqrt(std::max(0.0, var));
    e.ci_low = e.value - hw;
    e.ci_high = e.value + hw;
    e.confidence = confidence;
    e.has_ci = true;
  }
  return e;
}

/// AQP estimate on one set of evaluated sample rows.
Estimate AqpFromRows(const std::vector<EvalRow>& rows,
                     const AggregateQuery& q, double m,
                     const EstimatorOptions& opts) {
  const double z = NormalQuantile(opts.confidence);
  if (IsTotalQuery(q.func)) {
    std::vector<double> terms;
    terms.reserve(rows.size());
    for (const auto& er : rows) terms.push_back(SumTerm(q, er));
    return HtTotal(terms, m, z, opts.confidence);
  }
  std::vector<double> values = PredValues(rows);
  switch (q.func) {
    case AggFunc::kAvg:
      return MeanEstimate(values, m, z, opts.confidence);
    case AggFunc::kMedian: {
      Estimate e;
      std::vector<double> copy = values;
      e.value = MedianInPlace(&copy);
      e.sample_rows = values.size();
      if (values.size() >= 4) {
        auto [lo, hi] = BootstrapPercentileInterval(
            [&values](Rng* rng) {
              std::vector<double> res;
              res.reserve(values.size());
              for (size_t i : ResampleIndices(values.size(), rng)) {
                res.push_back(values[i]);
              }
              return MedianInPlace(&res);
            },
            opts.bootstrap_iterations, opts.bootstrap_seed, opts.confidence,
            opts.num_threads);
        e.ci_low = lo;
        e.ci_high = hi;
        e.confidence = opts.confidence;
        e.has_ci = true;
      }
      return e;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      // Sample extrema are biased; the corrected estimator with a Cantelli
      // tail bound lives in core/minmax.h.
      Estimate e;
      e.sample_rows = values.size();
      if (!values.empty()) {
        e.value = q.func == AggFunc::kMin
                      ? *std::min_element(values.begin(), values.end())
                      : *std::max_element(values.begin(), values.end());
      }
      return e;
    }
    default:
      return Estimate{};
  }
}

/// Assigns rows to the groups of `out` by the encoded values of the group
/// columns, appending groups not seen before in first-seen order.
struct GroupSlots {
  GroupedResult* out;
  KeyBuffer kb;

  size_t SlotFor(const Row& row, const std::vector<size_t>& gidx) {
    const RowKeyRef key = kb.Encode(row, gidx);
    auto [slot, inserted] =
        out->index.Emplace(key.bytes, key.hash, out->group_keys.size());
    if (inserted) {
      Row gk;
      gk.reserve(gidx.size());
      for (size_t i : gidx) gk.push_back(row[i]);
      out->group_keys.push_back(std::move(gk));
    }
    return *slot;
  }
};

/// A pair of corresponding rows (one per key in either sample).
struct PairRow {
  bool has_fresh = false;
  bool has_stale = false;
  EvalRow fresh;
  EvalRow stale;
  size_t group = 0;  ///< slot in PairRows' `groups`, when given
};

/// Pairs the samples by primary key: every fresh row in row order, then
/// every stale-only row in row order. With `groups` set, each pair also
/// records its group slot there (the fresh row's group when present, else
/// the stale row's; `fg`/`sg` are the group columns in each sample),
/// assigned in pair order.
Result<std::vector<PairRow>> PairRows(const CorrespondingSamples& samples,
                                      const AggregateQuery& q,
                                      GroupSlots* groups = nullptr,
                                      const std::vector<size_t>& fg = {},
                                      const std::vector<size_t>& sg = {}) {
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> fresh,
                       EvalRows(samples.fresh, q));
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> stale,
                       EvalRows(samples.stale, q));
  std::vector<PairRow> pairs;
  pairs.reserve(fresh.size() + stale.size());
  FlatKeyMap<size_t> by_key;
  by_key.Reserve(samples.fresh.NumRows());
  KeyBuffer kb;
  for (size_t i = 0; i < samples.fresh.NumRows(); ++i) {
    const Row& row = samples.fresh.row(i);
    const RowKeyRef key = kb.Encode(row, samples.fresh.pk_indices());
    by_key.Emplace(key.bytes, key.hash, pairs.size());
    PairRow p;
    p.has_fresh = true;
    p.fresh = fresh[i];
    if (groups != nullptr) p.group = groups->SlotFor(row, fg);
    pairs.push_back(p);
  }
  for (size_t i = 0; i < samples.stale.NumRows(); ++i) {
    const Row& row = samples.stale.row(i);
    const RowKeyRef key = kb.Encode(row, samples.stale.pk_indices());
    const size_t* slot = by_key.Find(key.bytes, key.hash);
    if (slot == nullptr) {
      PairRow p;
      p.has_stale = true;
      p.stale = stale[i];
      if (groups != nullptr) p.group = groups->SlotFor(row, sg);
      pairs.push_back(p);
    } else {
      pairs[*slot].has_stale = true;
      pairs[*slot].stale = stale[i];
    }
  }
  return pairs;
}

/// Correction estimate (and CI) for the pairs `members` indexes (all of
/// `pairs` when null).
Estimate CorrFromPairs(const std::vector<PairRow>& pairs,
                       const std::vector<size_t>* members,
                       const AggregateQuery& q, double exact_stale, double m,
                       bool stale_group_exists, const EstimatorOptions& opts) {
  const size_t n = members != nullptr ? members->size() : pairs.size();
  auto at = [&](size_t k) -> const PairRow& {
    return pairs[members != nullptr ? (*members)[k] : k];
  };
  const double z = NormalQuantile(opts.confidence);
  if (IsTotalQuery(q.func)) {
    // ĉ = Σ (t'_i − t_i)/m over corresponding keys (−̇, nulls as zero);
    // HT variance as in the AQP case but on the differences.
    double total = 0, ssq = 0;
    for (size_t k = 0; k < n; ++k) {
      const PairRow& p = at(k);
      const double d = (p.has_fresh ? SumTerm(q, p.fresh) : 0.0) -
                       (p.has_stale ? SumTerm(q, p.stale) : 0.0);
      total += d;
      ssq += d * d;
    }
    Estimate e;
    const double c = total / m;
    e.value = exact_stale + c;
    const double var = (1.0 - m) / (m * m) * ssq;
    const double hw = z * std::sqrt(std::max(0.0, var));
    e.ci_low = e.value - hw;
    e.ci_high = e.value + hw;
    e.confidence = opts.confidence;
    e.has_ci = true;
    e.sample_rows = n;
    return e;
  }

  // avg / median: correction on the statistic itself, bootstrap-bounded
  // (§5.2.5's SVC+CORR bootstrap: resample pairs, re-estimate c). Without
  // an Rng the statistic runs over every pair in order; with one, over n
  // pairs drawn with replacement inline — the same draws ResampleIndices
  // makes — in draw order. avg keeps running sums (the same additions in
  // the same order as Mean over the collected values); median collects
  // into per-thread buffers reused across replicates.
  const bool median = q.func == AggFunc::kMedian;
  auto stat_of = [&](Rng* rng) {
    thread_local std::vector<double> f, s;
    f.clear();
    s.clear();
    double f_sum = 0, s_sum = 0;
    size_t f_n = 0, s_n = 0;
    const int64_t last = static_cast<int64_t>(n) - 1;
    for (size_t k = 0; k < n; ++k) {
      const PairRow& p =
          at(rng == nullptr ? k
                            : static_cast<size_t>(rng->UniformInt(0, last)));
      if (p.has_fresh && p.fresh.pred && !p.fresh.x_null) {
        if (median) f.push_back(p.fresh.x);
        f_sum += p.fresh.x;
        ++f_n;
      }
      if (p.has_stale && p.stale.pred && !p.stale.x_null) {
        if (median) s.push_back(p.stale.x);
        s_sum += p.stale.x;
        ++s_n;
      }
    }
    if (median) return MedianInPlace(&f) - MedianInPlace(&s);
    return (f_n == 0 ? 0.0 : f_sum / static_cast<double>(f_n)) -
           (s_n == 0 ? 0.0 : s_sum / static_cast<double>(s_n));
  };

  Estimate e;
  const double c = stat_of(nullptr);
  e.value = stale_group_exists ? exact_stale + c : c;
  e.sample_rows = n;
  if (n >= 4) {
    auto [lo, hi] = BootstrapPercentileInterval(
        stat_of, opts.bootstrap_iterations, opts.bootstrap_seed,
        opts.confidence, opts.num_threads);
    e.ci_low = (stale_group_exists ? exact_stale : 0.0) + lo;
    e.ci_high = (stale_group_exists ? exact_stale : 0.0) + hi;
    e.confidence = opts.confidence;
    e.has_ci = true;
  }
  return e;
}

/// An exact aggregate fed rows in row order: Σ SumTerm for totals, else
/// the mean / MedianInPlace / extremum of the predicate values. A group's
/// accumulator sees the same terms in the same order as a scan of that
/// group's rows alone, so one pass over many groups is bit-identical to
/// one pass per group.
struct ExactAcc {
  double sum = 0;
  size_t n = 0;                ///< rows counted (the estimate's sample_rows)
  std::vector<double> values;  ///< median / min / max only

  void Add(const AggregateQuery& q, const EvalRow& er) {
    if (IsTotalQuery(q.func)) {
      sum += SumTerm(q, er);
      ++n;
    } else if (er.pred && !er.x_null) {
      if (q.func == AggFunc::kAvg) {
        sum += er.x;
      } else {
        values.push_back(er.x);
      }
      ++n;
    }
  }

  /// False for aggregates without an exact evaluator.
  static bool Supported(AggFunc f) {
    return IsTotalQuery(f) || f == AggFunc::kAvg || f == AggFunc::kMedian ||
           f == AggFunc::kMin || f == AggFunc::kMax;
  }

  /// The answer (destroys the order of `values`).
  double Value(AggFunc f) {
    switch (f) {
      case AggFunc::kAvg:
        return n == 0 ? 0.0 : sum / static_cast<double>(n);
      case AggFunc::kMedian:
        return MedianInPlace(&values);
      case AggFunc::kMin:
        return values.empty()
                   ? 0.0
                   : *std::min_element(values.begin(), values.end());
      case AggFunc::kMax:
        return values.empty()
                   ? 0.0
                   : *std::max_element(values.begin(), values.end());
      default:
        return sum;
    }
  }
};

}  // namespace

double NormalQuantile(double confidence) {
  // Two-sided: z = Phi^{-1}((1 + confidence) / 2), via Acklam's rational
  // approximation of the inverse normal CDF.
  const double p = (1.0 + confidence) / 2.0;
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425, phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

Result<double> ExactAggregate(const Table& view, const AggregateQuery& q) {
  SVC_ASSIGN_OR_RETURN(GroupedResult r, ExactAggregateGrouped(view, {}, q));
  return r.Scalar();
}

Result<Estimate> SvcAqpEstimate(const CorrespondingSamples& samples,
                                const AggregateQuery& q,
                                const EstimatorOptions& opts) {
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> rows, EvalRows(samples.fresh, q));
  return AqpFromRows(rows, q, samples.ratio, opts);
}

Result<Estimate> SvcCorrEstimate(const Table& stale_view,
                                 const CorrespondingSamples& samples,
                                 const AggregateQuery& q,
                                 const EstimatorOptions& opts) {
  SVC_ASSIGN_OR_RETURN(double exact_stale, ExactAggregate(stale_view, q));
  return SvcCorrEstimate(exact_stale, samples, q, opts);
}

Result<Estimate> SvcCorrEstimate(double exact_stale,
                                 const CorrespondingSamples& samples,
                                 const AggregateQuery& q,
                                 const EstimatorOptions& opts) {
  SVC_ASSIGN_OR_RETURN(std::vector<PairRow> pairs, PairRows(samples, q));
  if (q.func == AggFunc::kMin || q.func == AggFunc::kMax) {
    // Appendix §12.1.1: correct the stale extremum by the largest (resp.
    // smallest) paired row-by-row difference.
    double best = 0;
    bool any = false;
    for (const auto& p : pairs) {
      if (!p.has_fresh || !p.has_stale) continue;
      if (p.fresh.x_null || p.stale.x_null || !p.fresh.pred || !p.stale.pred) {
        continue;
      }
      const double d = p.fresh.x - p.stale.x;
      if (!any || (q.func == AggFunc::kMax ? d > best : d < best)) {
        best = d;
        any = true;
      }
    }
    Estimate e;
    e.value = exact_stale + (any ? best : 0.0);
    e.sample_rows = pairs.size();
    return e;
  }
  return CorrFromPairs(pairs, nullptr, q, exact_stale, samples.ratio,
                       /*stale_group_exists=*/true, opts);
}

Result<GroupedResult> ExactAggregateGrouped(
    const Table& view, const std::vector<std::string>& group_columns,
    const AggregateQuery& q) {
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> gidx,
                       view.schema().ResolveAll(group_columns));
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> rows, EvalRows(view, q));
  if (!ExactAcc::Supported(q.func)) {
    return Status::NotSupported(
        std::string(AggFuncName(q.func)) +
        " has no exact single-pass evaluator (supported: sum, count, "
        "count(*), avg, median, min, max); query: " +
        q.ToString());
  }
  GroupedResult out;
  out.group_columns = group_columns;
  GroupSlots slots{&out, {}};
  std::vector<ExactAcc> acc;
  for (size_t i = 0; i < view.NumRows(); ++i) {
    // No group columns: one group, so only the first row needs a lookup.
    const size_t g =
        gidx.empty() && i > 0 ? 0 : slots.SlotFor(view.row(i), gidx);
    if (g == acc.size()) acc.emplace_back();
    acc[g].Add(q, rows[i]);
  }
  out.estimates.resize(acc.size());
  for (size_t g = 0; g < acc.size(); ++g) {
    // Exact: no sampling error, so the interval collapses to the value.
    Estimate& e = out.estimates[g];
    e.value = acc[g].Value(q.func);
    e.ci_low = e.value;
    e.ci_high = e.value;
    e.sample_rows = acc[g].n;
  }
  return out;
}

Result<GroupedResult> SvcAqpEstimateGrouped(
    const CorrespondingSamples& samples,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const EstimatorOptions& opts) {
  const Table& t = samples.fresh;
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> gidx,
                       t.schema().ResolveAll(group_columns));
  SVC_ASSIGN_OR_RETURN(std::vector<EvalRow> rows, EvalRows(t, q));
  GroupedResult out;
  out.group_columns = group_columns;
  GroupSlots slots{&out, {}};
  std::vector<std::vector<EvalRow>> members;
  for (size_t i = 0; i < t.NumRows(); ++i) {
    const size_t g = slots.SlotFor(t.row(i), gidx);
    if (g == members.size()) members.emplace_back();
    members[g].push_back(rows[i]);
  }
  out.estimates.resize(members.size());
  for (size_t g = 0; g < members.size(); ++g) {
    out.estimates[g] = AqpFromRows(members[g], q, samples.ratio, opts);
  }
  return out;
}

Result<GroupedResult> SvcCorrEstimateGrouped(
    const Table& stale_view, const CorrespondingSamples& samples,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const EstimatorOptions& opts) {
  SVC_ASSIGN_OR_RETURN(GroupedResult stale_exact,
                       ExactAggregateGrouped(stale_view, group_columns, q));
  return SvcCorrEstimateGrouped(stale_exact, samples, group_columns, q, opts);
}

Result<GroupedResult> SvcCorrEstimateGrouped(
    const GroupedResult& stale_exact, const CorrespondingSamples& samples,
    const std::vector<std::string>& group_columns, const AggregateQuery& q,
    const EstimatorOptions& opts) {
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> fg,
                       samples.fresh.schema().ResolveAll(group_columns));
  SVC_ASSIGN_OR_RETURN(std::vector<size_t> sg,
                       samples.stale.schema().ResolveAll(group_columns));
  // Union of groups: the stale-exact groups, then groups first seen in the
  // pairs (pairs take the fresh row's group when present, else the stale
  // row's).
  GroupedResult out;
  out.group_columns = group_columns;
  out.group_keys = stale_exact.group_keys;
  out.index = stale_exact.index;
  GroupSlots slots{&out, {}};
  SVC_ASSIGN_OR_RETURN(std::vector<PairRow> pairs,
                       PairRows(samples, q, &slots, fg, sg));

  // Each group's pairs (indices, in pair order).
  std::vector<std::vector<size_t>> members(out.group_keys.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    members[pairs[i].group].push_back(i);
  }
  out.estimates.resize(members.size());
  for (size_t g = 0; g < members.size(); ++g) {
    const bool in_stale = g < stale_exact.estimates.size();
    const double exact = in_stale ? stale_exact.estimates[g].value : 0.0;
    out.estimates[g] = CorrFromPairs(pairs, &members[g], q, exact,
                                     samples.ratio, in_stale, opts);
  }
  return out;
}

}  // namespace svc
