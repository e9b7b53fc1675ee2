// Micro-benchmark: relational operator throughput of the engine substrate
// — scan+filter, hash join, hash aggregation, the composed join+group-by
// pipeline, and the η sampling operator — measured for the *current*
// executor against a faithful replica of the original string-keyed,
// row-copying implementation (kept below as the permanent baseline).
//
// This is the canonical before/after harness for executor work: it emits
// BENCH_executor.json and, with --min-speedup, acts as a regression gate
// on the join+aggregate pipeline (scripts/check.sh runs it at 3.0x).
//
// A second section measures parallel scaling: the current executor at
// threads=1 vs threads=N (--threads, default 8) on the same plans, with a
// row-count cross-check (the parallel executor is bit-deterministic).
// --min-parallel-speedup gates the join+aggregate parallel speedup; it
// defaults to off because the attainable ratio is bounded by the physical
// core count of the machine (a 1-core container can only show 1.0x).
//
// A last section times one-row SQL INSERTs at increasing pending-queue
// depth in every engine mode; --max-ingest-depth-ratio gates the curve.
//
// Usage: micro_ops [--rows N] [--reps N] [--out FILE] [--min-speedup X]
//                  [--threads N] [--min-parallel-speedup X]
//                  [--min-cache-speedup X] [--max-ingest-depth-ratio X]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "core/shared_engine.h"
#include "core/sharded_engine.h"
#include "core/svc.h"
#include "relational/executor.h"
#include "sql/session.h"
#include "storage/durable_engine.h"

namespace svc {
namespace {

Database MakeDb(int64_t rows) {
  Database db;
  Table fact(Schema({{"", "id", ValueType::kInt},
                     {"", "key", ValueType::kInt},
                     {"", "val", ValueType::kDouble}}));
  (void)fact.SetPrimaryKey({"id"});
  Table dim(Schema({{"", "key", ValueType::kInt},
                    {"", "attr", ValueType::kDouble}}));
  (void)dim.SetPrimaryKey({"key"});
  Rng rng(5);
  const int64_t dims = std::max<int64_t>(rows / 16, 1);
  for (int64_t k = 0; k < dims; ++k) {
    (void)dim.Insert({Value::Int(k), Value::Double(rng.NextDouble())});
  }
  for (int64_t i = 0; i < rows; ++i) {
    (void)fact.Insert({Value::Int(i), Value::Int(rng.UniformInt(0, dims - 1)),
                       Value::Double(rng.Uniform(0, 100))});
  }
  db.PutTable("fact", std::move(fact));
  db.PutTable("dim", std::move(dim));
  return db;
}

// ---- Baseline: the original executor's algorithms ---------------------------
// Deep-copying scans, std::string row keys, node-based std:: hash
// containers. Deliberately kept verbatim-in-spirit so the comparison stays
// reproducible as the real executor evolves.

Table BaselineScan(const Database& db, const std::string& name,
                   const std::string& alias) {
  const Table* t = *db.GetTable(name);
  Table out(t->schema().WithQualifier(alias));
  for (const auto& r : t->rows()) out.AppendUnchecked(r);
  return out;
}

Table BaselineSelect(Table in, const ExprPtr& pred_template) {
  ExprPtr pred = pred_template->Clone();
  (void)pred->Bind(in.schema());
  Table out(in.schema());
  for (const auto& r : in.rows()) {
    if (pred->Eval(r).IsTrue()) out.AppendUnchecked(r);
  }
  return out;
}

bool BaselineAnyNull(const Row& row, const std::vector<size_t>& idx) {
  for (size_t i : idx) {
    if (row[i].is_null()) return true;
  }
  return false;
}

/// The seed executor's general hash-join path verbatim: build the right
/// side into a std::unordered_multimap keyed by encoded std::string keys,
/// probe the left with a fresh key string per row, and keep the
/// matched-row bookkeeping the seed carried for outer joins.
Table BaselineJoinInner(const Table& left, const Table& right,
                        const std::vector<std::string>& lrefs,
                        const std::vector<std::string>& rrefs) {
  const std::vector<size_t> lidx = *left.schema().ResolveAll(lrefs);
  const std::vector<size_t> ridx = *right.schema().ResolveAll(rrefs);
  const Schema out_schema = Schema::Concat(left.schema(), right.schema());

  std::unordered_multimap<std::string, size_t> build;
  build.reserve(right.NumRows() * 2);
  for (size_t i = 0; i < right.NumRows(); ++i) {
    if (BaselineAnyNull(right.row(i), ridx)) continue;
    build.emplace(EncodeRowKey(right.row(i), ridx), i);
  }
  std::vector<char> right_matched(right.NumRows(), 0);
  Table out(out_schema);
  auto emit = [&](const Row* l, const Row* r) {
    Row row;
    row.reserve(out_schema.NumColumns());
    row.insert(row.end(), l->begin(), l->end());
    row.insert(row.end(), r->begin(), r->end());
    out.AppendUnchecked(std::move(row));
  };
  for (size_t i = 0; i < left.NumRows(); ++i) {
    const Row& l = left.row(i);
    if (BaselineAnyNull(l, lidx)) continue;
    const std::string key = EncodeRowKey(l, lidx);
    auto [it, end] = build.equal_range(key);
    for (; it != end; ++it) {
      right_matched[it->second] = 1;
      emit(&l, &right.row(it->second));
    }
  }
  return out;
}

/// The seed executor's hash aggregation verbatim: std::string group keys
/// into a node-based std::unordered_map, a generic per-aggregate state
/// vector (including the unordered_set the seed embedded for
/// count-distinct), and a virtual Eval + Value copy per aggregate input.
Table BaselineAggregate(const Table& in, const std::string& group_col,
                        const std::vector<AggItem>& aggs) {
  const std::vector<size_t> gidx = *in.schema().ResolveAll({group_col});
  std::vector<ExprPtr> inputs(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].input) {
      inputs[a] = aggs[a].input->Clone();
      (void)inputs[a]->Bind(in.schema());
    }
  }

  struct State {
    int64_t count = 0;
    int64_t isum = 0;
    double dsum = 0.0;
    bool int_input = true;
    std::unordered_set<std::string> distinct;
  };
  std::unordered_map<std::string, size_t> group_of;
  std::vector<Row> group_keys;
  std::vector<std::vector<State>> states;
  for (const auto& r : in.rows()) {
    const std::string key = EncodeRowKey(r, gidx);
    auto [it, inserted] = group_of.emplace(key, group_keys.size());
    if (inserted) {
      Row gk;
      for (size_t i : gidx) gk.push_back(r[i]);
      group_keys.push_back(std::move(gk));
      states.emplace_back(aggs.size());
    }
    auto& st = states[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      State& s = st[a];
      if (aggs[a].func == AggFunc::kCountStar) {
        ++s.count;
        continue;
      }
      const Value v = inputs[a]->Eval(r);
      if (v.is_null()) continue;
      switch (aggs[a].func) {
        case AggFunc::kSum:
          ++s.count;
          if (v.type() == ValueType::kInt && s.int_input) {
            s.isum += v.AsInt();
          } else {
            if (s.int_input) {
              s.dsum += static_cast<double>(s.isum);
              s.int_input = false;
            }
            s.dsum += v.ToDouble();
          }
          break;
        case AggFunc::kCount:
          ++s.count;
          break;
        default:
          break;
      }
    }
  }
  Schema out_schema;
  for (size_t i : gidx) out_schema.AddColumn(in.schema().column(i));
  for (const auto& a : aggs) {
    out_schema.AddColumn({"", a.alias, ValueType::kDouble});
  }
  Table out(out_schema);
  for (size_t g = 0; g < group_keys.size(); ++g) {
    Row row = group_keys[g];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const State& s = states[g][a];
      if (aggs[a].func == AggFunc::kCountStar ||
          aggs[a].func == AggFunc::kCount) {
        row.push_back(Value::Int(s.count));
      } else if (s.int_input) {
        row.push_back(Value::Int(s.isum));
      } else {
        row.push_back(Value::Double(s.dsum));
      }
    }
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

Table BaselineEta(const Table& in, const std::vector<std::string>& cols,
                  double m, HashFamily family) {
  const std::vector<size_t> idx = *in.schema().ResolveAll(cols);
  Table out(in.schema());
  for (const auto& r : in.rows()) {
    const std::string key = EncodeRowKey(r, idx);
    if (HashInSample(key, m, family)) out.AppendUnchecked(r);
  }
  return out;
}

// ---- Harness ----------------------------------------------------------------

struct BenchResult {
  std::string name;
  double baseline_ms = 0;
  double current_ms = 0;
  size_t out_rows = 0;
  double speedup() const { return baseline_ms / current_ms; }
};

/// Best-of-`reps` wall time in milliseconds (one warmup run first).
double TimeMs(int reps, const std::function<size_t()>& fn, size_t* out_rows) {
  *out_rows = fn();  // warmup + result capture
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    const size_t n = fn();
    best = std::min(best, sw.ElapsedMillis());
    if (n != *out_rows) {
      std::fprintf(stderr, "[micro_ops] nondeterministic row count\n");
      std::exit(2);
    }
  }
  return best;
}

size_t RunPlan(const PlanNode& plan, const Database& db,
               ExecOptions opts = {}) {
  auto r = ExecutePlan(plan, db, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "[micro_ops] plan failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return r->NumRows();
}

// ---- SQL ingest curve -------------------------------------------------------
// Per-statement cost of a one-row INSERT through SqlSession at pending-queue
// depths {1k, 4k, 16k}, plus one 2000-row INSERT, in every engine mode. This
// times the whole write path (parse, session validation and pending-key
// checks, commit, WAL append) rather than the engine commit alone, so any
// per-statement work that grows with the queue shows up as a rising curve.
// --max-ingest-depth-ratio gates cost(16k) / cost(1k) in every mode.

constexpr size_t kIngestDepths[] = {1000, 4000, 16000};
constexpr int kIngestRounds = 7;       // interleaved rounds across depths
constexpr int kIngestStmts = 30;       // one-row INSERTs per depth per round
constexpr size_t kIngestBatch = 2000;  // rows of the batch INSERT

struct IngestCurve {
  std::string mode;
  std::vector<double> stmt_us;  // median µs per statement, per depth
  double batch_us_per_row = 0;
  double ratio() const { return stmt_us.back() / stmt_us.front(); }
};

std::string IngestSql(int64_t first, size_t n) {
  std::string sql = "INSERT INTO fact VALUES ";
  for (size_t i = 0; i < n; ++i) {
    const int64_t id = first + static_cast<int64_t>(i);
    sql += (i == 0 ? "(" : ", (") + std::to_string(id) + ", " +
           std::to_string(id % 97) + ", 1.5)";
  }
  return sql;
}

/// One session of `mode` over MakeDb(2000) with a view sampled on fact.id
/// (which hash-partitions fact in sharded mode). Durable sessions log to a
/// fresh directory under `dir` with fsync off, so the curve measures CPU
/// work rather than the disk.
std::unique_ptr<SqlSession> OpenIngestSession(const std::string& mode,
                                              const std::string& dir) {
  EngineHandle handle = EngineHandle::Private(MakeDb(2000));
  if (mode == "shared") {
    handle = EngineHandle::Shared(std::make_shared<SharedEngine>(MakeDb(2000)));
  } else if (mode == "sharded") {
    handle = EngineHandle::Sharded(
        std::make_shared<ShardedEngine>(MakeDb(2000), 4));
  } else if (mode == "durable") {
    DurableOptions dopts;
    dopts.data_dir = dir;
    dopts.wal = ParseFsyncSpec("off").value();
    auto opened = DurableEngine::Open(dopts);
    if (!opened.ok()) return nullptr;
    Database db = MakeDb(2000);
    for (const char* t : {"fact", "dim"}) {
      if (!(*opened)->CreateTable(t, **db.GetTable(t)).ok()) return nullptr;
    }
    handle = EngineHandle::Durable(*opened);
  }
  auto session = std::make_unique<SqlSession>(std::move(handle));
  auto st = session->Execute(
      "CREATE MATERIALIZED VIEW factView SAMPLING KEY (id) AS "
      "SELECT id, val FROM fact");
  if (!st.ok()) {
    std::fprintf(stderr, "[micro_ops] sql ingest: %s\n",
                 st.status().ToString().c_str());
    return nullptr;
  }
  return session;
}

void RunIngestSql(SqlSession* session, const std::string& sql) {
  auto r = session->Execute(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "[micro_ops] sql ingest: %s\n",
                 r.status().ToString().c_str());
    std::exit(2);
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

IngestCurve MeasureIngestCurve(const std::string& mode,
                               const std::string& dir) {
  IngestCurve curve;
  curve.mode = mode;
  // One session per depth, pre-filled with untimed 1000-row INSERTs; the
  // depths are then timed in interleaved rounds so drift hits all alike.
  std::vector<std::unique_ptr<SqlSession>> sessions;
  std::vector<int64_t> next_id;
  for (const size_t depth : kIngestDepths) {
    const std::string sub = dir + "/" + std::to_string(depth);
    sessions.push_back(OpenIngestSession(mode, sub));
    if (!sessions.back()) {
      std::fprintf(stderr, "[micro_ops] sql ingest: cannot open %s\n",
                   mode.c_str());
      std::exit(2);
    }
    int64_t id = 1000000;
    for (size_t queued = 0; queued < depth; queued += 1000) {
      RunIngestSql(sessions.back().get(), IngestSql(id, 1000));
      id += 1000;
    }
    next_id.push_back(id);
  }
  std::vector<std::vector<double>> samples(sessions.size());
  for (int round = 0; round < kIngestRounds; ++round) {
    for (size_t d = 0; d < sessions.size(); ++d) {
      std::vector<std::string> stmts;
      for (int i = 0; i < kIngestStmts; ++i) {
        stmts.push_back(IngestSql(next_id[d]++, 1));
      }
      Stopwatch sw;
      for (const auto& sql : stmts) RunIngestSql(sessions[d].get(), sql);
      samples[d].push_back(sw.ElapsedMillis() * 1e3 / kIngestStmts);
    }
  }
  for (const auto& s : samples) curve.stmt_us.push_back(Median(s));
  // The batch statement at the deepest point.
  const std::string batch = IngestSql(next_id.back(), kIngestBatch);
  Stopwatch sw;
  RunIngestSql(sessions.back().get(), batch);
  curve.batch_us_per_row = sw.ElapsedMillis() * 1e3 / kIngestBatch;
  return curve;
}

}  // namespace
}  // namespace svc

int main(int argc, char** argv) {
  using namespace svc;
  int64_t rows = 100000;
  int reps = 7;
  double min_speedup = 0.0;           // 0 = report only
  double min_parallel_speedup = 0.0;  // 0 = report only
  double min_cache_speedup = 0.0;     // 0 = report only
  double max_ingest_ratio = 0.0;      // 0 = report only
  int threads = 8;
  std::string out_path = "BENCH_executor.json";
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--rows") == 0) {
      rows = std::atoll(next("--rows"));
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps = std::atoi(next("--reps"));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next("--out");
    } else if (std::strcmp(argv[i], "--min-speedup") == 0) {
      min_speedup = std::atof(next("--min-speedup"));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = std::atoi(next("--threads"));
    } else if (std::strcmp(argv[i], "--min-parallel-speedup") == 0) {
      min_parallel_speedup = std::atof(next("--min-parallel-speedup"));
    } else if (std::strcmp(argv[i], "--min-cache-speedup") == 0) {
      min_cache_speedup = std::atof(next("--min-cache-speedup"));
    } else if (std::strcmp(argv[i], "--max-ingest-depth-ratio") == 0) {
      max_ingest_ratio = std::atof(next("--max-ingest-depth-ratio"));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  // atoll/atoi return 0 on garbage; zero rows/reps/threads would time
  // nothing and report nonsense (1e300 ms, NaN speedups) as a gate verdict.
  if (rows < 1 || reps < 1 || threads < 1) {
    std::fprintf(stderr,
                 "invalid --rows/--reps/--threads (must be >= 1; got "
                 "%lld/%d/%d)\n",
                 static_cast<long long>(rows), reps, threads);
    return 2;
  }

  Database db = MakeDb(rows);
  std::vector<BenchResult> results;

  auto bench = [&](const std::string& name,
                   const std::function<size_t()>& baseline,
                   const std::function<size_t()>& current) {
    BenchResult r;
    r.name = name;
    size_t rows_base = 0, rows_cur = 0;
    r.baseline_ms = TimeMs(reps, baseline, &rows_base);
    r.current_ms = TimeMs(reps, current, &rows_cur);
    if (rows_base != rows_cur) {
      std::fprintf(stderr,
                   "[micro_ops] %s: baseline produced %zu rows, current %zu\n",
                   name.c_str(), rows_base, rows_cur);
      std::exit(2);
    }
    r.out_rows = rows_cur;
    results.push_back(r);
    std::printf("%-16s baseline %8.2f ms   current %8.2f ms   speedup %5.2fx"
                "   (%zu rows)\n",
                name.c_str(), r.baseline_ms, r.current_ms, r.speedup(),
                r.out_rows);
  };

  // scan + filter
  {
    ExprPtr pred = Expr::Gt(Expr::Col("val"), Expr::LitDouble(50));
    PlanPtr plan = PlanNode::Select(PlanNode::Scan("fact"), pred->Clone());
    bench(
        "scan_filter",
        [&] { return BaselineSelect(BaselineScan(db, "fact", "fact"), pred)
                  .NumRows(); },
        [&] { return RunPlan(*plan, db); });
  }

  // hash join (fact ⋈ dim)
  {
    PlanPtr plan = PlanNode::Join(PlanNode::Scan("fact", "f"),
                                  PlanNode::Scan("dim", "d"), JoinType::kInner,
                                  {{"f.key", "d.key"}}, nullptr, true);
    bench(
        "hash_join",
        [&] {
          return BaselineJoinInner(BaselineScan(db, "fact", "f"),
                                   BaselineScan(db, "dim", "d"), {"f.key"},
                                   {"d.key"})
              .NumRows();
        },
        [&] { return RunPlan(*plan, db); });
  }

  // hash aggregation (group fact by key)
  {
    PlanPtr plan = PlanNode::Aggregate(
        PlanNode::Scan("fact"), {"key"},
        {{AggFunc::kSum, Expr::Col("val"), "s"},
         {AggFunc::kCountStar, nullptr, "c"}});
    bench(
        "hash_aggregate",
        [&] {
          return BaselineAggregate(
                     BaselineScan(db, "fact", "fact"), "key",
                     {{AggFunc::kSum, Expr::Col("val"), "s"},
                      {AggFunc::kCountStar, nullptr, "c"}})
              .NumRows();
        },
        [&] { return RunPlan(*plan, db); });
  }

  // composed join + group-by pipeline — the regression-gated path
  {
    PlanPtr join = PlanNode::Join(PlanNode::Scan("fact", "f"),
                                  PlanNode::Scan("dim", "d"), JoinType::kInner,
                                  {{"f.key", "d.key"}}, nullptr, true);
    PlanPtr plan = PlanNode::Aggregate(
        join, {"f.key"},
        {{AggFunc::kSum, Expr::Col("f.val"), "s"},
         {AggFunc::kCountStar, nullptr, "c"}});
    bench(
        "join_aggregate",
        [&] {
          Table joined = BaselineJoinInner(BaselineScan(db, "fact", "f"),
                                           BaselineScan(db, "dim", "d"),
                                           {"f.key"}, {"d.key"});
          return BaselineAggregate(joined, "f.key",
                                   {{AggFunc::kSum, Expr::Col("f.val"), "s"},
                                    {AggFunc::kCountStar, nullptr, "c"}})
              .NumRows();
        },
        [&] { return RunPlan(*plan, db); });
  }

  // η sampling operator
  {
    PlanPtr plan = PlanNode::HashFilter(PlanNode::Scan("fact"), {"id"}, 0.1,
                                        HashFamily::kFnv1a);
    bench(
        "eta_sample",
        [&] { return BaselineEta(BaselineScan(db, "fact", "fact"), {"id"}, 0.1,
                                 HashFamily::kFnv1a)
                  .NumRows(); },
        [&] { return RunPlan(*plan, db); });
  }

  // ---- Parallel scaling: current executor, threads=1 vs threads=N ----------
  struct ParResult {
    std::string name;
    double t1_ms = 0;
    double tn_ms = 0;
    size_t out_rows = 0;
    double speedup() const { return t1_ms / tn_ms; }
  };
  std::vector<ParResult> par_results;
  auto bench_par = [&](const std::string& name, const PlanNode& plan) {
    ParResult r;
    r.name = name;
    size_t rows_seq = 0, rows_par = 0;
    r.t1_ms = TimeMs(
        reps, [&] { return RunPlan(plan, db, ExecOptions{1}); }, &rows_seq);
    r.tn_ms = TimeMs(
        reps, [&] { return RunPlan(plan, db, ExecOptions{threads}); },
        &rows_par);
    if (rows_seq != rows_par) {
      std::fprintf(stderr,
                   "[micro_ops] %s: threads=1 produced %zu rows, threads=%d "
                   "produced %zu\n",
                   name.c_str(), rows_seq, threads, rows_par);
      std::exit(2);
    }
    r.out_rows = rows_par;
    par_results.push_back(r);
    std::printf("%-16s threads=1 %8.2f ms   threads=%-2d %8.2f ms   "
                "speedup %5.2fx   (%zu rows)\n",
                name.c_str(), r.t1_ms, threads, r.tn_ms, r.speedup(),
                r.out_rows);
  };
  std::printf("-- parallel scaling (threads=%d) --\n", threads);
  {
    PlanPtr join = PlanNode::Join(PlanNode::Scan("fact", "f"),
                                  PlanNode::Scan("dim", "d"), JoinType::kInner,
                                  {{"f.key", "d.key"}}, nullptr, true);
    bench_par("hash_join", *join);
  }
  {
    PlanPtr plan = PlanNode::Aggregate(
        PlanNode::Scan("fact"), {"key"},
        {{AggFunc::kSum, Expr::Col("val"), "s"},
         {AggFunc::kCountStar, nullptr, "c"}});
    bench_par("hash_aggregate", *plan);
  }
  {
    PlanPtr join = PlanNode::Join(PlanNode::Scan("fact", "f"),
                                  PlanNode::Scan("dim", "d"), JoinType::kInner,
                                  {{"f.key", "d.key"}}, nullptr, true);
    PlanPtr plan = PlanNode::Aggregate(
        std::move(join), {"f.key"},
        {{AggFunc::kSum, Expr::Col("f.val"), "s"},
         {AggFunc::kCountStar, nullptr, "c"}});
    bench_par("join_aggregate", *plan);
  }

  // -- Serving layer: repeated SVC queries on an unchanged stale engine --
  // Cold = every query re-runs the full cleaning pipeline (the cache-off
  // path, which was the only path before the cleaned-sample cache); warm =
  // the cache serves the memoized samples and each query pays only the
  // estimator.
  struct CacheBench {
    double cold_ms = 0;
    double warm_ms = 0;
    double speedup() const { return cold_ms / warm_ms; }
  } cache_bench;
  {
    const int64_t cache_rows = std::min<int64_t>(rows, 20000);
    SvcEngine engine(MakeDb(cache_rows));
    PlanPtr def = PlanNode::Aggregate(
        PlanNode::Scan("fact"), {"key"},
        {{AggFunc::kSum, Expr::Col("val"), "sv"},
         {AggFunc::kCountStar, nullptr, "c"}});
    if (auto st = engine.CreateView("factView", std::move(def)); !st.ok()) {
      std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
      return 2;
    }
    Rng rng(17);
    const int64_t dims = std::max<int64_t>(cache_rows / 16, 1);
    for (int64_t i = 0; i < cache_rows / 20; ++i) {
      if (auto st = engine.InsertRecord(
              "fact", {Value::Int(cache_rows + i),
                       Value::Int(rng.UniformInt(0, dims - 1)),
                       Value::Double(rng.Uniform(0, 100))});
          !st.ok()) {
        std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
        return 2;
      }
    }
    AggregateQuery q = AggregateQuery::Sum(Expr::Col("sv"));
    SvcQueryOptions qopts;
    qopts.ratio = 0.1;
    auto run_query = [&](const SvcEngine& e) -> size_t {
      auto r = e.Query("factView", q, qopts);
      if (!r.ok()) {
        std::fprintf(stderr, "[micro_ops] query failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(2);
      }
      return r->estimate.sample_rows;
    };
    SvcEngine cold(engine);
    cold.set_sample_cache_enabled(false);
    size_t cold_rows = 0, warm_rows = 0;
    cache_bench.cold_ms = TimeMs(reps, [&] { return run_query(cold); },
                                 &cold_rows);
    cache_bench.warm_ms = TimeMs(reps, [&] { return run_query(engine); },
                                 &warm_rows);
    if (cold_rows != warm_rows) {
      std::fprintf(stderr,
                   "[micro_ops] query_cache: cold used %zu sample rows, "
                   "warm %zu\n",
                   cold_rows, warm_rows);
      return 2;
    }
    std::printf("-- query cache (repeated SVC query, %lld-row view) --\n",
                static_cast<long long>(cache_rows));
    std::printf("%-16s cold %8.3f ms   warm %8.3f ms   speedup %7.1fx\n",
                "svc_query", cache_bench.cold_ms, cache_bench.warm_ms,
                cache_bench.speedup());
  }

  // Grouped CORR on a 4-shard ShardedEngine. Cold = caches off: every
  // query cleans every shard, merges the shard samples, and re-aggregates
  // the gathered stale view. Warm = a repeat on an unchanged cut: the shard
  // caches hit, and the coordinator reuses the merged samples and the
  // exact stale answers. Report-only: the memo hit/miss counters in
  // tests/test_sharded_engine.cc are the deterministic guarantee.
  struct GroupedCorrBench {
    int shards = 4;
    double cold_ms = 0;
    double warm_ms = 0;
    size_t groups = 0;
    double speedup() const { return cold_ms / warm_ms; }
  } grouped_corr;
  {
    const int64_t gc_rows = std::min<int64_t>(rows, 20000);
    const Database base = MakeDb(gc_rows);
    Rng rng(29);
    const int64_t dims = std::max<int64_t>(gc_rows / 16, 1);
    std::vector<Row> deltas;
    for (int64_t i = 0; i < gc_rows / 20; ++i) {
      deltas.push_back({Value::Int(gc_rows + i),
                        Value::Int(rng.UniformInt(0, dims - 1)),
                        Value::Double(rng.Uniform(0, 100))});
    }
    ShardedEngine warm(Database(), grouped_corr.shards);
    ShardedEngine cold(Database(), grouped_corr.shards);
    cold.set_sample_cache_enabled(false);
    for (ShardedEngine* e : {&warm, &cold}) {
      Status st = e->CreateTable("fact", **base.GetTable("fact"));
      if (st.ok()) {
        st = e->CreateView(
            "factView",
            PlanNode::Select(PlanNode::Scan("fact"),
                             Expr::Gt(Expr::Col("val"), Expr::LitDouble(-1))));
      }
      if (st.ok()) st = e->InsertRows("fact", deltas);
      if (!st.ok()) {
        std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
        return 2;
      }
    }
    AggregateQuery q = AggregateQuery::Sum(Expr::Col("val"));
    SvcQueryOptions qopts;
    qopts.ratio = 0.1;
    auto run_grouped = [&](const ShardedEngine& e,
                           const ShardedSnapshot& snap) -> size_t {
      auto r = e.QueryGrouped(snap, "factView", {"key"}, q, qopts);
      if (!r.ok()) {
        std::fprintf(stderr, "[micro_ops] grouped CORR failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(2);
      }
      return r->result.group_keys.size();
    };
    const auto warm_snap = warm.Snapshot();
    const auto cold_snap = cold.Snapshot();
    size_t cold_groups = 0, warm_groups = 0;
    grouped_corr.cold_ms = TimeMs(
        reps, [&] { return run_grouped(cold, *cold_snap); }, &cold_groups);
    grouped_corr.warm_ms = TimeMs(
        reps, [&] { return run_grouped(warm, *warm_snap); }, &warm_groups);
    if (cold_groups != warm_groups) {
      std::fprintf(stderr,
                   "[micro_ops] sharded_grouped_corr: cold answered %zu "
                   "groups, warm %zu\n",
                   cold_groups, warm_groups);
      return 2;
    }
    grouped_corr.groups = warm_groups;
    std::printf("%-16s cold %8.3f ms   warm %8.3f ms   speedup %7.1fx   "
                "(%d shards, %zu groups)\n",
                "grouped_corr", grouped_corr.cold_ms, grouped_corr.warm_ms,
                grouped_corr.speedup(), grouped_corr.shards,
                grouped_corr.groups);
  }

  // -- Sharded scatter-gather query: unsharded vs 4-way fan-out ---------------
  // The same cold SVC query (sample caches off, so every run pays the full
  // cleaning pipeline) served by one engine vs a 4-shard ShardedEngine:
  // the query scatters to per-shard snapshots on the pool, per-shard
  // samples are merged in canonical order, and the stock estimator runs
  // once at the coordinator. The answer is bit-identical to the unsharded
  // engine's (cross-checked below); the block is report-only because the
  // fan-out win is bounded by the physical core count (docs/PERF.md).
  struct ShardedBench {
    int shards = 0;
    double unsharded_ms = 0;
    double sharded_ms = 0;
    size_t sample_rows = 0;
    double speedup() const { return unsharded_ms / sharded_ms; }
  } sharded_bench;
  {
    const int64_t sh_rows = std::min<int64_t>(rows, 20000);
    constexpr int kShards = 4;
    sharded_bench.shards = kShards;
    // SPJ view keyed by the fact PK (id): one view row per base row, so
    // ratio x rows sample sizes, and the view's natural order is already
    // the canonical encoded-key order the gather path produces.
    auto view_def = [] {
      return PlanNode::Select(PlanNode::Scan("fact"),
                              Expr::Gt(Expr::Col("val"), Expr::LitDouble(-1)));
    };
    // One delta workload, applied identically to both engines.
    Rng rng(23);
    const int64_t dims = std::max<int64_t>(sh_rows / 16, 1);
    std::vector<Row> deltas;
    for (int64_t i = 0; i < sh_rows / 20; ++i) {
      deltas.push_back({Value::Int(sh_rows + i),
                        Value::Int(rng.UniformInt(0, dims - 1)),
                        Value::Double(rng.Uniform(0, 100))});
    }
    Database base = MakeDb(sh_rows);

    SvcEngine flat{Database(base)};
    flat.set_sample_cache_enabled(false);
    if (auto st = flat.CreateView("factView", view_def()); !st.ok()) {
      std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
      return 2;
    }
    for (const Row& r : deltas) {
      if (auto st = flat.InsertRecord("fact", r); !st.ok()) {
        std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
        return 2;
      }
    }

    ShardedEngine sharded(Database(), kShards);
    sharded.set_sample_cache_enabled(false);
    if (auto st = sharded.CreateTable("fact", **base.GetTable("fact"));
        !st.ok()) {
      std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
      return 2;
    }
    if (auto st = sharded.CreateView("factView", view_def()); !st.ok()) {
      std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
      return 2;
    }
    if (auto st = sharded.InsertRows("fact", deltas); !st.ok()) {
      std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
      return 2;
    }

    AggregateQuery q = AggregateQuery::Sum(Expr::Col("val"));
    SvcQueryOptions qopts;
    qopts.ratio = 0.1;
    const auto snap = sharded.Snapshot();
    auto query_flat = [&]() -> Result<SvcAnswer> {
      return flat.Query("factView", q, qopts);
    };
    auto query_sharded = [&]() -> Result<SvcAnswer> {
      return sharded.Query(*snap, "factView", q, qopts);
    };
    auto rows_of = [](const Result<SvcAnswer>& r) -> size_t {
      if (!r.ok()) {
        std::fprintf(stderr, "[micro_ops] sharded_query failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(2);
      }
      return r->estimate.sample_rows;
    };
    size_t flat_rows = 0, sharded_rows = 0;
    sharded_bench.unsharded_ms =
        TimeMs(reps, [&] { return rows_of(query_flat()); }, &flat_rows);
    sharded_bench.sharded_ms =
        TimeMs(reps, [&] { return rows_of(query_sharded()); }, &sharded_rows);
    sharded_bench.sample_rows = sharded_rows;
    const double flat_val = query_flat()->estimate.value;
    const double sharded_val = query_sharded()->estimate.value;
    if (flat_rows != sharded_rows ||
        std::memcmp(&flat_val, &sharded_val, sizeof flat_val) != 0) {
      std::fprintf(stderr,
                   "[micro_ops] sharded_query: answers diverged "
                   "(unsharded %.17g on %zu sample rows, sharded %.17g on "
                   "%zu)\n",
                   flat_val, flat_rows, sharded_val, sharded_rows);
      return 2;
    }
    std::printf("-- sharded scatter-gather query (%d shards, cold clean) --\n",
                kShards);
    std::printf("%-16s unsharded %8.3f ms   sharded %8.3f ms   "
                "speedup %5.2fx   (%zu sample rows)\n",
                "sharded_query", sharded_bench.unsharded_ms,
                sharded_bench.sharded_ms, sharded_bench.speedup(),
                sharded_bench.sample_rows);
  }

  // -- Durable commit latency per WAL fsync policy ---------------------------
  // One-row logged commits through a DurableEngine in a scratch directory.
  // The spread between off / every=N / always is the price of the
  // durability guarantee (documented in docs/PERF.md); there is no gate
  // because the absolute numbers are storage-hardware-bound.
  constexpr int kWalCommits = 64;
  std::vector<std::pair<std::string, double>> wal_commit_us;
  {
    std::printf("-- durable commit latency (WAL fsync policy) --\n");
    for (const char* spec : {"off", "every=8", "always"}) {
      char tmpl[] = "/tmp/svc_wal_bench_XXXXXX";
      if (mkdtemp(tmpl) == nullptr) {
        std::fprintf(stderr, "[micro_ops] mkdtemp failed\n");
        return 2;
      }
      const std::string dir = tmpl;
      {
        DurableOptions dopts;
        dopts.data_dir = dir;
        dopts.wal = ParseFsyncSpec(spec).value();
        auto opened = DurableEngine::Open(dopts);
        if (!opened.ok()) {
          std::fprintf(stderr, "[micro_ops] %s\n",
                       opened.status().ToString().c_str());
          return 2;
        }
        std::shared_ptr<DurableEngine> engine = std::move(opened).value();
        Table t(Schema({{"", "id", ValueType::kInt},
                        {"", "val", ValueType::kDouble}}));
        (void)t.SetPrimaryKey({"id"});
        int64_t next_id = 0;
        auto commit = [&] {
          return engine->InsertRecord(
              "wal_fact", {Value::Int(next_id++), Value::Double(1.0)});
        };
        // Table creation (and the first append's file growth) stays out of
        // the timed loop.
        if (auto st = engine->CreateTable("wal_fact", std::move(t));
            !st.ok()) {
          std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
          return 2;
        }
        if (auto st = commit(); !st.ok()) {
          std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
          return 2;
        }
        Stopwatch sw;
        for (int i = 0; i < kWalCommits; ++i) {
          if (auto st = commit(); !st.ok()) {
            std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
            return 2;
          }
        }
        const double us = sw.ElapsedMillis() * 1e3 / kWalCommits;
        wal_commit_us.push_back({spec, us});
        std::printf("fsync=%-8s commit %8.2f us   (%d commits)\n", spec, us,
                    kWalCommits);
      }
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

  std::vector<IngestCurve> ingest_curves;
  {
    std::printf("-- SQL ingest: one-row INSERT cost vs queue depth --\n");
    char tmpl[] = "/tmp/svc_ingest_bench_XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "[micro_ops] mkdtemp failed\n");
      return 2;
    }
    for (const char* mode : {"private", "shared", "durable", "sharded"}) {
      ingest_curves.push_back(
          MeasureIngestCurve(mode, std::string(tmpl) + "/" + mode));
      const IngestCurve& c = ingest_curves.back();
      std::printf("%-8s 1k %8.1f us   4k %8.1f us   16k %8.1f us   "
                  "16k/1k %5.2fx   %zu-row INSERT %6.2f us/row\n",
                  mode, c.stmt_us[0], c.stmt_us[1], c.stmt_us[2], c.ratio(),
                  kIngestBatch, c.batch_us_per_row);
    }
    std::error_code ec;
    std::filesystem::remove_all(tmpl, ec);
  }
  double worst_ingest_ratio = 0.0;
  for (const auto& c : ingest_curves) {
    worst_ingest_ratio = std::max(worst_ingest_ratio, c.ratio());
  }
  const bool ingest_pass =
      max_ingest_ratio <= 0.0 || worst_ingest_ratio <= max_ingest_ratio;

  // JSON report.
  const BenchResult* gate = nullptr;
  for (const auto& r : results) {
    if (r.name == "join_aggregate") gate = &r;
  }
  const ParResult* par_gate = nullptr;
  for (const auto& r : par_results) {
    if (r.name == "join_aggregate") par_gate = &r;
  }
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"generated_by\": \"bench/micro_ops\",\n");
  std::fprintf(f, "  \"rows\": %lld,\n  \"reps\": %d,\n",
               static_cast<long long>(rows), reps);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"baseline_ms\": %.3f, "
                 "\"current_ms\": %.3f, \"speedup\": %.2f, "
                 "\"input_rows_per_s\": %.0f, \"out_rows\": %zu}%s\n",
                 r.name.c_str(), r.baseline_ms, r.current_ms, r.speedup(),
                 static_cast<double>(rows) / (r.current_ms / 1e3),
                 r.out_rows, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"parallel\": {\n    \"threads\": %d,\n", threads);
  std::fprintf(f, "    \"benchmarks\": [\n");
  for (size_t i = 0; i < par_results.size(); ++i) {
    const auto& r = par_results[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"threads1_ms\": %.3f, "
                 "\"threadsN_ms\": %.3f, \"speedup\": %.2f, "
                 "\"out_rows\": %zu}%s\n",
                 r.name.c_str(), r.t1_ms, r.tn_ms, r.speedup(), r.out_rows,
                 i + 1 < par_results.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f,
               "    \"gate\": {\"name\": \"join_aggregate\", "
               "\"min_speedup\": %.2f, \"speedup\": %.2f, \"pass\": %s}\n"
               "  },\n",
               min_parallel_speedup, par_gate ? par_gate->speedup() : 0.0,
               (par_gate && (min_parallel_speedup <= 0.0 ||
                             par_gate->speedup() >= min_parallel_speedup))
                   ? "true"
                   : "false");
  std::fprintf(f, "  \"query_cache\": {\n");
  std::fprintf(f,
               "    \"cold_ms\": %.3f, \"warm_ms\": %.3f,\n",
               cache_bench.cold_ms, cache_bench.warm_ms);
  std::fprintf(f,
               "    \"sharded_grouped_corr\": {\"shards\": %d, "
               "\"cold_ms\": %.3f, \"warm_ms\": %.3f, \"speedup\": %.2f, "
               "\"groups\": %zu},\n",
               grouped_corr.shards, grouped_corr.cold_ms, grouped_corr.warm_ms,
               grouped_corr.speedup(), grouped_corr.groups);
  std::fprintf(f,
               "    \"gate\": {\"name\": \"svc_query_warm_vs_cold\", "
               "\"min_speedup\": %.2f, \"speedup\": %.2f, \"pass\": %s}\n"
               "  },\n",
               min_cache_speedup, cache_bench.speedup(),
               (min_cache_speedup <= 0.0 ||
                cache_bench.speedup() >= min_cache_speedup)
                   ? "true"
                   : "false");
  std::fprintf(f, "  \"sharded_query\": {\n");
  std::fprintf(f,
               "    \"shards\": %d, \"unsharded_ms\": %.3f, "
               "\"sharded_ms\": %.3f, \"speedup\": %.2f,\n",
               sharded_bench.shards, sharded_bench.unsharded_ms,
               sharded_bench.sharded_ms, sharded_bench.speedup());
  std::fprintf(f,
               "    \"sample_rows\": %zu, \"answer_bit_identical\": true\n"
               "  },\n",
               sharded_bench.sample_rows);
  std::fprintf(f, "  \"sql_ingest\": {\n    \"depths\": [%zu, %zu, %zu],\n",
               kIngestDepths[0], kIngestDepths[1], kIngestDepths[2]);
  std::fprintf(f, "    \"modes\": [\n");
  for (size_t i = 0; i < ingest_curves.size(); ++i) {
    const IngestCurve& c = ingest_curves[i];
    std::fprintf(f,
                 "      {\"mode\": \"%s\", \"stmt_us\": [%.1f, %.1f, %.1f], "
                 "\"ratio\": %.2f, \"batch_us_per_row\": %.2f}%s\n",
                 c.mode.c_str(), c.stmt_us[0], c.stmt_us[1], c.stmt_us[2],
                 c.ratio(), c.batch_us_per_row,
                 i + 1 < ingest_curves.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f,
               "    \"gate\": {\"name\": \"sql_ingest_depth_ratio\", "
               "\"max_ratio\": %.2f, \"ratio\": %.2f, \"pass\": %s}\n"
               "  },\n",
               max_ingest_ratio, worst_ingest_ratio,
               ingest_pass ? "true" : "false");
  std::fprintf(f, "  \"wal_commit\": {\n    \"commits\": %d,\n", kWalCommits);
  std::fprintf(f, "    \"policies\": [\n");
  for (size_t i = 0; i < wal_commit_us.size(); ++i) {
    std::fprintf(f, "      {\"fsync\": \"%s\", \"commit_us\": %.2f}%s\n",
                 wal_commit_us[i].first.c_str(), wal_commit_us[i].second,
                 i + 1 < wal_commit_us.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f,
               "  \"gate\": {\"name\": \"join_aggregate\", \"min_speedup\": "
               "%.2f, \"speedup\": %.2f, \"pass\": %s}\n}\n",
               min_speedup, gate ? gate->speedup() : 0.0,
               (gate && (min_speedup <= 0.0 || gate->speedup() >= min_speedup))
                   ? "true"
                   : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  bool fail = false;
  if (min_speedup > 0.0 && (!gate || gate->speedup() < min_speedup)) {
    std::fprintf(stderr,
                 "[micro_ops] REGRESSION: join_aggregate speedup %.2fx is "
                 "below the %.2fx floor\n",
                 gate ? gate->speedup() : 0.0, min_speedup);
    fail = true;
  }
  if (min_parallel_speedup > 0.0 &&
      (!par_gate || par_gate->speedup() < min_parallel_speedup)) {
    std::fprintf(stderr,
                 "[micro_ops] REGRESSION: join_aggregate parallel speedup "
                 "%.2fx at %d threads is below the %.2fx floor\n",
                 par_gate ? par_gate->speedup() : 0.0, threads,
                 min_parallel_speedup);
    fail = true;
  }
  if (min_cache_speedup > 0.0 &&
      cache_bench.speedup() < min_cache_speedup) {
    std::fprintf(stderr,
                 "[micro_ops] REGRESSION: warm repeated SVC query is only "
                 "%.1fx faster than cold (floor %.1fx)\n",
                 cache_bench.speedup(), min_cache_speedup);
    fail = true;
  }
  if (!ingest_pass) {
    std::fprintf(stderr,
                 "[micro_ops] REGRESSION: one-row INSERT at depth 16k costs "
                 "%.2fx its cost at 1k (ceiling %.2fx)\n",
                 worst_ingest_ratio, max_ingest_ratio);
    fail = true;
  }
  return fail ? 1 : 0;
}
