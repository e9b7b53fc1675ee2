// End-to-end benchmark of the SVC engine: two workloads driven through
// the public entry point SqlSession (and, in the traced run, SvcClient/
// SvcServer), answers checked, every end-to-end metric printed by name with
// its unit, and a separate traced run (--trace 1) that attributes time to
// the layers.
//
//   svcbench --workload ingest_backlog|refresh_cycle
//            --seed N --seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]
//
// The last line of standard output is one JSON object (see run.py and
// README.md). Workloads are described in README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator_merge.h"
#include "core/sharded_engine.h"
#include "harness.h"
#include "relational/executor.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "storage/durable_engine.h"
#include "storage/ops.h"
#include "storage/wal.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace svc;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_out = ".bench_build/trace.jsonl";
};

/// The end-to-end metrics and their units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"svc_p50_ms", "ms"},
    {"svc_tail_ms", "ms"},
    {"select_p50_ms", "ms"},
    {"select_tail_ms", "ms"},
    {"insert_p50_ms", "ms"},
    {"insert_tail_ms", "ms"},
    {"refresh_p50_ms", "ms"},
    {"ingest_rows_per_s", "rows/s"},
    {"max_rate_rps", "req/s"},
    {"svc_rel_error_median", "ratio"},
    {"ci_coverage", "ratio"},
    {"peak_rss_mb", "MB"},
};

// ---- Deployment parameters (stated in README.md) ---------------------------

constexpr size_t kLogRows = 50000;     // video log base rows
constexpr int kServerWorkers = 4;      // SvcServer worker threads (traced run)
constexpr uint64_t kIngestCheckpointEvery = 100;
constexpr int kShards = 4;
constexpr size_t kRefreshDepth = 8000;  // ingest_backlog REFRESH trigger
constexpr int kVideoSetups = 15;  // set-ups per run; setup_s = median
constexpr int kTpcdSetups = 3;

// Tail percentile per workload and kind, fixed at the highest of p99 / p95 /
// p90 / p75 that keeps at least ten samples beyond it in every run (the
// sample counts are printed).
struct Tails {
  double svc, select, write;
};
const std::map<std::string, Tails> kTails = {
    {"ingest_backlog", {95, 95, 99}},
    {"refresh_cycle", {95, 95, 90}},
};

// ---- Shared pieces ---------------------------------------------------------

/// Executes `sql` on `ex` and records success/failure in the report.
Result<SqlResult> Run(SqlExecutor* ex, const std::string& sql, Report* rep) {
  auto r = ex->Execute(sql);
  if (!r.ok()) rep->Fail(sql.substr(0, 80) + ": " + r.status().ToString());
  return r;
}

/// Checks one result: OK status, estimates inside their CIs.
bool CheckResult(const Op& op, const Result<SqlResult>& r, Report* rep,
                 std::vector<EstRow>* est) {
  if (!r.ok()) {
    rep->Fail(op.sql.substr(0, 80) + ": " + r.status().ToString());
    return false;
  }
  if (op.kind == Kind::kSvc) {
    *est = Estimates(*r);
    std::string why;
    if (est->empty()) {
      rep->Fail("no estimate rows: " + op.sql.substr(0, 80));
      return false;
    }
    if (!EstimatesConsistent(*est, &why)) {
      rep->Fail(why + ": " + op.sql.substr(0, 80));
      return false;
    }
  }
  return true;
}

/// The committed rows "DELETE FROM t WHERE ..." removes: those "SELECT *
/// FROM t WHERE ..." selects over the committed base table.
Result<std::vector<Row>> DeletedRows(const Database& db, const std::string& sql) {
  const std::string select = "SELECT * FROM " + sql.substr(std::strlen("DELETE FROM "));
  SVC_ASSIGN_OR_RETURN(PlanPtr plan, SqlToPlan(select, db));
  SVC_ASSIGN_OR_RETURN(Table rows, ExecutePlan(*plan, db));
  return rows.rows();
}

/// Applies one recorded write to a private engine through the engine API:
/// INSERT rows and the committed rows a DELETE's WHERE selects become one
/// delta batch each; REFRESH is MaintainAll.
Status ApplyToReplica(SvcEngine* e, const std::string& sql) {
  auto st = ParseStatement(sql);
  if (!st.ok()) return st.status();
  const Database& db = std::as_const(*e).db();
  DeltaSet d;
  switch (st->kind) {
    case Statement::Kind::kRefresh:
      return e->MaintainAll();
    case Statement::Kind::kInsert:
      for (const Row& r : st->values) {
        SVC_RETURN_IF_ERROR(d.AddInsert(db, st->target, r));
      }
      break;
    case Statement::Kind::kDelete: {
      SVC_ASSIGN_OR_RETURN(std::vector<Row> rows, DeletedRows(db, sql));
      for (const Row& r : rows) SVC_RETURN_IF_ERROR(d.AddDelete(db, st->target, r));
      break;
    }
    default:
      return Status::InvalidArgument("not a write: " + sql.substr(0, 60));
  }
  return e->IngestDeltas(std::move(d));
}

/// Checks each view against a replica: a private SvcEngine over the same
/// base data fed the same writes through the engine API.
void CheckAgainstReplica(Database base, const std::vector<std::string>& ddl,
                         const std::vector<std::string>& writes,
                         const std::vector<std::string>& views,
                         const std::function<Result<Table>(const std::string&)>&
                             actual,
                         Report* rep) {
  const double t0 = Now();
  SvcEngine replica(std::move(base));
  for (const auto& sql : ddl) {
    auto st = ParseStatement(sql);
    if (!st.ok() || !st->select) return rep->Fail("replica ddl: " + sql.substr(0, 60));
    auto plan = PlanSelect(*st->select, std::as_const(replica).db());
    Status s = plan.ok() ? replica.CreateView(st->target, *plan, st->sampling_key)
                         : plan.status();
    if (!s.ok()) return rep->Fail("replica view: " + s.ToString());
  }
  for (const auto& sql : writes) {
    Status s = ApplyToReplica(&replica, sql);
    if (!s.ok()) return rep->Fail("replica write: " + s.ToString());
  }
  for (const auto& v : views) {
    auto want = std::as_const(replica).db().GetTable(v);
    auto got = actual(v);
    std::string why;
    if (!want.ok() || !got.ok()) {
      rep->Fail("view " + v + " missing in replica comparison");
    } else if (!SameRows(**want, *got, &why)) {
      rep->Fail("view " + v + " differs from the replica: " + why);
    } else {
      rep->Note("check: view " + v + " equals the replica (" +
                std::to_string((*got).NumRows()) + " rows)");
    }
  }
  rep->Note("replica replayed " + std::to_string(writes.size()) +
            " writes in " + std::to_string(Now() - t0) + " s");
}

/// Exact answer of a WITH SVC statement on the fresh state of `e`.
Result<std::vector<EstRow>> TruthOf(const SvcEngine& e, const std::string& sql) {
  SVC_ASSIGN_OR_RETURN(Lowered l, Lower(sql));
  SVC_ASSIGN_OR_RETURN(Table fresh, e.ComputeFreshView(l.view));
  return Exact(fresh, l);
}

void AddAccuracy(const Accuracy& acc, Report* rep) {
  rep->Add("svc_rel_error_median", "ratio", Median(acc.rel));
  rep->Add("ci_coverage", "ratio",
           acc.total ? static_cast<double>(acc.covered) / acc.total : 0.0);
  rep->Note("accuracy: " + std::to_string(acc.total) +
            " estimates compared with the fresh truth");
}

// ---- Durable video-log deployment (ingest_backlog) -------------------------

struct DurableRig {
  std::string dir;
  std::shared_ptr<DurableEngine> dur;
  DurableRig() = default;
  DurableRig(const DurableRig&) = delete;
  DurableRig& operator=(const DurableRig&) = delete;
  ~DurableRig() {
    dur.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

const std::vector<std::string> kVideoDdl = {kVisitViewSql, kLogViewSql};

/// Opens a fresh data dir, loads the base tables and creates the views.
/// Returns null after recording a failure.
std::unique_ptr<DurableRig> SetupVideo(const std::string& dir, uint64_t seed,
                                       Report* rep) {
  auto rig = std::make_unique<DurableRig>();
  rig->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  DurableOptions o;
  o.data_dir = dir;
  o.wal.policy = FsyncPolicy::kOff;
  o.checkpoint_every = kIngestCheckpointEvery;
  auto dur = DurableEngine::Open(o);
  if (!dur.ok()) {
    rep->Fail("open data dir: " + dur.status().ToString());
    return nullptr;
  }
  rig->dur = *dur;
  Database db = VideoDb(kLogRows, seed);
  for (const char* t : {"Video", "Log"}) {
    Status s = rig->dur->CreateTable(t, **db.GetTable(t));
    if (!s.ok()) {
      rep->Fail("create table: " + s.ToString());
      return nullptr;
    }
  }
  SqlSession admin(EngineHandle::Durable(rig->dur));
  for (const auto& s : kVideoDdl) {
    if (!Run(&admin, s, rep).ok()) return nullptr;
  }
  return rig;
}

/// Sets up `n` times (each from scratch), reports the median set-up time
/// and keeps the last rig.
template <typename Rig, typename Fn>
std::unique_ptr<Rig> SetupRepeated(int n, Fn&& setup, Report* rep) {
  std::vector<double> times;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < n; ++i) {
    rig.reset();
    double t0 = Now();
    rig = setup(i);
    times.push_back(Now() - t0);
    if (!rig) return nullptr;
  }
  rep->Add("setup_s", "s", Median(times));
  return rig;
}

// ---- ingest_backlog --------------------------------------------------------

/// The ingest_backlog statement stream, deterministic in the seed: every
/// 8th statement a WITH SVC query, every 8th (offset 4) a lookup, the rest
/// writes; REFRESH once kRefreshDepth rows are pending. Deletes remove about
/// as many committed rows as the inserts add, so the log (and every
/// statement's cost) stays level however far a run gets.
class IngestStream {
 public:
  explicit IngestStream(uint64_t seed)
      : writer_(kLogRows, seed ^ 0x1a6e57), rng_(seed * 31 + 7) {}

  Op Next() {
    ++n_;
    if (pending_ >= kRefreshDepth) {
      pending_ = 0;
      writer_.Committed();
      return RefreshOp();
    }
    if (n_ % 8 == 0) {
      Op op = FromTemplate(kVideoTemplates, static_cast<int>((n_ / 8) % kNumVideoSvc), &rng_);
      op.probe = true;
      return op;
    }
    if (n_ % 8 == 4) {
      return FromTemplate(kVideoTemplates,
                          rng_.UniformInt(kNumVideoSvc, kNumVideoTemplates - 1), &rng_);
    }
    const double u = rng_.NextDouble();
    Op op;
    if (u < 0.45) {
      op = writer_.Insert(1);
    } else if (u < 0.70) {
      op = writer_.Insert(static_cast<size_t>(rng_.UniformInt(10, 200)));
    } else if (u < 0.75) {
      op = writer_.Insert(static_cast<size_t>(rng_.UniformInt(1000, 2000)));
    } else {
      // Pay back the rows inserted since the last delete, 1..500 at a time.
      op = writer_.Delete(std::clamp<size_t>(debt_, 1, 500));
      debt_ -= std::min(debt_, op.rows);
      pending_ += op.rows;
      return op;
    }
    debt_ += op.rows;
    pending_ += op.rows;
    return op;
  }

 private:
  LogWriter writer_;
  svc::Rng rng_;
  uint64_t n_ = 0;
  size_t pending_ = 0;
  size_t debt_ = 0;
};

void IngestBacklog(const Args& a, Report* rep) {
  auto rig = SetupRepeated<DurableRig>(
      kVideoSetups,
      [&](int i) {
        return SetupVideo(a.work_dir + "/ingest-" + std::to_string(i), a.seed, rep);
      },
      rep);
  if (!rig) return;
  SqlSession session(EngineHandle::Durable(rig->dur));
  IngestStream stream(a.seed);
  DiskMeter disk(rig->dir);
  disk.Observe();
  const uint64_t disk0 = disk.Total();
  Latencies lat;
  std::vector<std::string> writes;
  Accuracy acc;
  double write_rows = 0, write_time = 0, user_bytes = 0, busy = 0;
  double truth_s = 0;
  size_t ops = 0, probes = 0;
  bool last_was_refresh = false;
  while (busy < a.seconds || !last_was_refresh) {
    // Past the time budget, drain to a REFRESH so the run ends on a
    // maintenance commit.
    Op op = busy < a.seconds ? stream.Next() : RefreshOp();
    const double t0 = Now();
    auto r = session.Execute(op.sql);
    const double dt = Now() - t0;
    busy += dt;
    ++ops;
    rep->CountOp(r.ok());
    std::vector<EstRow> est;
    if (!CheckResult(op, r, rep, &est)) {
      if (busy >= a.seconds) break;  // a failing drain must not loop
      continue;
    }
    lat.Add(op.kind, dt);
    last_was_refresh = op.kind == Kind::kRefresh;
    if (op.kind == Kind::kWrite || op.kind == Kind::kRefresh) {
      writes.push_back(op.sql);
      disk.Observe();
    }
    if (op.kind == Kind::kWrite) {
      write_rows += op.rows;
      write_time += dt;
      user_bytes += op.user_bytes;
    }
    if (op.probe && ++probes % 2 == 1) {
      // The fresh truth on the state the query saw (one writer, so the
      // head is that state), outside the measured time; every 2nd probe
      // keeps the cost of the truth below that of the run.
      const double t_truth = Now();
      auto t = TruthOf(rig->dur->shared()->Snapshot()->engine, op.sql);
      if (!t.ok()) {
        rep->Fail("truth: " + t.status().ToString());
      } else {
        acc.Add(est, *t);
      }
      truth_s += Now() - t_truth;
    }
  }
  const double wall = busy;
  rep->Note("truth computed in " + std::to_string(truth_s) + " s");

  CheckAgainstReplica(
      VideoDb(kLogRows, a.seed), kVideoDdl, writes, kVideoViews,
      [&](const std::string& v) -> Result<Table> {
        auto t = rig->dur->shared()->Snapshot()->engine.db().GetTable(v);
        if (!t.ok()) return t.status();
        return **t;
      },
      rep);

  const Tails& tails = kTails.at("ingest_backlog");
  AddLatencyMetrics(rep, lat, Kind::kSvc, tails.svc);
  AddLatencyMetrics(rep, lat, Kind::kSelect, tails.select);
  AddLatencyMetrics(rep, lat, Kind::kWrite, tails.write);
  AddLatencyMetrics(rep, lat, Kind::kRefresh, 50);
  rep->Add("ingest_rows_per_s", "rows/s", write_time > 0 ? write_rows / write_time : 0);
  rep->Add("max_rate_rps", "req/s", ops / wall);
  AddAccuracy(acc, rep);
  rep->Add("op_failure_ratio", "ratio",
           rep->attempted() ? static_cast<double>(rep->failed()) / rep->attempted() : 0);
  rep->Add("disk_bytes_per_user_byte", "ratio",
           user_bytes > 0 ? (disk.Total() - disk0) / user_bytes : 0);
  rep->Add("peak_rss_mb", "MB", PeakRssMb());
}

// ---- refresh_cycle ---------------------------------------------------------

const std::vector<std::string> kTpcdDdl = {kLineordersSql, kOrderRevenueSql};

struct ShardedRig {
  std::shared_ptr<ShardedEngine> engine;
  std::unique_ptr<SqlSession> session;
};

std::unique_ptr<ShardedRig> SetupTpcd(uint64_t seed, Report* rep) {
  auto db = GenerateTpcdDatabase(TpcdConfigFor(seed));
  if (!db.ok()) {
    rep->Fail("tpcd: " + db.status().ToString());
    return nullptr;
  }
  auto rig = std::make_unique<ShardedRig>();
  rig->engine = std::make_shared<ShardedEngine>(std::move(*db), kShards);
  rig->session = std::make_unique<SqlSession>(EngineHandle::Sharded(rig->engine));
  for (const auto& s : kTpcdDdl) {
    if (!Run(rig->session.get(), s, rep).ok()) return nullptr;
  }
  return rig;
}

/// One refresh cycle's statements: the update batch, the 13 queries cold
/// (first pass, probes) then as cache hits, each pass followed by 20 point
/// lookups, and REFRESH.
std::vector<Op> TpcdCycle(TpcdWriter* w) {
  std::vector<Op> ops;
  w->Cycle(&ops);
  const auto queries = TpcdQueries();
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& q : queries) {
      Op op;
      op.kind = Kind::kSvc;
      op.sql = q;
      op.probe = pass == 0;
      ops.push_back(op);
    }
    for (int i = 0; i < 20; ++i) ops.push_back(w->Lookup());
  }
  ops.push_back(RefreshOp());
  return ops;
}

/// The fresh contents of a partitioned view: every shard's fresh slice,
/// merged in canonical order.
Result<Table> ShardedFresh(const ShardedSnapshot& snap, const std::string& view) {
  std::vector<std::shared_ptr<const Table>> parts;
  for (const auto& s : snap.shards) {
    auto t = s->engine.ComputeFreshView(view);
    if (!t.ok()) return t.status();
    parts.push_back(std::make_shared<const Table>(std::move(*t)));
  }
  return MergeShardTables(parts);
}

void RefreshCycle(const Args& a, Report* rep) {
  auto rig = SetupRepeated<ShardedRig>(kTpcdSetups, [&](int) { return SetupTpcd(a.seed, rep); }, rep);
  if (!rig) return;
  auto gen = GenerateTpcdDatabase(TpcdConfigFor(a.seed));
  if (!gen.ok()) return rep->Fail("tpcd: " + gen.status().ToString());
  Database base = std::move(*gen);
  TpcdWriter writer(base, TpcdConfigFor(a.seed), a.seed ^ 0x7cd);
  Latencies lat;
  std::vector<std::string> writes;
  Accuracy acc;
  double write_rows = 0, write_time = 0, busy = 0;
  size_t ops = 0;
  for (int cycle = 0; busy < a.seconds; ++cycle) {
    const double cycle_start = Now();
    ShardedSnapshotPtr probe_snap;
    std::vector<std::pair<std::string, std::vector<EstRow>>> probes;
    for (const Op& op : TpcdCycle(&writer)) {
      const double t0 = Now();
      auto r = rig->session->Execute(op.sql);
      const double dt = Now() - t0;
      ++ops;
      rep->CountOp(r.ok());
      std::vector<EstRow> est;
      if (!CheckResult(op, r, rep, &est)) continue;
      lat.Add(op.kind, dt);
      if (op.kind == Kind::kWrite || op.kind == Kind::kRefresh) writes.push_back(op.sql);
      if (op.kind == Kind::kWrite) {
        write_rows += op.rows;
        write_time += dt;
      }
      if (op.probe && cycle % 2 == 0) {
        if (!probe_snap) probe_snap = rig->engine->Snapshot();
        probes.emplace_back(op.sql, std::move(est));
      }
    }
    busy += Now() - cycle_start;
    // The fresh truth of this cycle's probes (no write ran between them),
    // outside the measured time; every other cycle keeps its cost below
    // that of the run.
    std::map<std::string, Table> fresh;
    for (const auto& p : probes) {
      auto l = Lower(p.first);
      if (!l.ok()) {
        rep->Fail("lower: " + l.status().ToString());
        continue;
      }
      if (!fresh.count(l->view)) {
        auto t = ShardedFresh(*probe_snap, l->view);
        if (!t.ok()) {
          rep->Fail("truth: " + t.status().ToString());
          continue;
        }
        fresh.emplace(l->view, std::move(*t));
      }
      auto truth = Exact(fresh.at(l->view), *l);
      if (truth.ok()) acc.Add(p.second, *truth);
    }
  }
  const double wall = busy;

  CheckAgainstReplica(
      std::move(base), kTpcdDdl, writes, kTpcdViews,
      [&](const std::string& v) -> Result<Table> {
        auto t = rig->engine->GatherTable(*rig->engine->Snapshot(), v);
        if (!t.ok()) return t.status();
        return **t;
      },
      rep);

  const Tails& tails = kTails.at("refresh_cycle");
  AddLatencyMetrics(rep, lat, Kind::kSvc, tails.svc);
  AddLatencyMetrics(rep, lat, Kind::kSelect, tails.select);
  AddLatencyMetrics(rep, lat, Kind::kWrite, tails.write);
  AddLatencyMetrics(rep, lat, Kind::kRefresh, 50);
  rep->Add("ingest_rows_per_s", "rows/s", write_time > 0 ? write_rows / write_time : 0);
  rep->Add("max_rate_rps", "req/s", ops / wall);
  AddAccuracy(acc, rep);
  rep->Add("op_failure_ratio", "ratio",
           rep->attempted() ? static_cast<double>(rep->failed()) / rep->attempted() : 0);
  rep->Add("peak_rss_mb", "MB", PeakRssMb());
}

// ---- Traced run ------------------------------------------------------------
//
// Replays a prefix of the workload closed loop on one session twice, on
// fresh set-ups: untraced (the reference for bench.trace_overhead) and
// traced. Before each traced request the benchmark takes the snapshot the
// request will see and forks it; after the request it runs every layer
// probe on its own fork (forks carry the cleaned-sample cache, so probes
// see the request's cache state). Fork cost stays outside every span. The
// probes of a request are its layers; what they leave unexplained (or
// explain twice) is the request's residual.

/// The per-layer metrics and their units, in BENCHMARK.json order. A
/// layer that does not run in a workload reports 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"server.wire_self_ms", "ms"},
    {"server.encode_us", "us"},
    {"server.decode_us", "us"},
    {"server.response_bytes", "bytes"},
    {"server.requests", "count"},
    {"server.statements_parsed", "count"},
    {"server.overload_rejections", "count"},
    {"server.deadline_exceeded", "count"},
    {"server.client_retries", "count"},
    {"server.client_reconnects", "count"},
    {"sql.parse_us", "us"},
    {"sql.plan_us", "us"},
    {"sql.session_self_us", "us"},
    {"sql.insert_us_per_row.b1", "us"},
    {"sql.insert_us_per_row.le100", "us"},
    {"sql.insert_us_per_row.ge1000", "us"},
    {"core.commit_us", "us"},
    {"core.snapshot_us", "us"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.cache_advances", "count"},
    {"core.cache_full_cleans", "count"},
    {"core.estimate_us.corr_scalar", "us"},
    {"core.estimate_us.corr_grouped", "us"},
    {"core.estimate_us.aqp_scalar", "us"},
    {"core.estimate_us.aqp_grouped", "us"},
    {"core.sample_rows", "count"},
    {"core.sharded_fanout_us", "us"},
    {"core.sharded_insert_us", "us"},
    {"sample.clean_full_us", "us"},
    {"sample.clean_advance_us", "us"},
    {"sample.pushdown_at_scan", "count"},
    {"sample.pushdown_blocked", "count"},
    {"sample.rows_read_per_sample_row", "ratio"},
    {"view.maintain_us", "us"},
    {"view.maintain_plan_us", "us"},
    {"view.insert_record_us", "us"},
    {"view.pending_rows", "count"},
    {"view.depth_cost_ratio", "ratio"},
    {"relational.exec_us", "us"},
    {"relational.rows_in", "count"},
    {"relational.rows_out", "count"},
    {"storage.wal_append_us", "us"},
    {"storage.wal_bytes_per_commit", "bytes"},
    {"storage.checkpoint_us", "us"},
    {"storage.checkpoint_tables_encoded", "count"},
    {"storage.checkpoint_tables_reused", "count"},
    {"storage.disk_bytes_per_user_byte", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.trace_residual_share", "ratio"},
};

using Node = Tracer::Node;

size_t ScannedRows(const PlanNode& plan, const Database& db) {
  size_t n = 0;
  if (plan.kind() == PlanKind::kScan) {
    auto t = db.GetTable(plan.table_name());
    if (t.ok()) n += (*t)->NumRows();
  }
  for (const auto& c : plan.children()) n += ScannedRows(*c, db);
  return n;
}

void SampleExec(const PlanNode& plan, const Database& db, double seconds,
                size_t rows_out, Tracer* tr) {
  tr->Sample("relational.exec_us", seconds * 1e6);
  tr->Sample("relational.rows_in", static_cast<double>(ScannedRows(plan, db)));
  tr->Sample("relational.rows_out", static_cast<double>(rows_out));
}

/// Cleaning-plan probe (after a cache miss): push-down report and the
/// executor's work on the cleaning expression.
void ProbeCleaningPlan(const SvcEngine& base, const Lowered& l,
                       const CleanOptions& co, Tracer* tr) {
  SvcEngine fork(base);
  if (!fork.pending().Register(fork.db()).ok()) return;
  auto view = fork.GetView(l.view);
  if (!view.ok()) return;
  PushdownReport report;
  auto plan = BuildCleaningPlan(**view, fork.pending(), *fork.db(), co, &report);
  if (!plan.ok() || !*plan) return;
  std::optional<Result<Table>> out;
  const double t = TimeIt([&] { out.emplace(ExecutePlan(**plan, *fork.db())); });
  if (!out->ok()) return;
  const size_t rows_out = (**out).NumRows();
  SampleExec(**plan, *fork.db(), t, rows_out, tr);
  tr->Sample("sample.pushdown_at_scan", report.at_scan);
  tr->Sample("sample.pushdown_blocked", report.blocked);
  tr->Sample("sample.rows_read_per_sample_row",
             static_cast<double>(ScannedRows(**plan, *fork.db())) /
                 std::max<size_t>(1, rows_out));
}

/// Times the estimator of `l` on cached samples (CORR also reads the full
/// stale view) and records it by mode and shape, with the sample size.
double ProbeEstimate(const Table& stale, const CorrespondingSamples& cs,
                     const Lowered& l, Tracer* tr) {
  const bool corr = l.opts.mode == EstimatorMode::kCorr;
  const bool grouped = !l.group_by.empty();
  const auto& eo = l.opts.estimator;
  const double t = TimeIt([&] {
    if (grouped) {
      auto r = corr ? SvcCorrEstimateGrouped(stale, cs, l.group_by, l.q, eo)
                    : SvcAqpEstimateGrouped(cs, l.group_by, l.q, eo);
      (void)r;
    } else {
      auto r = corr ? SvcCorrEstimate(stale, cs, l.q, eo) : SvcAqpEstimate(cs, l.q, eo);
      (void)r;
    }
  });
  tr->Sample(std::string("core.estimate_us.") + (corr ? "corr" : "aqp") +
                 (grouped ? "_grouped" : "_scalar"),
             t * 1e6);
  tr->Sample("core.sample_rows", static_cast<double>(cs.fresh.NumRows()));
  return t;
}

/// Engine-side probes of one WITH SVC statement on forks of `base`:
/// parse, the engine-API query, cache lookup/cleaning and the estimator.
/// Returns the engine node (children: sample, estimate) and the parse time.
Node ProbeSvcEngine(const SvcEngine& base, const std::string& sql, Tracer* tr,
                    Report* rep, std::vector<EstRow>* engine_est,
                    double* parse_s) {
  *parse_s = TimeIt([&] { (void)ParseStatement(sql); });
  tr->Sample("sql.parse_us", *parse_s * 1e6);
  Node engine{"core", 0, {}};
  auto l = Lower(sql);
  if (!l.ok()) {
    rep->Fail("lower: " + l.status().ToString());
    return engine;
  }
  {
    SvcEngine fork(base);
    if (l->group_by.empty()) {
      std::optional<Result<SvcAnswer>> a;
      engine.seconds = TimeIt([&] { a.emplace(fork.Query(l->view, l->q, l->opts)); });
      if (a->ok()) *engine_est = FromAnswer(**a);
    } else {
      std::optional<Result<SvcGroupedAnswer>> a;
      engine.seconds = TimeIt(
          [&] { a.emplace(fork.QueryGrouped(l->view, l->group_by, l->q, l->opts)); });
      if (a->ok()) *engine_est = FromAnswer(**a, l->group_by.size());
    }
  }
  SvcEngine fork(base);
  CacheOutcome outcome = CacheOutcome::kHit;
  CleanOptions co(l->opts.ratio, l->opts.family, l->opts.exec);
  std::optional<Result<std::shared_ptr<const CorrespondingSamples>>> s;
  const double t_sample =
      TimeIt([&] { s.emplace(fork.CleanSampleCached(l->view, co, &outcome)); });
  auto stale = fork.db()->GetTable(l->view);
  if (!s->ok() || !stale.ok()) {
    rep->Fail("sample probe failed: " + sql.substr(0, 60));
    return engine;
  }
  const CorrespondingSamples& cs = ***s;
  const double t_est = ProbeEstimate(**stale, cs, *l, tr);
  if (outcome == CacheOutcome::kFullClean) {
    tr->Sample("sample.clean_full_us", t_sample * 1e6);
  } else if (outcome == CacheOutcome::kAdvance) {
    tr->Sample("sample.clean_advance_us", t_sample * 1e6);
  }
  if (outcome != CacheOutcome::kHit) ProbeCleaningPlan(base, *l, co, tr);
  engine.kids = {{"sample", t_sample, {}}, {"core.estimate", t_est, {}}};
  return engine;
}

/// Plain SELECT probes: parse, plan and execute against `db`.
Node ProbeSelect(const Database& db, const std::string& sql, Tracer* tr) {
  Node n{"sql", 0, {}};
  std::optional<Result<Statement>> st;
  const double t_parse = TimeIt([&] { st.emplace(ParseStatement(sql)); });
  tr->Sample("sql.parse_us", t_parse * 1e6);
  if (!st->ok() || !(**st).select) return n;
  std::optional<Result<PlanPtr>> plan;
  const double t_plan = TimeIt([&] { plan.emplace(PlanSelect(*(**st).select, db)); });
  tr->Sample("sql.plan_us", t_plan * 1e6);
  if (!plan->ok()) return n;
  std::optional<Result<Table>> out;
  const double t_exec = TimeIt([&] { out.emplace(ExecutePlan(***plan, db)); });
  if (out->ok()) SampleExec(***plan, db, t_exec, (**out).NumRows(), tr);
  n.kids = {{"sql.parse", t_parse, {}}, {"sql.plan", t_plan, {}},
            {"relational.exec", t_exec, {}}};
  return n;
}

/// Maintenance probes: MaintainAll on a fork; per view, plan building and
/// plan execution on another fork with the deltas registered.
Node ProbeMaintain(const SvcEngine& base, Tracer* tr, bool sample_maintain = true) {
  Node m{"view.maintain", 0, {}};
  {
    SvcEngine fork(base);
    m.seconds = TimeIt([&] { (void)fork.MaintainAll(); });
  }
  if (sample_maintain) tr->Sample("view.maintain_us", m.seconds * 1e6);
  SvcEngine fork(base);
  if (!fork.pending().Register(fork.db()).ok()) return m;
  double t_plan = 0, t_exec = 0;
  for (const auto& name : fork.ViewNames()) {
    auto view = fork.GetView(name);
    if (!view.ok()) continue;
    std::optional<Result<MaintenancePlan>> plan;
    t_plan += TimeIt([&] {
      plan.emplace(BuildMaintenancePlan(**view, fork.pending(), *fork.db()));
    });
    if (!plan->ok() || !(**plan).plan) continue;
    std::optional<Result<Table>> out;
    const double t = TimeIt([&] { out.emplace(ExecutePlan(*(**plan).plan, *fork.db())); });
    t_exec += t;
    if (out->ok()) SampleExec(*(**plan).plan, *fork.db(), t, (**out).NumRows(), tr);
  }
  tr->Sample("view.maintain_plan_us", t_plan * 1e6);
  m.kids = {{"view.maintain_plan", t_plan, {}}, {"relational.exec", t_exec, {}}};
  return m;
}

/// INSERT probes below the session: one Commit of the statement's rows on
/// a SharedEngine over a fork, and the bare InsertRecord calls on another.
Node ProbeInsertCommit(const SvcEngine& base, const std::string& sql, Tracer* tr,
                       double* parse_s) {
  Node commit{"core.commit", 0, {}};
  std::optional<Result<Statement>> st;
  *parse_s = TimeIt([&] { st.emplace(ParseStatement(sql)); });
  tr->Sample("sql.parse_us", *parse_s * 1e6);
  if (!st->ok() || (**st).kind != Statement::Kind::kInsert) return commit;
  const Statement& s = **st;
  {
    SharedEngine sh{SvcEngine(base)};
    commit.seconds = TimeIt([&] {
      (void)sh.Commit([&](SvcEngine* e) {
        for (const Row& r : s.values) SVC_RETURN_IF_ERROR(e->InsertRecord(s.target, r));
        return Status::OK();
      });
    });
  }
  tr->Sample("core.commit_us", commit.seconds * 1e6);
  SvcEngine fork(base);
  const double t_ir = TimeIt([&] {
    for (const Row& r : s.values) (void)fork.InsertRecord(s.target, r);
  });
  tr->Sample("view.insert_record_us", t_ir * 1e6 / std::max<size_t>(1, s.values.size()));
  commit.kids = {{"view.insert_record", t_ir, {}}};
  return commit;
}

void SampleInsertPerRow(const Op& op, double e2e, Tracer* tr) {
  if (op.rows == 0 || op.sql.rfind("INSERT", 0) != 0) return;
  const char* bucket = op.rows == 1 ? "b1" : op.rows <= 100 ? "le100"
                                          : op.rows >= 1000  ? "ge1000"
                                                             : nullptr;
  if (bucket) tr->Sample(std::string("sql.insert_us_per_row.") + bucket, e2e * 1e6 / op.rows);
}

/// Storage probe of one write: the WAL record the durable commit logs,
/// encoded and appended to a probe log of the benchmark's own (the fsync
/// policy is the workload's).
Node ProbeWal(const SvcEngine& base, const std::string& sql, WalWriter* wal, Tracer* tr) {
  Node n{"storage", 0, {}};
  auto st = ParseStatement(sql);
  if (!st.ok()) return n;
  DurableOp op = DurableOp::RefreshOp();
  if (st->kind == Statement::Kind::kInsert) {
    op = DurableOp::InsertOp(st->target, st->values);
  } else if (st->kind == Statement::Kind::kDelete) {
    auto rows = DeletedRows(base.db(), sql);
    if (!rows.ok()) return n;
    op = DurableOp::DeleteOp(st->target, std::move(*rows));
  }
  std::string payload;
  const double t_encode = TimeIt([&] { (void)EncodeDurableOp(op, &payload); });
  const double t_append = TimeIt([&] { (void)wal->Append(payload); });
  tr->Sample("storage.wal_append_us", t_append * 1e6);
  n.seconds = t_encode + t_append;
  n.kids = {{"storage.encode", t_encode, {}}, {"storage.wal_append", t_append, {}}};
  return n;
}

/// Closed loop over `ops` on one in-process session. With `tr` null the
/// run is untraced. Returns the summed end-to-end seconds; appends (depth,
/// cost) of single-row INSERTs to `depth_cost` when non-null.
double RunDurablePrefix(const std::vector<Op>& ops, DurableEngine* dur, SqlSession* session,
                        WalWriter* wal, Tracer* tr, Report* rep,
                        std::vector<std::pair<double, double>>* depth_cost) {
  double total = 0;
  for (const Op& op : ops) {
    SnapshotPtr snap;
    const double t_snap = TimeIt([&] { snap = dur->shared()->Snapshot(); });
    const DurabilityStats before = dur->stats();
    // Probes fork the state the request will see, cleaned-sample cache
    // included, before the request runs (the request fills that cache).
    std::optional<SvcEngine> pre;
    if (tr) pre.emplace(snap->engine);
    std::optional<Result<SqlResult>> r;
    const double e2e = TimeIt([&] { r.emplace(session->Execute(op.sql)); });
    total += e2e;
    rep->CountOp(r->ok());
    std::vector<EstRow> est;
    if (!CheckResult(op, *r, rep, &est)) continue;
    const double depth = static_cast<double>(snap->engine.pending().TotalInserts() +
                                             snap->engine.pending().TotalDeletes());
    if (depth_cost && op.rows == 1 && op.sql.rfind("INSERT", 0) == 0) {
      depth_cost->emplace_back(depth, e2e);
    }
    if (!tr) continue;
    tr->Sample("core.snapshot_us", t_snap * 1e6);
    const SvcEngine& base = *pre;
    std::vector<Node> layers;
    if (op.kind == Kind::kSvc || op.kind == Kind::kSelect) {
      // The session on a private fork, its parts on further forks.
      Node sess{"sql", 0, {}};
      std::optional<Result<SqlResult>> rs;
      {
        SqlSession s(EngineHandle::Private(SvcEngine(base)));
        sess.seconds = TimeIt([&] { rs.emplace(s.Execute(op.sql)); });
      }
      if (!rs->ok()) {
        rep->Fail("session probe failed: " + op.sql.substr(0, 60));
        continue;
      }
      if (op.kind == Kind::kSvc) {
        std::vector<EstRow> engine_est;
        double parse = 0;
        Node engine = ProbeSvcEngine(base, op.sql, tr, rep, &engine_est, &parse);
        sess.kids = {{"sql.parse", parse, {}}, engine};
        tr->Sample("sql.session_self_us", (sess.seconds - parse - engine.seconds) * 1e6);
        if (!SameEstimates(est, engine_est) || !SameEstimates(est, Estimates(**rs))) {
          rep->Fail("engine-API or forked-session answer differs from the session's: " +
                    op.sql.substr(0, 60));
        }
      } else {
        sess.kids = ProbeSelect(base.db(), op.sql, tr).kids;
        std::string why;
        if (!SameRows((**rs).rows, (**r).rows, &why)) {
          rep->Fail("forked-session answer differs from the session's: " + why);
        }
      }
      layers = {sess};
    } else {
      // Writes and REFRESH: the same statement through a session on a
      // SharedEngine over a fork, and the WAL record the durable commit
      // adds. A checkpoint the commit triggers has no probe and shows in
      // the residual.
      Node shared{"sql", 0, {}};
      {
        auto sh = std::make_shared<SharedEngine>(SvcEngine(base));
        SqlSession s(EngineHandle::Shared(sh));
        shared.seconds = TimeIt([&] { (void)s.Execute(op.sql); });
      }
      if (op.kind == Kind::kWrite) {
        SampleInsertPerRow(op, e2e, tr);
        tr->Sample("view.pending_rows", depth);
        double parse = 0;
        Node commit = ProbeInsertCommit(base, op.sql, tr, &parse);
        shared.kids = {{"sql.parse", parse, {}}};
        if (commit.seconds > 0) shared.kids.push_back(commit);
      } else {
        shared.kids = {ProbeMaintain(base, tr)};
      }
      layers = {shared, ProbeWal(base, op.sql, wal, tr)};
      const DurabilityStats after = dur->stats();
      if (after.last_checkpoint_epoch == before.last_checkpoint_epoch &&
          after.wal_bytes > before.wal_bytes) {
        tr->Sample("storage.wal_bytes_per_commit",
                   static_cast<double>(after.wal_bytes - before.wal_bytes));
      } else if (after.last_checkpoint_epoch != before.last_checkpoint_epoch) {
        tr->Count("storage.auto_checkpoints", 1);
      }
    }
    tr->AddRequest(KindName(op.kind), e2e, layers);
  }
  return total;
}

/// Cache counters summed over the views of one engine.
ViewCacheStats SumCache(const std::map<std::string, ViewCacheStats>& m) {
  ViewCacheStats s;
  for (const auto& kv : m) {
    s.hits += kv.second.hits;
    s.misses += kv.second.misses;
    s.full_cleans += kv.second.full_cleans;
    s.incremental_advances += kv.second.incremental_advances;
  }
  return s;
}

void AddCacheDelta(const ViewCacheStats& a, const ViewCacheStats& b, Tracer* tr) {
  const double hits = b.hits - a.hits, misses = b.misses - a.misses;
  tr->Sample("core.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  tr->Count("core.cache_advances", b.incremental_advances - a.incremental_advances);
  tr->Count("core.cache_full_cleans", b.full_cleans - a.full_cleans);
}

/// Server counters over the Stats frame and the client's retry counters.
void AddServerStats(SvcClient* client, Tracer* tr) {
  auto s = client->ServerStats();
  if (s.ok()) {
    for (const char* k : {"requests", "statements_parsed", "overload_rejections",
                          "deadline_exceeded"}) {
      tr->Count(std::string("server.") + k, static_cast<double>((*s)[k]));
    }
  }
  tr->Count("server.client_retries", static_cast<double>(client->retries()));
  tr->Count("server.client_reconnects", static_cast<double>(client->reconnects()));
}

/// Ops of an untraced prefix that fits in `budget` seconds; runs them.
template <typename Next, typename Exec>
std::vector<Op> TakePrefix(double budget, Next&& next, Exec&& exec, double* e2e) {
  std::vector<Op> ops;
  *e2e = 0;
  while (*e2e < budget) {
    ops.push_back(next());
    *e2e += exec(ops.back());
  }
  return ops;
}

void FinishTrace(double traced, double untraced,
                 const std::vector<std::pair<double, double>>& depth_cost,
                 Tracer* tr, Report* rep) {
  tr->Sample("bench.trace_overhead", untraced > 0 ? traced / untraced : 0);
  if (!depth_cost.empty()) {
    tr->Sample("view.depth_cost_ratio", DepthCostRatio(depth_cost));
  }
  tr->Summarize(
      [](const std::string& name) -> std::string {
        for (const auto& m : kPerLayer) {
          if (m.first == name) return m.second;
        }
        return "count";
      },
      rep);
}

void TraceDurable(const Args& a, const std::string& trace_out, Report* rep) {
  Tracer tr;
  auto setup = [&](const std::string& tag) {
    return SetupVideo(a.work_dir + "/trace-" + tag, a.seed, rep);
  };
  // Untraced prefix on a fresh set-up.
  std::vector<Op> prefix;
  double untraced = 0;
  std::vector<std::pair<double, double>> depth_cost;
  {
    auto rig = setup("untraced");
    if (!rig) return;
    SqlSession session(EngineHandle::Durable(rig->dur));
    DiskMeter disk(rig->dir);
    disk.Observe();
    const uint64_t d0 = disk.Total();
    IngestStream stream(a.seed);
    prefix = TakePrefix(
        0.25 * a.seconds, [&] { return stream.Next(); },
        [&](const Op& op) {
          return RunDurablePrefix({op}, rig->dur.get(), &session, nullptr, nullptr, rep,
                                  &depth_cost);
        },
        &untraced);
    double ub = 0;
    for (const Op& op : prefix) ub += op.user_bytes;
    disk.Observe();
    if (ub > 0) tr.Sample("storage.disk_bytes_per_user_byte", (disk.Total() - d0) / ub);
  }

  // Traced replay of the same prefix on another fresh set-up.
  auto rig = setup("traced");
  if (!rig) return;
  SqlSession session(EngineHandle::Durable(rig->dur));
  WalOptions wo;
  wo.policy = FsyncPolicy::kOff;
  auto wal = WalWriter::Open(rig->dir + "-probe.wal", wo);
  if (!wal.ok()) return rep->Fail("probe wal: " + wal.status().ToString());
  const ViewCacheStats c0 = SumCache(rig->dur->shared()->Snapshot()->engine.CacheStats());
  const double traced =
      RunDurablePrefix(prefix, rig->dur.get(), &session, &*wal, &tr, rep, nullptr);
  AddCacheDelta(c0, SumCache(rig->dur->shared()->Snapshot()->engine.CacheStats()), &tr);
  // An explicit checkpoint after the prefix: cost and incremental reuse.
  std::optional<Result<uint64_t>> ck;
  tr.Sample("storage.checkpoint_us", TimeIt([&] { ck.emplace(rig->dur->Checkpoint()); }) * 1e6);
  if (!ck->ok()) rep->Fail("checkpoint: " + ck->status().ToString());
  const DurabilityStats ds = rig->dur->stats();
  tr.Count("storage.checkpoint_tables_encoded", static_cast<double>(ds.checkpoint_tables_encoded));
  tr.Count("storage.checkpoint_tables_reused", static_cast<double>(ds.checkpoint_tables_reused));
  rep->Note("traced prefix: " + std::to_string(prefix.size()) + " requests");
  FinishTrace(traced, untraced, depth_cost, &tr, rep);
  tr.Write(trace_out);
}

/// refresh_cycle traced: the sharded engine has no fork, so probes run on
/// per-shard forks of the pre-request cut, the session and the engine API
/// are replayed on the request's cut after it (cache warm), and writes are
/// repeated on a single SharedEngine replica for the sharding cost.
void TraceSharded(const Args& a, const std::string& trace_out, Report* rep) {
  Tracer tr;
  const TpcdConfig cfg = TpcdConfigFor(a.seed);
  auto gen = GenerateTpcdDatabase(cfg);
  if (!gen.ok()) return rep->Fail("tpcd: " + gen.status().ToString());
  Database base = std::move(*gen);
  auto cycle_ops = [&](TpcdWriter* w, std::vector<Op>* buf, size_t* next) {
    if (*next >= buf->size()) {
      *buf = TpcdCycle(w);
      *next = 0;
    }
    return (*buf)[(*next)++];
  };
  std::vector<Op> prefix;
  double untraced = 0;
  {
    auto rig = SetupTpcd(a.seed, rep);
    if (!rig) return;
    TpcdWriter w(base, cfg, a.seed ^ 0x7cd);
    std::vector<Op> buf;
    size_t next = 0;
    prefix = TakePrefix(
        0.25 * a.seconds, [&] { return cycle_ops(&w, &buf, &next); },
        [&](const Op& op) {
          std::optional<Result<SqlResult>> r;
          double dt = TimeIt([&] { r.emplace(rig->session->Execute(op.sql)); });
          rep->CountOp(r->ok());
          std::vector<EstRow> est;
          CheckResult(op, *r, rep, &est);
          return dt;
        },
        &untraced);
  }
  auto rig = SetupTpcd(a.seed, rep);
  if (!rig) return;
  auto replica = std::make_shared<SharedEngine>(SvcEngine(std::move(base)));
  SqlSession rsession(EngineHandle::Shared(replica));
  for (const auto& s : kTpcdDdl) {
    if (!Run(&rsession, s, rep).ok()) return;
  }
  // The serving layer: a server over the same engine; each traced read is
  // replayed over the wire and through the in-process session after the
  // request, on the same cut with the cache warm for both. The light
  // lookups keep the wire's share measurable next to the heavy queries.
  ServerOptions so;
  so.workers = kServerWorkers;
  SvcServer server(so, rig->engine);
  if (Status st = server.Start(); !st.ok()) return rep->Fail("server start: " + st.ToString());
  ClientOptions co;
  co.port = server.port();
  co.recv_timeout_ms = 60000;
  auto conn = SvcClient::Connect(co);
  if (!conn.ok()) return rep->Fail("connect: " + conn.status().ToString());
  auto cache_now = [&] {
    return SumCache(rig->engine->CoordinatorCacheStats(*rig->engine->Snapshot()));
  };
  const ViewCacheStats c0 = cache_now();
  ViewCacheStats replayed;  // cache events caused by the replays, not the workload
  auto replay = [&](const std::function<void()>& fn) {
    const ViewCacheStats before = cache_now();
    fn();
    const ViewCacheStats after = cache_now();
    replayed.hits += after.hits - before.hits;
    replayed.misses += after.misses - before.misses;
    replayed.full_cleans += after.full_cleans - before.full_cleans;
    replayed.incremental_advances += after.incremental_advances - before.incremental_advances;
  };
  uint64_t replays = 0;
  std::vector<double> wire_self[2], session_self[2];  // by replay order
  double traced = 0;
  for (const Op& op : prefix) {
    ShardedSnapshotPtr snap;
    tr.Sample("core.snapshot_us", TimeIt([&] { snap = rig->engine->Snapshot(); }) * 1e6);
    std::vector<SvcEngine> forks;
    if (op.kind != Kind::kWrite) {
      for (const auto& s : snap->shards) forks.emplace_back(s->engine);
    }
    std::optional<Result<SqlResult>> r;
    const double e2e = TimeIt([&] { r.emplace(rig->session->Execute(op.sql)); });
    traced += e2e;
    rep->CountOp(r->ok());
    std::vector<EstRow> est;
    if (!CheckResult(op, *r, rep, &est)) continue;
    // Reads are replayed after the request on the same cut, cache warm:
    // over the wire, through the in-process session and (WITH SVC) through
    // the engine API. The session runs between the other two, whose order
    // alternates; each difference is reported as the mean of its two
    // per-order medians, so an order effect cancels.
    std::optional<Result<Lowered>> l;
    if (op.kind == Kind::kSvc) {
      l.emplace(Lower(op.sql));
      if (!l->ok()) {
        rep->Fail("lower: " + l->status().ToString());
        continue;
      }
    }
    double t_sess = 0, t_api = 0;
    std::vector<EstRow> api_est;
    const bool wire_first = replays % 2 == 0;
    if (op.kind == Kind::kSvc || op.kind == Kind::kSelect) {
      ++replays;
      std::optional<Result<SqlResult>> w, s2;
      double t_wire = 0;
      auto wire = [&] { t_wire = TimeIt([&] { w.emplace((*conn)->Execute(op.sql)); }); };
      auto sess = [&] { t_sess = TimeIt([&] { s2.emplace(rig->session->Execute(op.sql)); }); };
      auto api = [&] {
        if (!l) return;
        const Lowered& lw = **l;
        t_api = TimeIt([&] {
          if (lw.group_by.empty()) {
            auto x = rig->engine->Query(*snap, lw.view, lw.q, lw.opts);
            if (x.ok()) api_est = FromAnswer(*x);
          } else {
            auto x = rig->engine->QueryGrouped(*snap, lw.view, lw.group_by, lw.q, lw.opts);
            if (x.ok()) api_est = FromAnswer(*x, lw.group_by.size());
          }
        });
      };
      replay([&] {
        if (wire_first) {
          wire();
          sess();
          api();
        } else {
          api();
          sess();
          wire();
        }
      });
      if (!w->ok() || !s2->ok()) {
        rep->Fail("wire replay failed: " + op.sql.substr(0, 60));
        continue;
      }
      std::string why;
      const bool same = op.kind == Kind::kSvc
                            ? SameEstimates(Estimates(**w), Estimates(**s2)) &&
                                  SameEstimates(Estimates(**s2), est)
                            : SameRows((**w).rows, (**s2).rows, &why) &&
                                  SameRows((**s2).rows, (**r).rows, &why);
      if (!same) rep->Fail("wire answer differs from the session's: " + op.sql.substr(0, 60));
      wire_self[wire_first].push_back((t_wire - t_sess) * 1e3);
      std::string body;
      FrameTag tag = FrameTag::kOk;
      tr.Sample("server.encode_us", TimeIt([&] { tag = EncodeSqlResultBody(**s2, &body); }) * 1e6);
      tr.Sample("server.decode_us", TimeIt([&] { (void)DecodeSqlResultBody(tag, body); }) * 1e6);
      tr.Sample("server.response_bytes",
                static_cast<double>(body.size() + kFrameHeaderBytes + kPayloadHeaderBytes));
    }
    std::vector<Node> layers;
    if (op.kind == Kind::kSvc) {
      const Lowered& lw = **l;
      double parse = TimeIt([&] { (void)ParseStatement(op.sql); });
      tr.Sample("sql.parse_us", parse * 1e6);
      if (!SameEstimates(est, api_est)) {
        rep->Fail("engine-API answer differs from the session's: " + op.sql.substr(0, 60));
      }
      // Per-shard cleaning on forks of the pre-request cut (parallel in the
      // engine, so the slowest shard is the critical path): the cache work
      // the request did, which the warm replays above do not repeat.
      CleanOptions co(lw.opts.ratio, lw.opts.family, lw.opts.exec);
      std::vector<std::shared_ptr<const CorrespondingSamples>> parts;
      double t_shard_max = 0;
      CacheOutcome worst = CacheOutcome::kHit;
      for (auto& f : forks) {
        CacheOutcome o = CacheOutcome::kHit;
        std::optional<Result<std::shared_ptr<const CorrespondingSamples>>> s;
        t_shard_max = std::max(t_shard_max, TimeIt([&] { s.emplace(f.CleanSampleCached(lw.view, co, &o)); }));
        if (s->ok()) parts.push_back(**s);
        if (o == CacheOutcome::kFullClean || (o == CacheOutcome::kAdvance && worst == CacheOutcome::kHit)) worst = o;
      }
      if (worst == CacheOutcome::kFullClean) tr.Sample("sample.clean_full_us", t_shard_max * 1e6);
      if (worst == CacheOutcome::kAdvance) tr.Sample("sample.clean_advance_us", t_shard_max * 1e6);
      if (worst != CacheOutcome::kHit && !forks.empty()) ProbeCleaningPlan(forks[0], lw, co, &tr);
      std::optional<Result<CorrespondingSamples>> merged;
      std::optional<Result<std::shared_ptr<const Table>>> stale;
      const double t_coord = TimeIt([&] {
        merged.emplace(MergeCorrespondingSamples(parts));
        stale.emplace(rig->engine->GatherTable(*snap, lw.view));
      });
      if (!merged->ok() || !stale->ok()) continue;
      const double t_est = ProbeEstimate(***stale, **merged, lw, &tr);
      if (worst == CacheOutcome::kHit) tr.Sample("core.sharded_fanout_us", (t_api - t_est) * 1e6);
      session_self[wire_first].push_back((t_sess - parse - t_api) * 1e6);
      layers = {{"sql", t_sess,
                 {{"sql.parse", parse, {}},
                  {"core", t_api, {{"core.coordinator", t_coord, {}}, {"core.estimate", t_est, {}}}}}},
                {"sample", t_shard_max, {}}};
    } else if (op.kind == Kind::kSelect) {
      std::optional<Result<Database>> db;
      const double t_gather = TimeIt([&] { db.emplace(rig->engine->GatherDatabase(*snap, {"orders"})); });
      if (!db->ok()) continue;
      Node sel = ProbeSelect(**db, op.sql, &tr);
      Node sess{"sql", t_sess, {{"core.gather", t_gather, {}}}};
      for (auto& k : sel.kids) sess.kids.push_back(k);
      layers = {sess};
    } else {
      // Same statement on the single-engine replica. The routing and
      // per-shard commits sharding adds have no probe of their own; they
      // are the residual (and core.sharded_insert_us).
      const double t_rep = TimeIt([&] { (void)rsession.Execute(op.sql); });
      if (op.kind == Kind::kWrite) {
        tr.Sample("core.sharded_insert_us", (e2e - t_rep) * 1e6);
        SampleInsertPerRow(op, e2e, &tr);
        layers = {{"core.single_engine", t_rep, {}}};
      } else {
        if (!forks.empty()) ProbeMaintain(forks[0], &tr, false);
        double worst = 0;
        for (auto& f : forks) worst = std::max(worst, TimeIt([&] { (void)f.MaintainAll(); }));
        tr.Sample("view.maintain_us", worst * 1e6);
        layers = {{"view.maintain", worst, {}}};
      }
    }
    tr.AddRequest(KindName(op.kind), e2e, layers);
  }
  ViewCacheStats c1 = cache_now();
  c1.hits -= replayed.hits;
  c1.misses -= replayed.misses;
  c1.full_cleans -= replayed.full_cleans;
  c1.incremental_advances -= replayed.incremental_advances;
  AddCacheDelta(c0, c1, &tr);
  AddServerStats(conn->get(), &tr);
  auto order_free = [](const std::vector<double>* by_order) {
    return (Median(by_order[0]) + Median(by_order[1])) / 2;
  };
  tr.Sample("server.wire_self_ms", order_free(wire_self));
  tr.Sample("sql.session_self_us", order_free(session_self));
  server.Stop();
  rep->Note("traced prefix: " + std::to_string(prefix.size()) + " requests");
  FinishTrace(traced, untraced, {}, &tr, rep);
  tr.Write(trace_out);
}

int Usage() {
  std::fprintf(stderr,
               "usage: svcbench --workload ingest_backlog|refresh_cycle "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return Usage();
  }
  if (a.seconds <= 0) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(a.work_dir, ec);
  Report rep;
  rep.Note("workload " + a.workload + " seed " + std::to_string(a.seed) +
           " seconds " + std::to_string(a.seconds) + (a.trace ? " traced" : ""));
  if (a.workload != "ingest_backlog" && a.workload != "refresh_cycle") return Usage();
  if (a.trace) {
    if (a.workload == "refresh_cycle") TraceSharded(a, a.trace_out, &rep);
    else TraceDurable(a, a.trace_out, &rep);
    rep.Print(kPerLayer);
  } else {
    if (a.workload == "ingest_backlog") IngestBacklog(a, &rep);
    else RefreshCycle(a, &rep);
    rep.Print(kEndToEnd);
  }
  std::filesystem::remove_all(a.work_dir, ec);
  return 0;
}
