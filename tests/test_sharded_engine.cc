// ShardedEngine (core/sharded_engine.h): derived placement (which
// relations a view's sampling key partitions, which stay replicated and
// pinned), clean NotSupported failures on conflicting placement demands,
// bit-identity of scatter-gather answers against an unsharded replica, and
// a concurrency stress where readers race a writer across published cuts —
// the sharded analog of test_concurrent_engine.cc, run under TSan by
// `scripts/check.sh --tsan` — and the coordinator memos (merged samples,
// exact stale answers): repeated CORR answers bit-identical to a cache-off
// engine at 1, 2 and 4 shards, with hit/miss counters proving which
// statements invalidate what.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/sharded_engine.h"
#include "core/svc.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "tests/test_util.h"

namespace svc {
namespace {

using testing_util::EncodedRows;
using testing_util::MakeLogVideoDb;

constexpr char kVisitViewSql[] =
    "SELECT Log.videoId, COUNT(1) AS visitCount "
    "FROM Log, Video WHERE Log.videoId = Video.videoId "
    "GROUP BY Log.videoId";

/// A view whose sampling key (the derived pk, spanning both join sides
/// with non-join-key attributes) cannot push through the join: the view
/// falls back to replicated-class and pins both relations.
constexpr char kBlockedViewSql[] =
    "SELECT Log.sessionId, Video.ownerId, COUNT(1) AS c "
    "FROM Log, Video WHERE Log.videoId = Video.videoId "
    "GROUP BY Log.sessionId, Video.ownerId";

PlanPtr PlanOf(const ShardedEngine& eng, const std::string& sql) {
  return SqlToPlan(sql, eng.Snapshot()->shards[0]->engine.db()).value();
}

size_t ShardRows(const ShardedEngine& eng, size_t shard,
                 const std::string& table) {
  return (*eng.Snapshot()->shards[shard]->engine.db().GetTable(table))
      ->NumRows();
}

TEST(ShardedEngineTest, SamplingKeyReachableRelationsArePartitioned) {
  ShardedEngine eng(MakeLogVideoDb(), 4);
  SVC_ASSERT_OK(eng.CreateView("visitView", PlanOf(eng, kVisitViewSql)));
  ShardedSnapshotPtr snap = eng.Snapshot();
  // The sampling key (videoId) reaches both join inputs as a scan filter,
  // so both relations partition by it; no pins.
  EXPECT_TRUE(snap->meta->IsPartitionedRelation("Log"));
  EXPECT_TRUE(snap->meta->IsPartitionedRelation("Video"));
  EXPECT_TRUE(snap->meta->IsPartitionedView("visitView"));
  EXPECT_TRUE(snap->meta->replicated_pins.empty());
  // Partitioning is a partition: every row lives on exactly one shard.
  size_t log_rows = 0;
  size_t video_rows = 0;
  for (size_t s = 0; s < 4; ++s) {
    log_rows += ShardRows(eng, s, "Log");
    video_rows += ShardRows(eng, s, "Video");
  }
  EXPECT_EQ(log_rows, 10u);
  EXPECT_EQ(video_rows, 5u);
  // The gathered logical view matches an unsharded engine's view.
  SvcEngine replica(MakeLogVideoDb());
  SVC_ASSERT_OK(
      replica.CreateView("visitView", SqlToPlan(kVisitViewSql,
                                                *replica.db())
                                          .value()));
  SVC_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> gathered,
                           eng.GatherTable(*snap, "visitView"));
  EXPECT_EQ(EncodedRows(*gathered),
            EncodedRows(**replica.db()->GetTable("visitView")));
}

TEST(ShardedEngineTest, BlockedSamplingKeyFallsBackToReplicatedClass) {
  ShardedEngine eng(MakeLogVideoDb(), 3);
  SVC_ASSERT_OK(eng.CreateView("blockedView", PlanOf(eng, kBlockedViewSql)));
  ShardedSnapshotPtr snap = eng.Snapshot();
  EXPECT_FALSE(snap->meta->IsPartitionedView("blockedView"));
  EXPECT_FALSE(snap->meta->IsPartitionedRelation("Log"));
  auto pin = snap->meta->replicated_pins.find("Log");
  ASSERT_NE(pin, snap->meta->replicated_pins.end());
  EXPECT_EQ(pin->second.count("blockedView"), 1u);
  // Every shard holds the full relation and the identical full view.
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(ShardRows(eng, s, "Log"), 10u);
    EXPECT_EQ(EncodedRows(
                  **snap->shards[s]->engine.db().GetTable("blockedView")),
              EncodedRows(
                  **snap->shards[0]->engine.db().GetTable("blockedView")));
  }
  // Replicated-class answers equal an unsharded replica's, bit for bit.
  SvcEngine replica(MakeLogVideoDb());
  SVC_ASSERT_OK(replica.CreateView(
      "blockedView", SqlToPlan(kBlockedViewSql, *replica.db()).value()));
  const Row delta{Value::Int(100), Value::Int(3)};
  SVC_ASSERT_OK(eng.InsertRecord("Log", delta));
  SVC_ASSERT_OK(replica.InsertRecord("Log", delta));
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("c"));
  SvcQueryOptions opts;
  opts.ratio = 1.0;
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer got,
                           eng.Query(*eng.Snapshot(), "blockedView", q, opts));
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer want,
                           replica.Query("blockedView", q, opts));
  EXPECT_EQ(got.estimate.value, want.estimate.value);
  EXPECT_EQ(got.estimate.ci_low, want.estimate.ci_low);
  EXPECT_EQ(got.estimate.ci_high, want.estimate.ci_high);
  EXPECT_EQ(got.estimate.sample_rows, want.estimate.sample_rows);
}

TEST(ShardedEngineTest, ConflictingPlacementDemandsFailCleanly) {
  {
    // A replicated pin blocks a later partitioning demand.
    ShardedEngine eng(MakeLogVideoDb(), 2);
    SVC_ASSERT_OK(eng.CreateView("blockedView", PlanOf(eng, kBlockedViewSql)));
    const uint64_t version = eng.version();
    Status st = eng.CreateView("visitView", PlanOf(eng, kVisitViewSql));
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("replicated"), std::string::npos);
    EXPECT_NE(st.ToString().find("blockedView"), std::string::npos);
    EXPECT_EQ(eng.version(), version) << "failed DDL must publish nothing";
  }
  {
    // A partitioned relation blocks a later replicated demand...
    ShardedEngine eng(MakeLogVideoDb(), 2);
    SVC_ASSERT_OK(eng.CreateView("visitView", PlanOf(eng, kVisitViewSql)));
    Status st = eng.CreateView("blockedView", PlanOf(eng, kBlockedViewSql));
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("hash-partitioned"), std::string::npos);
    // ...and so does a view demanding a different partitioning key.
    Status st2 = eng.CreateView(
        "sessionView",
        PlanOf(eng, "SELECT sessionId, COUNT(1) AS c FROM Log "
                    "GROUP BY sessionId"));
    ASSERT_FALSE(st2.ok());
    EXPECT_NE(st2.ToString().find("different key"), std::string::npos);
    // The engine stays fully serviceable after the rejected DDL.
    SVC_ASSERT_OK_AND_ASSIGN(
        SvcAnswer ans,
        eng.Query(*eng.Snapshot(), "visitView",
                  AggregateQuery::Sum(Expr::Col("visitCount")), {}));
    EXPECT_GT(ans.estimate.sample_rows, 0u);
  }
  {
    // Two views demanding the same partitioning coexist.
    ShardedEngine eng(MakeLogVideoDb(), 2);
    SVC_ASSERT_OK(eng.CreateView("visitView", PlanOf(eng, kVisitViewSql)));
    SVC_ASSERT_OK(eng.CreateView(
        "videoView",
        PlanOf(eng, "SELECT videoId, COUNT(1) AS c FROM Log "
                    "GROUP BY videoId")));
    EXPECT_TRUE(eng.Snapshot()->meta->IsPartitionedView("videoView"));
  }
}

TEST(ShardedEngineTest, RefreshCommitsShardsIndependentlyAndCountsLogically) {
  ShardedEngine eng(MakeLogVideoDb(), 4);
  SVC_ASSERT_OK(eng.CreateView("visitView", PlanOf(eng, kVisitViewSql)));
  SvcEngine replica(MakeLogVideoDb());
  SVC_ASSERT_OK(replica.CreateView(
      "visitView", SqlToPlan(kVisitViewSql, *replica.db()).value()));
  // Route a batch touching several shards, plus a delete.
  std::vector<Row> batch;
  for (int64_t i = 0; i < 8; ++i) {
    batch.push_back({Value::Int(100 + i), Value::Int(1 + i % 4)});
  }
  SVC_ASSERT_OK(eng.InsertRows("Log", std::vector<Row>(batch)));
  for (const Row& r : batch) SVC_ASSERT_OK(replica.InsertRecord("Log", r));
  const Row doomed{Value::Int(0), Value::Int(1)};
  SVC_ASSERT_OK(eng.DeleteRows("Log", {doomed}));
  SVC_ASSERT_OK(replica.DeleteRecord("Log", doomed));

  ShardedSnapshotPtr stale = eng.Snapshot();
  size_t ins = 0;
  size_t del = 0;
  eng.PendingCounts(*stale, &ins, &del);
  EXPECT_EQ(ins, 8u);
  EXPECT_EQ(del, 1u);
  EXPECT_EQ(eng.PendingRowsFor(*stale, "Log"), 9u);

  size_t committed_ins = 0;
  size_t committed_del = 0;
  SVC_ASSERT_OK(eng.Refresh(&committed_ins, &committed_del));
  SVC_ASSERT_OK(replica.MaintainAll());
  EXPECT_EQ(committed_ins, 8u);
  EXPECT_EQ(committed_del, 1u);
  ShardedSnapshotPtr fresh = eng.Snapshot();
  eng.PendingCounts(*fresh, &ins, &del);
  EXPECT_EQ(ins + del, 0u);
  // The maintained logical view matches the unsharded replica's.
  SVC_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> gathered,
                           eng.GatherTable(*fresh, "visitView"));
  EXPECT_EQ(EncodedRows(*gathered),
            EncodedRows(**replica.db()->GetTable("visitView")));
  // A reader holding the pre-refresh cut still sees its pending deltas.
  EXPECT_EQ(eng.PendingRowsFor(*stale, "Log"), 9u);
}

// ---- Concurrency stress (the TSan target) ----------------------------------
//
// One writer session runs rounds of INSERT + REFRESH while reader sessions
// continuously issue SVC SELECTs over the same 4-shard engine. Every
// statement publishes one atomic cut, so each reader answer must be
// byte-identical to one of the answers a sequential replay produces at
// some published state — an answer matching no state is a torn cut.

constexpr int kShards = 4;
constexpr int kReaders = 4;
constexpr int kRounds = 8;
constexpr int kBatch = 25;
constexpr int64_t kInitialRows = 400;
constexpr int kStressGroups = 6;

constexpr char kStressQuery[] =
    "SELECT SUM(sv) AS x FROM V WHERE c > 2 "
    "WITH SVC(ratio=0.5, mode=corr)";

std::string InsertBatchSql(int round) {
  Rng rng(0x5eed0000u + static_cast<uint64_t>(round));
  std::string sql = "INSERT INTO F VALUES ";
  for (int i = 0; i < kBatch; ++i) {
    const int64_t id = kInitialRows + round * kBatch + i;
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(id) + ", " +
           std::to_string(rng.UniformInt(1, kStressGroups)) + ", " +
           std::to_string(rng.UniformInt(0, 1000)) + ")";
  }
  return sql;
}

/// Builds a session over a fresh 4-shard engine loaded with the stress
/// schema: F committed, V materialized over it.
std::unique_ptr<SqlSession> BuildStressSession(
    std::shared_ptr<ShardedEngine>* out_engine) {
  auto eng = std::make_shared<ShardedEngine>(Database(), kShards);
  auto session = std::make_unique<SqlSession>(EngineHandle::Sharded(eng));
  EXPECT_TRUE(
      session->Execute("CREATE TABLE F (id INT, g INT, v INT, "
                       "PRIMARY KEY (id));")
          .ok());
  Rng rng(11);
  std::string load = "INSERT INTO F VALUES ";
  for (int64_t id = 0; id < kInitialRows; ++id) {
    if (id > 0) load += ", ";
    load += "(" + std::to_string(id) + ", " +
            std::to_string(rng.UniformInt(1, kStressGroups)) + ", " +
            std::to_string(rng.UniformInt(0, 1000)) + ")";
  }
  EXPECT_TRUE(session->Execute(load).ok());
  EXPECT_TRUE(session->Execute("REFRESH ALL;").ok());
  EXPECT_TRUE(session
                  ->Execute("CREATE MATERIALIZED VIEW V AS "
                            "SELECT g, COUNT(1) AS c, SUM(v) AS sv "
                            "FROM F GROUP BY g;")
                  .ok());
  if (out_engine != nullptr) *out_engine = eng;
  return session;
}

std::string AnswerBytes(const SqlResult& r) {
  std::string out;
  for (size_t i = 0; i < r.rows.NumRows(); ++i) {
    for (const Value& v : r.rows.row(i)) out += v.ToString() + "|";
  }
  return out;
}

TEST(ShardedEngineTest, ConcurrentReadersOnlyObservePublishedCuts) {
  // Sequential replay: the set of legal answers, one per published state.
  std::set<std::string> legal;
  {
    auto replay = BuildStressSession(nullptr);
    SVC_ASSERT_OK_AND_ASSIGN(SqlResult r0, replay->Execute(kStressQuery));
    legal.insert(AnswerBytes(r0));
    for (int round = 0; round < kRounds; ++round) {
      SVC_ASSERT_OK(replay->Execute(InsertBatchSql(round)).status());
      SVC_ASSERT_OK_AND_ASSIGN(SqlResult ri, replay->Execute(kStressQuery));
      legal.insert(AnswerBytes(ri));
      SVC_ASSERT_OK(replay->Execute("REFRESH ALL;").status());
      SVC_ASSERT_OK_AND_ASSIGN(SqlResult rr, replay->Execute(kStressQuery));
      legal.insert(AnswerBytes(rr));
    }
  }

  std::shared_ptr<ShardedEngine> eng;
  auto writer = BuildStressSession(&eng);
  std::vector<std::thread> readers;
  std::vector<int> reader_failures(kReaders, 0);
  std::vector<int> reader_queries(kReaders, 0);
  std::atomic<bool> done{false};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      SqlSession session(EngineHandle::Sharded(eng));
      // One guaranteed query after the writer finishes (the writer may
      // outpace a slow-starting reader), plus as many as fit during the
      // race window itself.
      bool final_pass = false;
      while (!final_pass) {
        final_pass = done.load(std::memory_order_acquire);
        auto got = session.Execute(kStressQuery);
        if (!got.ok()) {
          ++reader_failures[r];
          continue;
        }
        ++reader_queries[r];
        if (legal.count(AnswerBytes(*got)) == 0) ++reader_failures[r];
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    SVC_ASSERT_OK(writer->Execute(InsertBatchSql(round)).status());
    SVC_ASSERT_OK(writer->Execute("REFRESH ALL;").status());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(reader_failures[r], 0) << "reader " << r << " saw an answer "
                                     << "matching no published state";
    EXPECT_GT(reader_queries[r], 0) << "reader " << r << " never ran";
  }
}

TEST(ShardedEngineTest, ConcurrentWritersSerializeValidationAndCommit) {
  // Two sessions insert disjoint id ranges concurrently: the
  // validate-then-commit critical section (WithStatementLock) must make
  // every batch land exactly once, with no key check racing a commit.
  std::shared_ptr<ShardedEngine> eng;
  auto setup = BuildStressSession(&eng);
  constexpr int kWriterRounds = 12;
  constexpr int kPerRound = 10;
  auto write = [&](int64_t base) {
    SqlSession session(EngineHandle::Sharded(eng));
    for (int round = 0; round < kWriterRounds; ++round) {
      std::string sql = "INSERT INTO F VALUES ";
      for (int i = 0; i < kPerRound; ++i) {
        const int64_t id = base + round * kPerRound + i;
        if (i > 0) sql += ", ";
        sql += "(" + std::to_string(id) + ", 1, 5)";
      }
      auto r = session.Execute(sql);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (round % 4 == 3) {
        auto ref = session.Execute("REFRESH ALL;");
        EXPECT_TRUE(ref.ok()) << ref.status().ToString();
      }
    }
  };
  std::thread a(write, int64_t{10000});
  std::thread b(write, int64_t{20000});
  a.join();
  b.join();
  SVC_ASSERT_OK(setup->Execute("REFRESH ALL;").status());
  // Every row landed exactly once (PK uniqueness would reject a double
  // commit; a lost batch would shrink the count).
  SVC_ASSERT_OK_AND_ASSIGN(SqlResult all, setup->Execute("SELECT id FROM F;"));
  EXPECT_EQ(all.rows.NumRows(),
            static_cast<size_t>(kInitialRows + 2 * kWriterRounds * kPerRound));
}

// ---- Coordinator memos ----------------------------------------------------

constexpr char kFactViewSql[] = "SELECT id, g, v FROM F";

/// F(id, g, v): `rows` facts over five groups.
Database MakeFactDb(int64_t rows) {
  Database db;
  Table fact(Schema({{"", "id", ValueType::kInt},
                     {"", "g", ValueType::kInt},
                     {"", "v", ValueType::kDouble}}));
  EXPECT_TRUE(fact.SetPrimaryKey({"id"}).ok());
  Rng rng(41);
  for (int64_t id = 0; id < rows; ++id) {
    EXPECT_TRUE(fact.Insert({Value::Int(id), Value::Int(rng.UniformInt(1, 5)),
                             Value::Double(rng.UniformInt(0, 4000) / 16.0)})
                    .ok());
  }
  // One value between the two near-equal literals of MemoQueries.
  EXPECT_TRUE(fact.Insert({Value::Int(rows), Value::Int(1),
                           Value::Double(100.00000015)})
                  .ok());
  EXPECT_TRUE(db.CreateTable("F", std::move(fact)).ok());
  return db;
}

struct MemoQuery {
  AggregateQuery q;
  std::vector<std::string> group_by;  ///< empty = scalar
};

/// CORR queries over V: scalar and grouped, totals and the bootstrap-
/// bounded avg / median, plus two predicates whose literals differ only
/// past ToString()'s six significant digits (their answers differ).
std::vector<MemoQuery> MemoQueries() {
  std::vector<MemoQuery> out;
  out.push_back({AggregateQuery::Sum(Expr::Col("v")), {}});
  out.push_back({AggregateQuery::Count(), {}});
  out.push_back({AggregateQuery::Avg(Expr::Col("v")), {}});
  out.push_back({AggregateQuery::Median(Expr::Col("v")), {}});
  for (double lit : {100.0000001, 100.0000002}) {
    out.push_back({AggregateQuery::Count(
                       Expr::Gt(Expr::Col("v"), Expr::LitDouble(lit))),
                   {}});
  }
  out.push_back({AggregateQuery::Sum(Expr::Col("v")), {"g"}});
  out.push_back({AggregateQuery::Avg(Expr::Col("v")), {"g"}});
  out.push_back({AggregateQuery::Median(Expr::Col("v")), {"g"}});
  return out;
}

/// Every field of an estimate, doubles in hex: equal strings mean
/// bit-identical answers.
std::string EstimateBits(const Estimate& e) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%a [%a, %a] ci=%d n=%zu", e.value,
                e.ci_low, e.ci_high, e.has_ci ? 1 : 0, e.sample_rows);
  return buf;
}

/// One line per (query, group) answered on `eng`'s current cut.
std::vector<std::string> MemoAnswers(const ShardedEngine& eng) {
  ShardedSnapshotPtr snap = eng.Snapshot();
  SvcQueryOptions opts;
  opts.ratio = 0.3;
  std::vector<std::string> out;
  for (const MemoQuery& mq : MemoQueries()) {
    const std::string name = mq.q.ToString();
    if (mq.group_by.empty()) {
      Result<SvcAnswer> r = eng.Query(*snap, "V", mq.q, opts);
      EXPECT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      if (r.ok()) out.push_back(name + " " + EstimateBits(r->estimate));
      continue;
    }
    Result<SvcGroupedAnswer> r =
        eng.QueryGrouped(*snap, "V", mq.group_by, mq.q, opts);
    EXPECT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    if (!r.ok()) continue;
    for (size_t g = 0; g < r->result.group_keys.size(); ++g) {
      out.push_back(name + " g=" + r->result.group_keys[g][0].ToString() +
                    " " + EstimateBits(r->result.estimates[g]));
    }
  }
  return out;
}

MemoStats StatsFor(const std::map<std::string, MemoStats>& stats) {
  auto it = stats.find("V");
  return it == stats.end() ? MemoStats{} : it->second;
}

// The memos must never change an answer: across INSERT, DELETE and
// REFRESH, repeated CORR answers on a memoizing engine equal a cache-off
// engine's bit for bit at every shard count. The counters prove the
// validity rule: the stale-answer memo survives statements that leave the
// view table alone (INSERT, DELETE) and misses once per query after
// REFRESH; the merged-sample memo misses once per statement that moves a
// shard's sample and hits whenever every shard hit.
TEST(ShardedEngineTest, CorrMemosBitIdenticalToCacheOffAcrossStatements) {
  const size_t num_queries = MemoQueries().size();
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedEngine warm(MakeFactDb(300), shards);
    ShardedEngine cold(MakeFactDb(300), shards);
    cold.set_sample_cache_enabled(false);
    for (ShardedEngine* eng : {&warm, &cold}) {
      SVC_ASSERT_OK(eng->CreateView("V", PlanOf(*eng, kFactViewSql)));
    }
    ASSERT_TRUE(warm.Snapshot()->meta->IsPartitionedView("V"));
    int64_t next_id = 1000;
    auto insert = [&](ShardedEngine* eng) {
      std::vector<Row> rows;
      for (int64_t i = 0; i < 20; ++i) {
        rows.push_back({Value::Int(next_id + i), Value::Int(1 + i % 5),
                        Value::Double(static_cast<double>(i) * 7.5)});
      }
      return eng->InsertRows("F", std::move(rows));
    };
    auto remove = [&](ShardedEngine* eng) {
      std::vector<Row> rows;
      std::shared_ptr<const Table> f =
          eng->GatherTable(*eng->Snapshot(), "F").value();
      for (int64_t id : {3, 17, 42, 99}) {
        for (const Row& r : f->rows()) {
          if (r[0].AsInt() == id) rows.push_back(r);
        }
      }
      return eng->DeleteRows("F", std::move(rows));
    };
    auto refresh = [](ShardedEngine* eng) { return eng->Refresh(); };
    struct Step {
      const char* name;
      std::function<Status(ShardedEngine*)> apply;
      bool view_changes;
    };
    const Step steps[] = {{"insert", insert, false},
                          {"delete", remove, false},
                          {"refresh", refresh, true},
                          {"insert after refresh", insert, false}};
    bool first = true;
    for (const Step& step : steps) {
      SCOPED_TRACE(step.name);
      SVC_ASSERT_OK(step.apply(&warm));
      SVC_ASSERT_OK(step.apply(&cold));
      next_id += 100;
      const MemoStats stale0 = StatsFor(warm.StaleAnswerStats());
      const MemoStats merged0 = StatsFor(warm.MergedSampleStats());
      const std::vector<std::string> want = MemoAnswers(cold);
      EXPECT_EQ(MemoAnswers(warm), want);
      EXPECT_EQ(MemoAnswers(warm), want);  // the all-hit pass
      const MemoStats stale1 = StatsFor(warm.StaleAnswerStats());
      const MemoStats merged1 = StatsFor(warm.MergedSampleStats());
      const uint64_t expect_misses =
          first || step.view_changes ? num_queries : 0;
      EXPECT_EQ(stale1.misses - stale0.misses, expect_misses);
      EXPECT_EQ(stale1.hits - stale0.hits, 2 * num_queries - expect_misses);
      EXPECT_EQ(merged1.misses - merged0.misses, 1u);
      EXPECT_EQ(merged1.hits - merged0.hits, 2 * num_queries - 1);
      first = false;
    }
    // The cache-off engine never consults (or counts in) its memos.
    EXPECT_TRUE(cold.StaleAnswerStats().empty());
    EXPECT_TRUE(cold.MergedSampleStats().empty());
  }
}

// Concurrent readers of one cut answering grouped CORR queries through
// the coordinator memos: every reader gets the cache-off answer (the TSan
// job exercises the memo locking; two concurrent misses may both compute).
TEST(ShardedEngineTest, ConcurrentReadersShareCoordinatorMemos) {
  ShardedEngine warm(MakeFactDb(400), 4);
  ShardedEngine cold(MakeFactDb(400), 4);
  cold.set_sample_cache_enabled(false);
  for (ShardedEngine* eng : {&warm, &cold}) {
    SVC_ASSERT_OK(eng->CreateView("V", PlanOf(*eng, kFactViewSql)));
    SVC_ASSERT_OK(eng->InsertRecord(
        "F", {Value::Int(5000), Value::Int(2), Value::Double(12.5)}));
  }
  const std::vector<std::string> want = MemoAnswers(cold);
  constexpr int kMemoReaders = 6;
  std::vector<std::vector<std::string>> got(kMemoReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kMemoReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) got[t] = MemoAnswers(warm);
    });
  }
  for (std::thread& t : readers) t.join();
  for (int t = 0; t < kMemoReaders; ++t) EXPECT_EQ(got[t], want);
  const MemoStats stale = StatsFor(warm.StaleAnswerStats());
  EXPECT_GE(stale.misses, MemoQueries().size());
  EXPECT_GT(stale.hits, 0u);
}

}  // namespace
}  // namespace svc
