// Snapshot semantics of SharedEngine (core/shared_engine.h): epochs,
// reader isolation from writer commits, atomicity of failed commits, and
// the transactional MaintainAll that backs REFRESH in both engine modes.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/shared_engine.h"
#include "core/svc.h"
#include "sql/planner.h"
#include "tests/test_util.h"

namespace svc {
namespace {

using testing_util::MakeLogVideoDb;

constexpr char kVisitViewSql[] =
    "SELECT Log.videoId, COUNT(1) AS visitCount "
    "FROM Log, Video WHERE Log.videoId = Video.videoId "
    "GROUP BY Log.videoId";

/// A SharedEngine over the running example with visitView materialized.
std::unique_ptr<SharedEngine> MakeSharedEngine() {
  auto shared = std::make_unique<SharedEngine>(MakeLogVideoDb());
  PlanPtr def =
      SqlToPlan(kVisitViewSql, shared->Snapshot()->engine.db()).value();
  EXPECT_TRUE(shared->CreateView("visitView", std::move(def)).ok());
  return shared;
}

double StaleSum(const SvcEngine& engine) {
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("visitCount"));
  return engine.QueryStale("visitView", q).value();
}

TEST(SharedEngineTest, EpochAdvancesOncePerCommit) {
  SharedEngine shared(MakeLogVideoDb());
  EXPECT_EQ(shared.epoch(), 0u);
  SVC_ASSERT_OK(shared.InsertRecord("Log", {Value::Int(100), Value::Int(3)}));
  EXPECT_EQ(shared.epoch(), 1u);
  SVC_ASSERT_OK(shared.Commit([](SvcEngine* e) {
    return e->InsertRecord("Log", {Value::Int(101), Value::Int(2)});
  }));
  EXPECT_EQ(shared.epoch(), 2u);
}

TEST(SharedEngineTest, ReadersKeepTheirSnapshotAcrossCommits) {
  auto shared = MakeSharedEngine();
  SnapshotPtr before = shared->Snapshot();
  const double sum_before = StaleSum(before->engine);
  const uint64_t epoch_before = before->epoch;

  // Ingest + refresh behind the reader's back.
  SVC_ASSERT_OK(
      shared->InsertRecord("Log", {Value::Int(100), Value::Int(3)}));
  SVC_ASSERT_OK(shared->Refresh());

  // The old snapshot is bit-stable: same epoch, same pending queue, same
  // stale answer; the new head has moved on.
  EXPECT_EQ(before->epoch, epoch_before);
  EXPECT_TRUE(before->engine.IsStale() == false);
  EXPECT_EQ(StaleSum(before->engine), sum_before);
  SnapshotPtr after = shared->Snapshot();
  EXPECT_EQ(after->epoch, epoch_before + 2);
  EXPECT_EQ(StaleSum(after->engine), sum_before + 1.0);
}

TEST(SharedEngineTest, PreRefreshSnapshotStillSeesPendingDeltas) {
  auto shared = MakeSharedEngine();
  SVC_ASSERT_OK(
      shared->InsertRecord("Log", {Value::Int(100), Value::Int(3)}));
  SnapshotPtr stale_snap = shared->Snapshot();
  ASSERT_TRUE(stale_snap->engine.IsStale());

  SVC_ASSERT_OK(shared->Refresh());
  ASSERT_FALSE(shared->Snapshot()->engine.IsStale());

  // The pre-refresh snapshot still answers SVC queries from its stale view
  // + pending deltas, and its correction still reflects the delta.
  EXPECT_TRUE(stale_snap->engine.IsStale());
  SvcQueryOptions opts;
  opts.ratio = 1.0;
  opts.mode = EstimatorMode::kCorr;
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("visitCount"));
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer ans,
                           stale_snap->engine.Query("visitView", q, opts));
  // Full-ratio CORR on the stale snapshot equals the fresh head's exact
  // stale answer (the view is now maintained there).
  EXPECT_DOUBLE_EQ(ans.estimate.value, StaleSum(shared->Snapshot()->engine));
}

TEST(SharedEngineTest, FailedCommitPublishesNothing) {
  auto shared = MakeSharedEngine();
  const uint64_t epoch = shared->epoch();
  Status st = shared->Commit([](SvcEngine* e) {
    // Mutate, then fail: the mutation must be discarded with the fork.
    SVC_RETURN_IF_ERROR(
        e->InsertRecord("Log", {Value::Int(100), Value::Int(3)}));
    return Status::InvalidArgument("simulated failure after a mutation");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(shared->epoch(), epoch);
  EXPECT_FALSE(shared->Snapshot()->engine.IsStale());
}

TEST(SharedEngineTest, CreateTableAndDuplicateKeyAreSerializedSafely) {
  SharedEngine shared(Database{});
  Table t(Schema({{"", "id", ValueType::kInt}}));
  SVC_ASSERT_OK(t.SetPrimaryKey({"id"}));
  SVC_ASSERT_OK(shared.CreateTable("T", std::move(t)));
  Table dup(Schema({{"", "id", ValueType::kInt}}));
  EXPECT_FALSE(shared.CreateTable("T", std::move(dup)).ok());
  EXPECT_EQ(shared.epoch(), 1u);  // only the successful commit published
}

// ---- Transactional MaintainAll (the REFRESH error-path fix) ---------------

TEST(SharedEngineTest, FailedRefreshLeavesEngineUntouched) {
  // Queue a delta whose primary key duplicates a committed Log row: view
  // maintenance succeeds but the base-table commit must fail — and with it
  // the whole refresh, atomically.
  SvcEngine engine(MakeLogVideoDb());
  PlanPtr def = SqlToPlan(kVisitViewSql, *engine.db()).value();
  SVC_ASSERT_OK(engine.CreateView("visitView", std::move(def)));
  SVC_ASSERT_OK(engine.InsertRecord("Log", {Value::Int(0), Value::Int(2)}));

  const double stale_before = StaleSum(engine);
  const size_t base_rows_before =
      engine.db()->GetTable("Log").value()->NumRows();

  Status st = engine.MaintainAll();
  EXPECT_FALSE(st.ok()) << "duplicate-key commit should fail";

  // Nothing moved: the pending queue, the view table, and the base table
  // are exactly as before the failed refresh.
  EXPECT_TRUE(engine.IsStale());
  EXPECT_EQ(engine.pending().TotalInserts(), 1u);
  EXPECT_EQ(StaleSum(engine), stale_before);
  EXPECT_EQ(engine.db()->GetTable("Log").value()->NumRows(),
            base_rows_before);
}

// ---- Geometric chunk compaction (DeltaSet::CompactChunks) -----------------

TEST(SharedEngineTest, ThousandCommitMaintenancePeriodStaysCompact) {
  // One insert per commit for a thousand commits between REFRESHes: the
  // CoW queue seals one chunk per fork, so without compaction the pending
  // queue would hold ~1000 chunks (and catalog names). The geometric
  // policy bounds it well below 2*log2(rows) (+1 pre-compaction, +1 tail).
  auto shared = MakeSharedEngine();
  for (int64_t i = 0; i < 1000; ++i) {
    SVC_ASSERT_OK(shared->InsertRecord(
        "Log", {Value::Int(1000 + i), Value::Int(i % 5 + 1)}));
  }
  SnapshotPtr snap = shared->Snapshot();
  EXPECT_EQ(snap->engine.pending().InsertRows("Log"), 1000u);
  const size_t kBound = 2 * 10 + 2;  // cap for 1000 rows, +1 growth slack
  EXPECT_LE(snap->engine.pending().InsertTableNames("Log").size(), kBound);
  // The catalog must not accumulate stale chunk names from wider,
  // pre-compaction registrations (Register drops trailing leftovers).
  size_t chunk_names = 0;
  for (const auto& name : snap->engine.db().TableNames()) {
    if (name.rfind("__ins_Log@", 0) == 0) ++chunk_names;
  }
  EXPECT_LE(chunk_names, kBound);

  // Chunking-independence: a private engine that queued the same rows
  // without any forking (one big tail) answers bit-identically.
  SvcEngine flat(MakeLogVideoDb());
  SVC_ASSERT_OK(flat.CreateView(
      "visitView", SqlToPlan(kVisitViewSql, *flat.db()).value()));
  for (int64_t i = 0; i < 1000; ++i) {
    SVC_ASSERT_OK(flat.InsertRecord(
        "Log", {Value::Int(1000 + i), Value::Int(i % 5 + 1)}));
  }
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("visitCount"));
  SvcQueryOptions opts;
  opts.ratio = 0.5;
  SvcAnswer chunked = snap->engine.Query("visitView", q, opts).value();
  SvcAnswer tail_only = flat.Query("visitView", q, opts).value();
  EXPECT_EQ(chunked.estimate.value, tail_only.estimate.value);
  EXPECT_EQ(chunked.estimate.ci_low, tail_only.estimate.ci_low);
  EXPECT_EQ(chunked.estimate.ci_high, tail_only.estimate.ci_high);
  EXPECT_EQ(chunked.estimate.sample_rows, tail_only.estimate.sample_rows);

  // REFRESH commits the full logical sequence regardless of chunking.
  SVC_ASSERT_OK(shared->Refresh());
  EXPECT_EQ(
      shared->Snapshot()->engine.db().GetTable("Log").value()->NumRows(),
      1010u);
  SVC_ASSERT_OK(flat.MaintainAll());
  EXPECT_EQ(StaleSum(shared->Snapshot()->engine), StaleSum(flat));
}

TEST(SharedEngineTest, FailedSharedRefreshKeepsHeadAndPendingIntact) {
  auto shared = MakeSharedEngine();
  SVC_ASSERT_OK(shared->Commit([](SvcEngine* e) {
    return e->InsertRecord("Log", {Value::Int(0), Value::Int(2)});
  }));
  const uint64_t epoch = shared->epoch();
  EXPECT_FALSE(shared->Refresh().ok());
  EXPECT_EQ(shared->epoch(), epoch);
  EXPECT_EQ(shared->Snapshot()->engine.pending().TotalInserts(), 1u);
}

}  // namespace
}  // namespace svc
