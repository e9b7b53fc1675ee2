// Tests for the cleaned-sample cache (core/sample_cache.h) and incremental
// sample maintenance (AdvanceCleanedSamples): the serving hot path must be
// *bit-identical* to the cold cleaning pipeline — same sample rows in the
// same order — across ingest rounds, view shapes, and thread counts, with
// the cache's counters proving which path (hit / incremental advance /
// full re-clean) actually served each query. A SharedEngine test races
// concurrent snapshot readers on one cache entry: exactly one cleaning run
// may happen (the TSan job exercises the locking). The stale-answer memo
// behind CORR queries (core/identity_memo.h) is checked the same way: bit-
// identical answers with it on or off, shared across forks, invalidated by
// maintenance, never fooled by a freed-and-reallocated table, LRU-bounded.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/shared_engine.h"
#include "core/svc.h"
#include "sql/planner.h"
#include "tests/test_util.h"

namespace svc {
namespace {

using testing_util::MakeLogVideoDb;

Schema FactSchema() {
  return Schema({{"", "id", ValueType::kInt},
                 {"", "g", ValueType::kInt},
                 {"", "v", ValueType::kDouble}});
}

/// An engine over fact table F (and dimension D), with one view `V`
/// defined by `view_sql`.
SvcEngine MakeFactEngine(const std::string& view_sql, uint64_t seed,
                         int64_t rows = 80) {
  Database db;
  Table fact(FactSchema());
  EXPECT_TRUE(fact.SetPrimaryKey({"id"}).ok());
  Rng rng(seed);
  for (int64_t id = 0; id < rows; ++id) {
    EXPECT_TRUE(fact.Insert({Value::Int(id),
                             Value::Int(rng.UniformInt(1, 5)),
                             Value::Double(rng.UniformInt(0, 1000) / 16.0)})
                    .ok());
  }
  EXPECT_TRUE(db.CreateTable("F", std::move(fact)).ok());
  Table dim(Schema({{"", "g", ValueType::kInt},
                    {"", "label", ValueType::kInt}}));
  EXPECT_TRUE(dim.SetPrimaryKey({"g"}).ok());
  for (int64_t g = 1; g <= 5; ++g) {
    EXPECT_TRUE(dim.Insert({Value::Int(g), Value::Int(100 + g)}).ok());
  }
  EXPECT_TRUE(db.CreateTable("D", std::move(dim)).ok());
  SvcEngine engine(std::move(db));
  PlanPtr def = SqlToPlan(view_sql, *engine.db()).value();
  EXPECT_TRUE(engine.CreateView("V", std::move(def)).ok());
  return engine;
}

void IngestRandomInserts(SvcEngine* engine, Rng* rng, int64_t* next_id,
                         int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    SVC_ASSERT_OK(engine->InsertRecord(
        "F", {Value::Int((*next_id)++), Value::Int(rng->UniformInt(1, 5)),
              Value::Double(rng->UniformInt(0, 1000) / 16.0)}));
  }
}

/// Asserts two tables are bit-identical: same schema width, same rows in
/// the same order, values compared exactly.
void ExpectTablesIdentical(const Table& got, const Table& want) {
  ASSERT_EQ(got.schema().NumColumns(), want.schema().NumColumns());
  ASSERT_EQ(got.NumRows(), want.NumRows());
  for (size_t i = 0; i < got.NumRows(); ++i) {
    const Row& a = got.row(i);
    const Row& b = want.row(i);
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_TRUE(a[c] == b[c])
          << "row " << i << " col " << c << ": " << a[c].ToString()
          << " vs " << b[c].ToString();
    }
  }
}

uint64_t TotalAdvances(const SvcEngine& engine) {
  uint64_t n = 0;
  for (const auto& [view, s] : engine.CacheStats()) {
    n += s.incremental_advances;
  }
  return n;
}

const char* const kViews[] = {
    // Single-table aggregate (the paper's V11 shape).
    "SELECT g, COUNT(1) AS c, SUM(v) AS sv FROM F GROUP BY g",
    // Aggregate over a selection (σ below γ).
    "SELECT g, SUM(v) AS sv FROM F WHERE v > 20.0 GROUP BY g",
    // Aggregate over a fact-dimension join (V12 shape).
    "SELECT F.g, COUNT(1) AS c, SUM(F.v) AS sv "
    "FROM F, D WHERE F.g = D.g GROUP BY F.g",
    // avg() exercises the hidden sum/cnt merge columns.
    "SELECT g, AVG(v) AS av FROM F GROUP BY g",
};

// The cached sample after each ingest round must equal a cold re-clean of
// the same engine state bit-for-bit (values and row order), and the
// incremental path must actually serve some of those rounds (insert-only
// single-relation ingest is its supported shape).
TEST(SampleCacheTest, AdvancedSamplesBitIdenticalToColdClean) {
  for (const char* view_sql : kViews) {
    for (uint64_t seed : {7u, 19u, 101u}) {
      SCOPED_TRACE(std::string("view=\"") + view_sql +
                   "\" seed=" + std::to_string(seed));
      SvcEngine engine = MakeFactEngine(view_sql, seed);
      Rng rng(seed ^ 0xadce11);
      int64_t next_id = 1000000;
      for (int round = 0; round < 4; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        IngestRandomInserts(&engine, &rng, &next_id,
                            rng.UniformInt(1, 15));
        for (double ratio : {0.3, 0.7}) {
          CleanOptions opts{ratio, HashFamily::kFnv1a};
          SVC_ASSERT_OK_AND_ASSIGN(
              std::shared_ptr<const CorrespondingSamples> cached,
              engine.CleanSampleCached("V", opts));
          SVC_ASSERT_OK_AND_ASSIGN(CorrespondingSamples cold,
                                   engine.CleanSample("V", opts));
          ExpectTablesIdentical(cached->fresh, cold.fresh);
          ExpectTablesIdentical(cached->stale, cold.stale);
        }
      }
      // Rounds 1..3 must have been served by the incremental path (round
      // 0 populates the entries with a full clean).
      EXPECT_GE(TotalAdvances(engine), 3u)
          << "the advance gates rejected a supported shape";

      // After maintenance the view table changes: entries must rebuild,
      // and the next ingest round must advance again.
      SVC_ASSERT_OK(engine.MaintainAll());
      IngestRandomInserts(&engine, &rng, &next_id, 5);
      CleanOptions opts{0.3, HashFamily::kFnv1a};
      SVC_ASSERT_OK_AND_ASSIGN(
          std::shared_ptr<const CorrespondingSamples> cached,
          engine.CleanSampleCached("V", opts));
      SVC_ASSERT_OK_AND_ASSIGN(CorrespondingSamples cold,
                               engine.CleanSample("V", opts));
      ExpectTablesIdentical(cached->fresh, cold.fresh);
    }
  }
}

// Deletes are outside the advance gates: the cache must fall back to a
// full re-clean and still match the cold pipeline exactly.
TEST(SampleCacheTest, DeletesFallBackToFullClean) {
  SvcEngine engine = MakeFactEngine(kViews[0], 5);
  Rng rng(5);
  int64_t next_id = 1000000;
  IngestRandomInserts(&engine, &rng, &next_id, 10);
  CleanOptions opts{0.5, HashFamily::kFnv1a};
  SVC_ASSERT_OK(engine.CleanSampleCached("V", opts).status());
  const uint64_t cleans_before = engine.CacheStats().at("V").full_cleans;

  SVC_ASSERT_OK_AND_ASSIGN(const Table* fact, engine.db()->GetTable("F"));
  SVC_ASSERT_OK(engine.DeleteRecord("F", fact->row(3)));
  SVC_ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const CorrespondingSamples> cached,
      engine.CleanSampleCached("V", opts));
  EXPECT_EQ(engine.CacheStats().at("V").full_cleans, cleans_before + 1);
  SVC_ASSERT_OK_AND_ASSIGN(CorrespondingSamples cold,
                           engine.CleanSample("V", opts));
  ExpectTablesIdentical(cached->fresh, cold.fresh);
}

// An unchanged engine serves repeated queries from the same cached object.
TEST(SampleCacheTest, RepeatedQueriesHitOneEntry) {
  SvcEngine engine = MakeFactEngine(kViews[0], 9);
  Rng rng(9);
  int64_t next_id = 1000000;
  IngestRandomInserts(&engine, &rng, &next_id, 12);
  CleanOptions opts{0.5, HashFamily::kFnv1a};
  SVC_ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const CorrespondingSamples> first,
      engine.CleanSampleCached("V", opts));
  SVC_ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const CorrespondingSamples> second,
      engine.CleanSampleCached("V", opts));
  EXPECT_EQ(first.get(), second.get()) << "second query re-cleaned";
  const ViewCacheStats stats = engine.CacheStats().at("V");
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // Query/QueryGrouped answers are identical with the cache off.
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("sv"));
  SvcQueryOptions qopts;
  qopts.ratio = 0.5;
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer warm, engine.Query("V", q, qopts));
  engine.set_sample_cache_enabled(false);
  SVC_ASSERT_OK_AND_ASSIGN(SvcAnswer cold, engine.Query("V", q, qopts));
  EXPECT_EQ(warm.estimate.value, cold.estimate.value);
  EXPECT_EQ(warm.estimate.ci_low, cold.estimate.ci_low);
  EXPECT_EQ(warm.estimate.ci_high, cold.estimate.ci_high);
  EXPECT_EQ(warm.estimate.sample_rows, cold.estimate.sample_rows);
}

// Deltas to relations a view does not read must not invalidate its entry:
// the advance recognizes the no-op and reuses the samples object.
TEST(SampleCacheTest, ForeignRelationDeltasReuseEntry) {
  SvcEngine engine(MakeLogVideoDb());
  PlanPtr def = SqlToPlan(
      "SELECT videoId, COUNT(1) AS c FROM Log GROUP BY videoId",
      *engine.db()).value();
  SVC_ASSERT_OK(engine.CreateView("V", std::move(def)));
  SVC_ASSERT_OK(engine.InsertRecord(
      "Log", {Value::Int(500), Value::Int(1)}));
  CleanOptions opts{0.8, HashFamily::kFnv1a};
  SVC_ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const CorrespondingSamples> first,
      engine.CleanSampleCached("V", opts));
  // Video is not read by V; ingesting into it bumps the delta version.
  SVC_ASSERT_OK(engine.InsertRecord(
      "Video", {Value::Int(50), Value::Int(101), Value::Double(1.0)}));
  SVC_ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const CorrespondingSamples> second,
      engine.CleanSampleCached("V", opts));
  EXPECT_EQ(first.get(), second.get())
      << "foreign-relation delta forced a re-clean";
  EXPECT_EQ(engine.CacheStats().at("V").incremental_advances, 1u);
}

// An engine fork (the SharedEngine commit path) carries the cache entries:
// after an insert-only ingest on the fork, its first query advances the
// carried sample instead of re-cleaning from scratch.
TEST(SampleCacheTest, ForkCarriesEntriesAndAdvances) {
  SvcEngine engine = MakeFactEngine(kViews[0], 21);
  Rng rng(21);
  int64_t next_id = 1000000;
  IngestRandomInserts(&engine, &rng, &next_id, 8);
  CleanOptions opts{0.5, HashFamily::kFnv1a};
  SVC_ASSERT_OK(engine.CleanSampleCached("V", opts).status());

  SvcEngine fork(engine);
  IngestRandomInserts(&fork, &rng, &next_id, 6);
  SVC_ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const CorrespondingSamples> cached,
      fork.CleanSampleCached("V", opts));
  EXPECT_EQ(fork.CacheStats().at("V").incremental_advances, 1u);
  EXPECT_EQ(fork.CacheStats().at("V").full_cleans, 1u);  // carried counter
  SVC_ASSERT_OK_AND_ASSIGN(CorrespondingSamples cold,
                           fork.CleanSample("V", opts));
  ExpectTablesIdentical(cached->fresh, cold.fresh);
  // The parent's cache is untouched by the fork's activity.
  EXPECT_EQ(engine.CacheStats().at("V").incremental_advances, 0u);
}

// Concurrent readers of one published snapshot racing on the same cache
// key: exactly one cleaning run happens, every reader gets the same
// answer. This is the test the TSan job leans on.
TEST(SampleCacheTest, ConcurrentSnapshotReadersPopulateOnce) {
  SvcEngine engine = MakeFactEngine(kViews[0], 33, /*rows=*/400);
  Rng rng(33);
  int64_t next_id = 1000000;
  IngestRandomInserts(&engine, &rng, &next_id, 40);
  auto shared = std::make_shared<SharedEngine>(std::move(engine));

  constexpr int kReaders = 8;
  AggregateQuery q = AggregateQuery::Sum(Expr::Col("sv"));
  SvcQueryOptions qopts;
  qopts.ratio = 0.4;
  std::vector<SvcAnswer> answers(kReaders);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  SnapshotPtr snap = shared->Snapshot();
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      auto r = snap->engine.Query("V", q, qopts);
      if (!r.ok()) {
        ++failures;
        return;
      }
      answers[t] = std::move(r).value();
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  const ViewCacheStats stats = snap->engine.CacheStats().at("V");
  EXPECT_EQ(stats.misses, 1u) << "readers raced into multiple cleaning runs";
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kReaders - 1));
  for (int t = 1; t < kReaders; ++t) {
    EXPECT_EQ(answers[t].estimate.value, answers[0].estimate.value);
    EXPECT_EQ(answers[t].estimate.ci_low, answers[0].estimate.ci_low);
    EXPECT_EQ(answers[t].estimate.ci_high, answers[0].estimate.ci_high);
    EXPECT_EQ(answers[t].estimate.sample_rows,
              answers[0].estimate.sample_rows);
  }
}

/// Every field of a grouped CORR answer, doubles in hex.
std::string GroupedBits(const SvcGroupedAnswer& a) {
  std::string out;
  for (size_t g = 0; g < a.result.group_keys.size(); ++g) {
    const Estimate& e = a.result.estimates[g];
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s:%a[%a,%a]%zu;",
                  a.result.group_keys[g][0].ToString().c_str(), e.value,
                  e.ci_low, e.ci_high, e.sample_rows);
    out += buf;
  }
  return out;
}

MemoStats StaleStats(const SvcEngine& engine) {
  auto stats = engine.StaleAnswerStats();
  auto it = stats.find("V");
  return it == stats.end() ? MemoStats{} : it->second;
}

// SvcEngine's stale-answer memo is shared by every fork: a fork hits the
// entries its parent computed while the view table is the same object, an
// ingest on the fork keeps hitting (the view is unchanged), and the fork's
// maintenance misses. Every answer equals a cache-off copy's bit for bit.
TEST(SampleCacheTest, StaleAnswerMemoSharedAcrossForksUntilMaintenance) {
  SvcEngine engine = MakeFactEngine(kViews[3], 13, /*rows=*/200);
  Rng rng(13);
  int64_t next_id = 1000000;
  IngestRandomInserts(&engine, &rng, &next_id, 10);
  AggregateQuery q = AggregateQuery::Avg(Expr::Col("av"));
  SvcQueryOptions opts;
  opts.ratio = 0.5;
  auto grouped = [&](const SvcEngine& e) {
    Result<SvcGroupedAnswer> r = e.QueryGrouped("V", {"g"}, q, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? GroupedBits(*r) : std::string();
  };
  auto reference = [&](const SvcEngine& e) {
    SvcEngine off(e);
    off.set_sample_cache_enabled(false);
    return grouped(off);
  };

  EXPECT_EQ(grouped(engine), reference(engine));
  EXPECT_EQ(StaleStats(engine).misses, 1u);

  SvcEngine fork(engine);
  EXPECT_EQ(grouped(fork), reference(fork));
  EXPECT_EQ(StaleStats(fork).hits, 1u) << "fork did not reuse the entry";
  EXPECT_EQ(StaleStats(engine).hits, 1u) << "forks do not share the memo";

  IngestRandomInserts(&fork, &rng, &next_id, 6);
  SVC_ASSERT_OK(fork.DeleteRecord("F", (*fork.db()->GetTable("F"))->row(4)));
  EXPECT_EQ(grouped(fork), reference(fork));
  EXPECT_EQ(StaleStats(fork).misses, 1u) << "ingest invalidated the entry";

  SVC_ASSERT_OK(fork.MaintainAll());
  EXPECT_EQ(grouped(fork), reference(fork));
  EXPECT_EQ(StaleStats(fork).misses, 2u) << "maintenance kept the entry";
  // One entry per (view, query): it now holds the fork's maintained table,
  // so the parent (still on the old table) misses, and recomputes the same
  // answer as before.
  EXPECT_EQ(grouped(engine), reference(engine));
  EXPECT_EQ(StaleStats(engine).misses, 3u);
}

// A memo entry whose input was freed must miss, even when a new object
// reuses the address (held weakly, the dead input stays expired).
TEST(SampleCacheTest, IdentityMemoFreedInputNeverHits) {
  IdentityMemo<int> memo;
  int computed = 0;
  auto lookup = [&](const std::shared_ptr<const Table>& t) {
    return *memo
                .GetOrCompute("V", "q", {t}, /*use_memo=*/true,
                              [&]() -> Result<int> { return ++computed; })
                .value();
  };
  auto table = std::make_shared<const Table>(FactSchema());
  EXPECT_EQ(lookup(table), 1);
  EXPECT_EQ(lookup(table), 1);
  const void* old_address = table.get();
  table.reset();
  // Allocate until a table lands on the freed address (allocators reuse
  // the block right away); the memo must miss whether or not one does.
  std::vector<std::shared_ptr<const Table>> keep;
  bool reused = false;
  for (int i = 0; i < 64 && !reused; ++i) {
    keep.push_back(std::make_shared<const Table>(FactSchema()));
    reused = keep.back().get() == old_address;
  }
  EXPECT_EQ(lookup(keep.back()), 2) << (reused ? "address reused" : "");
  EXPECT_EQ(memo.Stats().at("V").hits, 1u);
  EXPECT_EQ(memo.Stats().at("V").misses, 2u);
}

// The memo holds at most kMaxEntries entries, evicting the least recently
// used; with use_memo false it is bypassed (no entry, no counter).
TEST(SampleCacheTest, IdentityMemoIsLruBounded) {
  IdentityMemo<int> memo;
  auto table = std::make_shared<const Table>(FactSchema());
  int computed = 0;
  auto lookup = [&](const std::string& key, bool use_memo = true) {
    return *memo
                .GetOrCompute("V", key, {table}, use_memo,
                              [&]() -> Result<int> { return ++computed; })
                .value();
  };
  constexpr size_t kMax = IdentityMemo<int>::kMaxEntries;
  for (size_t k = 0; k < kMax; ++k) lookup(std::to_string(k));
  EXPECT_EQ(lookup("0"), 1);  // refreshes key 0: key 1 is now the LRU
  lookup("overflow");         // evicts key 1
  EXPECT_EQ(computed, static_cast<int>(kMax) + 1);
  EXPECT_EQ(lookup("0"), 1);
  EXPECT_EQ(lookup("2"), 3);
  EXPECT_EQ(lookup("1"), static_cast<int>(kMax) + 2) << "LRU entry kept";
  const MemoStats before = memo.Stats().at("V");
  EXPECT_EQ(lookup("0", /*use_memo=*/false), static_cast<int>(kMax) + 3);
  EXPECT_EQ(memo.Stats().at("V").hits, before.hits);
  EXPECT_EQ(memo.Stats().at("V").misses, before.misses);
}

}  // namespace
}  // namespace svc
