// Differential test of DeltaSet's pending-key index: after every step of a
// random sequence of appends, statement seals, forks, compaction-triggering
// growth, Merge, RetainRows, ApplyToBase and checkpoint encode/decode, the
// index must answer exactly like a naive key set rebuilt from
// ForEachInsert / ForEachDelete.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/serde.h"
#include "tests/test_util.h"
#include "view/delta.h"

namespace svc {
namespace {

constexpr int64_t kKeys = 64;
const std::vector<size_t> kPk = {0};

std::string Key(int64_t k) { return EncodeRowKey({Value::Int(k)}, {0}); }

Row MakeRow(int64_t k, int64_t v) { return {Value::Int(k), Value::Int(v)}; }

/// R(k, v) keyed on k, holding the committed keys; N(a, b) has no key.
Database MakeDb() {
  Database db;
  Table r(Schema({{"", "k", ValueType::kInt}, {"", "v", ValueType::kInt}}));
  EXPECT_TRUE(r.SetPrimaryKey({"k"}).ok());
  for (int64_t k = 0; k < kKeys; k += 2) {
    EXPECT_TRUE(r.Insert(MakeRow(k, 10 * k)).ok());
  }
  Table n(Schema({{"", "a", ValueType::kInt}, {"", "b", ValueType::kInt}}));
  EXPECT_TRUE(db.CreateTable("R", std::move(r)).ok());
  EXPECT_TRUE(db.CreateTable("N", std::move(n)).ok());
  return db;
}

/// The naive index: every pending key of R, rebuilt from the row sequence.
struct NaiveKeys {
  std::set<std::string> inserts;
  std::set<std::string> deletes;
};

NaiveKeys Rebuild(const DeltaSet& d) {
  NaiveKeys out;
  d.ForEachInsert("R", [&](const Row& r) {
    out.inserts.insert(EncodeRowKey(r, kPk));
  });
  d.ForEachDelete("R", [&](const Row& r) {
    out.deletes.insert(EncodeRowKey(r, kPk));
  });
  return out;
}

void ExpectIndexMatches(const DeltaSet& d, const NaiveKeys& naive,
                        const std::string& step) {
  for (int64_t k = 0; k < kKeys; ++k) {
    const std::string key = Key(k);
    ASSERT_EQ(d.HasPendingInsert("R", key), naive.inserts.count(key) > 0)
        << "insert key " << k << " after " << step;
    ASSERT_EQ(d.HasPendingDelete("R", key), naive.deletes.count(key) > 0)
        << "delete key " << k << " after " << step;
  }
  // A relation without a primary key is never indexed.
  ASSERT_FALSE(d.HasPendingInsert("N", Key(1))) << step;
  ASSERT_FALSE(d.HasPendingInsert("Missing", Key(1))) << step;
}

/// Drives one random sequence. Writes follow the session's discipline
/// (no key queued twice, inserts only of keys absent or queued for
/// deletion, deletes only of committed keys) so ApplyToBase always
/// succeeds; validity is decided by the naive rebuild, never by the index
/// under test.
class IndexDriver {
 public:
  explicit IndexDriver(uint64_t seed) : rng_(seed), db_(MakeDb()) {}

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) {
      const std::string step = Step();
      ExpectIndexMatches(d_, Rebuild(d_), step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Frozen forks never observed a later append.
    for (const auto& [fork, naive] : frozen_) {
      ExpectIndexMatches(*fork, naive, "frozen fork");
      EXPECT_EQ(Rebuild(*fork).inserts, naive.inserts);
      EXPECT_EQ(Rebuild(*fork).deletes, naive.deletes);
    }
  }

 private:
  bool Committed(int64_t k) const {
    return (*db_.GetTable("R"))->FindByEncodedKey(Key(k)).ok();
  }

  /// Queues a valid insert into `into` (pending state per `naive`).
  bool TryInsert(DeltaSet* into, NaiveKeys* naive) {
    for (int tries = 0; tries < 8; ++tries) {
      const int64_t k = rng_.UniformInt(0, kKeys - 1);
      const std::string key = Key(k);
      if (naive->inserts.count(key)) continue;
      if (Committed(k) && !naive->deletes.count(key)) continue;
      EXPECT_TRUE(
          into->AddInsert(db_, "R", MakeRow(k, rng_.UniformInt(0, 99))).ok());
      naive->inserts.insert(key);
      return true;
    }
    return false;
  }

  bool TryDelete() {
    NaiveKeys naive = Rebuild(d_);
    for (int tries = 0; tries < 8; ++tries) {
      const int64_t k = rng_.UniformInt(0, kKeys - 1);
      if (!Committed(k) || naive.deletes.count(Key(k))) continue;
      EXPECT_TRUE(d_.AddDelete(db_, "R", MakeRow(k, 10 * k)).ok());
      return true;
    }
    return false;
  }

  std::string Step() {
    NaiveKeys naive = Rebuild(d_);
    switch (rng_.UniformInt(0, 9)) {
      case 0:
      case 1:
        TryInsert(&d_, &naive);
        return "AddInsert";
      case 2:
        TryDelete();
        return "AddDelete";
      case 3:
        d_.Seal();
        return "Seal";
      case 4: {
        // Fork: keep the old set frozen, continue on the copy.
        auto frozen = std::make_unique<DeltaSet>(d_);
        DeltaSet next(d_);
        frozen_.emplace_back(std::move(frozen), naive);
        d_ = std::move(next);
        return "fork";
      }
      case 5:
        // Growth by many one-row statements: enough chunks to compact.
        for (int i = 0; i < 24; ++i) {
          if (TryInsert(&d_, &naive)) d_.Seal();
        }
        return "growth";
      case 6: {
        DeltaSet other;
        for (int i = 0; i < 3; ++i) TryInsert(&other, &naive);
        EXPECT_TRUE(d_.Merge(std::move(other)).ok());
        return "Merge";
      }
      case 7: {
        // Parity keeps a key's delete and re-insert together, so the
        // queue stays applicable.
        const int64_t parity = rng_.UniformInt(0, 1);
        d_.RetainRows("R", [&](const Row& r) {
          return r[0].AsInt() % 2 == parity;
        });
        return "RetainRows";
      }
      case 8: {
        if (rng_.UniformInt(0, 2) != 0) return "skip ApplyToBase";
        EXPECT_TRUE(d_.Register(&db_).ok());
        EXPECT_TRUE(d_.ApplyToBase(&db_).ok());
        return "ApplyToBase";
      }
      default: {
        std::string bytes;
        EncodeDeltaSet(d_, &bytes);
        ByteReader r(bytes);
        auto decoded = DecodeDeltaSet(&r, db_);
        EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
        if (decoded.ok()) d_ = std::move(decoded).value();
        return "encode/decode";
      }
    }
  }

  Rng rng_;
  Database db_;
  DeltaSet d_;
  std::vector<std::pair<std::unique_ptr<DeltaSet>, NaiveKeys>> frozen_;
};

TEST(DeltaIndexTest, MatchesNaiveRebuildOverRandomSequences) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    IndexDriver(seed).Run(300);
    if (HasFatalFailure()) return;
  }
}

TEST(DeltaIndexTest, GrowthCompactsChunksAndKeepsEveryKey) {
  Database db = MakeDb();
  DeltaSet d;
  constexpr int64_t kRows = 4096;
  for (int64_t k = 0; k < kRows; ++k) {
    ASSERT_TRUE(d.AddInsert(db, "R", MakeRow(kKeys + k, 0)).ok());
    d.Seal();  // one statement per row
  }
  ASSERT_TRUE(d.Register(&db).ok());
  // CompactChunks holds the chunk count at log2(rows) + 1.
  EXPECT_LE(d.InsertTableNames("R").size(), 12u + 1);
  for (int64_t k = 0; k < kRows; ++k) {
    ASSERT_TRUE(d.HasPendingInsert("R", Key(kKeys + k))) << k;
  }
  EXPECT_FALSE(d.HasPendingInsert("R", Key(kKeys + kRows)));
  EXPECT_FALSE(d.HasPendingDelete("R", Key(kKeys)));
}

TEST(DeltaIndexTest, ForkNeverObservesALaterAppend) {
  Database db = MakeDb();
  DeltaSet d;
  ASSERT_TRUE(d.AddInsert(db, "R", MakeRow(101, 0)).ok());
  DeltaSet fork(d);  // seals a copy of d's tail
  ASSERT_TRUE(d.AddInsert(db, "R", MakeRow(102, 0)).ok());
  d.Seal();
  ASSERT_TRUE(fork.AddInsert(db, "R", MakeRow(103, 0)).ok());
  EXPECT_TRUE(d.HasPendingInsert("R", Key(102)));
  EXPECT_FALSE(d.HasPendingInsert("R", Key(103)));
  EXPECT_TRUE(fork.HasPendingInsert("R", Key(101)));
  EXPECT_FALSE(fork.HasPendingInsert("R", Key(102)));
  EXPECT_TRUE(fork.HasPendingInsert("R", Key(103)));
  EXPECT_EQ(d.InsertRows("R"), 2u);
  EXPECT_EQ(fork.InsertRows("R"), 2u);
}

}  // namespace
}  // namespace svc
