// Inputs of the workloads, generated from the seed: base data, view
// definitions, statement templates and the statement streams.
#ifndef SVC_PERFBENCH_WORKLOADS_H_
#define SVC_PERFBENCH_WORKLOADS_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "relational/database.h"
#include "relational/value.h"
#include "tpcd/tpcd_gen.h"
#include "harness.h"

namespace perfbench {

/// One statement of a workload stream.
struct Op {
  Kind kind = Kind::kSvc;
  std::string sql;  ///< text form, literals inlined
  size_t rows = 0;        ///< delta rows of a write
  size_t user_bytes = 0;  ///< bytes of row data a write submits (durable workloads)
  bool probe = false;     ///< answer is checked against the fresh truth
};

/// A parameterized statement; '?' marks the one integer parameter drawn
/// uniformly from [lo, hi].
struct Template {
  const char* sql;
  Kind kind;
  int64_t lo, hi;
};

inline std::string Bind(const std::string& sql,
                        const std::vector<svc::Value>& params) {
  std::string out;
  size_t p = 0;
  for (char c : sql) {
    if (c == '?' && p < params.size()) {
      out += params[p++].ToString();
    } else {
      out += c;
    }
  }
  return out;
}

inline Op FromTemplate(const Template* tmpls, int t, svc::Rng* rng) {
  Op op;
  op.kind = tmpls[t].kind;
  op.sql = Bind(tmpls[t].sql, {svc::Value::Int(rng->UniformInt(tmpls[t].lo, tmpls[t].hi))});
  return op;
}

inline Op RefreshOp() {
  Op op;
  op.kind = Kind::kRefresh;
  op.sql = "REFRESH ALL";
  return op;
}

// ---- Video log (ingest_backlog) -------------------------------------------

constexpr int64_t kVideos = 200;

inline const char* kVisitViewSql =
    "CREATE MATERIALIZED VIEW visitView AS SELECT Log.videoId, COUNT(1) AS "
    "visitCount FROM Log, Video WHERE Log.videoId = Video.videoId GROUP BY "
    "Log.videoId";
inline const char* kLogViewSql =
    "CREATE MATERIALIZED VIEW logView SAMPLING KEY (sessionId) AS SELECT "
    "Log.sessionId, Video.videoId, Video.ownerId, Video.duration FROM Log, "
    "Video WHERE Log.videoId = Video.videoId";
inline const std::vector<std::string> kVideoViews = {"visitView", "logView"};

/// Read templates over the video log: five WITH SVC aggregates (scalar and
/// grouped, CORR and AQP, on the small aggregate view and the large SPJ
/// view), then two plain key lookups (on the base table and the SPJ view;
/// without an index each scans about 50 000 rows).
inline const Template kVideoTemplates[] = {
    {"SELECT COUNT(1) FROM visitView WHERE visitCount > ? "
     "WITH SVC(ratio=0.1, mode=corr)", Kind::kSvc, 20, 400},
    {"SELECT SUM(visitCount) FROM visitView WHERE videoId < ? "
     "WITH SVC(ratio=0.1, mode=aqp)", Kind::kSvc, 20, 200},
    {"SELECT ownerId, COUNT(1) FROM logView WHERE videoId < ? "
     "GROUP BY ownerId WITH SVC(ratio=0.1, mode=corr)", Kind::kSvc, 50, 200},
    {"SELECT AVG(duration) FROM logView WHERE videoId > ? "
     "WITH SVC(ratio=0.1, mode=aqp)", Kind::kSvc, 0, 100},
    {"SELECT ownerId, SUM(duration) FROM logView WHERE sessionId > ? "
     "GROUP BY ownerId WITH SVC(ratio=0.1, mode=aqp)", Kind::kSvc, 0, 20000},
    {"SELECT * FROM Log WHERE sessionId = ?", Kind::kSelect, 0, 49999},
    {"SELECT * FROM logView WHERE sessionId = ?", Kind::kSelect, 0, 49999},
};
constexpr int kNumVideoSvc = 5;
constexpr int kNumVideoTemplates = 7;

/// Log(sessionId, videoId) with Zipf video popularity and Video(videoId,
/// ownerId, duration): the paper's running example.
inline svc::Database VideoDb(size_t log_rows, uint64_t seed) {
  svc::Database db;
  svc::Table log(svc::Schema({{"", "sessionId", svc::ValueType::kInt},
                              {"", "videoId", svc::ValueType::kInt}}));
  (void)log.SetPrimaryKey({"sessionId"});
  svc::Table video(svc::Schema({{"", "videoId", svc::ValueType::kInt},
                                {"", "ownerId", svc::ValueType::kInt},
                                {"", "duration", svc::ValueType::kDouble}}));
  (void)video.SetPrimaryKey({"videoId"});
  svc::Rng rng(seed);
  svc::Zipfian popularity(kVideos, 1.1);
  for (int64_t v = 1; v <= kVideos; ++v) {
    video.AppendUnchecked({svc::Value::Int(v), svc::Value::Int(100 + v % 11),
                           svc::Value::Double(rng.Uniform(0.2, 3.0))});
  }
  for (size_t s = 0; s < log_rows; ++s) {
    log.AppendUnchecked(
        {svc::Value::Int(static_cast<int64_t>(s)),
         svc::Value::Int(static_cast<int64_t>(popularity.Next(&rng)))});
  }
  (void)db.CreateTable("Log", std::move(log));
  (void)db.CreateTable("Video", std::move(video));
  return db;
}

/// Generates Log INSERTs with fresh session ids and DELETE ranges of
/// committed rows, oldest first: the log is a sliding window, so deletes
/// can keep its size steady while inserts arrive.
class LogWriter {
 public:
  LogWriter(size_t log_rows, uint64_t seed)
      : next_id_(static_cast<int64_t>(log_rows)),
        committed_below_(static_cast<int64_t>(log_rows)),
        rng_(seed),
        popularity_(kVideos, 1.1) {}

  Op Insert(size_t n) {
    Op op;
    op.kind = Kind::kWrite;
    op.sql = "INSERT INTO Log VALUES ";
    for (size_t i = 0; i < n; ++i) {
      if (i) op.sql += ", ";
      op.sql += "(" + std::to_string(next_id_++) + ", " +
                std::to_string(popularity_.Next(&rng_)) + ")";
    }
    op.rows = n;
    op.user_bytes = 16 * n;
    return op;
  }

  /// Deletes the next (up to) `n` committed rows, oldest first.
  Op Delete(size_t n) {
    Op op;
    op.kind = Kind::kWrite;
    int64_t a = delete_cursor_;
    int64_t b = std::min<int64_t>(a + static_cast<int64_t>(n), committed_below_);
    delete_cursor_ = b;
    op.sql = "DELETE FROM Log WHERE sessionId >= " + std::to_string(a) +
             " AND sessionId < " + std::to_string(b);
    op.rows = static_cast<size_t>(b - a);
    op.user_bytes = 16 * op.rows;
    return op;
  }

  /// Every row inserted so far is committed (call after REFRESH).
  void Committed() { committed_below_ = next_id_; }

 private:
  int64_t next_id_;
  int64_t committed_below_;
  int64_t delete_cursor_ = 0;
  svc::Rng rng_;
  svc::Zipfian popularity_;
};

// ---- TPCD-Skew (refresh_cycle) ---------------------------------------------

inline const char* kLineordersSql =
    "CREATE MATERIALIZED VIEW lineorders SAMPLING KEY (l_orderkey) AS "
    "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey";
inline const char* kOrderRevenueSql =
    "CREATE MATERIALIZED VIEW orderRevenue AS SELECT l_orderkey, "
    "SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(1) AS n_lines "
    "FROM lineitem GROUP BY l_orderkey";
inline const std::vector<std::string> kTpcdViews = {"lineorders",
                                                    "orderRevenue"};

/// The 12 TPCD grouped queries on the join view (the same aggregates as
/// tpcd/tpcd_views.cc's TpcdJoinViewQueries, written as SQL), then one
/// scalar query on the aggregate view.
inline std::vector<std::string> TpcdQueries() {
  const std::string rev = "SUM(l_extendedprice * (1 - l_discount))";
  const std::string svc = " WITH SVC(ratio=0.1)";
  return {
      "SELECT o_orderpriority, " + rev +
          " FROM lineorders WHERE o_orderstatus = 'O' GROUP BY o_orderpriority" + svc,
      "SELECT o_orderpriority, COUNT(1) FROM lineorders WHERE o_orderdate >= 60 "
      "AND o_orderdate < 180 GROUP BY o_orderpriority" + svc,
      "SELECT l_suppkey, " + rev +
          " FROM lineorders WHERE o_orderdate >= 1 AND o_orderdate < 240 "
          "GROUP BY l_suppkey" + svc,
      "SELECT l_shipmode, " + rev +
          " FROM lineorders WHERE l_shipdate >= 90 AND l_shipdate < 270 "
          "GROUP BY l_shipmode" + svc,
      "SELECT o_orderdate, AVG(l_extendedprice * (1 - l_discount)) FROM "
      "lineorders WHERE o_orderdate >= 240 AND o_orderdate < 300 GROUP BY "
      "o_orderdate" + svc,
      "SELECT l_partkey, SUM(l_extendedprice * (1 - l_discount) - l_quantity * "
      "10) FROM lineorders GROUP BY l_partkey" + svc,
      "SELECT o_custkey, " + rev +
          " FROM lineorders WHERE l_returnflag = 'R' GROUP BY o_custkey" + svc,
      "SELECT l_shipmode, COUNT(1) FROM lineorders WHERE o_orderpriority = "
      "'1-URGENT' OR o_orderpriority = '2-HIGH' GROUP BY l_shipmode" + svc,
      "SELECT l_returnflag, AVG(l_discount) FROM lineorders WHERE l_shipdate >= "
      "150 AND l_shipdate < 200 GROUP BY l_returnflag" + svc,
      "SELECT o_custkey, SUM(l_quantity) FROM lineorders WHERE o_totalprice > "
      "250000 GROUP BY o_custkey" + svc,
      "SELECT l_returnflag, " + rev +
          " FROM lineorders WHERE l_quantity >= 1 AND l_quantity <= 15 GROUP "
          "BY l_returnflag" + svc,
      "SELECT l_suppkey, COUNT(1) FROM lineorders WHERE o_orderstatus = 'F' "
      "GROUP BY l_suppkey" + svc,
      "SELECT SUM(revenue) FROM orderRevenue WHERE n_lines > 2" + svc,
  };
}

inline svc::TpcdConfig TpcdConfigFor(uint64_t seed) {
  svc::TpcdConfig cfg;
  cfg.scale_factor = 0.02;
  cfg.zipf_z = 2.0;
  cfg.seed = seed;
  return cfg;
}

/// One refresh cycle's update batch against TPCD-Skew: new orders with
/// four lineitems each, as 500-row lineitem INSERTs, plus DELETEs of the
/// lineitems of old orders (never touched before).
class TpcdWriter {
 public:
  TpcdWriter(const svc::Database& db, const svc::TpcdConfig& cfg,
             uint64_t seed)
      : rng_(seed),
        customers_(static_cast<int64_t>(cfg.NumCustomers())),
        parts_(static_cast<int64_t>(cfg.NumParts())),
        suppliers_(static_cast<int64_t>(cfg.NumSuppliers())) {
    auto orders = db.GetTable("orders");
    auto lineitem = db.GetTable("lineitem");
    int64_t max_key = 0;
    if (orders.ok()) {
      for (const auto& r : (*orders)->rows()) {
        max_key = std::max(max_key, r[0].AsInt());
      }
    }
    next_order_ = max_key + 1;
    newest_order_ = max_key;
    if (lineitem.ok()) {
      for (const auto& r : (*lineitem)->rows()) ++lines_of_[r[0].AsInt()];
    }
  }

  /// Appends one cycle's writes: 2 orders INSERTs, 2 lineitem INSERTs of
  /// 500 rows and 8 lineitem DELETEs of 7 old orders each.
  void Cycle(std::vector<Op>* out) {
    static const char* kPrio[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                  "4-NOT SPECIFIED", "5-LOW"};
    static const char* kStatus[] = {"O", "F", "P"};
    static const char* kMode[] = {"AIR", "SHIP", "RAIL", "TRUCK",
                                  "MAIL", "FOB", "REG AIR"};
    static const char* kFlag[] = {"A", "N", "R"};
    const int64_t first = next_order_;
    next_order_ += 250;
    for (int part = 0; part < 2; ++part) {
      Op op;
      op.kind = Kind::kWrite;
      op.sql = "INSERT INTO orders VALUES ";
      for (int i = 0; i < 125; ++i) {
        int64_t key = first + part * 125 + i;
        char buf[200];
        std::snprintf(buf, sizeof(buf), "%s(%lld, %lld, '%s', %.2f, %lld, '%s')",
                      i ? ", " : "", static_cast<long long>(key),
                      static_cast<long long>(rng_.UniformInt(1, customers_)),
                      kStatus[rng_.UniformInt(0, 2)],
                      rng_.Uniform(1000.0, 400000.0),
                      static_cast<long long>(rng_.UniformInt(1, 365)),
                      kPrio[rng_.UniformInt(0, 4)]);
        op.sql += buf;
      }
      op.rows = 125;
      out->push_back(std::move(op));
    }
    for (int part = 0; part < 2; ++part) {
      Op op;
      op.kind = Kind::kWrite;
      op.sql = "INSERT INTO lineitem VALUES ";
      for (int i = 0; i < 500; ++i) {
        int64_t key = first + part * 125 + i / 4;
        int64_t qty = rng_.UniformInt(1, 50);
        char buf[240];
        std::snprintf(
            buf, sizeof(buf), "%s(%lld, %d, %lld, %lld, %lld, %.2f, %.2f, '%s', '%s', %lld)",
            i ? ", " : "", static_cast<long long>(key), i % 4 + 1,
            static_cast<long long>(rng_.UniformInt(1, parts_)),
            static_cast<long long>(rng_.UniformInt(1, suppliers_)),
            static_cast<long long>(qty), qty * rng_.Uniform(900.0, 2000.0),
            rng_.UniformInt(0, 10) / 100.0, kFlag[rng_.UniformInt(0, 2)],
            kMode[rng_.UniformInt(0, 6)],
            static_cast<long long>(rng_.UniformInt(1, 365)));
        op.sql += buf;
      }
      op.rows = 500;
      out->push_back(std::move(op));
    }
    for (int part = 0; part < 8; ++part) {
      Op op;
      op.kind = Kind::kWrite;
      int64_t a = delete_cursor_, b = a + 7;
      delete_cursor_ = b;
      op.sql = "DELETE FROM lineitem WHERE l_orderkey >= " + std::to_string(a) +
               " AND l_orderkey < " + std::to_string(b);
      for (int64_t k = a; k < b; ++k) {
        auto it = lines_of_.find(k);
        if (it != lines_of_.end()) op.rows += it->second;
      }
      out->push_back(std::move(op));
    }
    newest_order_ = next_order_ - 1;
  }

  /// A plain point lookup on orders (old or new keys).
  Op Lookup() {
    Op op;
    op.kind = Kind::kSelect;
    op.sql = "SELECT * FROM orders WHERE o_orderkey = " +
             std::to_string(rng_.UniformInt(1, newest_order_ > 0 ? newest_order_ : 1));
    return op;
  }

 private:
  svc::Rng rng_;
  int64_t customers_, parts_, suppliers_;
  int64_t next_order_ = 1;
  int64_t newest_order_ = 0;
  int64_t delete_cursor_ = 1;
  std::map<int64_t, size_t> lines_of_;
};

}  // namespace perfbench

#endif  // SVC_PERFBENCH_WORKLOADS_H_
