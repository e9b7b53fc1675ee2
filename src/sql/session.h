#ifndef SVC_SQL_SESSION_H_
#define SVC_SQL_SESSION_H_

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/sharded_engine.h"
#include "core/shared_engine.h"
#include "core/svc.h"
#include "sql/parser.h"
#include "storage/durable_engine.h"

namespace svc {

/// What a statement produced.
enum class SqlResultKind {
  kOk,        ///< DDL / DML: no rows, `message` summarizes the effect
  kRows,      ///< plain SELECT: `rows` holds the result relation
  kEstimate,  ///< SELECT ... WITH SVC: `rows` holds estimate ± CI columns
};

/// The result of executing one SQL statement.
struct SqlResult {
  SqlResultKind kind = SqlResultKind::kOk;
  Table rows;           ///< kRows / kEstimate
  std::string message;  ///< one-line human-readable summary (always set)
  /// For kEstimate: which estimator answered (matters with mode=auto).
  EstimatorMode mode_used = EstimatorMode::kCorr;
  /// For kEstimate: the answer was produced under degraded admission (a
  /// reduced sampling ratio — same estimator mode, wider CI). Set by the
  /// server's --degrade path and carried over the wire (protocol v2), so
  /// clients can tell a shed-load answer from a normal one.
  bool degraded = false;
};

/// Anything that can execute SQL text and return a SqlResult: an in-process
/// SqlSession, or a SvcClient talking to a remote svc_served. Results cross
/// this interface as data (rows + a one-line summary); all rendering
/// (TablePrinter) happens in the shell/client layer, so a server never pays
/// for string formatting.
class SqlExecutor {
 public:
  virtual ~SqlExecutor() = default;
  /// Parses and executes one statement.
  virtual Result<SqlResult> Execute(const std::string& sql) = 0;
};

/// Names the engine a session (or server) runs on — exactly one of:
///
///   * **Private**: the handle owns a SvcEngine (shared-nothing; one
///     engine per session).
///   * **Shared**: the handle addresses a SharedEngine; many sessions run
///     concurrently with snapshot isolation.
///   * **Durable**: shared-mode semantics over a DurableEngine (each write
///     is one WAL-logged commit).
///   * **Sharded**: the handle addresses a ShardedEngine; statements run
///     against hash-partitioned shards, reads against one published cut.
///
/// Collapses what used to be five SqlSession constructors into one value,
/// so callers (svc_shell, svc_served, tests) build the handle once and
/// never branch on engine mode again. Move-only, like the engine ownership
/// it carries.
class EngineHandle {
 public:
  /// A fresh private engine over an empty catalog.
  static EngineHandle Private() { return Private(Database()); }
  /// A private engine over pre-loaded base relations.
  static EngineHandle Private(Database db) {
    return Private(SvcEngine(std::move(db)));
  }
  /// A private engine adopting existing engine state — e.g. a copy of a
  /// SharedEngine snapshot's engine, for deterministic offline replay.
  static EngineHandle Private(SvcEngine engine) {
    EngineHandle h;
    h.own_ = std::make_unique<SvcEngine>(std::move(engine));
    return h;
  }
  /// A handle onto a shared (snapshot-isolated) engine.
  static EngineHandle Shared(std::shared_ptr<SharedEngine> shared) {
    EngineHandle h;
    h.shared_ = std::move(shared);
    return h;
  }
  /// A handle onto a durable engine: shared-mode semantics plus the WAL.
  static EngineHandle Durable(std::shared_ptr<DurableEngine> durable) {
    EngineHandle h;
    h.shared_ = durable->shared();
    h.durable_ = std::move(durable);
    return h;
  }
  /// A handle onto a sharded engine (scatter-gather serving).
  static EngineHandle Sharded(std::shared_ptr<ShardedEngine> sharded) {
    EngineHandle h;
    h.sharded_ = std::move(sharded);
    return h;
  }

  /// True iff the handle addresses a SharedEngine (durable included).
  bool is_shared() const { return shared_ != nullptr; }
  /// True iff the handle addresses a DurableEngine.
  bool is_durable() const { return durable_ != nullptr; }
  /// True iff the handle addresses a ShardedEngine.
  bool is_sharded() const { return sharded_ != nullptr; }
  /// The owned engine (null unless private mode).
  SvcEngine* private_engine() const { return own_.get(); }
  /// The shared engine (null in private mode).
  const std::shared_ptr<SharedEngine>& shared() const { return shared_; }
  /// The durable engine (null unless durable mode).
  const std::shared_ptr<DurableEngine>& durable() const { return durable_; }
  /// The sharded engine (null unless sharded mode).
  const std::shared_ptr<ShardedEngine>& sharded() const { return sharded_; }

 private:
  EngineHandle() = default;  // factories fill exactly one mode

  std::unique_ptr<SvcEngine> own_;
  std::shared_ptr<SharedEngine> shared_;
  std::shared_ptr<DurableEngine> durable_;
  std::shared_ptr<ShardedEngine> sharded_;
};

/// A SQL-driven session over one SvcEngine: the full SVC lifecycle —
/// define base relations, materialize views, ingest deltas, answer
/// bounded-error aggregate queries on stale views, commit maintenance —
/// scripted as SQL text (§3.2 of the paper):
///
///   CREATE TABLE Log (sessionId INT, videoId INT,
///                     PRIMARY KEY (sessionId));
///   INSERT INTO Log VALUES (0, 1), (1, 3);      -- queued as deltas
///   REFRESH ALL;                                -- commit into base tables
///   CREATE MATERIALIZED VIEW visitView AS
///     SELECT videoId, COUNT(1) AS visitCount FROM Log GROUP BY videoId;
///   INSERT INTO Log VALUES (2, 3);              -- the view is now stale
///   SELECT COUNT(1) FROM visitView WHERE visitCount > 1
///     WITH SVC(ratio=0.5, mode=corr);           -- estimate ± CI
///   REFRESH VIEW visitView;                     -- maintenance commit
///
/// A session runs in one of two modes:
///
///   * **Private** (the default constructors): the session owns its
///     SvcEngine — the shared-nothing model, one engine per session.
///   * **Shared** (the SharedEngine constructor): many sessions address
///     one engine concurrently with snapshot isolation. Each read
///     statement runs against one immutable snapshot (readers never block
///     on other sessions' writes or on REFRESH); each write statement is
///     one atomic SharedEngine::Commit — its validation and mutation run
///     under the writer lock, so cross-session races (e.g. two sessions
///     inserting the same primary key) are serialized, and a failed
///     statement publishes nothing.
///
/// Statement semantics are identical in both modes; answers for the same
/// engine state are bit-identical (asserted by tests/test_differential.cc).
///
/// Statement routing:
///   * `SELECT ... WITH SVC(...)` must aggregate over a single materialized
///     view; it lowers to an AggregateQuery and runs through
///     SvcEngine::Query (or QueryGrouped under GROUP BY), so session
///     answers are bit-identical to direct engine calls with the same
///     options.
///   * Every other SELECT parses and plans through sql/planner and runs on
///     the plain executor against the current committed state (stale view
///     tables included).
///   * INSERT / DELETE queue deltas through the engine; base tables change
///     only at REFRESH (the paper's maintenance model). A DELETE's WHERE
///     selects the *committed* rows to queue for deletion.
///   * REFRESH VIEW <v> validates that <v> exists, then runs MaintainAll —
///     pending deltas are engine-global, so maintenance is a single commit
///     point that freshens every view.
class SqlSession : public SqlExecutor {
 public:
  /// The one real constructor: a session over whichever engine the handle
  /// names. Durable handles get shared-mode semantics, plus every write
  /// statement is one logged commit (the handler encodes the DurableOp it
  /// performed; DurableEngine WAL-appends it before the commit publishes),
  /// CHECKPOINT is live, and SHOW STATS reports the durability counters.
  explicit SqlSession(EngineHandle engine) : handle_(std::move(engine)) {}

  // Forwarding constructors, kept for source compatibility. Deprecated:
  // new code should construct an EngineHandle and use the constructor
  // above.
  /// \deprecated Use SqlSession(EngineHandle::Private()).
  SqlSession() : SqlSession(EngineHandle::Private()) {}
  /// \deprecated Use SqlSession(EngineHandle::Private(db)).
  explicit SqlSession(Database db)
      : SqlSession(EngineHandle::Private(std::move(db))) {}
  /// \deprecated Use SqlSession(EngineHandle::Private(engine)).
  explicit SqlSession(SvcEngine engine)
      : SqlSession(EngineHandle::Private(std::move(engine))) {}
  /// \deprecated Use SqlSession(EngineHandle::Shared(shared)).
  explicit SqlSession(std::shared_ptr<SharedEngine> shared)
      : SqlSession(EngineHandle::Shared(std::move(shared))) {}
  /// \deprecated Use SqlSession(EngineHandle::Durable(durable)).
  explicit SqlSession(std::shared_ptr<DurableEngine> durable)
      : SqlSession(EngineHandle::Durable(std::move(durable))) {}

  /// True iff this session addresses a SharedEngine.
  bool is_shared() const { return handle_.is_shared(); }

  /// The owned engine. REQUIRES: !is_shared() (a shared session has no
  /// private engine; use shared() / snapshots instead).
  SvcEngine& engine() {
    assert(handle_.private_engine() != nullptr &&
           "engine() requires !is_shared()");
    return *handle_.private_engine();
  }
  const SvcEngine& engine() const {
    assert(handle_.private_engine() != nullptr &&
           "engine() requires !is_shared()");
    return *handle_.private_engine();
  }

  /// The shared engine (null in private mode).
  const std::shared_ptr<SharedEngine>& shared() const {
    return handle_.shared();
  }

  /// The durable engine (null unless constructed from one).
  const std::shared_ptr<DurableEngine>& durable() const {
    return handle_.durable();
  }

  /// The sharded engine (null unless constructed from one).
  const std::shared_ptr<ShardedEngine>& sharded() const {
    return handle_.sharded();
  }

  /// Session-wide SVC defaults; `WITH SVC(...)` keys override per query.
  SvcQueryOptions& default_svc_options() { return svc_defaults_; }
  const SvcQueryOptions& default_svc_options() const { return svc_defaults_; }

  // ---- Per-request controls (set by the serving layer around Execute) ----

  /// Cooperative cancellation for the next Execute calls. Borrowed: `cancel`
  /// must outlive every Execute issued while set; null disables. Reads poll
  /// it per executor chunk; writes check it only *before* mutating, so a
  /// deadline never tears a commit — an admitted write either runs to
  /// completion or never starts.
  void set_cancel_token(const CancelToken* cancel) { cancel_ = cancel; }

  /// Degraded-admission mode: scales the sampling ratio of WITH SVC
  /// queries by `scale` in (0, 1] and flags their results `degraded`.
  /// 1.0 (the default) means normal admission — no scaling, no flag.
  void set_degrade_ratio_scale(double scale) { degrade_scale_ = scale; }

  /// Idempotency mark for the next write statement: durable sessions append
  /// (token, seq) to the statement's WAL record, so recovery can rebuild
  /// the server's dedup journal and a retried-then-crashed write still
  /// commits exactly once. Cleared with token = "".
  void set_idempotency(std::string token, uint64_t seq) {
    idem_ = DurableEngine::IdemMark{std::move(token), seq};
  }

  /// Parses and executes one statement.
  Result<SqlResult> Execute(const std::string& sql) override;

  /// Executes an already-parsed statement. Statements with unbound `?`
  /// placeholders are rejected (bind them first: sql/params.h).
  Result<SqlResult> Execute(const Statement& stmt);

 private:
  // Reads take the engine (a snapshot in shared mode) by const reference;
  // writes run on the engine fork handed to them by ExecWrite.
  // Write handlers additionally encode the DurableOp they performed into
  // `*wal` when it is non-null (durable mode; null otherwise).
  Result<SqlResult> ExecSelect(const Statement& stmt, const SvcEngine& eng);
  Result<SqlResult> ExecSvcSelect(const Statement& stmt, const SvcEngine& eng);

  /// The mode-independent body of ExecSvcSelect: validates and lowers the
  /// statement against `catalog` (any engine holding the view metadata —
  /// shard 0's in sharded mode, since catalogs are identical on every
  /// shard), runs the query through the injected callables, and renders
  /// the result. Sharing this body is what keeps sharded answers
  /// message-for-message identical with the other modes.
  Result<SqlResult> ExecSvcSelectImpl(
      const Statement& stmt, const SvcEngine& catalog,
      const std::function<Result<SvcAnswer>(
          const std::string&, const AggregateQuery&, const SvcQueryOptions&)>&
          run_query,
      const std::function<Result<SvcGroupedAnswer>(
          const std::string&, const std::vector<std::string>&,
          const AggregateQuery&, const SvcQueryOptions&)>& run_grouped);

  /// Sharded-mode statement dispatch (Execute branches here when the
  /// handle is sharded): reads run against one published cut; writes
  /// validate and commit under the engine's statement lock.
  Result<SqlResult> ExecuteSharded(const Statement& stmt);
  Result<SqlResult> ExecSelectSharded(const Statement& stmt,
                                      const ShardedSnapshot& snap);
  Result<SqlResult> ExecInsertSharded(const Statement& stmt);
  Result<SqlResult> ExecDeleteSharded(const Statement& stmt);
  Result<SqlResult> ExecCreateTableSharded(const Statement& stmt);
  Result<SqlResult> ExecCreateViewSharded(const Statement& stmt);
  Result<SqlResult> ExecRefreshSharded(const Statement& stmt);
  Result<SqlResult> ExecSetPolicySharded(const Statement& stmt);
  Result<SqlResult> ExecShowTablesSharded(const ShardedSnapshot& snap);
  Result<SqlResult> ExecShowViewsSharded(const ShardedSnapshot& snap);
  Result<SqlResult> ExecShowStatsSharded(const ShardedSnapshot& snap);
  Result<SqlResult> ExecShowMaintenanceSharded(const ShardedSnapshot& snap);
  Result<SqlResult> ExecCreateTable(const Statement& stmt, SvcEngine* eng,
                                    std::string* wal);
  Result<SqlResult> ExecCreateView(const Statement& stmt, SvcEngine* eng,
                                   std::string* wal);
  Result<SqlResult> ExecInsert(const Statement& stmt, SvcEngine* eng,
                               std::string* wal);
  Result<SqlResult> ExecDelete(const Statement& stmt, SvcEngine* eng,
                               std::string* wal);
  Result<SqlResult> ExecRefresh(const Statement& stmt, SvcEngine* eng,
                                std::string* wal);
  Result<SqlResult> ExecSetPolicy(const Statement& stmt, SvcEngine* eng,
                                  std::string* wal);
  Result<SqlResult> ExecCheckpoint();
  Result<SqlResult> ExecShowTables(const SvcEngine& eng);
  Result<SqlResult> ExecShowViews(const SvcEngine& eng);
  Result<SqlResult> ExecShowStats(const SvcEngine& eng);
  /// SHOW MAINTENANCE: the policy line plus a deterministic per-view score
  /// table (scored at elapsed_ms=0, so no wall-clock leaks into output).
  Result<SqlResult> ExecShowMaintenance(const SvcEngine& eng);

  /// Runs a write statement. Private mode: directly on the owned engine.
  /// Shared mode: inside one SharedEngine::Commit, so the statement's
  /// validation + mutation are atomic and serialized against other writers,
  /// and an error publishes nothing. Durable mode: inside one
  /// DurableEngine::CommitLogged — same atomicity, plus the handler's
  /// payload is WAL-appended before the commit publishes.
  Result<SqlResult> ExecWrite(
      const std::function<Result<SqlResult>(SvcEngine*, std::string*)>& fn);

  /// Rejects targets that are views or internal delta tables; returns the
  /// base table.
  Result<const Table*> ResolveBaseTable(const SvcEngine& eng,
                                        const std::string& name,
                                        const char* verb) const;

  /// INSERT row validation shared with the sharded path: checks arity and
  /// value types against `schema`, widening INT literals into DOUBLE
  /// columns in place.
  static Status CoerceInsertRows(const Statement& stmt, const Schema& schema,
                                 std::vector<Row>* rows);

  EngineHandle handle_;
  SvcQueryOptions svc_defaults_;
  const CancelToken* cancel_ = nullptr;
  double degrade_scale_ = 1.0;
  DurableEngine::IdemMark idem_;
};

}  // namespace svc

#endif  // SVC_SQL_SESSION_H_
