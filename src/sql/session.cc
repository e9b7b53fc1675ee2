#include "sql/session.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>

#include "relational/executor.h"
#include "sql/planner.h"
#include "storage/ops.h"

namespace svc {

namespace {

const char* ModeName(EstimatorMode m) {
  return m == EstimatorMode::kAqp ? "AQP" : "CORR";
}

/// Display alias for the aggregate output column: the user's alias, or the
/// function's base name ("count", "sum", ...).
std::string AggAlias(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  std::string base = AggFuncName(item.agg);
  const size_t paren = base.find('(');
  if (paren != std::string::npos) base = base.substr(0, paren);
  return base;
}

/// The estimate columns appended to every SVC result row.
void AppendEstimateColumns(const std::string& value_alias, Schema* schema) {
  schema->AddColumn({"", value_alias, ValueType::kDouble});
  schema->AddColumn({"", "ci_low", ValueType::kDouble});
  schema->AddColumn({"", "ci_high", ValueType::kDouble});
  schema->AddColumn({"", "mode", ValueType::kString});
  schema->AddColumn({"", "sample_rows", ValueType::kInt});
}

void AppendEstimateValues(const Estimate& e, EstimatorMode mode, Row* row) {
  row->push_back(Value::Double(e.value));
  row->push_back(e.has_ci ? Value::Double(e.ci_low) : Value::Null());
  row->push_back(e.has_ci ? Value::Double(e.ci_high) : Value::Null());
  row->push_back(Value::String(ModeName(mode)));
  row->push_back(Value::Int(static_cast<int64_t>(e.sample_rows)));
}

/// "%.6g" as a std::string (matches Value::ToString's double format).
std::string Num6g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatEstimateMessage(const AggregateQuery& q,
                                  const std::string& view,
                                  const Estimate& e, EstimatorMode mode) {
  // Built as a string (not a fixed buffer) so long predicates never
  // truncate the estimate/CI suffix.
  std::string out = q.ToString() + " on " + view + ": " + Num6g(e.value);
  if (e.has_ci) {
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%.0f", e.confidence * 100.0);
    out += " +/- " + Num6g(e.HalfWidth()) + " (" + pct + "% CI, ";
  } else {
    out += " (no CI, ";
  }
  out += std::string(ModeName(mode)) + ", " +
         std::to_string(e.sample_rows) + " sample rows)";
  return out;
}

/// The pending queues that may hold `relation`'s deltas: every shard's for
/// a partitioned relation, shard 0's for a replicated one (every shard
/// holds the same copy).
std::vector<const DeltaSet*> PendingQueues(const ShardedSnapshot& snap,
                                           const std::string& relation) {
  std::vector<const DeltaSet*> out;
  for (const auto& shard : snap.shards) {
    out.push_back(&shard->engine.pending());
    if (!snap.meta->IsPartitionedRelation(relation)) break;
  }
  return out;
}

/// True iff a row with encoded primary key `key` is queued for insertion
/// (or, with `deletes`, deletion) in any of `pending` — a probe of each
/// DeltaSet's pending-key index.
bool AnyPending(const std::vector<const DeltaSet*>& pending, bool deletes,
                const std::string& relation, const std::string& key) {
  for (const DeltaSet* d : pending) {
    if (deletes ? d->HasPendingDelete(relation, key)
                : d->HasPendingInsert(relation, key)) {
      return true;
    }
  }
  return false;
}

/// INSERT's primary-key screening (all modes): a conflicting delta would
/// poison the pending queue (every later REFRESH fails on the duplicate),
/// so reject NULL keys, duplicates within the statement, keys already
/// queued for insertion, and keys of committed rows (of `table`) not
/// queued for deletion.
Status CheckInsertKeys(const Statement& stmt, const Table& table,
                       const std::vector<Row>& rows,
                       const std::vector<const DeltaSet*>& pending) {
  if (!table.HasPrimaryKey()) return Status::OK();
  const Schema& schema = table.schema();
  const std::vector<size_t>& pk = table.pk_indices();
  auto describe_key = [&](const Row& row) {
    std::string out;
    for (size_t i : pk) {
      if (!out.empty()) out += ", ";
      out += schema.column(i).name + "=" + row[i].ToString();
    }
    return out;
  };
  std::set<std::string> batch;
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t i : pk) {
      if (rows[r][i].is_null()) {
        return Status::ConstraintViolation(
            "INSERT INTO " + stmt.target + " row " + std::to_string(r + 1) +
            " has NULL in primary-key column '" + schema.column(i).name + "'");
      }
    }
    std::string key = EncodeRowKey(rows[r], pk);
    std::string where;
    if (!batch.insert(key).second) {
      where = "this statement";
    } else if (AnyPending(pending, false, stmt.target, key)) {
      where = "the pending deltas";
    } else if (table.FindByEncodedKey(key).ok() &&
               !AnyPending(pending, true, stmt.target, key)) {
      where =
          "a committed row (DELETE it first; an update is "
          "delete + insert)";
    }
    if (!where.empty()) {
      return Status::ConstraintViolation(
          "INSERT INTO " + stmt.target + " row " + std::to_string(r + 1) +
          " duplicates the primary key (" + describe_key(rows[r]) + ") of " +
          where);
    }
  }
  return Status::OK();
}

/// DELETE is idempotent: drops from `doomed` the rows already queued for
/// deletion in any of `pending` — queueing one twice would double-count in
/// the change table and silently corrupt maintained aggregate views at
/// REFRESH.
void SkipPendingDeletes(const Table& table, const std::string& relation,
                        const std::vector<const DeltaSet*>& pending,
                        std::vector<Row>* doomed) {
  if (!table.HasPrimaryKey()) return;
  const std::vector<size_t>& pk = table.pk_indices();
  auto queued = [&](const Row& row) {
    return AnyPending(pending, true, relation, EncodeRowKey(row, pk));
  };
  doomed->erase(std::remove_if(doomed->begin(), doomed->end(), queued),
                doomed->end());
}

/// Validates CREATE TABLE's column list and PRIMARY KEY clause and builds
/// the (empty) table; shared by the unsharded and sharded paths.
Result<Table> BuildTableForCreate(const Statement& stmt) {
  if (stmt.primary_key.empty()) {
    return Status::InvalidArgument(
        "CREATE TABLE " + stmt.target +
        " requires a PRIMARY KEY (...) clause: the maintenance model "
        "identifies records by key (paper §3.1)");
  }
  Schema schema;
  for (const auto& col : stmt.columns) {
    if (schema.Contains(col.name)) {
      return Status::InvalidArgument("duplicate column '" + col.name +
                                     "' in CREATE TABLE " + stmt.target);
    }
    schema.AddColumn({"", col.name, col.type});
  }
  Table table(std::move(schema));
  SVC_RETURN_IF_ERROR(table.SetPrimaryKey(stmt.primary_key));
  return table;
}

/// Renders SHOW MAINTENANCE: the active policy line as the message plus one
/// score row per view. Scores come from ScoreViews at elapsed_ms=0, so every
/// column is a pure function of engine state — the output is golden-safe.
SqlResult RenderMaintenance(const MaintenancePolicyConfig& cfg,
                            const std::vector<ViewMaintenanceScore>& scores) {
  Schema schema;
  schema.AddColumn({"", "view", ValueType::kString});
  schema.AddColumn({"", "pending_rows", ValueType::kInt});
  schema.AddColumn({"", "staleness", ValueType::kDouble});
  schema.AddColumn({"", "error", ValueType::kDouble});
  schema.AddColumn({"", "sla", ValueType::kDouble});
  schema.AddColumn({"", "score", ValueType::kDouble});
  schema.AddColumn({"", "action", ValueType::kString});
  Table out(std::move(schema));
  for (const auto& s : scores) {
    out.AppendUnchecked({Value::String(s.view),
                         Value::Int(static_cast<int64_t>(s.pending_rows)),
                         Value::Double(s.staleness), Value::Double(s.error),
                         Value::Double(s.sla), Value::Double(s.score),
                         Value::String(MaintenanceActionName(s.action))});
  }
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = DescribeMaintenancePolicy(cfg);
  result.rows = std::move(out);
  return result;
}

}  // namespace

Result<SqlResult> SqlSession::Execute(const std::string& sql) {
  SVC_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return Execute(stmt);
}

Result<SqlResult> SqlSession::Execute(const Statement& stmt) {
  if (stmt.num_params > 0) {
    // Without this check an INSERT would silently write the parser's NULL
    // placeholder values; expression params would only fail later at Bind.
    return Status::InvalidArgument(
        "statement has " + std::to_string(stmt.num_params) +
        " unbound parameter(s); bind values first (prepared-statement "
        "EXECUTE, or BindStatementParams)");
  }
  // Deadline gate: a statement whose deadline already passed never starts.
  // This is the *only* cancellation point for writes — once a write is
  // admitted it runs to completion, so a deadline can never tear a commit.
  if (cancel_ != nullptr) {
    SVC_RETURN_IF_ERROR(cancel_->Check("statement admission"));
  }
  if (handle_.is_sharded()) return ExecuteSharded(stmt);
  // Reads run against one consistent version: the owned engine in private
  // mode, the current published snapshot in shared mode (held alive for
  // the duration of the statement; concurrent commits don't affect it).
  SnapshotPtr snap;
  auto reader = [&]() -> const SvcEngine& {
    if (!handle_.is_shared()) return *handle_.private_engine();
    snap = handle_.shared()->Snapshot();
    return snap->engine;
  };
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return stmt.svc.present ? ExecSvcSelect(stmt, reader())
                              : ExecSelect(stmt, reader());
    case Statement::Kind::kShowTables:
      return ExecShowTables(reader());
    case Statement::Kind::kShowViews:
      return ExecShowViews(reader());
    case Statement::Kind::kShowStats:
      return ExecShowStats(reader());
    case Statement::Kind::kShowMaintenance:
      return ExecShowMaintenance(reader());
    case Statement::Kind::kCreateTable:
      return ExecWrite([&](SvcEngine* e, std::string* wal) {
        return ExecCreateTable(stmt, e, wal);
      });
    case Statement::Kind::kCreateView:
      return ExecWrite([&](SvcEngine* e, std::string* wal) {
        return ExecCreateView(stmt, e, wal);
      });
    case Statement::Kind::kInsert:
      return ExecWrite([&](SvcEngine* e, std::string* wal) {
        return ExecInsert(stmt, e, wal);
      });
    case Statement::Kind::kDelete:
      return ExecWrite([&](SvcEngine* e, std::string* wal) {
        return ExecDelete(stmt, e, wal);
      });
    case Statement::Kind::kRefresh:
      return ExecWrite([&](SvcEngine* e, std::string* wal) {
        return ExecRefresh(stmt, e, wal);
      });
    case Statement::Kind::kSetPolicy:
      return ExecWrite([&](SvcEngine* e, std::string* wal) {
        return ExecSetPolicy(stmt, e, wal);
      });
    case Statement::Kind::kCheckpoint:
      return ExecCheckpoint();
  }
  return Status::Internal("unhandled statement kind");
}

Result<SqlResult> SqlSession::ExecWrite(
    const std::function<Result<SqlResult>(SvcEngine*, std::string*)>& fn) {
  if (handle_.is_durable()) {
    // One statement = one logged commit: the handler's payload (the
    // DurableOp it performed) hits the WAL before the commit publishes.
    std::optional<SqlResult> out;
    SVC_RETURN_IF_ERROR(handle_.durable()->CommitLogged(
        [&](SvcEngine* e, std::string* payload) -> Status {
          auto r = fn(e, payload);
          if (!r.ok()) return r.status();
          out = std::move(r).value();
          return Status::OK();
        },
        idem_));
    return std::move(*out);
  }
  if (!handle_.is_shared()) return fn(handle_.private_engine(), nullptr);
  // One statement = one commit: validation and mutation run on the fork
  // under the writer lock, so concurrent sessions cannot race a conflicting
  // write in between, and an error publishes nothing.
  std::optional<SqlResult> out;
  SVC_RETURN_IF_ERROR(handle_.shared()->Commit([&](SvcEngine* e) -> Status {
    auto r = fn(e, nullptr);
    if (!r.ok()) return r.status();
    out = std::move(r).value();
    return Status::OK();
  }));
  return std::move(*out);
}

Result<SqlResult> SqlSession::ExecSelect(const Statement& stmt,
                                         const SvcEngine& eng) {
  SVC_ASSIGN_OR_RETURN(PlanPtr plan, PlanSelect(*stmt.select, eng.db()));
  ExecOptions exec = eng.exec_options();
  exec.cancel = cancel_;
  SVC_ASSIGN_OR_RETURN(Table out, ExecutePlan(*plan, eng.db(), exec));
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " row(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecSvcSelect(const Statement& stmt,
                                            const SvcEngine& eng) {
  return ExecSvcSelectImpl(
      stmt, eng,
      [&](const std::string& view, const AggregateQuery& q,
          const SvcQueryOptions& opts) { return eng.Query(view, q, opts); },
      [&](const std::string& view, const std::vector<std::string>& groups,
          const AggregateQuery& q, const SvcQueryOptions& opts) {
        return eng.QueryGrouped(view, groups, q, opts);
      });
}

Result<SqlResult> SqlSession::ExecSvcSelectImpl(
    const Statement& stmt, const SvcEngine& eng,
    const std::function<Result<SvcAnswer>(
        const std::string&, const AggregateQuery&, const SvcQueryOptions&)>&
        run_query,
    const std::function<Result<SvcGroupedAnswer>(
        const std::string&, const std::vector<std::string>&,
        const AggregateQuery&, const SvcQueryOptions&)>& run_grouped) {
  const SelectStmt& sel = *stmt.select;
  if (sel.set_next) {
    return Status::NotSupported(
        "WITH SVC does not combine with UNION/INTERSECT/EXCEPT; query each "
        "view separately");
  }
  if (sel.from.size() != 1 || sel.from[0].subquery || !sel.joins.empty()) {
    return Status::InvalidArgument(
        "WITH SVC requires FROM to name exactly one materialized view "
        "(joins and subqueries belong in the view definition)");
  }
  const std::string& view_name = sel.from[0].table;
  auto view = eng.GetView(view_name);
  if (!view.ok()) {
    if (eng.db().HasTable(view_name)) {
      return Status::InvalidArgument(
          "WITH SVC corrects stale materialized views, but '" + view_name +
          "' is a base table; query it with a plain SELECT or define a view "
          "over it");
    }
    return view.status();
  }
  if (sel.having) {
    return Status::NotSupported(
        "HAVING is not supported with WITH SVC; filter rows with WHERE "
        "(per-group estimates carry their own CIs)");
  }

  // Exactly one aggregate; every other select item must be a GROUP BY
  // column (the estimator evaluates one aggregate per group, §5.1).
  for (const auto& item : sel.items) {
    if (item.is_star) {
      return Status::InvalidArgument(
          "SELECT * cannot be combined with WITH SVC; ask for one aggregate "
          "(sum/count/avg/median/min/max) over the view's columns");
    }
  }
  const bool any_agg =
      std::any_of(sel.items.begin(), sel.items.end(),
                  [](const SelectItem& i) { return i.is_agg; });
  if (!any_agg) {
    return Status::InvalidArgument(
        "WITH SVC requires an aggregate select list "
        "(sum/count/avg/median/min/max over the view's columns); a plain "
        "row SELECT reads the stale view directly - drop WITH SVC");
  }
  const SelectItem* agg_item = nullptr;
  for (const auto& item : sel.items) {
    if (item.is_agg) {
      if (agg_item != nullptr) {
        return Status::NotSupported(
            "WITH SVC supports exactly one aggregate per query; split the "
            "select list into separate statements");
      }
      agg_item = &item;
      continue;
    }
    const bool is_group_col =
        item.scalar->kind() == ExprKind::kColumn &&
        std::find(sel.group_by.begin(), sel.group_by.end(),
                  item.scalar->column_ref()) != sel.group_by.end();
    if (!is_group_col) {
      return Status::InvalidArgument(
          "non-aggregate select expression '" + item.scalar->ToString() +
          "' must be a GROUP BY column when using WITH SVC");
    }
  }
  if (agg_item->agg == AggFunc::kCountDistinct) {
    return Status::NotSupported(
        "count(DISTINCT ...) is not an SVC-estimable aggregate; supported: "
        "sum, count, count(*), avg, median, min, max");
  }

  AggregateQuery q;
  q.func = agg_item->agg;
  if (agg_item->agg_input) q.attr = agg_item->agg_input->Clone();
  if (sel.where) q.predicate = sel.where->Clone();

  // Per-query options: session defaults overridden by WITH SVC(...) keys.
  SvcQueryOptions opts = svc_defaults_;
  if (stmt.svc.ratio) opts.ratio = *stmt.svc.ratio;
  if (stmt.svc.auto_mode) {
    opts.auto_mode = true;
  } else if (stmt.svc.mode) {
    opts.mode = *stmt.svc.mode;
    opts.auto_mode = false;
  }
  if (stmt.svc.confidence) opts.estimator.confidence = *stmt.svc.confidence;
  opts.exec.cancel = cancel_;
  // Degraded admission (server --degrade past the inflight cap): same
  // estimator, smaller sample. The answer stays correct-with-CI — the CI
  // is just wider — and the result is flagged so clients can tell.
  const bool degraded = degrade_scale_ < 1.0;
  if (degraded) opts.ratio *= degrade_scale_;

  const std::string value_alias = AggAlias(*agg_item);
  SqlResult result;
  result.kind = SqlResultKind::kEstimate;
  result.degraded = degraded;

  if (sel.group_by.empty()) {
    SVC_ASSIGN_OR_RETURN(SvcAnswer answer, run_query(view_name, q, opts));
    Schema schema;
    AppendEstimateColumns(value_alias, &schema);
    Table out(std::move(schema));
    Row row;
    AppendEstimateValues(answer.estimate, answer.mode_used, &row);
    out.AppendUnchecked(std::move(row));
    result.rows = std::move(out);
    result.mode_used = answer.mode_used;
    result.message = FormatEstimateMessage(q, view_name, answer.estimate,
                                           answer.mode_used);
    return result;
  }

  // Grouped path: one estimate per observed group.
  SVC_ASSIGN_OR_RETURN(const Table* stored, eng.db().GetTable(view_name));
  Schema schema;
  for (const auto& g : sel.group_by) {
    SVC_ASSIGN_OR_RETURN(size_t pos, stored->schema().Resolve(g));
    const Column& c = stored->schema().column(pos);
    schema.AddColumn({"", c.name, c.type});
  }
  AppendEstimateColumns(value_alias, &schema);

  SVC_ASSIGN_OR_RETURN(SvcGroupedAnswer answer,
                       run_grouped(view_name, sel.group_by, q, opts));
  // Sort groups by key for stable, scannable output (estimates are
  // unchanged; the engine's group order is first-encounter).
  std::vector<size_t> order(answer.result.group_keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Row& ka = answer.result.group_keys[a];
    const Row& kb = answer.result.group_keys[b];
    for (size_t c = 0; c < ka.size() && c < kb.size(); ++c) {
      if (ka[c] < kb[c]) return true;
      if (kb[c] < ka[c]) return false;
    }
    return a < b;
  });
  Table out(std::move(schema));
  for (size_t i : order) {
    Row row = answer.result.group_keys[i];
    AppendEstimateValues(answer.result.estimates[i], answer.mode_used, &row);
    out.AppendUnchecked(std::move(row));
  }
  result.rows = std::move(out);
  result.mode_used = answer.mode_used;
  result.message = q.ToString() + " on " + view_name + ": " +
                   std::to_string(order.size()) + " group(s) (" +
                   ModeName(answer.mode_used) + ")";
  return result;
}

Result<SqlResult> SqlSession::ExecCreateTable(const Statement& stmt,
                                              SvcEngine* eng,
                                              std::string* wal) {
  if (eng->db()->HasTable(stmt.target)) {
    return Status::AlreadyExists("table or view already exists: " +
                                 stmt.target);
  }
  SVC_ASSIGN_OR_RETURN(Table table, BuildTableForCreate(stmt));
  if (wal != nullptr) {
    SVC_RETURN_IF_ERROR(
        EncodeDurableOp(DurableOp::CreateTableOp(stmt.target, table), wal));
  }
  SVC_RETURN_IF_ERROR(eng->db()->CreateTable(stmt.target, std::move(table)));
  SqlResult result;
  result.message = "created table " + stmt.target + " (" +
                   std::to_string(stmt.columns.size()) + " columns)";
  return result;
}

Result<SqlResult> SqlSession::ExecCreateView(const Statement& stmt,
                                             SvcEngine* eng,
                                             std::string* wal) {
  if (eng->HasView(stmt.target)) {
    return Status::AlreadyExists("view already exists: " + stmt.target);
  }
  if (eng->db()->HasTable(stmt.target)) {
    return Status::AlreadyExists("a table named '" + stmt.target +
                                 "' already exists; views need a fresh name");
  }
  SVC_ASSIGN_OR_RETURN(PlanPtr def, PlanSelect(*stmt.select, *eng->db()));
  if (wal != nullptr) {
    SVC_RETURN_IF_ERROR(EncodeDurableOp(
        DurableOp::CreateViewOp(stmt.target, def->Clone(), stmt.sampling_key),
        wal));
  }
  SVC_RETURN_IF_ERROR(
      eng->CreateView(stmt.target, std::move(def), stmt.sampling_key));
  SVC_ASSIGN_OR_RETURN(const Table* stored, eng->db()->GetTable(stmt.target));
  SqlResult result;
  result.message = "materialized view " + stmt.target + " (" +
                   std::to_string(stored->NumRows()) + " rows)";
  return result;
}

Result<SqlResult> SqlSession::ExecInsert(const Statement& stmt,
                                         SvcEngine* eng, std::string* wal) {
  SVC_ASSIGN_OR_RETURN(const Table* table,
                       ResolveBaseTable(*eng, stmt.target, "INSERT INTO"));
  // Validate and coerce every row before ingesting any (the statement
  // either queues completely or not at all).
  std::vector<Row> rows = stmt.values;
  SVC_RETURN_IF_ERROR(CoerceInsertRows(stmt, table->schema(), &rows));
  SVC_RETURN_IF_ERROR(
      CheckInsertKeys(stmt, *table, rows, {&eng->pending()}));
  if (wal != nullptr) {
    // The *coerced* rows are what replay must re-queue.
    SVC_RETURN_IF_ERROR(
        EncodeDurableOp(DurableOp::InsertOp(stmt.target, rows), wal));
  }
  const size_t n = rows.size();
  SVC_RETURN_IF_ERROR(eng->InsertRecords(stmt.target, std::move(rows)));
  SqlResult result;
  result.message = "queued " + std::to_string(n) + " insert(s) into " +
                   stmt.target + "; REFRESH commits them";
  return result;
}

Result<SqlResult> SqlSession::ExecDelete(const Statement& stmt,
                                         SvcEngine* eng, std::string* wal) {
  SVC_ASSIGN_OR_RETURN(const Table* table,
                       ResolveBaseTable(*eng, stmt.target, "DELETE FROM"));
  ExprPtr pred;
  if (stmt.where) {
    pred = stmt.where->Clone();
    SVC_RETURN_IF_ERROR(pred->Bind(table->schema()));
  }
  // WHERE selects from the committed rows; matches are queued as delete
  // deltas (the base table changes at REFRESH).
  std::vector<Row> doomed;
  for (const auto& row : table->rows()) {
    if (!pred || pred->Eval(row).IsTrue()) doomed.push_back(row);
  }
  SkipPendingDeletes(*table, stmt.target, {&eng->pending()}, &doomed);
  if (wal != nullptr) {
    // The rows the WHERE selected (post-dedup) are what replay re-queues —
    // replaying the predicate against a different committed state would
    // diverge.
    SVC_RETURN_IF_ERROR(
        EncodeDurableOp(DurableOp::DeleteOp(stmt.target, doomed), wal));
  }
  const size_t n = doomed.size();
  SVC_RETURN_IF_ERROR(eng->DeleteRecords(stmt.target, std::move(doomed)));
  SqlResult result;
  result.message = "queued " + std::to_string(n) + " delete(s) from " +
                   stmt.target + "; REFRESH commits them";
  return result;
}

Result<SqlResult> SqlSession::ExecRefresh(const Statement& stmt,
                                          SvcEngine* eng, std::string* wal) {
  const size_t inserts = eng->pending().TotalInserts();
  const size_t deletes = eng->pending().TotalDeletes();
  if (!stmt.refresh_all) {
    // Validate the target; maintenance itself is engine-global (pending
    // deltas are one set), so every view freshens at the commit.
    SVC_RETURN_IF_ERROR(eng->GetView(stmt.target).status());
  }
  // MaintainAll is transactional: on error nothing changed — queued deltas
  // stay intact, so the error propagates here. In shared mode
  // `eng` is already a disposable fork that ExecWrite's Commit discards on
  // error, so the in-place body skips a redundant second fork.
  SVC_RETURN_IF_ERROR(handle_.is_shared() ? eng->MaintainAllInPlace()
                                         : eng->MaintainAll());
  if (wal != nullptr) {
    SVC_RETURN_IF_ERROR(EncodeDurableOp(DurableOp::RefreshOp(), wal));
  }
  const size_t n_views = eng->ViewNames().size();
  SqlResult result;
  result.message = "refreshed " + std::to_string(n_views) +
                   " view(s); committed " + std::to_string(inserts) +
                   " insert(s) and " + std::to_string(deletes) + " delete(s)";
  return result;
}

/// The config a SET MAINTENANCE POLICY statement publishes, given the
/// engine's current one. Global form: the statement's config (a complete
/// state), carrying over the existing per-view overrides — they are
/// orthogonal knobs set by separate statements. ON-form: the current
/// config with `target`'s override replaced by exactly the statement's
/// keys (empty parens clear it). Either way the result is the FULL config,
/// so the WAL record stays self-describing and replays verbatim.
static Result<MaintenancePolicyConfig> ResolvePolicyStatement(
    const Statement& stmt, const SvcEngine& eng) {
  MaintenancePolicyConfig cfg;
  if (!stmt.policy_on_view) {
    cfg = stmt.policy;
    cfg.overrides = eng.maintenance_policy().overrides;
    return cfg;
  }
  if (!eng.HasView(stmt.target)) {
    return Status::NotFound("SET MAINTENANCE POLICY ON " + stmt.target +
                            ": no such materialized view");
  }
  cfg = eng.maintenance_policy();
  if (stmt.policy_override.empty()) {
    cfg.overrides.erase(stmt.target);
  } else {
    cfg.overrides[stmt.target] = stmt.policy_override;
  }
  return cfg;
}

Result<SqlResult> SqlSession::ExecSetPolicy(const Statement& stmt,
                                            SvcEngine* eng, std::string* wal) {
  SVC_ASSIGN_OR_RETURN(MaintenancePolicyConfig cfg,
                       ResolvePolicyStatement(stmt, *eng));
  if (wal != nullptr) {
    SVC_RETURN_IF_ERROR(EncodeDurableOp(DurableOp::SetPolicyOp(cfg), wal));
  }
  eng->set_maintenance_policy(cfg);
  SqlResult result;
  result.message = "maintenance policy set: " + DescribeMaintenancePolicy(cfg);
  return result;
}

Result<SqlResult> SqlSession::ExecCheckpoint() {
  SqlResult result;
  if (!handle_.is_durable()) {
    result.message = "no durable storage attached; CHECKPOINT skipped";
    return result;
  }
  SVC_ASSIGN_OR_RETURN(uint64_t epoch, handle_.durable()->Checkpoint());
  result.message = "checkpoint at epoch " + std::to_string(epoch);
  return result;
}

Result<SqlResult> SqlSession::ExecShowTables(const SvcEngine& eng) {
  Schema schema;
  schema.AddColumn({"", "name", ValueType::kString});
  schema.AddColumn({"", "rows", ValueType::kInt});
  schema.AddColumn({"", "kind", ValueType::kString});
  Table out(std::move(schema));
  for (const auto& name : eng.db().TableNames()) {
    if (name.rfind("__", 0) == 0) continue;  // internal delta tables
    SVC_ASSIGN_OR_RETURN(const Table* t, eng.db().GetTable(name));
    const bool is_view = eng.HasView(name);
    out.AppendUnchecked({Value::String(name),
                         Value::Int(static_cast<int64_t>(t->NumRows())),
                         Value::String(is_view ? "view" : "base")});
  }
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " table(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecShowViews(const SvcEngine& eng) {
  Schema schema;
  schema.AddColumn({"", "name", ValueType::kString});
  schema.AddColumn({"", "rows", ValueType::kInt});
  schema.AddColumn({"", "class", ValueType::kString});
  schema.AddColumn({"", "stale", ValueType::kString});
  Table out(std::move(schema));
  for (const auto& name : eng.ViewNames()) {
    SVC_ASSIGN_OR_RETURN(const MaterializedView* view, eng.GetView(name));
    SVC_ASSIGN_OR_RETURN(const Table* t, eng.db().GetTable(name));
    const char* cls = "recompute";
    if (view->view_class() == ViewClass::kSpj) cls = "spj";
    if (view->view_class() == ViewClass::kAggregate) cls = "aggregate";
    bool stale = false;
    for (const auto& rel : view->base_relations()) {
      stale = stale || eng.pending().Touches(rel);
    }
    out.AppendUnchecked({Value::String(name),
                         Value::Int(static_cast<int64_t>(t->NumRows())),
                         Value::String(cls),
                         Value::String(stale ? "yes" : "no")});
  }
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " view(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecShowStats(const SvcEngine& eng) {
  // One row per view: serving-cache counters (cumulative across commits),
  // the pending delta rows touching the view's base relations, and the
  // engine's delta version (the pending queue's mutation counter — the
  // epoch-like key cache entries validate against).
  Schema schema;
  schema.AddColumn({"", "view", ValueType::kString});
  schema.AddColumn({"", "cache_hits", ValueType::kInt});
  schema.AddColumn({"", "cache_misses", ValueType::kInt});
  schema.AddColumn({"", "full_cleans", ValueType::kInt});
  schema.AddColumn({"", "incr_advances", ValueType::kInt});
  schema.AddColumn({"", "pending_rows", ValueType::kInt});
  schema.AddColumn({"", "delta_version", ValueType::kInt});
  // Durable sessions also report the engine-wide durability counters
  // (repeated on every row — SHOW STATS is a per-view relation).
  if (handle_.is_durable()) {
    schema.AddColumn({"", "wal_records", ValueType::kInt});
    schema.AddColumn({"", "wal_bytes", ValueType::kInt});
    schema.AddColumn({"", "last_checkpoint_epoch", ValueType::kInt});
    schema.AddColumn({"", "recovered_epoch", ValueType::kInt});
  }
  Table out(std::move(schema));
  const std::map<std::string, ViewCacheStats> stats = eng.CacheStats();
  const auto as_int = [](uint64_t v) {
    return Value::Int(static_cast<int64_t>(v));
  };
  for (const auto& name : eng.ViewNames()) {
    SVC_ASSIGN_OR_RETURN(const MaterializedView* view, eng.GetView(name));
    size_t pending_rows = 0;
    for (const auto& rel : view->base_relations()) {
      pending_rows += eng.pending().InsertRows(rel);
      pending_rows += eng.pending().DeleteRows(rel);
    }
    auto it = stats.find(name);
    const ViewCacheStats s = it == stats.end() ? ViewCacheStats{} : it->second;
    Row row = {Value::String(name),          as_int(s.hits),
               as_int(s.misses),             as_int(s.full_cleans),
               as_int(s.incremental_advances), as_int(pending_rows),
               as_int(eng.pending().version())};
    if (handle_.is_durable()) {
      const DurabilityStats ds = handle_.durable()->stats();
      row.push_back(as_int(ds.wal_records));
      row.push_back(as_int(ds.wal_bytes));
      row.push_back(as_int(ds.last_checkpoint_epoch));
      row.push_back(as_int(ds.recovered_epoch));
    }
    out.AppendUnchecked(std::move(row));
  }
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " view(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecShowMaintenance(const SvcEngine& eng) {
  const MaintenancePolicyConfig cfg = eng.maintenance_policy();
  SVC_ASSIGN_OR_RETURN(std::vector<ViewMaintenanceScore> scores,
                       ScoreViews(eng, cfg, /*elapsed_ms=*/0));
  return RenderMaintenance(cfg, scores);
}

Status SqlSession::CoerceInsertRows(const Statement& stmt,
                                    const Schema& schema,
                                    std::vector<Row>* rows) {
  for (size_t r = 0; r < rows->size(); ++r) {
    Row& row = (*rows)[r];
    if (row.size() != schema.NumColumns()) {
      std::string cols;
      for (const auto& c : schema.columns()) {
        cols += (cols.empty() ? "" : ", ") + c.name;
      }
      return Status::InvalidArgument(
          "INSERT INTO " + stmt.target + " expects " +
          std::to_string(schema.NumColumns()) + " values (" + cols +
          "); row " + std::to_string(r + 1) + " has " +
          std::to_string(row.size()));
    }
    for (size_t c = 0; c < row.size(); ++c) {
      Value& v = row[c];
      const Column& col = schema.column(c);
      if (v.is_null()) continue;
      if (col.type == ValueType::kDouble && v.type() == ValueType::kInt) {
        v = Value::Double(static_cast<double>(v.AsInt()));  // widen
        continue;
      }
      if (v.type() != col.type) {
        return Status::InvalidArgument(
            "INSERT INTO " + stmt.target + " column '" + col.name +
            "' expects " + ValueTypeName(col.type) + "; row " +
            std::to_string(r + 1) + " has " + v.ToString() + " (" +
            ValueTypeName(v.type()) + ")");
      }
    }
  }
  return Status::OK();
}

Result<const Table*> SqlSession::ResolveBaseTable(const SvcEngine& eng,
                                                  const std::string& name,
                                                  const char* verb) const {
  if (eng.HasView(name)) {
    return Status::InvalidArgument(
        std::string(verb) + " targets a base relation, but '" + name +
        "' is a materialized view (views change via REFRESH after deltas "
        "to their base relations)");
  }
  if (name.rfind("__", 0) == 0) {
    return Status::InvalidArgument("'" + name +
                                   "' is an internal delta relation");
  }
  return eng.db().GetTable(name);
}

// ---- Sharded mode -----------------------------------------------------------

Result<SqlResult> SqlSession::ExecuteSharded(const Statement& stmt) {
  // Reads run against one published cut, held alive for the statement;
  // writes validate and commit under the engine's statement lock (the
  // sharded analog of running inside SharedEngine::Commit).
  ShardedSnapshotPtr snap;
  auto reader = [&]() -> const ShardedSnapshot& {
    snap = handle_.sharded()->Snapshot();
    return *snap;
  };
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      const ShardedSnapshot& cut = reader();
      if (!stmt.svc.present) return ExecSelectSharded(stmt, cut);
      const ShardedEngine& eng = *handle_.sharded();
      return ExecSvcSelectImpl(
          stmt, cut.shards[0]->engine,
          [&](const std::string& view, const AggregateQuery& q,
              const SvcQueryOptions& opts) {
            return eng.Query(cut, view, q, opts);
          },
          [&](const std::string& view, const std::vector<std::string>& groups,
              const AggregateQuery& q, const SvcQueryOptions& opts) {
            return eng.QueryGrouped(cut, view, groups, q, opts);
          });
    }
    case Statement::Kind::kShowTables:
      return ExecShowTablesSharded(reader());
    case Statement::Kind::kShowViews:
      return ExecShowViewsSharded(reader());
    case Statement::Kind::kShowStats:
      return ExecShowStatsSharded(reader());
    case Statement::Kind::kShowMaintenance:
      return ExecShowMaintenanceSharded(reader());
    case Statement::Kind::kCreateTable:
      return ExecCreateTableSharded(stmt);
    case Statement::Kind::kCreateView:
      return ExecCreateViewSharded(stmt);
    case Statement::Kind::kInsert:
      return ExecInsertSharded(stmt);
    case Statement::Kind::kDelete:
      return ExecDeleteSharded(stmt);
    case Statement::Kind::kRefresh:
      return ExecRefreshSharded(stmt);
    case Statement::Kind::kSetPolicy:
      return ExecSetPolicySharded(stmt);
    case Statement::Kind::kCheckpoint:
      return ExecCheckpoint();  // sharded engines are not durable
  }
  return Status::Internal("unhandled statement kind");
}

Result<SqlResult> SqlSession::ExecSelectSharded(const Statement& stmt,
                                                const ShardedSnapshot& snap) {
  const ShardedEngine& eng = *handle_.sharded();
  // Plan and execute against the gathered logical catalog: partitioned
  // relations and views are reassembled in canonical order (memoized per
  // shard-part identity, so repeated SELECTs between maintenance commits
  // reuse the merge; replicated tables are shard 0's, zero-copy).
  const SvcEngine& shard0 = snap.shards[0]->engine;
  std::vector<std::string> names;
  for (const auto& name : shard0.db().TableNames()) {
    if (name.rfind("__", 0) == 0) continue;  // internal delta tables
    names.push_back(name);
  }
  SVC_ASSIGN_OR_RETURN(Database gathered, eng.GatherDatabase(snap, names));
  SVC_ASSIGN_OR_RETURN(PlanPtr plan, PlanSelect(*stmt.select, gathered));
  SVC_ASSIGN_OR_RETURN(Table out,
                       ExecutePlan(*plan, gathered, shard0.exec_options()));
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " row(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecCreateTableSharded(const Statement& stmt) {
  ShardedEngine& eng = *handle_.sharded();
  std::optional<SqlResult> out;
  SVC_RETURN_IF_ERROR(eng.WithStatementLock([&]() -> Status {
    ShardedSnapshotPtr snap = eng.Snapshot();
    if (snap->shards[0]->engine.db().HasTable(stmt.target)) {
      return Status::AlreadyExists("table or view already exists: " +
                                   stmt.target);
    }
    auto table = BuildTableForCreate(stmt);
    if (!table.ok()) return table.status();
    SVC_RETURN_IF_ERROR(eng.CreateTable(stmt.target, std::move(table).value()));
    SqlResult result;
    result.message = "created table " + stmt.target + " (" +
                     std::to_string(stmt.columns.size()) + " columns)";
    out = std::move(result);
    return Status::OK();
  }));
  return std::move(*out);
}

Result<SqlResult> SqlSession::ExecCreateViewSharded(const Statement& stmt) {
  ShardedEngine& eng = *handle_.sharded();
  std::optional<SqlResult> out;
  SVC_RETURN_IF_ERROR(eng.WithStatementLock([&]() -> Status {
    ShardedSnapshotPtr snap = eng.Snapshot();
    const SvcEngine& shard0 = snap->shards[0]->engine;
    if (shard0.HasView(stmt.target)) {
      return Status::AlreadyExists("view already exists: " + stmt.target);
    }
    if (shard0.db().HasTable(stmt.target)) {
      return Status::AlreadyExists("a table named '" + stmt.target +
                                   "' already exists; views need a fresh "
                                   "name");
    }
    // Plan against shard 0's catalog: schemas are identical on every shard
    // (only row placement differs), and planning never reads rows.
    SVC_ASSIGN_OR_RETURN(PlanPtr def, PlanSelect(*stmt.select, shard0.db()));
    SVC_RETURN_IF_ERROR(
        eng.CreateView(stmt.target, std::move(def), stmt.sampling_key));
    // Report the logical row count from the freshly published cut.
    ShardedSnapshotPtr next = eng.Snapshot();
    SVC_ASSIGN_OR_RETURN(std::shared_ptr<const Table> stored,
                         eng.GatherTable(*next, stmt.target));
    SqlResult result;
    result.message = "materialized view " + stmt.target + " (" +
                     std::to_string(stored->NumRows()) + " rows)";
    out = std::move(result);
    return Status::OK();
  }));
  return std::move(*out);
}

Result<SqlResult> SqlSession::ExecInsertSharded(const Statement& stmt) {
  ShardedEngine& eng = *handle_.sharded();
  std::optional<SqlResult> out;
  SVC_RETURN_IF_ERROR(eng.WithStatementLock([&]() -> Status {
    ShardedSnapshotPtr snap = eng.Snapshot();
    const SvcEngine& shard0 = snap->shards[0]->engine;
    SVC_RETURN_IF_ERROR(
        ResolveBaseTable(shard0, stmt.target, "INSERT INTO").status());
    // Key checks run against the *gathered* logical table: a conflicting
    // committed row may live on any shard.
    SVC_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                         eng.GatherTable(*snap, stmt.target));
    std::vector<Row> rows = stmt.values;
    SVC_RETURN_IF_ERROR(CoerceInsertRows(stmt, table->schema(), &rows));
    SVC_RETURN_IF_ERROR(CheckInsertKeys(stmt, *table, rows,
                                        PendingQueues(*snap, stmt.target)));
    SVC_RETURN_IF_ERROR(eng.InsertRows(stmt.target, std::move(rows)));
    SqlResult result;
    result.message = "queued " + std::to_string(stmt.values.size()) +
                     " insert(s) into " + stmt.target +
                     "; REFRESH commits them";
    out = std::move(result);
    return Status::OK();
  }));
  return std::move(*out);
}

Result<SqlResult> SqlSession::ExecDeleteSharded(const Statement& stmt) {
  ShardedEngine& eng = *handle_.sharded();
  std::optional<SqlResult> out;
  SVC_RETURN_IF_ERROR(eng.WithStatementLock([&]() -> Status {
    ShardedSnapshotPtr snap = eng.Snapshot();
    const SvcEngine& shard0 = snap->shards[0]->engine;
    SVC_RETURN_IF_ERROR(
        ResolveBaseTable(shard0, stmt.target, "DELETE FROM").status());
    SVC_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                         eng.GatherTable(*snap, stmt.target));
    ExprPtr pred;
    if (stmt.where) {
      pred = stmt.where->Clone();
      SVC_RETURN_IF_ERROR(pred->Bind(table->schema()));
    }
    // WHERE selects from the gathered committed rows (canonical order, so
    // the queued delta order is shard-count-invariant); matches are routed
    // to their owning shards as delete deltas.
    std::vector<Row> doomed;
    for (const auto& row : table->rows()) {
      if (!pred || pred->Eval(row).IsTrue()) doomed.push_back(row);
    }
    SkipPendingDeletes(*table, stmt.target, PendingQueues(*snap, stmt.target),
                       &doomed);
    const size_t n_doomed = doomed.size();
    SVC_RETURN_IF_ERROR(eng.DeleteRows(stmt.target, std::move(doomed)));
    SqlResult result;
    result.message = "queued " + std::to_string(n_doomed) + " delete(s) from " +
                     stmt.target + "; REFRESH commits them";
    out = std::move(result);
    return Status::OK();
  }));
  return std::move(*out);
}

Result<SqlResult> SqlSession::ExecRefreshSharded(const Statement& stmt) {
  ShardedEngine& eng = *handle_.sharded();
  std::optional<SqlResult> out;
  SVC_RETURN_IF_ERROR(eng.WithStatementLock([&]() -> Status {
    ShardedSnapshotPtr snap = eng.Snapshot();
    const SvcEngine& shard0 = snap->shards[0]->engine;
    if (!stmt.refresh_all) {
      SVC_RETURN_IF_ERROR(shard0.GetView(stmt.target).status());
    }
    size_t inserts = 0;
    size_t deletes = 0;
    SVC_RETURN_IF_ERROR(eng.Refresh(&inserts, &deletes));
    const size_t n_views = shard0.ViewNames().size();
    SqlResult result;
    result.message = "refreshed " + std::to_string(n_views) +
                     " view(s); committed " + std::to_string(inserts) +
                     " insert(s) and " + std::to_string(deletes) +
                     " delete(s)";
    out = std::move(result);
    return Status::OK();
  }));
  return std::move(*out);
}

Result<SqlResult> SqlSession::ExecSetPolicySharded(const Statement& stmt) {
  ShardedEngine& eng = *handle_.sharded();
  std::optional<SqlResult> out;
  SVC_RETURN_IF_ERROR(eng.WithStatementLock([&]() -> Status {
    // Catalogs (and the policy) are identical on every shard; resolve the
    // ON-form merge against shard 0 under the statement lock.
    ShardedSnapshotPtr snap = eng.Snapshot();
    SVC_ASSIGN_OR_RETURN(
        MaintenancePolicyConfig cfg,
        ResolvePolicyStatement(stmt, snap->shards[0]->engine));
    SVC_RETURN_IF_ERROR(eng.SetMaintenancePolicy(cfg));
    SqlResult result;
    result.message =
        "maintenance policy set: " + DescribeMaintenancePolicy(cfg);
    out = std::move(result);
    return Status::OK();
  }));
  return std::move(*out);
}

Result<SqlResult> SqlSession::ExecShowTablesSharded(
    const ShardedSnapshot& snap) {
  const SvcEngine& shard0 = snap.shards[0]->engine;
  Schema schema;
  schema.AddColumn({"", "name", ValueType::kString});
  schema.AddColumn({"", "rows", ValueType::kInt});
  schema.AddColumn({"", "kind", ValueType::kString});
  Table out(std::move(schema));
  for (const auto& name : shard0.db().TableNames()) {
    if (name.rfind("__", 0) == 0) continue;  // internal delta tables
    // Partitioned relations/views report their logical row count (the sum
    // of the shard parts); replicated ones hold it whole on shard 0.
    const bool partitioned = snap.meta->IsPartitionedRelation(name) ||
                             snap.meta->IsPartitionedView(name);
    size_t rows = 0;
    for (size_t s = 0; s < snap.shards.size(); ++s) {
      SVC_ASSIGN_OR_RETURN(const Table* t,
                           snap.shards[s]->engine.db().GetTable(name));
      rows += t->NumRows();
      if (!partitioned) break;
    }
    out.AppendUnchecked({Value::String(name),
                         Value::Int(static_cast<int64_t>(rows)),
                         Value::String(shard0.HasView(name) ? "view" : "base")});
  }
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " table(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecShowViewsSharded(const ShardedSnapshot& snap) {
  const SvcEngine& shard0 = snap.shards[0]->engine;
  Schema schema;
  schema.AddColumn({"", "name", ValueType::kString});
  schema.AddColumn({"", "rows", ValueType::kInt});
  schema.AddColumn({"", "class", ValueType::kString});
  schema.AddColumn({"", "stale", ValueType::kString});
  Table out(std::move(schema));
  for (const auto& name : shard0.ViewNames()) {
    SVC_ASSIGN_OR_RETURN(const MaterializedView* view, shard0.GetView(name));
    const bool partitioned = snap.meta->IsPartitionedView(name);
    size_t rows = 0;
    for (size_t s = 0; s < snap.shards.size(); ++s) {
      SVC_ASSIGN_OR_RETURN(const Table* t,
                           snap.shards[s]->engine.db().GetTable(name));
      rows += t->NumRows();
      if (!partitioned) break;
    }
    const char* cls = "recompute";
    if (view->view_class() == ViewClass::kSpj) cls = "spj";
    if (view->view_class() == ViewClass::kAggregate) cls = "aggregate";
    // A partitioned relation's deltas live only on the owning shard: a
    // view is stale when *any* shard has pending rows for its bases.
    bool stale = false;
    for (const auto& rel : view->base_relations()) {
      for (const auto& shard : snap.shards) {
        stale = stale || shard->engine.pending().Touches(rel);
      }
    }
    out.AppendUnchecked({Value::String(name),
                         Value::Int(static_cast<int64_t>(rows)),
                         Value::String(cls),
                         Value::String(stale ? "yes" : "no")});
  }
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " view(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecShowStatsSharded(const ShardedSnapshot& snap) {
  const ShardedEngine& eng = *handle_.sharded();
  const SvcEngine& shard0 = snap.shards[0]->engine;
  Schema schema;
  schema.AddColumn({"", "view", ValueType::kString});
  schema.AddColumn({"", "cache_hits", ValueType::kInt});
  schema.AddColumn({"", "cache_misses", ValueType::kInt});
  schema.AddColumn({"", "full_cleans", ValueType::kInt});
  schema.AddColumn({"", "incr_advances", ValueType::kInt});
  schema.AddColumn({"", "pending_rows", ValueType::kInt});
  schema.AddColumn({"", "delta_version", ValueType::kInt});
  Table out(std::move(schema));
  // Counters are logical (one scatter-gather query = one hit/miss/clean,
  // not one per shard) and the delta version is the coordinator's publish
  // counter — both match what a single-shard engine reports for the same
  // statement history, so the relation is shard-count-invariant.
  const std::map<std::string, ViewCacheStats> stats =
      eng.CoordinatorCacheStats(snap);
  const uint64_t delta_version = snap.version;
  const auto as_int = [](uint64_t v) {
    return Value::Int(static_cast<int64_t>(v));
  };
  for (const auto& name : shard0.ViewNames()) {
    SVC_ASSIGN_OR_RETURN(const MaterializedView* view, shard0.GetView(name));
    size_t pending_rows = 0;
    for (const auto& rel : view->base_relations()) {
      pending_rows += eng.PendingRowsFor(snap, rel);
    }
    auto it = stats.find(name);
    const ViewCacheStats s = it == stats.end() ? ViewCacheStats{} : it->second;
    out.AppendUnchecked({Value::String(name), as_int(s.hits),
                         as_int(s.misses), as_int(s.full_cleans),
                         as_int(s.incremental_advances), as_int(pending_rows),
                         as_int(delta_version)});
  }
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " view(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecShowMaintenanceSharded(
    const ShardedSnapshot& snap) {
  const ShardedEngine& eng = *handle_.sharded();
  const MaintenancePolicyConfig cfg = snap.shards[0]->engine.maintenance_policy();
  SVC_ASSIGN_OR_RETURN(std::vector<ViewMaintenanceScore> scores,
                       eng.ScoreViews(snap, cfg, /*elapsed_ms=*/0));
  return RenderMaintenance(cfg, scores);
}

}  // namespace svc
