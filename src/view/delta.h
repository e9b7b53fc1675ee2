#ifndef SVC_VIEW_DELTA_H_
#define SVC_VIEW_DELTA_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/database.h"
#include "relational/table.h"

namespace svc {

/// The catalog name under which a base relation's pending insertions are
/// registered ("__ins_<relation>"). Chunked queues register sealed chunks
/// under DeltaChunkName(base, k) next to this name.
std::string DeltaInsertName(const std::string& relation);
/// The catalog name for pending deletions ("__del_<relation>").
std::string DeltaDeleteName(const std::string& relation);
/// The catalog name of sealed chunk `k` of a delta side ("<base>@<k>").
std::string DeltaChunkName(const std::string& base, size_t chunk);

/// A row-count snapshot of a DeltaSet (per relation and side), used by the
/// sample cache to identify which rows arrived after a sample was cleaned.
/// Counts are totals, so a watermark stays meaningful across engine forks
/// (which reshape chunks but never reorder or drop pending rows).
struct DeltaWatermark {
  std::map<std::string, size_t> insert_rows;
  std::map<std::string, size_t> delete_rows;
};

/// The paper's delta relations ∂D = {ΔR_1..ΔR_k} ∪ {∇R_1..∇R_k}: for
/// each base relation a set of inserted records and a set of deleted records
/// (an update is modeled as a deletion followed by an insertion). The
/// Database keeps the *pre-update* state until ApplyToBase commits the
/// deltas; maintenance expressions reference both through the catalog.
///
/// Storage is copy-on-write: each relation/side holds a list of sealed,
/// immutable chunks behind shared_ptr plus one owned, mutable tail that
/// appends land in. Seal moves each tail into a new chunk without copying
/// rows; SvcEngine seals at every statement boundary, so a catalog only
/// ever registers shared chunks and an ingest statement costs O(batch +
/// #chunks) whatever the queue depth. Copying a DeltaSet shares every
/// sealed chunk and seals the source's tail (if any) into a new chunk of
/// the copy, so a copy never observes a later append to its source.
/// CompactChunks keeps the chunk count at most log2(rows) + 1.
///
/// Each side also indexes the encoded primary keys of its rows (when the
/// base relation has a primary key): every sealed chunk carries the sorted,
/// immutable key set of its rows — shared by forks with the chunk, unioned
/// when chunks merge — built by Seal from the sealed rows. A conflict or
/// dedup probe (HasPendingInsert / HasPendingDelete) costs O(log rows) per
/// chunk plus a scan of the unsealed tail (empty between SvcEngine
/// statements) instead of a rebuild over the whole queue.
///
/// The logical row sequence (chunks in order, then the tail) is identical
/// however the queue is chunked; maintenance and cleaning plans scan the
/// chunks as a union, producing bit-identical results at any chunking.
class DeltaSet {
 public:
  DeltaSet() = default;

  /// Shares all sealed chunks with `other` and seals a copy of other's
  /// tail rows (O(#chunks + tail rows)). The copy's registered catalog
  /// names differ from the source's — re-Register into the copied catalog
  /// before building plans against it (SvcEngine's fork constructor does).
  DeltaSet(const DeltaSet& other);
  DeltaSet& operator=(const DeltaSet& other);
  DeltaSet(DeltaSet&&) = default;
  DeltaSet& operator=(DeltaSet&&) = default;

  /// Queues `row` for insertion into `relation` (schema from `db`).
  Status AddInsert(const Database& db, const std::string& relation, Row row);

  /// Queues `row` (full record) for deletion from `relation`.
  Status AddDelete(const Database& db, const std::string& relation, Row row);

  /// Queues an update: delete `old_row`, insert `new_row`.
  Status AddUpdate(const Database& db, const std::string& relation,
                   Row old_row, Row new_row);

  /// Moves all of `other`'s pending rows into this set (appended to the
  /// tails in other's logical order).
  Status Merge(DeltaSet&& other);

  /// True iff a row whose primary key encodes to `key` (EncodeRowKey over
  /// the base relation's primary-key columns) is queued for insertion into
  /// / deletion from `relation`. Always false for a relation without a
  /// primary key. O(log rows) per sealed chunk plus O(tail rows).
  bool HasPendingInsert(const std::string& relation,
                        const std::string& key) const;
  bool HasPendingDelete(const std::string& relation,
                        const std::string& key) const;

  /// Moves every tail into a new sealed chunk (no row copies) and compacts
  /// the chunk list. Leaves the logical row sequence and version() as they
  /// are; call Register afterwards to sync a catalog.
  void Seal();

  /// True iff no relation has pending changes — i.e. no view is stale.
  bool empty() const;

  /// True iff `relation` has pending inserts or deletes.
  bool Touches(const std::string& relation) const;

  /// True iff `relation` has pending deletes.
  bool HasDeletes(const std::string& relation) const;

  /// Number of pending insert rows for `relation` / across all relations.
  size_t InsertRows(const std::string& relation) const;
  size_t TotalInserts() const;
  /// Number of pending delete rows for `relation` / across all relations.
  size_t DeleteRows(const std::string& relation) const;
  size_t TotalDeletes() const;

  /// Relations with pending changes.
  std::vector<std::string> TouchedRelations() const;

  /// Monotonic mutation counter: bumped by every Add/Merge/ApplyToBase.
  /// Within one engine it uniquely identifies the pending-queue contents,
  /// which is what the cleaned-sample cache keys on. (Two independent
  /// forks can reach the same number with different contents — which is
  /// why forks never share one cache object.)
  uint64_t version() const { return version_; }

  /// Overwrites the mutation counter. Only for checkpoint restore, where
  /// the decoded queue contents and the persisted counter must re-pair —
  /// never call this on a live engine (it would alias cache keys).
  void RestoreVersion(uint64_t v) { version_ = v; }

  /// Rebuilds `relation`'s pending queues keeping only rows for which
  /// `keep` returns true, preserving queue order (both sides collapse to a
  /// fresh zero-chunk tail). Used when a base relation is re-partitioned:
  /// the shard drops queued rows it no longer owns. Bumps version(); a
  /// later Register drops the retired chunk names from the catalog.
  void RetainRows(const std::string& relation,
                  const std::function<bool(const Row&)>& keep);

  /// Current per-relation row counts, for later SliceSince calls.
  DeltaWatermark Watermark() const;

  /// The rows that arrived after `mark`, as a standalone tail-only
  /// DeltaSet (rows copied; cost O(new rows + #chunks)). The slice only
  /// feeds cleaning, so it skips the pending-key index: its
  /// HasPendingInsert / HasPendingDelete always report false. Fails with
  /// InvalidArgument when `mark` does not describe a prefix of this set
  /// (e.g. it was taken before a maintenance commit emptied the queue).
  Result<DeltaSet> SliceSince(const DeltaWatermark& mark) const;

  /// Visits every pending insert/delete row of `relation` in queue order.
  template <typename Fn>
  void ForEachInsert(const std::string& relation, Fn fn) const {
    auto it = inserts_.find(relation);
    if (it != inserts_.end()) it->second.ForEachRow(fn);
  }
  template <typename Fn>
  void ForEachDelete(const std::string& relation, Fn fn) const {
    auto it = deletes_.find(relation);
    if (it != deletes_.end()) it->second.ForEachRow(fn);
  }

  /// The registered catalog names holding `relation`'s pending inserts /
  /// deletes, in queue order (sealed chunks, then the tail). Empty chunks
  /// are elided; an untouched side yields an empty list. Maintenance and
  /// cleaning plans scan the union of these tables; Register must have
  /// synced the catalog first.
  std::vector<std::string> InsertTableNames(const std::string& relation) const;
  std::vector<std::string> DeleteTableNames(const std::string& relation) const;

  /// Syncs every delta table into `db`'s catalog: sealed chunks are
  /// registered by shared pointer (no row copies), the tails by value (an
  /// empty tail after Seal).
  /// Stale names from a previous shape of the queue (e.g. the pre-seal
  /// tail after a copy) are dropped.
  Status Register(Database* db) const;

  /// Commits the deltas into the base relations of `db` (deletes first,
  /// then inserts, so updates replace in place) and drops the registered
  /// delta tables. The DeltaSet is cleared.
  Status ApplyToBase(Database* db);

 private:
  /// A sealed, immutable chunk: its rows (registered into catalogs by
  /// shared pointer) and the sorted encoded primary keys of those rows
  /// (empty when the relation has no primary key).
  struct Chunk {
    std::shared_ptr<const Table> rows;
    std::shared_ptr<const std::vector<std::string>> keys;
  };

  /// One relation's pending rows on one side: sealed chunks (shared across
  /// DeltaSet copies — never mutated once sealed) plus the owned tail that
  /// appends go to.
  struct Side {
    std::vector<size_t> pk;  ///< the base relation's primary-key columns
    std::vector<Chunk> chunks;
    Table tail;

    size_t rows() const;
    bool empty_rows() const { return rows() == 0; }
    /// Binary search per sealed chunk, then a scan of the tail's rows.
    bool HasKey(const std::string& key) const;
    void Seal();
    template <typename Fn>
    void ForEachRow(Fn fn) const {
      for (const auto& c : chunks) {
        for (const Row& r : c.rows->rows()) fn(r);
      }
      for (const Row& r : tail.rows()) fn(r);
    }
  };

  /// Geometric compaction, run after each seal: while the newest chunk
  /// holds at least half as many rows as the one before it, the two merge
  /// (rows appended in queue order, key sets unioned). Chunk sizes then
  /// more than halve from oldest to newest, so a side holds at most
  /// log2(rows) + 1 chunks, and each row is copied O(log rows) times over
  /// its life in the queue — per-statement seals (and SharedEngine's
  /// per-commit forks) stay amortized O(batch · log rows) with no
  /// dependence on how earlier statements were batched. The logical row
  /// sequence — and therefore every answer — is unchanged (results are
  /// chunking-independent by construction).
  static void CompactChunks(std::vector<Chunk>* chunks);
  Result<Side*> SideFor(const Database& db, const std::string& relation,
                        std::map<std::string, Side>* sides);
  static std::vector<std::string> TableNamesFor(
      const std::map<std::string, Side>& sides, const std::string& relation,
      const std::string& base);

  std::map<std::string, Side> inserts_;
  std::map<std::string, Side> deletes_;
  uint64_t version_ = 0;
};

}  // namespace svc

#endif  // SVC_VIEW_DELTA_H_
