#include "view/delta.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <set>

namespace svc {

std::string DeltaInsertName(const std::string& relation) {
  return "__ins_" + relation;
}

std::string DeltaDeleteName(const std::string& relation) {
  return "__del_" + relation;
}

std::string DeltaChunkName(const std::string& base, size_t chunk) {
  return base + "@" + std::to_string(chunk);
}

size_t DeltaSet::Side::rows() const {
  size_t n = tail.NumRows();
  for (const auto& c : chunks) n += c.rows->NumRows();
  return n;
}

bool DeltaSet::Side::HasKey(const std::string& key) const {
  if (pk.empty()) return false;
  for (const auto& c : chunks) {
    if (std::binary_search(c.keys->begin(), c.keys->end(), key)) return true;
  }
  // The tail is empty between engine statements (SvcEngine seals at every
  // statement boundary), so scanning it is only ever a short loop.
  for (const Row& r : tail.rows()) {
    if (EncodeRowKey(r, pk) == key) return true;
  }
  return false;
}

void DeltaSet::Side::Seal() {
  if (tail.empty()) return;
  Table sealed(tail.schema());
  std::swap(sealed, tail);
  auto keys = std::make_shared<std::vector<std::string>>();
  if (!pk.empty()) {
    keys->reserve(sealed.NumRows());
    for (const Row& r : sealed.rows()) keys->push_back(EncodeRowKey(r, pk));
    std::sort(keys->begin(), keys->end());
    keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
  }
  // Non-const construction: the catalog's GetMutableTable may clone-free
  // const_cast this object if it ever becomes the sole owner.
  Chunk chunk{std::make_shared<Table>(std::move(sealed)), std::move(keys)};
  chunks.push_back(std::move(chunk));
  CompactChunks(&chunks);
}

void DeltaSet::CompactChunks(std::vector<Chunk>* chunks) {
  // Chunks before the new last one already shrink by more than half, so
  // only the tail end can violate the invariant; merges cascade backward.
  while (chunks->size() >= 2) {
    const Chunk& a = (*chunks)[chunks->size() - 2];
    const Chunk& b = chunks->back();
    if (a.rows->NumRows() > 2 * b.rows->NumRows()) break;
    auto rows = std::make_shared<Table>(a.rows->schema());
    for (const Row& r : a.rows->rows()) rows->AppendUnchecked(r);
    for (const Row& r : b.rows->rows()) rows->AppendUnchecked(r);
    auto keys = std::make_shared<std::vector<std::string>>();
    keys->reserve(a.keys->size() + b.keys->size());
    std::set_union(a.keys->begin(), a.keys->end(), b.keys->begin(),
                   b.keys->end(), std::back_inserter(*keys));
    chunks->pop_back();
    chunks->back() = {std::move(rows), std::move(keys)};
  }
}

DeltaSet::DeltaSet(const DeltaSet& other)
    : inserts_(other.inserts_),
      deletes_(other.deletes_),
      version_(other.version_) {
  Seal();
}

DeltaSet& DeltaSet::operator=(const DeltaSet& other) {
  if (this != &other) *this = DeltaSet(other);
  return *this;
}

void DeltaSet::Seal() {
  for (auto& [rel, side] : inserts_) side.Seal();
  for (auto& [rel, side] : deletes_) side.Seal();
}

Result<DeltaSet::Side*> DeltaSet::SideFor(const Database& db,
                                          const std::string& relation,
                                          std::map<std::string, Side>* sides) {
  auto it = sides->find(relation);
  if (it == sides->end()) {
    SVC_ASSIGN_OR_RETURN(const Table* base, db.GetTable(relation));
    Side s;
    s.pk = base->pk_indices();
    s.tail = Table(base->schema());
    it = sides->emplace(relation, std::move(s)).first;
  }
  return &it->second;
}

Status DeltaSet::AddInsert(const Database& db, const std::string& relation,
                           Row row) {
  SVC_ASSIGN_OR_RETURN(Side * s, SideFor(db, relation, &inserts_));
  if (row.size() != s->tail.schema().NumColumns()) {
    return Status::InvalidArgument("delta insert arity mismatch for " +
                                   relation);
  }
  s->tail.AppendUnchecked(std::move(row));
  ++version_;
  return Status::OK();
}

Status DeltaSet::AddDelete(const Database& db, const std::string& relation,
                           Row row) {
  SVC_ASSIGN_OR_RETURN(Side * s, SideFor(db, relation, &deletes_));
  if (row.size() != s->tail.schema().NumColumns()) {
    return Status::InvalidArgument("delta delete arity mismatch for " +
                                   relation);
  }
  s->tail.AppendUnchecked(std::move(row));
  ++version_;
  return Status::OK();
}

Status DeltaSet::AddUpdate(const Database& db, const std::string& relation,
                           Row old_row, Row new_row) {
  SVC_RETURN_IF_ERROR(AddDelete(db, relation, std::move(old_row)));
  return AddInsert(db, relation, std::move(new_row));
}

Status DeltaSet::Merge(DeltaSet&& other) {
  // Appends other's logical row sequence to this set's tails: the merged
  // queue reads identically to having Add'ed each row here directly, so
  // results never depend on how a batch was staged.
  auto merge_sides = [](std::map<std::string, Side>&& from,
                        std::map<std::string, Side>* into) {
    for (auto& [rel, side] : from) {
      auto it = into->find(rel);
      if (it == into->end()) {
        into->emplace(rel, std::move(side));
      } else {
        side.ForEachRow(
            [&](const Row& r) { it->second.tail.AppendUnchecked(r); });
      }
    }
    from.clear();
  };
  merge_sides(std::move(other.inserts_), &inserts_);
  merge_sides(std::move(other.deletes_), &deletes_);
  ++version_;
  return Status::OK();
}

bool DeltaSet::HasPendingInsert(const std::string& relation,
                                const std::string& key) const {
  auto it = inserts_.find(relation);
  return it != inserts_.end() && it->second.HasKey(key);
}

bool DeltaSet::HasPendingDelete(const std::string& relation,
                                const std::string& key) const {
  auto it = deletes_.find(relation);
  return it != deletes_.end() && it->second.HasKey(key);
}

bool DeltaSet::empty() const {
  for (const auto& [k, s] : inserts_) {
    if (!s.empty_rows()) return false;
  }
  for (const auto& [k, s] : deletes_) {
    if (!s.empty_rows()) return false;
  }
  return true;
}

bool DeltaSet::Touches(const std::string& relation) const {
  return InsertRows(relation) > 0 || DeleteRows(relation) > 0;
}

bool DeltaSet::HasDeletes(const std::string& relation) const {
  return DeleteRows(relation) > 0;
}

size_t DeltaSet::InsertRows(const std::string& relation) const {
  auto it = inserts_.find(relation);
  return it == inserts_.end() ? 0 : it->second.rows();
}

size_t DeltaSet::DeleteRows(const std::string& relation) const {
  auto it = deletes_.find(relation);
  return it == deletes_.end() ? 0 : it->second.rows();
}

size_t DeltaSet::TotalInserts() const {
  size_t n = 0;
  for (const auto& [k, s] : inserts_) n += s.rows();
  return n;
}

size_t DeltaSet::TotalDeletes() const {
  size_t n = 0;
  for (const auto& [k, s] : deletes_) n += s.rows();
  return n;
}

std::vector<std::string> DeltaSet::TouchedRelations() const {
  std::set<std::string> out;
  for (const auto& [k, s] : inserts_) {
    if (!s.empty_rows()) out.insert(k);
  }
  for (const auto& [k, s] : deletes_) {
    if (!s.empty_rows()) out.insert(k);
  }
  return {out.begin(), out.end()};
}

void DeltaSet::RetainRows(const std::string& relation,
                          const std::function<bool(const Row&)>& keep) {
  auto retain = [&](std::map<std::string, Side>* sides) {
    auto it = sides->find(relation);
    if (it == sides->end()) return;
    Side rebuilt;
    rebuilt.pk = it->second.pk;
    rebuilt.tail = Table(it->second.tail.schema());
    it->second.ForEachRow([&](const Row& r) {
      if (keep(r)) rebuilt.tail.AppendUnchecked(r);
    });
    it->second = std::move(rebuilt);
  };
  retain(&inserts_);
  retain(&deletes_);
  ++version_;
}

DeltaWatermark DeltaSet::Watermark() const {
  DeltaWatermark mark;
  for (const auto& [rel, s] : inserts_) mark.insert_rows[rel] = s.rows();
  for (const auto& [rel, s] : deletes_) mark.delete_rows[rel] = s.rows();
  return mark;
}

Result<DeltaSet> DeltaSet::SliceSince(const DeltaWatermark& mark) const {
  DeltaSet out;
  auto slice = [&](const std::map<std::string, Side>& sides,
                   const std::map<std::string, size_t>& marks,
                   std::map<std::string, Side>* out_sides) -> Status {
    // A watermark entry for a relation this set no longer tracks means the
    // queue was emptied after the mark was taken.
    for (const auto& [rel, n] : marks) {
      if (n > 0 && sides.find(rel) == sides.end()) {
        return Status::InvalidArgument(
            "delta watermark references relation '" + rel +
            "' with no pending rows; it predates a maintenance commit");
      }
    }
    for (const auto& [rel, side] : sides) {
      auto mit = marks.find(rel);
      const size_t skip = mit == marks.end() ? 0 : mit->second;
      const size_t total = side.rows();
      if (skip > total) {
        return Status::InvalidArgument(
            "delta watermark is ahead of the queue (" + std::to_string(skip) +
            " > " + std::to_string(total) + " rows); it predates a "
            "maintenance commit");
      }
      if (skip == total) continue;
      Side& dst = (*out_sides)[rel];
      dst.tail = Table(side.tail.schema());
      // Skip whole sealed chunks by row count so the slice costs
      // O(new rows + #chunks), not O(all queued rows).
      size_t remaining = skip;
      auto copy_from = [&](const Table& t) {
        if (remaining >= t.NumRows()) {
          remaining -= t.NumRows();
          return;
        }
        for (size_t i = remaining; i < t.NumRows(); ++i) {
          dst.tail.AppendUnchecked(t.row(i));
        }
        remaining = 0;
      };
      for (const auto& chunk : side.chunks) copy_from(*chunk.rows);
      copy_from(side.tail);
    }
    return Status::OK();
  };
  SVC_RETURN_IF_ERROR(slice(inserts_, mark.insert_rows, &out.inserts_));
  SVC_RETURN_IF_ERROR(slice(deletes_, mark.delete_rows, &out.deletes_));
  out.version_ = 1;
  return out;
}

std::vector<std::string> DeltaSet::TableNamesFor(
    const std::map<std::string, Side>& sides, const std::string& relation,
    const std::string& base) {
  std::vector<std::string> names;
  auto it = sides.find(relation);
  if (it == sides.end()) return names;
  const Side& s = it->second;
  for (size_t k = 0; k < s.chunks.size(); ++k) {
    if (!s.chunks[k].rows->empty()) {
      names.push_back(DeltaChunkName(base, k));
    }
  }
  if (!s.tail.empty()) names.push_back(base);
  return names;
}

std::vector<std::string> DeltaSet::InsertTableNames(
    const std::string& relation) const {
  return TableNamesFor(inserts_, relation, DeltaInsertName(relation));
}

std::vector<std::string> DeltaSet::DeleteTableNames(
    const std::string& relation) const {
  return TableNamesFor(deletes_, relation, DeltaDeleteName(relation));
}

Status DeltaSet::Register(Database* db) const {
  // Sealed chunks register by shared pointer — no row copies, and a chunk
  // is immutable for as long as any DeltaSet or catalog references it.
  // The tail registers by value under the canonical name (it keeps
  // mutating here); an empty tail still registers so a pre-seal copy of
  // the tail left in a forked catalog can never be scanned twice.
  auto reg = [&](const std::map<std::string, Side>& sides,
                 auto name_of) {
    for (const auto& [rel, s] : sides) {
      const std::string base = name_of(rel);
      for (size_t k = 0; k < s.chunks.size(); ++k) {
        db->PutTableShared(DeltaChunkName(base, k), s.chunks[k].rows);
      }
      // Compaction can shrink the chunk count between forks; drop the
      // trailing names a wider previous registration left behind so the
      // catalog doesn't pin (or double-expose) retired chunks.
      for (size_t k = s.chunks.size(); db->HasTable(DeltaChunkName(base, k));
           ++k) {
        (void)db->DropTable(DeltaChunkName(base, k));
      }
      db->PutTable(base, s.tail);
    }
  };
  reg(inserts_, DeltaInsertName);
  reg(deletes_, DeltaDeleteName);
  return Status::OK();
}

Status DeltaSet::ApplyToBase(Database* db) {
  // Deletes first so an update (delete + insert of the same key) lands as a
  // replacement rather than a duplicate-key failure.
  for (const auto& [rel, s] : deletes_) {
    SVC_ASSIGN_OR_RETURN(Table * base, db->GetMutableTable(rel));
    Status st = Status::OK();
    s.ForEachRow([&](const Row& r) {
      if (st.ok()) st = base->DeleteByKeyOf(r).status();
    });
    SVC_RETURN_IF_ERROR(st);
  }
  for (const auto& [rel, s] : inserts_) {
    SVC_ASSIGN_OR_RETURN(Table * base, db->GetMutableTable(rel));
    Status st = Status::OK();
    s.ForEachRow([&](const Row& r) {
      if (st.ok()) st = base->Insert(r);
    });
    SVC_RETURN_IF_ERROR(st);
  }
  auto drop = [&](const std::map<std::string, Side>& sides, auto name_of) {
    for (const auto& [rel, s] : sides) {
      const std::string base = name_of(rel);
      size_t k = 0;
      for (; k < s.chunks.size(); ++k) {
        (void)db->DropTable(DeltaChunkName(base, k));
      }
      // Also sweep stale names beyond the (possibly compacted) chunk count.
      for (; db->HasTable(DeltaChunkName(base, k)); ++k) {
        (void)db->DropTable(DeltaChunkName(base, k));
      }
      (void)db->DropTable(base);
    }
  };
  drop(inserts_, DeltaInsertName);
  drop(deletes_, DeltaDeleteName);
  inserts_.clear();
  deletes_.clear();
  ++version_;
  return Status::OK();
}

}  // namespace svc
