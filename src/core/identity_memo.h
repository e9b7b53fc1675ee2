#ifndef SVC_CORE_IDENTITY_MEMO_H_
#define SVC_CORE_IDENTITY_MEMO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace svc {

/// Hit/miss counters of one view's memo entries.
struct MemoStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// A memo of values derived from immutable inputs: an entry is valid only
/// while every input it was built from is still the same live object.
/// Inputs are held as weak_ptr, so the memo pins nothing, and a freed input
/// never validates, even when a new object reuses its address (a weak_ptr
/// to a dead object stays expired). Callers key on objects that are
/// replaced, never mutated in place, while readable: the tables and
/// samples of published engine snapshots.
///
/// Entries are keyed by (view, detail), counted per view, and LRU-bounded
/// at kMaxEntries (details are user-controlled, like SampleCache's keys).
/// One mutex guards lookups and installs; `compute` runs outside it, so
/// two concurrent misses may both compute — harmless, since a value is a
/// deterministic function of its inputs.
template <typename V>
class IdentityMemo {
 public:
  static constexpr size_t kMaxEntries = 64;
  using Inputs = std::vector<std::shared_ptr<const void>>;

  /// The value memoized under (view, detail) for exactly `inputs`, else
  /// `compute()`'s (a Result<V>), then memoized. `use_memo` false bypasses
  /// the memo: no lookup, no install, no counting.
  template <typename Fn>
  Result<std::shared_ptr<const V>> GetOrCompute(const std::string& view,
                                                const std::string& detail,
                                                const Inputs& inputs,
                                                bool use_memo, Fn&& compute) {
    const Key key{view, detail};
    if (use_memo) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end() && SameInputs(it->second.inputs, inputs)) {
        it->second.last_used = ++clock_;
        ++stats_[view].hits;
        return it->second.value;
      }
      ++stats_[view].misses;
    }
    SVC_ASSIGN_OR_RETURN(V computed, compute());
    auto value = std::make_shared<const V>(std::move(computed));
    if (!use_memo) return value;
    std::lock_guard<std::mutex> lock(mu_);
    entries_[key] = Entry{{inputs.begin(), inputs.end()}, value, ++clock_};
    if (entries_.size() > kMaxEntries) {
      // The entry just installed has the newest stamp, so it survives.
      auto lru = entries_.begin();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.last_used < lru->second.last_used) lru = it;
      }
      entries_.erase(lru);
    }
    return value;
  }

  /// Point-in-time copy of the per-view counters.
  std::map<std::string, MemoStats> Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  using Key = std::pair<std::string, std::string>;
  struct Entry {
    std::vector<std::weak_ptr<const void>> inputs;
    std::shared_ptr<const V> value;
    uint64_t last_used = 0;
  };

  static bool SameInputs(const std::vector<std::weak_ptr<const void>>& held,
                         const Inputs& current) {
    if (held.size() != current.size()) return false;
    for (size_t i = 0; i < held.size(); ++i) {
      if (current[i] == nullptr || held[i].lock() != current[i]) return false;
    }
    return true;
  }

  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::map<std::string, MemoStats> stats_;
  uint64_t clock_ = 0;  // LRU clock
};

}  // namespace svc

#endif  // SVC_CORE_IDENTITY_MEMO_H_
