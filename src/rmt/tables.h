// Ternary match-action table. All P4runpro tables use ternary match with
// (value, mask) keys and priorities (paper §7 "Entry Expansion"), backed by
// TCAM on the ASIC. The simulator models capacity and accelerates lookup
// with compiled buckets: entries are grouped by exact-match first key (the
// RPB tables key entries on the program id, which is always exact), stored
// with fixed-width inline key storage (no per-entry heap hop), and kept
// priority-sorted at insert time so a lookup can stop at the first match,
// mimicking the O(1) TCAM lookup without a full TCAM model.
//
// Concurrency: a TernaryTable is NOT thread-safe for mutation; its lookups
// write nothing. Concurrent readers (the shard pipes) read a
// FrozenTernaryTable instead: the immutable, publishable form of a table,
// which shares every bucket that did not change with the previous frozen
// form of the same master table (see docs/ARCHITECTURE.md "Snapshot data
// plane").
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace p4runpro::rmt {

/// One ternary key component: matches iff (packet_value & mask) == (value & mask).
struct TernaryKey {
  Word value = 0;
  Word mask = 0;

  [[nodiscard]] bool matches(Word field) const noexcept {
    return (field & mask) == (value & mask);
  }
  /// Wildcard component (matches anything).
  [[nodiscard]] static TernaryKey any() noexcept { return {0, 0}; }
  /// Exact-match component.
  [[nodiscard]] static TernaryKey exact(Word v) noexcept { return {v, 0xffffffffu}; }
};

using EntryHandle = std::uint64_t;

/// Widest key any provisioned table uses (the init-block filter tables,
/// kFilterKeyWidth = 7). The default inline key capacity of TernaryTable.
inline constexpr int kMaxTernaryKeyWidth = 8;

/// Erase instrumentation of a table: what the regression tests use to prove
/// that erase touches only the owning bucket (not every bucket).
struct TernaryTableStats {
  std::uint64_t erase_probes = 0;  ///< entries examined across all erases
  std::uint64_t erase_calls = 0;
};

/// Buckets a freeze copied from its master table, and buckets it took over
/// from the previous frozen form (see FrozenTernaryTable::freeze).
struct FreezeCounts {
  std::size_t frozen = 0;
  std::size_t shared = 0;
};

template <typename Action, int MaxWidth>
class FrozenTernaryTable;

namespace detail {

/// Exact first keys below this bound live in a direct-indexed bucket
/// array (program ids and ports are small dense integers — the common
/// case — and a lookup then costs one bounds check instead of a hash
/// probe); larger keys fall back to a hash map.
inline constexpr Word kDenseFirstKeyLimit = 4096;

template <typename Action, int MaxWidth>
struct TernaryEntry {
  std::array<TernaryKey, MaxWidth> keys;  // components [0, key_width)
  int priority = 0;
  EntryHandle handle = 0;
  Action action{};
};

/// Entries sharing one exact first key (or the wildcard-first-key pool),
/// sorted by (priority desc, handle asc) so the first match wins.
template <typename Action, int MaxWidth>
struct TernaryBucket {
  std::vector<TernaryEntry<Action, MaxWidth>> entries;
  /// Table generation of the last insert or erase in this bucket (0 = never
  /// written). A frozen copy taken at table generation G still equals the
  /// bucket iff stamp <= G.
  std::uint64_t stamp = 0;
};

template <typename Action, int MaxWidth>
[[nodiscard]] inline const TernaryEntry<Action, MaxWidth>* first_match(
    const TernaryBucket<Action, MaxWidth>& bucket, std::span<const Word> fields,
    int key_width) noexcept {
  for (const auto& entry : bucket.entries) {
    bool hit = true;
    for (int i = 0; i < key_width; ++i) {
      if (!entry.keys[static_cast<std::size_t>(i)].matches(
              fields[static_cast<std::size_t>(i)])) {
        hit = false;
        break;
      }
    }
    // Entries are sorted (priority desc, handle asc): the first match is
    // the bucket's winner.
    if (hit) return &entry;
  }
  return nullptr;
}

/// The match and tie-break rule of every ternary table, master or frozen:
/// the better of the first matches in the exact-first-key bucket and in
/// the wildcard pool (either may be null). Higher priority wins; a tie goes
/// to the earlier insertion (lower handle). Both helpers are declared
/// `inline` so the compiler inlines them into every lookup: left out of
/// line they cost the per-packet path a few percent.
template <typename Action, int MaxWidth>
[[nodiscard]] inline const TernaryEntry<Action, MaxWidth>* best_match(
    const TernaryBucket<Action, MaxWidth>* exact,
    const TernaryBucket<Action, MaxWidth>* wild, std::span<const Word> fields,
    int key_width) noexcept {
  const TernaryEntry<Action, MaxWidth>* best =
      exact != nullptr ? first_match(*exact, fields, key_width) : nullptr;
  const TernaryEntry<Action, MaxWidth>* other =
      wild != nullptr ? first_match(*wild, fields, key_width) : nullptr;
  if (other != nullptr &&
      (best == nullptr || other->priority > best->priority ||
       (other->priority == best->priority && other->handle < best->handle))) {
    best = other;
  }
  return best;
}

}  // namespace detail

/// Match-action table with ternary keys and an arbitrary action payload.
/// Width (number of key components) is fixed per table; capacity models the
/// TCAM budget of the stage. `MaxWidth` bounds the inline per-entry key
/// storage at compile time (the RPB instantiates with kRpbKeyWidth).
template <typename Action, int MaxWidth = kMaxTernaryKeyWidth>
class TernaryTable {
 public:
  static_assert(MaxWidth >= 1 && MaxWidth <= 32);

  TernaryTable(int key_width, std::size_t capacity)
      : key_width_(key_width), capacity_(capacity) {
    assert(key_width >= 1 && key_width <= MaxWidth);
  }

  /// Insert an entry; higher `priority` wins on overlap, ties resolve to
  /// the earlier insertion. Fails when the table is full (the allocator
  /// must prevent this; hitting it at runtime indicates an accounting bug).
  Result<EntryHandle> insert(std::span<const TernaryKey> keys, int priority,
                             Action action) {
    if (keys.size() != static_cast<std::size_t>(key_width_)) {
      return Error{"key width mismatch", "TernaryTable", ErrorCode::InvalidArgument};
    }
    if (size_ >= capacity_) {
      return Error{"table full", "TernaryTable", ErrorCode::AllocFailed};
    }
    const EntryHandle handle = next_handle_++;
    Entry entry;
    std::copy(keys.begin(), keys.end(), entry.keys.begin());
    entry.priority = priority;
    entry.handle = handle;
    entry.action = std::move(action);

    const bool indexed = keys[0].mask == 0xffffffffu;
    Bucket& bucket = indexed ? bucket_for_insert(keys[0].value) : unindexed_;
    // Keep the bucket sorted by (priority desc, handle asc): handles grow
    // monotonically, so inserting after every entry of priority >= p
    // preserves insertion order within a priority level.
    const auto pos = std::partition_point(
        bucket.entries.begin(), bucket.entries.end(),
        [priority](const Entry& e) { return e.priority >= priority; });
    bucket.entries.insert(pos, std::move(entry));
    locator_.emplace(handle, Locator{indexed, indexed ? keys[0].value : 0});
    ++size_;
    bucket.stamp = ++generation_;
    return handle;
  }

  Result<EntryHandle> insert(std::initializer_list<TernaryKey> keys, int priority,
                             Action action) {
    return insert(std::span<const TernaryKey>(keys.begin(), keys.size()), priority,
                  std::move(action));
  }

  /// Remove by handle; returns false if the handle is unknown. The
  /// handle->bucket locator makes this touch only the owning bucket.
  bool erase(EntryHandle handle) {
    const auto loc = locator_.find(handle);
    if (loc == locator_.end()) return false;
    ++stats_.erase_calls;
    ++generation_;
    if (loc->second.indexed) {
      const Word first_key = loc->second.first_key;
      if (first_key < detail::kDenseFirstKeyLimit) {
        assert(first_key < dense_.size());
        erase_from(dense_[first_key], handle);
      } else {
        const auto it = indexed_.find(first_key);
        assert(it != indexed_.end());
        erase_from(it->second, handle);
        if (it->second.entries.empty()) indexed_.erase(it);
      }
    } else {
      erase_from(unindexed_, handle);
    }
    locator_.erase(loc);
    --size_;
    return true;
  }

  /// Highest-priority matching action, or nullptr on miss. The returned
  /// pointer stays valid until the next insert/erase.
  [[nodiscard]] const Action* lookup(std::span<const Word> fields) const noexcept {
    const Entry* best =
        detail::best_match(find_bucket(fields[0]), &unindexed_, fields, key_width_);
    return best == nullptr ? nullptr : &best->action;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t free_entries() const noexcept { return capacity_ - size_; }
  [[nodiscard]] int key_width() const noexcept { return key_width_; }

  [[nodiscard]] const TernaryTableStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  friend class FrozenTernaryTable<Action, MaxWidth>;
  using Entry = detail::TernaryEntry<Action, MaxWidth>;
  using Bucket = detail::TernaryBucket<Action, MaxWidth>;

  struct Locator {
    bool indexed = false;
    Word first_key = 0;
  };

  [[nodiscard]] const Bucket* find_bucket(Word first_key) const noexcept {
    if (first_key < dense_.size()) return &dense_[first_key];
    if (first_key < detail::kDenseFirstKeyLimit) return nullptr;  // never populated
    const auto it = indexed_.find(first_key);
    return it == indexed_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] Bucket& bucket_for_insert(Word first_key) {
    if (first_key < detail::kDenseFirstKeyLimit) {
      if (dense_.size() <= first_key) dense_.resize(first_key + 1u);
      return dense_[first_key];
    }
    return indexed_[first_key];
  }

  /// Erase `handle` from `bucket` and stamp the bucket with the current
  /// generation (erase bumps it first).
  void erase_from(Bucket& bucket, EntryHandle handle) {
    const auto it = std::find_if(
        bucket.entries.begin(), bucket.entries.end(), [&](const Entry& e) {
          ++stats_.erase_probes;
          return e.handle == handle;
        });
    assert(it != bucket.entries.end());
    bucket.entries.erase(it);
    bucket.stamp = generation_;
  }

  int key_width_;
  std::size_t capacity_;
  std::size_t size_ = 0;
  std::uint64_t generation_ = 1;  ///< bumped by every insert and erase
  std::vector<Bucket> dense_;  ///< buckets for first keys < kDenseFirstKeyLimit
  std::unordered_map<Word, Bucket> indexed_;  ///< buckets for large first keys
  Bucket unindexed_;
  std::unordered_map<EntryHandle, Locator> locator_;
  EntryHandle next_handle_ = 1;
  TernaryTableStats stats_;
};

/// Immutable, publishable form of a TernaryTable: what a dp::TableSnapshot
/// holds and shard pipes read concurrently. Buckets are held as
/// shared_ptr<const>, so successive frozen forms of one master table share
/// every bucket no insert or erase touched in between. A frozen table is
/// never erased from, so it keeps no handle locator. Lookups run the same
/// match and tie-break helper as the master table and write no shared state.
template <typename Action, int MaxWidth = kMaxTernaryKeyWidth>
class FrozenTernaryTable {
 public:
  using Master = TernaryTable<Action, MaxWidth>;
  using Bucket = detail::TernaryBucket<Action, MaxWidth>;

  /// Freeze `master`. `previous` is null or a frozen form of the same master
  /// table: each bucket whose stamp has not moved past `previous`'s
  /// generation is shared with it instead of copied, and when the master's
  /// generation has not moved at all, `previous` itself is returned.
  /// `counts` accumulates the copied and the shared buckets.
  [[nodiscard]] static std::shared_ptr<const FrozenTernaryTable> freeze(
      const Master& master, const std::shared_ptr<const FrozenTernaryTable>& previous,
      FreezeCounts& counts) {
    if (previous != nullptr && previous->generation_ == master.generation_) {
      counts.shared += previous->buckets_;
      return previous;
    }
    return std::shared_ptr<const FrozenTernaryTable>(
        new FrozenTernaryTable(master, previous.get(), counts));
  }

  /// Highest-priority matching action, or nullptr on miss.
  [[nodiscard]] const Action* lookup(std::span<const Word> fields) const noexcept {
    const auto* best = detail::best_match(find_bucket(fields[0]), unindexed_.get(),
                                          fields, key_width_);
    return best == nullptr ? nullptr : &best->action;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] int key_width() const noexcept { return key_width_; }
  /// Non-empty buckets held: exact-first-key buckets plus the wildcard pool.
  [[nodiscard]] std::size_t buckets() const noexcept { return buckets_; }

  /// The bucket of exact first key `first_key`, or nullptr when it is empty.
  /// Pointer identity across frozen forms tells shared from copied buckets.
  [[nodiscard]] const Bucket* bucket(Word first_key) const noexcept {
    return find_bucket(first_key);
  }
  /// The wildcard-first-key pool, or nullptr when it is empty.
  [[nodiscard]] const Bucket* wildcard_bucket() const noexcept { return unindexed_.get(); }

 private:
  using BucketPtr = std::shared_ptr<const Bucket>;

  FrozenTernaryTable(const Master& master, const FrozenTernaryTable* previous,
                     FreezeCounts& counts)
      : key_width_(master.key_width_),
        size_(master.size_),
        generation_(master.generation_) {
    // `old` is previous's bucket for the same first key (or null). It is
    // still exact iff no insert or erase stamped the master bucket after
    // previous was frozen.
    const auto take = [&](const Bucket& bucket, const BucketPtr* old) -> BucketPtr {
      if (bucket.entries.empty()) return nullptr;
      ++buckets_;
      if (old != nullptr && *old != nullptr && bucket.stamp <= previous->generation_) {
        ++counts.shared;
        return *old;
      }
      ++counts.frozen;
      return std::make_shared<Bucket>(bucket);
    };
    dense_.reserve(master.dense_.size());
    for (std::size_t key = 0; key < master.dense_.size(); ++key) {
      const BucketPtr* old = previous != nullptr && key < previous->dense_.size()
                                 ? &previous->dense_[key]
                                 : nullptr;
      dense_.push_back(take(master.dense_[key], old));
    }
    for (const auto& [key, bucket] : master.indexed_) {
      const BucketPtr* old = nullptr;
      if (previous != nullptr) {
        const auto it = previous->indexed_.find(key);
        if (it != previous->indexed_.end()) old = &it->second;
      }
      if (BucketPtr frozen = take(bucket, old)) indexed_.emplace(key, std::move(frozen));
    }
    unindexed_ =
        take(master.unindexed_, previous != nullptr ? &previous->unindexed_ : nullptr);
  }

  [[nodiscard]] const Bucket* find_bucket(Word first_key) const noexcept {
    if (first_key < dense_.size()) return dense_[first_key].get();
    if (first_key < detail::kDenseFirstKeyLimit) return nullptr;
    const auto it = indexed_.find(first_key);
    return it == indexed_.end() ? nullptr : it->second.get();
  }

  int key_width_;
  std::size_t size_;
  std::uint64_t generation_;  ///< the master's generation at the freeze
  std::size_t buckets_ = 0;
  std::vector<BucketPtr> dense_;  ///< index = exact first key; null = empty
  std::unordered_map<Word, BucketPtr> indexed_;
  BucketPtr unindexed_;
};

}  // namespace p4runpro::rmt
