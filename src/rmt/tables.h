// Ternary match-action table. All P4runpro tables use ternary match with
// (value, mask) keys and priorities (paper §7 "Entry Expansion"), backed by
// TCAM on the ASIC, where one lookup costs the same however many entries a
// table holds. The simulator models capacity and indexes the entries so a
// lookup reads few of them:
//  - an entry with an exact first key (every RPB and recirculation entry
//    keys exactly on the program id) sits in that key's bucket;
//  - every other entry (every filter entry, which wildcards the ingress
//    port) sits in the wildcard pool, grouped into one run per lead: the
//    entry's first masked key component, as a (column, mask) pair. A run is
//    sorted by masked lead value, so a lookup binary-searches one short
//    range per lead instead of scanning the pool.
// Entries keep fixed-width inline key storage (no per-entry heap hop) and
// are priority-sorted within a bucket or a lead value at insert time, so a
// lookup stops at the first match.
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
#include <iterator>
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

  [[nodiscard]] bool matches(std::span<const Word> fields, int key_width) const noexcept {
    for (int i = 0; i < key_width; ++i) {
      if (!keys[static_cast<std::size_t>(i)].matches(fields[static_cast<std::size_t>(i)])) {
        return false;
      }
    }
    return true;
  }
};

/// The tie-break rule of every ternary table, master or frozen: higher
/// priority wins; a tie goes to the earlier insertion (lower handle).
/// `best` may be null.
template <typename Entry>
[[nodiscard]] inline bool better(const Entry& candidate, const Entry* best) noexcept {
  return best == nullptr || candidate.priority > best->priority ||
         (candidate.priority == best->priority && candidate.handle < best->handle);
}

/// Entries sharing one exact first key, sorted by (priority desc, handle
/// asc) so the first match wins.
template <typename Action, int MaxWidth>
struct TernaryBucket {
  using Entry = TernaryEntry<Action, MaxWidth>;

  std::vector<Entry> entries;
  /// Table generation of the last insert or erase in this bucket (0 = never
  /// written). A frozen copy taken at table generation G still equals the
  /// bucket iff stamp <= G.
  std::uint64_t stamp = 0;

  void insert(Entry&& entry) {
    // Handles grow monotonically, so inserting after every entry of
    // priority >= p preserves insertion order within a priority level.
    const int priority = entry.priority;
    entries.insert(std::partition_point(entries.begin(), entries.end(),
                                        [priority](const Entry& e) {
                                          return e.priority >= priority;
                                        }),
                   std::move(entry));
  }
  void erase(std::size_t at) {
    entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(at));
  }

  [[nodiscard]] const Entry* match(std::span<const Word> fields,
                                   int key_width) const noexcept {
    for (const Entry& entry : entries) {
      if (entry.matches(fields, key_width)) return &entry;
    }
    return nullptr;
  }
};

/// The wildcard pool: every entry whose first key is not exact, held as one
/// bucket with one stamp. Its entries form one contiguous run per lead, the
/// entry's first key component with a nonzero mask as a (column, mask)
/// pair. A run is sorted by (masked lead value, priority desc, handle asc),
/// so among the entries whose lead value equals the packet's masked field
/// the first full match is the run's winner. Entries with no masked
/// component match every packet and form the run of mask 0 (column 0, every
/// lead value 0).
template <typename Action, int MaxWidth>
struct TernaryPool {
  using Entry = TernaryEntry<Action, MaxWidth>;
  struct Run {
    std::uint32_t column = 0;
    Word mask = 0;
    std::size_t end = 0;  ///< one past its last entry; it starts where the previous run ends
  };

  std::vector<Entry> entries;
  std::vector<Word> lead_values;  ///< entries[i]'s masked lead value
  std::vector<Run> runs;          ///< in entry order; none is empty
  std::uint64_t stamp = 0;        ///< as TernaryBucket::stamp

  void insert(Entry&& entry) {
    std::uint32_t column = 0;
    while (column < MaxWidth && entry.keys[column].mask == 0) ++column;
    if (column == MaxWidth) column = 0;
    const Word mask = entry.keys[column].mask;
    const Word value = entry.keys[column].value & mask;
    auto run = std::find_if(runs.begin(), runs.end(), [&](const Run& r) {
      return r.column == column && r.mask == mask;
    });
    if (run == runs.end()) run = runs.insert(runs.end(), Run{column, mask, entries.size()});
    // After every entry of a lower lead value, and every entry of an equal
    // lead value and priority >= p (as TernaryBucket::insert).
    const Word* values = lead_values.data();
    const auto [lo, hi] = std::equal_range(values + begin_of(run), values + run->end, value);
    const int priority = entry.priority;
    const Entry* first = entries.data();
    const std::ptrdiff_t at =
        std::partition_point(first + (lo - values), first + (hi - values),
                             [priority](const Entry& e) { return e.priority >= priority; }) -
        first;
    lead_values.insert(lead_values.begin() + at, value);
    entries.insert(entries.begin() + at, std::move(entry));
    for (; run != runs.end(); ++run) ++run->end;
  }

  void erase(std::size_t at) {
    const auto run =
        std::find_if(runs.begin(), runs.end(), [at](const Run& r) { return at < r.end; });
    const std::size_t begin = begin_of(run);
    entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(at));
    lead_values.erase(lead_values.begin() + static_cast<std::ptrdiff_t>(at));
    for (auto later = run; later != runs.end(); ++later) --later->end;
    if (run->end == begin) runs.erase(run);
  }

  /// The better of `best` and every run's winner.
  [[nodiscard]] const Entry* match(std::span<const Word> fields, int key_width,
                                   const Entry* best) const noexcept {
    const Word* values = lead_values.data();
    std::size_t begin = 0;
    for (const Run& run : runs) {
      const Word want = fields[run.column] & run.mask;
      const Word* end = values + run.end;
      for (const Word* it = std::lower_bound(values + begin, end, want);
           it != end && *it == want; ++it) {
        const Entry& entry = entries.data()[it - values];
        if (entry.matches(fields, key_width)) {
          if (better(entry, best)) best = &entry;
          break;
        }
      }
      begin = run.end;
    }
    return best;
  }

 private:
  [[nodiscard]] std::size_t begin_of(
      typename std::vector<Run>::const_iterator run) const noexcept {
    return run == runs.begin() ? 0 : std::prev(run)->end;
  }
};

/// The match rule of every ternary table, master or frozen: the better of
/// the exact-first-key bucket's first match and the wildcard pool's best
/// (either may be null). The helpers are inline so the compiler inlines
/// them into every lookup: left out of line they cost the per-packet path a
/// few percent.
template <typename Action, int MaxWidth>
[[nodiscard]] inline const TernaryEntry<Action, MaxWidth>* best_match(
    const TernaryBucket<Action, MaxWidth>* exact, const TernaryPool<Action, MaxWidth>* pool,
    std::span<const Word> fields, int key_width) noexcept {
  const TernaryEntry<Action, MaxWidth>* best =
      exact != nullptr ? exact->match(fields, key_width) : nullptr;
  return pool != nullptr ? pool->match(fields, key_width, best) : best;
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
    if (indexed) {
      insert_into(bucket_for_insert(keys[0].value), std::move(entry));
    } else {
      insert_into(pool_, std::move(entry));
    }
    locator_.emplace(handle, Locator{indexed, indexed ? keys[0].value : 0});
    ++size_;
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
      erase_from(pool_, handle);
    }
    locator_.erase(loc);
    --size_;
    return true;
  }

  /// Highest-priority matching action, or nullptr on miss. The returned
  /// pointer stays valid until the next insert/erase.
  [[nodiscard]] const Action* lookup(std::span<const Word> fields) const noexcept {
    const Entry* best =
        detail::best_match(find_bucket(fields[0]), &pool_, fields, key_width_);
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
  using Pool = detail::TernaryPool<Action, MaxWidth>;

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

  /// Insert into `bucket` (an exact-first-key bucket or the pool) and
  /// stamp it with the bumped generation.
  template <typename B>
  void insert_into(B& bucket, Entry&& entry) {
    bucket.insert(std::move(entry));
    bucket.stamp = ++generation_;
  }

  /// Erase `handle` from `bucket` (an exact-first-key bucket or the pool)
  /// and stamp it with the current generation (erase bumps it first).
  template <typename B>
  void erase_from(B& bucket, EntryHandle handle) {
    const auto it = std::find_if(
        bucket.entries.begin(), bucket.entries.end(), [&](const Entry& e) {
          ++stats_.erase_probes;
          return e.handle == handle;
        });
    assert(it != bucket.entries.end());
    bucket.erase(static_cast<std::size_t>(it - bucket.entries.begin()));
    bucket.stamp = generation_;
  }

  int key_width_;
  std::size_t capacity_;
  std::size_t size_ = 0;
  std::uint64_t generation_ = 1;  ///< bumped by every insert and erase
  std::vector<Bucket> dense_;  ///< buckets for first keys < kDenseFirstKeyLimit
  std::unordered_map<Word, Bucket> indexed_;  ///< buckets for large first keys
  Pool pool_;  ///< entries whose first key is not exact
  std::unordered_map<EntryHandle, Locator> locator_;
  EntryHandle next_handle_ = 1;
  TernaryTableStats stats_;
};

/// Immutable, publishable form of a TernaryTable: what a dp::TableSnapshot
/// holds and shard pipes read concurrently. Buckets and the wildcard pool
/// are held as shared_ptr<const>, so successive frozen forms of one master
/// table share every bucket no insert or erase touched in between. A frozen
/// table is never erased from, so it keeps no handle locator. Lookups run
/// the same match and tie-break helpers as the master table and write no
/// shared state.
template <typename Action, int MaxWidth = kMaxTernaryKeyWidth>
class FrozenTernaryTable {
 public:
  using Master = TernaryTable<Action, MaxWidth>;
  using Bucket = detail::TernaryBucket<Action, MaxWidth>;
  using Pool = detail::TernaryPool<Action, MaxWidth>;

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
    const auto* best =
        detail::best_match(find_bucket(fields[0]), pool_.get(), fields, key_width_);
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
  /// The wildcard pool (every entry whose first key is not exact, in its
  /// lead runs), or nullptr when it is empty. It is shared or copied whole,
  /// as one bucket.
  [[nodiscard]] const Pool* wildcard_bucket() const noexcept { return pool_.get(); }

 private:
  using BucketPtr = std::shared_ptr<const Bucket>;
  using PoolPtr = std::shared_ptr<const Pool>;

  FrozenTernaryTable(const Master& master, const FrozenTernaryTable* previous,
                     FreezeCounts& counts)
      : key_width_(master.key_width_),
        size_(master.size_),
        generation_(master.generation_) {
    // `old` is previous's bucket for the same first key, or its pool (or
    // null). It is still exact iff no insert or erase stamped the master
    // bucket after previous was frozen.
    const auto take = [&]<typename B>(const B& bucket, const std::shared_ptr<const B>* old)
        -> std::shared_ptr<const B> {
      if (bucket.entries.empty()) return nullptr;
      ++buckets_;
      if (old != nullptr && *old != nullptr && bucket.stamp <= previous->generation_) {
        ++counts.shared;
        return *old;
      }
      ++counts.frozen;
      return std::make_shared<B>(bucket);
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
    pool_ = take(master.pool_, previous != nullptr ? &previous->pool_ : nullptr);
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
  PoolPtr pool_;
};

}  // namespace p4runpro::rmt
