// Differential tests for TernaryTable, and for its incrementally and
// from-scratch frozen forms, against a naive reference scan: narrow keys,
// and filter-shaped keys that exercise the lead-indexed wildcard pool. Plus
// regression tests for handle-indexed erase (touches only the owning
// bucket) and for the RPB lookup on top of the table: every packet sees the
// current winner across inserts and erases, and entries keyed on registers
// are decided per packet.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "dataplane/rpb.h"
#include "rmt/phv.h"
#include "rmt/tables.h"

namespace {

using namespace p4runpro;
using rmt::TernaryKey;
using rmt::TernaryTable;

// --- naive reference model ------------------------------------------------

struct RefEntry {
  std::vector<TernaryKey> keys;
  int priority = 0;
  std::uint64_t order = 0;  // insertion order; earlier wins priority ties
  int action = 0;
};

class ReferenceTable {
 public:
  explicit ReferenceTable(int width) : width_(width) {}

  std::uint64_t insert(std::vector<TernaryKey> keys, int priority, int action) {
    RefEntry e{std::move(keys), priority, next_order_++, action};
    entries_.push_back(std::move(e));
    return entries_.back().order;
  }

  bool erase(std::uint64_t order) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].order == order) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::optional<int> lookup(std::span<const Word> fields) const {
    const RefEntry* best = nullptr;
    for (const RefEntry& e : entries_) {
      bool hit = true;
      for (int i = 0; i < width_; ++i) {
        if (!e.keys[static_cast<std::size_t>(i)].matches(
                fields[static_cast<std::size_t>(i)])) {
          hit = false;
          break;
        }
      }
      if (!hit) continue;
      if (best == nullptr || e.priority > best->priority ||
          (e.priority == best->priority && e.order < best->order)) {
        best = &e;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->action;
  }

 private:
  int width_;
  std::vector<RefEntry> entries_;
  std::uint64_t next_order_ = 1;
};

// --- randomized differential ----------------------------------------------

struct Live {
  rmt::EntryHandle handle;
  std::uint64_t order;
  std::vector<TernaryKey> keys;
};

/// The (column, mask) of an entry's first masked component; (0, 0) when it
/// has none.
std::pair<std::size_t, Word> lead_of(const std::vector<TernaryKey>& keys) {
  for (std::size_t c = 0; c < keys.size(); ++c) {
    if (keys[c].mask != 0) return {c, keys[c].mask};
  }
  return {0, 0};
}

/// Width 3. First-key values mix the dense-indexed range, the hash-map
/// fallback range (>= the dense limit of 4096) and wildcards; later
/// components mix exact, partial-mask (0x7) and wildcard keys over values
/// below 8, so priorities matter.
struct NarrowShape {
  static constexpr int kWidth = 3;
  static constexpr int kOps = 6000;
  std::mt19937& rng;

  Word first_value() {
    switch (rng() % 3) {
      case 0: return rng() % 6;          // dense, heavy collisions
      case 1: return 40000 + rng() % 4;  // sparse, hash-map fallback
      default: return 1000 + rng() % 8;  // dense, light collisions
    }
  }
  TernaryKey key(bool first) {
    const Word v = first ? first_value() : rng() % 8;
    switch (rng() % 3) {
      case 0: return TernaryKey::any();
      case 1: return TernaryKey::exact(v);
      default: return TernaryKey{v, 0x7u};  // partial mask
    }
  }
  std::vector<TernaryKey> keys() {
    std::vector<TernaryKey> keys;
    keys.push_back(key(/*first=*/true));
    for (int i = 1; i < kWidth; ++i) keys.push_back(key(false));
    return keys;
  }
  /// A 0-9 draw below `first` inserts, below `second` erases, else looks up.
  std::pair<unsigned, unsigned> mix(int /*op*/) const { return {4, 6}; }
  std::array<Word, kWidth> fields(const std::vector<Live>& /*live*/) {
    std::array<Word, kWidth> fields;
    fields[0] = first_value();
    for (int i = 1; i < kWidth; ++i) fields[static_cast<std::size_t>(i)] = rng() % 8;
    return fields;
  }
};

/// Width 7, shaped like the init-block filter tables: the first key (the
/// ingress port) is mostly wildcarded, so most entries land in the wildcard
/// pool. Leads sit on columns 1, 2, 3, 5 and 6 with /16, /24, 16-bit and
/// 8-bit masks; a quarter of the entries add a second masked component,
/// some are all wildcard, and stored values carry bits outside their mask.
/// Inserts and erases dominate in alternate phases, so runs empty and fill
/// again. Lookups land on, and next to, a live entry's values.
struct FilterShape {
  static constexpr int kWidth = 7;
  static constexpr int kOps = 8000;
  static constexpr std::array<std::size_t, 5> kLeadColumns = {1, 2, 3, 5, 6};
  static constexpr std::array<Word, 4> kMasks = {0xffff0000u, 0xffffff00u, 0xffffu, 0xffu};
  /// Field values whose masked forms collide across entries and across masks.
  static constexpr std::array<Word, 5> kValues = {0x0a000000u, 0x0a010203u, 0x0a02ff50u,
                                                  0xc0a80011u, 0x00001e61u};
  std::mt19937& rng;

  Word value() { return kValues[rng() % kValues.size()]; }
  TernaryKey masked() {
    const Word mask = kMasks[rng() % kMasks.size()];
    return {(value() & mask) | (static_cast<Word>(rng()) & ~mask), mask};
  }
  std::vector<TernaryKey> keys() {
    std::vector<TernaryKey> keys(kWidth, TernaryKey::any());
    if (rng() % 10 == 0) keys[0] = TernaryKey::exact(rng() % 3);
    if (rng() % 12 == 0) return keys;  // no masked component past the port
    const std::size_t lead = kLeadColumns[rng() % kLeadColumns.size()];
    keys[lead] = masked();
    if (rng() % 4 == 0) {
      const std::size_t second = 1 + (lead + rng() % 5) % 6;  // any of 1-6 but `lead`
      keys[second] = masked();
    }
    return keys;
  }
  std::pair<unsigned, unsigned> mix(int op) const {
    return (op / 400) % 2 == 0 ? std::pair{6u, 8u} : std::pair{1u, 7u};
  }
  std::array<Word, kWidth> fields(const std::vector<Live>& live) {
    std::array<Word, kWidth> fields;
    fields[0] = rng() % 4;
    for (std::size_t c = 1; c < fields.size(); ++c) {
      fields[c] = value() ^ (rng() % 2 == 0 ? 0u : static_cast<Word>(rng() % 256));
    }
    if (live.empty()) return fields;
    const std::vector<TernaryKey>& keys = live[rng() % live.size()].keys;
    for (std::size_t c = 1; c < fields.size(); ++c) {
      if (keys[c].mask != 0) {
        fields[c] = (keys[c].value & keys[c].mask) | (static_cast<Word>(rng()) & ~keys[c].mask);
      }
    }
    // On the entry's lead value, on the next or previous masked value, or
    // one off in the raw field.
    const auto [lead, mask] = lead_of(keys);
    const Word step = mask & (~mask + 1u);
    switch (rng() % 5) {
      case 0: fields[lead] += step; break;
      case 1: fields[lead] -= step; break;
      case 2: fields[lead] += rng() % 2 == 0 ? 1u : ~0u; break;
      default: break;
    }
    return fields;
  }
};

/// Random inserts, erases and lookups on a TernaryTable, an incrementally
/// frozen form of it and a from-scratch frozen form, each lookup checked
/// against the naive reference scan, ties in priority included.
template <typename Shape>
void run_differential(Shape shape, std::mt19937& rng) {
  constexpr int kWidth = Shape::kWidth;
  using Frozen = rmt::FrozenTernaryTable<int, kWidth>;
  TernaryTable<int, kWidth> table(kWidth, 100000);
  ReferenceTable ref(kWidth);
  std::shared_ptr<const Frozen> frozen;
  std::vector<Live> live;
  // Live pool entries per lead, and how often a lead's last entry was
  // erased and a new one inserted afterwards.
  std::map<std::pair<std::size_t, Word>, int> per_lead;
  int refilled_leads = 0;
  int next_action = 0;

  for (int op = 0; op < Shape::kOps; ++op) {
    const unsigned pick = rng() % 10;
    const auto [insert_below, erase_below] = shape.mix(op);
    if (pick < insert_below) {
      std::vector<TernaryKey> keys = shape.keys();
      const int priority = static_cast<int>(rng() % 4);  // few levels: ties abound
      const int action = next_action++;
      auto inserted = table.insert(keys, priority, action);
      ASSERT_TRUE(inserted.ok());
      const std::uint64_t order = ref.insert(keys, priority, action);
      if (keys[0].mask != 0xffffffffu) {
        const auto [it, added] = per_lead.try_emplace(lead_of(keys), 0);
        if (!added && it->second == 0) ++refilled_leads;
        ++it->second;
      }
      live.push_back({inserted.value(), order, std::move(keys)});
    } else if (pick < erase_below && !live.empty()) {
      const std::size_t victim = rng() % live.size();
      ASSERT_TRUE(table.erase(live[victim].handle));
      ASSERT_TRUE(ref.erase(live[victim].order));
      if (live[victim].keys[0].mask != 0xffffffffu) --per_lead[lead_of(live[victim].keys)];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const auto fields = shape.fields(live);
      const int want = ref.lookup(fields).value_or(-1);
      rmt::FreezeCounts counts;
      frozen = Frozen::freeze(table, frozen, counts);
      const auto scratch = Frozen::freeze(table, nullptr, counts);
      const auto got = [](const int* action) { return action != nullptr ? *action : -1; };
      ASSERT_EQ(got(table.lookup(fields)), want) << "master, op " << op;
      ASSERT_EQ(got(frozen->lookup(fields)), want) << "incremental freeze, op " << op;
      ASSERT_EQ(got(scratch->lookup(fields)), want) << "from-scratch freeze, op " << op;
    }
  }
  EXPECT_EQ(table.size(), live.size());
  EXPECT_GT(refilled_leads, 0) << "no lead run was emptied and filled again";
}

TEST(TernaryEquiv, RandomizedDifferentialAgainstNaiveScan) {
  std::mt19937 rng(20240807);
  {
    SCOPED_TRACE("width 3");
    run_differential(NarrowShape{rng}, rng);
  }
  {
    SCOPED_TRACE("filter-shaped, width 7");
    run_differential(FilterShape{rng}, rng);
  }
}

TEST(TernaryEquiv, EraseOfUnknownHandleIsRejected) {
  TernaryTable<int, 2> table(2, 8);
  auto h = table.insert({TernaryKey::exact(1), TernaryKey::any()}, 0, 7);
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(table.erase(h.value() + 100));
  EXPECT_TRUE(table.erase(h.value()));
  EXPECT_FALSE(table.erase(h.value()));  // double-erase
  EXPECT_EQ(table.size(), 0u);
}

// --- erase locality (satellite: no O(buckets x entries) scan) -------------

TEST(TernaryEquiv, EraseTouchesOnlyTheOwningBucket) {
  TernaryTable<int, 2> table(2, 4096);
  // 64 buckets x 8 entries, plus a wildcard pool of 8.
  std::vector<rmt::EntryHandle> handles;
  for (Word bucket = 0; bucket < 64; ++bucket) {
    for (int i = 0; i < 8; ++i) {
      auto h = table.insert({TernaryKey::exact(bucket), TernaryKey::any()}, i,
                            static_cast<int>(bucket * 8) + i);
      ASSERT_TRUE(h.ok());
      handles.push_back(h.value());
    }
  }
  for (int i = 0; i < 8; ++i) {
    auto h = table.insert({TernaryKey::any(), TernaryKey::exact(Word(i))}, 0, 1000 + i);
    ASSERT_TRUE(h.ok());
  }

  table.reset_stats();
  // Erase one entry from bucket 17: the handle->bucket locator must route
  // the scan to that bucket alone — at most the 8 entries it holds, not the
  // 520 in the table.
  ASSERT_TRUE(table.erase(handles[17 * 8 + 3]));
  const auto& stats = table.stats();
  EXPECT_EQ(stats.erase_calls, 1u);
  EXPECT_LE(stats.erase_probes, 8u);
  EXPECT_GE(stats.erase_probes, 1u);

  // Erasing from the wildcard pool scans only the pool.
  table.reset_stats();
  auto wild = table.insert({TernaryKey::any(), TernaryKey::any()}, -1, 2000);
  ASSERT_TRUE(wild.ok());
  table.reset_stats();
  ASSERT_TRUE(table.erase(wild.value()));
  EXPECT_LE(table.stats().erase_probes, 9u);  // pool held 9 entries
}

// --- RPB lookup ------------------------------------------------------------

rmt::Phv claimed_phv(ProgramId program, BranchId branch = 0, RecircId recirc = 0) {
  rmt::Phv phv;
  phv.program_id = program;
  phv.branch_id = branch;
  phv.recirc_id = recirc;
  return phv;
}

std::array<TernaryKey, dp::kRpbKeyWidth> rpb_keys(ProgramId program) {
  std::array<TernaryKey, dp::kRpbKeyWidth> keys;
  keys.fill(TernaryKey::any());
  keys[dp::kKeyProgram] = TernaryKey::exact(program);
  keys[dp::kKeyBranch] = TernaryKey::exact(0);
  keys[dp::kKeyRecirc] = TernaryKey::exact(0);
  return keys;
}

TEST(RpbLookup, RepeatLookupsAreServedFromTheCache) {
  dp::Rpb rpb(1, /*ingress=*/true, 64, 64);
  rmt::StageStats stats;
  rpb.set_stage_stats(&stats);
  auto keys = rpb_keys(1);
  ASSERT_TRUE(rpb.table().insert(keys, 0, dp::RpbAction{dp::AtomicOp::nop(), {}, 1}).ok());

  for (int i = 0; i < 5; ++i) {
    auto phv = claimed_phv(1);
    rpb.process(phv);
    EXPECT_EQ(phv.pkt_table_hits, 1u);
  }
  EXPECT_EQ(stats.table_hits, 5u);
}

TEST(RpbLookup, InsertBetweenLookupsInvalidatesTheCache) {
  dp::Rpb rpb(1, /*ingress=*/true, 64, 64);
  ASSERT_TRUE(rpb.table().insert(rpb_keys(1), 0,
                                 dp::RpbAction{dp::AtomicOp::nop(), {}, 1}).ok());
  auto phv = claimed_phv(1);
  rpb.process(phv);

  // A higher-priority entry for the same triple lands between lookups: the
  // next lookup must see the new winner.
  ASSERT_TRUE(rpb.table()
                  .insert(rpb_keys(1), 10,
                          dp::RpbAction{dp::AtomicOp::loadi(Reg::Har, 42), {}, 1})
                  .ok());
  auto phv2 = claimed_phv(1);
  rpb.process(phv2);
  EXPECT_EQ(phv2.reg(Reg::Har), 42u);  // new entry executed
}

TEST(RpbLookup, EraseBetweenLookupsInvalidatesTheCache) {
  dp::Rpb rpb(1, /*ingress=*/true, 64, 64);
  auto inserted = rpb.table().insert(
      rpb_keys(1), 0, dp::RpbAction{dp::AtomicOp::loadi(Reg::Har, 7), {}, 1});
  ASSERT_TRUE(inserted.ok());
  auto phv = claimed_phv(1);
  rpb.process(phv);
  EXPECT_EQ(phv.reg(Reg::Har), 7u);

  ASSERT_TRUE(rpb.table().erase(inserted.value()));
  // The erased entry's action must not replay: the next lookup is a clean
  // miss.
  auto phv2 = claimed_phv(1);
  rpb.process(phv2);
  EXPECT_EQ(phv2.reg(Reg::Har), 0u);
  EXPECT_EQ(phv2.pkt_table_hits, 0u);
  EXPECT_EQ(phv2.pkt_table_misses, 1u);
}

TEST(RpbLookup, RegisterKeyedEntriesDisableTheCache) {
  dp::Rpb rpb(1, /*ingress=*/true, 64, 64);
  rmt::StageStats stats;
  rpb.set_stage_stats(&stats);
  // Branch-style entry keyed on the Sar register (nonzero mask on a
  // register component): the winner is a function of packet state.
  auto keys = rpb_keys(1);
  keys[dp::kKeySar] = TernaryKey{1, 0x1u};
  ASSERT_TRUE(rpb.table()
                  .insert(keys, 0,
                          dp::RpbAction{dp::AtomicOp::loadi(Reg::Mar, 9), {}, 1})
                  .ok());

  for (int i = 0; i < 4; ++i) {
    auto phv = claimed_phv(1);
    phv.set_reg(Reg::Sar, static_cast<Word>(i));  // alternates match / miss
    rpb.process(phv);
    const bool should_match = (i & 1) == 1;
    EXPECT_EQ(phv.pkt_table_hits, should_match ? 1u : 0u) << i;
    EXPECT_EQ(phv.reg(Reg::Mar), should_match ? 9u : 0u) << i;
  }

  // And a register-keyed entry for one program must not affect another
  // program whose entries key on the control flags alone.
  ASSERT_TRUE(rpb.table()
                  .insert(rpb_keys(2), 0,
                          dp::RpbAction{dp::AtomicOp::nop(), {}, 2})
                  .ok());
  for (int i = 0; i < 3; ++i) {
    auto phv = claimed_phv(2);
    rpb.process(phv);
    EXPECT_EQ(phv.pkt_table_hits, 1u);
  }
}

TEST(RpbLookup, CachedMissIsInvalidatedByLaterInsert) {
  dp::Rpb rpb(1, /*ingress=*/true, 64, 64);
  // Table non-empty but with no entry for program 5: a miss.
  ASSERT_TRUE(rpb.table().insert(rpb_keys(9), 0,
                                 dp::RpbAction{dp::AtomicOp::nop(), {}, 9}).ok());
  auto phv = claimed_phv(5);
  rpb.process(phv);
  EXPECT_EQ(phv.pkt_table_misses, 1u);
  auto phv2 = claimed_phv(5);
  rpb.process(phv2);

  // Entry for program 5 arrives: the earlier misses must not shadow it.
  ASSERT_TRUE(rpb.table().insert(rpb_keys(5), 0,
                                 dp::RpbAction{dp::AtomicOp::nop(), {}, 5}).ok());
  auto phv3 = claimed_phv(5);
  rpb.process(phv3);
  EXPECT_EQ(phv3.pkt_table_hits, 1u);
}

}  // namespace
