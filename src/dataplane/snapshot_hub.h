// Epoch-based RCU hub for TableSnapshot publication. The control plane is
// the single writer: it builds the next snapshot off to the side and swaps
// one atomic pointer; shard readers pin the current snapshot for the length
// of one inject_batch without taking any lock on the match path.
//
// Protocol:
//   - acquire(reader): slot[reader] = global_epoch (announce), then load
//     the current pointer. The returned ReadGuard keeps the snapshot alive;
//     its destructor stores 0 (quiescent) into the slot.
//   - publish(next): next->epoch = ++epoch; old = current.exchange(next);
//     retire old at the pre-publish epoch. A retired snapshot is freed only
//     once every reader slot is either quiescent or announced at a LATER
//     epoch than the retirement — i.e. every batch that could still hold a
//     reference has drained (the grace period).
//   - rollback never publishes: a faulted control operation unwinds the
//     master tables and leaves the current snapshot untouched, so readers
//     keep matching against the last good state (the byte-identical
//     rollback guarantee extends to the sharded path for free).
//
// Ordering: all slot/pointer operations are seq_cst. The writer's
// epoch-increment is observed by any acquire that could have missed the
// pointer swap, so try_reclaim's "slot == 0 or slot > retire epoch" test is
// sufficient — a reader announced at epoch <= E may still be using the
// snapshot retired at E, and blocks its reclamation.
//
// One hub per dataplane; reader ids are shard indices (one in-flight batch
// per shard — the shard worker contract, see RunproDataplane).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace p4runpro::obs {
struct Telemetry;
}

namespace p4runpro::dp {

struct TableSnapshot;

class SnapshotHub {
 public:
  /// `readers` = number of shard workers that will ever call acquire()
  /// concurrently (one slot each).
  explicit SnapshotHub(int readers);
  ~SnapshotHub();

  SnapshotHub(const SnapshotHub&) = delete;
  SnapshotHub& operator=(const SnapshotHub&) = delete;

  /// Pins the current snapshot for reader `reader` (in [0, readers())).
  /// Returned guard must be destroyed before the same reader acquires
  /// again. Requires a prior publish (the dataplane publishes the initial
  /// snapshot when sharding is enabled).
  class ReadGuard {
   public:
    ReadGuard(ReadGuard&& other) noexcept
        : hub_(other.hub_), slot_(other.slot_), snap_(other.snap_) {
      other.hub_ = nullptr;
    }
    ReadGuard& operator=(ReadGuard&&) = delete;
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ~ReadGuard();

    [[nodiscard]] const TableSnapshot& operator*() const noexcept { return *snap_; }
    [[nodiscard]] const TableSnapshot* operator->() const noexcept { return snap_; }
    [[nodiscard]] const TableSnapshot* get() const noexcept { return snap_; }

   private:
    friend class SnapshotHub;
    ReadGuard(SnapshotHub* hub, int slot, const TableSnapshot* snap) noexcept
        : hub_(hub), slot_(slot), snap_(snap) {}
    SnapshotHub* hub_;
    int slot_;
    const TableSnapshot* snap_;
  };

  [[nodiscard]] ReadGuard acquire(int reader) noexcept;

  /// Publish `next` as the current snapshot (single-writer: callers hold
  /// the control-plane session lock). Assigns next->epoch, retires the
  /// previous snapshot and opportunistically reclaims any retired snapshot
  /// whose grace period has elapsed.
  void publish(std::unique_ptr<TableSnapshot> next);

  /// The latest published snapshot (nullptr before the first publish). For
  /// the publishing thread only, which may read it without a guard: nothing
  /// but its own next publish can retire it. The next snapshot is built
  /// against it (see TableSnapshot's `previous`).
  [[nodiscard]] const TableSnapshot* current() const noexcept {
    return current_.load(std::memory_order_seq_cst);
  }

  /// Free every retired snapshot whose grace period has elapsed; returns
  /// how many were freed. Called from publish(); exposed for tests and for
  /// explicit drains.
  std::size_t try_reclaim();

  /// Block until every snapshot retired so far has been reclaimed (spins
  /// on reader slots; used by disable_sharding and the hub destructor).
  void synchronize();

  [[nodiscard]] int readers() const noexcept { return static_cast<int>(slots_.size()); }
  /// Epoch of the latest publish (0 = nothing published yet).
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_seq_cst);
  }
  [[nodiscard]] std::uint64_t publishes() const noexcept { return epoch(); }
  /// Retired-but-not-yet-freed snapshots (readers still inside the grace
  /// period hold them live).
  [[nodiscard]] std::size_t retired_pending() const;
  /// Total snapshots freed after their grace period elapsed.
  [[nodiscard]] std::uint64_t reclaimed() const noexcept {
    return reclaimed_.load(std::memory_order_relaxed);
  }
  /// Total batch-level acquires served (one per shard batch).
  [[nodiscard]] std::uint64_t acquires() const noexcept {
    return acquires_.load(std::memory_order_relaxed);
  }

  /// Expose hub health as sampled probes under "rmt.snapshot.*". Same
  /// contract as Pipeline::attach_telemetry: re-attaching replaces, the
  /// destructor unregisters.
  void attach_telemetry(obs::Telemetry* telemetry);

 private:
  struct alignas(64) ReaderSlot {
    /// 0 = quiescent, otherwise the global epoch announced at acquire.
    std::atomic<std::uint64_t> epoch{0};
  };

  struct Retired {
    std::unique_ptr<const TableSnapshot> snapshot;
    std::uint64_t retire_epoch = 0;  ///< epoch at the moment of retirement
  };

  void release(int slot) noexcept;
  [[nodiscard]] bool drained(std::uint64_t retire_epoch) const noexcept;

  std::vector<ReaderSlot> slots_;
  std::atomic<const TableSnapshot*> current_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  std::atomic<std::uint64_t> acquires_{0};

  mutable std::mutex retired_mu_;  ///< guards retired_ (writer + queries)
  std::vector<Retired> retired_;

  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace p4runpro::dp
