#include "control/chain_txn.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "obs/telemetry.h"

namespace p4runpro::ctrl {

ChainTransaction::ChainTransaction(std::vector<ChainHop> hops,
                                   const rp::TranslatedProgram& ir,
                                   std::vector<rp::AllocationResult> allocs,
                                   ProgramId id, int filter_priority,
                                   ProgramId replacing, obs::Telemetry* telemetry)
    : ir_(ir),
      id_(id),
      filter_priority_(filter_priority),
      replacing_(replacing),
      telemetry_(telemetry) {
  assert(!hops.empty());
  assert(hops.size() == allocs.size());
  // Sized once: a submitted job references its hop's staged batch.
  hops_.resize(hops.size());
  for (std::size_t h = 0; h < hops.size(); ++h) {
    hops_[h].ctx = hops[h];
    hops_[h].alloc = std::move(allocs[h]);
  }
}

ChainTransaction::~ChainTransaction() {
  // In-flight writer jobs reference the staged batches: settle them first.
  if (phase_ == Phase::Submitted) (void)commit_finish();
  if (phase_ == Phase::Staged) rollback_all();
}

obs::SpanTracer::Scope ChainTransaction::chain_span(const char* name) const {
  return obs::span(hops_.size() > 1 ? telemetry_ : nullptr, name, "ctrl");
}

Status ChainTransaction::stage_all() {
  assert(phase_ == Phase::Solved);
  auto stage_span = chain_span("chain_txn.stage");
  stage_span.arg("hops", static_cast<std::uint64_t>(hops_.size()));

  // Reserve everywhere first: any hop's AllocFailed aborts the chain before
  // a single dataplane write is even staged.
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    if (auto s = reserve(hops_[h]); !s.ok()) {
      faulted_hop_ = static_cast<int>(h);
      rollback_all();
      return s;
    }
  }
  for (auto& hop : hops_) stage(hop);
  phase_ = Phase::Staged;
  return {};
}

Status ChainTransaction::reserve(HopTxn& hop) {
  auto reserve_span = obs::span(telemetry_, "txn.reserve", "ctrl");

  // Memory blocks at the allocation's pinned stages.
  for (const auto& [vmem, rpb] : hop.alloc.vmem_rpb) {
    auto block = hop.ctx.resources->allocate_memory(rpb, ir_.vmem_sizes.at(vmem));
    if (!block.ok()) {
      release(hop);
      return block.error();
    }
    hop.placements[vmem] = VmemPlacement{rpb, block.value()};
  }

  // Table entries per physical RPB. The counts mirror generate_entries
  // exactly (one entry per node, one per case of a branch) so reservation
  // can precede planning; stage() asserts the match.
  const int total_rpbs = hop.ctx.dataplane->spec().total_rpbs();
  std::map<int, std::uint32_t> counts;
  for (const auto& node : ir_.nodes) {
    const int logical = hop.alloc.x[static_cast<std::size_t>(node.depth - 1)];
    const int phys = dp::physical_rpb(logical, total_rpbs);
    counts[phys] += node.op.kind == dp::OpKind::Branch
                        ? static_cast<std::uint32_t>(node.op.cases.size())
                        : 1u;
  }
  for (const auto& [rpb, count] : counts) {
    if (auto s = hop.ctx.resources->reserve_entries(rpb, count); !s.ok()) {
      release(hop);
      return s.error();
    }
    hop.reserved_entries[rpb] = count;
  }
  return {};
}

void ChainTransaction::stage(HopTxn& hop) {
  auto entrygen_span = obs::span(telemetry_, "entrygen", "ctrl");
  hop.plan = rp::generate_entries(ir_, hop.alloc, id_, hop.placements,
                                  hop.ctx.dataplane->spec());
  hop.plan.filter_priority = filter_priority_;
  entrygen_span.arg("rpb_entries", static_cast<std::uint64_t>(hop.plan.rpb_entries.size()));
#ifndef NDEBUG
  std::map<int, std::uint32_t> planned;
  for (const auto& e : hop.plan.rpb_entries) ++planned[e.rpb];
  assert(planned == hop.reserved_entries &&
         "reservation counts diverged from the generated plan");
#endif
  entrygen_span.end();

  auto stage_span = obs::span(telemetry_, "txn.stage", "ctrl");
  // Incremental update: carry over the contents of virtual memories that
  // survive the version change. Staged as WriteMemRange ops ahead of the
  // install sequence — their RestoreMemRange inverses make a mid-install
  // fault unwind the copies too (the old bytes of the target blocks come
  // back, so freed memory is returned exactly as it was).
  if (replacing_ != 0) {
    if (const auto* old_placements = hop.ctx.resources->program_placements(replacing_)) {
      for (const auto& [vmem, placement] : hop.placements) {
        const auto old_it = old_placements->find(vmem);
        if (old_it == old_placements->end()) continue;
        const std::uint32_t count =
            std::min(placement.block.size, old_it->second.block.size);
        const auto& old_mem = hop.ctx.dataplane->rpb(old_it->second.rpb).memory();
        std::vector<Word> words;
        words.reserve(count);
        for (std::uint32_t a = 0; a < count; ++a) {
          words.push_back(old_mem.read(old_it->second.block.base + a));
        }
        hop.batch.write_mem_range(placement.rpb, placement.block.base,
                                  std::move(words), vmem);
      }
    }
  }
  rp::stage_install(hop.plan, hop.batch);
  stage_span.arg("ops", static_cast<std::uint64_t>(hop.batch.size()));
  stage_span.end();

  // Capture the pre-transaction bytes of every reserved block now, while
  // nothing has written to the dataplane: a later commit-unwind's memory
  // reset must be able to restore free memory byte-identically.
  for (const auto& [vmem, placement] : hop.placements) {
    hop.residuals.push_back(
        Residual{vmem, placement, read_block(*hop.ctx.dataplane, placement)});
  }
}

bool ChainTransaction::pipelined() const {
  for (const auto& hop : hops_) {
    if (hop.ctx.updates == nullptr || !hop.ctx.updates->async()) return false;
  }
  return true;
}

Status ChainTransaction::commit_all() {
  assert(phase_ == Phase::Staged);
  auto commit_span = chain_span("chain_txn.commit");
  commit_span.arg("hops", static_cast<std::uint64_t>(hops_.size()));
  commit_span.arg("ops", static_cast<std::uint64_t>(total_staged_ops()));
  if (pipelined()) {
    commit_span.arg("pipelined", "1");
    commit_submit();
  }
  return commit_finish();
}

void ChainTransaction::commit_submit() {
  assert(phase_ == Phase::Staged && pipelined());
  // Submit every hop's op-log before settling any: the per-hop writer
  // threads drain their channels concurrently, so chain update latency is
  // the slowest hop, not the sum of hops.
  for (auto& hop : hops_) submit(hop);
  phase_ = Phase::Submitted;
}

void ChainTransaction::commit_wait() {
  assert(phase_ == Phase::Submitted);
  for (auto& hop : hops_) hop.pending.wait();
}

void ChainTransaction::submit(HopTxn& hop) {
  hop.commit_span = obs::span(telemetry_, "txn.commit", "ctrl");
  hop.commit_span.arg("ops", static_cast<std::uint64_t>(hop.batch.size()));
  if (hop.ctx.updates->async()) {
    // Closed now: no span stays open while the session parks off-lock. The
    // channel time is reported by the bfrt spans the settle replays.
    hop.commit_span.arg("async", "1");
    hop.commit_span.end();
  }
  hop.pending = hop.ctx.updates->submit_install(hop.batch);
}

Status ChainTransaction::commit_finish() {
  assert(phase_ == Phase::Staged || phase_ == Phase::Submitted);
  const bool submitted = phase_ == Phase::Submitted;
  std::vector<std::optional<InstalledProgram>> committed(hops_.size());
  std::uint64_t committed_hops = 0;
  Status first_error;
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    HopTxn& hop = hops_[h];
    if (!submitted) {
      // Serial: a hop reaches its channel only once every hop before it
      // settled cleanly, so virtual time sums across hops and the first
      // fault stops the chain.
      if (!first_error.ok()) break;
      submit(hop);
    }
    auto installed = settle(hop);
    hop.commit_span.end();
    if (!installed.ok()) {
      // The faulted hop returned its reservations. Pipelined, keep settling
      // the remaining hops: their jobs reference their staged batches and
      // must complete before anything unwinds.
      if (first_error.ok()) {
        faulted_hop_ = static_cast<int>(h);
        first_error = installed.error();
      }
      continue;
    }
    committed[h] = std::move(installed).take();
    ++committed_hops;
  }
  if (!first_error.ok()) {
    // Un-commit every hop that settled cleanly — pipelined, including those
    // after the faulted hop — then return the reservations of every hop
    // that never reached its channel.
    auto unwind_span = chain_span("chain_txn.unwind");
    unwind_span.arg("committed_hops", committed_hops);
    for (std::size_t g = committed.size(); g-- > 0;) {
      if (committed[g]) unwind_committed_hop(hops_[g], *committed[g]);
    }
    rollback_all();
    return first_error;
  }
  installed_.reserve(committed.size());
  for (auto& program : committed) installed_.push_back(std::move(*program));
  phase_ = Phase::Committed;
  return {};
}

Result<InstalledProgram> ChainTransaction::settle(HopTxn& hop) {
  auto applied = hop.ctx.updates->finish_install(hop.pending);
  if (!applied.ok()) {
    // The engine's journal already restored the dataplane; return the
    // reservations so nothing of the hop's share survives.
    release(hop);
    return applied.error();
  }

  InstalledProgram out;
  out.id = id_;
  out.name = ir_.name;
  out.ir = ir_;
  out.alloc = std::move(hop.alloc);
  out.plan = std::move(hop.plan);
  out.placements = hop.placements;
  auto entries = std::move(applied).take();
  out.filter_handles = std::move(entries.filter_handles);
  out.rpb_handles = std::move(entries.rpb_handles);
  out.recirc_handles = std::move(entries.recirc_handles);

  hop.ctx.resources->record_program(id_, hop.placements);
  hop.ctx.updates->announce_deploy(out);
  hop.closed = true;
  return out;
}

double ChainTransaction::channel_ms() const {
  double ms = 0.0;
  for (const auto& hop : hops_) {
    if (!hop.pending.outcome) continue;
    ms = std::max(ms, static_cast<double>(hop.pending.outcome->completion_ns -
                                          hop.pending.submitted_ns) /
                          1e6);
  }
  return ms;
}

void ChainTransaction::release(HopTxn& hop) {
  if (hop.closed) return;
  auto rollback_span = obs::span(telemetry_, "txn.rollback", "ctrl");
  for (const auto& [rpb, count] : hop.reserved_entries) {
    hop.ctx.resources->release_entries(rpb, count);
  }
  hop.reserved_entries.clear();
  for (const auto& [vmem, placement] : hop.placements) {
    hop.ctx.resources->free_memory(placement.rpb, placement.block);
  }
  hop.placements.clear();
  hop.closed = true;
}

void ChainTransaction::rollback_all() {
  for (auto& hop : hops_) release(hop);
  phase_ = Phase::RolledBack;
}

void ChainTransaction::unwind_commit() {
  assert(phase_ == Phase::Committed);
  auto unwind_span = chain_span("chain_txn.unwind");
  unwind_span.arg("committed_hops", static_cast<std::uint64_t>(hops_.size()));
  for (std::size_t g = hops_.size(); g-- > 0;) {
    unwind_committed_hop(hops_[g], installed_[g]);
  }
  installed_.clear();
  phase_ = Phase::RolledBack;
}

void ChainTransaction::unwind_committed_hop(HopTxn& hop, InstalledProgram& program) {
  const auto entries = entries_per_rpb(program);

  // Consistent remove through the hop's own engine (filters first, so the
  // half-deployed program is atomically invisible; memory reset last). The
  // unwind itself must not fault: faults fire once and have already fired.
  const Status removed = hop.ctx.updates->remove(program);
  assert(removed.ok() && "chain unwind remove must not fault (single-fault model)");
  (void)removed;

  for (const auto& [rpb, count] : entries) hop.ctx.resources->release_entries(rpb, count);
  hop.ctx.resources->erase_program(id_);
  hop.ctx.dataplane->clear_claim_counter(id_);

  // remove() zeroed the blocks; put the pre-transaction residual bytes back
  // so even free memory is byte-identical. The inverse op is discarded —
  // this IS the rollback.
  for (const Residual& residual : hop.residuals) {
    if (residual.words.empty()) continue;
    dp::WriteOp op;
    op.kind = dp::WriteOp::Kind::RestoreMemRange;
    op.mem_rpb = residual.placement.rpb;
    op.mem_base = residual.placement.block.base;
    op.mem_size = static_cast<std::uint32_t>(residual.words.size());
    op.mem_words = residual.words;
    op.vmem = residual.vmem;
    auto applied = hop.ctx.dataplane->apply(op);
    assert(applied.ok());
    (void)applied;
  }
}

std::size_t ChainTransaction::total_staged_ops() const {
  std::size_t total = 0;
  for (const auto& hop : hops_) total += hop.batch.size();
  return total;
}

}  // namespace p4runpro::ctrl
