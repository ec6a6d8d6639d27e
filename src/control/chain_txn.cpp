#include "control/chain_txn.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/telemetry.h"

namespace p4runpro::ctrl {

ChainTransaction::ChainTransaction(std::vector<ChainHop> hops,
                                   const rp::TranslatedProgram& ir,
                                   rp::AllocationResult alloc, ProgramId id,
                                   int filter_priority, ProgramId replacing,
                                   obs::Telemetry* telemetry)
    : hops_(std::move(hops)),
      ir_(&ir),
      alloc_(std::move(alloc)),
      id_(id),
      filter_priority_(filter_priority),
      replacing_(replacing),
      telemetry_(telemetry) {
  assert(!hops_.empty());
  records_.reserve(hops_.size());
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    records_.emplace_back(Direction::Install, h, hops_[h]);
  }
  installs_ = records_.size();
}

ChainTransaction::ChainTransaction(std::vector<ChainHop> hops, ProgramId id,
                                   obs::Telemetry* telemetry)
    : hops_(std::move(hops)), telemetry_(telemetry) {
  retire(id);
}

ChainTransaction::~ChainTransaction() {
  // In-flight writer jobs reference the staged batches: settle them first.
  if (phase_ == Phase::Submitted) (void)commit_finish();
  if (phase_ == Phase::Staged) rollback_all();
}

void ChainTransaction::retire(ProgramId id) {
  assert(phase_ == Phase::Solved);
  records_.reserve(records_.size() + hops_.size());
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    records_.emplace_back(Direction::Remove, h, hops_[h]).program =
        &hops_[h].programs->at(id);
  }
}

obs::SpanTracer::Scope ChainTransaction::chain_span(const char* name) const {
  return obs::span(hops_.size() > 1 && installs_ > 0 ? telemetry_ : nullptr, name,
                   "ctrl");
}

Status ChainTransaction::stage_all() {
  assert(phase_ == Phase::Solved);
  auto stage_span = chain_span("chain_txn.stage");
  stage_span.arg("hops", static_cast<std::uint64_t>(installs_));

  // Reserve everywhere first: any hop's AllocFailed aborts the chain before
  // a single dataplane write is even staged.
  for (std::size_t i = 0; i < installs_; ++i) {
    if (auto s = reserve(records_[i]); !s.ok()) {
      faulted_hop_ = records_[i].hop;
      rollback_all();
      return s;
    }
  }
  for (auto& record : records_) stage(record);
  phase_ = Phase::Staged;
  return {};
}

Status ChainTransaction::reserve(Record& record) {
  auto reserve_span = obs::span(telemetry_, "txn.reserve", "ctrl");

  // Memory blocks at the allocation's pinned stages.
  for (const auto& [vmem, rpb] : alloc_.vmem_rpb) {
    auto block = record.ctx.resources->allocate_memory(rpb, ir_->vmem_sizes.at(vmem));
    if (!block.ok()) {
      release(record);
      return block.error();
    }
    record.placements[vmem] = VmemPlacement{rpb, block.value()};
  }

  // Table entries per physical RPB. The counts mirror generate_entries
  // exactly (one entry per node, one per case of a branch) so reservation
  // can precede planning; stage_install() asserts the match.
  const int total_rpbs = record.ctx.dataplane->spec().total_rpbs();
  std::map<int, std::uint32_t> counts;
  for (const auto& node : ir_->nodes) {
    const int logical = alloc_.x[static_cast<std::size_t>(node.depth - 1)];
    counts[dp::physical_rpb(logical, total_rpbs)] +=
        static_cast<std::uint32_t>(node.op.entry_count());
  }
  for (auto it = counts.begin(); it != counts.end(); ++it) {
    if (auto s = record.ctx.resources->reserve_entries(it->first, it->second); !s.ok()) {
      counts.erase(it, counts.end());  // release only what was reserved
      record.entries = std::move(counts);
      release(record);
      return s.error();
    }
  }
  record.entries = std::move(counts);
  return {};
}

void ChainTransaction::stage(Record& record) {
  if (record.direction == Direction::Install) {
    stage_install(record);
  } else {
    // Counted now: a clean removal clears the handles. The blocks serve only
    // a re-install after a fault on ANOTHER hop (a hop's own journal
    // restores it), so one switch takes none.
    record.entries = entries_per_rpb(*record.program);
    if (hops_.size() > 1) record.placements = record.program->placements;
  }
  // The pre-transaction bytes of every block the record touches, read
  // while nothing has written to the dataplane: an un-commit restores them.
  for (const auto& [vmem, placement] : record.placements) {
    record.residuals.push_back(
        Residual{vmem, placement, read_block(*record.ctx.dataplane, placement)});
  }
}

void ChainTransaction::stage_install(Record& record) {
  auto entrygen_span = obs::span(telemetry_, "entrygen", "ctrl");
  // Hop 0 plans the version's image. A hop whose blocks landed at the same
  // bases shares it; one whose bases differ plans its own, because its
  // Offset entries differ.
  if (image_ == nullptr) {
    image_ = record.image = plan_image(record, *ir_, std::move(alloc_));
  } else if (record.placements == image_->placements) {
    record.image = image_;
  } else {
    record.image = plan_image(record, image_->ir, image_->alloc);
  }
  const rp::EntryPlan& plan = record.image->plan;
  entrygen_span.arg("rpb_entries", static_cast<std::uint64_t>(plan.rpb_entries.size()));
#ifndef NDEBUG
  std::map<int, std::uint32_t> planned;
  for (const auto& e : plan.rpb_entries) ++planned[e.rpb];
  assert(planned == record.entries &&
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
    if (const auto* old_placements = record.ctx.resources->program_placements(replacing_)) {
      for (const auto& [vmem, placement] : record.placements) {
        const auto old_it = old_placements->find(vmem);
        if (old_it == old_placements->end()) continue;
        const std::uint32_t count =
            std::min(placement.block.size, old_it->second.block.size);
        const auto& old_mem = record.ctx.dataplane->rpb(old_it->second.rpb).memory();
        std::vector<Word> words;
        words.reserve(count);
        for (std::uint32_t a = 0; a < count; ++a) {
          words.push_back(old_mem.read(old_it->second.block.base + a));
        }
        record.batch.write_mem_range(placement.rpb, placement.block.base,
                                     std::move(words), vmem);
      }
    }
  }
  // Hop 0's op-log is staged once; a record sharing its image runs it, or a
  // copy behind carry-over words. A hop with its own image stages its own.
  if (record.image != image_) {
    rp::stage_install(plan, record.batch);
  } else {
    if (install_.empty()) rp::stage_install(plan, install_);
    if (!record.batch.empty()) {
      record.batch.ops.insert(record.batch.ops.end(), install_.ops.begin(), install_.ops.end());
    }
  }
  stage_span.arg("ops", static_cast<std::uint64_t>(install_ops(record).size()));
}

std::shared_ptr<const ProgramImage> ChainTransaction::plan_image(
    const Record& record, const rp::TranslatedProgram& ir,
    rp::AllocationResult alloc) const {
  auto image = std::make_shared<ProgramImage>();
  image->ir = ir;
  image->alloc = std::move(alloc);
  image->placements = record.placements;
  image->plan = rp::generate_entries(image->ir, image->alloc, id_, image->placements,
                                     record.ctx.dataplane->spec());
  image->plan.filter_priority = filter_priority_;
  return image;
}

const dp::WriteBatch& ChainTransaction::install_ops(const Record& record) const {
  return record.image == image_ && record.batch.empty() ? install_ : record.batch;
}

bool ChainTransaction::pipelined() const {
  for (const auto& hop : hops_) {
    if (hop.updates == nullptr || !hop.updates->async()) return false;
  }
  return true;
}

std::size_t ChainTransaction::wave_end(std::size_t begin) const {
  return begin < installs_ ? installs_ : records_.size();
}

Status ChainTransaction::commit_all(const std::function<void()>& on_installed) {
  assert(phase_ == Phase::Staged);
  commit_span_ = chain_span("chain_txn.commit");
  commit_span_.arg("hops", static_cast<std::uint64_t>(installs_));
  commit_span_.arg("ops", static_cast<std::uint64_t>(total_staged_ops()));
  if (pipelined()) {
    commit_span_.arg("pipelined", "1");
    commit_submit();
  }
  const Status committed = commit_finish(on_installed);
  commit_span_.end();
  return committed;
}

void ChainTransaction::commit_submit() {
  assert(phase_ == Phase::Staged && pipelined());
  for (std::size_t i = 0; i < wave_end(0); ++i) submit(records_[i]);
  phase_ = Phase::Submitted;
}

void ChainTransaction::commit_wait() {
  assert(phase_ == Phase::Submitted);
  for (auto& record : records_) record.pending.wait();
}

void ChainTransaction::submit(Record& record) {
  if (record.direction == Direction::Remove) {
    record.pending = record.ctx.updates->submit_remove(*record.program);
    return;
  }
  const dp::WriteBatch& ops = install_ops(record);
  record.commit_span = obs::span(telemetry_, "txn.commit", "ctrl");
  record.commit_span.arg("ops", static_cast<std::uint64_t>(ops.size()));
  if (record.ctx.updates->async()) {
    // Closed now: no span stays open while the session parks off-lock. The
    // channel time is reported by the bfrt spans the settle replays.
    record.commit_span.arg("async", "1");
    record.commit_span.end();
  }
  record.pending = record.ctx.updates->submit_install(ops);
}

Status ChainTransaction::commit_finish(const std::function<void()>& on_installed) {
  assert(phase_ == Phase::Staged || phase_ == Phase::Submitted);
  const bool pipelined = phase_ == Phase::Submitted;
  Status first_error;
  for (std::size_t begin = 0; begin < records_.size() && first_error.ok();) {
    const std::size_t end = wave_end(begin);
    // Pipelined, a later wave is submitted once the one before it settled.
    if (pipelined && begin > 0) {
      for (std::size_t i = begin; i < end; ++i) submit(records_[i]);
    }
    for (std::size_t i = begin; i < end; ++i) {
      Record& record = records_[i];
      if (!pipelined) {
        // Serial: a record reaches its channel only once every record
        // before it settled cleanly; the first fault stops the walk.
        if (!first_error.ok()) break;
        submit(record);
      }
      const Status settled = settle(record);
      record.commit_span.end();
      // Pipelined, keep settling the remaining records after a fault: their
      // jobs reference their staged batches and must complete before
      // anything unwinds.
      if (!settled.ok() && first_error.ok()) {
        faulted_hop_ = record.hop;
        first_error = settled;
      }
    }
    if (first_error.ok() && end == installs_) {  // the new version is live
      commit_span_.end();
      if (on_installed) on_installed();
    }
    begin = end;
  }
  if (!first_error.ok()) {
    uncommit();
    return first_error;
  }
  phase_ = Phase::Committed;
  return {};
}

Status ChainTransaction::settle(Record& record) {
  if (record.direction == Direction::Remove) {
    // A fault leaves the program restored by the hop's journal (fresh
    // handles, resources intact): nothing of this record to undo.
    Status s = record.ctx.updates->finish_remove(record.pending, *record.program);
    if (s.ok()) forget(record, record.program->id);
    record.settled = s.ok();
    return s;
  }

  auto applied = record.ctx.updates->finish_install(record.pending);
  if (!applied.ok()) {
    // The engine's journal already restored the dataplane; return the
    // reservations so nothing of the hop's share survives.
    release(record);
    return applied.error();
  }

  InstalledProgram& out = record.installed;
  out.id = id_;
  out.name = record.image->ir.name;
  out.image = record.image;
  auto entries = std::move(applied).take();
  out.filter_handles = std::move(entries.filter_handles);
  out.rpb_handles = std::move(entries.rpb_handles);
  out.recirc_handles = std::move(entries.recirc_handles);

  record.ctx.resources->record_program(id_, record.placements);
  out.placements = std::move(record.placements);  // closed: never released
  record.ctx.updates->announce_deploy(out);
  record.settled = record.closed = true;
  return {};
}

double ChainTransaction::channel_ms() const {
  SimClock::Nanos ns = 0;
  for (const auto& record : records_) {
    if (!record.pending.outcome) continue;
    ns = std::max(ns, record.pending.outcome->completion_ns - record.pending.submitted_ns);
  }
  return static_cast<double>(ns) / 1e6;
}

void ChainTransaction::release(Record& record) {
  if (record.direction == Direction::Remove || record.closed) return;
  auto rollback_span = obs::span(telemetry_, "txn.rollback", "ctrl");
  for (const auto& [rpb, count] : record.entries) {
    record.ctx.resources->release_entries(rpb, count);
  }
  record.entries.clear();
  for (const auto& [vmem, placement] : record.placements) {
    record.ctx.resources->free_memory(placement.rpb, placement.block);
  }
  record.placements.clear();
  record.closed = true;
}

void ChainTransaction::forget(const Record& record, ProgramId id) {
  for (const auto& [rpb, count] : record.entries) {
    record.ctx.resources->release_entries(rpb, count);
  }
  record.ctx.resources->erase_program(id);
  record.ctx.dataplane->clear_claim_counter(id);
}

void ChainTransaction::rollback_all() {
  for (auto& record : records_) release(record);
  phase_ = Phase::RolledBack;
}

void ChainTransaction::unwind_commit() {
  assert(phase_ == Phase::Committed && installs_ == records_.size());
  uncommit();
}

void ChainTransaction::uncommit() {
  // Reverse record order: removed hops come back first (nearest the fault
  // first), then installed hops go again.
  for (std::size_t i = records_.size(); i-- > installs_;) {
    if (records_[i].settled) reinstall_removed(records_[i]);
  }
  std::uint64_t committed = 0;
  for (std::size_t i = 0; i < installs_; ++i) committed += records_[i].settled ? 1 : 0;
  auto unwind_span = chain_span("chain_txn.unwind");
  unwind_span.arg("committed_hops", committed);
  for (std::size_t i = installs_; i-- > 0;) {
    if (records_[i].settled) remove_installed(records_[i]);
  }
  rollback_all();  // install records that never reached their channel
}

void ChainTransaction::remove_installed(Record& record) {
  // Consistent remove through the hop's own engine (filters first, so the
  // half-deployed program is atomically invisible; memory reset last). The
  // unwind itself must not fault: faults fire once and have already fired.
  const Status removed = record.ctx.updates->remove(record.installed);
  assert(removed.ok() && "chain unwind remove must not fault (single-fault model)");
  (void)removed;
  forget(record, id_);

  // remove() zeroed the blocks; put the pre-transaction residual bytes back
  // so even free memory is byte-identical. The inverse ops are discarded —
  // this IS the rollback.
  for (const dp::WriteOp& op : saved_blocks(record).ops) {
    auto applied = record.ctx.dataplane->apply(op);
    assert(applied.ok());
    (void)applied;
  }
}

void ChainTransaction::reinstall_removed(Record& record) {
  InstalledProgram& program = *record.program;
  ResourceManager& resources = *record.ctx.resources;

  // The exact blocks and entries are provably still free: nothing was
  // allocated between the removal and this unwind (session lock). A failure
  // is a journal bug, same convention as the single-switch rollback.
  for (const auto& [vmem, placement] : record.placements) {
    const Status reclaimed = resources.reclaim_block(placement.rpb, placement.block);
    assert(reclaimed.ok() && "chain unwind reclaim must not fail");
    (void)vmem, (void)reclaimed;
  }
  for (const auto& [rpb, count] : record.entries) {
    const Status reserved = resources.reserve_entries(rpb, count);
    assert(reserved.ok() && "chain unwind re-reserve must not fail");
    (void)reserved;
  }

  // Replay the install: the saved memory contents first, then the image's
  // plan in consistent-update order. The engine hands back fresh handles.
  dp::WriteBatch batch = saved_blocks(record);
  rp::stage_install(program.image->plan, batch);
  auto applied = record.ctx.updates->execute_install(batch);
  assert(applied.ok() && "chain unwind reinstall must not fault");
  program.filter_handles = std::move(applied.value().filter_handles);
  program.rpb_handles = std::move(applied.value().rpb_handles);
  program.recirc_handles = std::move(applied.value().recirc_handles);
  program.placements = std::move(record.placements);
  resources.record_program(program.id, program.placements);
}

dp::WriteBatch ChainTransaction::saved_blocks(Record& record) {
  dp::WriteBatch batch;
  for (Residual& residual : record.residuals) {
    batch.write_mem_range(residual.placement.rpb, residual.placement.block.base,
                          std::move(residual.words), residual.vmem);
  }
  return batch;
}

std::size_t ChainTransaction::total_staged_ops() const {
  std::size_t total = 0;
  for (const auto& record : records_) total += install_ops(record).size();
  return total;
}

}  // namespace p4runpro::ctrl
