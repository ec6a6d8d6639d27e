#include "control/deploy_txn.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "obs/telemetry.h"

namespace p4runpro::ctrl {

DeployTransaction::DeployTransaction(DeployContext ctx,
                                     const rp::TranslatedProgram& ir,
                                     rp::AllocationResult alloc, ProgramId id,
                                     int filter_priority, ProgramId replacing)
    : ctx_(ctx),
      ir_(ir),
      alloc_(std::move(alloc)),
      id_(id),
      filter_priority_(filter_priority),
      replacing_(replacing) {}

DeployTransaction::~DeployTransaction() {
  if (phase_ == Phase::Submitted) {
    // Abandoning a submitted transaction would leave its job referencing
    // our staged batch: settle it first. (The write completes — submission
    // is the commit point on the channel.)
    (void)commit_finish();
  }
  if (phase_ != Phase::Committed && phase_ != Phase::RolledBack) rollback();
}

Status DeployTransaction::reserve() {
  assert(phase_ == Phase::Compiled);
  auto reserve_span = obs::span(ctx_.telemetry, "txn.reserve", "ctrl");

  // Memory blocks at the allocation's pinned stages.
  for (const auto& [vmem, rpb] : alloc_.vmem_rpb) {
    auto block = ctx_.resources.allocate_memory(rpb, ir_.vmem_sizes.at(vmem));
    if (!block.ok()) {
      rollback();
      return block.error();
    }
    placements_[vmem] = VmemPlacement{rpb, block.value()};
  }

  // Table entries per physical RPB. The counts mirror generate_entries
  // exactly (one entry per node, one per case of a branch) so reservation
  // can precede planning; plan_entries() asserts the match.
  const int total_rpbs = ctx_.dataplane.spec().total_rpbs();
  std::map<int, std::uint32_t> counts;
  for (const auto& node : ir_.nodes) {
    const int logical = alloc_.x[static_cast<std::size_t>(node.depth - 1)];
    const int phys = dp::physical_rpb(logical, total_rpbs);
    counts[phys] += node.op.kind == dp::OpKind::Branch
                        ? static_cast<std::uint32_t>(node.op.cases.size())
                        : 1u;
  }
  for (const auto& [rpb, count] : counts) {
    if (auto s = ctx_.resources.reserve_entries(rpb, count); !s.ok()) {
      rollback();
      return s.error();
    }
    reserved_entries_[rpb] = count;
  }
  phase_ = Phase::Reserved;
  return {};
}

void DeployTransaction::plan_entries() {
  assert(phase_ == Phase::Reserved);
  auto entrygen_span = obs::span(ctx_.telemetry, "entrygen", "ctrl");
  plan_ = rp::generate_entries(ir_, alloc_, id_, placements_, ctx_.dataplane.spec());
  plan_.filter_priority = filter_priority_;
  entrygen_span.arg("rpb_entries",
                    static_cast<std::uint64_t>(plan_.rpb_entries.size()));

#ifndef NDEBUG
  std::map<int, std::uint32_t> planned;
  for (const auto& e : plan_.rpb_entries) ++planned[e.rpb];
  assert(planned == reserved_entries_ &&
         "reservation counts diverged from the generated plan");
#endif
  phase_ = Phase::Planned;
}

void DeployTransaction::stage() {
  assert(phase_ == Phase::Planned);
  auto stage_span = obs::span(ctx_.telemetry, "txn.stage", "ctrl");

  // Incremental update: carry over the contents of virtual memories that
  // survive the version change. Staged as WriteMemRange ops ahead of the
  // install sequence — their RestoreMemRange inverses make a mid-install
  // fault unwind the copies too (the old bytes of the target blocks come
  // back, so freed memory is returned exactly as it was).
  if (replacing_ != 0) {
    if (const auto* old_placements = ctx_.resources.program_placements(replacing_)) {
      for (const auto& [vmem, placement] : placements_) {
        const auto old_it = old_placements->find(vmem);
        if (old_it == old_placements->end()) continue;
        const std::uint32_t count =
            std::min(placement.block.size, old_it->second.block.size);
        const auto& old_mem = ctx_.dataplane.rpb(old_it->second.rpb).memory();
        std::vector<Word> words;
        words.reserve(count);
        for (std::uint32_t a = 0; a < count; ++a) {
          words.push_back(old_mem.read(old_it->second.block.base + a));
        }
        batch_.write_mem_range(placement.rpb, placement.block.base,
                               std::move(words), vmem);
      }
    }
  }

  rp::stage_install(plan_, batch_);
  stage_span.arg("ops", static_cast<std::uint64_t>(batch_.size()));
  phase_ = Phase::Staged;
}

void DeployTransaction::commit_submit() {
  assert(phase_ == Phase::Staged);
  commit_span_ = obs::span(ctx_.telemetry, "txn.commit", "ctrl");
  commit_span_.arg("ops", static_cast<std::uint64_t>(batch_.size()));
  if (ctx_.updates.async()) {
    // Closed now: no span stays open while the session parks off-lock. The
    // channel time is reported by the bfrt spans the finish replays.
    commit_span_.arg("async", "1");
    commit_span_.end();
  }
  pending_ = ctx_.updates.submit_install(batch_);
  phase_ = Phase::Submitted;
}

void DeployTransaction::commit_wait() {
  assert(phase_ == Phase::Submitted);
  pending_.wait();
}

Result<InstalledProgram> DeployTransaction::commit_finish() {
  assert(phase_ == Phase::Submitted);
  auto applied = ctx_.updates.finish_install(pending_);
  channel_ms_ = static_cast<double>(pending_.outcome->completion_ns -
                                    pending_.submitted_ns) /
                1e6;
  phase_ = Phase::Staged;  // settled; finalize() decides Committed/RolledBack
  auto installed = finalize(std::move(applied));
  commit_span_.end();
  return installed;
}

Result<InstalledProgram> DeployTransaction::finalize(
    Result<UpdateEngine::AppliedEntries> applied) {
  if (!applied.ok()) {
    // The engine's journal already restored the dataplane; return the
    // reservations so nothing of the transaction survives.
    rollback();
    return applied.error();
  }

  InstalledProgram out;
  out.id = id_;
  out.name = ir_.name;
  out.ir = ir_;
  out.alloc = std::move(alloc_);
  out.plan = std::move(plan_);
  out.placements = placements_;
  auto entries = std::move(applied).take();
  out.filter_handles = std::move(entries.filter_handles);
  out.rpb_handles = std::move(entries.rpb_handles);
  out.recirc_handles = std::move(entries.recirc_handles);

  ctx_.resources.record_program(id_, placements_);
  ctx_.updates.announce_deploy(out);
  phase_ = Phase::Committed;
  return out;
}

void DeployTransaction::rollback() {
  if (phase_ == Phase::Committed || phase_ == Phase::RolledBack) return;
  auto rollback_span = obs::span(ctx_.telemetry, "txn.rollback", "ctrl");
  for (const auto& [rpb, count] : reserved_entries_) {
    ctx_.resources.release_entries(rpb, count);
  }
  reserved_entries_.clear();
  for (const auto& [vmem, placement] : placements_) {
    ctx_.resources.free_memory(placement.rpb, placement.block);
  }
  placements_.clear();
  phase_ = Phase::RolledBack;
}

}  // namespace p4runpro::ctrl
