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
    : hops_(std::move(hops)),
      ir_(ir),
      allocs_(std::move(allocs)),
      id_(id),
      filter_priority_(filter_priority),
      replacing_(replacing),
      telemetry_(telemetry) {
  assert(!hops_.empty());
  assert(hops_.size() == allocs_.size());
  residuals_.resize(hops_.size());
}

ChainTransaction::~ChainTransaction() {
  // In-flight writer jobs reference the staged batches: settle them first.
  if (phase_ == Phase::Submitted) (void)commit_finish();
  if (phase_ == Phase::Solved || phase_ == Phase::Staged) rollback_all();
}

obs::SpanTracer::Scope ChainTransaction::chain_span(const char* name) const {
  return obs::span(hops_.size() > 1 ? telemetry_ : nullptr, name, "ctrl");
}

Status ChainTransaction::stage_all() {
  assert(phase_ == Phase::Solved);
  auto stage_span = chain_span("chain_txn.stage");
  stage_span.arg("hops", static_cast<std::uint64_t>(hops_.size()));

  txns_.reserve(hops_.size());
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    txns_.push_back(std::make_unique<DeployTransaction>(
        DeployContext{*hops_[h].dataplane, *hops_[h].resources, *hops_[h].updates,
                      telemetry_},
        ir_, std::move(allocs_[h]), id_, filter_priority_, replacing_));
  }

  // Reserve everywhere first: any hop's AllocFailed aborts the chain before
  // a single dataplane write is even staged.
  for (std::size_t h = 0; h < txns_.size(); ++h) {
    if (auto s = txns_[h]->reserve(); !s.ok()) {
      faulted_hop_ = static_cast<int>(h);
      rollback_all();
      return s;
    }
  }
  for (auto& txn : txns_) {
    txn->plan_entries();
    txn->stage();
  }

  // Capture the pre-transaction bytes of every reserved block now, while
  // nothing has written to the dataplane: a later commit-unwind's memory
  // reset must be able to restore free memory byte-identically.
  for (std::size_t h = 0; h < txns_.size(); ++h) {
    for (const auto& [vmem, placement] : txns_[h]->placements()) {
      residuals_[h].push_back(
          Residual{vmem, placement, read_block(*hops_[h].dataplane, placement)});
    }
  }

  phase_ = Phase::Staged;
  return {};
}

bool ChainTransaction::pipelined() const {
  for (const auto& hop : hops_) {
    if (hop.updates == nullptr || !hop.updates->async()) return false;
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
  for (auto& txn : txns_) txn->commit_submit();
  phase_ = Phase::Submitted;
}

void ChainTransaction::commit_wait() {
  assert(phase_ == Phase::Submitted);
  for (auto& txn : txns_) txn->commit_wait();
}

Status ChainTransaction::commit_finish() {
  assert(phase_ == Phase::Staged || phase_ == Phase::Submitted);
  std::vector<std::optional<InstalledProgram>> committed(txns_.size());
  std::uint64_t committed_hops = 0;
  Status first_error;
  for (std::size_t h = 0; h < txns_.size(); ++h) {
    DeployTransaction& txn = *txns_[h];
    if (txn.phase() == DeployTransaction::Phase::Staged) {
      // Serial: a hop reaches its channel only once every hop before it
      // settled cleanly, so virtual time sums across hops and the first
      // fault stops the chain.
      if (!first_error.ok()) break;
      txn.commit_submit();
    }
    auto installed = txn.commit_finish();
    if (!installed.ok()) {
      // The faulted hop rolled itself back. Pipelined, keep settling the
      // remaining hops: their jobs reference their staged batches and must
      // complete before anything unwinds.
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
      if (committed[g]) unwind_committed_hop(static_cast<int>(g), *committed[g]);
    }
    for (auto& txn : txns_) txn->rollback();
    installed_.clear();
    phase_ = Phase::RolledBack;
    return first_error;
  }
  installed_.reserve(committed.size());
  for (auto& program : committed) installed_.push_back(std::move(*program));
  phase_ = Phase::Committed;
  return {};
}

double ChainTransaction::channel_ms() const {
  double ms = 0.0;
  for (const auto& txn : txns_) ms = std::max(ms, txn->channel_ms());
  return ms;
}

void ChainTransaction::rollback_all() {
  if (phase_ == Phase::Committed || phase_ == Phase::RolledBack) return;
  for (auto& txn : txns_) {
    if (txn) txn->rollback();
  }
  installed_.clear();
  phase_ = Phase::RolledBack;
}

void ChainTransaction::unwind_commit() {
  assert(phase_ == Phase::Committed);
  auto unwind_span = chain_span("chain_txn.unwind");
  unwind_span.arg("committed_hops", static_cast<std::uint64_t>(hops_.size()));
  for (std::size_t g = hops_.size(); g-- > 0;) {
    unwind_committed_hop(static_cast<int>(g), installed_[g]);
  }
  installed_.clear();
  phase_ = Phase::RolledBack;
}

void ChainTransaction::unwind_committed_hop(int hop, InstalledProgram& program) {
  ChainHop& ctx = hops_[static_cast<std::size_t>(hop)];
  const auto entries = entries_per_rpb(program);

  // Consistent remove through the hop's own engine (filters first, so the
  // half-deployed program is atomically invisible; memory reset last). The
  // unwind itself must not fault: faults fire once and have already fired.
  const Status removed = ctx.updates->remove(program);
  assert(removed.ok() && "chain unwind remove must not fault (single-fault model)");
  (void)removed;

  for (const auto& [rpb, count] : entries) ctx.resources->release_entries(rpb, count);
  ctx.resources->erase_program(id_);
  ctx.dataplane->clear_claim_counter(id_);

  // remove() zeroed the blocks; put the pre-transaction residual bytes back
  // so even free memory is byte-identical. The inverse op is discarded —
  // this IS the rollback.
  for (const Residual& residual : residuals_[static_cast<std::size_t>(hop)]) {
    if (residual.words.empty()) continue;
    dp::WriteOp op;
    op.kind = dp::WriteOp::Kind::RestoreMemRange;
    op.mem_rpb = residual.placement.rpb;
    op.mem_base = residual.placement.block.base;
    op.mem_size = static_cast<std::uint32_t>(residual.words.size());
    op.mem_words = residual.words;
    op.vmem = residual.vmem;
    auto applied = ctx.dataplane->apply(op);
    assert(applied.ok());
    (void)applied;
  }
}

std::size_t ChainTransaction::staged_ops(int hop) const {
  const auto& txn = txns_[static_cast<std::size_t>(hop)];
  return txn ? txn->staged_batch().size() : 0;
}

std::size_t ChainTransaction::total_staged_ops() const {
  std::size_t total = 0;
  for (const auto& txn : txns_) {
    if (txn) total += txn->staged_batch().size();
  }
  return total;
}

}  // namespace p4runpro::ctrl
