// Composite pipeline stage running a sequence of RPBs as one unit. The
// chain hoists two checks out of the per-RPB loop that otherwise cost a
// virtual call per provisioned stage per packet:
//   - unclaimed packets (program_id == 0) skip the whole chain — no RPB
//     acts on them, by the same rule Rpb::process applies per stage;
//   - RPBs with an empty table are skipped, with their miss accounting
//     (one table miss per claimed packet per empty stage) applied in bulk
//     so every counter advances exactly as if each stage had run.
// Entry installation keeps addressing individual Rpb objects through
// RunproDataplane::rpb(); the chain only changes how a pass iterates them.
#pragma once

#include <memory>
#include <vector>

#include "dataplane/rpb.h"
#include "rmt/pipeline.h"

namespace p4runpro::dp {

class RpbChain final : public rmt::PipelineStage {
 public:
  RpbChain(std::vector<std::shared_ptr<Rpb>> rpbs, rmt::StageStats* stats)
      : rpbs_(std::move(rpbs)), stats_(stats) {
    raw_.reserve(rpbs_.size());
    for (const auto& rpb : rpbs_) raw_.push_back(rpb.get());
  }

  void process(rmt::Phv& phv) override {
    if (phv.program_id == 0) return;
    std::uint32_t skipped = 0;
    for (Rpb* rpb : raw_) {
      // read_size(): the bound snapshot table when sharded, so the empty
      // check and the lookup inside process() see the same frozen state.
      if (rpb->read_size() == 0) {
        ++skipped;
        continue;
      }
      rpb->process(phv);
    }
    if (skipped != 0) {
      if (stats_ != nullptr) stats_->table_misses += skipped;
      phv.pkt_table_misses += skipped;
    }
  }

 private:
  std::vector<std::shared_ptr<Rpb>> rpbs_;
  std::vector<Rpb*> raw_;  // devirtualized iteration order (Rpb is final)
  rmt::StageStats* stats_;
};

}  // namespace p4runpro::dp
