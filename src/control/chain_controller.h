// Chain controller: ctrl::Controller on a dp::SwitchChain — the paper's
// multi-switch alternative to recirculation (§4.1.3/§5), driven as ONE
// logical control plane. Every program is mirrored on every hop under a
// single ProgramId, and every mutation is a chain-wide two-phase
// transaction (ctrl::ChainTransaction): a control-channel fault at any
// (hop, write index) restores the whole chain byte-identically. Tenants,
// quotas, admission, defrag and the async channel come from the shared
// Controller; this class only fixes the mode and keeps the one-program
// `link` the chain API has always had.
#pragma once

#include <string_view>

#include "control/chain_txn.h"
#include "control/controller.h"
#include "dataplane/switch_chain.h"

namespace p4runpro::ctrl {

class ChainController : public Controller {
 public:
  ChainController(dp::SwitchChain& chain, SimClock& clock,
                  rp::Objective objective = {}, BfrtCostModel cost = {},
                  obs::Telemetry* telemetry = nullptr)
      : Controller(chain, clock, objective, cost, telemetry) {}

  /// Link a single-program source unit on every hop, atomically chain-wide.
  Result<LinkResult> link(std::string_view source) { return link_single(source); }
};

}  // namespace p4runpro::ctrl
