#include "dataplane/switch_chain.h"

#include <set>

namespace p4runpro::dp {

SwitchChain::SwitchChain(int length, DataplaneSpec spec,
                         rmt::ParserConfig parser_config)
    : SwitchChain(std::vector<DataplaneSpec>(static_cast<std::size_t>(length), spec),
                  std::move(parser_config)) {}

SwitchChain::SwitchChain(const std::vector<DataplaneSpec>& specs,
                         rmt::ParserConfig parser_config) {
  for (const DataplaneSpec& spec : specs) {
    switches_.push_back(std::make_unique<RunproDataplane>(spec, parser_config));
  }
  // A pass that asks for another round continues on the next hop instead
  // of recirculating; the last hop has none, so a packet that needs more
  // rounds than there are switches runs off the end there.
  for (std::size_t hop = 0; hop < switches_.size(); ++hop) {
    switches_[hop]->pipeline().set_next_hop(
        hop + 1 < switches_.size() ? &switches_[hop + 1]->pipeline() : nullptr);
  }
}

Status SwitchChain::uniform_specs() const {
  const DataplaneSpec& base = switches_.front()->spec();
  const auto mismatch = [&](int hop, const char* field, long long got,
                            long long want) -> Error {
    return Error{"hop " + std::to_string(hop) + " spec mismatch: " + field +
                     " = " + std::to_string(got) + ", hop 0 has " +
                     std::to_string(want),
                 "SwitchChain", ErrorCode::InvalidArgument};
  };
  for (std::size_t hop = 1; hop < switches_.size(); ++hop) {
    const DataplaneSpec& spec = switches_[hop]->spec();
    const int h = static_cast<int>(hop);
    if (spec.ingress_rpbs != base.ingress_rpbs) {
      return mismatch(h, "ingress_rpbs", spec.ingress_rpbs, base.ingress_rpbs);
    }
    if (spec.egress_rpbs != base.egress_rpbs) {
      return mismatch(h, "egress_rpbs", spec.egress_rpbs, base.egress_rpbs);
    }
    if (spec.memory_per_rpb != base.memory_per_rpb) {
      return mismatch(h, "memory_per_rpb", spec.memory_per_rpb, base.memory_per_rpb);
    }
    if (spec.entries_per_rpb != base.entries_per_rpb) {
      return mismatch(h, "entries_per_rpb", spec.entries_per_rpb,
                      base.entries_per_rpb);
    }
    if (spec.max_recirculations != base.max_recirculations) {
      return mismatch(h, "max_recirculations", spec.max_recirculations,
                      base.max_recirculations);
    }
    if (spec.hash_output_bits != base.hash_output_bits) {
      return mismatch(h, "hash_output_bits", spec.hash_output_bits,
                      base.hash_output_bits);
    }
  }
  return {};
}

Status SwitchChain::chain_compatibility(
    const std::map<std::string, std::vector<int>>& vmem_depths,
    const std::vector<int>& x, int total_rpbs) {
  for (const auto& [vmem, depths] : vmem_depths) {
    std::set<int> rounds;
    for (int depth : depths) {
      rounds.insert(recirc_round(x[static_cast<std::size_t>(depth - 1)], total_rpbs));
    }
    if (rounds.size() > 1) {
      std::string listed;
      for (int round : rounds) {
        if (!listed.empty()) listed += ", ";
        listed += std::to_string(round);
      }
      return Error{"virtual memory '" + vmem + "' is accessed in rounds " +
                       listed + " — each round runs on a different chain hop "
                       "with its own physical memory, so the program needs a "
                       "recirculating switch",
                   "SwitchChain", ErrorCode::InvalidArgument};
    }
  }
  return {};
}

}  // namespace p4runpro::dp
