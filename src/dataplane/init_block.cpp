#include "dataplane/init_block.h"

#include <algorithm>

#include "rmt/phv.h"

namespace p4runpro::dp {

namespace {
using rmt::FieldId;

/// Headers required to evaluate a filter on `field`.
enum HeaderNeed : std::uint8_t { kNeedNone = 0, kNeedIpv4 = 1, kNeedTcp = 2, kNeedUdp = 4 };

[[nodiscard]] std::uint8_t header_need(FieldId field) noexcept {
  switch (field) {
    case FieldId::Ipv4Src:
    case FieldId::Ipv4Dst:
    case FieldId::Ipv4Proto:
      return kNeedIpv4;
    case FieldId::TcpSrcPort:
    case FieldId::TcpDstPort:
      return kNeedIpv4 | kNeedTcp;
    case FieldId::UdpSrcPort:
    case FieldId::UdpDstPort:
      return kNeedIpv4 | kNeedUdp;
    default:
      return kNeedNone;
  }
}
}  // namespace

std::optional<int> filter_key_slot(rmt::FieldId field) noexcept {
  switch (field) {
    case FieldId::MetaIngressPort: return kFilterIngressPort;
    case FieldId::Ipv4Src: return kFilterIpv4Src;
    case FieldId::Ipv4Dst: return kFilterIpv4Dst;
    case FieldId::Ipv4Proto: return kFilterIpv4Proto;
    case FieldId::TcpSrcPort:
    case FieldId::UdpSrcPort:
      return kFilterL4Src;
    case FieldId::TcpDstPort:
    case FieldId::UdpDstPort:
      return kFilterL4Dst;
    case FieldId::EthType: return kFilterEthType;
    default:
      return std::nullopt;
  }
}

std::vector<ParsePath> compatible_paths(const std::vector<FilterTuple>& filters) {
  std::uint8_t need = kNeedNone;
  for (const auto& f : filters) need |= header_need(f.field);

  std::vector<ParsePath> paths;
  auto consider = [&](ParsePath p, std::uint8_t provides) {
    if ((need & ~provides) == 0) paths.push_back(p);
  };
  consider(ParsePath::Eth, kNeedNone);
  consider(ParsePath::Ipv4, kNeedIpv4);
  consider(ParsePath::Tcp, kNeedIpv4 | kNeedTcp);
  consider(ParsePath::Udp, kNeedIpv4 | kNeedUdp);
  consider(ParsePath::App, kNeedIpv4 | kNeedUdp);
  return paths;
}

InitBlock::InitBlock(std::uint32_t per_table_capacity)
    : tables_{FilterTable(kFilterKeyWidth, per_table_capacity),
              FilterTable(kFilterKeyWidth, per_table_capacity),
              FilterTable(kFilterKeyWidth, per_table_capacity),
              FilterTable(kFilterKeyWidth, per_table_capacity),
              FilterTable(kFilterKeyWidth, per_table_capacity)},
      // Every installed program occupies at least one filter entry, and the
      // controller recycles ids of revoked programs, so the largest id ever
      // handed out is bounded by the total entry capacity.
      claimed_(static_cast<std::size_t>(kNumParsePaths) * per_table_capacity + 2) {}

ParsePath InitBlock::path_of(const rmt::Phv& phv) noexcept {
  if (phv.parse_bitmap & rmt::kParseApp) return ParsePath::App;
  if (phv.parse_bitmap & rmt::kParseUdp) return ParsePath::Udp;
  if (phv.parse_bitmap & rmt::kParseTcp) return ParsePath::Tcp;
  if (phv.parse_bitmap & rmt::kParseIpv4) return ParsePath::Ipv4;
  return ParsePath::Eth;
}

void InitBlock::process(rmt::Phv& phv) {
  // Recirculated packets carry their program state in the P4runpro header;
  // they bypass filtering.
  if (phv.recirc_id > 0) return;

  const ParsePath path = path_of(phv);
  const rmt::Packet& pkt = phv.pkt;
  const Word l4_src = pkt.tcp   ? pkt.tcp->src_port
                      : pkt.udp ? pkt.udp->src_port
                                : 0;
  const Word l4_dst = pkt.tcp   ? pkt.tcp->dst_port
                      : pkt.udp ? pkt.udp->dst_port
                                : 0;
  const std::array<Word, kFilterKeyWidth> fields = {
      pkt.ingress_port,
      pkt.ipv4 ? pkt.ipv4->src : 0,
      pkt.ipv4 ? pkt.ipv4->dst : 0,
      pkt.ipv4 ? pkt.ipv4->proto : 0u,
      l4_src,
      l4_dst,
      pkt.eth.ether_type};
  const ProgramId* program =
      bound_ != nullptr ? (*bound_)[static_cast<std::size_t>(path)]->lookup(fields)
                        : tables_[static_cast<std::size_t>(path)].lookup(fields);
  if (program != nullptr) {
    phv.program_id = *program;
    if (*program < claimed_.size()) {
      claimed_[*program].fetch_add(1, std::memory_order_relaxed);
    }
    if (phv.trace_events != nullptr) {
      rmt::TraceEvent event;
      event.block = rmt::TraceEvent::Block::Init;
      event.round = phv.recirc_id;
      event.op = "claim";
      event.value = *program;
      phv.trace_events->push_back(std::move(event));
    }
  }
}

Result<std::vector<InitBlock::InstalledFilter>> InitBlock::install(
    ProgramId program, const std::vector<FilterTuple>& filters, int priority) {
  std::vector<rmt::TernaryKey> keys(kFilterKeyWidth, rmt::TernaryKey::any());
  for (const auto& f : filters) {
    const auto slot = filter_key_slot(f.field);
    if (!slot) {
      return Error{"field cannot be used in a flow filter: " +
                       std::string(rmt::field_name(f.field)),
                   "InitBlock", ErrorCode::SemanticError};
    }
    keys[static_cast<std::size_t>(*slot)] = rmt::TernaryKey{f.value, f.mask};
  }

  std::vector<InstalledFilter> installed;
  for (ParsePath path : compatible_paths(filters)) {
    auto result =
        tables_[static_cast<std::size_t>(path)].insert(keys, priority, program);
    if (!result.ok()) {
      remove(installed);  // roll back partial install
      return result.error();
    }
    installed.push_back({path, result.value()});
  }
  return installed;
}

void InitBlock::remove(const std::vector<InstalledFilter>& handles) {
  for (const auto& h : handles) {
    tables_[static_cast<std::size_t>(h.path)].erase(h.handle);
  }
}

const FilterTable& InitBlock::table(ParsePath path) const {
  return tables_[static_cast<std::size_t>(path)];
}

std::uint64_t InitBlock::claimed_packets(ProgramId program) const {
  return claimed_.size() <= program
             ? 0
             : claimed_[program].load(std::memory_order_relaxed);
}

void InitBlock::clear_counter(ProgramId program) {
  if (claimed_.size() > program) {
    claimed_[program].store(0, std::memory_order_relaxed);
  }
}

std::size_t InitBlock::total_entries() const noexcept {
  std::size_t n = 0;
  for (const auto& t : tables_) n += t.size();
  return n;
}

}  // namespace p4runpro::dp
