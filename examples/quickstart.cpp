// Quickstart: provision a P4runpro switch once, then link the paper's
// in-network cache program (Fig. 2) at runtime, exercise it with a few
// packets, inspect it from the control plane, and revoke it — all without
// touching the data-plane image.
#include <cstdio>

#include "common/clock.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"

using namespace p4runpro;

namespace {

// The example program of Fig. 2, written in the P4runpro DSL.
constexpr const char* kCacheProgram = R"(
@ mem1 1024
program cache(
    /*filtering traffic*/
    <hdr.udp.dst_port, 7777, 0xffff>) {
  EXTRACT(hdr.nc.op, har);   //get opcode
  EXTRACT(hdr.nc.key1, sar); //get key[0:31]
  EXTRACT(hdr.nc.key2, mar); //get key[32:63]
  BRANCH:
  /*cache hit and cache read*/
  case(<har, 1, 0xff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
    RETURN;                  //return to client
    LOADI(mar, 512);         //load address
    MEMREAD(mem1);           //read cache
    MODIFY(hdr.nc.value, sar);
  };
  /*cache hit and cache write*/
  case(<har, 2, 0xff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
    DROP;                    //drop the packet
    LOADI(mar, 512);         //load address
    EXTRACT(hdr.nc.val, sar); //get value
    MEMWRITE(mem1);          //write cache
  };
  FORWARD(32); //cache miss
}
)";

rmt::Packet cache_packet(Word op, Word key, Word value) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = 7777};
  pkt.app = rmt::AppHeader{.op = op, .key1 = key, .key2 = 0, .value = value};
  pkt.ingress_port = 5;
  return pkt;
}

const char* fate_name(rmt::PacketFate fate) {
  switch (fate) {
    case rmt::PacketFate::Forwarded: return "forwarded";
    case rmt::PacketFate::Returned: return "returned";
    case rmt::PacketFate::Dropped: return "dropped";
    case rmt::PacketFate::Reported: return "reported to CPU";
    case rmt::PacketFate::RecircLimit: return "recirculation limit";
    case rmt::PacketFate::Multicasted: return "multicasted";
  }
  return "?";
}

}  // namespace

int main() {
  // 1. Provision the switch exactly once: the fixed P4runpro data plane
  //    (init block, 10 ingress + 12 egress RPBs, recirculation block).
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);
  std::printf("provisioned: %d RPBs, %u buckets and %u entries per RPB\n",
              dataplane.spec().total_rpbs(), dataplane.spec().memory_per_rpb,
              dataplane.spec().entries_per_rpb);

  // 2. Link the cache program at runtime.
  auto linked = controller.link_single(kCacheProgram);
  if (!linked.ok()) {
    std::fprintf(stderr, "link failed: %s\n", linked.error().str().c_str());
    return 1;
  }
  const ProgramId id = linked.value().id;
  std::printf("linked '%s' as program %u (parse %.2f ms, alloc %.3f ms, update %.2f ms)\n",
              linked.value().name.c_str(), id, linked.value().stats.parse_ms,
              linked.value().stats.alloc_ms, linked.value().stats.update_ms);

  // 3. Warm the cache from the control plane (virtual address 512).
  if (!controller.write_memory(id, "mem1", 512, 0x1234).ok()) return 1;

  // 4. Send traffic.
  auto read = dataplane.inject(cache_packet(1, 0x8888, 0));
  std::printf("cache read hit:  %s with value 0x%x\n", fate_name(read.fate),
              read.packet.app->value);

  auto write = dataplane.inject(cache_packet(2, 0x8888, 0xBEEF));
  std::printf("cache write:     %s; memory now 0x%x\n", fate_name(write.fate),
              controller.read_memory(id, "mem1", 512).value());

  auto miss = dataplane.inject(cache_packet(1, 0x9999, 0));
  std::printf("cache miss:      %s to port %u (the server)\n", fate_name(miss.fate),
              miss.egress_port);

  // 5. Monitor and revoke.
  const auto* program = controller.program(id);
  std::printf("program '%s': %d AST depths over %d rounds, %zu RPB entries\n",
              program->name.c_str(), program->image->ir.depth, program->image->alloc.rounds,
              program->rpb_handles.size());
  if (!controller.revoke(id).ok()) return 1;
  std::printf("revoked; memory utilization back to %.0f%%\n",
              100.0 * controller.resources().total_memory_utilization());
  return 0;
}
