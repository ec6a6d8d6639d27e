// Runtime CLI — the interactive control-plane front end of the prototype
// (paper §5: "We implement a runtime CLI to interact with the P4runpro
// data plane"). Reads commands from stdin; try:
//
//   help
//   catalog
//   link cache
//   programs
//   write cache mem1 0 4919
//   cache-read 0x8888
//   resources
//   revoke cache
//   quit
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "compiler/p4lite.h"
#include "control/inspect.h"
#include "dataplane/runpro_dataplane.h"

using namespace p4runpro;

namespace {

void print_help() {
  std::printf(
      "commands:\n"
      "  catalog                          list the 15 program templates\n"
      "  link <key> [mem] [elastic]       link a template instance (name = key)\n"
      "  link-file <path>                 link programs from a .p4rp source file\n"
      "  link-lite <path>                 compile a P4lite file and link it\n"
      "  relink <name> <key> [mem] [el]   incremental update of a running program\n"
      "  revoke <name>                    remove a running program\n"
      "  programs                         list running programs\n"
      "  show <name>                      disassemble a running program\n"
      "  resources                        memory / entry utilization\n"
      "  events                           control-plane audit log\n"
      "  read <name> <vmem> <addr>        read program memory (virtual address)\n"
      "  write <name> <vmem> <addr> <v>   write program memory\n"
      "  cache-read <key>                 inject a cache-read packet (UDP 7777)\n"
      "  trace <key>                      cache-read with a full execution trace\n"
      "  help | quit\n");
}

Word parse_word(const std::string& text) {
  return static_cast<Word>(std::stoul(text, nullptr, 0));
}

}  // namespace

int main() {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{},
                                rmt::ParserConfig{{7777, 7788, 9999, 5555}});
  ctrl::Controller controller(dataplane, clock);
  std::printf("P4runpro runtime CLI — switch provisioned (%d RPBs). Type 'help'.\n",
              dataplane.spec().total_rpbs());

  std::string line;
  while (std::printf("p4runpro> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    try {
      if (cmd == "quit" || cmd == "exit") break;
      if (cmd == "help") {
        print_help();
      } else if (cmd == "catalog") {
        for (const auto& info : apps::program_catalog()) {
          std::printf("  %-12s %-28s (%d LoC, paper update %.2f ms)\n",
                      info.key.c_str(), info.display.c_str(),
                      apps::template_loc(info.key), info.paper_update_ms);
        }
      } else if (cmd == "link" || cmd == "relink") {
        std::string name;
        if (cmd == "relink" && !(in >> name)) {
          std::printf("usage: relink <name> <key> [mem] [elastic]\n");
          continue;
        }
        std::string key;
        if (!(in >> key)) {
          std::printf("usage: %s <key> [mem_buckets] [elastic_cases]\n", cmd.c_str());
          continue;
        }
        apps::ProgramConfig config;
        config.instance_name = cmd == "relink" ? name : key;
        if (std::string v; in >> v) config.mem_buckets = parse_word(v);
        if (std::string v; in >> v) config.elastic_cases = static_cast<int>(parse_word(v));
        if (apps::find_program(key) == nullptr) {
          std::printf("unknown template '%s' (see 'catalog')\n", key.c_str());
          continue;
        }
        const std::string source = apps::make_program_source(key, config);
        auto result = cmd == "relink"
                          ? [&] {
                              const auto* old = controller.program_by_name(name);
                              return old ? controller.relink(old->id, source)
                                         : Result<ctrl::LinkResult>(Error{
                                               "no program named '" + name + "'",
                                               "cli"});
                            }()
                          : controller.link_single(source);
        if (!result.ok()) {
          std::printf("error: %s\n", result.error().str().c_str());
        } else {
          std::printf("%s '%s' as program %u (alloc %.3f ms, update %.2f ms)\n",
                      cmd == "relink" ? "relinked" : "linked",
                      result.value().name.c_str(), result.value().id,
                      result.value().stats.alloc_ms, result.value().stats.update_ms);
        }
      } else if (cmd == "link-file" || cmd == "link-lite") {
        std::string path;
        in >> path;
        std::ifstream file(path);
        if (!file) {
          std::printf("cannot open '%s'\n", path.c_str());
          continue;
        }
        std::stringstream buffer;
        buffer << file.rdbuf();
        std::string source = buffer.str();
        if (cmd == "link-lite") {
          auto dsl = rp::compile_p4lite(source);
          if (!dsl.ok()) {
            std::printf("error: %s\n", dsl.error().str().c_str());
            continue;
          }
          source = dsl.value();
        }
        auto results = controller.link(source);
        if (!results.ok()) {
          std::printf("error: %s\n", results.error().str().c_str());
        } else {
          for (const auto& r : results.value()) {
            std::printf("linked '%s' as program %u (alloc %.3f ms, update %.2f ms)\n",
                        r.name.c_str(), r.id, r.stats.alloc_ms, r.stats.update_ms);
          }
        }
      } else if (cmd == "revoke") {
        std::string name;
        in >> name;
        auto s = controller.revoke_by_name(name);
        std::printf("%s\n", s.ok() ? "revoked" : s.error().str().c_str());
      } else if (cmd == "show") {
        std::string name;
        in >> name;
        const auto* p = controller.program_by_name(name);
        if (p == nullptr) {
          std::printf("no program named '%s'\n", name.c_str());
        } else {
          std::printf("%s  claimed packets: %llu\n",
                      ctrl::disassemble(*p, dataplane.spec()).c_str(),
                      static_cast<unsigned long long>(
                          controller.program_packets(p->id)));
        }
      } else if (cmd == "programs") {
        for (ProgramId id : controller.running_programs()) {
          const auto* p = controller.program(id);
          std::printf("  %3u %-16s depth %2d, rounds %d, %zu RPB entries\n", id,
                      p->name.c_str(), p->image->ir.depth, p->image->alloc.rounds,
                      p->rpb_handles.size());
        }
        if (controller.program_count() == 0) std::printf("  (none)\n");
      } else if (cmd == "events") {
        for (const auto& e : controller.events()) {
          const char* kind = e.kind == ctrl::ControlEvent::Kind::Link     ? "link"
                             : e.kind == ctrl::ControlEvent::Kind::Relink ? "relink"
                             : e.kind == ctrl::ControlEvent::Kind::Revoke ? "revoke"
                                                                          : "FAILED";
          std::printf("  %10.2f ms  %-7s %-16s (id %u) %s\n", e.t_ms, kind,
                      e.name.c_str(), e.id, e.detail.c_str());
        }
        if (controller.events().empty()) std::printf("  (none)\n");
      } else if (cmd == "resources") {
        std::printf("memory %.1f%%, table entries %.1f%% (virtual time %.1f ms)\n",
                    100.0 * controller.resources().total_memory_utilization(),
                    100.0 * controller.resources().total_entry_utilization(),
                    clock.now_ms());
      } else if (cmd == "read" || cmd == "write") {
        std::string name, vmem, addr_text;
        in >> name >> vmem >> addr_text;
        const auto* p = controller.program_by_name(name);
        if (p == nullptr) {
          std::printf("no program named '%s'\n", name.c_str());
          continue;
        }
        const MemAddr addr = parse_word(addr_text);
        if (cmd == "read") {
          auto v = controller.read_memory(p->id, vmem, addr);
          if (v.ok()) {
            std::printf("%s[%u] = 0x%x\n", vmem.c_str(), addr, v.value());
          } else {
            std::printf("error: %s\n", v.error().str().c_str());
          }
        } else {
          std::string value_text;
          in >> value_text;
          auto s = controller.write_memory(p->id, vmem, addr, parse_word(value_text));
          std::printf("%s\n", s.ok() ? "ok" : s.error().str().c_str());
        }
      } else if (cmd == "cache-read" || cmd == "trace") {
        std::string key_text;
        in >> key_text;
        if (cmd == "trace") dataplane.pipeline().set_tracing(true);
        rmt::Packet pkt;
        pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
        pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = 7777};
        pkt.app = rmt::AppHeader{.op = 1, .key1 = parse_word(key_text), .key2 = 0,
                                 .value = 0};
        pkt.ingress_port = 5;
        const auto result = dataplane.inject(pkt);
        const char* fate = result.fate == rmt::PacketFate::Returned    ? "returned"
                           : result.fate == rmt::PacketFate::Forwarded ? "forwarded"
                           : result.fate == rmt::PacketFate::Dropped   ? "dropped"
                                                                       : "reported";
        std::printf("%s (port %u), value 0x%x\n", fate, result.egress_port,
                    result.packet.app ? result.packet.app->value : 0);
        if (cmd == "trace") {
          for (const auto& event : dataplane.pipeline().last_trace_events()) {
            std::printf("  %s\n", rmt::render_trace(event).c_str());
          }
          dataplane.pipeline().set_tracing(false);
        }
      } else {
        std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
      }
    } catch (const std::exception& e) {
      std::printf("bad arguments: %s\n", e.what());
    }
  }
  std::printf("\nbye\n");
  return 0;
}
