// The RMT pipeline frame: parser -> ingress stages -> traffic manager ->
// egress stages -> (out | recirculate). Stage contents are supplied by the
// P4runpro data plane (or any other program); the frame owns forwarding,
// recirculation and port accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rmt/parser.h"
#include "rmt/phv.h"

namespace p4runpro::obs {
struct Telemetry;
}

namespace p4runpro::rmt {

/// One pipeline stage. Implementations are the P4runpro blocks (init block,
/// RPBs, recirculation block).
class PipelineStage {
 public:
  virtual ~PipelineStage() = default;
  virtual void process(Phv& phv) = 0;
};

/// Final fate of an injected packet.
enum class PacketFate : std::uint8_t {
  Forwarded,  ///< left through `egress_port`
  Returned,   ///< reflected to its ingress port
  Dropped,
  Reported,       ///< punted to the CPU
  RecircLimit,    ///< exceeded the hardware recirculation allowance (dropped)
  Multicasted,    ///< replicated to `multicast_ports` by the traffic manager
};

struct PipelineResult {
  PacketFate fate = PacketFate::Dropped;
  Port egress_port = 0;
  std::vector<Port> multicast_ports;  ///< copies emitted on Multicasted
  Packet packet;       ///< packet as it left the pipeline
  int recirc_passes = 0;
};

/// Per-port TX counters for rate measurement in the case studies.
struct PortCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

/// Execution counters fed by the match-action stages (the RPBs): table
/// lookups by claimed packets and stateful-ALU executions. Owned by the
/// pipeline, incremented by the stages through a raw pointer (hot path).
struct StageStats {
  std::uint64_t table_hits = 0;
  std::uint64_t table_misses = 0;
  std::uint64_t salu_execs = 0;
};

/// Summary of one completed packet (all recirculation passes included),
/// handed to the attached PacketObserver when inject() finishes. The
/// pointers are valid only for the duration of the callback.
struct PacketObservation {
  ProgramId program = 0;  ///< claiming program (0 = unclaimed)
  PacketFate fate = PacketFate::Dropped;
  Port ingress_port = 0;
  Port egress_port = 0;
  std::uint64_t seq = 0;  ///< arrival index (== packets_in at parse time)
  int recirc_passes = 0;
  std::uint32_t table_hits = 0;
  std::uint32_t table_misses = 0;
  std::uint32_t salu_execs = 0;
  /// Structured execution trace; non-null only when the packet was traced
  /// (global tracing on, or the observer sampled this packet).
  const std::vector<TraceEvent>* events = nullptr;
  /// Causal trace id of the control operation that last installed table
  /// state into this pipeline (0 = tables never touched by a traced op),
  /// and the monotonically increasing table generation it bumped. Together
  /// they tie a packet's journey to the exact control-plane write history
  /// it executed against.
  std::uint64_t table_trace = 0;
  std::uint64_t table_generation = 0;
};

/// Per-program totals over the untraced packets of one inject_batch() call.
/// Summing loses nothing: every RPB entry is keyed on the claiming
/// program's id, so each packet's counters belong to exactly one program.
struct ProgramTally {
  std::uint64_t packets = 0;
  std::uint64_t table_hits = 0;
  std::uint64_t table_misses = 0;
  std::uint64_t salu_execs = 0;
  std::uint64_t recirc_passes = 0;
  std::uint64_t drops = 0;  ///< Dropped and RecircLimit fates
};

/// End-of-batch delivery to PacketObserver::on_batch: the tallies of every
/// packet of the batch that did not reach on_packet. The spans are valid
/// only for the duration of the callback.
struct BatchObservation {
  std::span<const ProgramId> programs;    ///< tallied ids, first-arrival order
  std::span<const ProgramTally> tallies;  ///< indexed by ProgramId
  std::uint64_t packets = 0;              ///< sum of the programs' tallies
  std::uint64_t table_trace = 0;          ///< as PacketObservation
  std::uint64_t table_generation = 0;
  /// Wall nanoseconds the pipeline spent adding packets to the tallies,
  /// timed only while the observer's accounting_overhead() is true.
  std::uint64_t tally_ns = 0;
};

/// Per-packet attribution hook (implemented by obs::ProgramHealthMonitor).
/// sample_packet() is consulted before parsing so the pipeline can enable
/// tracing for exactly the packets whose journey the observer wants. The
/// calls sit on the hot path and implementations must not do name lookups
/// or allocation on the common path.
class PacketObserver {
 public:
  virtual ~PacketObserver() = default;
  /// Return true to force per-packet tracing (journey capture) for the
  /// packet about to be injected.
  [[nodiscard]] virtual bool sample_packet() = 0;
  /// One completed packet: every inject(), and each sampled or traced
  /// packet of inject_batch().
  virtual void on_packet(const PacketObservation& obs) = 0;
  /// The rest of an inject_batch() call, summed per program, once at the
  /// end of the batch.
  virtual void on_batch(const BatchObservation& batch) { (void)batch; }
  /// True while the observer accounts its own overhead: inject_batch() then
  /// brackets each packet's tally add with two steady_clock reads and
  /// reports the sum as BatchObservation::tally_ns.
  [[nodiscard]] virtual bool accounting_overhead() const { return false; }
};

/// One trace event as a human-readable line, e.g. "parser: bitmap=0b11101",
/// "init: claimed by program 1", "RPB4 r0 b0: BRANCH -> b1" or
/// "recirc: another round (r1)".
[[nodiscard]] std::string render_trace(const TraceEvent& event);

class Pipeline {
 public:
  Pipeline(ParserConfig parser_config, int max_recirculations);

  // Stage wiring (done once by the data plane at provisioning time).
  void add_ingress_stage(std::shared_ptr<PipelineStage> stage) {
    ingress_.push_back(std::move(stage));
  }
  void add_egress_stage(std::shared_ptr<PipelineStage> stage) {
    egress_.push_back(std::move(stage));
  }

  /// Run one packet to completion: parse here, then one pass after
  /// another, each pass that asks for another round continuing on the
  /// next hop (see set_next_hop).
  PipelineResult inject(const Packet& pkt);

  /// Aggregate outcome of an inject_batch() call: per-fate packet counts
  /// plus the recirculation passes the batch consumed.
  struct BatchResult {
    std::uint64_t packets = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t returned = 0;
    std::uint64_t dropped = 0;
    std::uint64_t reported = 0;
    std::uint64_t multicasted = 0;
    std::uint64_t recirc_limited = 0;
    std::uint64_t recirc_passes = 0;
    /// Table state the whole batch matched against. On the sharded path
    /// every packet of a batch sees exactly one published TableSnapshot:
    /// its epoch plus the trace/generation that travel inside it. On the
    /// serial path the epoch stays 0 and trace/generation mirror the
    /// pipeline's note_table_update state at batch start.
    std::uint64_t snapshot_epoch = 0;
    std::uint64_t table_trace = 0;
    std::uint64_t table_generation = 0;
  };

  /// Run a batch of packets to completion and return aggregate results.
  /// No per-packet PipelineResult (or its Packet copy) is built. With an
  /// observer attached, each packet still gets its sampling query; sampled
  /// and traced packets reach on_packet as with inject(), and the rest are
  /// summed per program and delivered by one on_batch() at the end. With no
  /// observer and tracing off, the loop skips all of that. All pipeline
  /// counters (ports, stage stats, CPU queue) advance exactly as with
  /// per-packet inject().
  BatchResult inject_batch(std::span<const Packet> pkts);

  /// The pipe a pass that asks for another round continues on: this pipe
  /// itself by default (recirculation, bounded by the allowance), the next
  /// switch's pipe on a chain (§4.1.3: recirculation "can also be replaced
  /// by multiple switches deployed on the same path"; the recirculation id
  /// doubles as the hop index), or null on a chain's last hop, where a
  /// packet that asks for another round runs off the end as RecircLimit and
  /// that hop counts the drop. Wired once, at provisioning time.
  void set_next_hop(Pipeline* next) noexcept { next_hop_ = next; }

  /// Per-packet execution tracing (debugging): when enabled, every block
  /// records one TraceEvent per executed operation; read the last traced
  /// packet's events with last_trace_events() (render_trace() prints them).
  void set_tracing(bool enabled) noexcept { tracing_ = enabled; }
  [[nodiscard]] const std::vector<TraceEvent>& last_trace_events() const noexcept {
    return trace_events_;
  }

  /// Configure a traffic-manager multicast group (the control plane's PRE
  /// programming; enables the SwitchML-style aggregation of §7).
  void set_multicast_group(Word group, std::vector<Port> ports) {
    mcast_groups_[group] = std::move(ports);
  }
  [[nodiscard]] const std::vector<Port>* multicast_group(Word group) const {
    const auto it = mcast_groups_.find(group);
    return it == mcast_groups_.end() ? nullptr : &it->second;
  }
  /// All configured groups (copied into shard pipelines at enable time).
  [[nodiscard]] const std::map<Word, std::vector<Port>>& multicast_groups()
      const noexcept {
    return mcast_groups_;
  }

  /// Queue-depth signal exposed to programs as meta.qdepth (the functional
  /// model does not simulate queuing; tests and workloads set it).
  void set_qdepth(Word qdepth) noexcept { qdepth_ = qdepth; }
  [[nodiscard]] Word qdepth() const noexcept { return qdepth_; }

  /// Packets punted to the switch CPU (REPORT) since the last drain; the
  /// control plane consumes them via Controller::drain_reports().
  [[nodiscard]] std::vector<Packet> drain_cpu_queue();
  [[nodiscard]] std::size_t cpu_queue_depth() const noexcept { return cpu_queue_.size(); }

  /// Bound of the CPU punt queue (the switch-CPU PCIe channel drops under
  /// burst). Reported packets arriving at a full queue still count as
  /// Reported but their payload is lost; see cpu_queue_drops().
  static constexpr std::size_t kDefaultCpuQueueCapacity = 65536;
  void set_cpu_queue_capacity(std::size_t capacity) noexcept {
    cpu_queue_capacity_ = capacity;
  }
  [[nodiscard]] std::size_t cpu_queue_capacity() const noexcept {
    return cpu_queue_capacity_;
  }
  /// REPORTed packets dropped because the CPU queue was full.
  [[nodiscard]] std::uint64_t cpu_queue_drops() const noexcept {
    return cpu_queue_drops_;
  }

  [[nodiscard]] const PortCounters& port_counters(Port port) const;
  [[nodiscard]] std::uint64_t total_recirc_passes() const noexcept { return recirc_passes_; }
  [[nodiscard]] std::uint64_t packets_in() const noexcept { return packets_in_; }
  [[nodiscard]] std::uint64_t packets_dropped() const noexcept { return packets_dropped_; }
  [[nodiscard]] std::uint64_t packets_reported() const noexcept { return packets_reported_; }
  void clear_counters();

  /// Match-action execution counters, incremented by the RPB stages.
  [[nodiscard]] StageStats& stage_stats() noexcept { return stage_stats_; }
  [[nodiscard]] const StageStats& stage_stats() const noexcept { return stage_stats_; }

  /// Attribution hook: on_packet once per inject() (and per sampled or
  /// traced batch packet) with the packet's claiming program and execution
  /// counters, on_batch once per inject_batch() for the rest. Null disables
  /// (the default). Packets are observed where they enter, every pass on a
  /// later hop included.
  void set_observer(PacketObserver* observer) noexcept { observer_ = observer; }
  [[nodiscard]] PacketObserver* observer() const noexcept { return observer_; }

  /// Record that a control operation just mutated this pipeline's table
  /// state: bumps the table generation and remembers the operation's trace
  /// id. Called by the update engine after each successful install/remove
  /// batch; subsequent packet observations carry both values.
  void note_table_update(std::uint64_t trace) noexcept {
    ++table_generation_;
    table_trace_ = trace;
  }
  /// Overwrite the trace/generation pair wholesale. Shard pipelines are
  /// stamped from the bound TableSnapshot at every batch start so packet
  /// observations name the snapshot actually matched against — the
  /// authoritative values travel inside the snapshot, these members are
  /// just the per-shard mirror the observation path reads.
  void set_table_stamp(std::uint64_t trace, std::uint64_t generation) noexcept {
    table_trace_ = trace;
    table_generation_ = generation;
  }
  [[nodiscard]] std::uint64_t table_trace() const noexcept { return table_trace_; }
  [[nodiscard]] std::uint64_t table_generation() const noexcept {
    return table_generation_;
  }

  /// Route the pipeline counters through a telemetry registry as sampled
  /// probes under "rmt.pipeline.*" / "rmt.stage.*" (the members stay the
  /// source of truth). Re-attaching replaces the previous registration;
  /// the destructor unregisters.
  void attach_telemetry(obs::Telemetry* telemetry);

  [[nodiscard]] const Parser& parser() const noexcept { return parser_; }

  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

 private:
  /// Outcome of a single pipeline pass (ingress + traffic manager +
  /// egress).
  enum class PassOutcome : std::uint8_t { Exit, Recirculate };
  struct PassResult {
    PassOutcome outcome = PassOutcome::Exit;
    PacketFate fate = PacketFate::Dropped;
    Port egress_port = 0;
    std::vector<Port> multicast_ports;
  };

  /// Parse a raw packet into a PHV (counts it as an arrival).
  [[nodiscard]] Phv parse_packet(const Packet& pkt);
  /// Start a traced packet's event list with its parser event.
  void start_trace(Phv& phv);
  /// One full pass of an already-parsed PHV. On Recirculate the
  /// recirculation id is already incremented.
  PassResult process_pass(Phv& phv);
  /// Passes of one parsed packet until it exits, each Recirculate pass
  /// continuing on its pipe's next hop. Exhausting the recirculation
  /// allowance, or a chain's last hop, ends it as RecircLimit (counted as a
  /// drop by the pipe that ran the last pass).
  PassResult run_passes(Phv& phv, int& recirc_passes);
  [[nodiscard]] PacketObservation observe(const Packet& pkt, const Phv& phv,
                                          const PassResult& end, int recirc_passes,
                                          std::uint64_t seq, bool traced) const;
  /// Add one untraced packet to its program's tally for on_batch().
  void tally(const Phv& phv, PacketFate fate, int recirc_passes);
  /// inject_batch()'s packet loop; kObserved = observer attached or
  /// tracing on, so the unobserved loop carries no per-packet check.
  template <bool kObserved>
  void run_batch(std::span<const Packet> pkts, BatchResult& out);

  Parser parser_;
  int max_recirculations_;
  Pipeline* next_hop_ = this;  ///< see set_next_hop()
  std::vector<std::shared_ptr<PipelineStage>> ingress_;
  std::vector<std::shared_ptr<PipelineStage>> egress_;
  Word qdepth_ = 0;

  bool tracing_ = false;
  std::vector<TraceEvent> trace_events_;
  std::vector<PortCounters> ports_;
  std::vector<Packet> cpu_queue_;
  std::size_t cpu_queue_capacity_ = kDefaultCpuQueueCapacity;
  std::uint64_t cpu_queue_drops_ = 0;
  std::map<Word, std::vector<Port>> mcast_groups_;
  std::uint64_t recirc_passes_ = 0;
  std::uint64_t packets_in_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t packets_reported_ = 0;
  StageStats stage_stats_;
  std::uint64_t table_trace_ = 0;       ///< see note_table_update()
  std::uint64_t table_generation_ = 0;  ///< bumped per control write batch
  obs::Telemetry* telemetry_ = nullptr;
  PacketObserver* observer_ = nullptr;
  /// Per-program tallies of the batch in flight, indexed by ProgramId and
  /// all zero between batches; `tallied_` lists the nonzero ones so the
  /// reset touches only those. Both grow only when a new id shows up.
  std::vector<ProgramTally> tallies_;
  std::vector<ProgramId> tallied_;
};

}  // namespace p4runpro::rmt
