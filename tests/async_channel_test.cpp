// Async control channel: the per-engine writer thread must reproduce the
// serial channel's virtual-time charges and dataplane state byte-for-byte
// on clean runs, coalesce adjacent same-kind batches into one submission
// (skipping the per-batch sync overhead), surface its queue depth and the
// session-lock hold time in the metrics registry / report / time-series
// store, and stamp retrospectively recorded bfrt spans with the trace id
// captured at submit time. (The fault-path guarantees live in the
// DeployTxn/ChainFaultMatrix async sweeps; the TSan stress lives in
// concurrent_link_test.cpp.)
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/result.h"
#include "control/controller.h"
#include "control/inspect.h"
#include "control/lock_hold.h"
#include "control/resource_manager.h"
#include "control/update_engine.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/write_op.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace p4runpro {
namespace {

std::string cache_source() {
  apps::ProgramConfig config;
  config.instance_name = "cache";
  config.mem_buckets = 64;
  return apps::make_program_source("cache", config);
}

std::string hh_source() {
  apps::ProgramConfig config;
  config.instance_name = "hh";
  config.mem_buckets = 64;
  return apps::make_program_source("hh", config);
}

std::string lb_source() {
  apps::ProgramConfig config;
  config.instance_name = "lb";
  return apps::make_program_source("lb", config);
}

/// One bfrt.* span as both channel modes must record it: name, args minus
/// the async-only "coalesced" mark, virtual window and trace id.
struct BfrtSpan {
  std::string name;
  std::vector<std::pair<std::string, std::string>> args;
  SimClock::Nanos start_vns = 0;
  SimClock::Nanos end_vns = 0;
  std::uint64_t trace = 0;

  friend bool operator==(const BfrtSpan&, const BfrtSpan&) = default;
};

std::vector<BfrtSpan> bfrt_spans(const obs::SpanTracer& tracer) {
  std::vector<BfrtSpan> out;
  for (const auto& span : tracer.spans()) {
    if (span.cat != "bfrt") continue;
    BfrtSpan record{span.name, {}, span.start_vns, span.end_vns, span.trace};
    for (const auto& arg : span.args) {
      if (arg.first != "coalesced") record.args.push_back(arg);
    }
    out.push_back(std::move(record));
  }
  return out;
}

struct Bed {
  SimClock clock;
  obs::Telemetry telemetry;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}};
  ctrl::Controller controller{dataplane, clock, {}, {}, &telemetry};

  Bed() { controller.set_fixed_alloc_charge_ms(3.0); }
};

/// Full physical dataplane state, for serial-vs-async parity checks.
struct PlaneState {
  std::vector<std::size_t> table_sizes;
  std::vector<std::vector<Word>> memory;
  std::size_t recirc_entries = 0;

  friend bool operator==(const PlaneState&, const PlaneState&) = default;
};

PlaneState plane_state(dp::RunproDataplane& dataplane) {
  PlaneState state;
  for (int rpb = 1; rpb <= dataplane.spec().total_rpbs(); ++rpb) {
    state.table_sizes.push_back(dataplane.rpb(rpb).table().size());
    std::vector<Word> words;
    words.reserve(dataplane.spec().memory_per_rpb);
    for (std::uint32_t a = 0; a < dataplane.spec().memory_per_rpb; ++a) {
      words.push_back(dataplane.rpb(rpb).memory().read(a));
    }
    state.memory.push_back(std::move(words));
  }
  state.recirc_entries = dataplane.recirc_block().entries();
  return state;
}

TEST(AsyncChannel, CleanRunsMatchSerialVirtualTimeAndState) {
  // Same workload, two channel modes: normal install layouts never split a
  // charged batch group, so the async channel's charge sequence — and with
  // it the deployment's virtual-time cost — is byte-identical to serial.
  Bed serial;
  Bed async;
  async.controller.set_async_writes(true);
  ASSERT_TRUE(async.controller.async_writes());

  auto s1 = serial.controller.link_single(cache_source());
  auto a1 = async.controller.link_single(cache_source());
  ASSERT_TRUE(s1.ok()) << s1.error().str();
  ASSERT_TRUE(a1.ok()) << a1.error().str();
  EXPECT_DOUBLE_EQ(s1.value().stats.update_ms, a1.value().stats.update_ms);
  EXPECT_DOUBLE_EQ(s1.value().stats.deploy_ms(), a1.value().stats.deploy_ms());

  auto s2 = serial.controller.link_single(hh_source());
  auto a2 = async.controller.link_single(hh_source());
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_DOUBLE_EQ(s2.value().stats.update_ms, a2.value().stats.update_ms);

  EXPECT_EQ(serial.clock.now_ns(), async.clock.now_ns());
  EXPECT_TRUE(plane_state(serial.dataplane) == plane_state(async.dataplane));

  // Revoke (memory reset + deferred frees) keeps parity.
  ASSERT_TRUE(serial.controller.revoke(s2.value().id).ok());
  ASSERT_TRUE(async.controller.revoke(a2.value().id).ok());
  EXPECT_EQ(serial.clock.now_ns(), async.clock.now_ns());
  EXPECT_TRUE(plane_state(serial.dataplane) == plane_state(async.dataplane));
  EXPECT_EQ(serial.controller.resources().total_memory_utilization(),
            async.controller.resources().total_memory_utilization());

  // Link, relink (carry-over writes) and revoke both: the two modes record
  // the same bfrt.* span stream and the same write counters.
  auto s3 = serial.controller.link_single(lb_source());
  auto a3 = async.controller.link_single(lb_source());
  ASSERT_TRUE(s3.ok()) << s3.error().str();
  ASSERT_TRUE(a3.ok()) << a3.error().str();
  auto s4 = serial.controller.relink(s1.value().id, cache_source());
  auto a4 = async.controller.relink(a1.value().id, cache_source());
  ASSERT_TRUE(s4.ok()) << s4.error().str();
  ASSERT_TRUE(a4.ok()) << a4.error().str();
  ASSERT_TRUE(serial.controller.revoke(s4.value().id).ok());
  ASSERT_TRUE(async.controller.revoke(a4.value().id).ok());
  ASSERT_TRUE(serial.controller.revoke(s3.value().id).ok());
  ASSERT_TRUE(async.controller.revoke(a3.value().id).ok());
  EXPECT_EQ(serial.clock.now_ns(), async.clock.now_ns());
  EXPECT_TRUE(plane_state(serial.dataplane) == plane_state(async.dataplane));

  const auto serial_spans = bfrt_spans(serial.telemetry.tracer);
  const auto async_spans = bfrt_spans(async.telemetry.tracer);
  EXPECT_GT(serial_spans.size(), 0u);
  ASSERT_EQ(serial_spans.size(), async_spans.size());
  for (std::size_t i = 0; i < serial_spans.size(); ++i) {
    EXPECT_TRUE(serial_spans[i] == async_spans[i])
        << "span " << i << ": " << serial_spans[i].name << " vs "
        << async_spans[i].name;
  }
  for (const char* name :
       {"ctrl.bfrt.batches", "ctrl.bfrt.entry_writes", "ctrl.bfrt.mem_resets"}) {
    EXPECT_EQ(serial.telemetry.metrics.counter(name).value(),
              async.telemetry.metrics.counter(name).value())
        << name;
  }
}

TEST(AsyncChannel, CoalescesAdjacentSameKindBatchesOnTheChannel) {
  // A hand-built op-log that splits one charged kind around an uncharged
  // carry-over write: [AddRecirc][WriteMemRange][AddRecirc]. The serial
  // channel pays the per-batch sync twice; the async channel folds the
  // trailing group into the predecessor's submission (same kind, no idle
  // gap) and skips one 500 us overhead — state stays identical.
  auto make_batch = [] {
    dp::WriteBatch batch;
    batch.add_recirc(1, 2);
    batch.write_mem_range(1, 0, std::vector<Word>{11, 22, 33}, "m1");
    batch.add_recirc(2, 2);
    return batch;
  };

  SimClock serial_clock;
  obs::Telemetry serial_telemetry;
  dp::RunproDataplane serial_plane{dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}};
  ctrl::ResourceManager serial_resources{serial_plane.spec()};
  ctrl::UpdateEngine serial_engine{serial_plane, serial_resources, serial_clock,
                                   ctrl::BfrtCostModel{}};
  serial_engine.set_telemetry(&serial_telemetry);
  const auto serial_batch = make_batch();
  ASSERT_TRUE(serial_engine.execute_install(serial_batch).ok());
  const double serial_ms = serial_clock.now_ms();

  SimClock async_clock;
  obs::Telemetry async_telemetry;
  dp::RunproDataplane async_plane{dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}};
  ctrl::ResourceManager async_resources{async_plane.spec()};
  ctrl::UpdateEngine async_engine{async_plane, async_resources, async_clock,
                                  ctrl::BfrtCostModel{}};
  async_engine.set_telemetry(&async_telemetry);
  async_engine.set_async(true);
  const auto async_batch = make_batch();
  ASSERT_TRUE(async_engine.execute_install(async_batch).ok());
  const double async_ms = async_clock.now_ms();

  // Two batches of one entry each: serial = 2 x (500 + 500) us; coalesced
  // = (500 + 500) + 500 us. Exactly one per-batch overhead amortized away.
  EXPECT_DOUBLE_EQ(serial_ms, 2.0);
  EXPECT_DOUBLE_EQ(async_ms, 1.5);
  EXPECT_TRUE(plane_state(serial_plane) == plane_state(async_plane));

  EXPECT_EQ(
      async_telemetry.metrics.counter("ctrl.bfrt.coalesced_batches").value(), 1u);
  EXPECT_EQ(async_telemetry.metrics.counter("ctrl.bfrt.batches").value(), 2u);
  EXPECT_EQ(serial_telemetry.metrics.find_counter("ctrl.bfrt.coalesced_batches"),
            nullptr);

  // The replayed spans mark the coalesced submission.
  int batch_spans = 0;
  int coalesced_spans = 0;
  for (const auto& span : async_telemetry.tracer.spans()) {
    if (span.name != "bfrt.batch") continue;
    ++batch_spans;
    for (const auto& [key, value] : span.args) {
      if (key == "coalesced" && value == "1") ++coalesced_spans;
    }
  }
  EXPECT_EQ(batch_spans, 2);
  EXPECT_EQ(coalesced_spans, 1);
}

TEST(AsyncChannel, LockHoldAndQueueDepthSurfaceInReportAndSeries) {
  Bed bed;
  bed.controller.set_async_writes(true);
  ASSERT_TRUE(bed.controller.link_single(cache_source()).ok());

  // Both session-lock occupancy and the channel's queue depth are live
  // registry citizens...
  const auto& metrics = bed.telemetry.metrics;
  const auto* hold = metrics.find_histogram("ctrl.commit.lock_hold_ms");
  ASSERT_NE(hold, nullptr);
  EXPECT_GT(hold->count(), 0u);
  EXPECT_GT(hold->sum(), 0.0);

  const std::string report = ctrl::telemetry_report(bed.telemetry);
  EXPECT_NE(report.find("ctrl.commit.lock_hold_ms"), std::string::npos);
  EXPECT_NE(report.find("ctrl.channel.queue_depth"), std::string::npos);

  // ...and land in the time-series store on the next sampling tick.
  bed.telemetry.series.sample(bed.telemetry.metrics, bed.clock.now_ns());
  EXPECT_NE(bed.telemetry.series.series("ctrl.channel.queue_depth"), nullptr);
  EXPECT_NE(bed.telemetry.series.series("ctrl.commit.lock_hold_ms.p50"), nullptr);
}

TEST(AsyncChannel, LockHoldSumsHeldIntervalsInIntegerNanoseconds) {
  // 100 us held, 5 ms parked off-lock, 200 us held again, starting late on
  // the clock: a sum of millisecond differences would read
  // 0.3000000000001819 here, the nanosecond sum reads exactly 0.3.
  SimClock clock;
  obs::Telemetry telemetry;
  clock.advance_ns(1'234'567'891);
  {
    ctrl::LockHoldTimer hold(clock, &telemetry);
    clock.advance_ns(100'000);
    hold.pause();
    clock.advance_ns(5'000'000);
    hold.resume();
    clock.advance_ns(200'000);
  }
  const auto* observed = telemetry.metrics.find_histogram("ctrl.commit.lock_hold_ms");
  ASSERT_NE(observed, nullptr);
  ASSERT_EQ(observed->count(), 1u);
  EXPECT_EQ(observed->sum(), 0.3);
}

TEST(AsyncChannel, ReplayedBfrtSpansCarryTheSubmitTimeTraceId) {
  Bed bed;
  bed.controller.set_async_writes(true);
  auto linked = bed.controller.link_single(cache_source());
  ASSERT_TRUE(linked.ok());
  ASSERT_NE(linked.value().trace, 0u);

  // The writer runs outside any trace scope; the spans it replays at settle
  // time must still carry the link operation's trace id, closed and
  // charge-accurate in virtual time.
  int bfrt_spans = 0;
  for (const auto& span : bed.telemetry.tracer.spans()) {
    if (span.cat != "bfrt") continue;
    ++bfrt_spans;
    EXPECT_EQ(span.trace, linked.value().trace) << span.name;
    EXPECT_FALSE(span.open);
    EXPECT_GT(span.end_vns, span.start_vns);
  }
  EXPECT_GT(bfrt_spans, 0);
}

TEST(AsyncChannel, TogglingTheChannelDrainsAndRestoresSerialBehaviour) {
  Bed bed;
  bed.controller.set_async_writes(true);
  ASSERT_TRUE(bed.controller.link_single(cache_source()).ok());
  bed.controller.set_async_writes(false);
  EXPECT_FALSE(bed.controller.async_writes());

  // Back in serial mode the next deploy runs inline — and the drained
  // channel left a zeroed queue-depth gauge behind.
  auto linked = bed.controller.link_single(hh_source());
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  for (const auto& [name, value] : bed.telemetry.metrics.sampled_gauges()) {
    if (name == "ctrl.channel.queue_depth") {
      EXPECT_EQ(value, 0.0);
    }
  }
  EXPECT_EQ(bed.controller.program_count(), 2u);
}

}  // namespace
}  // namespace p4runpro
