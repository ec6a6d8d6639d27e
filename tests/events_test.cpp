// Controller audit-log tests: every lifecycle operation leaves a timestamped
// event, failures included; the log is bounded.
#include <gtest/gtest.h>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"

namespace p4runpro {
namespace {

TEST(Events, LifecycleIsAudited) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);

  apps::ProgramConfig config;
  config.instance_name = "cache";
  auto linked = controller.link_single(apps::make_program_source("cache", config));
  ASSERT_TRUE(linked.ok());
  auto relinked =
      controller.relink(linked.value().id, apps::make_program_source("cache", config));
  ASSERT_TRUE(relinked.ok());
  ASSERT_TRUE(controller.revoke(relinked.value().id).ok());
  // A failed link is audited too.
  ASSERT_FALSE(controller.link_single("program broken { NOPE; }").ok());

  const auto& events = controller.events();
  // link, relink(+revoke of the old version), revoke, link-failed.
  ASSERT_GE(events.size(), 5u);
  EXPECT_EQ(events[0].kind, ctrl::ControlEvent::Kind::Link);
  EXPECT_EQ(events[0].name, "cache");
  EXPECT_EQ(events[1].kind, ctrl::ControlEvent::Kind::Relink);
  EXPECT_EQ(events[2].kind, ctrl::ControlEvent::Kind::Revoke);  // old version
  EXPECT_EQ(events[3].kind, ctrl::ControlEvent::Kind::Revoke);  // explicit revoke
  EXPECT_EQ(events.back().kind, ctrl::ControlEvent::Kind::LinkFailed);
  EXPECT_FALSE(events.back().detail.empty());

  // Timestamps are monotone virtual time.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t_ms, events[i - 1].t_ms);
  }
}

TEST(Events, RelinkEarlyFailuresAreAudited) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);

  apps::ProgramConfig config;
  config.instance_name = "cache";
  auto linked = controller.link_single(apps::make_program_source("cache", config));
  ASSERT_TRUE(linked.ok());
  const ProgramId id = linked.value().id;

  // A source that does not compile is audited like a failed link.
  auto broken = controller.relink(id, "program broken { NOPE; }");
  ASSERT_FALSE(broken.ok());
  auto events = controller.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.back().kind, ctrl::ControlEvent::Kind::LinkFailed);
  EXPECT_EQ(events.back().name, "<compile>");
  EXPECT_EQ(events.back().detail, broken.error().str());

  // So is a unit holding more than one program (one memory declaration
  // heads the unit; the second program reuses it).
  std::string unit = apps::make_program_source("cache", config);
  const std::size_t program_at = unit.find("program cache");
  ASSERT_NE(program_at, std::string::npos);
  std::string second = unit.substr(program_at);
  second.replace(0, std::string("program cache").size(), "program other");
  auto two = controller.relink(id, unit + "\n" + second);
  ASSERT_FALSE(two.ok());
  EXPECT_EQ(two.error().code, ErrorCode::InvalidArgument);
  events = controller.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.back().kind, ctrl::ControlEvent::Kind::LinkFailed);
  EXPECT_NE(events.back().detail.find("[InvalidArgument]"), std::string::npos);

  // Neither touched the running version.
  EXPECT_EQ(controller.running_programs(), std::vector<ProgramId>{id});
}

TEST(Events, LogIsBounded) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);
  apps::ProgramConfig config;
  config.instance_name = "l3";
  const std::string source = apps::make_program_source("l3", config);
  for (int i = 0; i < 600; ++i) {
    auto linked = controller.link_single(source);
    ASSERT_TRUE(linked.ok());
    ASSERT_TRUE(controller.revoke(linked.value().id).ok());
  }
  EXPECT_LE(controller.events().size(), 1024u);
}

}  // namespace
}  // namespace p4runpro
