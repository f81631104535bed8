// Unit tests for the unified power-state timeline: transition semantics
// (wake latency, cancelable wakes, min-dwell, hysteresis) and the shared
// energy/residency/level integrator every §4 mechanism now runs on.
#include "netpp/power/state_timeline.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace netpp {
namespace {

TEST(StateTimeline, ConstructorValidates) {
  EXPECT_THROW(PowerStateTimeline(0, TransitionRules{}), std::invalid_argument);
  EXPECT_THROW(PowerStateTimeline(2, TransitionRules{Seconds{-1.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      PowerStateTimeline(2, TransitionRules{Seconds{0.0}, Seconds{-1.0}}),
      std::invalid_argument);
  EXPECT_THROW(
      PowerStateTimeline(2, TransitionRules{Seconds{0.0}, Seconds{0.0}, -0.1}),
      std::invalid_argument);
}

TEST(StateTimeline, ConstructorRejectsNaNRules) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(PowerStateTimeline(2, TransitionRules{Seconds{nan}}),
               std::invalid_argument);
  EXPECT_THROW(
      PowerStateTimeline(2, TransitionRules{Seconds{0.0}, Seconds{nan}}),
      std::invalid_argument);
  EXPECT_THROW(
      PowerStateTimeline(2, TransitionRules{Seconds{0.0}, Seconds{0.0}, nan}),
      std::invalid_argument);
}

TEST(StateTimeline, StartsFullyOnAtNominalLevel) {
  const PowerStateTimeline timeline{3, TransitionRules{}};
  EXPECT_EQ(timeline.count(PowerState::kOn), 3);
  EXPECT_EQ(timeline.provisioned(), 3);
  EXPECT_DOUBLE_EQ(timeline.track(0).level, 1.0);
  EXPECT_EQ(timeline.transitions(), 0u);
}

TEST(StateTimeline, WakePassesThroughWakingState) {
  PowerStateTimeline timeline{2, TransitionRules{Seconds{0.5}}};
  timeline.request_off(1);
  EXPECT_EQ(timeline.count(PowerState::kOff), 1);
  EXPECT_EQ(timeline.park_transitions(), 1u);

  timeline.advance_to(Seconds{1.0});
  timeline.request_on(1);
  EXPECT_EQ(timeline.track(1).state, PowerState::kWaking);
  EXPECT_EQ(timeline.provisioned(), 2);
  EXPECT_EQ(timeline.count(PowerState::kOn), 1);
  EXPECT_DOUBLE_EQ(timeline.next_event(), 1.5);

  timeline.advance_to(Seconds{1.5});
  EXPECT_EQ(timeline.track(1).state, PowerState::kOn);
  EXPECT_EQ(timeline.wake_transitions(), 1u);
}

TEST(StateTimeline, ZeroLatencyWakesImmediately) {
  PowerStateTimeline timeline{2, TransitionRules{}};
  timeline.request_off(0);
  timeline.request_on(0);
  EXPECT_EQ(timeline.track(0).state, PowerState::kOn);
  EXPECT_EQ(timeline.wake_transitions(), 1u);
}

TEST(StateTimeline, RequestOnIsIdempotentWhileOnOrWaking) {
  PowerStateTimeline timeline{1, TransitionRules{Seconds{0.5}}};
  timeline.request_on(0);  // already on
  EXPECT_EQ(timeline.wake_transitions(), 0u);
  timeline.request_off(0);
  timeline.request_on(0);
  timeline.request_on(0);  // already waking
  EXPECT_EQ(timeline.wake_transitions(), 1u);
}

TEST(StateTimeline, CancelLastWakeNeverHappened) {
  PowerStateTimeline timeline{3, TransitionRules{Seconds{0.5}}};
  timeline.request_off(1);
  timeline.request_off(2);
  timeline.request_on(1);
  timeline.request_on(2);
  EXPECT_EQ(timeline.wake_transitions(), 2u);

  // Cancels the most recent wake (component 2), restoring kOff.
  EXPECT_TRUE(timeline.cancel_last_wake());
  EXPECT_EQ(timeline.track(2).state, PowerState::kOff);
  EXPECT_EQ(timeline.track(1).state, PowerState::kWaking);
  EXPECT_EQ(timeline.wake_transitions(), 1u);

  EXPECT_TRUE(timeline.cancel_last_wake());
  EXPECT_FALSE(timeline.cancel_last_wake());
  EXPECT_EQ(timeline.wake_transitions(), 0u);
}

TEST(StateTimeline, ParkingAWakingComponentThrows) {
  PowerStateTimeline timeline{1, TransitionRules{Seconds{0.5}}};
  timeline.request_off(0);
  timeline.request_on(0);
  EXPECT_THROW(timeline.request_off(0), std::logic_error);
}

TEST(StateTimeline, WakeOneAndParkOnePickEnds) {
  PowerStateTimeline timeline{3, TransitionRules{}};
  // park_one parks the highest-index powered component...
  EXPECT_EQ(timeline.park_one(), 2);
  EXPECT_EQ(timeline.park_one(), 1);
  // ...and wake_one wakes the lowest-index parked one.
  EXPECT_EQ(timeline.wake_one(), 1);
  EXPECT_EQ(timeline.wake_one(), 2);
  EXPECT_EQ(timeline.wake_one(), -1);  // none parked
}

TEST(StateTimeline, UpwardLevelMovesAlwaysApply) {
  PowerStateTimeline timeline{1,
                              TransitionRules{Seconds{0.0}, Seconds{10.0}, 0.2}};
  timeline.set_level(0, 0.5);
  EXPECT_EQ(timeline.level_transitions(), 0u);  // set_level is not counted
  // Upward: applies despite dwell and hysteresis.
  EXPECT_TRUE(timeline.request_level(0, 0.6));
  EXPECT_EQ(timeline.level_transitions(), 1u);
}

TEST(StateTimeline, DownwardLevelMovesHonorHysteresis) {
  PowerStateTimeline timeline{1, TransitionRules{Seconds{0.0}, Seconds{0.0}, 0.1}};
  // Inside the band: ignored.
  EXPECT_FALSE(timeline.request_level(0, 0.95));
  EXPECT_DOUBLE_EQ(timeline.track(0).level, 1.0);
  // Beyond the band: applied.
  EXPECT_TRUE(timeline.request_level(0, 0.5));
  EXPECT_DOUBLE_EQ(timeline.track(0).level, 0.5);
}

TEST(StateTimeline, DownwardLevelMovesHonorDwell) {
  PowerStateTimeline timeline{1,
                              TransitionRules{Seconds{0.0}, Seconds{5.0}, 0.0}};
  // Anchor starts at t=0; the lower level has not been sufficient yet.
  EXPECT_FALSE(timeline.request_level(0, 0.5));
  timeline.advance_to(Seconds{4.0});
  EXPECT_FALSE(timeline.request_level(0, 0.5));
  timeline.advance_to(Seconds{5.0});
  EXPECT_TRUE(timeline.request_level(0, 0.5));

  // An equal request refreshes the anchor, restarting the dwell clock.
  timeline.advance_to(Seconds{8.0});
  EXPECT_FALSE(timeline.request_level(0, 0.25));
  timeline.advance_to(Seconds{9.0});
  EXPECT_FALSE(timeline.request_level(0, 0.5));  // equal -> refresh
  timeline.advance_to(Seconds{13.0});
  EXPECT_FALSE(timeline.request_level(0, 0.25));  // only 4 s since refresh
  timeline.advance_to(Seconds{14.0});
  EXPECT_TRUE(timeline.request_level(0, 0.25));
}

TEST(StateTimeline, IntegratesEnergyResidencyAndLevel) {
  PowerStateTimeline timeline{2, TransitionRules{}};
  timeline.set_power_model(
      [](std::span<const ComponentTrack> tracks) {
        double watts = 0.0;
        for (const auto& track : tracks) {
          watts += track.state == PowerState::kOn ? 10.0 : 0.0;
        }
        return Watts{watts};
      },
      [](std::span<const ComponentTrack> tracks) {
        return Watts{20.0 * static_cast<double>(tracks.size())};
      });

  timeline.advance_to(Seconds{1.0});  // both on: 20 W actual, 40 W baseline
  timeline.request_off(1);
  timeline.advance_to(Seconds{3.0});  // one on: 10 W actual

  EXPECT_DOUBLE_EQ(timeline.energy().value(), 20.0 + 2.0 * 10.0);
  EXPECT_DOUBLE_EQ(timeline.baseline_energy().value(), 3.0 * 40.0);
  EXPECT_DOUBLE_EQ(timeline.residency(PowerState::kOn).value(),
                   2.0 * 1.0 + 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(timeline.residency(PowerState::kOff).value(), 2.0);
  // Levels stayed at 1.0 throughout: the mean-level integral is the elapsed
  // time.
  EXPECT_DOUBLE_EQ(timeline.mean_level_time(), 3.0);
  EXPECT_EQ(timeline.now().value(), 3.0);
}

TEST(StateTimeline, AdvanceBackwardsThrows) {
  PowerStateTimeline timeline{1, TransitionRules{}};
  timeline.advance_to(Seconds{2.0});
  EXPECT_THROW(timeline.advance_to(Seconds{1.0}), std::invalid_argument);
}

TEST(StateTimeline, StartsAtConfiguredTime) {
  PowerStateTimeline timeline{1, TransitionRules{Seconds{0.5}}, Seconds{10.0}};
  EXPECT_DOUBLE_EQ(timeline.now().value(), 10.0);
  timeline.request_off(0);
  timeline.request_on(0);
  EXPECT_DOUBLE_EQ(timeline.next_event(), 10.5);
}

}  // namespace
}  // namespace netpp
