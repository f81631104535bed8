#include "netpp/mech/parking.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

namespace netpp {
namespace {

using namespace netpp::literals;

LoadTrace constant_trace(double load, double duration) {
  LoadTrace trace;
  trace.times = {Seconds{0.0}};
  trace.loads = {{load}};
  trace.end = Seconds{duration};
  return trace;
}

/// ML-phase-like trace: idle compute phases with communication bursts.
LoadTrace phase_trace(int iterations, double burst_load) {
  LoadTrace trace;
  for (int k = 0; k < iterations; ++k) {
    trace.times.push_back(Seconds{k * 1.0});        // compute: idle
    trace.loads.push_back({0.0});
    trace.times.push_back(Seconds{k * 1.0 + 0.9});  // comm burst
    trace.loads.push_back({burst_load});
  }
  trace.end = Seconds{static_cast<double>(iterations)};
  return trace;
}

ParkingConfig default_config() {
  ParkingConfig cfg;
  cfg.model = SwitchPowerModel{};
  return cfg;
}

MechanismReport reactive_run(const LoadTrace& trace,
                             const ParkingConfig& cfg) {
  ReactiveParkingPolicy policy{cfg};
  return run_mechanism(trace, policy);
}

MechanismReport predictive_run(const LoadTrace& trace,
                               const std::vector<LoadForecast>& forecast,
                               const ParkingConfig& cfg) {
  PredictiveParkingPolicy policy{cfg, forecast};
  return run_mechanism(trace, policy);
}

struct ResilientRun {
  MechanismReport report;
  std::size_t emergency_wakes = 0;
};

ResilientRun resilient_run(const LoadTrace& trace,
                           const std::vector<EmergencyRecall>& recalls,
                           const ParkingConfig& cfg) {
  ResilientParkingPolicy policy{cfg, recalls};
  MechanismReport report = run_mechanism(policy.with_recalls(trace), policy);
  return ResilientRun{std::move(report), policy.emergency_wakes()};
}

TEST(Parking, IdleTraceParksDownToMinimum) {
  const auto cfg = default_config();
  const auto result = reactive_run(constant_trace(0.0, 10.0), cfg);
  EXPECT_NEAR(result.mean_on_components, 1.0, 0.05);
  EXPECT_GT(result.savings, 0.0);
  EXPECT_DOUBLE_EQ(result.dropped.value(), 0.0);
}

TEST(Parking, FullLoadKeepsEverythingOn) {
  const auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  const auto result = reactive_run(constant_trace(1.0, 10.0), cfg);
  EXPECT_NEAR(result.mean_on_components, pipes, 1e-9);
  // The circuit switch overhead makes it slightly *worse* than all-on.
  EXPECT_LT(result.savings, 0.0);
}

TEST(Parking, ParkingSavesLeakageUnlikeRateAdaptation) {
  // At zero load, parked pipelines save their full share (leakage included),
  // so the floor power is chassis + ports + 1 pipeline + circuit switch.
  const auto cfg = default_config();
  const auto result = reactive_run(constant_trace(0.0, 100.0), cfg);
  const auto& m = cfg.model;
  const double floor = m.chassis_power().value() +
                       0.30 * 750.0 +  // ports
                       m.pipeline_power(PipelineState{true, 1.0, 0.0}).value() +
                       cfg.circuit_switch_power.value();
  EXPECT_NEAR(result.average_power.value(), floor, 1.0);
}

TEST(Parking, ReactiveFollowsBursts) {
  const auto cfg = default_config();
  const auto result = reactive_run(phase_trace(5, 0.9), cfg);
  // Should park during compute and wake for bursts: mean well below max,
  // above min.
  EXPECT_GT(result.mean_on_components, 1.0);
  EXPECT_LT(result.mean_on_components, 4.0);
  EXPECT_GT(result.wake_transitions, 0u);
  EXPECT_GT(result.park_transitions, 0u);
  EXPECT_GT(result.savings, 0.10);
}

TEST(Parking, ReactiveBuffersDuringWake) {
  auto cfg = default_config();
  cfg.wake_latency = Seconds::from_milliseconds(10.0);
  const auto result = reactive_run(phase_trace(3, 0.9), cfg);
  // The burst hits while pipelines are waking: traffic must be buffered.
  EXPECT_GT(result.max_buffered.value(), 0.0);
  EXPECT_GT(result.max_added_delay.value(), 0.0);
}

TEST(Parking, SmallBufferDropsDuringWake) {
  auto cfg = default_config();
  cfg.wake_latency = Seconds::from_milliseconds(50.0);
  cfg.buffer_capacity = Bits::from_bytes(1e3);  // absurdly small
  const auto result = reactive_run(phase_trace(3, 0.9), cfg);
  EXPECT_GT(result.dropped.value(), 0.0);
}

TEST(Parking, PredictivePreWakingAvoidsBuffering) {
  auto cfg = default_config();
  cfg.wake_latency = Seconds::from_milliseconds(10.0);

  const auto trace = phase_trace(5, 0.9);
  // Forecast mirrors the trace exactly (ML predictability).
  std::vector<LoadForecast> forecast;
  for (std::size_t i = 0; i < trace.times.size(); ++i) {
    forecast.push_back(LoadForecast{trace.times[i], trace.loads[i][0]});
  }

  const auto reactive = reactive_run(trace, cfg);
  const auto predictive = predictive_run(trace, forecast, cfg);

  EXPECT_GT(reactive.max_buffered.value(), 0.0);
  EXPECT_NEAR(predictive.max_buffered.value(), 0.0, 1e-6);
  EXPECT_NEAR(predictive.max_added_delay.value(), 0.0, 1e-9);
  // Predictive still saves energy.
  EXPECT_GT(predictive.savings, 0.10);
}

TEST(Parking, PredictiveEnergyCloseToReactive) {
  auto cfg = default_config();
  cfg.wake_latency = Seconds::from_milliseconds(1.0);
  const auto trace = phase_trace(5, 0.9);
  std::vector<LoadForecast> forecast;
  for (std::size_t i = 0; i < trace.times.size(); ++i) {
    forecast.push_back(LoadForecast{trace.times[i], trace.loads[i][0]});
  }
  const auto reactive = reactive_run(trace, cfg);
  const auto predictive = predictive_run(trace, forecast, cfg);
  EXPECT_NEAR(predictive.energy.value(), reactive.energy.value(),
              0.15 * reactive.energy.value());
}

TEST(Parking, ZeroWakeLatencyNeverBuffers) {
  auto cfg = default_config();
  cfg.wake_latency = Seconds{0.0};
  const auto result = reactive_run(phase_trace(4, 0.95), cfg);
  EXPECT_NEAR(result.max_buffered.value(), 0.0, 1e-6);
  EXPECT_DOUBLE_EQ(result.dropped.value(), 0.0);
}

TEST(Parking, MinActiveIsRespected) {
  auto cfg = default_config();
  cfg.min_active = 2;
  const auto result = reactive_run(constant_trace(0.0, 10.0), cfg);
  EXPECT_GE(result.mean_on_components, 2.0 - 1e-9);
}

TEST(Parking, InvalidConfigsThrow) {
  auto cfg = default_config();
  cfg.hi_threshold = 0.5;
  cfg.lo_threshold = 0.6;  // lo >= hi
  EXPECT_THROW((void)reactive_run(constant_trace(0.5, 1.0), cfg),
               std::invalid_argument);
  cfg = default_config();
  cfg.min_active = 0;
  EXPECT_THROW((void)reactive_run(constant_trace(0.5, 1.0), cfg),
               std::invalid_argument);
  cfg = default_config();
  std::vector<LoadForecast> unsorted = {{Seconds{1.0}, 0.5},
                                        {Seconds{0.5}, 0.2}};
  EXPECT_THROW((void)
      predictive_run(constant_trace(0.5, 2.0), unsorted, cfg),
      std::invalid_argument);
}

TEST(Parking, BufferCapacityMustBeNonNegative) {
  // A negative or NaN buffer used to be accepted without an error.
  auto cfg = default_config();
  cfg.buffer_capacity = Bits{-1.0};
  EXPECT_THROW((void)ReactiveParkingPolicy{cfg}, std::invalid_argument);
  cfg.buffer_capacity = Bits{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)ReactiveParkingPolicy{cfg}, std::invalid_argument);
  const std::vector<LoadForecast> forecast = {{Seconds{0.0}, 0.5}};
  EXPECT_THROW((void)predictive_run(constant_trace(0.5, 1.0), forecast, cfg),
               std::invalid_argument);
  cfg.buffer_capacity = Bits{0.0};
  EXPECT_NO_THROW((void)reactive_run(constant_trace(0.5, 1.0), cfg));
}

TEST(Parking, TraceValidation) {
  const auto cfg = default_config();
  LoadTrace empty;
  EXPECT_THROW((void)reactive_run(empty, cfg), std::invalid_argument);
  LoadTrace bad;
  bad.times = {Seconds{0.0}, Seconds{0.0}};
  bad.loads = {{0.1}, {0.2}};
  bad.end = Seconds{1.0};
  EXPECT_THROW((void)reactive_run(bad, cfg), std::invalid_argument);
}

TEST(Parking, TraceValidationRejectsNonFiniteValues) {
  const auto cfg = default_config();
  // NaN slips through plain range comparisons; validate() must catch it.
  LoadTrace nan_load = constant_trace(0.5, 1.0);
  nan_load.loads[0][0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)reactive_run(nan_load, cfg),
               std::invalid_argument);
  LoadTrace inf_time = constant_trace(0.5, 1.0);
  inf_time.times[0] = Seconds{std::numeric_limits<double>::infinity()};
  EXPECT_THROW((void)reactive_run(inf_time, cfg),
               std::invalid_argument);
  LoadTrace nan_end = constant_trace(0.5, 1.0);
  nan_end.end = Seconds{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)reactive_run(nan_end, cfg),
               std::invalid_argument);
}

TEST(Parking, ResilientWithNoRecallsMatchesReactiveExactly) {
  const auto cfg = default_config();
  const auto trace = phase_trace(4, 0.9);
  const auto reactive = reactive_run(trace, cfg);
  const auto [resilient, emergency_wakes] = resilient_run(trace, {}, cfg);
  EXPECT_EQ(resilient.energy.value(), reactive.energy.value());
  EXPECT_EQ(resilient.mean_on_components, reactive.mean_on_components);
  EXPECT_EQ(resilient.wake_transitions, reactive.wake_transitions);
  EXPECT_EQ(resilient.park_transitions, reactive.park_transitions);
  EXPECT_EQ(emergency_wakes, 0u);
}

TEST(Parking, EmergencyRecallWakesEveryPipeline) {
  const auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  // Idle trace: the reactive policy parks down to 1 pipeline; an emergency
  // recall mid-trace must force all of them awake and add the rerouted load.
  const auto trace = constant_trace(0.05, 10.0);
  std::vector<EmergencyRecall> recalls = {
      EmergencyRecall{Seconds{4.0}, Seconds{6.0}, 0.5}};
  const auto [result, emergency_wakes] = resilient_run(trace, recalls, cfg);
  EXPECT_GE(emergency_wakes, static_cast<std::size_t>(pipes - 1));
  // 2 s of 10 s with all pipes on, the rest near 1: mean well above idle.
  const auto baseline = reactive_run(trace, cfg);
  EXPECT_GT(result.mean_on_components, baseline.mean_on_components);
  EXPECT_LT(result.savings, baseline.savings);
}

TEST(Parking, EmergencyRecallValidation) {
  const auto cfg = default_config();
  const auto trace = constant_trace(0.2, 5.0);
  std::vector<EmergencyRecall> inverted = {
      EmergencyRecall{Seconds{2.0}, Seconds{1.0}, 0.1}};
  EXPECT_THROW(
      (void)resilient_run(trace, inverted, cfg),
      std::invalid_argument);
  std::vector<EmergencyRecall> nan_load = {
      EmergencyRecall{Seconds{1.0}, Seconds{2.0},
                      std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW(
      (void)resilient_run(trace, nan_load, cfg),
      std::invalid_argument);
}

TEST(Parking, PoliciesRejectMultiChannelTraces) {
  // Parking reads one switch-aggregate channel; a per-pipeline trace used to
  // run with only channel 0 read (a light channel 0 parked the switch while
  // channel 1 was nearly full).
  LoadTrace four;
  four.times = {Seconds{0.0}};
  four.loads = {{0.1, 0.9, 0.9, 0.9}};
  four.end = Seconds{1.0};
  ReactiveParkingPolicy reactive{default_config()};
  EXPECT_THROW((void)run_mechanism(four, reactive), std::invalid_argument);
  PredictiveParkingPolicy predictive{default_config(), {}};
  EXPECT_THROW((void)run_mechanism(four, predictive), std::invalid_argument);
  ResilientParkingPolicy resilient{default_config(), {}};
  EXPECT_THROW((void)resilient.with_recalls(four), std::invalid_argument);
}

TEST(Parking, ReactivePolicyValidatesThresholds) {
  // A directly built policy checks its thresholds: hi = 0 used to reach the
  // hysteresis step and divide by zero.
  auto cfg = default_config();
  cfg.hi_threshold = 0.0;
  EXPECT_THROW((void)ReactiveParkingPolicy{cfg}, std::invalid_argument);
  EXPECT_THROW((ResilientParkingPolicy{cfg, {}}), std::invalid_argument);
  cfg = default_config();
  cfg.lo_threshold = -0.1;
  EXPECT_THROW((void)ReactiveParkingPolicy{cfg}, std::invalid_argument);
  cfg = default_config();
  cfg.wake_latency = Seconds{-1.0};
  EXPECT_THROW((void)ReactiveParkingPolicy{cfg}, std::invalid_argument);
  // NaN slips through plain range comparisons: a NaN wake latency left
  // woken pipelines waking forever.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  cfg = default_config();
  cfg.wake_latency = Seconds{nan};
  EXPECT_THROW((void)ReactiveParkingPolicy{cfg}, std::invalid_argument);
  cfg = default_config();
  cfg.hi_threshold = nan;
  EXPECT_THROW((void)ReactiveParkingPolicy{cfg}, std::invalid_argument);
}

TEST(Parking, PredictivePolicyIgnoresThresholdsItDoesNotRead) {
  // Predictive parking reads only hi_threshold (floored at 1e-9), so a
  // threshold pair reactive parking rejects stays accepted.
  auto cfg = default_config();
  cfg.hi_threshold = 0.0;
  cfg.lo_threshold = 0.6;
  const std::vector<LoadForecast> forecast = {{Seconds{0.0}, 0.5}};
  EXPECT_NO_THROW(
      (void)predictive_run(constant_trace(0.5, 1.0), forecast, cfg));
  cfg.min_active = 0;
  EXPECT_THROW((void)predictive_run(constant_trace(0.5, 1.0), forecast, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace netpp
