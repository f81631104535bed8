// §4.4 "Dynamic Opt. #2: Turning off Pipelines".
//
// A circuit switch (electrical, with small buffers) sits between the
// physical ports and the ASIC pipelines, decoupling the fixed port->pipeline
// mapping. Traffic can then be concentrated onto a subset of pipelines and
// the rest powered off entirely — killing their leakage, which rate
// adaptation cannot (§4.3 keeps most components powered).
//
// Each policy consumes a one-channel LoadTrace (aggregate offered load as a
// fraction of the whole switch's capacity) through `run_mechanism`:
//
//   - Reactive: keep enough pipelines on so that the load fits under a
//     target utilization; hysteresis thresholds avoid flapping. Waking a
//     pipeline takes `wake_latency`; while capacity is short, the excess is
//     buffered in the circuit switch (bounded buffer -> possible loss) and
//     drained once capacity returns.
//   - Predictive (the paper: "leverage the predictability of ML training
//     workloads"): a known schedule of (time, required pipelines) is
//     followed, pre-waking `wake_latency` early so capacity is ready when
//     the burst starts.
//   - Resilient: reactive, except that fault-driven recall windows force
//     every pipeline awake and add the rerouted load to the trace.
//
// Energy accounts the powered pipelines (at their served load), the chassis
// and ports (always on), and the circuit switch's own overhead — the
// "is the addition worth it?" question of §4.4.
#pragma once

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "netpp/mech/load_trace.h"
#include "netpp/mech/mechanism.h"
#include "netpp/power/switch_model.h"
#include "netpp/units.h"

namespace netpp {

struct ParkingConfig {
  SwitchPowerModel model{};
  /// Extra power drawn by the circuit switch / indirection layer.
  Watts circuit_switch_power{20.0};
  /// Time to power a parked pipeline back on.
  Seconds wake_latency{Seconds::from_milliseconds(1.0)};
  /// Reactive policy: wake another pipeline when load exceeds
  /// `hi_threshold` of the active capacity; park one when load falls below
  /// `lo_threshold` of what the remaining pipelines could carry.
  double hi_threshold = 0.85;
  double lo_threshold = 0.60;
  int min_active = 1;
  /// Circuit-switch buffer absorbing excess while pipelines wake.
  Bits buffer_capacity{Bits::from_bytes(64e6)};
  /// Switch nominal capacity (to convert load fractions to bits).
  Gbps switch_capacity{Gbps::from_tbps(51.2)};
};

/// One entry of a predictive schedule: from `at`, the workload needs
/// `required_load` (fraction of switch capacity).
struct LoadForecast {
  Seconds at{};
  double required_load = 0.0;
};

/// A fault-driven recall window: from `at` until `until`, traffic rerouted
/// around failed hardware adds `extra_load` (fraction of switch capacity,
/// clamped so the total stays <= 1) and every parked pipeline is recalled so
/// parked capacity cannot amplify the failure.
struct EmergencyRecall {
  Seconds at{};
  Seconds until{};
  double extra_load = 0.0;
};

/// Throws std::invalid_argument unless `min_active` is in
/// [1, num_pipelines] and `wake_latency` and `buffer_capacity` are
/// non-negative; with `thresholds` (policies that read both hysteresis
/// thresholds), also unless 0 <= lo_threshold < hi_threshold <= 1. NaN fails
/// every check.
void validate(const ParkingConfig& config, bool thresholds);

namespace detail {

/// Reactive hysteresis step shared by every parking policy and the
/// composite stack: wake when the load exceeds `hi` of the provisioned
/// capacity; park when it would fit under `lo` of one fewer component.
[[nodiscard]] int reactive_parking_target(double hi, double lo,
                                          int components, double offered,
                                          int provisioned);

/// Steers `timeline` to `target(provisioned)` (clamped into
/// [min_active, components]) until the target equals the provisioned count,
/// so that one-step-per-decision policies converge within one breakpoint.
/// Growing wakes components; shrinking cancels pending wakes first, then
/// parks powered components (never below `min_active`).
template <class Target>
void steer_parking(PowerStateTimeline& timeline, int min_active,
                   int components, Target target) {
  for (int guard = 0; guard <= components; ++guard) {
    const int provisioned = timeline.provisioned();
    const int want =
        std::clamp(target(provisioned), min_active, components);
    if (want == provisioned) break;
    if (want > provisioned) {
      for (int k = provisioned; k < want; ++k) timeline.wake_one();
    } else {
      int excess = provisioned - want;
      while (excess > 0 && timeline.cancel_last_wake()) --excess;
      while (excess > 0 && timeline.count(PowerState::kOn) > min_active) {
        timeline.park_one();
        --excess;
      }
    }
  }
}

}  // namespace detail

/// Pipeline parking as a MechanismPolicy (§4.4): a subclass supplies the
/// desired pipeline count per decision point; the base emits wake/park
/// transitions onto the timeline (canceling pending wakes before parking),
/// prices powered/waking/parked pipelines plus the circuit switch, and
/// opts in to run_mechanism's capacity-shortfall buffering. The trace must
/// have one channel (the switch-aggregate load).
class ParkingPolicy : public MechanismPolicy {
 public:
  [[nodiscard]] PowerStateTimeline make_timeline(
      const LoadTrace& trace) override;
  void observe(const LoadSegment& seg, PowerStateTimeline& timeline) override;
  [[nodiscard]] bool models_buffering() const override { return true; }
  [[nodiscard]] double capacity_fraction(
      const PowerStateTimeline& timeline) const override;
  [[nodiscard]] Bits buffer_capacity() const override {
    return config_.buffer_capacity;
  }
  [[nodiscard]] double nominal_capacity_bps() const override {
    return config_.switch_capacity.bits_per_second();
  }

  [[nodiscard]] const ParkingConfig& config() const { return config_; }

 protected:
  /// Validates `config` (the hysteresis thresholds only when
  /// `reads_thresholds`).
  ParkingPolicy(ParkingConfig config, bool reads_thresholds);

  /// Desired pipeline count at decision time `t` for the aggregate
  /// `offered` load, given the currently provisioned (on + waking) count.
  /// Clamped into [min_active, num_pipelines] by the base.
  [[nodiscard]] virtual int desired_count(double t, double offered,
                                          int provisioned) = 0;

  ParkingConfig config_;
  int pipes_ = 0;

 private:
  std::vector<PortState> ports_;
  double offered_ = 0.0;  ///< current segment load, for the power functions
};

/// Reactive hysteresis-threshold policy (wake over hi, park under lo).
class ReactiveParkingPolicy : public ParkingPolicy {
 public:
  explicit ReactiveParkingPolicy(ParkingConfig config)
      : ParkingPolicy(std::move(config), true) {}
  [[nodiscard]] std::string_view name() const override {
    return "parking-reactive";
  }

 protected:
  [[nodiscard]] int desired_count(double t, double offered,
                                  int provisioned) override;
};

/// Predictive policy: follows a (sorted) load forecast, pre-waking
/// `wake_latency` before each capacity increase. Forecast command times are
/// the policy's breakpoints.
class PredictiveParkingPolicy : public ParkingPolicy {
 public:
  PredictiveParkingPolicy(ParkingConfig config,
                          std::vector<LoadForecast> forecast);
  [[nodiscard]] std::string_view name() const override {
    return "parking-predictive";
  }
  [[nodiscard]] PowerStateTimeline make_timeline(
      const LoadTrace& trace) override;
  [[nodiscard]] double next_breakpoint(double t) const override;

 protected:
  [[nodiscard]] int desired_count(double t, double offered,
                                  int provisioned) override;

 private:
  struct Command {
    double at;
    int count;
  };
  std::vector<LoadForecast> forecast_;
  std::vector<Command> commands_;
};

/// Reactive policy with fault-driven emergency recalls: inside each recall
/// window every pipeline is forced awake; outside the windows it behaves
/// exactly like ReactiveParkingPolicy. Run it on `with_recalls(trace)`, which
/// adds the windows' rerouted load; `emergency_wakes()` then counts the
/// pipelines the windows forced awake.
class ResilientParkingPolicy : public ReactiveParkingPolicy {
 public:
  /// Throws std::invalid_argument unless every window is finite with
  /// until > at and a finite extra_load >= 0.
  ResilientParkingPolicy(ParkingConfig config,
                         std::vector<EmergencyRecall> recalls);

  [[nodiscard]] std::string_view name() const override {
    return "parking-reactive-resilient";
  }

  /// `trace` (one channel) with segment boundaries added at the window
  /// edges and each window's extra_load added inside it, clamped to 1.
  /// Without recalls the trace is returned unchanged.
  [[nodiscard]] LoadTrace with_recalls(const LoadTrace& trace) const;

  [[nodiscard]] std::size_t emergency_wakes() const { return emergency_; }

 protected:
  [[nodiscard]] int desired_count(double t, double offered,
                                  int provisioned) override;

 private:
  std::vector<EmergencyRecall> recalls_;
  std::size_t emergency_ = 0;
};

}  // namespace netpp
