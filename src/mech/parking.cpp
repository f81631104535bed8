#include "netpp/mech/parking.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace netpp {

void validate(const ParkingConfig& config, bool thresholds) {
  const int pipes = config.model.config().num_pipelines;
  if (config.min_active < 1 || config.min_active > pipes) {
    throw std::invalid_argument("min_active must be in [1, num_pipelines]");
  }
  // Negated comparisons, so that NaN fails them.
  if (!(config.wake_latency.value() >= 0.0)) {
    throw std::invalid_argument("wake latency must be non-negative");
  }
  if (!(config.buffer_capacity.value() >= 0.0)) {
    throw std::invalid_argument("buffer capacity must be non-negative");
  }
  if (thresholds &&
      !(config.hi_threshold > 0.0 && config.hi_threshold <= 1.0 &&
        config.lo_threshold >= 0.0 &&
        config.lo_threshold < config.hi_threshold)) {
    throw std::invalid_argument(
        "ParkingConfig: need 0 <= lo_threshold < hi_threshold <= 1");
  }
}

namespace detail {

int reactive_parking_target(double hi, double lo, int components,
                            double offered, int provisioned) {
  const double provisioned_frac =
      static_cast<double>(provisioned) / components;
  if (offered > hi * provisioned_frac) {
    // Provision enough to bring utilization under hi.
    return static_cast<int>(std::ceil(offered * components / hi));
  }
  const double smaller_frac =
      static_cast<double>(provisioned - 1) / components;
  if (provisioned > 1 && offered < lo * smaller_frac) {
    return provisioned - 1;
  }
  return provisioned;
}

}  // namespace detail

ParkingPolicy::ParkingPolicy(ParkingConfig config, bool reads_thresholds)
    : config_(std::move(config)),
      pipes_(config_.model.config().num_pipelines),
      ports_(static_cast<std::size_t>(config_.model.config().num_ports),
             PortState{}) {
  validate(config_, reads_thresholds);
}

PowerStateTimeline ParkingPolicy::make_timeline(const LoadTrace& trace) {
  if (trace.channels() != 1) {
    throw std::invalid_argument(
        "ParkingPolicy: trace must be single-channel aggregate load");
  }
  PowerStateTimeline timeline{
      pipes_, TransitionRules{config_.wake_latency, Seconds{0.0}, 0.0},
      trace.times.front()};
  timeline.set_power_model(
      // Powered pipelines serve the concentrated load; waking pipelines draw
      // idle power (leakage + clock, no load); parked pipelines draw nothing.
      // The circuit switch's own overhead is always on.
      [this](std::span<const ComponentTrack> tracks) {
        int active = 0;
        for (const auto& track : tracks) {
          active += track.state == PowerState::kOn ? 1 : 0;
        }
        const double capacity_frac = static_cast<double>(active) / pipes_;
        const double served_frac = std::min(offered_, capacity_frac);
        std::vector<PipelineState> states;
        states.reserve(static_cast<std::size_t>(pipes_));
        for (const auto& track : tracks) {
          if (track.state == PowerState::kOn) {
            const double pipe_load =
                active > 0 ? std::min(1.0, served_frac * pipes_ / active)
                           : 0.0;
            states.push_back(PipelineState{true, 1.0, pipe_load});
          } else if (track.state == PowerState::kWaking) {
            states.push_back(PipelineState{true, 1.0, 0.0});
          } else {
            states.push_back(PipelineState{false, 1.0, 0.0});
          }
        }
        return config_.model.total_power(states, ports_) +
               config_.circuit_switch_power;
      },
      // Baseline: every pipeline always on at the offered load, no circuit
      // switch.
      [this](std::span<const ComponentTrack> /*tracks*/) {
        const std::vector<PipelineState> all_on(
            static_cast<std::size_t>(pipes_),
            PipelineState{true, 1.0, offered_});
        return config_.model.total_power(all_on, ports_);
      });
  return timeline;
}

void ParkingPolicy::observe(const LoadSegment& seg,
                            PowerStateTimeline& timeline) {
  offered_ = seg.loads[0];

  detail::steer_parking(timeline, config_.min_active, pipes_,
                        [&](int provisioned) {
                          return desired_count(seg.at.value(), offered_,
                                               provisioned);
                        });
}

double ParkingPolicy::capacity_fraction(
    const PowerStateTimeline& timeline) const {
  return static_cast<double>(timeline.count(PowerState::kOn)) / pipes_;
}

int ReactiveParkingPolicy::desired_count(double /*t*/, double offered,
                                         int provisioned) {
  return detail::reactive_parking_target(config_.hi_threshold,
                                         config_.lo_threshold, pipes_,
                                         offered, provisioned);
}

PredictiveParkingPolicy::PredictiveParkingPolicy(
    ParkingConfig config, std::vector<LoadForecast> forecast)
    : ParkingPolicy(std::move(config), false),
      forecast_(std::move(forecast)) {
  for (std::size_t i = 1; i < forecast_.size(); ++i) {
    if (forecast_[i].at <= forecast_[i - 1].at) {
      throw std::invalid_argument("forecast must be sorted by time");
    }
  }
}

PowerStateTimeline PredictiveParkingPolicy::make_timeline(
    const LoadTrace& trace) {
  // Convert the forecast into a step function of desired counts, shifting
  // capacity *increases* earlier by the wake latency.
  const double wake = config_.wake_latency.value();
  commands_.clear();
  commands_.reserve(forecast_.size());
  int prev = pipes_;
  for (const auto& f : forecast_) {
    const int count = std::clamp(
        static_cast<int>(std::ceil(f.required_load * pipes_ /
                                   std::max(config_.hi_threshold, 1e-9))),
        config_.min_active, pipes_);
    const double at =
        count > prev
            ? std::max(trace.times.front().value(), f.at.value() - wake)
            : f.at.value();
    commands_.push_back(Command{at, count});
    prev = count;
  }
  std::sort(commands_.begin(), commands_.end(),
            [](const Command& a, const Command& b) { return a.at < b.at; });
  return ParkingPolicy::make_timeline(trace);
}

double PredictiveParkingPolicy::next_breakpoint(double t) const {
  for (const auto& c : commands_) {
    if (c.at > t + 1e-15) return c.at;  // commands are sorted
  }
  return std::numeric_limits<double>::infinity();
}

int PredictiveParkingPolicy::desired_count(double t, double /*offered*/,
                                           int /*provisioned*/) {
  int want = pipes_;  // before the first command: all on
  for (const auto& c : commands_) {
    if (c.at <= t + 1e-15) {
      want = c.count;
    } else {
      break;
    }
  }
  return want;
}

ResilientParkingPolicy::ResilientParkingPolicy(
    ParkingConfig config, std::vector<EmergencyRecall> recalls)
    : ReactiveParkingPolicy(std::move(config)), recalls_(std::move(recalls)) {
  for (const auto& r : recalls_) {
    if (!std::isfinite(r.at.value()) || !std::isfinite(r.until.value()) ||
        r.until <= r.at) {
      throw std::invalid_argument(
          "EmergencyRecall: window needs finite until > at");
    }
    if (!std::isfinite(r.extra_load) || r.extra_load < 0.0) {
      throw std::invalid_argument(
          "EmergencyRecall: extra_load must be finite and >= 0");
    }
  }
}

LoadTrace ResilientParkingPolicy::with_recalls(const LoadTrace& trace) const {
  trace.validate();
  if (trace.channels() != 1) {
    throw std::invalid_argument(
        "ResilientParkingPolicy: trace must be single-channel aggregate load");
  }
  if (recalls_.empty()) return trace;

  // Extra segment boundaries at window edges, and the rerouted load added
  // (clamped to 1) inside them.
  const double t0 = trace.times.front().value();
  const double t_end = trace.end.value();
  std::vector<double> cuts;
  cuts.reserve(trace.times.size() + recalls_.size() * 2);
  for (const auto& tt : trace.times) cuts.push_back(tt.value());
  for (const auto& r : recalls_) {
    for (double b : {r.at.value(), r.until.value()}) {
      if (b > t0 && b < t_end) cuts.push_back(b);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  const auto base_load = [&trace](double at) {
    std::size_t seg = 0;
    while (seg + 1 < trace.times.size() &&
           trace.times[seg + 1].value() <= at + 1e-15) {
      ++seg;
    }
    return trace.loads[seg][0];
  };

  LoadTrace spliced;
  spliced.end = trace.end;
  for (double c : cuts) {
    double load = base_load(c);
    for (const auto& r : recalls_) {
      if (c >= r.at.value() - 1e-15 && c < r.until.value() - 1e-15) {
        load += r.extra_load;
      }
    }
    spliced.times.push_back(Seconds{c});
    spliced.loads.push_back({std::min(1.0, load)});
  }
  return spliced;
}

int ResilientParkingPolicy::desired_count(double t, double offered,
                                          int provisioned) {
  for (const auto& r : recalls_) {
    if (t >= r.at.value() - 1e-15 && t < r.until.value() - 1e-15) {
      // Fault mode: every pipeline is recalled for the window so parked
      // capacity cannot amplify the failure.
      if (provisioned < pipes_) {
        emergency_ += static_cast<std::size_t>(pipes_ - provisioned);
      }
      return pipes_;
    }
  }
  return ReactiveParkingPolicy::desired_count(t, offered, provisioned);
}

}  // namespace netpp
