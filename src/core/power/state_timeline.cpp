#include "netpp/power/state_timeline.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "netpp/validation.h"

namespace netpp {

PowerStateTimeline::PowerStateTimeline(int num_components,
                                       TransitionRules rules, Seconds start)
    : rules_(rules), start_(start.value()), now_(start.value()) {
  if (num_components < 1) {
    throw std::invalid_argument(
        "PowerStateTimeline: needs at least one component");
  }
  // Negated comparisons, so that NaN fails them.
  if (!(rules_.wake_latency.value() >= 0.0)) {
    throw std::invalid_argument(
        "PowerStateTimeline: wake latency must be non-negative");
  }
  if (!(rules_.min_dwell.value() >= 0.0)) {
    throw std::invalid_argument(
        "PowerStateTimeline: min dwell must be non-negative");
  }
  if (!(rules_.level_hysteresis >= 0.0)) {
    throw std::invalid_argument(
        "PowerStateTimeline: level hysteresis must be non-negative");
  }
  tracks_.resize(static_cast<std::size_t>(num_components));
  dwell_anchor_.assign(static_cast<std::size_t>(num_components), now_);
}

void PowerStateTimeline::set_power_model(PowerFn actual, PowerFn baseline) {
  power_fn_ = std::move(actual);
  baseline_fn_ = std::move(baseline);
}

int PowerStateTimeline::count(PowerState state) const {
  int n = 0;
  for (const auto& t : tracks_) n += t.state == state ? 1 : 0;
  return n;
}

int PowerStateTimeline::provisioned() const {
  return count(PowerState::kOn) + static_cast<int>(pending_.size());
}

void PowerStateTimeline::set_load(int component, double load) {
  tracks_[static_cast<std::size_t>(component)].load = load;
}

void PowerStateTimeline::set_level(int component, double level) {
  tracks_[static_cast<std::size_t>(component)].level = level;
  dwell_anchor_[static_cast<std::size_t>(component)] = now_;
}

void PowerStateTimeline::request_on(int component) {
  auto& track = tracks_[static_cast<std::size_t>(component)];
  if (track.state == PowerState::kOn || track.state == PowerState::kWaking) {
    return;
  }
  ++wakes_;
  const PowerState from = track.state;
  if (rules_.wake_latency.value() == 0.0) {
    track.state = PowerState::kOn;
  } else {
    track.state = PowerState::kWaking;
    pending_.push_back(
        PendingWake{component, now_ + rules_.wake_latency.value()});
  }
  if (transition_listener_) {
    transition_listener_(component, from, track.state, Seconds{now_});
  }
}

int PowerStateTimeline::wake_one() {
  for (std::size_t c = 0; c < tracks_.size(); ++c) {
    if (tracks_[c].state == PowerState::kOff ||
        tracks_[c].state == PowerState::kSleep) {
      request_on(static_cast<int>(c));
      return static_cast<int>(c);
    }
  }
  return -1;
}

void PowerStateTimeline::request_off(int component, PowerState target) {
  auto& track = tracks_[static_cast<std::size_t>(component)];
  if (track.state == target) return;
  if (track.state == PowerState::kWaking) {
    throw std::logic_error(
        "PowerStateTimeline: cancel the pending wake before parking a "
        "waking component");
  }
  const PowerState from = track.state;
  track.state = target;
  ++parks_;
  if (transition_listener_) {
    transition_listener_(component, from, target, Seconds{now_});
  }
}

int PowerStateTimeline::park_one() {
  for (std::size_t c = tracks_.size(); c-- > 0;) {
    if (tracks_[c].state == PowerState::kOn) {
      request_off(static_cast<int>(c));
      return static_cast<int>(c);
    }
  }
  return -1;
}

bool PowerStateTimeline::cancel_last_wake() {
  if (pending_.empty()) return false;
  const PendingWake wake = pending_.back();
  pending_.pop_back();
  tracks_[static_cast<std::size_t>(wake.component)].state = PowerState::kOff;
  --wakes_;  // never happened
  if (transition_listener_) {
    transition_listener_(wake.component, PowerState::kWaking, PowerState::kOff,
                         Seconds{now_});
  }
  return true;
}

bool PowerStateTimeline::request_level(int component, double level) {
  auto& track = tracks_[static_cast<std::size_t>(component)];
  auto& anchor = dwell_anchor_[static_cast<std::size_t>(component)];
  if (level == track.level) {
    anchor = now_;  // the current level is exactly sufficient
    return false;
  }
  if (level > track.level) {
    // Upward moves always apply: load must be served.
    track.level = level;
    anchor = now_;
    ++level_changes_;
    return true;
  }
  // Downward: honor the hysteresis band, then the dwell.
  if (rules_.level_hysteresis > 0.0 &&
      !(track.level - level > rules_.level_hysteresis)) {
    return false;
  }
  if (rules_.min_dwell.value() > 0.0 &&
      now_ - anchor < rules_.min_dwell.value()) {
    return false;
  }
  track.level = level;
  anchor = now_;
  ++level_changes_;
  return true;
}

double PowerStateTimeline::next_event() const {
  double earliest = std::numeric_limits<double>::infinity();
  for (const auto& wake : pending_) {
    earliest = earliest < wake.deadline ? earliest : wake.deadline;
  }
  return earliest;
}

void PowerStateTimeline::save_state(state::SnapshotWriter& w) const {
  w.begin_section("power_timeline");
  w.put_f64(rules_.wake_latency.value());
  w.put_f64(rules_.min_dwell.value());
  w.put_f64(rules_.level_hysteresis);
  w.put_u64(tracks_.size());
  for (const auto& t : tracks_) {
    w.put_u8(static_cast<std::uint8_t>(t.state));
    w.put_f64(t.level);
    w.put_f64(t.load);
  }
  w.put_f64_vec(dwell_anchor_);
  w.put_u64(pending_.size());
  for (const auto& p : pending_) {
    w.put_u32(static_cast<std::uint32_t>(p.component));
    w.put_f64(p.deadline);
  }
  w.put_f64(start_);
  w.put_f64(now_);
  w.put_f64(energy_j_);
  w.put_f64(baseline_j_);
  for (double r : residency_) w.put_f64(r);
  w.put_f64(level_time_);
  w.put_u64(wakes_);
  w.put_u64(parks_);
  w.put_u64(level_changes_);
  w.end_section();
}

void PowerStateTimeline::restore_state(state::SnapshotReader& r) {
  r.open_section("power_timeline");
  const double wake_latency = r.get_f64();
  const double min_dwell = r.get_f64();
  const double hysteresis = r.get_f64();
  validation::require(wake_latency == rules_.wake_latency.value() &&
                          min_dwell == rules_.min_dwell.value() &&
                          hysteresis == rules_.level_hysteresis,
                      "PowerStateTimeline",
                      "snapshot transition rules do not match this timeline");
  const std::uint64_t n = r.get_u64();
  validation::require(n == tracks_.size(), "PowerStateTimeline",
                      "snapshot component count does not match this timeline");
  std::vector<ComponentTrack> tracks(tracks_.size());
  for (auto& t : tracks) {
    const std::uint8_t s = r.get_u8();
    validation::require(s < kNumPowerStates, "PowerStateTimeline",
                        "snapshot holds an invalid power state");
    t.state = static_cast<PowerState>(s);
    t.level = r.get_f64();
    t.load = r.get_f64();
  }
  std::vector<double> anchors(tracks_.size());
  r.get_f64_array(anchors.data(), anchors.size());
  const std::uint64_t num_pending = r.get_u64();
  validation::require(num_pending <= tracks_.size(), "PowerStateTimeline",
                      "snapshot has more pending wakes than components");
  std::vector<PendingWake> pending(static_cast<std::size_t>(num_pending));
  for (auto& p : pending) {
    const std::uint32_t component = r.get_u32();
    validation::require(component < tracks_.size(), "PowerStateTimeline",
                        "snapshot pending wake references a bad component");
    p.component = static_cast<int>(component);
    p.deadline = r.get_f64();
  }
  tracks_ = std::move(tracks);
  dwell_anchor_ = std::move(anchors);
  pending_ = std::move(pending);
  start_ = r.get_f64();
  now_ = r.get_f64();
  energy_j_ = r.get_f64();
  baseline_j_ = r.get_f64();
  for (double& res : residency_) res = r.get_f64();
  level_time_ = r.get_f64();
  wakes_ = static_cast<std::size_t>(r.get_u64());
  parks_ = static_cast<std::size_t>(r.get_u64());
  level_changes_ = static_cast<std::size_t>(r.get_u64());
  r.close_section();
  check_invariants();
}

void PowerStateTimeline::check_invariants() const {
  const auto req = [](bool ok, std::string_view constraint) {
    validation::require(ok, "PowerStateTimeline", constraint);
  };
  req(std::isfinite(start_) && std::isfinite(now_) && now_ >= start_,
      "clock must be finite and at or after the trace start");
  req(std::isfinite(energy_j_) && energy_j_ >= 0.0,
      "energy integral must be finite and non-negative");
  req(std::isfinite(baseline_j_) && baseline_j_ >= 0.0,
      "baseline energy integral must be finite and non-negative");
  for (const auto& t : tracks_) {
    req(std::isfinite(t.level) && std::isfinite(t.load),
        "track level and load must be finite");
  }
  std::size_t waking = 0;
  for (const auto& t : tracks_) {
    waking += t.state == PowerState::kWaking ? 1 : 0;
  }
  req(pending_.size() == waking,
      "every pending wake must pair with exactly one waking component");
  for (const auto& p : pending_) {
    req(tracks_[static_cast<std::size_t>(p.component)].state ==
            PowerState::kWaking,
        "pending wake must reference a waking component");
    req(std::isfinite(p.deadline), "pending wake deadline must be finite");
  }
  // Residency sums: every component contributes dt to exactly one state per
  // advance, so the total must cover [start, now] x components.
  double total = 0.0;
  for (double res : residency_) {
    req(std::isfinite(res) && res >= 0.0,
        "residency must be finite and non-negative");
    total += res;
  }
  const double expected = (now_ - start_) * static_cast<double>(tracks_.size());
  const double tol = 1e-9 * (expected > 1.0 ? expected : 1.0);
  req(std::abs(total - expected) <= tol,
      "residency totals must cover [start, now] across all components");
}

void PowerStateTimeline::advance_to(Seconds t) {
  const double target = t.value();
  if (target < now_) {
    throw std::invalid_argument("PowerStateTimeline: time must be monotone");
  }
  const double dt = target - now_;

  if (power_fn_) energy_j_ += power_fn_(tracks_).value() * dt;
  if (baseline_fn_) baseline_j_ += baseline_fn_(tracks_).value() * dt;

  std::array<int, kNumPowerStates> counts{};
  double level_sum = 0.0;
  for (const auto& track : tracks_) {
    ++counts[static_cast<std::size_t>(track.state)];
    level_sum += track.level;
  }
  for (std::size_t s = 0; s < kNumPowerStates; ++s) {
    residency_[s] += counts[s] * dt;
  }
  level_time_ += (level_sum / static_cast<double>(tracks_.size())) * dt;

  now_ = target;

  // Complete wakes due at (or epsilon-before) the new time, in request
  // order. Completion is not a counted transition — the wake was counted
  // when requested.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->deadline <= now_ + 1e-15) {
      tracks_[static_cast<std::size_t>(it->component)].state = PowerState::kOn;
      if (transition_listener_) {
        transition_listener_(it->component, PowerState::kWaking,
                             PowerState::kOn, Seconds{now_});
      }
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace netpp
