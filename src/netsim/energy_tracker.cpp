#include "netpp/netsim/energy_tracker.h"

#include <algorithm>
#include <stdexcept>

namespace netpp {

FabricEnergyTracker::FabricEnergyTracker(const FlowSimulator& sim,
                                         Config config)
    : sim_(sim),
      config_(config),
      switch_env_(PowerEnvelope::from_proportionality(
          config.switch_max, config.network_proportionality)),
      nic_env_(PowerEnvelope::from_proportionality(
          config.nic_max, config.network_proportionality)),
      transceiver_env_(PowerEnvelope::from_proportionality(
          config.transceiver_max, config.network_proportionality)) {
  const Graph& g = sim.graph();
  // Every device starts at its idle draw with no useful load at t = 0.
  const auto device = [](Device::Kind kind, NodeId node, LinkId link,
                         Watts max, Watts idle) {
    return Device{kind, node, link, max, TimeWeighted{idle.value()},
                  TimeWeighted{0.0}};
  };

  for (const auto& node : g.nodes()) {
    if (node.kind == NodeKind::kHost) {
      devices_.push_back(device(Device::Kind::kNic, node.id, kInvalidLink,
                                config_.nic_max, nic_env_.idle_power()));
    } else if (node.kind == NodeKind::kSwitch) {
      const Watts max = config_.mode == DevicePowerMode::kComponent
                            ? config_.component_model.max_power()
                            : config_.switch_max;
      const Watts idle = config_.mode == DevicePowerMode::kComponent
                             ? config_.component_model.idle_power()
                             : switch_env_.idle_power();
      devices_.push_back(
          device(Device::Kind::kSwitch, node.id, kInvalidLink, max, idle));
    }
  }
  for (const auto& link : g.links()) {
    if (!link.optical) continue;
    for (int end = 0; end < 2; ++end) {
      devices_.push_back(device(Device::Kind::kTransceiver, kInvalidNode,
                                link.id, config_.transceiver_max,
                                transceiver_env_.idle_power()));
    }
  }
}

double FabricEnergyTracker::device_load(const Device& device) const {
  switch (device.kind) {
    case Device::Kind::kSwitch:
      return sim_.node_load(device.node);
    case Device::Kind::kNic: {
      // A NIC is loaded by its host's access-link traffic (either way).
      double carried = 0.0, capacity = 0.0;
      for (const auto& adj : sim_.graph().neighbors(device.node)) {
        for (int dir = 0; dir < 2; ++dir) {
          const DirectedLink dl{adj.link, dir};
          carried += sim_.directed_link_rate(dl).bits_per_second();
          capacity +=
              sim_.graph().link(adj.link).capacity.bits_per_second();
        }
      }
      return capacity > 0.0 ? std::min(1.0, carried / capacity) : 0.0;
    }
    case Device::Kind::kTransceiver: {
      const double u0 =
          sim_.directed_link_utilization(DirectedLink{device.link, 0});
      const double u1 =
          sim_.directed_link_utilization(DirectedLink{device.link, 1});
      return std::min(1.0, std::max(u0, u1));
    }
  }
  return 0.0;
}

Watts FabricEnergyTracker::device_power(const Device& device,
                                        double load) const {
  const bool active = load > 0.0;
  switch (device.kind) {
    case Device::Kind::kSwitch:
      if (config_.mode == DevicePowerMode::kComponent) {
        return config_.component_model.at_uniform_load(load);
      }
      return active ? switch_env_.max_power() : switch_env_.idle_power();
    case Device::Kind::kNic:
      return active ? nic_env_.max_power() : nic_env_.idle_power();
    case Device::Kind::kTransceiver:
      return active ? transceiver_env_.max_power()
                    : transceiver_env_.idle_power();
  }
  return Watts{};
}

void FabricEnergyTracker::on_load_change(Seconds now) {
  for (auto& device : devices_) {
    const double load = device_load(device);
    device.power.set(now, device_power(device, load).value());
    // In the paper's two-state model a device is either idle or "working at
    // full speed", so the ideal-proportional reference follows activity,
    // not utilization; component mode uses real utilization.
    const double useful = config_.mode == DevicePowerMode::kTwoState
                              ? (load > 0.0 ? 1.0 : 0.0)
                              : std::clamp(load, 0.0, 1.0);
    device.load.set(now, useful);
  }
}

FlowSimulator::LoadListener FabricEnergyTracker::listener() {
  return [this](Seconds now) { on_load_change(now); };
}

Joules FabricEnergyTracker::energy_of_kind(Device::Kind kind,
                                           Seconds until) const {
  Joules total{};
  for (const auto& device : devices_) {
    if (device.kind == kind) total += Joules{device.power.integral(until)};
  }
  return total;
}

Joules FabricEnergyTracker::network_energy(Seconds until) const {
  Joules total{};
  for (const auto& device : devices_) {
    total += Joules{device.power.integral(until)};
  }
  return total;
}

Watts FabricEnergyTracker::average_network_power(Seconds until) const {
  if (until.value() <= 0.0) {
    throw std::invalid_argument("need a positive horizon");
  }
  return network_energy(until) / until;
}

Joules FabricEnergyTracker::switch_energy(Seconds until) const {
  return energy_of_kind(Device::Kind::kSwitch, until);
}

Joules FabricEnergyTracker::nic_energy(Seconds until) const {
  return energy_of_kind(Device::Kind::kNic, until);
}

Joules FabricEnergyTracker::transceiver_energy(Seconds until) const {
  return energy_of_kind(Device::Kind::kTransceiver, until);
}

double FabricEnergyTracker::network_energy_efficiency(Seconds until) const {
  const double actual = network_energy(until).value();
  if (actual <= 0.0) return 1.0;
  double ideal = 0.0;
  for (const auto& device : devices_) {
    // Ideal: max power exactly while loaded (load-weighted), zero otherwise.
    ideal += device.max_power.value() * device.load.average(until) *
             until.value();
  }
  return ideal / actual;
}

Watts FabricEnergyTracker::max_network_power() const {
  Watts total{};
  for (const auto& device : devices_) total += device.max_power;
  return total;
}

MechanismReport FabricEnergyTracker::report(Seconds until) const {
  if (until.value() <= 0.0) {
    throw std::invalid_argument("need a positive horizon");
  }
  MechanismReport report;
  report.mechanism = "fabric";
  report.duration = until;
  report.energy = network_energy(until);
  report.baseline_energy = Joules{max_network_power().value() * until.value()};
  report.savings =
      report.baseline_energy.value() > 0.0
          ? 1.0 - report.energy.value() / report.baseline_energy.value()
          : 0.0;
  report.average_power = average_network_power(until);
  return report;
}

}  // namespace netpp
