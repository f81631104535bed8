// Whole-fabric energy accounting on top of the flow simulator.
//
// Attaches a power model to every network device of a simulated topology —
// switches, host NICs, and the optical transceivers on inter-switch links —
// and integrates their energy as the simulation runs. Two device power
// modes:
//
//   kTwoState   — the paper's §2.3 model: a device draws idle power when it
//                 carries no traffic and max power when it does (envelope
//                 from the configured proportionality). This is the mode to
//                 cross-validate the analytic ClusterModel against.
//   kComponent  — switches use the component-level SwitchPowerModel at
//                 their instantaneous load (linear in utilization); NICs and
//                 transceivers stay two-state.
//
// Attach via `FlowSimulator::set_load_listener(tracker.listener())` (or
// chain it from your own listener) before submitting flows.
#pragma once

#include <vector>

#include "netpp/mech/mechanism.h"
#include "netpp/netsim/flowsim.h"
#include "netpp/power/envelope.h"
#include "netpp/power/switch_model.h"
#include "netpp/sim/stats.h"

namespace netpp {

enum class DevicePowerMode {
  kTwoState,
  kComponent,
};

class FabricEnergyTracker {
 public:
  struct Config {
    /// Applies to switches, NICs, and transceivers alike (paper §2.3.2).
    double network_proportionality = 0.10;
    Watts switch_max{750.0};
    Watts nic_max{8.6};
    Watts transceiver_max{4.0};
    DevicePowerMode mode = DevicePowerMode::kTwoState;
    /// Used for switches in kComponent mode.
    SwitchPowerModel component_model{};
  };

  /// `sim` must outlive the tracker. Hosts get one NIC each; every optical
  /// link gets two transceivers; every switch-kind node gets a switch meter.
  FabricEnergyTracker(const FlowSimulator& sim, Config config);

  /// Re-evaluates all device powers at `now`. Call on every reallocation.
  void on_load_change(Seconds now);

  /// Adapter for FlowSimulator::set_load_listener.
  [[nodiscard]] FlowSimulator::LoadListener listener();

  [[nodiscard]] Joules network_energy(Seconds until) const;
  [[nodiscard]] Watts average_network_power(Seconds until) const;

  /// Per component class.
  [[nodiscard]] Joules switch_energy(Seconds until) const;
  [[nodiscard]] Joules nic_energy(Seconds until) const;
  [[nodiscard]] Joules transceiver_energy(Seconds until) const;

  /// Paper §3.1 energy-efficiency metric over the whole fabric:
  /// ideally-proportional energy (each device's max power times its
  /// time-weighted useful load) / actual energy; 1 when no energy was
  /// consumed.
  [[nodiscard]] double network_energy_efficiency(Seconds until) const;

  /// Max power if every device ran at max simultaneously.
  [[nodiscard]] Watts max_network_power() const;

  /// The fabric's energy accounting in the mechanism layer's common
  /// currency: baseline = every device at max power over the window, so the
  /// tracker's results line up next to MechanismPolicy runs. `until` must
  /// be positive.
  [[nodiscard]] MechanismReport report(Seconds until) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct Device {
    enum class Kind { kSwitch, kNic, kTransceiver } kind;
    /// Switch: the node. NIC: the host node. Transceiver: an endpoint of
    /// `link` (two Device entries per optical link).
    NodeId node = kInvalidNode;
    LinkId link = kInvalidLink;
    /// Nameplate max power (the efficiency metric's ideal reference).
    Watts max_power{};
    /// Instantaneous draw in watts; its integral is the device's energy.
    TimeWeighted power;
    /// Useful load in [0, 1], for the efficiency metric.
    TimeWeighted load;
  };

  [[nodiscard]] double device_load(const Device& device) const;
  [[nodiscard]] Watts device_power(const Device& device, double load) const;
  [[nodiscard]] Joules energy_of_kind(Device::Kind kind, Seconds until) const;

  const FlowSimulator& sim_;
  Config config_;
  PowerEnvelope switch_env_;
  PowerEnvelope nic_env_;
  PowerEnvelope transceiver_env_;
  std::vector<Device> devices_;
};

}  // namespace netpp
