// End-to-end guarantees of the telemetry layer:
//  - attaching telemetry never changes simulation results (purely
//    observational);
//  - registry counters bit-match the legacy realloc_stats() /
//    RouteCacheStats accessors on the same run (they are views of the same
//    slots);
//  - fault experiments produce balanced fault spans and a sampled time
//    series without extending the event horizon.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "netpp/faults/experiment.h"
#include "netpp/mech/composite.h"
#include "netpp/mech/load_trace.h"
#include "netpp/telemetry/telemetry.h"
#include "netpp/topo/builders.h"
#include "netpp/traffic/generators.h"

namespace netpp {
namespace {

using namespace netpp::literals;

std::vector<FlowSpec> canned_workload(const BuiltTopology& topo) {
  MlTrafficConfig cfg;
  cfg.compute_time = Seconds{0.2};
  cfg.comm_allowance = Seconds{0.3};
  cfg.volume_per_host = Bits::from_gigabits(6.0);
  cfg.iterations = 3;
  return make_ml_training_traffic(topo.hosts, cfg).flows;
}

FaultSchedule canned_faults(const BuiltTopology& topo) {
  FaultGeneratorConfig cfg;
  cfg.switches = DeviceReliability{Seconds{3.0}, Seconds{0.4}};
  cfg.links = DeviceReliability{Seconds{6.0}, Seconds{0.4}};
  cfg.degraded_fraction = 0.25;
  cfg.horizon = Seconds{2.0};
  cfg.seed = 11;
  return FaultGenerator{cfg}.generate(topo.graph);
}

FaultExperimentConfig canned_config(const BuiltTopology& topo,
                                    telemetry::Telemetry* tel) {
  FaultExperimentConfig config;
  config.tailor = true;
  config.telemetry = tel;
  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    config.demands.push_back(TrafficDemand{
        topo.hosts[i], topo.hosts[(i + 1) % topo.hosts.size()], 20_Gbps});
  }
  return config;
}

TEST(TelemetryIntegration, AttachingTelemetryIsPurelyObservational) {
  const BuiltTopology topo = build_leaf_spine(3, 3, 3, 100_Gbps, 100_Gbps);
  const auto workload = canned_workload(topo);
  const auto schedule = canned_faults(topo);

  telemetry::TelemetryConfig tcfg;
  tcfg.sample_period = Seconds{0.05};
  telemetry::Telemetry tel{tcfg};

  const auto with = run_fault_experiment(topo, workload, schedule,
                                         canned_config(topo, &tel));
  const auto without = run_fault_experiment(topo, workload, schedule,
                                            canned_config(topo, nullptr));

  // Bit-identical outcomes: same end time, same counters, same report.
  EXPECT_EQ(with.end.value(), without.end.value());
  EXPECT_EQ(with.realloc.full_solves, without.realloc.full_solves);
  EXPECT_EQ(with.realloc.reroutes, without.realloc.reroutes);
  EXPECT_EQ(with.realloc.stranded, without.realloc.stranded);
  EXPECT_EQ(with.realloc.route_cache.hits, without.realloc.route_cache.hits);
  EXPECT_EQ(with.report.availability, without.report.availability);
  EXPECT_EQ(with.report.stranded_demand_gbit_seconds,
            without.report.stranded_demand_gbit_seconds);
  EXPECT_EQ(with.fct.mean(), without.fct.mean());
}

TEST(TelemetryIntegration, RegistryCountersBitMatchLegacyAccessors) {
  const BuiltTopology topo = build_leaf_spine(3, 3, 3, 100_Gbps, 100_Gbps);
  telemetry::TelemetryConfig tcfg;
  tcfg.sample_period = Seconds{0.05};
  telemetry::Telemetry tel{tcfg};

  const auto result = run_fault_experiment(topo, canned_workload(topo),
                                           canned_faults(topo),
                                           canned_config(topo, &tel));

  const telemetry::MetricRegistry& m = tel.metrics();
  const FlowSimulator::ReallocStats& rs = result.realloc;
  EXPECT_EQ(m.counter_value("netsim.realloc.full_solves"), rs.full_solves);
  EXPECT_EQ(m.counter_value("netsim.realloc.fast_arrivals"),
            rs.fast_arrivals);
  EXPECT_EQ(m.counter_value("netsim.realloc.fast_departures"),
            rs.fast_departures);
  EXPECT_EQ(m.counter_value("netsim.realloc.binding_solves"),
            rs.binding_solves);
  EXPECT_EQ(m.counter_value("netsim.realloc.binding_subset_flows"),
            rs.binding_subset_flows);
  EXPECT_EQ(m.counter_value("netsim.realloc.level_fixed_flows"),
            rs.level_fixed_flows);
  EXPECT_EQ(m.counter_value("netsim.realloc.level_retries"),
            rs.level_retries);
  EXPECT_EQ(m.counter_value("netsim.realloc.level_unpruned"),
            rs.level_unpruned);
  EXPECT_EQ(m.counter_value("netsim.realloc.topology_changes"),
            rs.topology_changes);
  EXPECT_EQ(m.counter_value("netsim.realloc.reroutes"), rs.reroutes);
  EXPECT_EQ(m.counter_value("netsim.realloc.stranded"), rs.stranded);
  EXPECT_EQ(m.counter_value("netsim.realloc.resumed"), rs.resumed);

  const RouteCacheStats& rc = rs.route_cache;
  EXPECT_EQ(m.counter_value("netsim.route_cache.hits"), rc.hits);
  EXPECT_EQ(m.counter_value("netsim.route_cache.misses"), rc.misses);
  EXPECT_EQ(m.counter_value("netsim.route_cache.epoch_flushes"),
            rc.epoch_flushes);
  EXPECT_EQ(m.gauge_value("netsim.route_cache.entries"),
            static_cast<double>(rc.entries));

  EXPECT_EQ(m.counter_value("faults.emergency_wakes"),
            result.emergency_wakes);
  EXPECT_EQ(m.counter_value("faults.retailor_passes"),
            result.retailor_passes);
  EXPECT_EQ(m.gauge_value("faults.powered_switches"),
            static_cast<double>(result.powered_at_end));
}

TEST(TelemetryIntegration, FaultSpansBalanceAndSamplerRecordsSeries) {
  const BuiltTopology topo = build_leaf_spine(3, 3, 3, 100_Gbps, 100_Gbps);
  telemetry::TelemetryConfig tcfg;
  tcfg.sample_period = Seconds{0.05};
  telemetry::Telemetry tel{tcfg};

  const auto result = run_fault_experiment(topo, canned_workload(topo),
                                           canned_faults(topo),
                                           canned_config(topo, &tel));
  ASSERT_GT(result.report.faults_injected, 0u);

  // Every applied fault opens a "faults" span; every repair closes one.
  // The generator guarantees recovery within the horizon, so they balance.
  std::map<std::uint64_t, int> open;
  std::size_t begins = 0;
  for (const telemetry::TraceEvent& e : tel.events().events()) {
    if (std::string_view{e.category} != "faults") continue;
    if (e.phase == 'b') {
      ++begins;
      ++open[e.id];
    } else if (e.phase == 'e') {
      --open[e.id];
    }
  }
  EXPECT_EQ(begins, result.report.faults_injected);
  for (const auto& [id, depth] : open) {
    EXPECT_EQ(depth, 0) << "unbalanced fault span id " << id;
  }

  // The sampler recorded the experiment's time series without pushing the
  // end time past the run (event-driven sampling).
  const telemetry::TimeSeriesSampler& sampler = tel.sampler();
  EXPECT_GT(sampler.times().size(), 1u);
  EXPECT_LE(sampler.times().back().value(), result.end.value());
  bool found_watts = false;
  for (std::size_t s = 0; s < sampler.num_series(); ++s) {
    if (sampler.series_name(s) == "faults.fabric_watts") found_watts = true;
  }
  EXPECT_TRUE(found_watts);
}

TEST(TelemetryIntegration, MechanismRunRecordsTransitionsAndTotals) {
  // A square load pulse through the stacked policy: parking must wake and
  // park pipelines, and every transition lands in the event log.
  LoadTrace trace;
  trace.times = {Seconds{0.0}, Seconds{1.0}, Seconds{2.0}, Seconds{3.0}};
  trace.loads = {{0.1}, {0.9}, {0.1}, {0.1}};
  trace.end = Seconds{4.0};

  ParkingConfig parking;
  parking.switch_capacity = Gbps{400.0};
  parking.wake_latency = Seconds::from_milliseconds(1.0);
  RateAdaptConfig rate;
  StackedSwitchPolicy policy{parking, rate,
                             StackedSwitchPolicy::Stages{true, true}};

  telemetry::Telemetry tel;
  const MechanismReport report = run_mechanism(trace, policy, &tel);

  std::size_t wake_requests = 0;
  std::size_t wake_cancels = 0;
  std::size_t parks = 0;
  for (const telemetry::TraceEvent& e : tel.events().events()) {
    if (std::string_view{e.category} != "power") continue;
    const std::string_view name{e.name};
    if (name == "power.wake_request" || name == "power.on") ++wake_requests;
    if (name == "power.wake_cancel") ++wake_cancels;
    if (name == "power.park" || name == "power.sleep") ++parks;
  }
  ASSERT_GT(wake_requests, 0u);
  // A cancelled wake is un-counted in the report but stays in the trace.
  EXPECT_EQ(wake_requests - wake_cancels, report.wake_transitions);
  EXPECT_EQ(parks, report.park_transitions);

  const telemetry::MetricRegistry& m = tel.metrics();
  const std::string prefix = "mech." + report.mechanism + ".";
  EXPECT_EQ(m.counter_value(prefix + "wakes"), report.wake_transitions);
  EXPECT_EQ(m.counter_value(prefix + "parks"), report.park_transitions);
  EXPECT_DOUBLE_EQ(m.gauge_value(prefix + "energy_joules"),
                   report.energy.value());
  EXPECT_EQ(m.counter_value("mech.runs"), 1u);
}

}  // namespace
}  // namespace netpp
