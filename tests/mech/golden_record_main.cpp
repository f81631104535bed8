// Re-prints the golden fixture expectations for golden_equivalence_test.cpp
// as ready-to-paste C++ (hexfloat doubles, exact integers). Run only to
// re-record after a deliberate behavior change; the whole point of the suite
// is that refactors do NOT change these values.
#include <cstdio>

#include "golden_inputs.h"

namespace {

using namespace netpp;

void field(const char* name, double v) {
  std::printf("    %s = %a;  // %.17g\n", name, v, v);
}
void field(const char* name, std::size_t v) {
  std::printf("    %s = %zu;\n", name, v);
}

void print_rateadapt(const char* tag, bool lanes, RateAdaptMode mode) {
  RateAdaptPolicy policy{golden::rateadapt_config(lanes), mode};
  const MechanismReport r = run_mechanism(golden::pipeline_trace(), policy);
  std::printf("  {  // %s\n", tag);
  field("e.energy_j", r.energy.value());
  field("e.average_power_w", r.average_power.value());
  field("e.savings", r.savings);
  field("e.transitions", r.level_transitions);
  field("e.mean_frequency", r.mean_level);
  std::printf("  }\n");
}

void print_parking(const char* tag, const MechanismReport& r,
                   std::size_t emergency_wakes) {
  std::printf("  {  // %s\n", tag);
  field("e.energy_j", r.energy.value());
  field("e.average_power_w", r.average_power.value());
  field("e.savings", r.savings);
  field("e.mean_active", r.mean_on_components);
  field("e.wakes", r.wake_transitions);
  field("e.parks", r.park_transitions);
  field("e.max_buffered_bits", r.max_buffered.value());
  field("e.dropped_bits", r.dropped.value());
  field("e.max_added_delay_s", r.max_added_delay.value());
  field("e.emergency_wakes", emergency_wakes);
  std::printf("  }\n");
}

void print_downrate(const char* tag) {
  DownratePolicy policy{golden::downrate_config()};
  const MechanismReport r = run_mechanism(golden::diurnal_trace(), policy);
  std::printf("  {  // %s\n", tag);
  field("e.energy_j", r.energy.value());
  field("e.nominal_energy_j", r.baseline_energy.value());
  field("e.savings", r.savings);
  field("e.transitions", r.level_transitions);
  field("e.violation_s", policy.violation_time().value());
  field("e.outage_s", policy.outage_time().value());
  field("e.mean_speed_gbps", r.mean_level);
  std::printf("  }\n");
}

void print_eee(const char* tag, const EeeResult& r) {
  std::printf("  {  // %s\n", tag);
  field("e.energy_j", r.energy.value());
  field("e.always_on_energy_j", r.always_on_energy.value());
  field("e.savings", r.energy_savings_fraction);
  field("e.lpi_fraction", r.lpi_time_fraction);
  field("e.mean_added_delay_s", r.mean_added_delay.value());
  field("e.max_added_delay_s", r.max_added_delay.value());
  field("e.wakes", r.wake_transitions);
  field("e.frames", r.frames);
  std::printf("  }\n");
}

}  // namespace

int main() {
  using namespace netpp;

  print_rateadapt("kNone", false, RateAdaptMode::kNone);
  print_rateadapt("kGlobalAsic", false, RateAdaptMode::kGlobalAsic);
  print_rateadapt("kPerPipeline", false, RateAdaptMode::kPerPipeline);
  print_rateadapt("kPerPipeline+lanes", true, RateAdaptMode::kPerPipeline);

  const LoadTrace atrace = golden::aggregate_trace();
  ReactiveParkingPolicy reactive{golden::parking_config()};
  print_parking("reactive", run_mechanism(atrace, reactive), 0);
  PredictiveParkingPolicy predictive{golden::parking_config(),
                                     golden::forecast()};
  print_parking("predictive", run_mechanism(atrace, predictive), 0);
  ResilientParkingPolicy resilient{golden::parking_config(),
                                   golden::recalls()};
  const MechanismReport resilient_report =
      run_mechanism(resilient.with_recalls(atrace), resilient);
  print_parking("resilient", resilient_report, resilient.emergency_wakes());

  print_downrate("downrate");

  print_eee("eee", simulate_eee_link(golden::eee_config(false),
                                     golden::eee_frames(),
                                     golden::eee_horizon()));
  print_eee("eee+coalesce", simulate_eee_link(golden::eee_config(true),
                                              golden::eee_frames(),
                                              golden::eee_horizon()));
  return 0;
}
