// netpp command-line interface: the paper's analyses as a shell tool, with
// ASCII or CSV output for scripting and plotting.
//
//   netpp_cli cluster|table3|fig3|fig4|savings|sensitivity [flags]
//   netpp_cli faults|mech|telemetry [flags]
//   netpp_cli help
//
// The scenario flags are netpp_serve's query fields under their CLI names:
// the CLI turns them into one query and parses it with serve::parse_query,
// so both front ends accept, reject and range-check the same scenarios
// (`netpp_cli help` lists them from the same knob table). A flag the
// command does not take is an error. Flags accept both `--flag value` and
// `--flag=value`. Every error path prints a single `netpp_cli: error: ...`
// line to stderr and exits non-zero.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "netpp/analysis/report.h"
#include "netpp/analysis/savings.h"
#include "netpp/analysis/sensitivity.h"
#include "netpp/analysis/speedup.h"
#include "netpp/cluster/cluster.h"
#include "netpp/faults/experiment.h"
#include "netpp/mech/composite.h"
#include "netpp/serve/query.h"
#include "netpp/serve/scenarios.h"
#include "netpp/state/snapshot.h"
#include "netpp/telemetry/export.h"
#include "netpp/telemetry/telemetry.h"

namespace {

using namespace netpp;
using namespace netpp::literals;

/// The scenario knobs live in serve::ScenarioOptions — the single struct
/// both this CLI and netpp_serve parse into (through serve::parse_query), so
/// a serve query and the equivalent one-shot run are the same scenario by
/// construction.
struct Options {
  serve::ScenarioOptions scenario;
  bool csv = false;
  // telemetry outputs (faults / mech / telemetry subcommands)
  std::string trace_out;
  std::string metrics_out;
  // snapshot save/restore (faults / mech subcommands)
  std::string save_state;
  std::string load_state;
  double save_at_s = -1.0;  ///< <0 means the subcommand default
};

int error_out(const std::string& message) {
  std::fprintf(stderr, "netpp_cli: error: %s\n", message.c_str());
  return 2;
}

void print_table(const Table& table, bool csv) {
  std::printf("%s", csv ? table.to_csv().c_str() : table.to_ascii().c_str());
}

void write_output(const std::string& path, const std::string& text) {
  std::string error;
  if (!telemetry::write_file(path, text, error)) {
    throw std::runtime_error(error);
  }
}

/// Writes the requested trace/metrics files; throws on the first failing
/// write.
int write_telemetry_outputs(const Options& opt,
                            const telemetry::Telemetry& tel) {
  if (!opt.trace_out.empty()) {
    const telemetry::TimeSeriesSampler* sampler =
        tel.sampler().enabled() ? &tel.sampler() : nullptr;
    write_output(opt.trace_out,
                 telemetry::to_chrome_trace_json(tel.events(), sampler));
  }
  if (!opt.metrics_out.empty()) {
    write_output(opt.metrics_out, telemetry::to_metrics_json(tel.metrics()));
  }
  return 0;
}

/// Telemetry bundle for subcommands that honor --trace-out/--metrics-out:
/// null when neither output (nor `force`) was requested.
std::unique_ptr<telemetry::Telemetry> make_cli_telemetry(const Options& opt,
                                                         bool sampled,
                                                         bool force = false) {
  if (!force && opt.trace_out.empty() && opt.metrics_out.empty()) {
    return nullptr;
  }
  telemetry::TelemetryConfig config;
  config.events = true;
  config.sample_period =
      Seconds{sampled ? opt.scenario.sample_period_s : 0.0};
  return std::make_unique<telemetry::Telemetry>(config);
}

int cmd_cluster(const Options& opt) {
  print_table(serve::cluster_summary_table(opt.scenario.cluster), opt.csv);
  return 0;
}

int cmd_table3(const Options& opt) {
  const std::vector<Gbps> bws = {100_Gbps, 200_Gbps, 400_Gbps, 800_Gbps,
                                 1600_Gbps};
  const std::vector<double> props = {0.10, 0.20, 0.50, 0.85, 1.00};
  const auto rows = savings_table(opt.scenario.cluster, bws, props);
  Table table{{"bandwidth_gbps", "p10", "p20", "p50", "p85", "p100"}};
  for (const auto& row : rows) {
    std::vector<std::string> cells{fmt(row.bandwidth.value(), 0)};
    for (const auto& cell : row.cells) {
      cells.push_back(fmt(100.0 * cell.savings_fraction, 2));
    }
    table.add_row(std::move(cells));
  }
  print_table(table, opt.csv);
  return 0;
}

template <BudgetScenario kScenario>
int cmd_fig(const Options& opt) {
  const BudgetSolver solver = BudgetSolver::paper_baseline();
  const std::vector<Gbps> bws = {100_Gbps, 200_Gbps, 400_Gbps, 800_Gbps,
                                 1600_Gbps};
  std::vector<double> props;
  for (int i = 0; i <= 20; ++i) props.push_back(i * 0.05);
  const auto series = kScenario == BudgetScenario::kFixedWorkload
                          ? fixed_workload_speedup(solver, bws, props)
                          : fixed_ratio_speedup(solver, bws, props);
  Table table{
      {"proportionality", "s100", "s200", "s400", "s800", "s1600"}};
  for (std::size_t i = 0; i < props.size(); ++i) {
    std::vector<std::string> row{fmt(props[i], 2)};
    for (const auto& s : series) {
      row.push_back(fmt(100.0 * s.points[i].speedup, 2));
    }
    table.add_row(std::move(row));
  }
  print_table(table, opt.csv);
  return 0;
}

int cmd_savings(const Options& opt) {
  print_table(
      serve::savings_cell_table(opt.scenario.cluster, opt.scenario.prop),
      opt.csv);
  return 0;
}

int cmd_sensitivity(const Options& opt) {
  Table table{{"parameter", "value", "net_share_pct", "efficiency_pct",
               "savings50_pct", "savings85_pct"}};
  for (const auto& p : run_sensitivity(make_paper_sensitivity_suite())) {
    table.add_row({p.parameter, fmt(p.value, 2),
                   fmt(100.0 * p.metrics.network_share, 2),
                   fmt(100.0 * p.metrics.network_efficiency, 2),
                   fmt(100.0 * p.metrics.savings_at_50, 2),
                   fmt(100.0 * p.metrics.savings_at_85, 2)});
  }
  print_table(table, opt.csv);
  return 0;
}

FaultExperimentResult run_canned_fault_scenario(const Options& opt,
                                                telemetry::Telemetry* tel) {
  const serve::CannedFaultScenario s =
      serve::make_canned_fault_scenario(opt.scenario, tel);
  return run_fault_experiment(s.topo, s.workload, s.schedule, s.config);
}

int cmd_faults(const Options& opt) {
  if (!opt.save_state.empty() && !opt.load_state.empty()) {
    return error_out("--save-state and --load-state are mutually exclusive");
  }
  const auto tel = make_cli_telemetry(opt, /*sampled=*/true);
  FaultExperimentResult result;
  if (!opt.save_state.empty()) {
    // Run the canned scenario to the snapshot point, serialize everything,
    // and stop: a later --load-state continues bit-identically.
    const serve::CannedFaultScenario s =
        serve::make_canned_fault_scenario(opt.scenario, tel.get());
    const Seconds save_at{opt.save_at_s >= 0.0
                              ? opt.save_at_s
                              : s.fault_horizon.value() / 2.0};
    FaultExperimentRun run{s.topo, s.workload, s.schedule, s.config};
    run.run_until(save_at);
    state::SnapshotWriter w;
    run.save_state(w);
    w.write_file(opt.save_state);
    std::printf("saved state at t=%s to %s\n", to_string(save_at).c_str(),
                opt.save_state.c_str());
    return 0;
  }
  if (!opt.load_state.empty()) {
    const serve::CannedFaultScenario s =
        serve::make_canned_fault_scenario(opt.scenario, tel.get());
    auto r = state::SnapshotReader::from_file(opt.load_state);
    FaultExperimentRun run{s.topo, s.workload, s.schedule, s.config, r};
    if (!r.at_end()) {
      throw std::invalid_argument(
          "SnapshotReader: trailing bytes after the experiment snapshot");
    }
    run.run();
    result = run.finish();
  } else {
    result = run_canned_fault_scenario(opt, tel.get());
  }
  print_table(serve::faults_summary_table(result), opt.csv);
  if (tel != nullptr) return write_telemetry_outputs(opt, *tel);
  return 0;
}

int cmd_telemetry(const Options& opt) {
  // Telemetry demo: the faults scenario with every instrument attached,
  // summarized. --trace-out / --metrics-out save the artifacts. The sharded
  // backend keeps the netsim registry per shard, so this demo (which reads
  // the shared registry) is single-backend only.
  if (opt.scenario.backend.kind != BackendKind::kSingle) {
    return error_out("'telemetry' supports only --backend single");
  }
  const auto tel =
      make_cli_telemetry(opt, /*sampled=*/true, /*force=*/true);
  const auto result = run_canned_fault_scenario(opt, tel.get());
  const telemetry::MetricRegistry& m = tel->metrics();

  Table table{{"metric", "value"}};
  table.add_row({"events recorded", std::to_string(tel->events().size())});
  table.add_row({"metrics registered", std::to_string(m.size())});
  table.add_row(
      {"samples taken", std::to_string(tel->sampler().times().size())});
  table.add_row({"sampled series", std::to_string(tel->sampler().num_series())});
  table.add_row({"faults injected",
                 std::to_string(m.counter_value("faults.injected"))});
  table.add_row({"solver full solves",
                 std::to_string(m.counter_value("netsim.realloc.full_solves"))});
  table.add_row({"route-cache hits",
                 std::to_string(m.counter_value("netsim.route_cache.hits"))});
  table.add_row({"route-cache misses",
                 std::to_string(m.counter_value("netsim.route_cache.misses"))});
  table.add_row({"flows completed",
                 fmt(m.gauge_value("netsim.completed_flows"), 0)});
  table.add_row({"energy vs all-on",
                 fmt_percent(m.gauge_value("faults.energy_vs_baseline"), 1)});
  table.add_row({"availability", fmt_percent(result.report.availability, 2)});
  print_table(table, opt.csv);
  return write_telemetry_outputs(opt, *tel);
}

int cmd_mech(const Options& opt) {
  if (!opt.save_state.empty() && !opt.load_state.empty()) {
    return error_out("--save-state and --load-state are mutually exclusive");
  }
  if (!opt.load_state.empty()) {
    // Offline restore: load a saved metric registry into a fresh bundle and
    // re-export it, without re-running the simulation.
    telemetry::MetricRegistry metrics;
    auto r = state::SnapshotReader::from_file(opt.load_state);
    metrics.restore_state(r);
    if (!r.at_end()) {
      throw std::invalid_argument(
          "SnapshotReader: trailing bytes after the metrics snapshot");
    }
    Table table{{"metric", "value"}};
    table.add_row({"metrics restored", std::to_string(metrics.size())});
    table.add_row(
        {"combined savings",
         fmt_percent(metrics.gauge_value("composite.combined_savings"), 2)});
    print_table(table, opt.csv);
    if (!opt.metrics_out.empty()) {
      write_output(opt.metrics_out, telemetry::to_metrics_json(metrics));
    }
    return 0;
  }
  // The canned scenario (and the summary rendering below) are shared with
  // netpp_serve — serve/scenarios.h is the single definition of both.
  serve::CannedMechScenario s = serve::make_canned_mech_scenario(opt.scenario);
  // --save-state needs a registry to snapshot even without --metrics-out.
  const auto tel = make_cli_telemetry(opt, /*sampled=*/false,
                                      /*force=*/!opt.save_state.empty());
  s.config.telemetry = tel.get();

  const CompositeReport report =
      run_composite(s.topo, s.workload, s.demands, s.horizon, s.config);
  print_table(serve::mech_summary_table(opt.scenario.stack, report), opt.csv);
  if (!opt.save_state.empty()) {
    state::SnapshotWriter w;
    tel->metrics().save_state(w);
    w.write_file(opt.save_state);
    std::printf("saved metric registry to %s\n", opt.save_state.c_str());
  }
  if (tel != nullptr) return write_telemetry_outputs(opt, *tel);
  return 0;
}

/// A command, and the query kind whose scenario flags it takes (none: it
/// takes none).
struct Command {
  const char* name;
  std::optional<serve::QueryKind> knobs;
  int (*run)(const Options&);
};

const Command kCommands[] = {
    {"cluster", serve::QueryKind::kCluster, cmd_cluster},
    {"table3", serve::QueryKind::kCluster, cmd_table3},
    {"fig3", std::nullopt, cmd_fig<BudgetScenario::kFixedWorkload>},
    {"fig4", std::nullopt, cmd_fig<BudgetScenario::kFixedCommRatio>},
    {"savings", serve::QueryKind::kSavings, cmd_savings},
    {"sensitivity", std::nullopt, cmd_sensitivity},
    {"faults", serve::QueryKind::kFaults, cmd_faults},
    {"mech", serve::QueryKind::kMech, cmd_mech},
    {"telemetry", serve::QueryKind::kFaults, cmd_telemetry},
};

int usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: netpp_cli <command> [flags]\n"
      "\n"
      "commands:\n"
      "  cluster      baseline (or custom) cluster power summary\n"
      "  table3       paper Table 3: savings vs proportionality/bandwidth\n"
      "  fig3         paper Figure 3: fixed-workload speedup series\n"
      "  fig4         paper Figure 4: fixed-ratio speedup series\n"
      "  savings      one savings cell at proportionality --prop\n"
      "  sensitivity  headline metrics vs modeling assumptions\n"
      "  faults       fault-injection resilience run on a tailored fabric\n"
      "  mech         composed Sec. 4 mechanism stack on an ML fat tree\n"
      "  telemetry    faults scenario with full tracing/sampling, summarized\n"
      "\n"
      "flags: --csv                  CSV instead of an ASCII table\n"
      "telemetry outputs (faults/mech/telemetry):\n"
      "              --trace-out FILE.json    Chrome trace (Perfetto)\n"
      "              --metrics-out FILE.json  metrics dump\n"
      "snapshots (faults/mech):\n"
      "              --save-state FILE        faults: run to --save-at (default\n"
      "                                       half the fault horizon), snapshot,\n"
      "                                       stop; mech: snapshot the final\n"
      "                                       metric registry after the run\n"
      "              --load-state FILE        faults: restore and continue to\n"
      "                                       the end; mech: restore the metric\n"
      "                                       registry and re-export it\n"
      "              --save-at T              faults snapshot time (seconds)\n"
      "\n"
      "scenario flags (netpp_serve field, accepted values, commands); the\n"
      "budgets are per-domain average power in W (0 = unbudgeted), and\n"
      "sharded faults runs the k=4 fat tree instead of the leaf-spine:\n");
  for (const serve::Knob& knob : serve::knobs()) {
    std::string commands;
    for (const Command& command : kCommands) {
      if (command.knobs && knob.takes(*command.knobs)) {
        commands += ' ';
        commands += command.name;
      }
    }
    const std::string values =
        (knob.type == serve::KnobType::kInteger ? "integer " : "") +
        knob.range();
    std::fprintf(out, "  %-15s %-15s %-28s%s\n", knob.flag, knob.name,
                 values.c_str(), commands.c_str());
  }
  return out == stdout ? 0 : 2;
}

using KnobArgs = std::vector<std::pair<const serve::Knob*, std::string>>;

/// Rejects the command line; main prints the one diagnostic line.
[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

std::string does_not_apply(const std::string& flag, const Command& command) {
  return "flag '" + flag + "' does not apply to '" + command.name + "'";
}

/// A parse_query rejection of the scenario flags, in the CLI's wording.
std::string knob_error(const serve::ServeError& e, const Command& command,
                       const KnobArgs& args) {
  // The last occurrence of a flag wins, as in the query.
  const auto arg = std::find_if(args.rbegin(), args.rend(), [&](auto& a) {
    return e.field() == a.first->name;
  });
  if (arg == args.rend()) return e.what();  // a default the model refuses
  const auto& [knob, text] = *arg;
  switch (e.code()) {
    case serve::ErrorCode::kUnknownField:
      return does_not_apply(knob->flag, command);
    case serve::ErrorCode::kBackendMismatch:
      return knob->flag + (" " + text) + " requires --backend sharded";
    default:
      if (knob->type == serve::KnobType::kEnum) {
        return "unknown " + std::string{knob->name} + " '" + text +
               "' (expected " + knob->range() + ")";
      }
      return "bad value '" + text + "' for flag '" + knob->flag + "' (" +
             e.what() + ")";
  }
}

Options parse(int argc, char** argv, const Command& command) {
  Options opt;
  KnobArgs knobs;
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    std::optional<std::string> value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    if (flag == "--csv") {
      if (value) fail("flag '--csv' takes no value");
      opt.csv = true;
      continue;
    }
    // Every other flag takes one value: either inline (--flag=value) or the
    // next argument (--flag value).
    const serve::Knob* knob = serve::find_cli_flag(flag);
    std::string* path = flag == "--trace-out"     ? &opt.trace_out
                        : flag == "--metrics-out" ? &opt.metrics_out
                        : flag == "--save-state"  ? &opt.save_state
                        : flag == "--load-state"  ? &opt.load_state
                                                  : nullptr;
    if (knob == nullptr && path == nullptr && flag != "--save-at") {
      fail("unknown flag '" + flag + "' (see 'netpp_cli help')");
    }
    if (knob != nullptr && !command.knobs) fail(does_not_apply(flag, command));
    if (!value) {
      if (i + 1 >= argc) fail("flag '" + flag + "' needs a value");
      value = argv[++i];
    }
    if (knob != nullptr) {
      knobs.emplace_back(knob, *value);
    } else if (path != nullptr) {
      *path = *value;
    } else {
      char* end = nullptr;
      opt.save_at_s = std::strtod(value->c_str(), &end);
      if (end == value->c_str() || *end != '\0' || !(opt.save_at_s >= 0.0)) {
        fail("bad value '" + *value + "' for flag '" + flag + "'");
      }
    }
  }
  if (command.knobs) {
    try {
      opt.scenario =
          serve::parse_query(serve::cli_query(*command.knobs, knobs)).opt;
    } catch (const serve::ServeError& e) {
      fail(knob_error(e, command, knobs));
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return error_out("missing command (see 'netpp_cli help')");
  const std::string name = argv[1];
  if (name == "help" || name == "--help" || name == "-h") {
    return usage(stdout);
  }
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    // Every failure, from a bad flag to snapshot I/O, is one diagnostic
    // line and exit 2, never an abort.
    try {
      return command.run(parse(argc, argv, command));
    } catch (const std::exception& e) {
      return error_out(e.what());
    }
  }
  return error_out("unknown command '" + name + "' (see 'netpp_cli help')");
}
