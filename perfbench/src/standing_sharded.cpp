// standing_sharded: a large standing flow population through
// ShardedFlowSimulator, advanced one barrier interval per run_until call.
//
// Why this workload: every flow runs at its 2 Mb/s cap and no link
// saturates, so nothing is solved; the blocking steps are the per-shard
// settle and completion scans and the shard barrier. A solver change should
// leave it unchanged.
//
// The timed laps run the shards on one worker. On W workers the window
// waits for the slowest of W freshly spawned threads, and on a shared
// 4-CPU VM its times swung by 40% between runs with the host's load. The
// traced run still times W workers (netsim.window_ms_workers and
// netsim.parallel_efficiency), and every run checks that W workers give
// the same result.
//
// A run is a sequence of laps. Each lap sets the workload up anew
// (fabric, population, simulator, submission) and then advances it window
// by window to the lap horizon, so every lap does the same work and its
// result digest must equal the reference digest taken at the start of the
// run: a lap stepped on W workers, itself equal to a lap advanced by a
// single run_until to the horizon on W workers.
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "netpp/netsim/sharded.h"
#include "netpp/sim/random.h"
#include "netpp/topo/builders.h"
#include "netpp/topo/pods.h"

namespace perfbench {
namespace {

constexpr int kFatTreeK = 8;
constexpr double kLinkGbps = 100.0;
constexpr std::size_t kShards = 4;
constexpr double kFlowCapGbps = 0.002;  // 2 Mb/s: no link ever saturates
// Barrier interval and windows per lap (a 0.5 s horizon). Twice the
// default interval doubles the work per window, so a few milliseconds of
// scheduling delay on a busy machine move the window times less.
constexpr double kIntervalS = 0.02;
constexpr std::uint64_t kLapWindows = 25;
constexpr std::size_t kFlows = 200'000;
// Flows that finish inside the lap, at distinct staggered times; the rest
// would finish at kPersistentFinishS, far past the horizon, so the standing
// population stays nearly constant through the lap.
constexpr std::size_t kCompleting = 12'000;
constexpr double kPersistentFinishS = 20.0;
constexpr std::int64_t kCrossPodOneIn = 40;  // 2.5% of flows cross pods

struct Setup {
  std::unique_ptr<netpp::BuiltTopology> topo;
  std::vector<netpp::FlowSpec> flows;
  std::unique_ptr<netpp::ShardedFlowSimulator> sim;
  double topo_ms = 0.0;
  double generate_ms = 0.0;
  double build_ms = 0.0;
  double submit_ms = 0.0;
  double total_s = 0.0;
};

std::vector<netpp::FlowSpec> make_population(const netpp::BuiltTopology& topo,
                                             std::uint64_t seed) {
  const netpp::PodPartition pods = netpp::make_pod_partition(topo.graph);
  std::vector<std::vector<netpp::NodeId>> pod_hosts(pods.num_pods);
  for (const netpp::NodeId h : topo.hosts) {
    pod_hosts[static_cast<std::size_t>(pods.pod_of_node[h])].push_back(h);
  }
  const auto num_pods = static_cast<std::int64_t>(pod_hosts.size());
  const double cap_bps = kFlowCapGbps * 1e9;
  const double horizon = kIntervalS * static_cast<double>(kLapWindows);

  netpp::Rng rng{seed};
  std::vector<netpp::FlowSpec> flows;
  flows.reserve(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    const auto p = static_cast<std::size_t>(rng.uniform_int(0, num_pods - 1));
    const auto& local = pod_hosts[p];
    const auto local_n = static_cast<std::int64_t>(local.size());
    netpp::FlowSpec spec;
    spec.src = local[static_cast<std::size_t>(rng.uniform_int(0, local_n - 1))];
    if (rng.uniform_int(0, kCrossPodOneIn - 1) == 0) {
      auto q = static_cast<std::size_t>(rng.uniform_int(0, num_pods - 2));
      if (q >= p) ++q;
      const auto& remote = pod_hosts[q];
      spec.dst = remote[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(remote.size()) - 1))];
    } else {
      spec.dst = spec.src;
      while (spec.dst == spec.src) {
        spec.dst =
            local[static_cast<std::size_t>(rng.uniform_int(0, local_n - 1))];
      }
    }
    // Completing flows are spread over the whole population (every
    // kFlows/kCompleting-th flow) and finish at distinct times inside the
    // horizon, jittered by the seed.
    const std::size_t stride = kFlows / kCompleting;
    double finish_at = kPersistentFinishS;
    if (i % stride == 0 && i / stride < kCompleting) {
      const double slot = static_cast<double>(i / stride) + rng.uniform();
      finish_at = horizon * (slot + 1.0) / static_cast<double>(kCompleting + 2);
    }
    spec.size = netpp::Bits{cap_bps * finish_at};
    spec.start = netpp::Seconds{0.0};
    spec.tag = i;
    flows.push_back(spec);
  }
  return flows;
}

Setup set_up(std::uint64_t seed, std::size_t workers) {
  Setup s;
  const auto t0 = Clock::now();
  s.topo = std::make_unique<netpp::BuiltTopology>(
      netpp::build_fat_tree(kFatTreeK, netpp::Gbps{kLinkGbps}));
  const auto t1 = Clock::now();
  s.flows = make_population(*s.topo, seed);
  const auto t2 = Clock::now();
  netpp::ShardedFlowSimulator::Config cfg;
  cfg.num_shards = kShards;
  cfg.num_threads = workers;
  cfg.barrier_interval = netpp::Seconds{kIntervalS};
  cfg.shard.flow_rate_cap = netpp::Gbps{kFlowCapGbps};
  s.sim = std::make_unique<netpp::ShardedFlowSimulator>(s.topo->graph, cfg);
  const auto t3 = Clock::now();
  for (const auto& f : s.flows) s.sim->submit(f);
  const auto t4 = Clock::now();
  s.topo_ms = ms_between(t0, t1);
  s.generate_ms = ms_between(t1, t2);
  s.build_ms = ms_between(t2, t3);
  s.submit_ms = ms_between(t3, t4);
  s.total_s = ms_between(t0, t4) / 1e3;
  return s;
}

struct Lap {
  std::vector<double> window_ms;
  double flow_windows = 0.0;
  std::string digest;
  std::string error;
  std::size_t completed = 0;
  std::uint64_t full_solves = 0;
};

/// Advances `s` to the lap horizon, one run_until per window (or a single
/// run_until when `stepped` is false), then checks it off the clock.
Lap run_lap(Setup& s, bool stepped, Trace* trace, std::uint64_t lap_id) {
  Lap lap;
  netpp::ShardedFlowSimulator& sim = *s.sim;
  const int root = trace ? trace->begin("lap", lap_id) : -1;
  if (stepped) {
    for (std::uint64_t w = 1; w <= kLapWindows; ++w) {
      const double in_flight = static_cast<double>(sim.flows_in_flight());
      // Each window's span has its own id: lap * 1000 + window.
      const int span =
          trace ? trace->begin("netsim.run_until", lap_id * 1000 + w, root)
                : -1;
      const auto t0 = Clock::now();
      sim.run_until(netpp::Seconds{static_cast<double>(w) * kIntervalS});
      const auto t1 = Clock::now();
      if (trace) trace->end(span);
      lap.window_ms.push_back(ms_between(t0, t1));
      lap.flow_windows += in_flight;
    }
  } else {
    sim.run_until(
        netpp::Seconds{static_cast<double>(kLapWindows) * kIntervalS});
  }
  if (trace) trace->end(root);

  try {
    sim.check_invariants();
  } catch (const std::exception& e) {
    lap.error = std::string{"check_invariants: "} + e.what();
  }
  std::string text = std::to_string(sim.flows_in_flight()) + "|" +
                     std::to_string(sim.completed().size());
  for (const auto& rec : sim.completed()) {
    text += '|';
    text += std::to_string(rec.id);
    text += ':';
    text += hexfloat(rec.finished.value());
  }
  lap.digest = digest_hex(text);
  lap.completed = sim.completed().size();
  lap.full_solves = sim.realloc_stats().full_solves;
  if (lap.error.empty() && lap.completed == 0) {
    lap.error = "no flow completed inside the lap";
  }
  return lap;
}

}  // namespace

Result run_standing_sharded(const Options& opt, Trace& trace) {
  Result res;
  const std::size_t workers = opt.workers;
  const std::uint64_t seed = mix_seed(opt.seed, 0);

  std::vector<double> setup_s;
  std::vector<double> topo_ms, gen_ms, build_ms, submit_ms;
  const auto record_setup = [&](const Setup& s) {
    setup_s.push_back(s.total_s);
    topo_ms.push_back(s.topo_ms);
    gen_ms.push_back(s.generate_ms);
    build_ms.push_back(s.build_ms);
    submit_ms.push_back(s.submit_ms);
  };

  // Reference digests, off the clock: stepped on `workers` workers, and one
  // run_until to the horizon on `workers` workers.
  std::string reference;
  std::vector<double> windows_w;  // laps on `workers` workers
  {
    Setup s = set_up(seed, workers);
    record_setup(s);
    const Lap lap = run_lap(s, true, nullptr, 0);
    ++res.attempted;
    if (!lap.error.empty()) res.fail("stepped lap: " + lap.error);
    reference = lap.digest;
    windows_w = lap.window_ms;
  }
  {
    Setup s = set_up(seed, workers);
    record_setup(s);
    const Lap lap = run_lap(s, false, nullptr, 0);
    ++res.attempted;
    if (!lap.error.empty()) res.fail("single run_until lap: " + lap.error);
    if (lap.digest != reference) {
      res.fail("single run_until digest " + lap.digest +
               " differs from the stepped digest " + reference);
    }
  }

  std::vector<double> window_ms;  // untraced 1-worker laps
  std::vector<double> traced_ms;  // traced 1-worker laps
  std::vector<double> admit_ms;
  double flow_windows = 0.0;
  double window_seconds = 0.0;
  std::size_t laps = 0;
  std::size_t completed_per_lap = 0;
  std::uint64_t full_solves = 0;

  // A lap's windows pass or fail together.
  const auto check = [&](const Lap& lap, const char* what) {
    res.attempted += kLapWindows;
    if (!lap.error.empty()) {
      res.fail(std::string{what} + ": " + lap.error, kLapWindows);
    } else if (lap.digest != reference) {
      res.fail(std::string{what} + " digest " + lap.digest +
                   " differs from the reference " + reference,
               kLapWindows);
    }
  };

  std::uint64_t lap_id = 1;
  const auto timed_lap = [&] {
    Setup s = set_up(seed, 1);
    record_setup(s);
    const Lap lap = run_lap(s, true, nullptr, lap_id++);
    check(lap, "lap");
    window_ms.insert(window_ms.end(), lap.window_ms.begin(),
                     lap.window_ms.end());
    for (const double ms : lap.window_ms) window_seconds += ms / 1e3;
    flow_windows += lap.flow_windows;
    completed_per_lap = lap.completed;
    full_solves = lap.full_solves;
    ++laps;
  };
  const auto traced_lap = [&] {
    Setup s = set_up(seed, 1);
    record_setup(s);
    const Lap lap = run_lap(s, true, &trace, lap_id++);
    check(lap, "traced lap");
    traced_ms.insert(traced_ms.end(), lap.window_ms.begin(),
                     lap.window_ms.end());
    admit_ms.push_back(lap.window_ms.front());
  };
  const auto workers_lap = [&] {
    Setup s = set_up(seed, workers);
    record_setup(s);
    const Lap lap = run_lap(s, true, &trace, lap_id++);
    check(lap, "W-worker lap");
    windows_w.insert(windows_w.end(), lap.window_ms.begin(),
                     lap.window_ms.end());
  };

  const auto start = Clock::now();
  while (laps == 0 || ms_between(start, Clock::now()) < opt.seconds * 1e3) {
    if (!trace.enabled()) {
      timed_lap();
      continue;
    }
    // Traced and untraced laps alternate which runs first.
    const bool traced_before = laps % 2 == 1;
    if (traced_before) traced_lap();
    timed_lap();
    if (!traced_before) traced_lap();
    workers_lap();
  }

  const double p50 = percentile(window_ms, 50.0);
  const double p90 = percentile(window_ms, 90.0);
  const double fw_per_s = flow_windows / window_seconds;
  res.note(metric_line("flow_windows_per_s", fw_per_s, "flow*windows/s"));
  res.note(metric_line("window_ms_p50", p50, "ms"));
  res.note(metric_line("window_ms_p90", p90, "ms"));
  res.note("  laps=" + std::to_string(laps) + " windows=" +
           std::to_string(window_ms.size()) + " flows=" +
           std::to_string(kFlows) + " shards=" + std::to_string(kShards) +
           " timed on 1 worker, checked on " + std::to_string(workers));
  res.note("  lap digest " + reference);
  res.info["lap_digest"] = reference;
  res.info["laps"] = std::to_string(laps);
  res.info["reference_workers"] = std::to_string(workers);

  if (!trace.enabled()) {
    res.set("setup_s", median(setup_s), "s");
    res.set("op_ms_p50", p50, "ms");
    res.set("op_ms_p90", p90, "ms");
    res.set("work_per_s", fw_per_s, "1/s");
    return res;
  }
  const double window_1w = median(traced_ms);
  const double window_w = median(windows_w);
  res.set("traffic.generate_ms", median(gen_ms), "ms");
  res.set("topo.build_ms", median(topo_ms), "ms");
  res.set("netsim.shard_build_ms", median(build_ms), "ms");
  res.set("netsim.shard_submit_ms", median(submit_ms), "ms");
  res.set("netsim.admit_window_ms", median(admit_ms), "ms");
  res.set("netsim.window_ms_1w", window_1w, "ms");
  res.set("netsim.window_ms_workers", window_w, "ms");
  res.set("netsim.parallel_efficiency",
          window_1w / (static_cast<double>(workers) * window_w), "ratio");
  res.set("netsim.realloc.full_solves", static_cast<double>(full_solves),
          "count");
  res.set("netsim.completed_flows", static_cast<double>(completed_per_lap),
          "count");
  res.set("bench.trace_overhead_pct", (window_1w / p50 - 1.0) * 100.0, "%");
  return res;
}

}  // namespace perfbench
