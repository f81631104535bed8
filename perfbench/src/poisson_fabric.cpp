// poisson_fabric: repeated seeded episodes through FlowSimulator on the
// single backend. Each episode is the full user-visible job: build the
// simulator, submit a Poisson flow list, run the engine to drain.
//
// Why this workload: most of this loop sits under binding-subset
// reallocation and MaxMinSolver, so changes to the solver, the binding
// closure or RouteCache move it.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"
#include "netpp/netsim/flowsim.h"
#include "netpp/sim/engine.h"
#include "netpp/telemetry/telemetry.h"
#include "netpp/topo/builders.h"
#include "netpp/topo/routing.h"
#include "netpp/traffic/generators.h"

namespace perfbench {
namespace {

// Fabric: k=8 fat tree, 100G links, 128 hosts.
constexpr int kFatTreeK = 8;
constexpr double kLinkGbps = 100.0;
// Traffic: 2000 arrivals/s with bounded-Pareto 1-25 Gbit sizes under a 25G
// NIC cap keeps about 300 flows active.
constexpr double kArrivalsPerSecond = 2000.0;
constexpr double kParetoAlpha = 1.3;
constexpr double kMinGbit = 1.0;
constexpr double kMaxGbit = 25.0;
constexpr double kNicCapGbps = 25.0;
// An episode's length and the pool of distinct episodes a run works
// through in order (wrapping if it gets to the end). Flow sizes are heavy
// tailed, so one episode's cost depends on its seed; a large pool keeps the
// run's percentiles from depending on which seed was drawn.
constexpr std::size_t kFlowsPerEpisode = 4000;
constexpr std::size_t kPoolEpisodes = 256;
// Set-up is repeated every kSetupEvery episodes through the run (not only
// at its start), so its median does not hinge on the machine's state at
// start-up.
constexpr std::uint64_t kSetupEvery = 48;
// Every kRecheckEvery-th episode is run a second time off the clock and
// must reproduce its digest exactly. The first kDigestEpisodes episodes'
// digests combine into the run digest, comparable across runs of a seed.
constexpr std::size_t kRecheckEvery = 16;
constexpr std::size_t kDigestEpisodes = 32;

struct Pool {
  netpp::BuiltTopology topo;
  std::vector<std::vector<netpp::FlowSpec>> episodes;
  double topo_ms = 0.0;
  double generate_ms = 0.0;  // all episodes
};

Pool make_pool(std::uint64_t seed) {
  Pool pool;
  const auto t0 = Clock::now();
  pool.topo = netpp::build_fat_tree(kFatTreeK, netpp::Gbps{kLinkGbps});
  const auto t1 = Clock::now();
  for (std::size_t j = 0; j < kPoolEpisodes; ++j) {
    netpp::PoissonTrafficConfig cfg;
    cfg.arrivals_per_second = kArrivalsPerSecond;
    cfg.duration = netpp::Seconds{static_cast<double>(kFlowsPerEpisode) /
                                  kArrivalsPerSecond};
    cfg.pareto_alpha = kParetoAlpha;
    cfg.min_size = netpp::Bits::from_gigabits(kMinGbit);
    cfg.max_size = netpp::Bits::from_gigabits(kMaxGbit);
    cfg.seed = mix_seed(seed, j);
    pool.episodes.push_back(netpp::make_poisson_traffic(pool.topo.hosts, cfg));
  }
  const auto t2 = Clock::now();
  pool.topo_ms = ms_between(t0, t1);
  pool.generate_ms = ms_between(t1, t2);
  return pool;
}

/// What one episode did, read off the clock after it ran.
struct EpisodeOutcome {
  double host_ms = 0.0;
  double construct_submit_ms = 0.0;
  double run_ms = 0.0;
  std::uint64_t events = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::string digest;
  std::string error;  // empty when every check held
  netpp::FlowSimulator::ReallocStats stats;
  std::uint64_t solver_solves = 0;
  std::uint64_t solver_flows = 0;
};

/// Runs one episode. Traced episodes attach an idle telemetry registry
/// (sink off) to read the solver counters and record spans around the
/// construct/submit and run phases.
EpisodeOutcome run_episode(const netpp::BuiltTopology& topo,
                           const std::vector<netpp::FlowSpec>& flows,
                           Trace* trace, std::uint64_t id) {
  EpisodeOutcome out;
  std::unique_ptr<netpp::telemetry::Telemetry> tel;
  if (trace != nullptr) {
    netpp::telemetry::TelemetryConfig tcfg;
    tcfg.events = false;
    tel = std::make_unique<netpp::telemetry::Telemetry>(tcfg);
  }
  const int root = trace ? trace->begin("episode", id) : -1;
  const auto t0 = Clock::now();
  const int s_cs =
      trace ? trace->begin("netsim.construct_submit", id, root) : -1;
  netpp::SimEngine engine;
  netpp::Router router{topo.graph};
  netpp::FlowSimulator::Config cfg;
  cfg.flow_rate_cap = netpp::Gbps{kNicCapGbps};
  cfg.telemetry = tel.get();
  netpp::FlowSimulator sim{topo.graph, router, engine, cfg};
  for (const auto& f : flows) sim.submit(f);
  if (trace) trace->end(s_cs);
  const auto t1 = Clock::now();
  const int s_run = trace ? trace->begin("sim.run", id, root) : -1;
  out.events = engine.run();
  if (trace) trace->end(s_run);
  const auto t2 = Clock::now();
  if (trace) trace->end(root);
  out.construct_submit_ms = ms_between(t0, t1);
  out.run_ms = ms_between(t1, t2);
  out.host_ms = ms_between(t0, t2);

  // Off the clock: correctness checks and the result digest.
  out.submitted = flows.size();
  out.completed = sim.completed().size();
  try {
    sim.check_invariants();
  } catch (const std::exception& e) {
    out.error = std::string{"check_invariants: "} + e.what();
  }
  if (out.error.empty() &&
      (out.completed != out.submitted || sim.active_flows() != 0 ||
       sim.unroutable_flows() != 0)) {
    out.error = "episode left " +
                std::to_string(out.submitted - out.completed) + " of " +
                std::to_string(out.submitted) + " flows incomplete";
  }
  double fct_sum = 0.0;
  for (const auto& rec : sim.completed()) fct_sum += rec.fct().value();
  out.digest = digest_hex(std::to_string(out.events) + "|" +
                          std::to_string(out.completed) + "|" +
                          hexfloat(fct_sum));
  out.stats = sim.realloc_stats();
  if (tel) {
    sim.flush_metrics();  // solver totals reach the registry on flush
    out.solver_solves = tel->metrics().counter_value("netsim.solver.solves");
    out.solver_flows =
        tel->metrics().counter_value("netsim.solver.flows_solved");
  }
  return out;
}

}  // namespace

Result run_poisson_fabric(const Options& opt, Trace& trace) {
  Result res;

  std::vector<double> setup_s;
  std::vector<double> topo_ms;
  std::vector<double> gen_ms;
  Pool pool;
  const auto set_up = [&] {
    pool = Pool{};  // free the old pool first: peak memory is one pool
    const auto t0 = Clock::now();
    pool = make_pool(opt.seed);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    topo_ms.push_back(pool.topo_ms);
    gen_ms.push_back(pool.generate_ms / static_cast<double>(kPoolEpisodes));
  };
  set_up();
  std::size_t pool_flows = 0;
  for (const auto& ep : pool.episodes) pool_flows += ep.size();

  std::vector<std::string> digests(kPoolEpisodes);
  std::vector<double> episode_ms;
  std::vector<double> traced_ms;
  std::uint64_t events = 0;
  double episode_seconds = 0.0;
  std::vector<EpisodeOutcome> traced_counted;  // first kDigestEpisodes traced
  std::vector<double> cs_ms;
  std::vector<double> run_ms;
  std::vector<double> us_per_event;

  const auto check = [&](std::size_t j, const EpisodeOutcome& o) {
    ++res.attempted;
    if (!o.error.empty()) {
      res.fail("episode " + std::to_string(j) + ": " + o.error);
    } else if (digests[j].empty()) {
      digests[j] = o.digest;
    } else if (digests[j] != o.digest) {
      res.fail("episode " + std::to_string(j) + " digest " + o.digest +
               " differs from its first run " + digests[j]);
    }
  };

  // The traced copy of an episode runs right before or right after the
  // untraced one, alternating, so neither side always gets the warmer
  // caches.
  const auto run_traced = [&](std::size_t j, std::uint64_t seq) {
    const EpisodeOutcome t =
        run_episode(pool.topo, pool.episodes[j], &trace, seq);
    check(j, t);
    traced_ms.push_back(t.host_ms);
    cs_ms.push_back(t.construct_submit_ms);
    run_ms.push_back(t.run_ms);
    us_per_event.push_back(t.run_ms * 1e3 / static_cast<double>(t.events));
    if (traced_counted.size() < kDigestEpisodes) traced_counted.push_back(t);
  };

  const auto start = Clock::now();
  std::uint64_t seq = 0;
  while (seq < kDigestEpisodes ||
         ms_between(start, Clock::now()) < opt.seconds * 1e3) {
    const std::size_t j = seq % kPoolEpisodes;
    const bool traced_before = trace.enabled() && seq % 2 == 1;
    if (traced_before) run_traced(j, seq);
    const EpisodeOutcome o =
        run_episode(pool.topo, pool.episodes[j], nullptr, seq);
    check(j, o);
    episode_ms.push_back(o.host_ms);
    events += o.events;
    episode_seconds += o.host_ms / 1e3;
    if (trace.enabled() && !traced_before) run_traced(j, seq);
    if (seq % kRecheckEvery == 0) {
      check(j, run_episode(pool.topo, pool.episodes[j], nullptr, seq));
    }
    ++seq;
    if (seq % kSetupEvery == 0) set_up();
  }

  const double p50 = percentile(episode_ms, 50.0);
  const double p90 = percentile(episode_ms, 90.0);
  const double events_per_s = static_cast<double>(events) / episode_seconds;
  res.note(metric_line("episode_ms_p50", p50, "ms"));
  res.note(metric_line("episode_ms_p90", p90, "ms"));
  res.note(metric_line("sim_events_per_s", events_per_s, "events/s"));
  res.note("  episodes=" + std::to_string(episode_ms.size()) +
           " pool=" + std::to_string(kPoolEpisodes) + "x" +
           std::to_string(pool_flows / kPoolEpisodes) + " flows");
  std::string first_digests;
  for (std::size_t j = 0; j < kDigestEpisodes; ++j) first_digests += digests[j];
  res.note("  digest of the first " + std::to_string(kDigestEpisodes) +
           " episodes " + digest_hex(first_digests));
  res.info["run_digest"] = digest_hex(first_digests);
  res.info["episodes"] = std::to_string(episode_ms.size());

  if (!trace.enabled()) {
    res.set("setup_s", median(setup_s), "s");
    res.set("op_ms_p50", p50, "ms");
    res.set("op_ms_p90", p90, "ms");
    res.set("work_per_s", events_per_s, "1/s");
    return res;
  }

  // Per-layer figures: counts per episode over the first kDigestEpisodes
  // traced episodes (so they repeat exactly for a seed), timings as medians
  // over every traced episode.
  const double n = static_cast<double>(traced_counted.size());
  double ev = 0, hits = 0, misses = 0, pool_bytes = 0, full = 0, binding = 0,
         fast_arr = 0, fast_dep = 0, solves = 0, solved = 0, submitted = 0,
         completed = 0;
  for (const auto& o : traced_counted) {
    ev += static_cast<double>(o.events);
    hits += static_cast<double>(o.stats.route_cache.hits);
    misses += static_cast<double>(o.stats.route_cache.misses);
    pool_bytes += static_cast<double>(o.stats.route_cache.pool_bytes);
    full += static_cast<double>(o.stats.full_solves);
    binding += static_cast<double>(o.stats.binding_solves);
    fast_arr += static_cast<double>(o.stats.fast_arrivals);
    fast_dep += static_cast<double>(o.stats.fast_departures);
    solves += static_cast<double>(o.solver_solves);
    solved += static_cast<double>(o.solver_flows);
    submitted += static_cast<double>(o.submitted);
    completed += static_cast<double>(o.completed);
  }
  res.set("traffic.generate_ms", median(gen_ms), "ms");
  res.set("topo.build_ms", median(topo_ms), "ms");
  res.set("topo.route_cache.hits", hits / n, "count");
  res.set("topo.route_cache.misses", misses / n, "count");
  res.set("topo.route_cache.hit_ratio", hits / (hits + misses), "ratio");
  res.set("topo.route_cache.pool_bytes", pool_bytes / n, "bytes");
  res.set("sim.events", ev / n, "count");
  res.set("netsim.realloc.full_solves", full / n, "count");
  res.set("netsim.realloc.binding_solves", binding / n, "count");
  res.set("netsim.realloc.fast_arrivals", fast_arr / n, "count");
  res.set("netsim.realloc.fast_departures", fast_dep / n, "count");
  res.set("netsim.fast_path_ratio",
          (fast_arr + fast_dep) / (submitted + completed), "ratio");
  res.set("netsim.solver.solves", solves / n, "count");
  res.set("netsim.solver.flows_solved", solved / n, "count");
  res.set("netsim.solver.mean_flows_per_solve",
          solves > 0 ? solved / solves : 0.0, "count");
  res.set("netsim.completed_flows", completed / n, "count");
  res.set("netsim.construct_submit_ms", median(cs_ms), "ms");
  res.set("netsim.run_ms", median(run_ms), "ms");
  res.set("sim.host_us_per_event", median(us_per_event), "us");
  res.set("bench.trace_overhead_pct",
          (median(traced_ms) / p50 - 1.0) * 100.0, "%");
  return res;
}

}  // namespace perfbench
