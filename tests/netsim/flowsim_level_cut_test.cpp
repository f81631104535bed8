// Seeded oracle for the seeded solve's level cut: after every reallocation
// that ran the solver, every active flow's rate must equal, bit for bit,
// what a fresh dense MaxMinSolver::solve over the whole active population
// gives. The seeded solve re-fills only the flows above the event's fill
// level and keeps everyone else's cached rate, so any flaw in the cut (a
// rate kept that should have moved, a residual subtracted in the wrong
// order) shows up here as a mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "netpp/netsim/fairshare.h"
#include "netpp/netsim/flowsim.h"
#include "netpp/topo/builders.h"
#include "netpp/topo/routing.h"
#include "netpp/traffic/generators.h"

namespace netpp {
namespace {

using namespace netpp::literals;

struct Load {
  double arrivals_per_host_per_second;
  double max_gbit;
};

// From uncongested (the fast paths absorb most events) to overloaded
// (access links saturate and most events re-solve).
constexpr Load kLoads[] = {{4.0, 4.0}, {16.0, 10.0}, {45.0, 15.0}};
constexpr std::uint64_t kSeeds = 8;

struct OracleTotals {
  std::uint64_t checked = 0;     // reallocations compared with the oracle
  std::uint64_t mismatches = 0;  // flows whose rate differed
  FlowSimulator::ReallocStats stats;
};

void accumulate(OracleTotals& totals, const FlowSimulator::ReallocStats& s) {
  totals.stats.full_solves += s.full_solves;
  totals.stats.binding_solves += s.binding_solves;
  totals.stats.level_fixed_flows += s.level_fixed_flows;
  totals.stats.level_retries += s.level_retries;
  totals.stats.level_unpruned += s.level_unpruned;
}

// The directed resource indices of the path the simulator routes flow `id`
// over (the route cache and the router pick the same ECMP path).
std::vector<std::uint32_t> directed_path(const Graph& graph,
                                         const Router& router,
                                         const FlowSpec& spec, FlowId id) {
  std::vector<std::uint32_t> out;
  const auto path = router.ecmp_route(spec.src, spec.dst, id,
                                      FlowSimulator::Config{}.max_ecmp_paths);
  if (!path) return out;
  NodeId at = path->src;
  for (LinkId lid : path->links) {
    const Link& link = graph.link(lid);
    const int dir = (at == link.a) ? 0 : 1;
    out.push_back(static_cast<std::uint32_t>(DirectedLink{lid, dir}.index()));
    at = link.other(at);
  }
  return out;
}

void run_with_oracle(const BuiltTopology& topo,
                     const std::vector<FlowSpec>& flows, Gbps cap,
                     OracleTotals& totals) {
  const Graph& graph = topo.graph;
  SimEngine engine;
  Router router{graph};
  FlowSimulator::Config cfg;
  cfg.flow_rate_cap = cap;
  FlowSimulator sim{graph, router, engine, cfg};

  // Flow ids are handed out in submission order starting at 1.
  std::vector<std::vector<std::uint32_t>> paths(flows.size() + 1);
  for (const auto& f : flows) {
    const FlowId id = sim.submit(f);
    ASSERT_LT(id, paths.size());
    paths[id] = directed_path(graph, router, f, id);
  }
  std::vector<double> capacities;
  for (const auto& link : graph.links()) {
    capacities.push_back(link.capacity.bits_per_second());
    capacities.push_back(link.capacity.bits_per_second());
  }

  MaxMinSolver dense;
  std::vector<FairShareFlowView32> problem;
  std::uint64_t seen_solves = 0;
  sim.set_load_listener([&](Seconds now) {
    const std::uint64_t solves = sim.realloc_stats().full_solves;
    if (solves == seen_solves) return;  // a fast path: nothing was solved
    seen_solves = solves;
    problem.clear();
    for (std::size_t i = 0; i < sim.active_flows(); ++i) {
      problem.push_back({std::span<const std::uint32_t>(
                             paths[sim.active_flow_id(i)]),
                         cap.bits_per_second()});
    }
    const auto rates = dense.solve(problem, capacities);
    ++totals.checked;
    for (std::size_t i = 0; i < problem.size(); ++i) {
      if (sim.active_flow_rate_bps(i) == rates[i]) continue;
      // Report the first mismatch in full; count the rest.
      if (totals.mismatches++ == 0) {
        EXPECT_EQ(sim.active_flow_rate_bps(i), rates[i])
            << "flow " << sim.active_flow_id(i) << " at t=" << now.value()
            << " among " << problem.size() << " active flows";
      }
    }
  });
  engine.run();
  EXPECT_EQ(sim.completed().size(), flows.size());
  accumulate(totals, sim.realloc_stats());
}

OracleTotals run_scenario(const BuiltTopology& topo, Gbps cap,
                          std::size_t flows_per_run) {
  OracleTotals totals;
  for (const Load& load : kLoads) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      PoissonTrafficConfig tcfg;
      tcfg.arrivals_per_second = load.arrivals_per_host_per_second *
                                 static_cast<double>(topo.hosts.size());
      SCOPED_TRACE(testing::Message()
                   << "arrivals/s " << tcfg.arrivals_per_second << " seed "
                   << seed);
      tcfg.duration = Seconds{static_cast<double>(flows_per_run) /
                              tcfg.arrivals_per_second};
      tcfg.pareto_alpha = 1.3;
      tcfg.min_size = Bits::from_gigabits(0.5);
      tcfg.max_size = Bits::from_gigabits(load.max_gbit);
      tcfg.seed = seed * 7919 + static_cast<std::uint64_t>(cap.value());
      run_with_oracle(topo, make_poisson_traffic(topo.hosts, tcfg), cap,
                      totals);
    }
  }
  EXPECT_EQ(totals.mismatches, 0u);
  // The scenario must actually exercise seeded solves and the cut.
  EXPECT_GT(totals.checked, 0u);
  EXPECT_GT(totals.stats.binding_solves, 0u);
  return totals;
}

TEST(FlowSimLevelCut, FatTreeK4MatchesDenseSolve) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  for (Gbps cap : {25_Gbps, 40_Gbps}) {
    SCOPED_TRACE(testing::Message() << "cap " << cap.value() << "G");
    const OracleTotals totals = run_scenario(topo, cap, 400);
    EXPECT_GT(totals.stats.level_fixed_flows, 0u);
  }
}

TEST(FlowSimLevelCut, FatTreeK8MatchesDenseSolve) {
  const auto topo = build_fat_tree(8, 100_Gbps);
  for (Gbps cap : {25_Gbps, 40_Gbps}) {
    SCOPED_TRACE(testing::Message() << "cap " << cap.value() << "G");
    const OracleTotals totals = run_scenario(topo, cap, 400);
    EXPECT_GT(totals.stats.level_fixed_flows, 0u);
  }
}

TEST(FlowSimLevelCut, LeafSpineMatchesDenseSolveAndRetriesTheCut) {
  // Eight hosts behind two leaves: access links saturate under load and
  // many flows share a bottleneck level, so one link's fixed members often
  // include distinct rates within 1e-9 of each other (the same level
  // reached through different residual chains), which forces the retry.
  const auto topo = build_leaf_spine(2, 2, 4, 100_Gbps, 100_Gbps);
  std::uint64_t retries = 0;
  for (Gbps cap : {25_Gbps, 40_Gbps}) {
    SCOPED_TRACE(testing::Message() << "cap " << cap.value() << "G");
    const OracleTotals totals = run_scenario(topo, cap, 400);
    EXPECT_GT(totals.stats.level_fixed_flows, 0u);
    retries += totals.stats.level_retries;
  }
  EXPECT_GT(retries, 0u);
}

}  // namespace
}  // namespace netpp
