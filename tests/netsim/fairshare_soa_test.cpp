// SoA/SIMD bit-identity sweep: every compiled dispatch path of the soa.h
// kernels (scalar, and with NETPP_SIMD also SSE2/AVX2 when the CPU has
// them) must produce bit-identical results — both at the kernel level
// (settle, completion_scan, settle_due, div_shares, fill_unfrozen compared
// lane by lane against the forced-scalar path) and end to end (the solver
// against the verbatim pre-optimization reference, and the sparse
// solve_on/solve_arena entry points against the dense solve()).
// force_simd_level() exists for exactly this sweep; the suite runs under
// ASan/UBSan and TSan in CI.
//
// Comparisons use the raw double bits (std::bit_cast), not ==: the contract
// is "same IEEE operations in the same order", which also pins signed
// zeros and infinities.
#include "netpp/netsim/soa.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "fairshare_reference.h"
#include "netpp/netsim/fairshare.h"
#include "netpp/sim/random.h"

namespace netpp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Forces a dispatch level for one scope; restores full dispatch on exit.
class ForcedLevel {
 public:
  explicit ForcedLevel(soa::SimdLevel level)
      : applied_(soa::force_simd_level(level)) {}
  ~ForcedLevel() { soa::force_simd_level(soa::detected_simd_level()); }
  ForcedLevel(const ForcedLevel&) = delete;
  ForcedLevel& operator=(const ForcedLevel&) = delete;
  [[nodiscard]] soa::SimdLevel applied() const { return applied_; }

 private:
  soa::SimdLevel applied_;
};

/// Every level this binary + CPU can actually run.
std::vector<soa::SimdLevel> compiled_levels() {
  std::vector<soa::SimdLevel> levels{soa::SimdLevel::kScalar};
  const int best = static_cast<int>(soa::detected_simd_level());
  if (best >= static_cast<int>(soa::SimdLevel::kSse2)) {
    levels.push_back(soa::SimdLevel::kSse2);
  }
  if (best >= static_cast<int>(soa::SimdLevel::kAvx2)) {
    levels.push_back(soa::SimdLevel::kAvx2);
  }
  return levels;
}

// ---------------------------------------------------------------------------
// Random problem generation: zero-capacity links, single-flow links,
// duplicate resources, capped/uncapped mixes.
// ---------------------------------------------------------------------------
struct Problem {
  std::vector<FairShareFlow> flows;
  std::vector<double> caps;
};

Problem random_problem(Rng& rng, bool uniform_cap) {
  Problem p;
  const auto num_res = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const auto num_flows = static_cast<std::size_t>(rng.uniform_int(0, 40));
  p.caps.resize(num_res);
  for (auto& c : p.caps) {
    // ~15% zero-capacity links: flows crossing one pin to rate 0.
    c = rng.uniform() < 0.15 ? 0.0 : rng.uniform(0.5, 100.0);
  }
  p.flows.reserve(num_flows);
  for (std::size_t f = 0; f < num_flows; ++f) {
    FairShareFlow flow;
    const auto path_len = static_cast<std::size_t>(rng.uniform_int(0, 4));
    for (std::size_t h = 0; h < path_len; ++h) {
      // Duplicates allowed on purpose.
      flow.resources.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_res) - 1)));
    }
    if (uniform_cap) {
      flow.cap = 25.0;
    } else {
      const double roll = rng.uniform();
      if (roll < 0.3) {
        flow.cap = rng.uniform(0.1, 5.0);  // often binding
      } else if (roll < 0.5) {
        flow.cap = rng.uniform(50.0, 500.0);  // mostly inert
      }
    }
    p.flows.push_back(std::move(flow));
  }
  // Half the trials get a guaranteed single-flow link: a fresh resource
  // crossed only by flow 0 (the uncontended-freeze corner).
  if (!p.flows.empty() && rng.uniform() < 0.5) {
    p.caps.push_back(rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.5, 100.0));
    p.flows[0].resources.push_back(p.caps.size() - 1);
  }
  return p;
}

void expect_matches_reference(const Problem& p, const std::string& what) {
  const auto expected = testing::max_min_fair_rates_reference(p.flows, p.caps);
  const auto actual = max_min_fair_rates(p.flows, p.caps);
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t f = 0; f < expected.size(); ++f) {
    EXPECT_EQ(bits(actual[f]), bits(expected[f]))
        << what << ", flow " << f << ": " << actual[f] << " vs "
        << expected[f];
  }
}

TEST(FairShareSoa, SolverMatchesReferenceOnEveryDispatchPath) {
  for (const soa::SimdLevel level : compiled_levels()) {
    ForcedLevel forced{level};
    ASSERT_EQ(forced.applied(), level);
    const std::string what =
        std::string{"level "} + soa::to_string(level);
    Rng rng{0x50A0ull + static_cast<std::uint64_t>(level)};
    for (int trial = 0; trial < 120; ++trial) {
      expect_matches_reference(random_problem(rng, false),
                               what + ", mixed-cap trial");
      if (HasFatalFailure()) return;
    }
    for (int trial = 0; trial < 80; ++trial) {
      expect_matches_reference(random_problem(rng, true),
                               what + ", uniform-cap trial");
      if (HasFatalFailure()) return;
    }
  }
}

// The sparse entry points the simulator rides on (solve_on over views,
// solve_arena over a pre-flattened CSR) must return exactly the doubles the
// dense solve() does — on every dispatch path.
TEST(FairShareSoa, SparseEntryPointsMatchDenseSolve) {
  constexpr double kUniformCap = 25.0;
  for (const soa::SimdLevel level : compiled_levels()) {
    ForcedLevel forced{level};
    Rng rng{0xA2E4Aull + static_cast<std::uint64_t>(level)};
    for (int trial = 0; trial < 60; ++trial) {
      Problem p = random_problem(rng, true);
      if (p.flows.empty()) continue;

      MaxMinSolver dense;
      std::vector<FairShareFlowView> views;
      views.reserve(p.flows.size());
      for (const auto& flow : p.flows) {
        views.push_back(
            {std::span<const std::size_t>(flow.resources), flow.cap});
      }
      const auto dense_span = dense.solve(views, p.caps);
      const std::vector<double> expected{dense_span.begin(),
                                         dense_span.end()};

      // Flatten to the 32-bit CSR layout and collect the touched set.
      std::vector<std::uint32_t> arena;
      std::vector<std::uint32_t> start{0};
      std::vector<std::uint32_t> touched;
      std::vector<std::uint8_t> seen(p.caps.size(), 0);
      std::vector<FairShareFlowView32> views32;
      std::vector<std::vector<std::uint32_t>> rows32(p.flows.size());
      for (std::size_t f = 0; f < p.flows.size(); ++f) {
        for (std::size_t r : p.flows[f].resources) {
          const auto r32 = static_cast<std::uint32_t>(r);
          arena.push_back(r32);
          rows32[f].push_back(r32);
          if (seen[r] == 0) {
            seen[r] = 1;
            touched.push_back(r32);
          }
        }
        start.push_back(static_cast<std::uint32_t>(arena.size()));
      }
      for (std::size_t f = 0; f < p.flows.size(); ++f) {
        views32.push_back(
            {std::span<const std::uint32_t>(rows32[f]), kUniformCap});
      }

      MaxMinSolver sparse;
      const auto on_span = sparse.solve_on(
          std::span<const FairShareFlowView32>(views32), p.caps,
          std::span<const std::uint32_t>(touched), kUniformCap);
      ASSERT_EQ(on_span.size(), expected.size());
      for (std::size_t f = 0; f < expected.size(); ++f) {
        EXPECT_EQ(bits(on_span[f]), bits(expected[f]))
            << "solve_on, level " << soa::to_string(level) << ", trial "
            << trial << ", flow " << f;
      }

      const auto arena_span = sparse.solve_arena(
          arena, start, p.caps, std::span<const std::uint32_t>(touched),
          kUniformCap);
      ASSERT_EQ(arena_span.size(), expected.size());
      for (std::size_t f = 0; f < expected.size(); ++f) {
        EXPECT_EQ(bits(arena_span[f]), bits(expected[f]))
            << "solve_arena, level " << soa::to_string(level) << ", trial "
            << trial << ", flow " << f;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-level sweeps: the vector paths against the forced-scalar path on
// the same inputs, lane by lane, across sizes that exercise every tail.
// ---------------------------------------------------------------------------

/// Random reallocation-shaped arrays: rates are 0 (closed lane), exactly
/// `cap` (NIC-capped lane), or a positive share; remaining is >= 0 with
/// some exact zeros.
struct Lanes {
  std::vector<double> remaining;
  std::vector<double> rate;
};

Lanes random_lanes(Rng& rng, std::size_t n, double cap) {
  Lanes lanes;
  lanes.remaining.resize(n);
  lanes.rate.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    lanes.remaining[i] = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 50e9);
    const double roll = rng.uniform();
    if (roll < 0.15) {
      lanes.rate[i] = 0.0;
    } else if (roll < 0.45) {
      lanes.rate[i] = cap;
    } else {
      lanes.rate[i] = rng.uniform(1e3, 30e9);
    }
  }
  return lanes;
}

TEST(FairShareSoa, SettleKernelBitIdenticalAcrossPaths) {
  constexpr double kCap = 25e9;
  const auto levels = compiled_levels();
  Rng rng{0x5E77ull};
  for (int trial = 0; trial < 40; ++trial) {
    // Sizes 0..66 sweep every SSE2/AVX2 main-loop + tail combination.
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 66));
    const Lanes lanes = random_lanes(rng, n, kCap);
    const double dt = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 2.0);

    std::vector<double> expected = lanes.remaining;
    {
      ForcedLevel forced{soa::SimdLevel::kScalar};
      soa::settle(expected.data(), lanes.rate.data(), dt, n);
    }
    for (const soa::SimdLevel level : levels) {
      ForcedLevel forced{level};
      std::vector<double> got = lanes.remaining;
      soa::settle(got.data(), lanes.rate.data(), dt, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(got[i]), bits(expected[i]))
            << "settle, level " << soa::to_string(level) << ", trial "
            << trial << ", lane " << i;
      }
    }
  }
}

TEST(FairShareSoa, CompletionScanBitIdenticalAcrossPaths) {
  constexpr double kCap = 25e9;
  const auto levels = compiled_levels();
  Rng rng{0xC03Full};
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 66));
    const Lanes lanes = random_lanes(rng, n, kCap);

    // Pin the semantics against the documented straight-line scan.
    double want_quotient = kInf;
    double want_capped = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (lanes.rate[i] <= 0.0) continue;
      if (lanes.rate[i] == kCap) {
        if (lanes.remaining[i] < want_capped) want_capped = lanes.remaining[i];
      } else {
        const double q = lanes.remaining[i] / lanes.rate[i];
        if (q < want_quotient) want_quotient = q;
      }
    }

    for (const soa::SimdLevel level : levels) {
      ForcedLevel forced{level};
      double min_quotient = 0.0;
      double min_capped = 0.0;
      soa::completion_scan(lanes.remaining.data(), lanes.rate.data(), kCap, n,
                           &min_quotient, &min_capped);
      EXPECT_EQ(bits(min_quotient), bits(want_quotient))
          << "completion_scan quotient, level " << soa::to_string(level)
          << ", trial " << trial;
      EXPECT_EQ(bits(min_capped), bits(want_capped))
          << "completion_scan capped, level " << soa::to_string(level)
          << ", trial " << trial;
    }
  }
}

TEST(FairShareSoa, SettleDueKernelBitIdenticalAcrossPaths) {
  // settle_due against its definition: scalar settle, then the due
  // predicate, then scalar completion_scan over the surviving lanes.
  constexpr double kCap = 25e9;
  constexpr double kDueBits = 1.0;
  const auto levels = compiled_levels();
  Rng rng{0x5D0Eull};
  for (int trial = 0; trial < 80; ++trial) {
    // Odd sizes put due lanes in every tail; larger ones fill whole blocks.
    const auto n = static_cast<std::size_t>(
        trial < 8 ? 2 * trial + 1 : rng.uniform_int(0, 67));
    const double dt = trial % 4 == 0 ? 0.0 : rng.uniform(1e-6, 2e-3);
    // Some trials run almost every lane at the cap, so whole blocks skip the
    // divide; the rest mix at-cap, below-cap and zero-rate lanes.
    const double p_cap = trial % 3 == 0 ? 0.97 : 0.4;
    Lanes lanes;
    lanes.remaining.resize(n);
    lanes.rate.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double roll = rng.uniform();
      if (roll < p_cap) {
        lanes.rate[i] = kCap;
      } else if (roll < p_cap + 0.4 * (1.0 - p_cap)) {
        lanes.rate[i] = 0.0;
      } else {
        lanes.rate[i] = rng.uniform(1e3, 30e9);
      }
      const double step = lanes.rate[i] * dt;
      const double kind = rng.uniform();
      if (kind < 0.1) {
        // Settles to kDueBits: exactly on zero-rate lanes and when dt = 0.
        lanes.remaining[i] = kDueBits + step;
      } else if (kind < 0.2) {
        lanes.remaining[i] = rng.uniform(0.0, 0.9) * step;  // overshoots
      } else if (kind < 0.25) {
        lanes.remaining[i] = 0.0;
      } else {
        lanes.remaining[i] = step + rng.uniform(2.0, 50e9);
      }
    }
    // Due lanes at the first, the last and two adjacent positions.
    for (std::size_t i : {std::size_t{0}, n - 1, n / 2, n / 2 + 1}) {
      if (i < n) lanes.remaining[i] = 0.5;
    }

    std::vector<double> want_remaining = lanes.remaining;
    std::vector<std::uint32_t> want_due;
    double want_quotient = kInf;
    double want_capped = kInf;
    {
      ForcedLevel forced{soa::SimdLevel::kScalar};
      soa::settle(want_remaining.data(), lanes.rate.data(), dt, n);
      std::vector<double> live_remaining;
      std::vector<double> live_rate;
      for (std::size_t i = 0; i < n; ++i) {
        if (want_remaining[i] <= kDueBits) {
          want_due.push_back(static_cast<std::uint32_t>(i));
        } else {
          live_remaining.push_back(want_remaining[i]);
          live_rate.push_back(lanes.rate[i]);
        }
      }
      soa::completion_scan(live_remaining.data(), live_rate.data(), kCap,
                           live_rate.size(), &want_quotient, &want_capped);
    }

    for (const soa::SimdLevel level : levels) {
      ForcedLevel forced{level};
      for (const bool scan : {true, false}) {
        std::vector<double> got = lanes.remaining;
        soa::AlignedVec<std::uint32_t> due;
        due.push_back(12345);  // stale content the kernel must clear
        double min_quotient = 0.0;
        double min_capped = 0.0;
        soa::settle_due(got.data(), lanes.rate.data(), dt, kDueBits, kCap, n,
                        due, scan ? &min_quotient : nullptr,
                        scan ? &min_capped : nullptr);
        const std::string where = std::string("level ") +
                                  soa::to_string(level) + ", scan " +
                                  (scan ? "on" : "off") + ", trial " +
                                  std::to_string(trial);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(got[i]), bits(want_remaining[i]))
              << where << ", lane " << i;
        }
        ASSERT_EQ(std::vector<std::uint32_t>(due.begin(), due.end()),
                  want_due)
            << where;
        if (scan) {
          EXPECT_EQ(bits(min_quotient), bits(want_quotient)) << where;
          EXPECT_EQ(bits(min_capped), bits(want_capped)) << where;
        } else {
          EXPECT_EQ(min_quotient, 0.0) << where << ": minima written";
        }
      }
    }
  }
}

TEST(FairShareSoa, DivSharesAndFillUnfrozenBitIdenticalAcrossPaths) {
  const auto levels = compiled_levels();
  Rng rng{0xD1Full};
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 66));
    std::vector<double> residual(n);
    std::vector<std::uint32_t> active(n);
    for (std::size_t i = 0; i < n; ++i) {
      residual[i] = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 100e9);
      // Zero-active lanes divide to +inf; callers skip them.
      active[i] = static_cast<std::uint32_t>(rng.uniform_int(0, 9));
    }
    for (const soa::SimdLevel level : levels) {
      ForcedLevel forced{level};
      std::vector<double> out(n, -1.0);
      soa::div_shares(residual.data(), active.data(), out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double want = residual[i] / static_cast<double>(active[i]);
        ASSERT_EQ(bits(out[i]), bits(want))
            << "div_shares, level " << soa::to_string(level) << ", trial "
            << trial << ", lane " << i;
      }
    }

    std::vector<double> rate(n);
    std::vector<std::uint8_t> frozen(n);
    for (std::size_t i = 0; i < n; ++i) {
      rate[i] = rng.uniform(0.0, 10.0);
      frozen[i] = rng.uniform() < 0.5 ? 1 : 0;
    }
    const double value = rng.uniform(0.0, 30e9);
    for (const soa::SimdLevel level : levels) {
      ForcedLevel forced{level};
      std::vector<double> got_rate = rate;
      std::vector<std::uint8_t> got_frozen = frozen;
      soa::fill_unfrozen(got_rate.data(), got_frozen.data(), value, n);
      for (std::size_t i = 0; i < n; ++i) {
        const double want = frozen[i] != 0 ? rate[i] : value;
        ASSERT_EQ(bits(got_rate[i]), bits(want))
            << "fill_unfrozen, level " << soa::to_string(level) << ", trial "
            << trial << ", lane " << i;
        ASSERT_EQ(got_frozen[i], 1) << "frozen flag, lane " << i;
      }
    }
  }
}

}  // namespace
}  // namespace netpp
