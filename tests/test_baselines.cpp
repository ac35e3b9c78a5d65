// The comparator collision schemes the paper discusses: Bird's per-cell
// time counter and Nanbu's one-sided scheme, plus the standalone pairwise
// scheme they are compared against.
//
// The BaselinePins tests pin the exact state each scheme leaves after 30
// steps.  Regenerate (after an *intentional* change of a scheme only) with:
//   GOLDEN_PRINT=1 ./test_baselines --gtest_filter='BaselinePins.*'
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "baseline/bird_tc.h"
#include "baseline/nanbu.h"
#include "baseline/pairwise.h"
#include "rng/rng.h"
#include "rng/samplers.h"

namespace baseline = cmdsmc::baseline;
namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;
namespace geom = cmdsmc::geom;

namespace {

core::ParticleStore<double> equilibrium_gas(const geom::Grid& grid,
                                            double ppc, double sigma,
                                            std::uint64_t seed) {
  core::ParticleStore<double> s;
  const auto n =
      static_cast<std::size_t>(ppc * static_cast<double>(grid.ncells()));
  s.resize(n);
  cmdsmc::rng::SplitMix64 g(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = g.next_double() * grid.nx;
    const double y = g.next_double() * grid.ny;
    s.x[i] = x;
    s.y[i] = y;
    s.ux[i] = sigma * cmdsmc::rng::sample_gaussian(g);
    s.uy[i] = sigma * cmdsmc::rng::sample_gaussian(g);
    s.uz[i] = sigma * cmdsmc::rng::sample_gaussian(g);
    s.r0[i] = sigma * cmdsmc::rng::sample_gaussian(g);
    s.r1[i] = sigma * cmdsmc::rng::sample_gaussian(g);
    s.cell[i] = grid.index(static_cast<int>(x), static_cast<int>(y));
  }
  return s;
}

double total_energy(const core::ParticleStore<double>& s) {
  double e = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i)
    e += 0.5 * (s.ux[i] * s.ux[i] + s.uy[i] * s.uy[i] + s.uz[i] * s.uz[i] +
                s.r0[i] * s.r0[i] + s.r1[i] * s.r1[i]);
  return e;
}

double momentum_x(const core::ParticleStore<double>& s) {
  double p = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) p += s.ux[i];
  return p;
}

double ux_kurtosis(const core::ParticleStore<double>& s) {
  double m2 = 0.0, m4 = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    m2 += s.ux[i] * s.ux[i];
    m4 += s.ux[i] * s.ux[i] * s.ux[i] * s.ux[i];
  }
  m2 /= static_cast<double>(s.size());
  m4 /= static_cast<double>(s.size());
  return m4 / (m2 * m2);
}

// The ablation's workload: a rectangular-velocity gas, uniform or with 90%
// of the particles in the first 10% of the columns.
core::ParticleStore<double> ablation_gas(const geom::Grid& grid, double ppc,
                                         bool imbalanced,
                                         std::uint64_t seed) {
  core::ParticleStore<double> s;
  cmdsmc::rng::SplitMix64 g(seed);
  const auto n =
      static_cast<std::size_t>(ppc * static_cast<double>(grid.ncells()));
  s.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double x = g.next_double() * grid.nx;
    if (imbalanced && g.next_double() < 0.9)
      x = g.next_double() * grid.nx * 0.1;
    const double y = g.next_double() * grid.ny;
    s.x[i] = x;
    s.y[i] = y;
    s.ux[i] = cmdsmc::rng::sample_rectangular(g, 0.2);
    s.uy[i] = cmdsmc::rng::sample_rectangular(g, 0.2);
    s.uz[i] = cmdsmc::rng::sample_rectangular(g, 0.2);
    s.r0[i] = cmdsmc::rng::sample_rectangular(g, 0.2);
    s.r1[i] = cmdsmc::rng::sample_rectangular(g, 0.2);
    s.perm[i] =
        cmdsmc::rng::perm_table()[g.next_below(cmdsmc::rng::kPermCount)];
    s.cell[i] = grid.index(static_cast<int>(x), static_cast<int>(y));
    s.id[i] = static_cast<std::uint32_t>(i);
  }
  return s;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

// Hash over every store array in array order plus the collision count.
std::uint64_t state_hash(const core::ParticleStore<double>& s,
                         std::uint64_t collisions) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto* v : {&s.x, &s.y, &s.ux, &s.uy, &s.uz, &s.r0, &s.r1})
    for (double d : *v) h = fnv1a(h, std::bit_cast<std::uint64_t>(d));
  for (auto p : s.perm) h = fnv1a(h, static_cast<std::uint64_t>(p));
  for (auto c : s.cell) h = fnv1a(h, c);
  for (auto f : s.flags) h = fnv1a(h, f);
  for (auto id : s.id) h = fnv1a(h, id);
  return fnv1a(h, collisions);
}

// Runs 30 steps of Scheme on both boxes at 1 and 4 threads and checks each
// box's pin (the schemes' results do not depend on the thread count).
template <class Scheme>
void check_pins(const char* scheme, const std::uint64_t (&pins)[2]) {
  const geom::Grid grid{24, 24, 0};
  baseline::BaselineConfig cfg;
  cfg.pc_inf = 0.5;
  cfg.n_inf = 24.0;
  for (int box = 0; box < 2; ++box) {
    for (unsigned threads : {1u, 4u}) {
      cmdp::ThreadPool pool(threads);
      auto gas = ablation_gas(grid, cfg.n_inf, box == 1, 99);
      Scheme s(grid, cfg);
      for (int step = 0; step < 30; ++step) s.collision_step(pool, gas);
      const std::uint64_t got = state_hash(gas, s.collisions());
      const std::string name = std::string(scheme) +
                               (box == 1 ? " imbalanced" : " uniform") +
                               " @" + std::to_string(threads);
      if (std::getenv("GOLDEN_PRINT") != nullptr) {
        std::printf("  0x%016llxull,  // %s\n",
                    static_cast<unsigned long long>(got), name.c_str());
        continue;
      }
      EXPECT_EQ(got, pins[box]) << name << ": state diverged";
    }
  }
}

}  // namespace

// Pins recorded while the baselines still counted cells with a histogram
// and a scan and the pairwise scheme reordered its store by per-array
// gathers.
TEST(BaselinePins, PairwiseScheme) {
  constexpr std::uint64_t kPins[2] = {0xedfdb314f97b2574ull,   // uniform
                                      0x77e6f041107b07e5ull};  // imbalanced
  check_pins<baseline::PairwiseScheme>("pairwise", kPins);
}

TEST(BaselinePins, BirdTimeCounter) {
  constexpr std::uint64_t kPins[2] = {0x836abf4bff302383ull,
                                      0xee49a4ccc8dd72c5ull};
  check_pins<baseline::BirdTimeCounter>("bird", kPins);
}

TEST(BaselinePins, NanbuScheme) {
  constexpr std::uint64_t kPins[2] = {0x8d023a7d442794ccull,
                                      0x0b143b4dde464510ull};
  check_pins<baseline::NanbuScheme>("nanbu", kPins);
}

TEST(PairwiseScheme, ConservesEnergyAndMomentumExactly) {
  cmdp::ThreadPool pool(4);
  geom::Grid grid{12, 12, 0};  // above the fork-join cutoff at 40 ppc
  auto gas = equilibrium_gas(grid, 40.0, 0.2, 9);
  // The pairwise kernel permutes with each particle's stored permutation
  // vector, so every particle needs a valid one.
  cmdsmc::rng::SplitMix64 g(10);
  for (auto& p : gas.perm) p = cmdsmc::rng::random_perm(g);
  baseline::BaselineConfig cfg;
  cfg.pc_inf = 0.5;
  cfg.n_inf = 40.0;
  baseline::PairwiseScheme pairwise(grid, cfg);
  const double e0 = total_energy(gas);
  const double p0 = momentum_x(gas);
  for (int s = 0; s < 20; ++s) pairwise.collision_step(pool, gas);
  EXPECT_GT(pairwise.collisions(), 0u);
  EXPECT_NEAR(total_energy(gas) / e0, 1.0, 1e-12);
  EXPECT_NEAR(momentum_x(gas), p0, 1e-9);
}

TEST(BirdTimeCounter, ConservesEnergyAndMomentumExactly) {
  cmdp::ThreadPool pool(4);
  geom::Grid grid{8, 8, 0};
  auto gas = equilibrium_gas(grid, 40.0, 0.2, 1);
  baseline::BaselineConfig cfg;
  cfg.pc_inf = 0.5;
  cfg.n_inf = 40.0;
  baseline::BirdTimeCounter bird(grid, cfg);
  const double e0 = total_energy(gas);
  const double p0 = momentum_x(gas);
  for (int s = 0; s < 20; ++s) bird.collision_step(pool, gas);
  EXPECT_GT(bird.collisions(), 0u);
  EXPECT_NEAR(total_energy(gas) / e0, 1.0, 1e-12);
  EXPECT_NEAR(momentum_x(gas), p0, 1e-9);
}

TEST(BirdTimeCounter, CollisionRateMatchesTheCalibration) {
  cmdp::ThreadPool pool(4);
  geom::Grid grid{8, 8, 0};
  const double ppc = 40.0;
  auto gas = equilibrium_gas(grid, ppc, 0.2, 2);
  baseline::BaselineConfig cfg;
  cfg.pc_inf = 0.4;
  cfg.n_inf = ppc;
  baseline::BirdTimeCounter bird(grid, cfg);
  const int steps = 30;
  for (int s = 0; s < steps; ++s) bird.collision_step(pool, gas);
  // At n = n_inf the per-particle collision frequency should be pc_inf per
  // step: expected collisions = N * pc_inf / 2 per step.
  const double expected =
      static_cast<double>(gas.size()) * cfg.pc_inf * steps / 2.0;
  EXPECT_NEAR(static_cast<double>(bird.collisions()), expected,
              0.1 * expected);
}

TEST(BirdTimeCounter, RelaxesRectangularToMaxwellian) {
  cmdp::ThreadPool pool(4);
  geom::Grid grid{6, 6, 0};
  auto gas = equilibrium_gas(grid, 60.0, 0.2, 3);
  cmdsmc::rng::SplitMix64 g(4);
  for (std::size_t i = 0; i < gas.size(); ++i) {
    gas.ux[i] = cmdsmc::rng::sample_rectangular(g, 0.2);
    gas.uy[i] = cmdsmc::rng::sample_rectangular(g, 0.2);
    gas.uz[i] = cmdsmc::rng::sample_rectangular(g, 0.2);
  }
  baseline::BaselineConfig cfg;
  cfg.pc_inf = 1.0;
  cfg.n_inf = 60.0;
  baseline::BirdTimeCounter bird(grid, cfg);
  EXPECT_NEAR(ux_kurtosis(gas), 1.8, 0.1);
  for (int s = 0; s < 25; ++s) bird.collision_step(pool, gas);
  EXPECT_NEAR(ux_kurtosis(gas), 3.0, 0.2);
}

TEST(Nanbu, ConservesOnlyInTheMean) {
  cmdp::ThreadPool pool(4);
  geom::Grid grid{8, 8, 0};
  auto gas = equilibrium_gas(grid, 40.0, 0.2, 5);
  baseline::BaselineConfig cfg;
  cfg.pc_inf = 0.5;
  cfg.n_inf = 40.0;
  baseline::NanbuScheme nanbu(grid, cfg);
  const double e0 = total_energy(gas);
  for (int s = 0; s < 20; ++s) nanbu.collision_step(pool, gas);
  EXPECT_GT(nanbu.collisions(), 0u);
  const double rel_drift = std::abs(total_energy(gas) / e0 - 1.0);
  // Not exactly conservative (unlike Bird/Baganoff)...
  EXPECT_GT(rel_drift, 1e-9);
  // ...but statistically stationary: drift stays within a few percent.
  EXPECT_LT(rel_drift, 0.05);
}

TEST(Nanbu, PreservesEquilibriumTemperature) {
  cmdp::ThreadPool pool(4);
  geom::Grid grid{8, 8, 0};
  auto gas = equilibrium_gas(grid, 40.0, 0.2, 6);
  baseline::BaselineConfig cfg;
  cfg.pc_inf = 0.5;
  cfg.n_inf = 40.0;
  baseline::NanbuScheme nanbu(grid, cfg);
  for (int s = 0; s < 40; ++s) nanbu.collision_step(pool, gas);
  double m2 = 0.0;
  for (std::size_t i = 0; i < gas.size(); ++i) m2 += gas.ux[i] * gas.ux[i];
  m2 /= static_cast<double>(gas.size());
  EXPECT_NEAR(m2, 0.04, 0.004);  // sigma^2 = 0.2^2
}

TEST(Nanbu, RelaxesRectangularToMaxwellian) {
  cmdp::ThreadPool pool(4);
  geom::Grid grid{6, 6, 0};
  auto gas = equilibrium_gas(grid, 60.0, 0.2, 7);
  cmdsmc::rng::SplitMix64 g(8);
  for (std::size_t i = 0; i < gas.size(); ++i) {
    gas.ux[i] = cmdsmc::rng::sample_rectangular(g, 0.2);
    gas.uy[i] = cmdsmc::rng::sample_rectangular(g, 0.2);
    gas.uz[i] = cmdsmc::rng::sample_rectangular(g, 0.2);
  }
  baseline::BaselineConfig cfg;
  cfg.pc_inf = 1.0;
  cfg.n_inf = 60.0;
  baseline::NanbuScheme nanbu(grid, cfg);
  for (int s = 0; s < 40; ++s) nanbu.collision_step(pool, gas);
  EXPECT_NEAR(ux_kurtosis(gas), 3.0, 0.25);
}

TEST(Baselines, EmptyAndSingletonCellsAreHandled) {
  cmdp::ThreadPool pool(2);
  geom::Grid grid{4, 4, 0};
  core::ParticleStore<double> gas;
  // One particle alone in one cell: nothing may collide, nothing may crash.
  gas.push_back(0.5, 0.5, 0, 0.1, 0, 0, 0, 0, cmdsmc::rng::identity_perm());
  gas.cell.back() = grid.index(0, 0);
  baseline::BaselineConfig cfg;
  baseline::BirdTimeCounter bird(grid, cfg);
  baseline::NanbuScheme nanbu(grid, cfg);
  bird.collision_step(pool, gas);
  nanbu.collision_step(pool, gas);
  EXPECT_EQ(bird.collisions(), 0u);
  EXPECT_EQ(nanbu.collisions(), 0u);
  EXPECT_DOUBLE_EQ(gas.ux[0], 0.1);
}
