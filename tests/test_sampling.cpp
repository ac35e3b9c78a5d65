#include "core/sampling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cmdp/sort.h"
#include "rng/rng.h"
#include "rng/samplers.h"

namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;
namespace geom = cmdsmc::geom;

namespace {

// Fills a store with a uniform drifting Maxwellian over the grid.
core::ParticleStore<double> uniform_gas(const geom::Grid& grid, double ppc,
                                        double sigma, double drift,
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
    s.ux[i] = drift + sigma * cmdsmc::rng::sample_gaussian(g);
    s.uy[i] = sigma * cmdsmc::rng::sample_gaussian(g);
    s.uz[i] = sigma * cmdsmc::rng::sample_gaussian(g);
    s.r0[i] = sigma * cmdsmc::rng::sample_gaussian(g);
    s.r1[i] = sigma * cmdsmc::rng::sample_gaussian(g);
    s.cell[i] = grid.index(static_cast<int>(x), static_cast<int>(y));
    s.flags[i] = 0;
  }
  return s;
}

// Samples `s` the way the simulation does: stably sorted by cell, then
// accumulated lane block by lane block under count-quantile cuts.
// `ncells` may exceed the grid's cell count; the extra cells stand in for the
// reservoir pseudo-cell band.
void sample(core::FieldSampler<double>& sampler, cmdp::ThreadPool& pool,
            core::ParticleStore<double>& s, std::int64_t ncells) {
  const auto cells = static_cast<std::uint32_t>(ncells);
  const std::vector<std::uint32_t> keys = s.cell;
  const cmdp::SortPlan plan = cmdp::counting_sort_plan(pool, keys, cells);
  std::vector<std::uint32_t> counts(cells);
  std::vector<std::uint32_t> starts(cells);
  for (std::uint32_t c = 0; c < cells; ++c) {
    starts[c] = plan.key_starts[c];
    counts[c] = plan.key_starts[c + 1] - starts[c];
  }
  core::ParticleStore<double> scratch;
  s.scatter_sorted(pool, keys, plan, scratch);
  std::vector<std::uint32_t> cuts(pool.size() + 1);
  cmdp::count_quantile_cuts(starts, s.size(), cuts);
  sampler.accumulate(pool, s, counts.data(), starts.data(), cuts);
}

}  // namespace

TEST(FieldSampler, UniformGasGivesUnitDensityAndTemperature) {
  cmdp::ThreadPool pool(4);
  geom::Grid grid{16, 16, 0};
  const double ppc = 50.0;
  const double sigma = 0.2;
  const double drift = 0.7;
  core::FieldSampler<double> sampler(
      grid, std::vector<double>(grid.ncells(), 1.0), ppc, sigma);
  for (int rep = 0; rep < 20; ++rep) {
    auto s = uniform_gas(grid, ppc, sigma, drift, 100 + rep);
    sample(sampler, pool, s, grid.ncells());
  }
  const auto f = sampler.finalize();
  EXPECT_EQ(f.samples, 20);
  double min_rho = 1e9, max_rho = 0.0, mean_t = 0.0, mean_ux = 0.0;
  for (std::size_t c = 0; c < f.density.size(); ++c) {
    min_rho = std::min(min_rho, f.density[c]);
    max_rho = std::max(max_rho, f.density[c]);
    mean_t += f.t_total[c];
    mean_ux += f.ux[c];
  }
  mean_t /= static_cast<double>(f.density.size());
  mean_ux /= static_cast<double>(f.density.size());
  EXPECT_GT(min_rho, 0.85);
  EXPECT_LT(max_rho, 1.15);
  EXPECT_NEAR(mean_t, 1.0, 0.03);
  EXPECT_NEAR(mean_ux, drift, 0.01);
}

TEST(FieldSampler, TranslationalAndRotationalTemperaturesSeparate) {
  cmdp::ThreadPool pool(2);
  geom::Grid grid{8, 8, 0};
  const double ppc = 200.0;
  const double sigma = 0.2;
  core::FieldSampler<double> sampler(
      grid, std::vector<double>(grid.ncells(), 1.0), ppc, sigma);
  // Gas with hot rotation: r sampled at 2x sigma -> T_rot = 4 T_ref.
  auto s = uniform_gas(grid, ppc, sigma, 0.0, 7);
  cmdsmc::rng::SplitMix64 g(8);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s.r0[i] = 2.0 * sigma * cmdsmc::rng::sample_gaussian(g);
    s.r1[i] = 2.0 * sigma * cmdsmc::rng::sample_gaussian(g);
  }
  sample(sampler, pool, s, grid.ncells());
  const auto f = sampler.finalize();
  double t_trans = 0.0, t_rot = 0.0;
  for (std::size_t c = 0; c < f.density.size(); ++c) {
    t_trans += f.t_trans[c];
    t_rot += f.t_rot[c];
  }
  t_trans /= static_cast<double>(f.density.size());
  t_rot /= static_cast<double>(f.density.size());
  EXPECT_NEAR(t_trans, 1.0, 0.05);
  EXPECT_NEAR(t_rot, 4.0, 0.2);
  // t_total is the 5-DOF weighted mean.
  const double expect_total = (3.0 * 1.0 + 2.0 * 4.0) / 5.0;
  double t_total = 0.0;
  for (std::size_t c = 0; c < f.density.size(); ++c) t_total += f.t_total[c];
  t_total /= static_cast<double>(f.density.size());
  EXPECT_NEAR(t_total, expect_total, 0.1);
}

TEST(FieldSampler, OpenFractionNormalizesCutCells) {
  cmdp::ThreadPool pool(1);
  geom::Grid grid{4, 1, 0};
  // Cell 2 is half solid: same raw count should read double density without
  // normalization; with open fraction 0.5 it reads the true density.
  std::vector<double> open = {1.0, 1.0, 0.5, 1.0};
  const double ppc = 1000.0;
  core::FieldSampler<double> sampler(grid, open, ppc, 0.2);
  core::ParticleStore<double> s;
  // Fill cells 0,1,3 with ppc particles and cell 2 with ppc/2 (its open half
  // at the same physical density).
  auto fill_cell = [&](int cell, int count) {
    for (int k = 0; k < count; ++k) {
      s.push_back(cell + 0.5, 0.5, 0, 0, 0, 0, 0, 0,
                  cmdsmc::rng::identity_perm());
      s.cell.back() = static_cast<std::uint32_t>(cell);
    }
  };
  fill_cell(0, 1000);
  fill_cell(1, 1000);
  fill_cell(2, 500);
  fill_cell(3, 1000);
  sample(sampler, pool, s, grid.ncells());
  const auto f = sampler.finalize();
  for (int c = 0; c < 4; ++c)
    EXPECT_NEAR(f.density[static_cast<std::size_t>(c)], 1.0, 1e-9) << c;
}

TEST(FieldSampler, FullySolidCellReportsZeroDensity) {
  cmdp::ThreadPool pool(1);
  geom::Grid grid{2, 1, 0};
  std::vector<double> open = {1.0, 0.0};
  core::FieldSampler<double> sampler(grid, open, 10.0, 0.2);
  core::ParticleStore<double> s;
  s.push_back(0.5, 0.5, 0, 0, 0, 0, 0, 0, cmdsmc::rng::identity_perm());
  s.cell.back() = 0;
  sample(sampler, pool, s, grid.ncells());
  const auto f = sampler.finalize();
  EXPECT_EQ(f.density[1], 0.0);
}

TEST(FieldSampler, ResetClearsAccumulation) {
  cmdp::ThreadPool pool(1);
  geom::Grid grid{4, 4, 0};
  core::FieldSampler<double> sampler(
      grid, std::vector<double>(grid.ncells(), 1.0), 10.0, 0.2);
  auto s = uniform_gas(grid, 10.0, 0.2, 0.0, 9);
  sample(sampler, pool, s, grid.ncells());
  EXPECT_EQ(sampler.samples(), 1);
  sampler.reset();
  EXPECT_EQ(sampler.samples(), 0);
  const auto f = sampler.finalize();
  for (double d : f.density) EXPECT_EQ(d, 0.0);
}

TEST(FieldSampler, IgnoresReservoirTail) {
  cmdp::ThreadPool pool(1);
  geom::Grid grid{2, 2, 0};
  core::FieldSampler<double> sampler(
      grid, std::vector<double>(grid.ncells(), 1.0), 1.0, 0.2);
  core::ParticleStore<double> s;
  s.push_back(0.5, 0.5, 0, 0, 0, 0, 0, 0, cmdsmc::rng::identity_perm());
  s.cell.back() = 0;
  // A reservoir particle in the pairing band past the grid must not count.
  s.push_back(0.5, 0.5, 0, 0, 0, 0, 0, 0, cmdsmc::rng::identity_perm(), 1);
  s.cell.back() = static_cast<std::uint32_t>(grid.ncells());
  sample(sampler, pool, s, grid.ncells() + 1);
  const auto f = sampler.finalize();
  EXPECT_NEAR(f.mean_count[0], 1.0, 1e-12);
}

