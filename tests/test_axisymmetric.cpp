// Axisymmetric (z-r) mode: radially weighted particles, annular cell
// volumes, split/merge weight balancing and revolved-body surface
// coefficients.
//
// Physics anchors:
//  - a uniform freestream must stay uniform in r (the radial weighting
//    scheme has no spurious radial mass flux) with temperature preserved;
//  - the drag of a sphere (faceted circle on the axis, revolved) in the
//    collisionless limit must match the free-molecular analytic Cd.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <numbers>
#include <numeric>

#include "core/checkpoint.h"
#include "core/simulation.h"
#include "geom/body.h"

namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;
namespace geom = cmdsmc::geom;

namespace {

// Free-molecular drag coefficient of a sphere with specular reflection at
// molecular speed ratio s = U / sqrt(2 R T) (Bird, Molecular Gas Dynamics):
//   Cd = exp(-s^2) (2s^2 + 1) / (sqrt(pi) s^3)
//      + erf(s) (4s^4 + 4s^2 - 1) / (2 s^4)
// (the diffuse re-emission term is absent for specular walls).  Hypersonic
// limit: Cd -> 2.
double sphere_cd_free_molecular_specular(double s) {
  const double s2 = s * s;
  const double s4 = s2 * s2;
  return std::exp(-s2) * (2.0 * s2 + 1.0) /
             (std::sqrt(std::numbers::pi) * s2 * s) +
         std::erf(s) * (4.0 * s4 + 4.0 * s2 - 1.0) / (2.0 * s4);
}

core::SimConfig tunnel_config() {
  core::SimConfig cfg;
  cfg.nx = 48;
  cfg.ny = 24;
  cfg.has_wedge = false;
  cfg.axisymmetric = true;
  cfg.mach = 4.0;
  cfg.sigma = 0.12;
  cfg.particles_per_cell = 10.0;
  cfg.reservoir_fraction = 0.4;
  return cfg;
}

}  // namespace

TEST(AxisymmetricConfig, ValidationRules) {
  core::SimConfig cfg = tunnel_config();
  EXPECT_NO_THROW(cfg.validate());
  // 3D and axisymmetric are mutually exclusive.
  cfg.nz = 8;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.nz = 0;
  // The wedge from the wedge_* fields is planar-only.
  cfg.has_wedge = true;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.has_wedge = false;
  // Bodies of revolution straddle the axis: ymin < 0 is legal here...
  cfg.body = geom::Body::Cylinder(24.0, 0.0, 6.0, 16);
  EXPECT_NO_THROW(cfg.validate());
  // ...but not in planar mode.
  cfg.axisymmetric = false;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.axisymmetric = true;
  // A body wholly above the axis would revolve into a torus: rejected.
  cfg.body = geom::Body::Cylinder(24.0, 12.0, 6.0, 16);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Axisymmetric, FreeStreamStaysUniformInRadius) {
  // Open tunnel, no body, near-continuum collisions (the hardest case for
  // the weighting: every candidate pair collides every step, so any
  // weight-velocity collision bias would visibly drain the axis).
  core::SimConfig cfg = tunnel_config();
  cfg.lambda_inf = 0.0;
  cfg.seed = 0xF5EEDULL;
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(cfg, &pool);
  sim.run(150);
  sim.set_sampling(true);
  sim.run(200);
  const core::FieldStats f = sim.field();
  // Mean weighted density of each radial band (over x), against the global
  // mean: the plunger cycle sets the absolute level (same as planar runs),
  // uniformity in r is what the weighting must deliver.
  std::vector<double> band(static_cast<std::size_t>(cfg.ny), 0.0);
  for (int iy = 0; iy < cfg.ny; ++iy) {
    for (int ix = 0; ix < cfg.nx; ++ix) band[iy] += f.at(f.density, ix, iy);
    band[iy] /= cfg.nx;
  }
  const double mean =
      std::accumulate(band.begin(), band.end(), 0.0) /
      static_cast<double>(band.size());
  EXPECT_GT(mean, 0.9);
  EXPECT_LT(mean, 1.05);
  for (int iy = 0; iy < cfg.ny; ++iy)
    EXPECT_NEAR(band[iy] / mean, 1.0, 0.06) << "radial band " << iy;
  // Temperature preserved through 350 steps of weighted transport,
  // balancing and collisions.
  double t_mean = 0.0;
  int t_cells = 0;
  for (int iy = 0; iy < cfg.ny; ++iy)
    for (int ix = 0; ix < cfg.nx; ++ix) {
      t_mean += f.at(f.t_total, ix, iy);
      ++t_cells;
    }
  t_mean /= t_cells;
  EXPECT_NEAR(t_mean, 1.0, 0.03);
}

TEST(Axisymmetric, WeightsStayNearTheCellTarget) {
  core::SimConfig cfg = tunnel_config();
  cfg.lambda_inf = 0.5;
  cmdp::ThreadPool pool(2);
  core::SimulationD sim(cfg, &pool);
  sim.run(60);
  // After a step the last rebalance ran against the current cells (the move
  // precedes sort+balance, nothing moves afterwards): every flow particle
  // sits within the split/merge band of its cell, modulo the split cap
  // (k <= 8) for extreme inward jumps.
  const auto& s = sim.particles();
  const auto& vol = sim.cell_volume();
  ASSERT_EQ(vol.size(), static_cast<std::size_t>(cfg.nx) * cfg.ny);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag) continue;
    const double wt = vol[s.cell[i]];
    ASSERT_GT(s.weight[i], 0.0);
    ASSERT_LE(s.weight[i], 4.0 * wt) << "particle " << i;
  }
  EXPECT_GT(sim.counters().cloned, 0u);
  EXPECT_GT(sim.counters().merged, 0u);
}

TEST(Axisymmetric, SphereDragMatchesFreeMolecularTheory) {
  // Collisionless Mach 4 flow over a 32-facet circle centred on the axis —
  // revolved, a sphere of radius 6 in a tunnel of radius 36 (blockage and
  // re-reflection off the outer wall below the test tolerance).
  core::SimConfig cfg;
  cfg.nx = 64;
  cfg.ny = 36;
  cfg.has_wedge = false;
  cfg.axisymmetric = true;
  cfg.mach = 4.0;
  cfg.sigma = 0.12;
  cfg.lambda_inf = 1e9;  // free molecular
  cfg.particles_per_cell = 8.0;
  cfg.reservoir_fraction = 0.3;
  cfg.body = geom::Body::Cylinder(24.0, 0.0, 6.0, 32);  // specular wall
  cfg.seed = 0x5b3ULL;
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(cfg, &pool);
  sim.run(150);
  sim.set_surface_sampling(true);
  sim.run(300);
  const core::SurfaceStats s = sim.surface();
  const double speed_ratio =
      cfg.mach * std::sqrt(cmdsmc::physics::theory::kGammaDiatomic / 2.0);
  const double cd_fm = sphere_cd_free_molecular_specular(speed_ratio);
  EXPECT_NEAR(s.cd / cd_fm, 1.0, 0.10)
      << "Cd " << s.cd << " vs free-molecular " << cd_fm;
  // A revolved body has zero net lateral force by symmetry.
  EXPECT_EQ(s.cl, 0.0);
  // The run really was collisionless.
  EXPECT_EQ(sim.counters().collisions, 0u);
}

TEST(Axisymmetric, CheckpointRoundTripReproducesTheRun) {
  core::SimConfig cfg = tunnel_config();
  cfg.lambda_inf = 0.5;
  cfg.body = geom::Body::Cylinder(24.0, 0.0, 5.0, 16);
  cmdp::ThreadPool pool(2);

  core::SimulationD sim(cfg, &pool);
  sim.set_sampling(true);
  sim.set_surface_sampling(true);
  sim.run(25);
  const std::string path = "axi_checkpoint_test.bin";
  core::save_checkpoint(path, sim);
  sim.run(15);
  const core::SurfaceStats want = sim.surface();
  const double want_mass = sim.flow_moments().mass;

  core::SimulationD resumed(cfg, &pool);
  core::load_checkpoint(path, resumed);
  resumed.set_sampling(true);
  resumed.set_surface_sampling(true);
  resumed.run(15);
  const core::SurfaceStats got = resumed.surface();
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.cd, want.cd);
  EXPECT_EQ(got.heat_total, want.heat_total);
  EXPECT_EQ(resumed.flow_moments().mass, want_mass);
  EXPECT_EQ(resumed.counters().cloned, sim.counters().cloned);
  EXPECT_EQ(resumed.counters().merged, sim.counters().merged);
  std::remove(path.c_str());
}

TEST(Axisymmetric, PlanarRunsCarryNoWeightArray) {
  core::SimConfig cfg;
  cfg.nx = 32;
  cfg.ny = 24;
  cfg.has_wedge = false;
  cfg.particles_per_cell = 6.0;
  cmdp::ThreadPool pool(2);
  core::SimulationD sim(cfg, &pool);
  sim.run(5);
  EXPECT_FALSE(sim.particles().has_weight);
  EXPECT_TRUE(sim.particles().weight.empty());
  EXPECT_TRUE(sim.cell_volume().empty());
  EXPECT_EQ(sim.counters().cloned, 0u);
  EXPECT_EQ(sim.counters().merged, 0u);
}
