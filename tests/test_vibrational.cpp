// Vibrational relaxation extension (paper "Future Work"): two vibrational
// DOF that exchange with the collision pool at a controllable rate.
#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.h"

namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;

namespace {

core::SimConfig vib_box(double exchange_prob, double vib_t0) {
  core::SimConfig cfg;
  cfg.nx = 20;
  cfg.ny = 20;
  cfg.closed_box = true;
  cfg.has_wedge = false;
  cfg.mach = 0.01;
  cfg.sigma = 0.2;
  cfg.lambda_inf = 0.0;
  cfg.particles_per_cell = 30.0;
  cfg.reservoir_fraction = 0.0;
  cfg.vibrational = true;
  cfg.vib_exchange_prob = exchange_prob;
  cfg.vib_init_temperature = vib_t0;
  cfg.seed = 606;
  return cfg;
}

// Per-DOF energies (trans, rot, vib).
struct DofEnergies {
  double trans, rot, vib;
};

DofEnergies dof_energies(const core::SimulationD& sim) {
  const auto& s = sim.particles();
  DofEnergies e{0, 0, 0};
  for (std::size_t i = 0; i < s.size(); ++i) {
    e.trans += s.ux[i] * s.ux[i] + s.uy[i] * s.uy[i] + s.uz[i] * s.uz[i];
    e.rot += s.r0[i] * s.r0[i] + s.r1[i] * s.r1[i];
    e.vib += s.v0[i] * s.v0[i] + s.v1[i] * s.v1[i];
  }
  e.trans /= 3.0;
  e.rot /= 2.0;
  e.vib /= 2.0;
  return e;
}

}  // namespace

TEST(Vibrational, ValidatesConfig) {
  auto cfg = vib_box(0.2, 1.0);
  EXPECT_NO_THROW(cfg.validate());
  cfg.vib_exchange_prob = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = vib_box(0.2, -1.0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Vibrational, DisabledByDefaultAndNoVibArrays) {
  core::SimConfig cfg;
  cfg.closed_box = true;
  cfg.has_wedge = false;
  cfg.mach = 0.01;
  cfg.nx = cfg.ny = 8;
  cmdp::ThreadPool pool(2);
  core::SimulationD sim(cfg, &pool);
  EXPECT_TRUE(sim.particles().v0.empty());
}

TEST(Vibrational, EnergyConservedWithExchange) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(vib_box(0.3, 1.0), &pool);
  const double e0 = sim.total_energy();
  sim.run(80);
  EXPECT_NEAR(sim.total_energy() / e0, 1.0, 1e-10);
}

TEST(Vibrational, ColdVibrationRelaxesToEquipartition) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(vib_box(0.3, 0.0), &pool);
  const auto before = dof_energies(sim);
  EXPECT_NEAR(before.vib, 0.0, 1e-12);
  sim.run(120);
  const auto after = dof_energies(sim);
  // All seven DOF share the energy: per-DOF ratios near 1.
  EXPECT_NEAR(after.vib / after.trans, 1.0, 0.08);
  EXPECT_NEAR(after.rot / after.trans, 1.0, 0.08);
}

TEST(Vibrational, RelaxationRateScalesWithExchangeProbability) {
  cmdp::ThreadPool pool(4);
  core::SimulationD fast(vib_box(0.5, 0.0), &pool);
  core::SimulationD slow(vib_box(0.05, 0.0), &pool);
  const int steps = 10;
  fast.run(steps);
  slow.run(steps);
  const auto ef = dof_energies(fast);
  const auto es = dof_energies(slow);
  // After a few steps the fast exchanger has moved much more energy into
  // vibration.
  EXPECT_GT(ef.vib, 3.0 * es.vib);
}

TEST(Vibrational, ZeroExchangeFreezesVibration) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(vib_box(0.0, 0.0), &pool);
  sim.run(40);
  EXPECT_NEAR(dof_energies(sim).vib, 0.0, 1e-12);
}

TEST(Vibrational, HotVibrationCoolsTowardEquipartition) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(vib_box(0.3, 4.0), &pool);  // vib starts at 4 T_inf
  const auto before = dof_energies(sim);
  EXPECT_GT(before.vib / before.trans, 3.0);
  sim.run(120);
  const auto after = dof_energies(sim);
  EXPECT_NEAR(after.vib / after.trans, 1.0, 0.1);
}

TEST(Vibrational, WorksWithFixedPointEngine) {
  cmdp::ThreadPool pool(4);
  core::SimulationF sim(vib_box(0.3, 0.0), &pool);
  const double e0 = sim.total_energy();
  sim.run(60);
  EXPECT_NEAR(sim.total_energy() / e0, 1.0, 2e-3);
  // Vibration picked up energy.
  const auto& s = sim.particles();
  double ev = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    ev += s.v0[i].to_double() * s.v0[i].to_double() +
          s.v1[i].to_double() * s.v1[i].to_double();
  }
  EXPECT_GT(ev, 0.0);
}

// A plunger-fed wedge tunnel with no reservoir synthesizes every injected
// particle.  Synthesis draws the vibrational pair like every other particle
// source, and with exchange off the synthesized particles keep that draw.
TEST(Vibrational, SynthesizedParticlesCarryVibrationalEnergy) {
  core::SimConfig cfg;
  cfg.nx = 40;
  cfg.ny = 20;
  cfg.wedge_x0 = 10.0;
  cfg.wedge_base = 15.0;
  cfg.reservoir_fraction = 0.0;
  cfg.vibrational = true;
  cfg.vib_exchange_prob = 0.0;
  cfg.seed = 607;
  cmdp::ThreadPool pool(2);
  core::SimulationD sim(cfg, &pool);
  const std::size_t initial = sim.total_count();
  sim.run(10);
  ASSERT_GT(sim.counters().synthesized, 20u);
  const auto& s = sim.particles();
  double e_new = 0.0;
  std::size_t n_new = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.id[i] < initial) continue;
    e_new += 0.5 * (s.v0[i] * s.v0[i] + s.v1[i] * s.v1[i]);
    ++n_new;
  }
  EXPECT_EQ(n_new, sim.counters().synthesized);
  // Mean vibrational energy per particle: sigma^2 * T_vib for the pair.
  const double want = cfg.sigma * cfg.sigma * cfg.vib_init_temperature;
  EXPECT_NEAR(e_new / static_cast<double>(n_new), want, 0.3 * want);
}
