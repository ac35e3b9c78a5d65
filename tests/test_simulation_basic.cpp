#include "core/simulation.h"

#include <gtest/gtest.h>

#include <cmath>

namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;
using cmdsmc::fixedpoint::Fixed32;

namespace {

core::SimConfig small_wedge_config() {
  core::SimConfig cfg;
  cfg.nx = 49;
  cfg.ny = 32;
  cfg.wedge_x0 = 10.0;
  cfg.wedge_base = 12.0;
  cfg.particles_per_cell = 8.0;
  cfg.seed = 77;
  return cfg;
}

}  // namespace

TEST(SimConfigValidate, RejectsNonsense) {
  auto bad = small_wedge_config();
  bad.mach = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.sigma = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.lambda_inf = -0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.particles_per_cell = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.wedge_x0 = 45.0;  // wedge pokes out of the domain
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.wedge_angle_deg = 70.0;  // taller than the tunnel
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.sort_scale = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.transpositions_per_collision = 9;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.sigma = 1.0;  // Mach 4 stream would cross > 2 cells/step
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  EXPECT_NO_THROW(small_wedge_config().validate());
}

// Sort keys are 32-bit.  A key space that wraps past 2^32 would sort
// particles out of cell order without any error, so validate() refuses it
// before anything is allocated — counting the reservoir's pairing cells.
TEST(SimConfigValidate, RejectsSortKeySpaceBeyond32Bits) {
  core::SimConfig cfg = small_wedge_config();
  cfg.nx = 4100;
  cfg.ny = 4100;
  cfg.sort_scale = 256;  // 16.8M cells x 256 = 4.30e9 keys
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // The grid alone fits at 255 (4.287e9 keys); its reservoir does not.
  cfg.sort_scale = 255;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.reservoir_fraction = 0.0;
  EXPECT_NO_THROW(cfg.validate());

  cfg.reservoir_fraction = 0.1;
  cfg.sort_scale = 64;
  EXPECT_NO_THROW(cfg.validate());
}

// Sorted positions, particle ids and the balance pass's merge slots are
// 32-bit, so validate() refuses an initial population (flow plus
// reservoir) of 2^32 particles or more, before anything is allocated.
TEST(SimConfigValidate, RejectsParticleCountBeyond32Bits) {
  core::SimConfig cfg;           // 98 x 64 cells, 10% reservoir
  cfg.particles_per_cell = 1e6;  // ~6.9e9 particles
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // The bound is 2^32 / (6272 x 1.1) = 622531.8 particles per cell.
  cfg.particles_per_cell = 623000.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.particles_per_cell = 622000.0;
  EXPECT_NO_THROW(cfg.validate());
  // The reservoir counts: without it the denser fill fits.
  cfg.particles_per_cell = 623000.0;
  cfg.reservoir_fraction = 0.0;
  EXPECT_NO_THROW(cfg.validate());
}

// The sort's key table costs 4 bytes per key and is swept every step, so
// validate() caps it at 32 keys per freestream particle.
TEST(SimConfigValidate, RejectsKeyTablesHeavierThanTheParticles) {
  core::SimConfig cfg = small_wedge_config();  // 8 particles per cell
  cfg.sort_scale = 256;
  EXPECT_NO_THROW(cfg.validate());
  cfg.particles_per_cell = 4.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.sort_scale = 128;
  EXPECT_NO_THROW(cfg.validate());
  cfg.particles_per_cell = 0.25;
  cfg.sort_scale = 8;
  EXPECT_NO_THROW(cfg.validate());
  cfg.sort_scale = 9;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Simulation, ConstructsWithExpectedPopulation) {
  cmdp::ThreadPool pool(4);
  const auto cfg = small_wedge_config();
  core::SimulationD sim(cfg, &pool);
  // Flow fill: ppc * open volume; reservoir: 10% on top.
  double open = 0.0;
  for (double f : sim.open_fraction()) open += f;
  const auto expect_flow =
      static_cast<std::size_t>(std::llround(cfg.particles_per_cell * open));
  EXPECT_EQ(sim.flow_count(), expect_flow);
  EXPECT_EQ(sim.reservoir_count(),
            static_cast<std::size_t>(
                std::llround(0.10 * static_cast<double>(expect_flow))));
  EXPECT_EQ(sim.total_count(), sim.flow_count() + sim.reservoir_count());
  EXPECT_EQ(sim.step_index(), 0);
}

TEST(Simulation, NoParticleStartsInsideTheWedge) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(small_wedge_config(), &pool);
  const auto& s = sim.particles();
  const auto* w = sim.wedge();
  ASSERT_NE(w, nullptr);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag) continue;
    ASSERT_FALSE(w->inside(s.x[i], s.y[i])) << i;
  }
}

TEST(Simulation, StepKeepsTotalCountAndInvariants) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(small_wedge_config(), &pool);
  const std::size_t total = sim.total_count();
  sim.run(25);
  EXPECT_EQ(sim.step_index(), 25);
  // Total conserved unless the reservoir ran dry (it should not).
  EXPECT_EQ(sim.counters().synthesized, 0u);
  EXPECT_EQ(sim.total_count(), total);
  EXPECT_EQ(sim.total_count(), sim.flow_count() + sim.reservoir_count());
  // Particles stay inside the domain and outside the wedge.
  const auto& s = sim.particles();
  const auto* w = sim.wedge();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag) continue;
    ASSERT_GE(s.x[i], 0.0);
    ASSERT_LT(s.x[i], 49.0);
    ASSERT_GE(s.y[i], 0.0);
    ASSERT_LT(s.y[i], 32.0);
    ASSERT_FALSE(w->inside(s.x[i], s.y[i]));
  }
}

TEST(Simulation, CollisionsHappenAndAreCounted) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(small_wedge_config(), &pool);
  sim.run(5);
  const auto& c = sim.counters();
  EXPECT_GT(c.candidates, 0u);
  EXPECT_GT(c.collisions, 0u);
  EXPECT_GT(c.reservoir_collisions, 0u);
  EXPECT_LE(c.collisions, c.candidates);
  // Near continuum (lambda = 0): every flow candidate pair collides.
  EXPECT_EQ(c.collisions + c.reservoir_collisions, c.candidates);
}

TEST(Simulation, DeterministicAcrossThreadCounts) {
  // Counter-based RNG + stable sort => the particle state evolution is
  // bit-identical no matter how many lanes execute it.
  cmdp::ThreadPool pool1(1);
  cmdp::ThreadPool pool7(7);
  const auto cfg = small_wedge_config();
  core::SimulationD a(cfg, &pool1);
  core::SimulationD b(cfg, &pool7);
  a.run(12);
  b.run(12);
  ASSERT_EQ(a.total_count(), b.total_count());
  const auto& sa = a.particles();
  const auto& sb = b.particles();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa.x[i], sb.x[i]) << i;
    ASSERT_EQ(sa.y[i], sb.y[i]) << i;
    ASSERT_EQ(sa.ux[i], sb.ux[i]) << i;
    ASSERT_EQ(sa.uy[i], sb.uy[i]) << i;
    ASSERT_EQ(sa.uz[i], sb.uz[i]) << i;
    ASSERT_EQ(sa.perm[i], sb.perm[i]) << i;
  }
  EXPECT_EQ(a.counters().collisions, b.counters().collisions);
}

TEST(Simulation, DifferentSeedsDiverge) {
  cmdp::ThreadPool pool(4);
  auto cfg = small_wedge_config();
  core::SimulationD a(cfg, &pool);
  cfg.seed = 78;
  core::SimulationD b(cfg, &pool);
  a.run(5);
  b.run(5);
  EXPECT_NE(a.total_energy(), b.total_energy());
}

TEST(Simulation, FixedPointEngineRuns) {
  cmdp::ThreadPool pool(4);
  core::SimulationF sim(small_wedge_config(), &pool);
  const double e0 = sim.total_energy();
  sim.run(10);
  EXPECT_GT(e0, 0.0);
  EXPECT_EQ(sim.counters().synthesized, 0u);
  // Fixed-point run stays numerically sane.
  const double e1 = sim.total_energy();
  EXPECT_NEAR(e1 / e0, 1.0, 0.2);
}

TEST(Simulation, PlungerCyclesAndRefills) {
  cmdp::ThreadPool pool(4);
  auto cfg = small_wedge_config();
  core::SimulationD sim(cfg, &pool);
  const auto res0 = sim.reservoir_count();
  sim.run(40);
  // The plunger must have retracted at least once and pulled reservoir
  // particles into the flow.
  EXPECT_GT(sim.counters().injected, 0u);
  EXPECT_GT(sim.counters().removed, 0u);
  // Reservoir level stays within a sane band (injections ~ removals).
  EXPECT_GT(sim.reservoir_count(), res0 / 4);
  EXPECT_LT(sim.reservoir_count(), res0 * 4);
}

TEST(Simulation, SoftSourceModeAlsoMaintainsInflow) {
  cmdp::ThreadPool pool(4);
  auto cfg = small_wedge_config();
  cfg.upstream = cmdsmc::geom::UpstreamMode::kSoftSource;
  core::SimulationD sim(cfg, &pool);
  sim.run(40);
  EXPECT_GT(sim.counters().injected, 0u);
  // Upstream strip density should be near freestream.
  const auto& s = sim.particles();
  std::size_t strip = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag) continue;
    if (s.x[i] < 1.0) ++strip;
  }
  const double target = cfg.particles_per_cell * cfg.ny;
  EXPECT_NEAR(static_cast<double>(strip), target, 0.35 * target);
}

TEST(Simulation, SamplingAccumulatesOnlyWhenEnabled) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(small_wedge_config(), &pool);
  sim.run(3);
  EXPECT_EQ(sim.field().samples, 0);
  sim.set_sampling(true);
  sim.run(4);
  EXPECT_EQ(sim.field().samples, 4);
  sim.reset_sampling();
  EXPECT_EQ(sim.field().samples, 0);
}

TEST(Simulation, PhaseTimersCoverAllPhases) {
  cmdp::ThreadPool pool(2);
  core::SimulationD sim(small_wedge_config(), &pool);
  sim.set_sampling(true);
  sim.run(5);
  using S = core::SimulationD;
  EXPECT_GT(sim.phase_seconds(S::kPhaseMove), 0.0);
  EXPECT_GT(sim.phase_seconds(S::kPhaseSort), 0.0);
  // Selection is fused into the collide traversal; its slot reads 0 and the
  // fused pass reports under kPhaseCollide.
  EXPECT_EQ(sim.phase_seconds(S::kPhaseSelect), 0.0);
  EXPECT_GT(sim.phase_seconds(S::kPhaseCollide), 0.0);
  EXPECT_GT(sim.phase_seconds(S::kPhaseSample), 0.0);
  EXPECT_NEAR(sim.total_seconds(),
              sim.phase_seconds(S::kPhaseMove) +
                  sim.phase_seconds(S::kPhaseSort) +
                  sim.phase_seconds(S::kPhaseSelect) +
                  sim.phase_seconds(S::kPhaseCollide) +
                  sim.phase_seconds(S::kPhaseSample),
              1e-9);
}
