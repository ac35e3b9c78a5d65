// VTK output, checkpoint/restart, steady detection.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cmdp/parallel.h"
#include "core/checkpoint.h"
#include "core/simulation.h"
#include "core/steady.h"
#include "io/vtk.h"
#include "scenario/scenario.h"

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

namespace {

// Every array of `a` holds the same bytes as the same array of `b`.
template <class Real>
void expect_same_arrays(const core::ParticleStore<Real>& a,
                        const core::ParticleStore<Real>& b) {
  ASSERT_EQ(a.has_z, b.has_z);
  ASSERT_EQ(a.has_vib, b.has_vib);
  ASSERT_EQ(a.has_weight, b.has_weight);
  core::ParticleStore<Real>::for_each_array(
      [](const char* name, const auto& u, const auto& v) {
        ASSERT_EQ(u.size(), v.size()) << name;
        EXPECT_EQ(std::memcmp(u.data(), v.data(), u.size() * sizeof(u[0])), 0)
            << name;
      },
      a, b);
}

core::SimConfig tiny_wedge_cfg() {
  core::SimConfig cfg;
  cfg.nx = 8;
  cfg.ny = 6;
  cfg.wedge_x0 = 2.0;
  cfg.wedge_base = 3.0;
  cfg.particles_per_cell = 2.0;
  return cfg;
}

}  // namespace

TEST(Checkpoint, RoundTripsDoubleStore) {
  // A 3D vibrational simulation's checkpoint gives back every array of its
  // store, z, v0 and v1 included, bit for bit.
  cmdp::ThreadPool pool(2);
  core::SimConfig cfg;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.nz = 4;
  cfg.wedge_x0 = 4.0;
  cfg.wedge_base = 6.0;
  cfg.particles_per_cell = 3.0;
  cfg.vibrational = true;
  core::SimulationD sim(cfg, &pool);
  sim.run(5);
  const std::string path = testing::TempDir() + "/cmdsmc_ckpt.bin";
  core::save_checkpoint(path, sim);
  const core::Checkpoint<double> r = core::read_checkpoint<double>(path);
  std::remove(path.c_str());
  EXPECT_TRUE(r.store.has_z);
  EXPECT_TRUE(r.store.has_vib);
  EXPECT_FALSE(r.store.has_weight);
  expect_same_arrays(r.store, sim.particles());
  EXPECT_EQ(r.geometry_hash, sim.geometry_hash());
  EXPECT_EQ(r.state.step, sim.step_index());
}

TEST(Checkpoint, RoundTripsFixedStoreAndRejectsTypeMismatch) {
  cmdp::ThreadPool pool(2);
  core::SimulationF sim(tiny_wedge_cfg(), &pool);
  sim.run(3);
  const std::string path = testing::TempDir() + "/cmdsmc_ckpt_fixed.bin";
  core::save_checkpoint(path, sim);
  expect_same_arrays(
      core::read_checkpoint<cmdsmc::fixedpoint::Fixed32>(path).store,
      sim.particles());
  EXPECT_THROW(core::read_checkpoint<double>(path), std::runtime_error);
  core::SimulationD wrong(tiny_wedge_cfg(), &pool);
  EXPECT_THROW(core::load_checkpoint(path, wrong), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbageFile) {
  // Every corrupt file is refused with a runtime_error naming the
  // checkpoint: never a crash, a length_error or a huge allocation, and
  // never a store whose arrays disagree on the particle count.
  cmdp::ThreadPool pool(2);
  const std::string path = testing::TempDir() + "/cmdsmc_garbage.bin";
  core::SimulationD target(tiny_wedge_cfg(), &pool);
  auto expect_refused = [&](const char* what) {
    try {
      core::load_checkpoint(path, target);
      ADD_FAILURE() << what << ": accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("checkpoint:", 0), 0u)
          << what << ": " << e.what();
      return std::string(e.what());
    }
    return std::string();
  };
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a checkpoint";
  }
  expect_refused("text file");

  core::SimulationD sim(tiny_wedge_cfg(), &pool);
  sim.run(2);
  core::save_checkpoint(path, sim);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  expect_refused("truncated file");

  core::save_checkpoint(path, sim);
  {
    // The field-sum length field follows the magic (8 bytes), the scalar
    // tag (4), the geometry hash (8), the step (8), the plunger x (8), the
    // reservoir count (8), the counters (64) and the sample count (4).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t huge = std::uint64_t{1} << 62;
    f.seekp(112);
    f.write(reinterpret_cast<const char*>(&huge), sizeof huge);
  }
  expect_refused("length field of 2^62");

  sim.particles().y.pop_back();
  core::save_checkpoint(path, sim);
  EXPECT_NE(expect_refused("y array one entry short").find(" y "),
            std::string::npos);
  EXPECT_EQ(target.step_index(), 0);
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumesSimulationDeterministically) {
  // Running 20 steps straight equals running 10, checkpointing, restoring
  // into a fresh simulation and running 10 more, bit for bit.
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
  core::save_checkpoint(path, b);
  core::SimulationD c(cfg, &pool);
  core::load_checkpoint(path, c);
  std::remove(path.c_str());
  c.run(10);
  EXPECT_EQ(c.step_index(), a.step_index());
  EXPECT_EQ(c.counters().candidates, a.counters().candidates);
  EXPECT_EQ(c.counters().collisions, a.counters().collisions);
  expect_same_arrays(c.particles(), a.particles());
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

// A resumed multi-lane run must split its lanes as the uninterrupted run
// does: the surface sampler keeps one double sum per lane of the move and
// adds them up each step, so another split rounds the sums differently.
// cylinder-mach10 at ppc 4 puts ~26k particles on four lanes.
TEST(Checkpoint, ResumedRunReproducesSurfaceSumsAcrossLanes) {
  cmdsmc::scenario::ScenarioSpec spec =
      cmdsmc::scenario::get_scenario("cylinder-mach10");
  cmdsmc::scenario::apply_override(spec, "ppc", "4");
  const core::SimConfig cfg = spec.build_config();
  cmdp::ThreadPool pool(4);
  core::SimulationD a(cfg, &pool);
  core::SimulationD b(cfg, &pool);
  for (core::SimulationD* sim : {&a, &b}) {
    sim->set_sampling(true);
    sim->set_surface_sampling(true);
  }
  a.run(10);
  ASSERT_GT(a.total_count(), 4u * cmdp::kSerialCutoff);
  const core::ParticleStore<double> store = a.particles();
  const core::SimulationD::ResumeState state = a.resume_state();
  a.run(5);
  b.restore(store, state);
  b.run(5);

  const core::SimulationD::ResumeState ra = a.resume_state();
  const core::SimulationD::ResumeState rb = b.resume_state();
  ASSERT_EQ(ra.surface_sums.size(), rb.surface_sums.size());
  std::size_t differ = 0;
  for (std::size_t k = 0; k < ra.surface_sums.size(); ++k)
    differ += ra.surface_sums[k] != rb.surface_sums[k] ? 1 : 0;
  EXPECT_EQ(differ, 0u) << "of " << ra.surface_sums.size() << " surface sums";
  EXPECT_EQ(ra.surface_samples, rb.surface_samples);
  EXPECT_EQ(ra.field_samples, rb.field_samples);
  EXPECT_EQ(ra.field_sums, rb.field_sums);
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
  std::remove(path.c_str());
}

namespace {

// FNV-1a over a file's bytes.
std::uint64_t file_fnv1a(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::uint64_t h = 1469598103934665603ull;
  for (char c; is.get(c);) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct FileBytes {
  std::uintmax_t size = 0;
  std::uint64_t hash = 0;
};

// Size and hash of the checkpoint of a run of 4 steps plus 3 with field and
// surface sampling on.
template <class Real>
FileBytes pinned_checkpoint(const core::SimConfig& cfg, unsigned lanes,
                            const std::string& path) {
  cmdp::ThreadPool pool(lanes);
  core::Simulation<Real> sim(cfg, &pool);
  sim.run(4);
  sim.set_sampling(true);
  sim.set_surface_sampling(true);
  sim.run(3);
  core::save_checkpoint(path, sim);
  const FileBytes out{std::filesystem::file_size(path), file_fnv1a(path)};
  std::remove(path.c_str());
  return out;
}

core::SimConfig pin_wedge_cfg() {
  core::SimConfig cfg;
  cfg.nx = 24;
  cfg.ny = 16;
  cfg.wedge_x0 = 6.0;
  cfg.wedge_base = 8.0;
  cfg.particles_per_cell = 3.0;
  return cfg;
}

core::SimConfig pin_duct_cfg() {
  core::SimConfig cfg;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.nz = 4;
  cfg.wedge_x0 = 4.0;
  cfg.wedge_base = 6.0;
  cfg.particles_per_cell = 3.0;
  cfg.vibrational = true;
  return cfg;
}

core::SimConfig pin_sphere_cfg() {
  core::SimConfig cfg;
  cfg.nx = 24;
  cfg.ny = 12;
  cfg.has_wedge = false;
  cfg.axisymmetric = true;
  cfg.body = cmdsmc::geom::Body::Cylinder(10.0, 0.0, 3.0, 12);
  cfg.wall = cmdsmc::geom::WallModel::kDiffuseIsothermal;
  cfg.particles_per_cell = 4.0;
  cfg.mach = 6.0;
  cfg.sigma = 0.12;
  cfg.lambda_inf = 0.5;
  return cfg;
}

}  // namespace

TEST(Checkpoint, BytesArePinned) {
  // The simulation checkpoint's bytes, for four layouts: the planar wedge in
  // double and Fixed32, a 3D vibrational duct (z, v0, v1 columns) and a
  // diffuse axisymmetric sphere (weight column, surface sums).  A change to
  // the file layout fails here and takes a new magic.
  const std::string path = testing::TempDir() + "/cmdsmc_pin_ckpt.bin";
  struct Case {
    const char* name;
    FileBytes expect;
    FileBytes (*run)(unsigned, const std::string&);
  };
  const Case cases[] = {
      {"wedge double",
       {105860, 0x80eea1e4ddee558aull},
       [](unsigned l, const std::string& p) {
         return pinned_checkpoint<double>(pin_wedge_cfg(), l, p);
       }},
      {"wedge fixed",
       {72064, 0xb1437ecd470c27e2ull},
       [](unsigned l, const std::string& p) {
         return pinned_checkpoint<cmdsmc::fixedpoint::Fixed32>(pin_wedge_cfg(),
                                                               l, p);
       }},
      {"vibrational duct3d",
       {174439, 0xaee5ad203d1686b3ull},
       [](unsigned l, const std::string& p) {
         return pinned_checkpoint<double>(pin_duct_cfg(), l, p);
       }},
      {"axi sphere",
       {111006, 0x5bad2b5848696373ull},
       [](unsigned l, const std::string& p) {
         return pinned_checkpoint<double>(pin_sphere_cfg(), l, p);
       }},
  };
  for (const Case& c : cases) {
    for (const unsigned lanes : {1u, 3u}) {
      const FileBytes got = c.run(lanes, path);
      EXPECT_EQ(got.size, c.expect.size) << c.name << ", " << lanes;
      EXPECT_EQ(got.hash, c.expect.hash)
          << c.name << ", " << lanes << " lanes: 0x" << std::hex << got.hash;
    }
  }
}

TEST(Checkpoint, EveryTruncationIsRefused) {
  // Every proper prefix of a simulation checkpoint is refused with an error
  // naming the checkpoint, and the target simulation keeps its step index
  // and particle store.
  cmdp::ThreadPool pool(2);
  core::SimConfig cfg;
  cfg.nx = 8;
  cfg.ny = 6;
  cfg.wedge_x0 = 2.0;
  cfg.wedge_base = 3.0;
  cfg.particles_per_cell = 2.0;
  core::SimulationD src(cfg, &pool);
  src.run(3);
  src.set_sampling(true);
  src.set_surface_sampling(true);
  src.run(2);
  const std::string full = testing::TempDir() + "/cmdsmc_trunc_full.bin";
  const std::string path = testing::TempDir() + "/cmdsmc_trunc.bin";
  core::save_checkpoint(full, src);
  std::string bytes;
  {
    std::ifstream is(full, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  std::remove(full.c_str());
  ASSERT_GT(bytes.size(), 1000u);

  core::SimulationD target(cfg, &pool);
  target.run(1);
  const std::int64_t step0 = target.step_index();
  const auto x0 = target.particles().x;
  const auto id0 = target.particles().id;
  std::size_t refused = 0;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    try {
      core::load_checkpoint(path, target);
      ADD_FAILURE() << "prefix of " << len << " bytes accepted";
      break;
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()).rfind("checkpoint:", 0) != 0) {
        ADD_FAILURE() << "prefix of " << len << " bytes: " << e.what();
        break;
      }
      ++refused;
    }
    if (target.step_index() != step0) {
      ADD_FAILURE() << "prefix of " << len << " bytes moved the step index";
      break;
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(refused, bytes.size());
  EXPECT_EQ(target.particles().x, x0);
  EXPECT_EQ(target.particles().id, id0);
}

TEST(Checkpoint, TrailingBytesAreRefused) {
  // A checkpoint ends after its last array.  The same file with bytes
  // appended is refused with an error naming the checkpoint, and the
  // target simulation keeps its step index; the unpadded file still loads.
  const std::string full = testing::TempDir() + "/cmdsmc_trail_full.bin";
  const std::string path = testing::TempDir() + "/cmdsmc_trail.bin";
  cmdp::ThreadPool pool(2);
  for (const core::SimConfig& cfg :
       {pin_wedge_cfg(), pin_duct_cfg(), pin_sphere_cfg()}) {
    core::SimulationD src(cfg, &pool);
    src.run(3);
    core::save_checkpoint(full, src);
    std::string bytes;
    {
      std::ifstream is(full, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>());
    }
    for (const std::size_t extra : {std::size_t{1}, std::size_t{16}}) {
      {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << bytes << std::string(extra, '\x5a');
      }
      core::SimulationD target(cfg, &pool);
      try {
        core::load_checkpoint(path, target);
        ADD_FAILURE() << extra << " appended bytes accepted";
      } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_EQ(msg.rfind("checkpoint:", 0), 0u) << msg;
        EXPECT_NE(msg.find(std::to_string(extra) +
                           " bytes after the last array"),
                  std::string::npos)
            << msg;
      }
      EXPECT_EQ(target.step_index(), 0);
    }
    core::SimulationD target(cfg, &pool);
    EXPECT_NO_THROW(core::load_checkpoint(full, target));
    EXPECT_EQ(target.step_index(), 3);
  }
  std::remove(full.c_str());
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
