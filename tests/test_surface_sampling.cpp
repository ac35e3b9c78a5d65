#include "core/surface_sampling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <sstream>
#include <utility>
#include <vector>

#include "core/simulation.h"
#include "geom/scene.h"
#include "io/surface_csv.h"
#include "physics/theory.h"

namespace core = cmdsmc::core;
namespace geom = cmdsmc::geom;
namespace cmdp = cmdsmc::cmdp;
namespace io = cmdsmc::io;

namespace {

constexpr double kRad = std::numbers::pi / 180.0;

geom::Scene one_body(geom::Body body) {
  return geom::Scene(std::vector<geom::Body>{std::move(body)});
}

core::SimConfig body_wedge_config() {
  core::SimConfig cfg;
  cfg.nx = 98;
  cfg.ny = 64;
  cfg.mach = 4.0;
  cfg.sigma = 0.18;
  cfg.particles_per_cell = 8.0;
  cfg.body = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  cfg.seed = 2024;
  return cfg;
}

}  // namespace

// --- SurfaceSampler unit behavior --------------------------------------------

TEST(SurfaceSampler, NormalizesSyntheticEventsIntoFluxes) {
  // Unit square: segment 0 is the bottom edge, outward normal (0,-1),
  // tangent (+1,0), length 1.
  const geom::Scene sq = one_body(geom::Body::FlatPlate(0.0, 0.0, 1.0, 1.0));
  core::SurfaceSampler sampler(sq.total_segments(), 2, 1.0);
  ASSERT_TRUE(sampler.active());

  // One event per lane on the bottom face over two steps.  A particle
  // reflecting off the bottom face hands the wall +y momentum... no: it
  // arrives moving +y (toward the face from below the body is impossible —
  // the gas below moves up INTO the face), i.e. dp·n < 0 and pressure > 0.
  geom::WallEventBuffer ev;
  ev.add(0, 0.3, 1.0, 0.25);
  sampler.record(0, ev, 1.0);
  geom::WallEventBuffer ev2;
  ev2.add(0, 0.1, 1.0, 0.15);
  sampler.record(1, ev2, 1.0);
  sampler.end_step();
  sampler.end_step();

  const double rho = 2.0;
  const double sigma = 0.5;
  const double u = 2.0;
  const core::SurfaceStats s = sampler.finalize(sq, rho, sigma, u);
  EXPECT_EQ(s.samples, 2);
  EXPECT_NEAR(s.p_inf, rho * sigma * sigma, 1e-12);        // 0.5
  EXPECT_NEAR(s.q_inf, 0.5 * rho * u * u, 1e-12);          // 4
  const core::SurfaceSegmentStats& seg = s.segments[0];
  EXPECT_NEAR(seg.hits_per_step, 1.0, 1e-12);
  // p = -(sum dp . n) / (steps * area); n = (0,-1), sum dpy = 2.
  EXPECT_NEAR(seg.p, 1.0, 1e-12);
  // tau = (sum dp . t) / (steps * area); t = (1,0), sum dpx = 0.4.
  EXPECT_NEAR(seg.tau, 0.2, 1e-12);
  EXPECT_NEAR(seg.q, 0.2, 1e-12);
  EXPECT_NEAR(seg.cp, (1.0 - 0.5) / 4.0, 1e-12);
  EXPECT_NEAR(seg.cf, 0.2 / 4.0, 1e-12);
  EXPECT_NEAR(seg.ch, 0.2 / (0.5 * rho * u * u * u), 1e-12);
  // Integrated force and coefficients (chord = 1).
  EXPECT_NEAR(s.fx, 0.2, 1e-12);
  EXPECT_NEAR(s.fy, 1.0, 1e-12);
  EXPECT_NEAR(s.cd, 0.2 / 4.0, 1e-12);
  EXPECT_NEAR(s.cl, 1.0 / 4.0, 1e-12);
  EXPECT_NEAR(s.heat_total, 0.2, 1e-12);

  sampler.reset();
  const core::SurfaceStats z = sampler.finalize(sq, rho, sigma, u);
  EXPECT_EQ(z.samples, 0);
  EXPECT_NEAR(z.segments[0].p, 0.0, 1e-12);
}

TEST(SurfaceSampler, SplitsIncidentAndReflectedFluxes) {
  const geom::Scene sq = one_body(geom::Body::FlatPlate(0.0, 0.0, 1.0, 1.0));
  core::SurfaceSampler sampler(sq.total_segments(), 1, 1.0);
  // Bottom face (area 1): one event carrying the full split.  A particle
  // arrives with normal momentum 0.8 and energy 0.5, leaves with normal
  // momentum 0.6 and energy 0.3 (the wall kept 0.2).
  geom::WallEventBuffer ev;
  ev.add(0, 0.0, 1.4, 0.2, /*p_in=*/0.8, /*p_out=*/0.6, /*e_in=*/0.5,
         /*e_out=*/0.3);
  sampler.record(0, ev, 1.0);
  sampler.end_step();
  const core::SurfaceStats s = sampler.finalize(sq, 1.0, 0.2, 1.0);
  const core::SurfaceSegmentStats& seg = s.segments[0];
  EXPECT_NEAR(seg.p_incident, 0.8, 1e-12);
  EXPECT_NEAR(seg.p_reflected, 0.6, 1e-12);
  EXPECT_NEAR(seg.q_incident, 0.5, 1e-12);
  EXPECT_NEAR(seg.q_reflected, 0.3, 1e-12);
  EXPECT_NEAR(seg.q, seg.q_incident - seg.q_reflected, 1e-12);
  EXPECT_NEAR(s.q_incident_total, 0.5, 1e-12);
  EXPECT_NEAR(s.q_reflected_total, 0.3, 1e-12);
  // The split reaches the CSV as the p_in/p_out/q_in/q_out columns.
  std::ostringstream os;
  io::write_surface_csv(os, s);
  EXPECT_NE(os.str().find("p_in,p_out,q_in,q_out"), std::string::npos);
}

TEST(SurfaceSampler, ZeroFreestreamReportsRawFluxesOnly) {
  const geom::Scene sq = one_body(geom::Body::FlatPlate(0.0, 0.0, 1.0, 1.0));
  core::SurfaceSampler sampler(sq.total_segments(), 1, 1.0);
  geom::WallEventBuffer ev;
  ev.add(0, 0.0, 2.0, 0.5);
  sampler.record(0, ev, 1.0);
  sampler.end_step();
  const core::SurfaceStats s = sampler.finalize(sq, 1.0, 0.2, 0.0);
  EXPECT_GT(s.segments[0].p, 0.0);
  EXPECT_EQ(s.segments[0].cp, 0.0);  // no dynamic pressure to reference
  EXPECT_EQ(s.cd, 0.0);
}

TEST(SurfaceCsv, WritesHeaderAndSkipsEmbeddedSegments) {
  const geom::Scene w = one_body(geom::Body::Wedge(20.0, 25.0, 30.0 * kRad));
  core::SurfaceSampler sampler(w.total_segments(), 1, 1.0);
  geom::WallEventBuffer ev;
  ev.add(2, -0.5, 0.9, 0.0);
  sampler.record(0, ev, 1.0);
  sampler.end_step();
  const core::SurfaceStats s = sampler.finalize(w, 1.0, 0.18, 1.0);
  std::ostringstream os;
  io::write_surface_csv(os, s);
  const std::string text = os.str();
  EXPECT_NE(text.find("# samples=1"), std::string::npos);
  EXPECT_NE(text.find("segment,x,y,"), std::string::npos);
  // Three segments, one embedded (the floor): header comment + column row +
  // two data rows.
  int lines = 0;
  for (char c : text)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 4);
}

// --- Simulation integration --------------------------------------------------

TEST(SurfaceIntegration, WedgeRampPressureMatchesObliqueShockTheory) {
  cmdp::ThreadPool pool(0);
  core::SimulationD sim(body_wedge_config(), &pool);
  sim.run(300);
  sim.set_surface_sampling(true);
  sim.run(300);
  const core::SurfaceStats s = sim.surface();
  ASSERT_EQ(s.samples, 300);
  ASSERT_EQ(s.segments.size(), 3u);

  namespace th = cmdsmc::physics::theory;
  const double beta = th::oblique_shock_angle(30.0 * kRad, 4.0);
  const double mn = 4.0 * std::sin(beta);
  const double p_ratio = th::normal_shock_pressure_ratio(mn);
  const double cp_theory =
      (p_ratio - 1.0) / (0.5 * th::kGammaDiatomic * 16.0);

  // The compression ramp (segment 2) carries the load.
  const core::SurfaceSegmentStats& ramp = s.segments[2];
  EXPECT_GT(ramp.hits_per_step, 10.0);
  EXPECT_NEAR(ramp.cp, cp_theory, 0.25 * cp_theory);
  // Specular walls exert no shear and absorb no heat.
  EXPECT_NEAR(ramp.cf, 0.0, 0.05);
  EXPECT_NEAR(ramp.ch, 0.0, 1e-9);
  // Specular reflection preserves energy exactly, so the incident and
  // reflected energy fluxes coincide while both stay positive.
  EXPECT_GT(ramp.q_incident, 0.0);
  EXPECT_NEAR(ramp.q_incident, ramp.q_reflected,
              1e-9 * std::max(1.0, ramp.q_incident));
  // Pressure decomposes into the incident + reflected momentum streams.
  EXPECT_NEAR(ramp.p, ramp.p_incident + ramp.p_reflected,
              1e-9 * std::max(1.0, ramp.p));
  // The wake-facing back face sees far less pressure than the ramp.
  EXPECT_LT(s.segments[1].p, 0.5 * ramp.p);
  // Ramp normal points up-left: drag positive, lift negative (downforce on
  // a floor-mounted compression ramp).
  EXPECT_GT(s.cd, 0.0);
  EXPECT_LT(s.cl, 0.0);
}

TEST(SurfaceIntegration, UntouchedBodyInheritsConfigWallModel) {
  // Migrating a diffuse-wall config to cfg.body must not silently fall back
  // to specular walls: a body with no per-segment customization inherits
  // cfg.wall / cfg.wall_sigma.
  core::SimConfig cfg = body_wedge_config();
  cfg.wall = geom::WallModel::kDiffuseIsothermal;
  cfg.wall_sigma = 0.2;
  cmdp::ThreadPool pool(1);
  core::SimulationD sim(cfg, &pool);
  ASSERT_FALSE(sim.scene().empty());
  EXPECT_TRUE(sim.scene().body(0).any_diffuse());
  EXPECT_EQ(sim.scene().body(0).segments()[2].wall,
            geom::WallModel::kDiffuseIsothermal);
  EXPECT_NEAR(sim.scene().body(0).segments()[2].wall_sigma, 0.2, 1e-12);
  // Explicit per-segment choices win over the config default.
  core::SimConfig cfg2 = body_wedge_config();
  cfg2.wall = geom::WallModel::kDiffuseIsothermal;
  cfg2.body->set_segment_wall(1, geom::WallModel::kDiffuseAdiabatic, 0.3);
  core::SimulationD sim2(cfg2, &pool);
  EXPECT_EQ(sim2.scene().body(0).segments()[1].wall,
            geom::WallModel::kDiffuseAdiabatic);
  EXPECT_EQ(sim2.scene().body(0).segments()[2].wall,
            geom::WallModel::kSpecular);
}

TEST(SurfaceIntegration, DiffuseIsothermalColdWallAbsorbsHeat) {
  core::SimConfig cfg = body_wedge_config();
  cfg.particles_per_cell = 4.0;
  // Cold wall: wall temperature well below the stagnation temperature.
  cfg.body->set_wall_model(geom::WallModel::kDiffuseIsothermal,
                           0.5 * cfg.sigma);
  cmdp::ThreadPool pool(0);
  core::SimulationD sim(cfg, &pool);
  sim.run(200);
  sim.set_surface_sampling(true);
  sim.run(200);
  const core::SurfaceStats s = sim.surface();
  const core::SurfaceSegmentStats& ramp = s.segments[2];
  // Hypersonic stream onto a cold wall: strong heating and nonzero shear.
  EXPECT_GT(ramp.q, 0.0);
  EXPECT_GT(ramp.ch, 0.0);
  EXPECT_GT(s.heat_total, 0.0);
  // Diffuse wall drags the tangential flow: shear along the ramp tangent.
  EXPECT_GT(std::abs(ramp.cf), 0.005);
}

TEST(SurfaceIntegration, CylinderRunsEndToEndWithSurfaceOutput) {
  core::SimConfig cfg;
  cfg.nx = 64;
  cfg.ny = 48;
  cfg.mach = 6.0;
  cfg.sigma = 0.12;
  cfg.particles_per_cell = 6.0;
  cfg.body = geom::Body::Cylinder(24.0, 24.0, 6.0, 24);
  cfg.body->set_wall_model(geom::WallModel::kDiffuseIsothermal, cfg.sigma);
  cfg.seed = 77;
  cmdp::ThreadPool pool(0);
  core::SimulationD sim(cfg, &pool);
  sim.run(150);
  sim.set_sampling(true);
  sim.set_surface_sampling(true);
  sim.run(150);
  const core::SurfaceStats s = sim.surface();
  ASSERT_EQ(s.segments.size(), 24u);
  // Windward half (outward normal opposing the stream) is loaded; the peak
  // pressure sits near the stagnation point (normal closest to -x).
  double cp_max = 0.0;
  double cp_max_nx = 0.0;
  double windward_hits = 0.0;
  for (const auto& seg : s.segments) {
    if (seg.nx < 0.0) windward_hits += seg.hits_per_step;
    if (seg.cp > cp_max) {
      cp_max = seg.cp;
      cp_max_nx = seg.nx;
    }
  }
  EXPECT_GT(windward_hits, 50.0);
  EXPECT_GT(cp_max, 1.0);   // stagnation Cp approaches ~2 (Newtonian limit)
  EXPECT_LT(cp_max, 2.6);
  EXPECT_LT(cp_max_nx, -0.8);  // peak faces the oncoming stream
  EXPECT_GT(s.cd, 0.5);        // blunt body: substantial drag
  // Non-empty CSV.
  std::ostringstream os;
  io::write_surface_csv(os, s);
  EXPECT_GT(os.str().size(), 200u);
}
