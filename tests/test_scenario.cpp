// The scenario/runner layer: registry lookup, key=value override
// round-trips onto every SimConfig field, invalid-key rejection, and the
// golden-run regression — the Runner must reproduce the legacy
// examples/wedge_mach4 run loop (counters and fields) at equal seed.
#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "cmdp/thread_pool.h"
#include "core/simulation.h"
#include "scenario/runner.h"

namespace core = cmdsmc::core;
namespace geom = cmdsmc::geom;
namespace cli = cmdsmc::cli;
namespace scenario = cmdsmc::scenario;
namespace cmdp = cmdsmc::cmdp;
namespace physics = cmdsmc::physics;

// --- Registry ----------------------------------------------------------------

TEST(ScenarioRegistry, ContainsThePaperScenarios) {
  for (const char* name :
       {"wedge-mach4", "wedge-mach4-rarefied", "cylinder-mach10", "biconic",
        "flat-plate-diffuse", "duct3d", "reservoir-relax", "biconic_axi",
        "sphere_axi"}) {
    ASSERT_NE(scenario::find_scenario(name), nullptr) << name;
  }
  EXPECT_EQ(scenario::find_scenario("no-such-scenario"), nullptr);
}

TEST(ScenarioRegistry, EverySpecBuildsAValidConfig) {
  for (const auto& spec : scenario::all_scenarios()) {
    EXPECT_FALSE(spec.description.empty()) << spec.name;
    EXPECT_NO_THROW({
      const core::SimConfig cfg = spec.build_config();
      (void)cfg;
    }) << spec.name;
  }
}

TEST(ScenarioRegistry, GetScenarioUnknownNameListsChoices) {
  try {
    scenario::get_scenario("wedge-mach5");
    FAIL() << "expected ArgError";
  } catch (const cli::ArgError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("wedge-mach5"), std::string::npos);
    EXPECT_NE(msg.find("wedge-mach4"), std::string::npos);
  }
}

// --- Overrides ---------------------------------------------------------------

TEST(ScenarioOverrides, RoundTripsEverySimConfigField) {
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  const std::pair<const char*, const char*> overrides[] = {
      {"nx", "50"},
      {"ny", "40"},
      {"nz", "8"},
      {"mach", "5.5"},
      {"sigma", "0.1"},
      {"lambda_inf", "0.25"},
      {"particles_per_cell", "9.5"},
      {"reservoir_fraction", "0.15"},
      {"has_wedge", "false"},
      {"wedge_x0", "11"},
      {"wedge_base", "13"},
      {"wedge_angle_deg", "22"},
      {"potential", "inverse_power"},
      {"alpha", "6"},
      {"vibrational", "true"},
      {"vib_exchange_prob", "0.3"},
      {"vib_init_temperature", "0.5"},
      {"closed_box", "false"},
      {"upstream", "source"},
      {"plunger_trigger", "2.5"},
      {"wall", "diffuse_adiabatic"},
      {"twall", "0.25"},
      {"sort_scale", "4"},
      {"randomize_sort", "false"},
      {"transpositions_per_collision", "2"},
      {"rounding", "truncate"},
      {"rng_mode", "dirty"},
      {"seed", "0x123"},
  };
  for (const auto& [k, v] : overrides)
    scenario::apply_override(spec, k, v);

  const core::SimConfig& c = spec.config;
  EXPECT_EQ(c.nx, 50);
  EXPECT_EQ(c.ny, 40);
  EXPECT_EQ(c.nz, 8);
  EXPECT_DOUBLE_EQ(c.mach, 5.5);
  EXPECT_DOUBLE_EQ(c.sigma, 0.1);
  EXPECT_DOUBLE_EQ(c.lambda_inf, 0.25);
  EXPECT_DOUBLE_EQ(c.particles_per_cell, 9.5);
  EXPECT_DOUBLE_EQ(c.reservoir_fraction, 0.15);
  EXPECT_FALSE(c.has_wedge);
  EXPECT_DOUBLE_EQ(c.wedge_x0, 11.0);
  EXPECT_DOUBLE_EQ(c.wedge_base, 13.0);
  EXPECT_DOUBLE_EQ(c.wedge_angle_deg, 22.0);
  EXPECT_EQ(c.gas.potential, physics::Potential::kInversePower);
  EXPECT_DOUBLE_EQ(c.gas.alpha, 6.0);
  EXPECT_TRUE(c.vibrational);
  EXPECT_DOUBLE_EQ(c.vib_exchange_prob, 0.3);
  EXPECT_DOUBLE_EQ(c.vib_init_temperature, 0.5);
  EXPECT_FALSE(c.closed_box);
  EXPECT_EQ(c.upstream, geom::UpstreamMode::kSoftSource);
  EXPECT_DOUBLE_EQ(c.plunger_trigger, 2.5);
  EXPECT_EQ(c.wall, geom::WallModel::kDiffuseAdiabatic);
  EXPECT_EQ(c.sort_scale, 4);
  EXPECT_FALSE(c.randomize_sort);
  EXPECT_EQ(c.transpositions_per_collision, 2);
  EXPECT_EQ(c.rounding, core::Rounding::kTruncate);
  EXPECT_EQ(c.rng_mode, core::RngMode::kDirty);
  EXPECT_EQ(c.seed, 0x123ULL);

  // The wall temperature ratio is applied physically at build time, derived
  // from the final sigma (the satellite fix: overriding sigma can no longer
  // leave wall_sigma at its default).
  const core::SimConfig built = spec.build_config();
  EXPECT_NEAR(built.wall_sigma, 0.1 * std::sqrt(0.25), 1e-12);
  EXPECT_NEAR(built.wall_temperature_ratio(), 0.25, 1e-12);
}

TEST(ScenarioOverrides, AliasesAndScheduleKeys) {
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  scenario::apply_override(spec, "ppc", "7");
  scenario::apply_override(spec, "lambda", "0.5");
  scenario::apply_override(spec, "steps", "33");
  scenario::apply_override(spec, "precision", "fixed");
  EXPECT_DOUBLE_EQ(spec.config.particles_per_cell, 7.0);
  EXPECT_DOUBLE_EQ(spec.config.lambda_inf, 0.5);
  EXPECT_EQ(spec.schedule.steady_steps, 33);
  EXPECT_EQ(spec.schedule.avg_steps, 33);
  EXPECT_EQ(spec.schedule.precision, scenario::Precision::kFixed);
}

TEST(ScenarioOverrides, BodyKeysDriveTheFactory) {
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  scenario::apply_override(spec, "body.kind", "cylinder");
  scenario::apply_override(spec, "body.x0", "40");
  scenario::apply_override(spec, "body.y0", "32");
  scenario::apply_override(spec, "body.radius", "6");
  scenario::apply_override(spec, "body.facets", "24");
  scenario::apply_override(spec, "body.wall", "diffuse_isothermal");
  scenario::apply_override(spec, "body.twall", "0.5");
  const core::SimConfig cfg = spec.build_config();
  ASSERT_TRUE(cfg.body.has_value());
  EXPECT_EQ(cfg.body->segment_count(), 24);
  EXPECT_TRUE(cfg.body->any_diffuse());
  EXPECT_NEAR(cfg.body->segments()[0].wall_sigma,
              cfg.sigma * std::sqrt(0.5), 1e-12);
  // The atof-truncation footgun is gone: fractional facet counts error.
  EXPECT_THROW(scenario::apply_override(spec, "body.facets", "36.9"),
               cli::ArgError);
}

TEST(ScenarioOverrides, RejectsUnknownAndMalformedKeys) {
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  EXPECT_THROW(scenario::apply_override(spec, "mcah", "8"), cli::ArgError);
  EXPECT_THROW(scenario::apply_override(spec, "", "8"), cli::ArgError);
  EXPECT_THROW(scenario::apply_override(spec, "mach", "fast"),
               cli::ArgError);
  EXPECT_THROW(scenario::apply_override(spec, "nx", "98.5"), cli::ArgError);
  EXPECT_THROW(scenario::apply_override(spec, "wall", "sticky"),
               cli::ArgError);
  EXPECT_THROW(scenario::apply_override(spec, "body.kind", "sphere"),
               cli::ArgError);
  // The unknown-key message lists the valid keys.
  try {
    scenario::apply_override(spec, "mcah", "8");
    FAIL() << "expected ArgError";
  } catch (const cli::ArgError& e) {
    EXPECT_NE(std::string(e.what()).find("mach"), std::string::npos);
  }
  // Every advertised key has help text.
  for (const std::string& key : scenario::override_keys())
    EXPECT_FALSE(scenario::override_help(key).empty()) << key;
}

// The partition takes no knob: every former shard.* key is unknown (exit
// 2 listing the valid keys), and none is advertised.  So are the former
// reservoir_collisions (reservoirs always collide) and wall_sigma (twall=
// sets the wall temperature) keys.
TEST(ScenarioOverrides, ShardKeysSetTheCostModel) {
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  for (const char* key : {"shard.collide_weight", "shard.per_lane",
                          "shard.threshold", "shard.interval",
                          "shard.enable", "reservoir_collisions",
                          "wall_sigma"}) {
    try {
      scenario::apply_override(spec, key, "1");
      FAIL() << key << " was accepted";
    } catch (const cli::ArgError& e) {
      EXPECT_NE(std::string(e.what()).find("mach"), std::string::npos)
          << "the error should list the valid keys";
    }
  }
  for (const std::string& key : scenario::override_keys())
    EXPECT_NE(key.rfind("shard.", 0), 0u) << key;
}

// `cmdsmc run wedge-mach4 nx=4100 ny=4100 sort_scale=256` asks for a sort
// key space past 2^32: a config error (exit 2), raised before any particle
// is allocated.
TEST(ScenarioOverrides, OverflowingSortKeySpaceIsAConfigError) {
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  scenario::apply_override(spec, "nx", "4100");
  scenario::apply_override(spec, "ny", "4100");
  scenario::apply_override(spec, "sort_scale", "256");
  try {
    (void)spec.build_config();
    FAIL() << "expected the sort key space to be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sort_scale"), std::string::npos);
    EXPECT_STREQ(cli::error_type(e), "config");
    EXPECT_EQ(cli::error_exit_code(e), 2);
  }
}

TEST(ScenarioOverrides, AxisymmetricFlagRoundTripsAndRejectsIncompatible) {
  // The flag round-trips like any SimConfig field...
  scenario::ScenarioSpec spec = scenario::get_scenario("sphere_axi");
  EXPECT_TRUE(spec.config.axisymmetric);
  scenario::apply_override(spec, "axisymmetric", "false");
  EXPECT_FALSE(spec.config.axisymmetric);
  // ...but planar mode cannot build a body straddling the axis (ymin < 0).
  EXPECT_THROW(spec.build_config(), std::invalid_argument);
  // Axisymmetric on an incompatible 3D scenario is rejected at build time.
  scenario::ScenarioSpec duct = scenario::get_scenario("duct3d");
  scenario::apply_override(duct, "axisymmetric", "true");
  EXPECT_THROW(duct.build_config(), std::invalid_argument);
  // The wedge from the wedge_* fields is planar-only.
  scenario::ScenarioSpec wedge = scenario::get_scenario("wedge-mach4");
  scenario::apply_override(wedge, "axisymmetric", "true");
  EXPECT_THROW(wedge.build_config(), std::invalid_argument);
}

TEST(ScenarioRunner, AxisymmetricRunReportsRevolvedBodyCoefficients) {
  cmdp::ThreadPool pool(0);
  scenario::ScenarioSpec spec = scenario::get_scenario("biconic_axi");
  scenario::apply_override(spec, "steps", "8");
  scenario::apply_override(spec, "ppc", "3");
  scenario::Runner runner(spec);
  const scenario::RunResult r = runner.run(&pool);
  EXPECT_TRUE(r.config.axisymmetric);
  ASSERT_TRUE(r.surface.has_value());
  EXPECT_GT(r.surface->cd, 0.0);
  EXPECT_EQ(r.surface->cl, 0.0);  // revolved body: zero lateral force
  ASSERT_EQ(r.surfaces.size(), 1u);
  const std::string json = scenario::JsonSummarySink::to_json(r);
  EXPECT_NE(json.find("\"axisymmetric\": true"), std::string::npos);
  EXPECT_NE(json.find("\"bodies\": ["), std::string::npos);
  EXPECT_NE(json.find("\"cloned\":"), std::string::npos);
}

TEST(SimConfigWallTemperature, RatioAccessorDerivesFromSigma) {
  core::SimConfig cfg;
  cfg.sigma = 0.2;
  cfg.set_wall_temperature_ratio(0.25);
  EXPECT_NEAR(cfg.wall_sigma, 0.1, 1e-12);
  EXPECT_NEAR(cfg.wall_temperature_ratio(), 0.25, 1e-12);
  EXPECT_THROW(cfg.set_wall_temperature_ratio(-1.0), std::invalid_argument);
}

// --- Golden run: Runner vs the legacy example loop ---------------------------

TEST(ScenarioRunner, WedgeMach4MatchesLegacyExampleCountersAtEqualSeed) {
  cmdp::ThreadPool pool(0);

  // `cmdsmc run wedge-mach4 steps=20` through the Runner.
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  scenario::apply_override(spec, "steps", "20");
  scenario::Runner runner(spec);
  const scenario::RunResult r = runner.run(&pool);
  EXPECT_EQ(r.steady_steps, 20);
  EXPECT_EQ(r.avg_steps, 20);

  // The legacy examples/wedge_mach4 loop: construct, run steady, enable
  // sampling, run averaging — same config, same seed.
  const core::SimConfig cfg = spec.build_config();
  core::SimulationD sim(cfg, &pool);
  sim.run(20);
  sim.set_sampling(true);
  sim.run(20);

  EXPECT_EQ(r.counters.candidates, sim.counters().candidates);
  EXPECT_EQ(r.counters.collisions, sim.counters().collisions);
  EXPECT_EQ(r.counters.reservoir_collisions,
            sim.counters().reservoir_collisions);
  EXPECT_EQ(r.counters.removed, sim.counters().removed);
  EXPECT_EQ(r.counters.injected, sim.counters().injected);
  EXPECT_EQ(r.counters.synthesized, sim.counters().synthesized);
  EXPECT_EQ(r.flow_count, sim.flow_count());
  EXPECT_EQ(r.reservoir_count, sim.reservoir_count());

  // Identical time-averaged fields, cell for cell.
  const core::FieldStats f = sim.field();
  ASSERT_EQ(r.field.samples, f.samples);
  ASSERT_EQ(r.field.density.size(), f.density.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < f.density.size(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(r.field.density[i] - f.density[i]));
  EXPECT_LT(max_diff, 1e-12);
}

TEST(ScenarioRunner, SurfaceStatsAndJsonSummaryForBodyScenarios) {
  cmdp::ThreadPool pool(0);
  scenario::ScenarioSpec spec = scenario::get_scenario("cylinder-mach10");
  scenario::apply_override(spec, "steps", "15");
  scenario::apply_override(spec, "ppc", "4");
  scenario::Runner runner(spec);
  const scenario::RunResult r = runner.run(&pool);
  ASSERT_TRUE(r.surface.has_value());
  EXPECT_EQ(r.surface->segments.size(), 36u);
  EXPECT_GT(r.surface->cd, 0.0);
  EXPECT_GT(r.cp_max(), 0.0);
  // Energy bookkeeping of the split: heat = incident - reflected.
  EXPECT_NEAR(r.surface->heat_total,
              r.surface->q_incident_total - r.surface->q_reflected_total,
              1e-9 * std::max(1.0, r.surface->q_incident_total));

  const std::string json = scenario::JsonSummarySink::to_json(r);
  EXPECT_NE(json.find("\"scenario\": \"cylinder-mach10\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cd\":"), std::string::npos);
  EXPECT_NE(json.find("\"cp_max\":"), std::string::npos);
  EXPECT_NE(json.find("\"q_incident\":"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":"), std::string::npos);
}

TEST(ScenarioRunner, AutoSteadyStopsWithinTheCap) {
  cmdp::ThreadPool pool(0);
  scenario::ScenarioSpec spec = scenario::get_scenario("reservoir-relax");
  spec.schedule.auto_steady = true;
  spec.schedule.max_steady_steps = 60;
  spec.schedule.avg_steps = 5;
  scenario::Runner runner(spec);
  const scenario::RunResult r = runner.run(&pool);
  EXPECT_LE(r.steady_steps, 60);
  EXPECT_EQ(r.avg_steps, 5);
  EXPECT_EQ(r.field.samples, 5);
}

TEST(ScenarioRunner, FixedPrecisionRunsEndToEnd) {
  cmdp::ThreadPool pool(0);
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  scenario::apply_override(spec, "steps", "5");
  scenario::apply_override(spec, "ppc", "4");
  scenario::apply_override(spec, "precision", "fixed");
  scenario::Runner runner(spec);
  const scenario::RunResult r = runner.run(&pool);
  EXPECT_EQ(r.precision, scenario::Precision::kFixed);
  EXPECT_GT(r.counters.collisions, 0u);
  EXPECT_EQ(r.field.samples, 5);
}

// `cmdsmc run wedge-mach4 steps=10 ppc=2 audit=1 telemetry=<path>`: every
// build carries the audit hooks, so the Runner audits the run, reports it
// clean, changes no counter, and the summary JSON and every telemetry line
// carry the audit totals.
TEST(ScenarioRunner, AuditOverrideAuditsTheRun) {
  cmdp::ThreadPool pool(0);
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  scenario::apply_override(spec, "steps", "10");
  scenario::apply_override(spec, "ppc", "2");
  const scenario::RunResult plain = scenario::Runner(spec).run(&pool);
  EXPECT_FALSE(plain.audit_enabled);

  const std::string path = "runner_audit_telemetry.jsonl";
  scenario::apply_override(spec, "audit", "1");
  scenario::apply_override(spec, "telemetry", path);
  const scenario::RunResult r = scenario::Runner(spec).run(&pool);
  EXPECT_TRUE(r.audit_enabled);
  EXPECT_GT(r.audit_checks, 0u);
  EXPECT_EQ(r.audit_violations, 0u);

  // Attaching the auditor changes no counter of the run.
  EXPECT_EQ(r.counters.candidates, plain.counters.candidates);
  EXPECT_EQ(r.counters.collisions, plain.counters.collisions);
  EXPECT_EQ(r.counters.reservoir_collisions,
            plain.counters.reservoir_collisions);
  EXPECT_EQ(r.counters.removed, plain.counters.removed);
  EXPECT_EQ(r.counters.injected, plain.counters.injected);
  EXPECT_EQ(r.counters.synthesized, plain.counters.synthesized);
  EXPECT_EQ(r.flow_count, plain.flow_count);
  EXPECT_EQ(r.reservoir_count, plain.reservoir_count);

  const std::string json = scenario::JsonSummarySink::to_json(r);
  EXPECT_NE(json.find("\"audit\": {\"enabled\": true"), std::string::npos)
      << json;

  // One telemetry line per step, each with an audit block whose cumulative
  // check count never decreases and ends at the run's total.
  const std::string key = "\"audit\":{\"checks\":";
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  std::uint64_t prev = 0;
  while (std::getline(in, line)) {
    ++lines;
    const std::size_t at = line.find(key);
    if (at == std::string::npos) {
      ADD_FAILURE() << "no audit block: " << line;
      continue;
    }
    const std::uint64_t checks =
        std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
    EXPECT_GE(checks, prev) << line;
    prev = checks;
  }
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(lines, r.steady_steps + r.avg_steps);
  EXPECT_EQ(prev, r.audit_checks);
}
