// Randomized invariant (fuzz) tests: boundary enforcement and the full
// driver must uphold their invariants for arbitrary states and a sweep of
// configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "cli/args.h"
#include "core/simulation.h"
#include "fleet/sweep.h"
#include "geom/boundary.h"
#include "rng/rng.h"
#include "scenario/scenario.h"

namespace audit = cmdsmc::audit;
namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;
namespace geom = cmdsmc::geom;

namespace {
constexpr double kRad = 3.14159265358979 / 180.0;
}

TEST(BoundaryFuzz, AlwaysEndsInsideOpenDomain) {
  const geom::Scene w(
      std::vector<geom::Body>{geom::Body::Wedge(20.0, 25.0, 30.0 * kRad)});
  geom::BoundaryConfig bc;
  bc.x_max = 98.0;
  bc.y_max = 64.0;
  bc.scene = &w;
  bc.plunger_active = true;
  bc.plunger_x = 2.0;
  bc.plunger_speed = 0.8;
  cmdsmc::rng::SplitMix64 g(1234);
  for (int trial = 0; trial < 50000; ++trial) {
    geom::ParticleState p;
    // Anywhere in (and slightly beyond) the domain, any plausible velocity.
    p.x = g.next_double() * 102.0 - 2.0;
    p.y = g.next_double() * 68.0 - 2.0;
    p.ux = (g.next_double() - 0.3) * 2.0;
    p.uy = (g.next_double() - 0.5) * 2.0;
    p.uz = (g.next_double() - 0.5) * 2.0;
    const double e_in =
        p.ux * p.ux + p.uy * p.uy + p.uz * p.uz;
    if (geom::enforce_boundaries(p, bc, g.next_u64())) {
      ASSERT_GE(p.x, 0.0);
      ASSERT_LT(p.x, bc.x_max);
      ASSERT_GE(p.y, 0.0);
      ASSERT_LT(p.y, bc.y_max);
      ASSERT_FALSE(w.inside(p.x, p.y))
          << trial << ": " << p.x << "," << p.y;
      // Specular interactions never change the speed except the moving
      // plunger, which can only add energy in the lab frame.
      const double e_out = p.ux * p.ux + p.uy * p.uy + p.uz * p.uz;
      ASSERT_GT(e_out, -1e-12);
      (void)e_in;
    }
  }
}

TEST(BoundaryFuzz, DiffuseWallsAlwaysEject) {
  geom::Body wedge = geom::Body::Wedge(10.0, 20.0, 40.0 * kRad);
  wedge.set_wall_model(geom::WallModel::kDiffuseIsothermal, 0.2);
  const geom::Scene w(std::vector<geom::Body>{wedge});
  geom::BoundaryConfig bc;
  bc.x_max = 64.0;
  bc.y_max = 48.0;
  bc.scene = &w;
  cmdsmc::rng::SplitMix64 g(99);
  for (int trial = 0; trial < 20000; ++trial) {
    geom::ParticleState p;
    p.x = g.next_double() * 64.0;
    p.y = g.next_double() * 48.0;
    p.ux = (g.next_double() - 0.5);
    p.uy = (g.next_double() - 0.5);
    if (geom::enforce_boundaries(p, bc, g.next_u64())) {
      ASSERT_FALSE(w.inside(p.x, p.y));
      ASSERT_GE(p.y, 0.0);
    }
  }
}

namespace {

struct FuzzCase {
  int nx, ny, nz;
  double mach, sigma, lambda, ppc;
  bool wedge;
  int upstream;  // 0 plunger, 1 soft
  int wall;      // 0 specular, 1 isothermal, 2 adiabatic
  const char* name;  // the test id
};

// gtest lists a parameter by printing it, and names the test from that
// print (PrintToStringParamName).  Without this it dumps the struct's
// bytes, padding included, which change from run to run.
void PrintTo(const FuzzCase& c, std::ostream* os) { *os << c.name; }

}  // namespace

class SimulationFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(SimulationFuzz, ShortRunUpholdsInvariants) {
  const auto c = GetParam();
  core::SimConfig cfg;
  cfg.nx = c.nx;
  cfg.ny = c.ny;
  cfg.nz = c.nz;
  cfg.mach = c.mach;
  cfg.sigma = c.sigma;
  cfg.lambda_inf = c.lambda;
  cfg.particles_per_cell = c.ppc;
  cfg.has_wedge = c.wedge;
  if (c.wedge) {
    cfg.wedge_x0 = c.nx * 0.25;
    cfg.wedge_base = c.nx * 0.25;
    cfg.wedge_angle_deg = 25.0;
  }
  cfg.upstream = c.upstream == 0 ? geom::UpstreamMode::kPlunger
                                 : geom::UpstreamMode::kSoftSource;
  cfg.wall = c.wall == 0   ? geom::WallModel::kSpecular
             : c.wall == 1 ? geom::WallModel::kDiffuseIsothermal
                           : geom::WallModel::kDiffuseAdiabatic;
  cfg.reservoir_fraction = 0.3;
  cfg.seed = 5150;
  ASSERT_NO_THROW(cfg.validate());
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(cfg, &pool);
  sim.set_sampling(true);
  sim.run(25);
  // Invariants: counts consistent, particles in the open domain, energy
  // finite, counters monotone and consistent.
  EXPECT_EQ(sim.total_count(), sim.flow_count() + sim.reservoir_count());
  EXPECT_TRUE(std::isfinite(sim.total_energy()));
  EXPECT_GT(sim.total_energy(), 0.0);
  EXPECT_LE(sim.counters().collisions + sim.counters().reservoir_collisions,
            sim.counters().candidates);
  const auto& s = sim.particles();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag) continue;
    ASSERT_GE(s.x[i], 0.0);
    ASSERT_LT(s.x[i], static_cast<double>(c.nx));
    ASSERT_GE(s.y[i], 0.0);
    ASSERT_LT(s.y[i], static_cast<double>(c.ny));
    if (c.nz > 0) {
      ASSERT_GE(s.z[i], 0.0);
      ASSERT_LT(s.z[i], static_cast<double>(c.nz));
    }
    ASSERT_FALSE(sim.scene().inside(s.x[i], s.y[i]));
  }
  const auto f = sim.field();
  for (double d : f.density) ASSERT_TRUE(std::isfinite(d));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SimulationFuzz,
    ::testing::Values(
        FuzzCase{32, 24, 0, 4.0, 0.18, 0.0, 6.0, true, 0, 0,
                 "wedge_m4_continuum"},
        FuzzCase{32, 24, 0, 4.0, 0.18, 0.5, 6.0, true, 0, 0, "wedge_m4"},
        FuzzCase{32, 24, 0, 2.0, 0.12, 1.0, 4.0, true, 1, 0, "wedge_m2_soft"},
        FuzzCase{32, 24, 0, 6.0, 0.10, 0.2, 6.0, true, 0, 1,
                 "wedge_m6_isothermal"},
        FuzzCase{32, 24, 0, 4.0, 0.15, 0.5, 6.0, true, 0, 2,
                 "wedge_m4_adiabatic"},
        FuzzCase{48, 16, 0, 3.0, 0.18, 0.0, 8.0, false, 0, 0, "open_m3"},
        FuzzCase{24, 16, 8, 4.0, 0.15, 0.5, 4.0, true, 0, 0, "wedge3d_m4"},
        FuzzCase{24, 16, 8, 4.0, 0.15, 0.0, 4.0, false, 1, 0, "open3d_soft"},
        FuzzCase{32, 24, 0, 8.0, 0.05, 0.3, 6.0, true, 0, 0, "wedge_m8"},
        FuzzCase{32, 24, 0, 1.2, 0.18, 2.0, 6.0, true, 1, 0,
                 "wedge_m1p2_soft"}),
    ::testing::PrintToStringParamName());

TEST(SimulationFuzz, NoParticleEndsInsideAnyBodyOfAMultiBodyScene) {
  // Sweep of 2- and 3-body scenes across upstream modes and wall models:
  // after every step, no flow particle may sit inside any body (the scene
  // union; a stale single-body interior mask or a facet tie-break gap would
  // break this).
  struct SceneCase {
    int upstream;  // 0 plunger, 1 soft source
    int wall;      // 0 specular, 1 diffuse isothermal
    bool third_body;
  };
  for (const SceneCase sc : {SceneCase{0, 1, false}, SceneCase{1, 0, false},
                             SceneCase{0, 0, true}, SceneCase{1, 1, true}}) {
    core::SimConfig cfg;
    cfg.nx = 72;
    cfg.ny = 32;
    cfg.mach = 6.0;
    cfg.sigma = 0.12;
    cfg.lambda_inf = 0.5;
    cfg.particles_per_cell = 6.0;
    cfg.has_wedge = false;
    cfg.body = geom::Body::Cylinder(18.0, 16.0, 5.0, 16);
    cfg.bodies.push_back(geom::Body::Cylinder(42.0, 16.0, 5.0, 16));
    if (sc.third_body)
      cfg.bodies.push_back(
          geom::Body::FlatPlate(54.0, 24.0, 12.0, 1.5, 8.0 * kRad));
    cfg.upstream = sc.upstream == 0 ? geom::UpstreamMode::kPlunger
                                    : geom::UpstreamMode::kSoftSource;
    cfg.wall = sc.wall == 0 ? geom::WallModel::kSpecular
                            : geom::WallModel::kDiffuseIsothermal;
    cfg.reservoir_fraction = 0.3;
    cfg.seed = 0xF022ULL;
    cmdp::ThreadPool pool(4);
    core::SimulationD sim(cfg, &pool);
    ASSERT_EQ(sim.scene().body_count(), sc.third_body ? 3 : 2);
    for (int step = 0; step < 25; ++step) {
      sim.step();
      const auto& s = sim.particles();
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag)
          continue;
        const int b = sim.scene().inside_body(s.x[i], s.y[i]);
        if (b < 0) continue;
        // Boundary-inclusive inside(): a particle exactly on a facet is
        // legal; penetration beyond rounding depth is not.
        const auto hit = sim.scene().nearest_face(s.x[i], s.y[i]);
        ASSERT_TRUE(hit.has_value());
        ASSERT_GT(hit->hit.depth, -1e-9)
            << "step " << step << " particle " << i << " buried in body "
            << b << " at " << s.x[i] << "," << s.y[i];
      }
    }
    EXPECT_GT(sim.counters().collisions, 0u);
  }
}

TEST(SimulationFuzz, WeightBalancingConservesMassMomentumEnergyAnySeed) {
  // The axisymmetric split/merge pass must conserve the weighted moments
  // *exactly* (not just in expectation, the way Russian-roulette destruction
  // would): splits are identical copies, merges average velocities with the
  // lost relative kinetic energy folded into rotation.  Scramble the weights
  // with arbitrary factors and run one audited step — for any seed the
  // auditor's per-cell mass, momentum and energy tables across the sort
  // phase (balance pass + scatter) must agree to 1e-12.
  for (std::uint64_t seed : {1ull, 99ull, 0xDEADull, 31415926ull, 777777ull}) {
    core::SimConfig cfg;
    cfg.nx = 24;
    cfg.ny = 16;
    cfg.has_wedge = false;
    cfg.axisymmetric = true;
    cfg.mach = 4.0;
    cfg.sigma = 0.12;
    cfg.particles_per_cell = 8.0;
    cfg.reservoir_fraction = 0.2;
    cfg.seed = seed;
    cmdp::ThreadPool pool(2);
    core::SimulationD sim(cfg, &pool);
    sim.run(5);
    auto& s = sim.particles();
    cmdsmc::rng::SplitMix64 g(seed ^ 0xBA1A4CEull);
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag) continue;
      s.weight[i] *= 0.1 + 7.9 * g.next_double();  // way out of band
    }
    const std::uint64_t actions =
        sim.counters().cloned + sim.counters().merged;
    audit::AuditOptions opt;
    opt.fatal = false;
    opt.tol = 1e-12;
    audit::Auditor<double> auditor(opt);
    sim.set_auditor(&auditor);
    sim.step();
    sim.set_auditor(nullptr);
    EXPECT_GT(sim.counters().cloned + sim.counters().merged, actions)
        << "seed " << seed << ": scrambled weights must trigger balancing";
    EXPECT_TRUE(auditor.violations().empty())
        << seed << ": "
        << audit::format_violation(auditor.violations().front());
    EXPECT_GT(auditor.counters()
                  .checks[static_cast<int>(audit::Family::kConservation)],
              0u)
        << seed;
  }
}

TEST(SimulationFuzz, AxisymmetricClosedBoxConservesWeightedMassExactly) {
  // Step-level conservation: a collisionless closed box removes and injects
  // nothing, so the only thing that could change the weighted mass across
  // whole steps is the clone/destroy bookkeeping.
  for (std::uint64_t seed : {2ull, 0xC0FFEEull, 424242ull}) {
    core::SimConfig cfg;
    cfg.nx = 16;
    cfg.ny = 20;
    cfg.closed_box = true;
    cfg.has_wedge = false;
    cfg.axisymmetric = true;
    cfg.mach = 0.01;
    cfg.sigma = 0.15;
    cfg.lambda_inf = 1e9;  // collisionless: every moment must be exact
    cfg.particles_per_cell = 10.0;
    cfg.reservoir_fraction = 0.0;
    cfg.seed = seed;
    cmdp::ThreadPool pool(4);
    core::SimulationD sim(cfg, &pool);
    const auto before = sim.flow_moments();
    sim.run(40);
    EXPECT_EQ(sim.counters().collisions, 0u);
    EXPECT_GT(sim.counters().cloned + sim.counters().merged, 0u) << seed;
    const auto after = sim.flow_moments();
    EXPECT_NEAR(after.mass / before.mass, 1.0, 1e-12) << seed;
    EXPECT_NEAR(after.energy / before.energy, 1.0, 1e-9) << seed;
  }
}

TEST(SimulationFuzz, AxisymmetricShortRunsUpholdCoreInvariants) {
  // The multi-config sweep, axisymmetric flavor: bodies on the axis, both
  // upstream modes, wall models; no particle may end up below the axis,
  // outside the domain or buried in the body.
  struct AxiCase {
    int upstream;  // 0 plunger, 1 soft source
    int wall;      // 0 specular, 1 diffuse isothermal
    double lambda;
  };
  for (const AxiCase c : {AxiCase{0, 0, 0.0}, AxiCase{1, 1, 0.5},
                          AxiCase{0, 1, 0.5}, AxiCase{1, 0, 2.0}}) {
    core::SimConfig cfg;
    cfg.nx = 48;
    cfg.ny = 20;
    cfg.has_wedge = false;
    cfg.axisymmetric = true;
    cfg.mach = 5.0;
    cfg.sigma = 0.12;
    cfg.lambda_inf = c.lambda;
    cfg.particles_per_cell = 6.0;
    cfg.reservoir_fraction = 0.3;
    cfg.body = geom::Body::Biconic(14.0, 0.0, 10.0, 25.0 * kRad, 8.0,
                                   10.0 * kRad);
    cfg.upstream = c.upstream == 0 ? geom::UpstreamMode::kPlunger
                                   : geom::UpstreamMode::kSoftSource;
    cfg.wall = c.wall == 0 ? geom::WallModel::kSpecular
                           : geom::WallModel::kDiffuseIsothermal;
    cfg.seed = 0xA71F022ULL;
    cmdp::ThreadPool pool(4);
    core::SimulationD sim(cfg, &pool);
    sim.set_sampling(true);
    for (int step = 0; step < 25; ++step) {
      sim.step();
      const auto& s = sim.particles();
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag)
          continue;
        ASSERT_GE(s.y[i], 0.0) << "below the axis at step " << step;
        ASSERT_LT(s.y[i], static_cast<double>(cfg.ny));
        ASSERT_GE(s.x[i], 0.0);
        ASSERT_LT(s.x[i], static_cast<double>(cfg.nx));
        ASSERT_GT(s.weight[i], 0.0);
        const int b = sim.scene().inside_body(s.x[i], s.y[i]);
        if (b < 0) continue;
        const auto hit = sim.scene().nearest_face(s.x[i], s.y[i]);
        ASSERT_TRUE(hit.has_value());
        ASSERT_GT(hit->hit.depth, -1e-9)
            << "buried at step " << step << ": " << s.x[i] << "," << s.y[i];
      }
    }
    EXPECT_TRUE(std::isfinite(sim.total_energy()));
    for (double d : sim.field().density) ASSERT_TRUE(std::isfinite(d));
  }
}

// --- CLI argument parser fuzz -------------------------------------------
//
// The cli/args contract: any malformed input raises cli::ArgError (never a
// crash, never a silent no-op, never an uncaught std:: exception from deep
// inside), and error_exit_code classifies it as the usage exit (2).

namespace {

// Deterministic junk-string generator over a charset dense in the parser's
// special characters so separators land in every position.
std::string fuzz_token(cmdsmc::rng::SplitMix64& g, std::size_t max_len) {
  static constexpr char kChars[] =
      "=.,:/-+_ 0123456789abcdefghijklmnopqrstuvwxyzeE\t\"'\\";
  const std::size_t len =
      g.next_below(static_cast<std::uint32_t>(max_len + 1));
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    s += kChars[g.next_below(sizeof(kChars) - 1)];
  return s;
}

// Runs `fn` and asserts the cli failure contract: success, or ArgError /
// std::invalid_argument classified as exit 2.  Anything else is a bug.
template <class Fn>
void expect_usage_contract(const std::string& what, Fn&& fn) {
  try {
    fn();
  } catch (const cmdsmc::cli::ArgError& e) {
    EXPECT_EQ(cmdsmc::cli::error_exit_code(e), 2) << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(cmdsmc::cli::error_exit_code(e), 2) << what;
  } catch (const std::exception& e) {
    FAIL() << what << ": unexpected exception type: " << e.what();
  }
}

}  // namespace

TEST(CliFuzz, KeyValueParserUpholdsTheUsageContract) {
  namespace cli = cmdsmc::cli;
  cmdsmc::rng::SplitMix64 g(0xA56u);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string tok = fuzz_token(g, 24);
    expect_usage_contract(tok, [&] {
      const auto kvs = cli::parse_key_values(std::vector<std::string>{tok});
      // On success the parse must be lossless: key '=' value == token.
      ASSERT_EQ(kvs.size(), 1u);
      EXPECT_EQ(kvs[0].key + "=" + kvs[0].value, tok);
      EXPECT_FALSE(kvs[0].key.empty());
    });
  }
}

TEST(CliFuzz, ScalarParsersNeverTruncateOrCrash) {
  namespace cli = cmdsmc::cli;
  cmdsmc::rng::SplitMix64 g(0x5CA1A8u);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string v = fuzz_token(g, 12);
    expect_usage_contract(v, [&] {
      const int n = cli::parse_int("k", v);
      // Strict contract: success means the whole token was consumed, so
      // re-parsing as double must agree exactly (no atoi truncation).
      EXPECT_EQ(static_cast<double>(n), cli::parse_double("k", v));
    });
    expect_usage_contract(v, [&] { (void)cli::parse_double("k", v); });
    expect_usage_contract(v, [&] { (void)cli::parse_uint64("k", v); });
    expect_usage_contract(v, [&] { (void)cli::parse_bool("k", v); });
  }
  // The historical truncation bugs, pinned explicitly.
  EXPECT_THROW((void)cli::parse_int("facets", "36.9"), cli::ArgError);
  EXPECT_THROW((void)cli::parse_int("nx", "12abc"), cli::ArgError);
  EXPECT_THROW((void)cli::parse_double("mach", ""), cli::ArgError);
  EXPECT_THROW((void)cli::parse_double("mach", "1.5x"), cli::ArgError);
  EXPECT_THROW((void)cli::parse_bool("audit", "maybe"), cli::ArgError);
}

TEST(CliFuzz, ScenarioOverridesNeverCrash) {
  namespace cli = cmdsmc::cli;
  namespace scenario = cmdsmc::scenario;
  const auto& keys = scenario::override_keys();
  ASSERT_FALSE(keys.empty());
  cmdsmc::rng::SplitMix64 g(0xBEEFu);
  for (int trial = 0; trial < 4000; ++trial) {
    scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
    // Half the trials aim a junk value at a real key; half use a junk key.
    const std::string key = (trial % 2 == 0)
                                ? keys[g.next_below(
                                      static_cast<std::uint32_t>(keys.size()))]
                                : fuzz_token(g, 10);
    const std::string value = fuzz_token(g, 10);
    expect_usage_contract(key + "=" + value, [&] {
      scenario::apply_override(spec, key, value);
      // An accepted override must still build a validatable config or
      // classify as a config error — never crash.
      try {
        (void)spec.build_config();
      } catch (const std::invalid_argument&) {
      }
    });
  }
}

// --- Fleet sweep grammar fuzz ------------------------------------------

TEST(SweepFuzz, GrammarEdgeCasesClassifyAsUsage) {
  namespace cli = cmdsmc::cli;
  namespace fleet = cmdsmc::fleet;
  // Every one of these malformed tokens must raise ArgError (exit 2).
  const char* bad[] = {
      "sweep:",                    // no key, no values
      "sweep:=4",                  // empty key
      "sweep:mach",                // no '='
      "sweep:mach=",               // empty value list
      "sweep:mach=4,,8",           // empty list entry
      "sweep:mach=,",              // only separators
      "sweep:mach=1..4",           // range without point count
      "sweep:mach=1..4/0",         // N = 0
      "sweep:mach=1..4/1",         // N = 1 (needs two endpoints)
      "sweep:mach=1..4/-3",        // negative count
      "sweep:mach=1..4/9999999",   // beyond the range-point cap
      "sweep:mach=1../4",          // empty hi bound
      "sweep:mach=..4/4",          // empty lo bound
      "sweep:mach=a..b/4",         // non-numeric bounds
      "sweep:mach=1..4/x",         // non-numeric count
  };
  for (const char* tok : bad) {
    EXPECT_THROW((void)fleet::parse_sweep_axis(tok), cli::ArgError) << tok;
    try {
      (void)fleet::parse_sweep_axis(tok);
    } catch (const std::exception& e) {
      EXPECT_EQ(cli::error_exit_code(e), 2) << tok;
    }
  }

  // Legal edges: reversed bounds sweep downward; N=2 is the minimal range.
  const auto down = fleet::parse_sweep_axis("sweep:mach=8..2/4");
  ASSERT_EQ(down.values.size(), 4u);
  EXPECT_EQ(down.values.front(), "8");
  EXPECT_EQ(down.values.back(), "2");
  const auto two = fleet::parse_sweep_axis("sweep:lambda=0.1..1/2");
  ASSERT_EQ(two.values.size(), 2u);
  // A single-value list is a legal one-point axis.
  EXPECT_EQ(fleet::parse_sweep_axis("sweep:seed=7").values.size(), 1u);
}

TEST(SweepFuzz, HugeCrossProductsAreRejectedNotExpanded) {
  namespace cli = cmdsmc::cli;
  namespace fleet = cmdsmc::fleet;
  fleet::SweepRequest req;
  req.scenario = "wedge-mach4";
  for (const char* tok :
       {"sweep:mach=1..10/100", "sweep:lambda=0.01..1/100",
        "sweep:sigma=0.05..0.2/11"})
    req.axes.push_back(fleet::parse_sweep_axis(tok));
  // 100 * 100 * 11 jobs would blow the fleet cap: the request must refuse
  // to expand (ArgError, exit 2), not allocate 110000 job descriptors.
  EXPECT_THROW((void)req.job_count(), cli::ArgError);
  try {
    (void)req.job_count();
  } catch (const std::exception& e) {
    EXPECT_EQ(cli::error_exit_code(e), 2);
  }
  // An axis with zero values short-circuits to an empty sweep.
  fleet::SweepRequest empty;
  empty.axes.push_back({"mach", {}});
  EXPECT_EQ(empty.job_count(), 0u);
}

TEST(SweepFuzz, RandomSweepTokensNeverCrash) {
  namespace fleet = cmdsmc::fleet;
  cmdsmc::rng::SplitMix64 g(0x5EEDu);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string tok = "sweep:" + fuzz_token(g, 20);
    ASSERT_TRUE(fleet::is_sweep_token(tok));
    expect_usage_contract(tok, [&] {
      const auto axis = fleet::parse_sweep_axis(tok);
      // Success implies a well-formed axis: named key, non-empty values.
      EXPECT_FALSE(axis.key.empty());
      EXPECT_FALSE(axis.values.empty());
      for (const std::string& v : axis.values) EXPECT_FALSE(v.empty());
    });
  }
}

TEST(SimulationFuzz, HardSphereAndPowerLawGasesRun) {
  for (auto pot : {cmdsmc::physics::Potential::kHardSphere,
                   cmdsmc::physics::Potential::kInversePower}) {
    core::SimConfig cfg;
    cfg.nx = 32;
    cfg.ny = 24;
    cfg.mach = 4.0;
    cfg.sigma = 0.12;
    cfg.lambda_inf = 0.5;
    cfg.particles_per_cell = 6.0;
    cfg.has_wedge = true;
    cfg.wedge_x0 = 8.0;
    cfg.wedge_base = 8.0;
    cfg.wedge_angle_deg = 25.0;
    cfg.gas.potential = pot;
    cfg.gas.alpha = 9.0;
    cmdp::ThreadPool pool(4);
    core::SimulationD sim(cfg, &pool);
    sim.run(30);
    EXPECT_GT(sim.counters().collisions, 0u);
    EXPECT_TRUE(std::isfinite(sim.total_energy()));
  }
}
