// Golden bit-identity tests for the fused step pipeline.
//
// The per-step pipeline (move+BC, sort, select, collide) has been
// restructured for speed several times; these tests pin the *exact* results
// (cumulative counters, a hash over every particle's state bits, and a hash
// over the time-averaged fields) of short wedge and cylinder runs at a fixed
// seed, for both the double and the fixed-point engines.  Any refactor that
// changes physics — a different stable order, an extra or missing RNG draw,
// a changed rounding — flips these hashes.
//
// The pinned values were produced by the pre-fusion pipeline (PR 2 state:
// separate key-generation pass, histogram+scan in phase_select, gather-based
// reorder) and must survive every later restructuring bit-for-bit.
//
// Regenerate (after an *intentional* physics change only) with:
//   GOLDEN_PRINT=1 ./test_golden_pipeline
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cmdp/thread_pool.h"
#include "core/simulation.h"
#include "fixedpoint/fixed32.h"
#include "geom/body.h"
#include "obs/telemetry.h"
#include "scenario/scenario.h"

namespace {

using namespace cmdsmc;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }
std::uint64_t bits_of(fixedpoint::Fixed32 v) {
  return static_cast<std::uint32_t>(v.raw);
}

// Hash over every particle's full state bits, the array order (the stable
// sort's output), the flags/cells, and the cumulative counters.  Exact: any
// single-bit divergence anywhere in the run changes it.
template <class Real>
std::uint64_t state_hash(const core::Simulation<Real>& sim) {
  const auto& st = sim.particles();
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < st.size(); ++i) {
    h = fnv1a(h, bits_of(st.x[i]));
    h = fnv1a(h, bits_of(st.y[i]));
    if (st.has_z) h = fnv1a(h, bits_of(st.z[i]));
    h = fnv1a(h, bits_of(st.ux[i]));
    h = fnv1a(h, bits_of(st.uy[i]));
    h = fnv1a(h, bits_of(st.uz[i]));
    h = fnv1a(h, bits_of(st.r0[i]));
    h = fnv1a(h, bits_of(st.r1[i]));
    if (st.has_vib) {
      h = fnv1a(h, bits_of(st.v0[i]));
      h = fnv1a(h, bits_of(st.v1[i]));
    }
    h = fnv1a(h, static_cast<std::uint64_t>(st.perm[i]));
    h = fnv1a(h, st.cell[i]);
    h = fnv1a(h, st.flags[i]);
    h = fnv1a(h, st.id[i]);
    // Radial weights exist only in axisymmetric runs; folding them in only
    // there leaves every planar pin as it was.
    if (st.has_weight) h = fnv1a(h, bits_of(st.weight[i]));
  }
  const auto& c = sim.counters();
  h = fnv1a(h, c.candidates);
  h = fnv1a(h, c.collisions);
  h = fnv1a(h, c.reservoir_collisions);
  h = fnv1a(h, c.removed);
  h = fnv1a(h, c.injected);
  h = fnv1a(h, c.synthesized);
  h = fnv1a(h, sim.total_count());
  h = fnv1a(h, sim.reservoir_count());
  if (st.has_weight) {
    h = fnv1a(h, c.cloned);
    h = fnv1a(h, c.merged);
  }
  return h;
}

// Hash over the finalized time-averaged fields.  The sampler accumulates
// per cell in array order, so this hash is thread- and partition-invariant
// too.
std::uint64_t field_hash(const core::FieldStats& f) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, static_cast<std::uint64_t>(f.samples));
  for (const auto* v : {&f.density, &f.ux, &f.uy, &f.t_trans, &f.t_rot}) {
    for (double x : *v) h = fnv1a(h, bits_of(x));
  }
  return h;
}

// Diagnostics reductions (fused total_momentum) folded into one hash.
template <class Real>
std::uint64_t diag_hash(const core::Simulation<Real>& sim) {
  std::uint64_t h = 1469598103934665603ull;
  const auto p = sim.total_momentum();
  h = fnv1a(h, bits_of(p[0]));
  h = fnv1a(h, bits_of(p[1]));
  h = fnv1a(h, bits_of(p[2]));
  h = fnv1a(h, bits_of(sim.total_energy()));
  return h;
}

// The paper's wedge tunnel scaled down: plunger upstream boundary, specular
// walls, sort randomization on, counter RNG.
core::SimConfig wedge_cfg() {
  core::SimConfig cfg;
  cfg.nx = 60;
  cfg.ny = 32;
  cfg.wedge_x0 = 12.0;
  cfg.wedge_base = 18.0;
  cfg.wedge_angle_deg = 30.0;
  cfg.particles_per_cell = 8.0;
  cfg.lambda_inf = 0.5;
  cfg.seed = 0x5eed601dULL;
  return cfg;
}

// A generalized body + the vector-machine upstream path: cylinder with
// diffuse-isothermal walls, soft-source inflow (exercises the strip-count
// top-up), body open-fraction cells.
core::SimConfig cylinder_cfg() {
  core::SimConfig cfg;
  cfg.nx = 48;
  cfg.ny = 32;
  cfg.has_wedge = false;
  cfg.body = geom::Body::Cylinder(20.0, 16.0, 6.0, 16);
  cfg.upstream = geom::UpstreamMode::kSoftSource;
  cfg.wall = geom::WallModel::kDiffuseIsothermal;
  cfg.particles_per_cell = 8.0;
  cfg.lambda_inf = 0.5;
  cfg.seed = 0x5eed601dULL;
  return cfg;
}

// A two-body scene through the Scene-accelerated path: tandem cylinders
// with diffuse walls, plunger upstream, per-(body, segment) flux indexing.
core::SimConfig tandem_cfg() {
  core::SimConfig cfg;
  cfg.nx = 64;
  cfg.ny = 32;
  cfg.has_wedge = false;
  cfg.body = geom::Body::Cylinder(18.0, 16.0, 5.0, 12);
  cfg.bodies.push_back(geom::Body::Cylinder(44.0, 16.0, 5.0, 12));
  cfg.wall = geom::WallModel::kDiffuseIsothermal;
  cfg.particles_per_cell = 8.0;
  cfg.lambda_inf = 0.5;
  cfg.seed = 0x5eed601dULL;
  return cfg;
}

// The wedge on a finer grid at the widest sort-key scale: (cells +
// reservoir pairing cells) x 256 puts the key space above 2^21, the range
// older pipelines sorted through a separate two-pass radix path.
core::SimConfig wide_key_cfg() {
  core::SimConfig cfg = wedge_cfg();
  cfg.nx = 128;
  cfg.ny = 64;
  cfg.sort_scale = 256;
  return cfg;
}

// An axisymmetric sphere (a faceted circle on the r = 0 axis, revolved)
// with diffuse walls: the rotated move and its own fast-path bound, the
// boundary path on the rotated state, and the split/merge weight
// balancing.
core::SimConfig axi_sphere_cfg() {
  core::SimConfig cfg;
  cfg.nx = 48;
  cfg.ny = 24;
  cfg.has_wedge = false;
  cfg.axisymmetric = true;
  cfg.sigma = 0.12;
  cfg.body = geom::Body::Cylinder(20.0, 0.0, 6.0, 16);
  cfg.wall = geom::WallModel::kDiffuseIsothermal;
  cfg.particles_per_cell = 8.0;
  cfg.lambda_inf = 0.5;
  cfg.reservoir_fraction = 0.3;
  cfg.seed = 0x5eed601dULL;
  return cfg;
}

// The wedge extruded along z through a 3D duct: the z coordinate on both
// the fast and the boundary path of the move.
core::SimConfig duct3d_cfg() {
  core::SimConfig cfg;
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.nz = 8;
  cfg.wedge_x0 = 8.0;
  cfg.wedge_base = 8.0;
  cfg.wedge_angle_deg = 25.0;
  cfg.particles_per_cell = 6.0;
  cfg.lambda_inf = 0.5;
  cfg.reservoir_fraction = 0.25;
  cfg.seed = 0x5eed601dULL;
  return cfg;
}

// A vibrational gas in the plunger-fed wedge tunnel with no reservoir: the
// first refills synthesize every particle, later ones also draw particles
// the sink parked, and every one of those paths draws the vibrational pair.
core::SimConfig vib_tunnel_cfg() {
  core::SimConfig cfg = wedge_cfg();
  cfg.reservoir_fraction = 0.0;
  cfg.vibrational = true;
  return cfg;
}

constexpr unsigned kGoldenThreads = 3;
constexpr int kWarmSteps = 20;
constexpr int kAvgSteps = 10;

struct GoldenTriple {
  std::uint64_t state;
  std::uint64_t field;
  std::uint64_t diag;
};

// `counters`, when given, receives the run's final counters, so a pin can
// also show which paths its run went through.
template <class Real>
GoldenTriple run_case(const core::SimConfig& cfg, unsigned threads,
                      core::SimCounters* counters = nullptr) {
  cmdp::ThreadPool pool(threads);
  core::Simulation<Real> sim(cfg, &pool);
  sim.run(kWarmSteps);
  sim.set_sampling(true);
  sim.run(kAvgSteps);
  if (counters != nullptr) *counters = sim.counters();
  return {state_hash(sim), field_hash(sim.field()), diag_hash(sim)};
}

void check(const char* name, const GoldenTriple& got,
           const GoldenTriple& want) {
  if (std::getenv("GOLDEN_PRINT") != nullptr) {
    std::printf("  {0x%016llxull, 0x%016llxull, 0x%016llxull},  // %s\n",
                static_cast<unsigned long long>(got.state),
                static_cast<unsigned long long>(got.field),
                static_cast<unsigned long long>(got.diag), name);
    return;
  }
  EXPECT_EQ(got.state, want.state) << name << ": particle state diverged";
  EXPECT_EQ(got.field, want.field) << name << ": sampled fields diverged";
  EXPECT_EQ(got.diag, want.diag) << name << ": diagnostics diverged";
}

// Pinned pre-refactor values (see header comment).  The tandem pair was
// pinned when the multi-body Scene landed (no pre-Scene pipeline could run
// it); it guards the scene-accelerated path against later drift.
// The field hashes were re-pinned when the cell-block sharding PR switched
// field accumulation to per-cell array-order sums (an intentional
// summation-order change that made them thread-invariant); the state and
// diag hashes survived that PR untouched, as they must.
// The double wedge triple (and kWide below) was re-pinned once when the
// wedge moved onto the one-body scene: Body::Wedge's ramp normal and depth
// round differently in the last bits than the former wedge-only arithmetic,
// so reflected particles differ from step 1.  Fixed32 rounds that away and
// kept its pin.
constexpr GoldenTriple kGolden[6] = {
    {0x1f8b62071656c578ull, 0xae9340025e975e94ull, 0x002b29dfc86e9d14ull},
    // wedge double ^, wedge fixed v
    {0x52a549304519061eull, 0x0b468d37601ee949ull, 0x45b437e2a62ca66aull},
    {0x71f2d96154f643f1ull, 0xd566160955eabf63ull, 0x2115fcd97095ffddull},
    // cylinder double ^, cylinder fixed v
    {0x3d29e0bd4bb9eff4ull, 0x3d9ca9dca00b77fdull, 0xd9542098dd6ab304ull},
    {0x500abe99af585c80ull, 0xae4a91c8aed12b0bull, 0x12a1458a37e9df02ull},
    // tandem double ^, tandem fixed v
    {0xb4073cb330ed867dull, 0xc026021f015b9042ull, 0x839cd7da3c979a70ull},
};

}  // namespace

TEST(GoldenPipeline, WedgeDouble) {
  check("wedge double", run_case<double>(wedge_cfg(), kGoldenThreads),
        kGolden[0]);
}

TEST(GoldenPipeline, WedgeFixed) {
  check("wedge fixed", run_case<fixedpoint::Fixed32>(wedge_cfg(),
                                                     kGoldenThreads),
        kGolden[1]);
}

TEST(GoldenPipeline, CylinderDouble) {
  check("cylinder double", run_case<double>(cylinder_cfg(), kGoldenThreads),
        kGolden[2]);
}

TEST(GoldenPipeline, CylinderFixed) {
  check("cylinder fixed",
        run_case<fixedpoint::Fixed32>(cylinder_cfg(), kGoldenThreads),
        kGolden[3]);
}

TEST(GoldenPipeline, TandemCylindersDouble) {
  check("tandem double", run_case<double>(tandem_cfg(), kGoldenThreads),
        kGolden[4]);
}

TEST(GoldenPipeline, TandemCylindersFixed) {
  check("tandem fixed",
        run_case<fixedpoint::Fixed32>(tandem_cfg(), kGoldenThreads),
        kGolden[5]);
}

// The move loop's axisymmetric, 3D and vibrational branches, pinned before
// its planar and axisymmetric boundary paths were merged into one.
constexpr GoldenTriple kGoldenBranches[4] = {
    {0xd7fe81801c8807b6ull, 0x9ec9ff93a31581a7ull, 0x6fe5330f1d2c6f36ull},
    // axi sphere double ^, axi sphere fixed v
    {0xf0db5cbd36ec8d5aull, 0xa5e45ed8388f5118ull, 0x53e460f3e898f678ull},
    {0x9cb1a65dca761fefull, 0x92e45acb0451d237ull, 0x781e0d66d799b295ull},
    // duct3d double ^, vibrational tunnel double v
    {0xcbc5c0df7d0ea7a5ull, 0x99ccbe3a62341e6eull, 0x9538c76ae2846818ull},
};

TEST(GoldenPipeline, AxiSphereDouble) {
  core::SimCounters c;
  check("axi sphere double",
        run_case<double>(axi_sphere_cfg(), kGoldenThreads, &c),
        kGoldenBranches[0]);
  // Particles leave through the sink and the balancing both splits and
  // merges.
  EXPECT_GT(c.removed, 0u);
  EXPECT_GT(c.cloned, 0u);
  EXPECT_GT(c.merged, 0u);
}

TEST(GoldenPipeline, AxiSphereFixed) {
  check("axi sphere fixed",
        run_case<fixedpoint::Fixed32>(axi_sphere_cfg(), kGoldenThreads),
        kGoldenBranches[1]);
}

TEST(GoldenPipeline, Duct3dDouble) {
  core::SimCounters c;
  check("duct3d double", run_case<double>(duct3d_cfg(), kGoldenThreads, &c),
        kGoldenBranches[2]);
  EXPECT_GT(c.removed, 0u);
}

TEST(GoldenPipeline, VibrationalTunnelDouble) {
  core::SimCounters c;
  check("vibrational tunnel double",
        run_case<double>(vib_tunnel_cfg(), kGoldenThreads, &c),
        kGoldenBranches[3]);
  // The sink parks particles, refills draw on them, and the reservoir
  // still runs dry, so synthesis draws too.
  EXPECT_GT(c.removed, 0u);
  EXPECT_GT(c.synthesized, 0u);
  EXPECT_GT(c.injected, c.synthesized);
}

// Both ways of describing the paper's wedge, the config's wedge fields and
// cfg.body = Body::Wedge of the same fields, run the same one-body scene:
// every particle bit and every sampled field bit agree, in both engines.
TEST(SurfaceIntegration, BodyWedgeMatchesLegacyWedgeFields) {
  const core::SimConfig fields = wedge_cfg();
  core::SimConfig body = fields;
  body.body = geom::Body::Wedge(fields.wedge_x0, fields.wedge_base,
                                fields.wedge_angle_rad());
  const auto d_fields = run_case<double>(fields, kGoldenThreads);
  const auto d_body = run_case<double>(body, kGoldenThreads);
  EXPECT_EQ(d_fields.state, d_body.state);
  EXPECT_EQ(d_fields.field, d_body.field);
  const auto f_fields = run_case<fixedpoint::Fixed32>(fields, kGoldenThreads);
  const auto f_body = run_case<fixedpoint::Fixed32>(body, kGoldenThreads);
  EXPECT_EQ(f_fields.state, f_body.state);
  EXPECT_EQ(f_fields.field, f_body.field);
}

// Telemetry is a pure observer: attaching a full session (per-step JSONL +
// Chrome trace + per-lane timer accumulation) must not perturb a single bit
// of the physics.  Any RNG draw, reordering, or extra particle touch made by
// the observability layer flips the pinned hashes.
TEST(GoldenPipeline, TelemetryOnMatchesGolden) {
  cmdp::ThreadPool pool(kGoldenThreads);
  core::SimulationD sim(wedge_cfg(), &pool);

  obs::TelemetryOptions topt;
  topt.jsonl_path = "golden_telemetry.jsonl";
  topt.trace_path = "golden_trace.json";
  obs::TelemetrySession telemetry(std::move(topt));
  ASSERT_TRUE(telemetry.ok());
  sim.set_step_observer(&telemetry);

  sim.run(kWarmSteps);
  sim.set_sampling(true);
  sim.run(kAvgSteps);
  sim.set_step_observer(nullptr);
  telemetry.finish();

  EXPECT_EQ(telemetry.steps_recorded(), kWarmSteps + kAvgSteps);
  const GoldenTriple got = {state_hash(sim), field_hash(sim.field()),
                            diag_hash(sim)};
  check("wedge double + telemetry", got, kGolden[0]);
  std::remove("golden_telemetry.jsonl");
  std::remove("golden_trace.json");
}

// The particle state (sorted order, counters, every state bit) must not
// depend on the thread count: the sort is stable and deterministic per lane
// partition, all counters are integers, and no RNG draw depends on a lane
// id.  The sampled fields accumulate per cell in array order, so their
// hash is thread-invariant too — the 16- and 32-lane legs cut the cells
// into far more blocks than the pinned 3.
// (The diag hash stays lane-summed parallel_reduce doubles and legitimately
// changes association with the thread count; it is pinned at kGoldenThreads
// only.)
TEST(GoldenPipeline, StateIsThreadCountInvariant) {
  const auto a = run_case<double>(wedge_cfg(), 1);
  for (const unsigned threads : {kGoldenThreads, 16u, 32u}) {
    const auto b = run_case<double>(wedge_cfg(), threads);
    EXPECT_EQ(a.state, b.state) << "wedge state @ " << threads << " lanes";
    EXPECT_EQ(a.field, b.field) << "wedge field @ " << threads << " lanes";
  }
  const auto c = run_case<fixedpoint::Fixed32>(cylinder_cfg(), 1);
  const auto d = run_case<fixedpoint::Fixed32>(cylinder_cfg(),
                                               kGoldenThreads);
  EXPECT_EQ(c.state, d.state);
  EXPECT_EQ(c.field, d.field);
  const auto e = run_case<double>(tandem_cfg(), 1);
  const auto f = run_case<double>(tandem_cfg(), 16);
  EXPECT_EQ(e.state, f.state);
  EXPECT_EQ(e.field, f.field);
}

// The partition follows the sort's per-cell starts and nothing else: two
// runs of one configuration on separate pools cut the same blocks after
// every step, whatever their phase clocks read.
TEST(GoldenPipeline, ShardPlanDependsOnCountsAlone) {
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  spec.config.particles_per_cell = 4.0;
  const core::SimConfig cfg = spec.build_config();
  cmdp::ThreadPool pool_a(4);
  cmdp::ThreadPool pool_b(4);
  core::SimulationD a(cfg, &pool_a);
  core::SimulationD b(cfg, &pool_b);
  for (int s = 0; s < 300; ++s) {
    a.step();
    b.step();
    ASSERT_EQ(a.partition().size(), 5u) << "step " << s;
    ASSERT_EQ(a.partition(), b.partition()) << "step " << s;
    ASSERT_EQ(a.partition_imbalance(), b.partition_imbalance())
        << "step " << s;
  }
}

// A checkpoint restored into a pool of another lane count: save at step 10
// on 3 lanes, restore on 16 (so every later step cuts 16 blocks instead of
// 3), and finish the run.  The full golden triple must reproduce — the
// partition is per-step state that carries no physics.  This is the same
// save/restore mechanism core/checkpoint.* serializes to disk.
TEST(GoldenPipeline, RepartitionAcrossCheckpointReproducesHashes) {
  cmdp::ThreadPool pool_a(kGoldenThreads);
  core::SimulationD a(wedge_cfg(), &pool_a);
  a.run(10);
  const auto store_snapshot = a.particles();
  const auto state_snapshot = a.resume_state();

  cmdp::ThreadPool pool_b(16);
  core::SimulationD b(wedge_cfg(), &pool_b);
  b.restore(store_snapshot, state_snapshot);
  b.run(kWarmSteps - 10);
  b.set_sampling(true);
  b.run(kAvgSteps);

  EXPECT_EQ(state_hash(b), kGolden[0].state);
  EXPECT_EQ(field_hash(b.field()), kGolden[0].field);
  EXPECT_EQ(b.partition().size(), 17u);
}

// A key space above 2^21 runs through the same one-table
// counting sort as every other run.  Pinned from the two-pass radix
// pipeline that used to sort it, at one lane and at four (the diag hash is
// a lane-summed reduction, so each lane count has its own); re-pinned with
// kGolden[0].
TEST(GoldenPipeline, WideKeySpaceMatchesRadixPipeline) {
  constexpr GoldenTriple kWide[2] = {
      {0xd762ef621254ebd7ull, 0x35c54d89f99f56e7ull, 0xff3e6605db82155full},
      // 1 lane ^, 4 lanes v
      {0xd762ef621254ebd7ull, 0x35c54d89f99f56e7ull, 0x19dc94c9b0a3195bull},
  };
  const unsigned lanes[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    const std::string name = "wide keys @ " + std::to_string(lanes[k]);
    check(name.c_str(), run_case<double>(wide_key_cfg(), lanes[k]), kWide[k]);
  }
  cmdp::ThreadPool pool(1);
  core::SimulationD sim(wide_key_cfg(), &pool);
  sim.step();
  // 2^21 was the largest key bound the old pipeline sorted with one
  // counting sort; the pins above come from its radix path only if this
  // key space lies beyond it.
  EXPECT_GT(sim.sort_counts().size() * 256u, 1u << 21);
}

// A sampled step forks the pool once per phase: move, sort, collide and
// sample.  No phase may add fork-join regions of its own (each costs a
// wake-up and a barrier on every lane), and the sort must run on the
// pool's lanes, which it takes from the previous step's partition.
TEST(GoldenPipeline, SampledStepOpensOneRegionPerPhase) {
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  spec.config.particles_per_cell = 4.0;
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(spec.build_config(), &pool);
  sim.run(5);
  sim.set_sampling(true);
  for (int s = 0; s < 10; ++s) {
    const std::uint64_t before = pool.regions();
    sim.step();
    EXPECT_EQ(pool.regions() - before, 4u) << "step " << sim.step_index();
  }
}
