// Invariant audit layer (src/audit/).
//
// Two halves, matching the layer's own split:
//  - The pure checks must FIRE on deliberately corrupted inputs (a check
//    that never fires proves nothing) and stay silent on clean ones.
//  - The full Auditor wired into Simulation::step must report ZERO
//    violations over real wedge and axisymmetric runs, and attaching it
//    must not perturb the physics by a single bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "audit/audit.h"
#include "audit/auditor.h"
#include "cmdp/sort.h"
#include "core/checkpoint.h"
#include "core/simulation.h"

namespace audit = cmdsmc::audit;
namespace cmdp = cmdsmc::cmdp;
namespace core = cmdsmc::core;
namespace geom = cmdsmc::geom;

namespace {

core::SimConfig small_wedge_config() {
  core::SimConfig cfg;
  cfg.nx = 49;
  cfg.ny = 32;
  cfg.wedge_x0 = 10.0;
  cfg.wedge_base = 12.0;
  cfg.particles_per_cell = 8.0;
  cfg.seed = 4242;
  return cfg;
}

core::SimConfig small_axi_config() {
  core::SimConfig cfg;
  cfg.nx = 40;
  cfg.ny = 20;
  cfg.has_wedge = false;
  cfg.axisymmetric = true;
  cfg.mach = 4.0;
  cfg.sigma = 0.12;
  cfg.particles_per_cell = 8.0;
  cfg.reservoir_fraction = 0.4;
  cfg.seed = 99;
  return cfg;
}

// A consistent (cell, counts, starts) triple: `occupancy[c]` particles in
// each of `ncells` runs, laid out contiguously.
struct SortFixture {
  std::vector<std::uint32_t> cell, counts, starts;
  explicit SortFixture(const std::vector<std::uint32_t>& occupancy) {
    counts = occupancy;
    starts.resize(counts.size());
    std::uint32_t run = 0;
    for (std::size_t c = 0; c < counts.size(); ++c) {
      starts[c] = run;
      run += counts[c];
      for (std::uint32_t k = 0; k < counts[c]; ++k)
        cell.push_back(static_cast<std::uint32_t>(c));
    }
  }
};

// 54 particles in 16 pairing cells of uneven occupancy, cut for four lanes
// at count quantiles the way the step cuts them: {0, 4, 9, 11, 16}, lanes
// of 14, 16, 11 and 13 particles.
struct PartitionFixture : SortFixture {
  std::vector<std::uint32_t> cuts = std::vector<std::uint32_t>(5);
  PartitionFixture()
      : SortFixture({9, 1, 0, 4, 7, 2, 2, 0, 5, 3, 8, 1, 0, 6, 2, 4}) {
    cmdp::count_quantile_cuts(starts, cell.size(), cuts);
  }
  double imbalance() const {
    return cmdp::cut_imbalance(starts, cell.size(), cuts);
  }
  void check(double reported, std::vector<audit::Violation>& out) const {
    audit::check_partition(cuts, starts, cell.size(), reported, 1e-6, 0, out);
  }
};

template <class Real>
core::ParticleStore<Real> tiny_store(std::size_t n, bool weighted = false) {
  core::ParticleStore<Real> store;
  store.has_weight = weighted;
  store.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    store.x[i] = static_cast<Real>(0.5 + static_cast<double>(i % 4));
    store.y[i] = static_cast<Real>(0.5 + static_cast<double>(i / 4 % 4));
    store.ux[i] = static_cast<Real>(1.0 + 0.125 * static_cast<double>(i));
    store.uy[i] = static_cast<Real>(-0.5);
    store.uz[i] = static_cast<Real>(0.25);
    store.r0[i] = static_cast<Real>(0.75);
    store.r1[i] = static_cast<Real>(-0.25);
    store.cell[i] = static_cast<std::uint32_t>(i % 4);
    store.id[i] = static_cast<std::uint32_t>(i);
  }
  return store;
}

}  // namespace

// --- Sort-plan audit -------------------------------------------------------

TEST(AuditSort, CleanRunsPass) {
  SortFixture f({3, 0, 2, 5, 1});
  std::vector<audit::Violation> out;
  audit::check_sort_runs(f.cell, f.counts, f.starts, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(AuditSort, FiresOnMisfiledParticle) {
  SortFixture f({3, 2, 4});
  f.cell[0] = 2;  // particle in run 0 claims cell 2
  std::vector<audit::Violation> out;
  audit::check_sort_runs(f.cell, f.counts, f.starts, 7, out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().family, audit::Family::kSort);
  EXPECT_EQ(out.front().step, 7);
}

TEST(AuditSort, FiresOnShuffledRuns) {
  SortFixture f({4, 4});
  std::swap(f.cell[1], f.cell[5]);  // cross-run swap breaks both runs
  std::vector<audit::Violation> out;
  audit::check_sort_runs(f.cell, f.counts, f.starts, 0, out);
  EXPECT_GE(out.size(), 2u);
}

TEST(AuditSort, FiresOnBrokenPrefixSum) {
  SortFixture f({2, 3, 1});
  f.starts[1] = 3;  // should be 2
  std::vector<audit::Violation> out;
  audit::check_sort_runs(f.cell, f.counts, f.starts, 0, out);
  EXPECT_FALSE(out.empty());
}

TEST(AuditSort, FiresOnLostParticle) {
  SortFixture f({2, 2});
  f.counts[1] = 1;  // tables tile 3 slots but 4 particles exist
  f.starts = {0, 2};
  std::vector<audit::Violation> out;
  audit::check_sort_runs(f.cell, f.counts, f.starts, 0, out);
  EXPECT_FALSE(out.empty());
}

// --- Partition audit -------------------------------------------------------

TEST(AuditShard, CleanPlanPasses) {
  const PartitionFixture f;
  ASSERT_EQ(f.cuts, (std::vector<std::uint32_t>{0, 4, 9, 11, 16}));
  EXPECT_DOUBLE_EQ(f.imbalance(), 16.0 * 4 / 54);
  std::vector<audit::Violation> out;
  f.check(f.imbalance(), out);
  EXPECT_TRUE(out.empty()) << audit::format_violation(out.front());
  // One lane owns every cell and is balanced by definition.
  const std::vector<std::uint32_t> one = {0, 16};
  audit::check_partition(one, f.starts, f.cell.size(), 1.0, 1e-6, 0, out);
  EXPECT_TRUE(out.empty()) << audit::format_violation(out.front());
}

TEST(AuditShard, FiresOnOverlappingBounds) {
  PartitionFixture f;
  f.cuts[1] = f.cuts[2] + 1;  // lane 1 starts after it ends
  std::vector<audit::Violation> out;
  f.check(std::nan(""), out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().family, audit::Family::kPartition);
}

TEST(AuditShard, FiresOnCoverageGap) {
  PartitionFixture f;
  f.cuts.back() = 15;  // last pairing cell no longer covered
  std::vector<audit::Violation> out;
  f.check(std::nan(""), out);
  EXPECT_FALSE(out.empty());
}

TEST(AuditShard, FiresOnCutOffItsQuantile) {
  // Both cuts still ascend and cover the cells, but neither is the first
  // cell starting at or past its quantile (27 of 54): cell 8 starts at 25,
  // and cell 10's predecessor already starts at 30.
  for (const std::uint32_t moved : {8u, 10u}) {
    PartitionFixture f;
    f.cuts[2] = moved;
    std::vector<audit::Violation> out;
    f.check(std::nan(""), out);
    ASSERT_EQ(out.size(), 1u) << "cut moved to cell " << moved;
    EXPECT_EQ(out.front().cell, 2);
  }
}

TEST(AuditShard, FiresOnMisreportedImbalance) {
  const PartitionFixture f;
  std::vector<audit::Violation> out;
  f.check(f.imbalance() + 0.5, out);
  EXPECT_FALSE(out.empty());
}

// --- Conservation: per-cell moments ------------------------------------------

TEST(AuditConservation, CleanSplitMergePasses) {
  auto store = tiny_store<double>(16, /*weighted=*/true);
  audit::CellMoments before, after;
  audit::accumulate_cell_moments(store, 4, before);

  // A legal split: clone particle 0 at half weight (mass, momentum and
  // energy per cell all preserved exactly).
  store.resize(17);
  const std::size_t j = 16;
  store.x[j] = store.x[0];
  store.y[j] = store.y[0];
  store.ux[j] = store.ux[0];
  store.uy[j] = store.uy[0];
  store.uz[j] = store.uz[0];
  store.r0[j] = store.r0[0];
  store.r1[j] = store.r1[0];
  store.cell[j] = store.cell[0];
  store.weight[0] *= 0.5;
  store.weight[j] = store.weight[0];

  audit::accumulate_cell_moments(store, 4, after);
  std::vector<audit::Violation> out;
  audit::compare_cell_moments(before, after, 1e-12, 0, "sort", out);
  EXPECT_TRUE(out.empty()) << audit::format_violation(out.front());
}

TEST(AuditConservation, FiresOnMassLeakingSplit) {
  auto store = tiny_store<double>(16, /*weighted=*/true);
  audit::CellMoments before, after;
  audit::accumulate_cell_moments(store, 4, before);
  store.weight[3] *= 0.5;  // "split" that forgot to append the clone
  audit::accumulate_cell_moments(store, 4, after);
  std::vector<audit::Violation> out;
  audit::compare_cell_moments(before, after, 1e-9, 3, "sort", out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().family, audit::Family::kConservation);
  EXPECT_EQ(out.front().cell, store.cell[3]);
}

TEST(AuditConservation, FiresOnMomentumDrift) {
  auto store = tiny_store<double>(16);
  audit::CellMoments before, after;
  audit::accumulate_cell_moments(store, 4, before);
  store.ux[5] += 0.25;  // merge that moved a velocity without bookkeeping
  audit::accumulate_cell_moments(store, 4, after);
  std::vector<audit::Violation> out;
  audit::compare_cell_moments(before, after, 1e-9, 0, "sort", out);
  EXPECT_FALSE(out.empty());
}

// --- State hygiene ------------------------------------------------------------

TEST(AuditHygiene, FiresOnInjectedNaN) {
  auto store = tiny_store<double>(8);
  store.uy[5] = std::numeric_limits<double>::quiet_NaN();
  std::vector<audit::Violation> out;
  audit::check_finite_store(store, 3, "move", out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().family, audit::Family::kHygiene);
  EXPECT_EQ(out.front().cell, 5);
}

TEST(AuditHygiene, FiresOnInfiniteWeight) {
  auto store = tiny_store<double>(4, /*weighted=*/true);
  store.weight[2] = std::numeric_limits<double>::infinity();
  std::vector<audit::Violation> out;
  audit::check_finite_store(store, 0, "move", out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(AuditHygiene, SpanScanFiresOnNaN) {
  std::vector<double> sums(10, 1.5);
  std::vector<audit::Violation> out;
  audit::check_finite_span(sums, "field", 0, "sample", out);
  EXPECT_TRUE(out.empty());
  sums[7] = std::numeric_limits<double>::quiet_NaN();
  audit::check_finite_span(sums, "field", 0, "sample", out);
  EXPECT_FALSE(out.empty());
}

TEST(AuditHygiene, FiresOnEscapedParticle) {
  auto store = tiny_store<double>(8);
  geom::Grid grid{4, 4, 0};
  geom::Scene scene;
  std::vector<audit::Violation> out;
  audit::check_in_domain(store, grid, scene, 0, "move", out);
  EXPECT_TRUE(out.empty());
  store.x[2] = -0.25;  // drifted past the inflow face
  audit::check_in_domain(store, grid, scene, 0, "move", out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().cell, 2);
}

TEST(AuditHygiene, ReservoirParticlesAreExempt) {
  auto store = tiny_store<double>(8);
  store.x[2] = -0.25;
  store.flags[2] |= core::ParticleStore<double>::kReservoirFlag;
  geom::Grid grid{4, 4, 0};
  geom::Scene scene;
  std::vector<audit::Violation> out;
  audit::check_in_domain(store, grid, scene, 0, "move", out);
  EXPECT_TRUE(out.empty());
}

// --- Checkpoint hash -----------------------------------------------------------

TEST(AuditCheckpoint, HashIsBitSensitive) {
  auto a = tiny_store<double>(32);
  auto b = tiny_store<double>(32);
  EXPECT_EQ(audit::hash_store(a), audit::hash_store(b));
  b.ux[17] = std::nextafter(b.ux[17], 2.0);  // one ulp
  EXPECT_NE(audit::hash_store(a), audit::hash_store(b));
}

TEST(AuditCheckpoint, RoundTripPreservesHash) {
  auto store = tiny_store<double>(64, /*weighted=*/true);
  const std::string path = "audit_roundtrip_test.ckpt";
  core::save_checkpoint(path, store);
  core::ParticleStore<double> restored;
  core::load_checkpoint(path, restored);
  std::remove(path.c_str());
  EXPECT_EQ(audit::hash_store(store), audit::hash_store(restored));
}

// --- Auditor plumbing -----------------------------------------------------------

TEST(Auditor, NonFatalModeAccumulatesViolations) {
  audit::AuditOptions opt;
  opt.fatal = false;
  audit::Auditor<double> auditor(opt);
  EXPECT_TRUE(auditor.wants(0));
  EXPECT_TRUE(auditor.wants(5));
  audit::AuditOptions sparse;
  sparse.every = 4;
  audit::Auditor<double> cadenced(sparse);
  EXPECT_TRUE(cadenced.wants(8));
  EXPECT_FALSE(cadenced.wants(9));
}

TEST(Auditor, FormatCarriesContext) {
  audit::Violation v{audit::Family::kConservation, 12, "ledger", 34, "boom"};
  const std::string s = audit::format_violation(v);
  EXPECT_NE(s.find("conservation"), std::string::npos);
  EXPECT_NE(s.find("12"), std::string::npos);
  EXPECT_NE(s.find("34"), std::string::npos);
  EXPECT_NE(s.find("boom"), std::string::npos);
  audit::AuditFailure err(v);
  EXPECT_EQ(err.violation().step, 12);
}

// --- Full audited runs through the Simulation::step hooks --------------------

TEST(AuditedRun, WedgeRunIsCleanAndBitIdentical) {
  cmdp::ThreadPool pool(4);
  const auto cfg = small_wedge_config();

  core::Simulation<double> plain(cfg, &pool);
  plain.run(24);
  const std::uint64_t plain_hash = audit::hash_store(plain.particles());

  audit::AuditOptions opt;
  opt.fatal = false;
  opt.checkpoint_every = 8;  // exercise the round trip twice in 24 steps
  audit::Auditor<double> auditor(opt);
  core::Simulation<double> audited(cfg, &pool);
  audited.set_auditor(&auditor);
  audited.run(24);

  EXPECT_TRUE(auditor.violations().empty())
      << audit::format_violation(auditor.violations().front());
  EXPECT_GT(auditor.counters().total_checks(), 0u);
  // Every family must have been exercised: each audited step checks the
  // sort runs, the partition cuts, conservation and hygiene.
  using F = audit::Family;
  for (F f : {F::kSort, F::kPartition, F::kConservation, F::kHygiene,
              F::kCheckpoint})
    EXPECT_GT(auditor.counters().checks[static_cast<int>(f)], 0u)
        << audit::family_name(f);
  // Observation must not perturb the physics by a single bit.
  EXPECT_EQ(audit::hash_store(audited.particles()), plain_hash);
}

TEST(AuditedRun, AxisymmetricRunIsClean) {
  cmdp::ThreadPool pool(2);
  audit::AuditOptions opt;
  opt.fatal = false;
  audit::Auditor<double> auditor(opt);
  core::Simulation<double> sim(small_axi_config(), &pool);
  sim.set_auditor(&auditor);
  sim.run(20);
  EXPECT_TRUE(auditor.violations().empty())
      << audit::format_violation(auditor.violations().front());
  EXPECT_GT(auditor.counters().total_checks(), 0u);
}

TEST(AuditedRun, CadenceSkipsSteps) {
  cmdp::ThreadPool pool(2);
  audit::AuditOptions every_step;
  every_step.fatal = false;
  audit::AuditOptions sparse;
  sparse.fatal = false;
  sparse.every = 5;
  audit::Auditor<double> dense(every_step), cadenced(sparse);
  {
    core::Simulation<double> sim(small_wedge_config(), &pool);
    sim.set_auditor(&dense);
    sim.run(10);
  }
  {
    core::Simulation<double> sim(small_wedge_config(), &pool);
    sim.set_auditor(&cadenced);
    sim.run(10);
  }
  EXPECT_LT(cadenced.counters().total_checks(),
            dense.counters().total_checks());
  EXPECT_GT(cadenced.counters().total_checks(), 0u);
}
