#include "core/particles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/simulation.h"
#include "fixedpoint/fixed32.h"

namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;
using cmdsmc::fixedpoint::Fixed32;

TEST(ParticleStore, ResizeAndPushBack) {
  core::ParticleStore<double> s;
  s.resize(3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.z.size(), 0u);  // 2D: z not allocated
  s.x[2] = 1;
  s.r1[2] = 7;
  s.flags[2] = 1;
  // Growing keeps every record and value-initializes the new one.
  s.resize(4);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.flags.size(), 4u);
  EXPECT_EQ(s.x[2], 1.0);
  EXPECT_EQ(s.r1[2], 7.0);
  EXPECT_EQ(s.flags[2], 1);
  EXPECT_EQ(s.x[3], 0.0);
  EXPECT_EQ(s.flags[3], 0);
}

TEST(ParticleStore, HasZAllocatesZ) {
  core::ParticleStore<double> s;
  s.has_z = true;
  s.resize(5);
  EXPECT_EQ(s.z.size(), 5u);
  s.z[4] = 9;
  s.resize(6);
  EXPECT_EQ(s.z.size(), 6u);
  EXPECT_EQ(s.z[4], 9.0);
  EXPECT_EQ(s.z[5], 0.0);
}

#if CMDSMC_PAGE_MAPPED_ARRAYS
namespace {

// This process's resident set (VmRSS), in KiB.
long resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  ADD_FAILURE() << "no VmRSS in /proc/self/status";
  return 0;
}

constexpr std::size_t kRecords = 100000;

// Builds and frees one store, then builds `s` and grows it 5%.  Returns the
// KiB that building `s` and growing it added to the resident set.  Through
// malloc, freeing the first store's mmapped blocks would raise glibc's mmap
// threshold and carve `s` from the heap, where a freed block stays resident.
std::pair<long, long> build_then_grow(core::ParticleStore<double>& s) {
  {
    core::ParticleStore<double> first;
    first.resize(kRecords);
  }
  const long before = resident_kib();
  s.resize(kRecords);
  const long built = resident_kib();
  s.resize(kRecords + kRecords / 20);
  return {built - before, resident_kib() - built};
}

}  // namespace

// A store that grows past its capacity moves every array to a new block;
// the old copies must leave the resident set at once, so the growth costs
// about the 5% it adds, not another copy of the store.
TEST(ParticleStore, GrowthReturnsFreedArraysToTheSystem) {
  core::ParticleStore<double> s;
  const auto [built, grown] = build_then_grow(s);
  ASSERT_GT(built, 0);
  EXPECT_LE(static_cast<double>(grown), 0.25 * static_cast<double>(built))
      << "building added " << built << " KiB, growing 5% added " << grown;
}

// The sort moves a 4-byte index and rotates each array through one spare
// per element type, so it holds no second copy of the record.  Its first
// steps add the keys, the index and the double, permutation and flags
// spares: 4 + 4 + 8 + 2 + 1 = 19 B per planar particle, against the 67 B
// record that building the store added.  A sort that scatters into a
// second store adds that record again, plus the key.  The bound, 32 B per
// 67 B of record, is taken against what the record measured, so shadow
// memory (ThreadSanitizer maps some for every page touched) scales both.
TEST(ParticleStore, SortHoldsNoSecondStore) {
  cmdp::ThreadPool pool(4);
  core::SimConfig cfg;
  cfg.nx = 40;
  cfg.ny = 24;
  cfg.wedge_x0 = 10.0;
  cfg.wedge_base = 14.0;
  cfg.wedge_angle_deg = 30.0;
  cfg.particles_per_cell = 200.0;
  cfg.seed = 0x5071;
  const long empty = resident_kib();
  core::SimulationD sim(cfg, &pool);
  const long built = resident_kib();
  sim.run(3);
  const long stepped = resident_kib();
  const auto n = static_cast<double>(sim.total_count());
  ASSERT_GT(n, 150000.0);
  const double record = 1024.0 * static_cast<double>(built - empty) / n;
  const double sort = 1024.0 * static_cast<double>(stepped - built) / n;
  EXPECT_LE(sort, 32.0 / 67.0 * record)
      << "building added " << record << " B and three steps " << sort
      << " B per particle";
}

// The move and collide loops walk the seven Real arrays at one index: no
// two of them may start at the same offset into a 4 KiB page.
TEST(ParticleStore, ArraysDoNotShareAPageOffset) {
  core::ParticleStore<double> s;
  build_then_grow(s);
  const char* const names[] = {"x", "y", "ux", "uy", "uz", "r0", "r1"};
  const double* const arrays[] = {s.x.data(),  s.y.data(),  s.ux.data(),
                                  s.uy.data(), s.uz.data(), s.r0.data(),
                                  s.r1.data()};
  for (std::size_t a = 0; a < 7; ++a)
    for (std::size_t b = a + 1; b < 7; ++b)
      EXPECT_NE(reinterpret_cast<std::uintptr_t>(arrays[a]) % 4096,
                reinterpret_cast<std::uintptr_t>(arrays[b]) % 4096)
          << names[a] << " and " << names[b];
}
#endif

namespace {

// A distinct value for field `f` of record `i` (raw bits for Fixed32, so
// every value is exact).
template <class Real>
Real field_value(std::size_t i, int f) {
  const auto r =
      static_cast<std::int32_t>(16 * i + static_cast<std::size_t>(f));
  if constexpr (std::is_same_v<Real, double>)
    return static_cast<double>(r);
  else
    return Real::from_raw(r);
}

std::int64_t raw_of(double v) { return static_cast<std::int64_t>(v); }
std::int64_t raw_of(Fixed32 v) { return v.raw; }

// A partition of [0, key_bound) into one key range per pool lane, cut at
// particle-count quantiles of `keys`: what a caller's previous sort of them
// hands counting_sort_plan.
std::vector<std::uint32_t> quantile_cuts(cmdp::ThreadPool& pool,
                                         const std::vector<std::uint32_t>& keys,
                                         std::uint32_t key_bound) {
  std::vector<std::uint32_t> starts(key_bound + std::size_t{1}, 0);
  for (const std::uint32_t k : keys) ++starts[k + 1];
  std::partial_sum(starts.begin(), starts.end(), starts.begin());
  std::vector<std::uint32_t> cuts(pool.size() + std::size_t{1});
  cmdp::count_quantile_cuts(starts, cuts);
  return cuts;
}

// Reorders a store with z, the vibrational pair and weights on through
// scatter_sorted, by near-sorted keys with many duplicates so every lane
// gathers records, and checks that every array of every record landed at
// its stable sorted position.
template <class Real>
void check_scatter_sorted(unsigned threads, std::size_t n) {
  cmdp::ThreadPool pool(threads);
  core::ParticleStore<Real> s;
  s.has_z = true;
  s.has_vib = true;
  s.has_weight = true;
  s.resize(n);
  std::vector<std::uint32_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.x[i] = field_value<Real>(i, 0);
    s.y[i] = field_value<Real>(i, 1);
    s.z[i] = field_value<Real>(i, 2);
    s.ux[i] = field_value<Real>(i, 3);
    s.uy[i] = field_value<Real>(i, 4);
    s.uz[i] = field_value<Real>(i, 5);
    s.r0[i] = field_value<Real>(i, 6);
    s.r1[i] = field_value<Real>(i, 7);
    s.v0[i] = field_value<Real>(i, 8);
    s.v1[i] = field_value<Real>(i, 9);
    s.weight[i] = 0.5 + static_cast<double>(i);
    s.perm[i] = static_cast<cmdsmc::rng::PackedPerm>(i & 0x7fff);
    s.cell[i] = static_cast<std::uint32_t>(3 * i);
    s.flags[i] = static_cast<std::uint8_t>(i * 37);
    s.id[i] = static_cast<std::uint32_t>(i) ^ 0x5a5au;
    keys[i] = static_cast<std::uint32_t>(i * 96 / n + (i % 3 == 0 ? 1 : 0));
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return keys[a] < keys[b];
                   });
  const std::vector<std::uint32_t> cuts = quantile_cuts(pool, keys, 97);
  const cmdp::SortPlan plan = cmdp::counting_sort_plan(pool, keys, 97, cuts);
  EXPECT_EQ(plan.lanes, threads);
  core::ParticleStore<Real> scratch;
  s.scatter_sorted(pool, keys, plan, scratch);
  ASSERT_EQ(s.size(), n);
  ASSERT_EQ(s.z.size(), n);
  ASSERT_EQ(s.v0.size(), n);
  ASSERT_EQ(s.weight.size(), n);
  for (std::size_t dst = 0; dst < n; ++dst) {
    const std::size_t i = order[dst];
    ASSERT_EQ(raw_of(s.x[dst]), raw_of(field_value<Real>(i, 0))) << dst;
    ASSERT_EQ(raw_of(s.y[dst]), raw_of(field_value<Real>(i, 1))) << dst;
    ASSERT_EQ(raw_of(s.z[dst]), raw_of(field_value<Real>(i, 2))) << dst;
    ASSERT_EQ(raw_of(s.ux[dst]), raw_of(field_value<Real>(i, 3))) << dst;
    ASSERT_EQ(raw_of(s.uy[dst]), raw_of(field_value<Real>(i, 4))) << dst;
    ASSERT_EQ(raw_of(s.uz[dst]), raw_of(field_value<Real>(i, 5))) << dst;
    ASSERT_EQ(raw_of(s.r0[dst]), raw_of(field_value<Real>(i, 6))) << dst;
    ASSERT_EQ(raw_of(s.r1[dst]), raw_of(field_value<Real>(i, 7))) << dst;
    ASSERT_EQ(raw_of(s.v0[dst]), raw_of(field_value<Real>(i, 8))) << dst;
    ASSERT_EQ(raw_of(s.v1[dst]), raw_of(field_value<Real>(i, 9))) << dst;
    ASSERT_EQ(s.weight[dst], 0.5 + static_cast<double>(i)) << dst;
    ASSERT_EQ(s.perm[dst], static_cast<cmdsmc::rng::PackedPerm>(i & 0x7fff))
        << dst;
    ASSERT_EQ(s.cell[dst], static_cast<std::uint32_t>(3 * i)) << dst;
    ASSERT_EQ(s.flags[dst], static_cast<std::uint8_t>(i * 37)) << dst;
    ASSERT_EQ(s.id[dst], static_cast<std::uint32_t>(i) ^ 0x5a5au) << dst;
  }
}

}  // namespace

TEST(ParticleStore, ReorderAppliesPermutationToEveryArray) {
  check_scatter_sorted<double>(3, 10000);
}

TEST(ParticleStore, ReorderWorksForFixed32) {
  check_scatter_sorted<Fixed32>(2, 5000);
}

// One lane runs the rounds with no barrier; sixteen wait at every one on a
// machine with fewer CPUs.
TEST(ParticleStore, ReorderHoldsOnOneAndSixteenLanes) {
  check_scatter_sorted<double>(1, 10000);
  check_scatter_sorted<double>(16, 10000);
  check_scatter_sorted<Fixed32>(16, 5000);
}

namespace {

// Sorts a store with every optional array on by `keys` through
// scatter_sorted on `pool`, with a plan on `cuts`, and checks each array
// for_each_array lists, byte for byte, against a gather by a reference
// stable sort.  The gathers chain the arrays through one spare per element
// type: every listed array must come back sorted, and none may be left on a
// spare.
void expect_every_array_sorted(cmdp::ThreadPool& pool,
                               const std::vector<std::uint32_t>& keys,
                               std::uint32_t key_bound,
                               const std::vector<std::uint32_t>& cuts,
                               unsigned expect_lanes) {
  using Store = core::ParticleStore<double>;
  const std::size_t n = keys.size();
  Store s;
  s.has_z = true;
  s.has_vib = true;
  s.has_weight = true;
  s.resize(n);
  unsigned salt = 0;
  Store::for_each_array(
      [&salt](const char*, auto& a) {
        auto* b = reinterpret_cast<unsigned char*>(a.data());
        ++salt;
        for (std::size_t k = 0; k < a.size() * sizeof(a[0]); ++k)
          b[k] = static_cast<unsigned char>(k * 131 + salt * 17);
      },
      s);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return keys[a] < keys[b];
                   });
  Store expect = s;
  Store::for_each_array(
      [&order](const char*, auto& e, const auto& src) {
        for (std::size_t dst = 0; dst < order.size(); ++dst)
          e[dst] = src[order[dst]];
      },
      expect, s);
  const cmdp::SortPlan plan =
      cmdp::counting_sort_plan(pool, keys, key_bound, cuts);
  EXPECT_EQ(plan.lanes, expect_lanes);
  Store scratch;
  s.scatter_sorted(pool, keys, plan, scratch);
  int arrays = 0;
  Store::for_each_array(
      [&arrays](const char* name, const auto& a, const auto& b) {
        ++arrays;
        ASSERT_EQ(a.size(), b.size()) << name;
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])), 0)
            << name;
      },
      s, expect);
  EXPECT_EQ(arrays, 15);
}

}  // namespace

TEST(ParticleStore, ScatterMovesEveryListedArray) {
  cmdp::ThreadPool pool(2);
  std::vector<std::uint32_t> keys(1000);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<std::uint32_t>((i * 7919) % 64);
  expect_every_array_sorted(pool, keys, 64, {}, 1);
}

// A lane whose key range is empty gathers nothing, but still waits at every
// barrier of the lanes that do.  Lane 0 owns no key; key 0 fills the first
// 30% of the records and lane 1.
TEST(ParticleStore, ReorderWaitsForALaneWithNothingToGather) {
  cmdp::ThreadPool pool(4);
  const std::size_t n = 20000;
  std::vector<std::uint32_t> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = i < 3 * n / 10 ? 0u : static_cast<std::uint32_t>(i * 50 / n);
  expect_every_array_sorted(pool, keys, 51, {0, 0, 1, 30, 51}, 4);
}
