#include "core/particles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <vector>

#include "fixedpoint/fixed32.h"

namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;
using cmdsmc::fixedpoint::Fixed32;

TEST(ParticleStore, ResizeAndPushBack) {
  core::ParticleStore<double> s;
  s.resize(3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.z.size(), 0u);  // 2D: z not allocated
  s.push_back(1, 2, 0, 3, 4, 5, 6, 7, cmdsmc::rng::identity_perm(), 1);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.flags[3], 1);
  EXPECT_EQ(s.x[3], 1.0);
  EXPECT_EQ(s.r1[3], 7.0);
}

TEST(ParticleStore, HasZAllocatesZ) {
  core::ParticleStore<double> s;
  s.has_z = true;
  s.resize(5);
  EXPECT_EQ(s.z.size(), 5u);
  s.push_back(1, 2, 9, 3, 4, 5, 6, 7, cmdsmc::rng::identity_perm());
  EXPECT_EQ(s.z[5], 9.0);
}

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

// Reorders a store with z, the vibrational pair and weights on through
// scatter_sorted, by near-sorted keys with many duplicates so every lane
// moves records, and checks that every array of every record landed at its
// stable sorted position.
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
  const cmdp::SortPlan plan = cmdp::counting_sort_plan(pool, keys, 97);
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
