#include "physics/collision.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fixedpoint/fixed32.h"
#include "rng/rng.h"
#include "rng/samplers.h"

namespace physics = cmdsmc::physics;
namespace rng = cmdsmc::rng;
using cmdsmc::fixedpoint::Fixed32;

namespace {

template <class Real>
physics::Pair5<Real> random_pair(rng::SplitMix64& g, double scale) {
  physics::Pair5<Real> p;
  for (int c = 0; c < physics::kDof; ++c) {
    p.a[c] = physics::Num<Real>::from_double((g.next_double() - 0.5) * scale);
    p.b[c] = physics::Num<Real>::from_double((g.next_double() - 0.5) * scale);
  }
  return p;
}

template <class Real>
double pair_energy(const physics::Pair5<Real>& p) {
  double e = 0.0;
  for (int c = 0; c < physics::kDof; ++c) {
    const double a = physics::Num<Real>::to_double(p.a[c]);
    const double b = physics::Num<Real>::to_double(p.b[c]);
    e += 0.5 * (a * a + b * b);
  }
  return e;
}

template <class Real>
std::array<double, physics::kDof> pair_momentum(
    const physics::Pair5<Real>& p) {
  std::array<double, physics::kDof> m{};
  for (int c = 0; c < physics::kDof; ++c)
    m[c] = physics::Num<Real>::to_double(p.a[c]) +
           physics::Num<Real>::to_double(p.b[c]);
  return m;
}

}  // namespace

TEST(CollisionDouble, ConservesMomentumToRoundoff) {
  rng::SplitMix64 g(31);
  for (int trial = 0; trial < 2000; ++trial) {
    auto p = random_pair<double>(g, 2.0);
    const auto before = pair_momentum(p);
    physics::collide_pair(p, rng::random_perm(g), g.next_u64());
    const auto after = pair_momentum(p);
    for (int c = 0; c < physics::kDof; ++c)
      ASSERT_NEAR(before[c], after[c], 1e-15 * (1.0 + std::abs(before[c])));
  }
}

TEST(CollisionDouble, ConservesEnergyToRoundoff) {
  rng::SplitMix64 g(32);
  for (int trial = 0; trial < 2000; ++trial) {
    auto p = random_pair<double>(g, 2.0);
    const double before = pair_energy(p);
    physics::collide_pair(p, rng::random_perm(g), g.next_u64());
    ASSERT_NEAR(pair_energy(p), before, 1e-13 * (1.0 + before));
  }
}

TEST(CollisionDouble, PreservesRelativeSpeedNorm) {
  // |G'| = |G| by construction (signed permutation).
  rng::SplitMix64 g(33);
  for (int trial = 0; trial < 500; ++trial) {
    auto p = random_pair<double>(g, 2.0);
    double g2_before = 0.0;
    for (int c = 0; c < physics::kDof; ++c) {
      const double d = p.a[c] - p.b[c];
      g2_before += d * d;
    }
    physics::collide_pair(p, rng::random_perm(g), g.next_u64());
    double g2_after = 0.0;
    for (int c = 0; c < physics::kDof; ++c) {
      const double d = p.a[c] - p.b[c];
      g2_after += d * d;
    }
    ASSERT_NEAR(g2_after, g2_before, 1e-12 * (1.0 + g2_before));
  }
}

TEST(CollisionDouble, IdenticalVelocitiesStayIdentical) {
  // Zero relative velocity: the collision must be a no-op (G = 0).
  physics::Pair5<double> p;
  for (int c = 0; c < physics::kDof; ++c) p.a[c] = p.b[c] = 0.3 * (c + 1);
  physics::collide_pair(p, rng::pack_perm({3, 1, 4, 0, 2}), 0x2bull);
  for (int c = 0; c < physics::kDof; ++c) {
    EXPECT_DOUBLE_EQ(p.a[c], 0.3 * (c + 1));
    EXPECT_DOUBLE_EQ(p.b[c], 0.3 * (c + 1));
  }
}

TEST(CollisionDouble, SignBitsFlipComponents) {
  // With the identity permutation and all sign bits set, G' = -G, so the
  // particles simply exchange their 5-vectors.
  physics::Pair5<double> p;
  for (int c = 0; c < physics::kDof; ++c) {
    p.a[c] = c + 1.0;
    p.b[c] = -(c + 1.0);
  }
  const std::uint64_t all_signs = 0x1f;  // bits 0..4
  auto q = p;
  physics::collide_pair(q, rng::identity_perm(), all_signs);
  for (int c = 0; c < physics::kDof; ++c) {
    EXPECT_DOUBLE_EQ(q.a[c], p.b[c]);
    EXPECT_DOUBLE_EQ(q.b[c], p.a[c]);
  }
}

TEST(CollisionFixed, ConservesMomentumBitExactly) {
  rng::SplitMix64 g(34);
  for (int trial = 0; trial < 2000; ++trial) {
    auto p = random_pair<Fixed32>(g, 2.0);
    std::array<std::int64_t, physics::kDof> before{};
    for (int c = 0; c < physics::kDof; ++c)
      before[c] = static_cast<std::int64_t>(p.a[c].raw) + p.b[c].raw;
    physics::collide_pair(p, rng::random_perm(g), g.next_u64());
    for (int c = 0; c < physics::kDof; ++c)
      ASSERT_EQ(static_cast<std::int64_t>(p.a[c].raw) + p.b[c].raw,
                before[c]);
  }
}

TEST(CollisionFixed, EnergyErrorIsZeroMeanWithStochasticRounding) {
  rng::SplitMix64 g(35);
  double drift = 0.0;
  const int kTrials = 50000;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto p = random_pair<Fixed32>(g, 1.0);
    const double before = pair_energy(p);
    physics::collide_pair(p, rng::random_perm(g), g.next_u64());
    drift += pair_energy(p) - before;
  }
  const double ulp = std::ldexp(1.0, -23);
  // Mean energy error per collision should be well below an ulp of energy.
  EXPECT_LT(std::abs(drift / kTrials), 0.5 * ulp);
}

TEST(CollisionFixed, TruncationSystematicallyLosesEnergy) {
  rng::SplitMix64 g(36);
  double drift = 0.0;
  const int kTrials = 50000;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto p = random_pair<Fixed32>(g, 1.0);
    const double before = pair_energy(p);
    physics::collide_pair<physics::Halving::kTruncate>(p, rng::random_perm(g),
                                                       g.next_u64());
    drift += pair_energy(p) - before;
  }
  // The paper's failure mode: consistent truncation loses energy.
  EXPECT_LT(drift / kTrials, 0.0);
}

TEST(CollisionOneSided, ConservesOnlyInTheMean) {
  rng::SplitMix64 g(37);
  double mean_de = 0.0;
  double max_abs_de = 0.0;
  const int kTrials = 50000;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto p = random_pair<double>(g, 1.0);
    const double before = pair_energy(p);
    double a[physics::kDof];
    double b[physics::kDof];
    for (int c = 0; c < physics::kDof; ++c) {
      a[c] = p.a[c];
      b[c] = p.b[c];
    }
    physics::collide_one_sided(a, b, rng::random_perm(g), g.next_u64());
    for (int c = 0; c < physics::kDof; ++c) p.a[c] = a[c];
    const double de = pair_energy(p) - before;
    mean_de += de;
    max_abs_de = std::max(max_abs_de, std::abs(de));
  }
  mean_de /= kTrials;
  // Individual collisions are not conservative...
  EXPECT_GT(max_abs_de, 0.01);
  // ...but the ensemble mean error is small relative to typical energy O(1).
  EXPECT_LT(std::abs(mean_de), 0.01);
}

TEST(CollisionEnsemble, EquipartitionsTranslationAndRotation) {
  // Start with all energy translational; repeated collisions of a pool of
  // particles should spread it over all 5 degrees of freedom (diatomic
  // equilibrium: T_rot = T_trans).
  rng::SplitMix64 g(38);
  const int n = 4000;
  std::vector<std::array<double, 5>> v(n);
  for (auto& p : v) {
    for (int c = 0; c < 3; ++c) p[c] = rng::sample_gaussian(g);
    p[3] = p[4] = 0.0;
  }
  for (int sweep = 0; sweep < 40; ++sweep) {
    for (int i = 0; i + 1 < n; i += 2) {
      const int j = static_cast<int>(g.next_below(n));
      const int k = static_cast<int>(g.next_below(n));
      if (j == k) continue;
      physics::Pair5<double> p;
      for (int c = 0; c < 5; ++c) {
        p.a[c] = v[j][c];
        p.b[c] = v[k][c];
      }
      physics::collide_pair(p, rng::random_perm(g), g.next_u64());
      for (int c = 0; c < 5; ++c) {
        v[j][c] = p.a[c];
        v[k][c] = p.b[c];
      }
    }
  }
  double e_trans = 0.0, e_rot = 0.0;
  for (const auto& p : v) {
    e_trans += p[0] * p[0] + p[1] * p[1] + p[2] * p[2];
    e_rot += p[3] * p[3] + p[4] * p[4];
  }
  // Per-DOF energies should match: e_trans/3 ~= e_rot/2 within a few %.
  EXPECT_NEAR((e_rot / 2.0) / (e_trans / 3.0), 1.0, 0.06);
}
