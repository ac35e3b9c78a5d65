// The McDonald–Baganoff collision kernel (paper eqs. 9–18).
//
// State per particle: translational velocity u (3 components) and rotational
// velocity r (2 components) — a perfect diatomic molecule with 3+2 degrees of
// freedom.  Writing S_c = a_c + b_c and G_c = a_c - b_c for each of the five
// components c of the pair (a, b), conservation of momentum (W' = W, paper
// eq. 16) plus the assumption that the mean rotational velocity is unchanged
// (eq. 17) reduce conservation of energy to
//
//        sum_c G'_c^2  =  sum_c G_c^2                       (eq. 18)
//
// Any G' on that 5-sphere is admissible.  The computationally cheapest valid
// choice — and the paper's — is to re-use the pre-collision components:
// permute the five G_c with the particle's permutation vector and give each a
// random sign.  The norm is preserved exactly, so energy conservation is
// exact in exact arithmetic and machine-exact up to the final halving.
//
// Fixed-point note: we halve (S + G') stochastically and recover the partner
// as b' = S - a', which conserves momentum *bit-exactly* and makes the energy
// error a zero-mean ±1 ulp noise (the paper's stochastic rounding).  Plain
// truncation (Halving::kTruncate) is kept for the energy-drift ablation.
#pragma once

#include <cstdint>

#include "physics/numeric.h"
#include "rng/permutation.h"

namespace cmdsmc::physics {

inline constexpr int kDof = 5;  // 3 translational + 2 rotational

// Velocities of one collision pair as two 5-vectors:
// [ux, uy, uz, r0, r1] per particle.
template <class Real>
struct Pair5 {
  Real a[kDof];
  Real b[kDof];
};

// Random-bit layout inside the 64-bit draw handed to the kernel:
//   bits  0..4  : sign bits for the five permuted components
//   bits  5..9  : stochastic-rounding bits for the five halvings
//   bits 10..25 : transposition indices (consumed by the caller)
inline constexpr int kSignShift = 0;
inline constexpr int kRoundShift = 5;
inline constexpr int kTransposeShift = 10;

// How the kernel halves S + G' (only fixed point differs): with the draw's
// stochastic-rounding bits, or by consistent truncation, which shows the
// paper's energy loss in stagnation regions.
enum class Halving { kStochastic, kTruncate };

// (S + G') / 2 for component c, rounded as `H` says.
template <Halving H, class Real>
inline Real halve(Real v, std::uint64_t bits, int c) {
  using N = Num<Real>;
  if constexpr (H == Halving::kTruncate) {
    return N::half_truncate(v);
  } else {
    return N::half(v, static_cast<std::uint32_t>(bits >> (kRoundShift + c)) &
                          1u);
  }
}

// Collides the pair in place.  `perm` re-orders the relative components;
// `bits` supplies signs and rounding bits as laid out above.
template <Halving H = Halving::kStochastic, class Real>
inline void collide_pair(Pair5<Real>& p, rng::PackedPerm perm,
                         std::uint64_t bits) {
  using N = Num<Real>;
  Real sum[kDof];
  Real rel[kDof];
  for (int c = 0; c < kDof; ++c) {
    sum[c] = p.a[c] + p.b[c];
    rel[c] = p.a[c] - p.b[c];
  }
  Real perm_rel[kDof];
  rng::apply_perm(perm, rel, perm_rel);
  for (int c = 0; c < kDof; ++c) {
    const bool neg = (bits >> (kSignShift + c)) & 1u;
    const Real g = N::neg_if(perm_rel[c], neg);
    const Real a_new = halve<H>(sum[c] + g, bits, c);
    p.a[c] = a_new;
    p.b[c] = sum[c] - a_new;
  }
}

// One-sided (Nanbu-style) update: only particle `a` receives its
// post-collision velocity, the one collide_pair gives it; `b` is read-only.
// Conserves momentum and energy only in the mean — implemented for the
// baseline comparison.
template <class Real>
inline void collide_one_sided(Real (&a)[kDof], const Real (&b)[kDof],
                              rng::PackedPerm perm, std::uint64_t bits) {
  Pair5<Real> p;
  for (int c = 0; c < kDof; ++c) {
    p.a[c] = a[c];
    p.b[c] = b[c];
  }
  collide_pair(p, perm, bits);
  for (int c = 0; c < kDof; ++c) a[c] = p.a[c];
}

}  // namespace cmdsmc::physics
