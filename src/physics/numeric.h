// Numeric policy abstracting the two state representations the paper
// discusses: IEEE double (reference) and 32-bit fixed point Q8.23 (the CM-2
// implementation).  The simulation engine is templated on Real and works with
// either.
#pragma once

#include <bit>
#include <cstdint>

#include "fixedpoint/fixed32.h"

namespace cmdsmc::physics {

template <class Real>
struct Num;

template <>
struct Num<double> {
  static constexpr bool kIsFixed = false;
  static double from_double(double v) { return v; }
  static double to_double(double v) { return v; }
  // Halving is exact in binary floating point; the random bit is unused.
  static double half(double v, std::uint32_t /*bit*/) { return 0.5 * v; }
  static double half_truncate(double v) { return 0.5 * v; }
  // Branchless sign flip: the collision kernel calls this five times per
  // pair with *random* sign bits, which a conditional would mispredict half
  // the time.  XOR on the sign bit is exact for every value.
  static double neg_if(double v, bool neg) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^
                                 (static_cast<std::uint64_t>(neg) << 63));
  }
  // Low-order state bits for the "quick but dirty" random source.
  static std::uint32_t raw32(double v) {
    return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(v));
  }
};

template <>
struct Num<fixedpoint::Fixed32> {
  using F = fixedpoint::Fixed32;
  static constexpr bool kIsFixed = true;
  static F from_double(double v) { return F::from_double(v); }
  static double to_double(F v) { return v.to_double(); }
  static F half(F v, std::uint32_t bit) {
    return fixedpoint::half_stochastic(v, bit);
  }
  static F half_truncate(F v) { return fixedpoint::half_truncate(v); }
  // Branchless two's-complement negation (see Num<double>::neg_if): x^-m
  // + m is x for m == 0 and -x for m == 1, wrap-exact like unary minus.
  static F neg_if(F v, bool neg) {
    const auto m = static_cast<std::uint32_t>(neg);
    const auto u = static_cast<std::uint32_t>(v.raw);
    return F::from_raw(static_cast<std::int32_t>((u ^ (0u - m)) + m));
  }
  static std::uint32_t raw32(F v) { return static_cast<std::uint32_t>(v.raw); }
};

}  // namespace cmdsmc::physics
