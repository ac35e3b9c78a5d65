#include "geom/wedge.h"

#include <cmath>
#include <stdexcept>

namespace cmdsmc::geom {

Wedge::Wedge(double x0, double base, double angle_rad)
    : x0_(x0), base_(base), angle_(angle_rad), tan_(std::tan(angle_rad)) {
  if (base <= 0.0)
    throw std::invalid_argument("Wedge: base must be positive");
  if (angle_rad <= 0.0 || angle_rad >= std::atan(1.0) * 2.0)
    throw std::invalid_argument("Wedge: angle must be in (0, 90) degrees");
}

double Wedge::surface_y(double x) const {
  if (x <= x0_ || x >= apex_x()) return 0.0;
  return (x - x0_) * tan_;
}

bool Wedge::inside(double x, double y) const {
  return x > x0_ && x < apex_x() && y > 0.0 && y < (x - x0_) * tan_;
}

}  // namespace cmdsmc::geom
