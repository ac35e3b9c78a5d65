// The outline of the paper's body: an inclined flat plate forming a wedge
// on the lower wall of the wind tunnel.
//
// The wedge is the right triangle with vertices
//     A = (x0, 0)            leading edge on the floor
//     C = (x0 + base, h)     apex, h = base * tan(angle)
//     B = (x0 + base, 0)     foot of the vertical back face
// Flow arrives from -x; the hypotenuse A->C is the compression surface and
// the vertical face C->B faces the wake.
//
// The simulation itself runs the wedge as geom::Body::Wedge inside a
// geom::Scene; this class only describes the outline the shock analysis
// (io/shock_analysis) measures against.
#pragma once

namespace cmdsmc::geom {

class Wedge {
 public:
  Wedge(double x0, double base, double angle_rad);

  double x0() const { return x0_; }
  double base() const { return base_; }
  double angle() const { return angle_; }
  double height() const { return base_ * tan_; }
  double apex_x() const { return x0_ + base_; }

  // Surface height of the compression ramp at abscissa x (0 outside).
  double surface_y(double x) const;

  // Strictly inside the solid triangle.
  bool inside(double x, double y) const;

 private:
  double x0_;
  double base_;
  double angle_;
  double tan_;
};

}  // namespace cmdsmc::geom
