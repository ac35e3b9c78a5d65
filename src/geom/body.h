// Generalized body geometry: a closed polyline of oriented segments.
//
// The paper supports exactly one body (a wedge on the tunnel floor).  This
// subsystem generalizes that to an arbitrary simple polygon (2D; in quasi-3D
// runs the body is prism-extruded along z), and the paper's wedge is the
// Body::Wedge factory.  Each segment carries its own wall model and wall
// temperature, so a body can mix e.g. a diffuse-isothermal windward face
// with a specular base.
//
// Conventions:
//   - Vertices are listed counter-clockwise; the outward unit normal of the
//     edge p->q is (qy - py, -(qx - px)) / |q - p| (pointing into the gas).
//   - A segment flagged `embedded` coincides with a wind-tunnel wall (e.g.
//     the wedge's floor edge) and is never a collision candidate: the tunnel
//     wall handles those particles.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geom/clip.h"
#include "geom/grid.h"

namespace cmdsmc::geom {

// Gas-surface interaction model of a wall or body segment.
enum class WallModel {
  kSpecular,           // inviscid: mirror reflection (paper's validation mode)
  kDiffuseIsothermal,  // full accommodation to a fixed wall temperature
  kDiffuseAdiabatic,   // diffuse directions, particle energy preserved
};

// One oriented face of a body.
struct BodySegment {
  double x0 = 0.0, y0 = 0.0;  // start vertex
  double x1 = 0.0, y1 = 0.0;  // end vertex (counter-clockwise)
  double nx = 0.0, ny = 0.0;  // unit outward normal
  double tx = 0.0, ty = 0.0;  // unit tangent (x1-x0)/length
  double length = 0.0;
  WallModel wall = WallModel::kSpecular;
  double wall_sigma = 0.0;  // thermal std dev of a diffuse wall
  bool embedded = false;    // lies on a tunnel wall; not a hit candidate

  double mid_x() const { return 0.5 * (x0 + x1); }
  double mid_y() const { return 0.5 * (y0 + y1); }
};

// Result of a nearest-face query for a point inside a body.
struct BodyHit {
  int segment = -1;
  // Unit outward normal of the violated face.
  double nx = 0.0;
  double ny = 0.0;
  // Signed distance of the point from the face plane (negative = inside).
  double depth = 0.0;
};

class Body {
 public:
  // `vertices` is the closed counter-clockwise polyline (>= 3 vertices, no
  // implicit closing vertex).  Throws std::invalid_argument on degenerate
  // input (too few vertices, zero-length edges, clockwise winding).
  explicit Body(std::vector<Vec2> vertices, std::string name = "body");

  // --- Factory helpers (all produce convex bodies) ---
  // The paper's wedge: right triangle with leading edge at (x0, 0), base
  // along the floor, apex height base*tan(angle).  The floor edge is
  // embedded (handled by the tunnel floor).
  static Body Wedge(double x0, double base, double angle_rad);
  // Thin rectangular plate of given chord and thickness, leading edge at
  // (x0, y0), inclined by `incidence_rad` to the flow.
  static Body FlatPlate(double x0, double y0, double chord, double thickness,
                        double incidence_rad = 0.0);
  // Circle of radius r centred at (cx, cy), approximated by n_facets
  // segments (n_facets >= 8).
  static Body Cylinder(double cx, double cy, double radius, int n_facets);
  // Symmetric biconic profile: nose at (x0, y_axis), fore cone of length
  // len1 and half-angle angle1, aft cone of length len2 and half-angle
  // angle2 (angle2 < angle1 for the classic convex biconic), closed by a
  // vertical base.
  static Body Biconic(double x0, double y_axis, double len1, double angle1_rad,
                      double len2, double angle2_rad);

  // --- Geometry ---
  const std::string& name() const { return name_; }
  const std::vector<BodySegment>& segments() const { return segments_; }
  int segment_count() const { return static_cast<int>(segments_.size()); }
  bool convex() const { return convex_; }
  double xmin() const { return xmin_; }
  double xmax() const { return xmax_; }
  double ymin() const { return ymin_; }
  double ymax() const { return ymax_; }
  // Reference length for force coefficients.  Factories set the natural
  // chord (wedge base, plate chord, cylinder diameter, biconic length) so
  // coefficients stay comparable across incidence; generic polygons default
  // to the x-extent.  Override with set_ref_length for custom referencing.
  double chord() const { return ref_length_; }
  void set_ref_length(double length);
  // Frontal height for 2D drag referencing.
  double height() const { return ymax_ - ymin_; }
  double area() const { return area_; }

  // --- Wall models ---
  void set_wall_model(WallModel model, double wall_sigma);
  void set_segment_wall(int segment, WallModel model, double wall_sigma);
  // True if any non-embedded segment needs random bits (non-specular).
  bool any_diffuse() const;

  // --- Queries ---
  // Inside the solid polygon, boundary-inclusive: a point exactly on a
  // facet, edge or shared vertex is claimed by the body (it is at the
  // surface and must be reflected deterministically, never left to tunnel
  // through).  The facet tests use the exact cross-product form, so vertex
  // and endpoint coordinates evaluate to exactly zero and the tie-break is
  // deterministic — no face can disown a shared vertex by one ulp.
  bool inside(double x, double y) const;
  // For a point inside the body, the nearest non-embedded face (the face
  // the particle most plausibly crossed).  nullopt outside.  Equidistant
  // faces (a shared vertex) resolve to the lowest segment index.
  std::optional<BodyHit> nearest_face(double x, double y) const;
  // Same, for a point already known to be inside (skips the containment
  // recheck; geom::Scene calls this after its own accelerated containment
  // query).
  BodyHit nearest_face_inside(double x, double y) const;

  // Fraction of the unit cell (ix, iy) that lies *outside* the body
  // (1 = fully open, 0 = fully solid).
  double cell_open_fraction(int ix, int iy) const;
  // Open fraction for every cell of a grid, row-major (2D slice; in 3D the
  // body is extruded along z so the table repeats per z-plane).
  std::vector<double> open_fraction_table(const Grid& grid) const;

 private:
  double solid_area_in_rect(double rx0, double ry0, double rx1,
                            double ry1) const;

  std::string name_;
  std::vector<Vec2> vertices_;
  std::vector<BodySegment> segments_;
  bool convex_ = false;
  double xmin_ = 0.0, xmax_ = 0.0, ymin_ = 0.0, ymax_ = 0.0;
  double area_ = 0.0;
  double ref_length_ = 0.0;
};

}  // namespace cmdsmc::geom
