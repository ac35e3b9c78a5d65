// Multi-body scene: an owning list of geom::Body instances plus a
// uniform-grid acceleration structure over all of their facets.
//
// Every query the single-body path used to answer with a linear facet scan
// — point-in-solid, nearest violated face, per-cell open fraction — is
// answered here in near-O(1) per query: the unit-cell acceleration grid
// classifies each cell as fully open (no body reachable), fully solid
// (strictly inside one body, no facet touches the cell) or mixed (a short
// candidate-body list).  Open cells reject immediately, solid cells
// identify their body immediately, and mixed cells consult only the bodies
// whose geometry actually reaches the cell — never the whole scene's facet
// list.
//
// The classification is *exact*, not heuristic: a cell is only marked
// open/solid when no facet of any body touches its (closed) box, so every
// point of the cell provably shares the center's inside/outside status.
// Consequently a one-body Scene answers every query bit-identically to the
// underlying Body, which is what keeps the single-body golden runs pinned.
//
// Segments are also addressable by a scene-wide flat index
// (segment_base(body) + local segment) so per-(body, segment) surface-flux
// accumulation can keep using one contiguous accumulator array.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geom/body.h"
#include "geom/grid.h"

namespace cmdsmc::geom {

// Conservative segment-vs-closed-box overlap (Liang–Barsky clip).  Ties and
// touching contacts count as overlap, so false negatives are impossible —
// which is what makes the Scene cell classification and the interior-cell
// mask exact rather than heuristic.
bool segment_touches_box(double sx0, double sy0, double sx1, double sy1,
                         double bx0, double by0, double bx1, double by1);

// Byte-wise FNV-1a fold of one 64-bit word — the shared kernel of the
// geometry/provenance hashes (Scene::geometry_hash and the simulation
// checkpoint hash must stay in lockstep).
std::uint64_t fnv1a_hash(std::uint64_t h, std::uint64_t v);

// Result of a scene nearest-face query: which body was violated, the local
// face hit, and the scene-wide flat segment index.
struct SceneHit {
  int body = -1;
  int flat_segment = -1;  // segment_base(body) + hit.segment
  BodyHit hit;
};

class Scene {
 public:
  // An empty scene: no bodies, every query trivially misses.
  Scene() = default;
  // Takes ownership of the bodies and builds the acceleration grid.
  explicit Scene(std::vector<Body> bodies);

  bool empty() const { return bodies_.empty(); }
  int body_count() const { return static_cast<int>(bodies_.size()); }
  const Body& body(int i) const {
    return bodies_[static_cast<std::size_t>(i)];
  }
  const std::vector<Body>& bodies() const { return bodies_; }

  // --- Flat segment indexing (surface sampling) ---
  int total_segments() const { return total_segments_; }
  int segment_base(int body) const {
    return segment_base_[static_cast<std::size_t>(body)];
  }
  // Body owning a flat segment index (inverse of segment_base).
  int body_of_segment(int flat) const;

  bool any_diffuse() const;

  // Union bounding box (undefined when empty).
  double xmin() const { return xmin_; }
  double xmax() const { return xmax_; }
  double ymin() const { return ymin_; }
  double ymax() const { return ymax_; }

  // --- Point queries (accelerated) ---
  // Body index strictly containing (x, y), or -1.  Bodies are tested in
  // list order, so overlapping bodies resolve deterministically.
  int inside_body(double x, double y) const;
  bool inside(double x, double y) const { return inside_body(x, y) >= 0; }
  // Nearest non-embedded face of the containing body; nullopt outside.
  std::optional<SceneHit> nearest_face(double x, double y) const;

  // --- Open fractions ---
  // Fraction of the unit cell lying outside every body.  Exactly the
  // single body's open fraction for one-body scenes; for disjoint bodies
  // the solid areas add.
  double cell_open_fraction(int ix, int iy) const;
  std::vector<double> open_fraction_table(const Grid& grid) const;

  // FNV-1a hash over every body's exact geometry (vertices, normals, wall
  // models, embedded flags) — the provenance tag checkpoints use to refuse
  // restoring against mismatched geometry.
  std::uint64_t geometry_hash() const;

 private:
  // Acceleration-cell classification.
  enum class CellClass : std::uint8_t {
    kOpen,   // no facet touches the cell; center outside every body
    kSolid,  // no facet touches the cell; center strictly inside one body
    kMixed,  // some facet reaches the cell: consult the candidate bodies
  };
  struct AccelCell {
    CellClass cls = CellClass::kOpen;
    std::int16_t solid_body = -1;   // body id for kSolid
    std::uint32_t cand_begin = 0;   // [begin, end) into candidates_
    std::uint32_t cand_end = 0;
  };

  void build_accel();
  const AccelCell* accel_at(double x, double y) const;

  std::vector<Body> bodies_;
  std::vector<int> segment_base_;
  int total_segments_ = 0;
  double xmin_ = 0.0, xmax_ = 0.0, ymin_ = 0.0, ymax_ = 0.0;

  // Acceleration grid: unit cells covering the union bbox (one ring of
  // margin), indexed row-major from (ax0_, ay0_).
  int ax0_ = 0, ay0_ = 0;   // integer origin of the accel grid
  int anx_ = 0, any_ = 0;   // accel grid extent in cells
  std::vector<AccelCell> accel_;
  std::vector<std::int16_t> candidates_;  // body ids, cell-sliced
};

}  // namespace cmdsmc::geom
