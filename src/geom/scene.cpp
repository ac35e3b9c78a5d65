#include "geom/scene.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cmdsmc::geom {

std::uint64_t fnv1a_hash(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  return fnv1a_hash(h, v);
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  return fnv1a_hash(h, std::bit_cast<std::uint64_t>(v));
}

// Truncation equals floor for x >= 0 and compiles to one conversion, where
// std::floor expands to a longer rounding sequence (baseline x86-64 has no
// SSE4.1 roundsd); negative coordinates (axisymmetric bodies straddle
// y = 0) keep floor.
int floor_to_int(double x) {
  return x >= 0.0 ? static_cast<int>(x) : static_cast<int>(std::floor(x));
}

}  // namespace

bool segment_touches_box(double sx0, double sy0, double sx1, double sy1,
                         double bx0, double by0, double bx1, double by1) {
  double t0 = 0.0, t1 = 1.0;
  const double dx = sx1 - sx0;
  const double dy = sy1 - sy0;
  auto clip = [&](double p, double q) {
    if (p == 0.0) return q >= 0.0;
    const double r = q / p;
    if (p < 0.0) {
      if (r > t1) return false;
      if (r > t0) t0 = r;
    } else {
      if (r < t0) return false;
      if (r < t1) t1 = r;
    }
    return true;
  };
  return clip(-dx, sx0 - bx0) && clip(dx, bx1 - sx0) &&
         clip(-dy, sy0 - by0) && clip(dy, by1 - sy0) && t0 <= t1;
}

Scene::Scene(std::vector<Body> bodies) : bodies_(std::move(bodies)) {
  if (bodies_.size() >
      static_cast<std::size_t>(std::numeric_limits<std::int16_t>::max()))
    throw std::invalid_argument("Scene: too many bodies");
  segment_base_.reserve(bodies_.size());
  total_segments_ = 0;
  xmin_ = ymin_ = std::numeric_limits<double>::infinity();
  xmax_ = ymax_ = -std::numeric_limits<double>::infinity();
  for (const Body& b : bodies_) {
    segment_base_.push_back(total_segments_);
    total_segments_ += b.segment_count();
    xmin_ = std::min(xmin_, b.xmin());
    xmax_ = std::max(xmax_, b.xmax());
    ymin_ = std::min(ymin_, b.ymin());
    ymax_ = std::max(ymax_, b.ymax());
  }
  build_accel();
}

void Scene::build_accel() {
  if (bodies_.empty()) return;
  ax0_ = static_cast<int>(std::floor(xmin_)) - 1;
  ay0_ = static_cast<int>(std::floor(ymin_)) - 1;
  anx_ = static_cast<int>(std::floor(xmax_)) + 2 - ax0_;
  any_ = static_cast<int>(std::floor(ymax_)) + 2 - ay0_;
  accel_.assign(static_cast<std::size_t>(anx_) * any_, AccelCell{});
  candidates_.clear();
  std::vector<std::int16_t> cands;
  for (int iy = 0; iy < any_; ++iy) {
    for (int ix = 0; ix < anx_; ++ix) {
      const double bx0 = ax0_ + ix;
      const double by0 = ay0_ + iy;
      const double bx1 = bx0 + 1.0;
      const double by1 = by0 + 1.0;
      cands.clear();
      for (std::size_t b = 0; b < bodies_.size(); ++b) {
        for (const BodySegment& s : bodies_[b].segments()) {
          if (segment_touches_box(s.x0, s.y0, s.x1, s.y1, bx0, by0, bx1,
                                  by1)) {
            cands.push_back(static_cast<std::int16_t>(b));
            break;
          }
        }
      }
      AccelCell& cell = accel_[static_cast<std::size_t>(iy) * anx_ + ix];
      if (!cands.empty()) {
        // Some facet reaches the cell: the point queries must consult these
        // bodies (and only these — no facet of any other body can separate
        // a point in this cell from that body's exterior).
        cell.cls = CellClass::kMixed;
        cell.cand_begin = static_cast<std::uint32_t>(candidates_.size());
        candidates_.insert(candidates_.end(), cands.begin(), cands.end());
        cell.cand_end = static_cast<std::uint32_t>(candidates_.size());
        continue;
      }
      // No facet touches the (closed) cell box, so every point of the cell
      // has the same inside/outside status as the center — the
      // classification is exact, not approximate.
      const double cx = bx0 + 0.5;
      const double cy = by0 + 0.5;
      cell.cls = CellClass::kOpen;
      for (std::size_t b = 0; b < bodies_.size(); ++b) {
        if (bodies_[b].inside(cx, cy)) {
          cell.cls = CellClass::kSolid;
          cell.solid_body = static_cast<std::int16_t>(b);
          break;
        }
      }
    }
  }
}

const Scene::AccelCell* Scene::accel_at(double x, double y) const {
  const int ix = floor_to_int(x) - ax0_;
  const int iy = floor_to_int(y) - ay0_;
  if (ix < 0 || ix >= anx_ || iy < 0 || iy >= any_) return nullptr;
  return &accel_[static_cast<std::size_t>(iy) * anx_ + ix];
}

int Scene::body_of_segment(int flat) const {
  if (flat < 0 || flat >= total_segments_) return -1;
  const auto it = std::upper_bound(segment_base_.begin(), segment_base_.end(),
                                   flat);
  return static_cast<int>(it - segment_base_.begin()) - 1;
}

bool Scene::any_diffuse() const {
  for (const Body& b : bodies_)
    if (b.any_diffuse()) return true;
  return false;
}

int Scene::inside_body(double x, double y) const {
  if (bodies_.empty()) return -1;
  if (x < xmin_ || x > xmax_ || y < ymin_ || y > ymax_) return -1;
  const AccelCell* cell = accel_at(x, y);
  if (cell == nullptr || cell->cls == CellClass::kOpen) return -1;
  if (cell->cls == CellClass::kSolid) return cell->solid_body;
  for (std::uint32_t k = cell->cand_begin; k < cell->cand_end; ++k) {
    const int b = candidates_[k];
    if (bodies_[static_cast<std::size_t>(b)].inside(x, y)) return b;
  }
  return -1;
}

std::optional<SceneHit> Scene::nearest_face(double x, double y) const {
  const int b = inside_body(x, y);
  if (b < 0) return std::nullopt;
  const BodyHit hit =
      bodies_[static_cast<std::size_t>(b)].nearest_face_inside(x, y);
  if (hit.segment < 0) return std::nullopt;  // all faces embedded
  return SceneHit{b, segment_base_[static_cast<std::size_t>(b)] + hit.segment,
                  hit};
}

double Scene::cell_open_fraction(int ix, int iy) const {
  if (bodies_.empty()) return 1.0;
  // Start from the first body's fraction and subtract the others' solid
  // areas: exactly the single body's value for one-body scenes (no 1-(1-f)
  // round trip), and exact for non-overlapping bodies.
  double open = bodies_[0].cell_open_fraction(ix, iy);
  for (std::size_t b = 1; b < bodies_.size(); ++b)
    open -= 1.0 - bodies_[b].cell_open_fraction(ix, iy);
  if (open < 0.0) open = 0.0;
  if (open > 1.0) open = 1.0;
  return open;
}

std::vector<double> Scene::open_fraction_table(const Grid& grid) const {
  if (bodies_.empty())
    return std::vector<double>(static_cast<std::size_t>(grid.ncells()), 1.0);
  std::vector<double> table = bodies_[0].open_fraction_table(grid);
  for (std::size_t b = 1; b < bodies_.size(); ++b) {
    const std::vector<double> tb = bodies_[b].open_fraction_table(grid);
    for (std::size_t c = 0; c < table.size(); ++c) {
      if (tb[c] == 1.0) continue;  // untouched cells stay bit-identical
      double open = table[c] - (1.0 - tb[c]);
      if (open < 0.0) open = 0.0;
      table[c] = open;
    }
  }
  return table;
}

std::uint64_t Scene::geometry_hash() const {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, static_cast<std::uint64_t>(bodies_.size()));
  for (const Body& b : bodies_) {
    h = fnv1a(h, static_cast<std::uint64_t>(b.segment_count()));
    for (const BodySegment& s : b.segments()) {
      h = fnv1a(h, s.x0);
      h = fnv1a(h, s.y0);
      h = fnv1a(h, s.x1);
      h = fnv1a(h, s.y1);
      h = fnv1a(h, static_cast<std::uint64_t>(s.wall));
      h = fnv1a(h, s.wall_sigma);
      h = fnv1a(h, static_cast<std::uint64_t>(s.embedded ? 1 : 0));
    }
    h = fnv1a(h, b.chord());
  }
  return h;
}

}  // namespace cmdsmc::geom
