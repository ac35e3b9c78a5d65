// geom::Scene: accelerated multi-body queries must agree exactly with the
// brute-force per-body scans, open fractions must compose, and the facet
// tie-break fixes must hold at exact vertex coordinates.
#include "geom/scene.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "geom/boundary.h"
#include "rng/rng.h"

namespace geom = cmdsmc::geom;

namespace {

constexpr double kRad = std::numbers::pi / 180.0;

std::vector<geom::Body> tandem_bodies() {
  std::vector<geom::Body> v;
  v.push_back(geom::Body::Cylinder(24.0, 20.0, 6.0, 24));
  v.push_back(geom::Body::Cylinder(56.0, 20.0, 6.0, 24));
  return v;
}

// Brute-force reference: first body strictly containing the point.
int brute_inside(const std::vector<geom::Body>& bodies, double x, double y) {
  for (std::size_t b = 0; b < bodies.size(); ++b)
    if (bodies[b].inside(x, y)) return static_cast<int>(b);
  return -1;
}

}  // namespace

TEST(Scene, EmptySceneMissesEverything) {
  const geom::Scene s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total_segments(), 0);
  EXPECT_FALSE(s.inside(1.0, 1.0));
  EXPECT_FALSE(s.nearest_face(1.0, 1.0).has_value());
}

TEST(Scene, FlatSegmentIndexing) {
  const geom::Scene s(tandem_bodies());
  EXPECT_EQ(s.body_count(), 2);
  EXPECT_EQ(s.total_segments(), 48);
  EXPECT_EQ(s.segment_base(0), 0);
  EXPECT_EQ(s.segment_base(1), 24);
  EXPECT_EQ(s.body_of_segment(0), 0);
  EXPECT_EQ(s.body_of_segment(23), 0);
  EXPECT_EQ(s.body_of_segment(24), 1);
  EXPECT_EQ(s.body_of_segment(47), 1);
  EXPECT_EQ(s.body_of_segment(48), -1);
  EXPECT_EQ(s.body_of_segment(-1), -1);
}

TEST(Scene, InsideAgreesWithBruteForceEverywhere) {
  // Mixed shapes, including a wedge with an embedded floor edge and a
  // cylinder straddling y = 0 the way axisymmetric bodies do, so queries at
  // negative coordinates reach the acceleration grid too.
  std::vector<geom::Body> bodies;
  bodies.push_back(geom::Body::Wedge(8.0, 10.0, 30.0 * kRad));
  bodies.push_back(geom::Body::Cylinder(40.0, 18.0, 5.0, 20));
  bodies.push_back(
      geom::Body::FlatPlate(22.0, 26.0, 12.0, 1.5, 12.0 * kRad));
  bodies.push_back(geom::Body::Cylinder(24.0, 0.0, 6.0, 16));
  const geom::Scene scene(bodies);
  cmdsmc::rng::SplitMix64 g(42);
  for (int trial = 0; trial < 200000; ++trial) {
    const double x = g.next_double() * 60.0 - 2.0;
    const double y = g.next_double() * 48.0 - 10.0;
    ASSERT_EQ(scene.inside_body(x, y), brute_inside(bodies, x, y))
        << x << "," << y;
  }
}

TEST(Scene, NearestFaceMatchesSingleBodyQueriesBitForBit) {
  // The one-body Scene must answer exactly like the Body it wraps: that is
  // what keeps the single-body golden runs pinned.
  const geom::Body cyl = geom::Body::Cylinder(20.0, 16.0, 6.0, 16);
  const geom::Scene scene(std::vector<geom::Body>{cyl});
  cmdsmc::rng::SplitMix64 g(7);
  int hits = 0;
  for (int trial = 0; trial < 50000; ++trial) {
    const double x = g.next_double() * 40.0;
    const double y = g.next_double() * 32.0;
    const auto sh = scene.nearest_face(x, y);
    const auto bh = cyl.nearest_face(x, y);
    ASSERT_EQ(sh.has_value(), bh.has_value());
    if (!sh) continue;
    ++hits;
    EXPECT_EQ(sh->body, 0);
    EXPECT_EQ(sh->flat_segment, bh->segment);
    EXPECT_EQ(sh->hit.segment, bh->segment);
    EXPECT_EQ(sh->hit.nx, bh->nx);
    EXPECT_EQ(sh->hit.ny, bh->ny);
    EXPECT_EQ(sh->hit.depth, bh->depth);
  }
  EXPECT_GT(hits, 1000);
}

TEST(Scene, NearestFaceIdentifiesTheBodyAndFlatSegment) {
  const geom::Scene s(tandem_bodies());
  const auto h0 = s.nearest_face(24.0, 20.0);  // center of body 0
  ASSERT_TRUE(h0.has_value());
  EXPECT_EQ(h0->body, 0);
  EXPECT_EQ(h0->flat_segment, h0->hit.segment);
  const auto h1 = s.nearest_face(56.0, 20.0);  // center of body 1
  ASSERT_TRUE(h1.has_value());
  EXPECT_EQ(h1->body, 1);
  EXPECT_EQ(h1->flat_segment, 24 + h1->hit.segment);
  EXPECT_FALSE(s.nearest_face(40.0, 20.0).has_value());  // between bodies
}

TEST(Scene, OpenFractionSingleBodyIsBitIdentical) {
  const geom::Body cyl = geom::Body::Cylinder(20.0, 16.0, 6.0, 32);
  const geom::Scene scene(std::vector<geom::Body>{cyl});
  const geom::Grid grid{48, 32, 0};
  const auto ts = scene.open_fraction_table(grid);
  const auto tb = cyl.open_fraction_table(grid);
  ASSERT_EQ(ts.size(), tb.size());
  for (std::size_t i = 0; i < ts.size(); ++i)
    ASSERT_EQ(ts[i], tb[i]) << "cell " << i;
}

TEST(Scene, OpenFractionAddsSolidAreasOfDisjointBodies) {
  const geom::Scene scene(tandem_bodies());
  const geom::Grid grid{80, 40, 0};
  const auto table = scene.open_fraction_table(grid);
  double solid = 0.0;
  for (double f : table) solid += 1.0 - f;
  EXPECT_NEAR(solid,
              scene.body(0).area() + scene.body(1).area(), 1e-6);
}

TEST(Scene, GeometryHashDistinguishesScenes) {
  const geom::Scene a(tandem_bodies());
  const geom::Scene b(tandem_bodies());
  EXPECT_EQ(a.geometry_hash(), b.geometry_hash());
  std::vector<geom::Body> moved;
  moved.push_back(geom::Body::Cylinder(24.0, 20.0, 6.0, 24));
  moved.push_back(geom::Body::Cylinder(56.0, 20.5, 6.0, 24));  // shifted
  EXPECT_NE(a.geometry_hash(),
            geom::Scene(std::move(moved)).geometry_hash());
  std::vector<geom::Body> rewalled = tandem_bodies();
  rewalled[1].set_wall_model(geom::WallModel::kDiffuseIsothermal, 0.2);
  EXPECT_NE(a.geometry_hash(),
            geom::Scene(std::move(rewalled)).geometry_hash());
  // One body vs two.
  std::vector<geom::Body> one;
  one.push_back(geom::Body::Cylinder(24.0, 20.0, 6.0, 24));
  EXPECT_NE(a.geometry_hash(), geom::Scene(std::move(one)).geometry_hash());
}

// --- Vertex/edge tie-break regressions (the tunneling bugfix) ----------------

TEST(SceneTieBreak, ExactWedgeVerticesAreClaimed) {
  const geom::Body w = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  const double h = 25.0 * std::tan(30.0 * kRad);
  // Apex and leading-edge vertices, at their exact coordinates.
  EXPECT_TRUE(w.inside(45.0, h));    // apex (shared by hypotenuse + back)
  EXPECT_TRUE(w.inside(20.0, 0.0));  // leading edge (floor + hypotenuse)
  EXPECT_TRUE(w.inside(45.0, 0.0));  // trailing corner (floor + back face)
  // On-edge midpoints.
  EXPECT_TRUE(w.inside(45.0, 0.5 * h));  // back face (x == 45 exactly)
  // Clearly-outside points stay outside.
  EXPECT_FALSE(w.inside(19.999999, 0.0));
  EXPECT_FALSE(w.inside(45.000001, 0.5 * h));
  // The claim is actionable: nearest_face resolves deterministically to the
  // lowest-index non-embedded face.
  const auto hit = w.nearest_face(45.0, h);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->segment, 1);  // back face (floor is embedded, seg 0)
}

TEST(SceneTieBreak, ExactCylinderAndBiconicVerticesAreClaimed) {
  const geom::Body cyl = geom::Body::Cylinder(24.0, 24.0, 6.0, 20);
  // Every polygon vertex, at its exact floating-point coordinates.
  for (const geom::BodySegment& s : cyl.segments()) {
    EXPECT_TRUE(cyl.inside(s.x0, s.y0)) << s.x0 << "," << s.y0;
    const auto hit = cyl.nearest_face(s.x0, s.y0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(hit->depth, 0.0, 1e-12);
  }
  const geom::Body bic =
      geom::Body::Biconic(10.0, 24.0, 8.0, 25.0 * kRad, 10.0, 10.0 * kRad);
  for (const geom::BodySegment& s : bic.segments()) {
    EXPECT_TRUE(bic.inside(s.x0, s.y0)) << s.x0 << "," << s.y0;
    EXPECT_TRUE(bic.nearest_face(s.x0, s.y0).has_value());
  }
}

TEST(SceneTieBreak, SurfaceRidingParticleCannotTunnel) {
  // The original bug: a particle sliding exactly along the floor (y == 0)
  // into the wedge footprint was inside no face's strict half-plane and
  // sailed through the solid.  It must now be reflected (or at minimum
  // ejected by the defensive clamp) and never end up inside.
  const geom::Body w = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  const geom::Scene scene(std::vector<geom::Body>{w});
  geom::BoundaryConfig bc;
  bc.x_max = 98.0;
  bc.y_max = 64.0;
  bc.scene = &scene;
  for (double x : {20.0, 22.0, 30.0, 44.0, 45.0}) {
    geom::ParticleState p{x, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0};
    ASSERT_TRUE(geom::enforce_boundaries(p, bc, 1234));
    // At worst the particle grazes the surface afterwards; it must never
    // remain buried in the solid.
    if (const auto hit = w.nearest_face(p.x, p.y)) {
      EXPECT_GT(hit->depth, -1e-9) << x << " -> " << p.x << "," << p.y;
    }
  }
  // A particle dropped exactly on the cylinder's topmost vertex moving
  // straight down must reflect off the surface, not pass into the solid.
  const geom::Body cyl = geom::Body::Cylinder(40.0, 20.0, 6.0, 16);
  const geom::Scene cs(std::vector<geom::Body>{cyl});
  geom::BoundaryConfig bc2;
  bc2.x_max = 98.0;
  bc2.y_max = 64.0;
  bc2.scene = &cs;
  geom::ParticleState q{40.0 + 6.0 * std::cos(std::numbers::pi / 2),
                        20.0 + 6.0 * std::sin(std::numbers::pi / 2),
                        0.0, 0.0, -0.4, 0.0, 0.0, 0.0};
  ASSERT_TRUE(geom::enforce_boundaries(q, bc2, 99));
  EXPECT_FALSE(cyl.inside(q.x, q.y - 1e-9));
  EXPECT_GE(q.uy, 0.0);  // moving away from the body again
}
