#include "core/surface_sampling.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cmdsmc::core {

namespace {

// Frontal area of a revolved body in the pi-dropped units: r_max^2 (the true
// frontal disc is pi * r_max^2; the pi cancels against the radial weights).
double revolved_ref_area(const geom::Body& body) {
  const double r = std::max(std::abs(body.ymin()), std::abs(body.ymax()));
  return r * r;
}

// Coefficient pass shared by every finalize flavor: normalizes the raw
// fluxes against the freestream and references the force integrals to
// q_inf * chord (planar: per unit span; axisymmetric: q_inf * frontal
// area).  A revolved body has identically zero net lateral force — the
// in-plane radial components cancel azimuthally — so axisymmetric Cl is 0
// by symmetry (fy keeps the raw half-profile radial integral as a
// diagnostic).
void finish(SurfaceStats& out, double chord, double rho_inf, double u_inf,
            bool axisymmetric = false) {
  const double e_ref = 0.5 * rho_inf * u_inf * u_inf * u_inf;
  if (out.q_inf > 0.0) {
    for (SurfaceSegmentStats& s : out.segments) {
      s.cp = (s.p - out.p_inf) / out.q_inf;
      s.cf = s.tau / out.q_inf;
      s.ch = s.q / e_ref;
    }
    if (chord > 0.0) {
      out.cd = out.fx / (out.q_inf * chord);
      out.cl = axisymmetric ? 0.0 : out.fy / (out.q_inf * chord);
    }
  }
}

}  // namespace

SurfaceSampler::SurfaceSampler(int nsegments, unsigned lanes, double span,
                               bool axisymmetric)
    : nseg_(nsegments),
      lanes_(lanes),
      span_(span > 0.0 ? span : 1.0),
      axisymmetric_(axisymmetric) {
  if (nsegments < 0)
    throw std::invalid_argument("SurfaceSampler: negative segment count");
  if (lanes == 0) lanes_ = 1;
  sums_.assign(static_cast<std::size_t>(nseg_) * kMoments, 0.0);
  lane_sums_.assign(static_cast<std::size_t>(lanes_) * nseg_ * kMoments, 0.0);
  lane_events_.assign(lanes_, 0);
}

void SurfaceSampler::reset() {
  samples_ = 0;
  std::fill(sums_.begin(), sums_.end(), 0.0);
  std::fill(lane_sums_.begin(), lane_sums_.end(), 0.0);
  std::fill(lane_events_.begin(), lane_events_.end(), 0);
  events_total_ = 0;
}

void SurfaceSampler::record(unsigned lane, const geom::WallEventBuffer& ev,
                            double weight) {
  if (lane >= lanes_) lane = lanes_ - 1;
  double* s = lane_sums_.data() +
              static_cast<std::size_t>(lane) * nseg_ * kMoments;
  for (int k = 0; k < ev.count; ++k) {
    const geom::WallEvent& e = ev.events[k];
    if (e.segment < 0 || e.segment >= nseg_) continue;
    ++lane_events_[lane];
    double* m = s + static_cast<std::size_t>(e.segment) * kMoments;
    m[0] += weight;
    m[1] += weight * e.dpx;
    m[2] += weight * e.dpy;
    m[3] += weight * e.de;
    m[4] += weight * e.p_in;
    m[5] += weight * e.p_out;
    m[6] += weight * e.e_in;
    m[7] += weight * e.e_out;
  }
}

void SurfaceSampler::end_step() {
  // Reduce the lanes into the persistent accumulator (lane order, so the
  // result is deterministic for a fixed lane count) and clear them for the
  // next step.  The persistent table is lane-count independent state — the
  // part a checkpoint carries.
  const std::size_t stride = static_cast<std::size_t>(nseg_) * kMoments;
  if (stride != 0) {
    for (unsigned t = 0; t < lanes_; ++t) {
      const double* src = lane_sums_.data() + static_cast<std::size_t>(t) *
                                                  stride;
      for (std::size_t i = 0; i < stride; ++i) sums_[i] += src[i];
    }
    std::fill(lane_sums_.begin(), lane_sums_.end(), 0.0);
  }
  for (std::uint64_t& e : lane_events_) {
    events_total_ += e;
    e = 0;
  }
  ++samples_;
}

void SurfaceSampler::restore(int samples, const std::vector<double>& sums) {
  if (samples < 0 || sums.size() != sums_.size())
    throw std::invalid_argument(
        "SurfaceSampler::restore: accumulator shape mismatch");
  samples_ = samples;
  sums_ = sums;
  std::fill(lane_sums_.begin(), lane_sums_.end(), 0.0);
}

void SurfaceSampler::accumulate_body(const geom::Body& body, int body_index,
                                     int seg_begin, SurfaceStats& out) const {
  const double steps = samples_ > 0 ? static_cast<double>(samples_) : 1.0;
  for (int i = 0; i < body.segment_count(); ++i) {
    const geom::BodySegment& seg =
        body.segments()[static_cast<std::size_t>(i)];
    SurfaceSegmentStats s;
    s.x = seg.mid_x();
    s.y = seg.mid_y();
    s.nx = seg.nx;
    s.ny = seg.ny;
    s.length = seg.length;
    s.embedded = seg.embedded;
    s.body = body_index;
    const double* m =
        sums_.data() + static_cast<std::size_t>(seg_begin + i) * kMoments;
    // Axisymmetric segments are generators of revolved frustums: lateral
    // area pi * (r0 + r1) * slant == (r0 + r1) * length in the pi-dropped
    // units the radial weights use.  A segment *crossing* the axis
    // generates two cones sharing an apex at the crossing point; their
    // combined area is (r0^2 + r1^2) * length / (r0 + r1) — using the
    // frustum formula there would overstate the area up to ~2x and bias
    // the per-area fluxes low.  Segments at (or mirrored below) the axis
    // keep a small floor so zero-flux faces divide cleanly.
    double area = seg.length * span_;
    if (axisymmetric_) {
      const double ra = std::abs(seg.y0);
      const double rb = std::abs(seg.y1);
      const double sum = std::max(ra + rb, 1e-9);
      area = (seg.y0 * seg.y1 < 0.0 ? (ra * ra + rb * rb) / sum : sum) *
             seg.length;
    }
    s.hits_per_step = m[0] / steps;
    // dp is the momentum handed to the wall; its component along the outward
    // normal is negative for a compressing stream, so pressure (force per
    // area pushing the wall inward) is the negated normal component.
    s.p = -(m[1] * seg.nx + m[2] * seg.ny) / (steps * area);
    s.tau = (m[1] * seg.tx + m[2] * seg.ty) / (steps * area);
    s.q = m[3] / (steps * area);
    s.p_incident = m[4] / (steps * area);
    s.p_reflected = m[5] / (steps * area);
    s.q_incident = m[6] / (steps * area);
    s.q_reflected = m[7] / (steps * area);
    out.fx += m[1] / (steps * span_);
    out.fy += m[2] / (steps * span_);
    out.heat_total += m[3] / (steps * span_);
    out.q_incident_total += m[6] / (steps * span_);
    out.q_reflected_total += m[7] / (steps * span_);
    out.segments.push_back(s);
  }
}

SurfaceStats SurfaceSampler::finalize(const geom::Scene& scene,
                                      double rho_inf, double sigma_inf,
                                      double u_inf) const {
  if (scene.total_segments() != nseg_)
    throw std::invalid_argument(
        "SurfaceSampler::finalize: scene/sampler segment count mismatch");
  SurfaceStats out;
  out.samples = samples_;
  out.p_inf = rho_inf * sigma_inf * sigma_inf;
  out.q_inf = 0.5 * rho_inf * u_inf * u_inf;
  if (scene.body_count() == 1) {
    out.body_name = scene.body(0).name();
  } else {
    out.body_index = -1;
    out.body_name = "scene";
  }
  if (nseg_ == 0) return out;
  out.segments.reserve(static_cast<std::size_t>(nseg_));
  double chord_total = 0.0;
  for (int b = 0; b < scene.body_count(); ++b) {
    accumulate_body(scene.body(b), b, scene.segment_base(b), out);
    chord_total += axisymmetric_ ? revolved_ref_area(scene.body(b))
                                 : scene.body(b).chord();
  }
  finish(out, chord_total, rho_inf, u_inf, axisymmetric_);
  return out;
}

std::vector<SurfaceStats> SurfaceSampler::finalize_per_body(
    const geom::Scene& scene, double rho_inf, double sigma_inf,
    double u_inf) const {
  if (scene.total_segments() != nseg_)
    throw std::invalid_argument(
        "SurfaceSampler::finalize_per_body: scene/sampler segment count "
        "mismatch");
  std::vector<SurfaceStats> out;
  out.reserve(static_cast<std::size_t>(scene.body_count()));
  for (int b = 0; b < scene.body_count(); ++b) {
    const geom::Body& body = scene.body(b);
    SurfaceStats s;
    s.samples = samples_;
    s.p_inf = rho_inf * sigma_inf * sigma_inf;
    s.q_inf = 0.5 * rho_inf * u_inf * u_inf;
    s.body_index = b;
    s.body_name = body.name();
    s.segments.reserve(static_cast<std::size_t>(body.segment_count()));
    accumulate_body(body, b, scene.segment_base(b), s);
    finish(s, axisymmetric_ ? revolved_ref_area(body) : body.chord(),
           rho_inf, u_inf, axisymmetric_);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace cmdsmc::core
