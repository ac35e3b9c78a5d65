// Per-(body, segment) surface-flux accumulation.
//
// Every reflection off a geom::Scene facet hands the wall a momentum and
// energy increment (recorded by enforce_boundaries into a WallEventBuffer
// under the scene-wide flat segment index).  This sampler tallies those
// increments per segment over many time steps and finalizes them into
// time-averaged surface distributions — pressure, shear and heat flux,
// normalized as Cp / Cf / Ch — plus integrated drag and lift coefficients,
// resolved per body and as scene totals.  The paper never reports surface
// quantities (its wedge is specular and inviscid); this is the
// instrumentation a general body subsystem exists to feed.
//
// Units: particle mass 1, so rho_inf = n_inf (particles per cell volume),
// freestream static pressure p_inf = n_inf * sigma_inf^2, dynamic pressure
// q_inf = 0.5 * n_inf * u_inf^2.  Fluxes are per unit area per time step.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/body.h"
#include "geom/boundary.h"
#include "geom/scene.h"

namespace cmdsmc::core {

struct SurfaceSegmentStats {
  // Segment geometry (midpoint, outward normal, length).
  double x = 0.0, y = 0.0;
  double nx = 0.0, ny = 0.0;
  double length = 0.0;
  bool embedded = false;
  // Owning body (index within the scene) of this segment.
  int body = 0;
  // Raw time-averaged fluxes (sim units, per unit area per step).
  double hits_per_step = 0.0;
  double p = 0.0;    // normal momentum flux into the wall (pressure)
  double tau = 0.0;  // tangential momentum flux along the segment tangent
  double q = 0.0;    // energy flux into the wall (heating > 0)
  // Incident/reflected split of the normal momentum and energy fluxes
  // (accommodation-coefficient studies): p = p_incident + p_reflected and
  // q = q_incident - q_reflected by construction; a specular or adiabatic
  // wall has q_incident == q_reflected.
  double p_incident = 0.0;   // normal momentum delivered by arriving gas
  double p_reflected = 0.0;  // normal momentum carried off by re-emitted gas
  double q_incident = 0.0;   // energy delivered per area per step
  double q_reflected = 0.0;  // energy re-emitted per area per step
  // Normalized coefficients (0 when the freestream is at rest).
  double cp = 0.0;   // (p - p_inf) / q_inf
  double cf = 0.0;   // tau / q_inf
  double ch = 0.0;   // q / (0.5 rho_inf u_inf^3)
};

struct SurfaceStats {
  int samples = 0;
  double p_inf = 0.0;
  double q_inf = 0.0;
  // Which body these stats describe: index within the scene and the body's
  // name.  Scene totals use body_index -1 and name "scene" when more than
  // one body contributed (a one-body total keeps that body's identity).
  int body_index = 0;
  std::string body_name;
  std::vector<SurfaceSegmentStats> segments;
  // Integrated force on the body per unit span per step (sim units) and the
  // corresponding coefficients referenced to q_inf * chord (for totals the
  // reference length is the sum of the bodies' chords).
  double fx = 0.0, fy = 0.0;
  double cd = 0.0, cl = 0.0;
  double heat_total = 0.0;  // integrated energy flux per unit span per step
  // Body-integrated incident/reflected energy fluxes per unit span per step
  // (heat_total = q_incident_total - q_reflected_total).
  double q_incident_total = 0.0;
  double q_reflected_total = 0.0;
};

// Lane-parallel accumulator: each worker lane owns a private slice, so
// recording from the move phase needs no synchronization.  end_step()
// reduces the lanes into one persistent per-segment moment table, which
// keeps the accumulated state independent of the lane count — that is what
// lets checkpoints carry it across sessions exactly.
class SurfaceSampler {
 public:
  SurfaceSampler() = default;
  // `span` is the z-extent of the prism extrusion (1 for 2D runs).  With
  // `axisymmetric` set, each segment is the generator of a revolved frustum:
  // fluxes are per revolved area 2 * r_mid * length (in units of pi, the
  // same convention the radial particle weights use, so the pi cancels) and
  // force coefficients are referenced to the body's frontal area r_max^2
  // (i.e. the true pi * r_max^2 in the same units).
  SurfaceSampler(int nsegments, unsigned lanes, double span,
                 bool axisymmetric = false);

  bool active() const { return nseg_ > 0; }
  int samples() const { return samples_; }
  int segment_count() const { return nseg_; }

  void reset();

  // Called from worker lane `lane` for one particle's wall events
  // (WallEvent::segment is the scene-wide flat segment index).  Every
  // increment is scaled by the particle's statistical weight (axisymmetric
  // radial weighting); planar runs pass 1.0, and multiplication by 1.0 is
  // exact for every finite double, so their sums are the unweighted ones.
  void record(unsigned lane, const geom::WallEventBuffer& events,
              double weight);

  // Marks the end of one sampled time step: reduces the lane slices into
  // the persistent accumulator.
  void end_step();

  // Total wall events recorded since construction/reset (lane-reduced at
  // end_step; telemetry differences consecutive values for per-step counts).
  std::uint64_t events_total() const { return events_total_; }

  // Reduces and normalizes against the body geometry and the freestream
  // (rho_inf = n_inf for unit-mass particles).  The legacy single-body
  // overload requires body.segment_count() == segment_count().
  SurfaceStats finalize(const geom::Body& body, double rho_inf,
                        double sigma_inf, double u_inf) const;
  // Scene totals: all segments flat, forces summed over bodies, Cd/Cl
  // referenced to the summed chord.  For a one-body scene this is exactly
  // the single-body overload's result.
  SurfaceStats finalize(const geom::Scene& scene, double rho_inf,
                        double sigma_inf, double u_inf) const;
  // Per-body resolution: element b covers scene.body(b)'s segments only,
  // with Cd/Cl referenced to that body's own chord.
  std::vector<SurfaceStats> finalize_per_body(const geom::Scene& scene,
                                              double rho_inf,
                                              double sigma_inf,
                                              double u_inf) const;

  // --- Checkpoint access (core/checkpoint.*) ---
  // The lane-reduced accumulator (nsegments * kMoments doubles).
  const std::vector<double>& accumulated() const { return sums_; }
  // Restores a saved accumulator; throws std::invalid_argument on a shape
  // mismatch (different segment count => different geometry).
  void restore(int samples, const std::vector<double>& sums);

 private:
  // count, dpx, dpy, de, p_in, p_out, e_in, e_out
  static constexpr int kMoments = 8;

  // Accumulates segments [seg_begin, seg_begin + body.segment_count()) of
  // the flat table into `out` (appending to out.segments and the force
  // integrals) without computing coefficients.
  void accumulate_body(const geom::Body& body, int body_index, int seg_begin,
                       SurfaceStats& out) const;

  int nseg_ = 0;
  unsigned lanes_ = 0;
  double span_ = 1.0;
  bool axisymmetric_ = false;
  int samples_ = 0;
  std::vector<double> sums_;       // nseg * kMoments, lane-reduced
  std::vector<double> lane_sums_;  // lanes * nseg * kMoments (per-step)
  std::uint64_t events_total_ = 0;
  std::vector<std::uint64_t> lane_events_;  // per-step raw event tallies
};

}  // namespace cmdsmc::core
