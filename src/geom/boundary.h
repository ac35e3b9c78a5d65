// Wind-tunnel boundary system (paper: "Boundary Conditions" and "Particle
// Motion and Boundary Interaction").
//
// Hard boundaries: tunnel floor/ceiling (specular), the bodies of a
// geom::Scene (the paper's wedge is the one-body scene Body::Wedge; each
// segment is specular by default, with the paper's future-work no-slip
// diffuse isothermal/adiabatic walls as options), and
// the upstream *plunger* — a hard boundary moving with the freestream that
// is withdrawn when it crosses a trigger point, the void behind it being
// refilled with reservoir particles.
//
// Soft boundaries: the downstream sink (supersonic outflow; exiting particles
// are removed to the reservoir) and, alternatively to the plunger, a soft
// upstream source (the vector-architecture variant the paper describes).
#pragma once

#include <cstdint>
#include <vector>

#include "geom/body.h"
#include "geom/grid.h"
#include "geom/scene.h"

namespace cmdsmc::geom {

enum class UpstreamMode {
  kPlunger,     // hard moving boundary (the paper's parallel-machine choice)
  kSoftSource,  // density-controlled inflow strip (vector-machine choice)
};

// The upstream plunger.  Starts at x = 0, advances with the freestream, and
// is withdrawn the instant it crosses `trigger`.
struct Plunger {
  double x = 0.0;
  double speed = 0.0;
  double trigger = 3.0;

  // Advances one time step.  Returns the void width (> 0) if the plunger
  // retracted this step, else 0.  Withdrawal happens at the crossing moment,
  // so each void is exactly `trigger` wide and the overshoot carries over as
  // the restarted plunger's head start (returning the post-overshoot x would
  // conflate the trigger point with the void width).  When speed > trigger
  // the plunger can cross more than once per step; the loop keeps x bounded
  // by trigger instead of drifting downstream.
  double advance() {
    x += speed;
    double width = 0.0;
    while (x >= trigger) {
      width += trigger;
      x -= trigger;
    }
    return width;
  }
};

// Double-precision working copy of one particle's state for boundary math.
struct ParticleState {
  double x = 0.0, y = 0.0, z = 0.0;
  double ux = 0.0, uy = 0.0, uz = 0.0;
  double r0 = 0.0, r1 = 0.0;
};

// One reflection off a body face, in wall-transfer convention: dp/de are the
// momentum/energy the particle *gave to the wall* (incoming minus outgoing).
// The incident/reflected split (normal momentum and total energy of the
// arriving vs departing particle) is kept separately so accommodation
// studies can compare what the stream delivers against what the surface
// re-emits; dp/de remain the authoritative net transfer.  `segment` is the
// *scene-wide flat* segment index (Scene::segment_base(body) + local), so
// one contiguous accumulator covers every body in the scene.
struct WallEvent {
  int segment = -1;
  double dpx = 0.0;
  double dpy = 0.0;
  double de = 0.0;
  double p_in = 0.0;   // incident normal momentum (> 0 toward the wall)
  double p_out = 0.0;  // reflected normal momentum (> 0 away from the wall)
  double e_in = 0.0;   // incident kinetic + internal energy
  double e_out = 0.0;  // reflected energy (== e_in for specular/adiabatic)
};

// Fixed-capacity per-particle recorder (a particle can touch the body more
// than once per step near corners; 4 boundary passes bound the count).
struct WallEventBuffer {
  static constexpr int kCapacity = 4;
  int count = 0;
  WallEvent events[kCapacity];

  void add(int segment, double dpx, double dpy, double de, double p_in = 0.0,
           double p_out = 0.0, double e_in = 0.0, double e_out = 0.0) {
    if (count < kCapacity)
      events[count++] =
          WallEvent{segment, dpx, dpy, de, p_in, p_out, e_in, e_out};
  }
};

struct BoundaryConfig {
  double x_max = 0.0;  // downstream sink plane
  double y_max = 0.0;  // ceiling
  double z_max = 0.0;  // 3D side walls; <= 0 disables z handling
  // Body geometry: every body of the run, each segment carrying its own
  // wall model (null or empty = no body).
  const Scene* scene = nullptr;
  double plunger_x = 0.0;      // current plunger face (0 = inactive wall at 0)
  double plunger_speed = 0.0;  // freestream speed (for moving-frame reflect)
  bool plunger_active = false;
  // Closed-box mode: the downstream plane becomes a specular wall instead of
  // a sink (used by conservation tests and the baseline comparisons).
  bool closed = false;
  // Axisymmetric (z-r) run: y is the radius, and the move keeps it >= 0
  // (hypot(y + uy, uz)), so no particle reaches the floor at r = 0 and
  // interior_cell_mask leaves the axis open.
  bool axisymmetric = false;
};

// Applies every wall/body interaction to a tentatively moved particle.
// Returns false if the particle left through the downstream sink (caller
// removes it to the reservoir).  `rand_bits` seeds any sampling needed by
// diffuse walls.  When `events` is non-null, every body-face reflection is
// recorded there for surface-flux accumulation.
bool enforce_boundaries(ParticleState& p, const BoundaryConfig& bc,
                        std::uint64_t rand_bits,
                        WallEventBuffer* events = nullptr);

// Per-cell interior mask for the move-phase fast path.  mask[c] != 0 means
// no boundary — domain face, upstream wall anywhere in its sweep range or
// any scene body — is reachable from anywhere inside cell c by a
// displacement of at most `max_disp` cells per axis.  A particle in a masked
// cell moving slower than that bound provably needs no boundary enforcement
// this step (enforce_boundaries would return true without touching it).
//
// `upstream_reach` is the largest x the upstream hard wall can occupy: the
// plunger trigger plus one step of sweep for the plunger mode, 0 for the
// fixed wall / soft source.  Cells adjacent to any boundary (closer than
// max_disp) are never masked; the axis of an axisymmetric run is no
// boundary.  The mask is geometry-only and step-invariant.
std::vector<std::uint8_t> interior_cell_mask(const Grid& grid,
                                             const BoundaryConfig& bc,
                                             double upstream_reach,
                                             double max_disp);

}  // namespace cmdsmc::geom
