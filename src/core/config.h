// Simulation configuration: the paper's wind-tunnel set-up plus every
// algorithmic knob the ablation benches exercise.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <stdexcept>

#include "geom/body.h"
#include "geom/boundary.h"
#include "physics/gas_model.h"
#include "physics/theory.h"

namespace cmdsmc::core {

// Rounding of the fixed-point halvings in the collision kernel.
enum class Rounding {
  kStochastic,  // paper's fix: add 0/1 with equal probability before >> 1
  kTruncate,    // the naive variant that loses energy in stagnation regions
};

// Source of the low-impact random bits (sort mixing, transpositions, signs,
// rounding).
enum class RngMode {
  kCounter,  // counter-based hash (reference quality)
  kDirty,    // low-order bits of the particle's fixed-point state (paper)
};

struct SimConfig {
  // --- Domain (cells; cell width 1). nz > 0 selects the 3D extension. ---
  int nx = 98;
  int ny = 64;
  int nz = 0;
  // Axisymmetric (z-r) mode: the grid's y axis is reinterpreted as radius,
  // cells become unit-width annuli about the r = 0 axis (the domain floor),
  // and particles carry a radial statistical weight proportional to the
  // annular volume of their cell.  The move phase advances particles in 3D
  // and rotates them back into the plane (the azimuthal velocity folds into
  // uz); collision probabilities and field moments use annular cell volumes
  // and weighted counts; a split/merge balancing pass keeps per-cell
  // simulator counts flat as particles migrate in r.  Bodies must be bodies
  // of revolution about r = 0: center them on y = 0 (the half below the axis
  // is the revolved mirror image and is never reached by particles).
  // Requires nz == 0 and bodies given as cfg.body / cfg.bodies (not the
  // planar wedge fields).
  bool axisymmetric = false;

  // --- Freestream ---
  double mach = 4.0;
  double sigma = 0.18;  // thermal std dev per component, cells per step
  // Freestream mean free path in cell widths; 0 = near continuum (paper
  // figs. 1-3), 0.5 = the rarefied case (figs. 4-6).
  double lambda_inf = 0.0;
  double particles_per_cell = 16.0;  // freestream number density
  double reservoir_fraction = 0.10;  // extra particles parked in the reservoir

  // --- Body ---
  // The paper's only body, a wedge on the tunnel floor.  With no `body` or
  // `bodies` set, the Simulation runs it as the one-body scene
  // Body::Wedge(wedge_x0, wedge_base, wedge_angle_rad()).
  bool has_wedge = true;
  double wedge_x0 = 20.0;
  double wedge_base = 25.0;
  double wedge_angle_deg = 30.0;
  // A body from the geom::Body factories: when set it replaces the wedge
  // fields above.  Assign per-segment wall models on it before constructing
  // the Simulation; a body left entirely specular (the wedge from the
  // fields above too) inherits `wall` / `wall_sigma` below as its default.
  // The Runner samples surface fluxes only on bodies given here or in
  // `bodies` (has_body_scene()).
  std::optional<geom::Body> body;
  // Additional bodies of a multi-body scene.  The Simulation assembles
  // `body` (first, when set) and this list into one geom::Scene; every
  // body obeys the same wall-model inheritance rule as `body`.  Surface
  // statistics are reported per body and as scene totals.
  std::vector<geom::Body> bodies;

  bool has_body_scene() const { return body.has_value() || !bodies.empty(); }

  // --- Gas model ---
  physics::GasModel gas{};
  // Vibrational extension (paper "Future Work": "the molecular model should
  // be generalised to allow ... relaxation into vibrational energy").  Two
  // vibrational DOF per molecule; each accepted collision exchanges with
  // them instead of rotation with probability `vib_exchange_prob`
  // (relaxation number Z_v = 1/prob).  Equilibrium: 7 DOF, gamma = 9/7.
  bool vibrational = false;
  double vib_exchange_prob = 0.2;
  // Initial vibrational temperature as a fraction of T_inf (0 = frozen
  // cold start, 1 = fully excited equilibrium).
  double vib_init_temperature = 1.0;

  // --- Boundary handling ---
  // Closed box: all six boundaries specular, no sink/source/plunger.  Used
  // for conservation and relaxation studies.
  bool closed_box = false;
  geom::UpstreamMode upstream = geom::UpstreamMode::kPlunger;
  double plunger_trigger = 3.0;
  geom::WallModel wall = geom::WallModel::kSpecular;
  double wall_sigma = 0.18;  // diffuse-wall temperature (std dev)

  // --- Algorithm knobs (ablations) ---
  int sort_scale = 8;          // cell key scale factor for sort randomization
  bool randomize_sort = true;  // add rand < scale to the key before sorting
  int transpositions_per_collision = 1;
  Rounding rounding = Rounding::kStochastic;
  RngMode rng_mode = RngMode::kCounter;
  bool reservoir_collisions = true;

  // --- Cell-block domain sharding (dynamic load balancing) ---
  // With more than one lane, selection+collision and field sampling
  // parallelize over contiguous cell-block shards assigned to lanes by a
  // greedy cost partitioner (cmdp/shard.h); the per-cell cost is count +
  // collide_weight * pairs.  Repartitioning happens when the
  // predicted max/mean cost imbalance of the current assignment exceeds
  // shard_rebalance_threshold and at least shard_rebalance_interval steps
  // have passed since the last repartition.  The knobs move only shard
  // boundaries, never physics: state and sampled fields are bit-identical
  // for every setting and lane count.  The pre-sharding particle-balanced
  // split is one such setting: collide_weight 0 (cells priced by count
  // alone), one shard per lane, threshold 1 and interval 1 (re-cut every
  // step).
  int shard_per_lane = 4;                   // shards = lanes * this
  double shard_rebalance_threshold = 1.10;  // predicted max/mean trigger
  int shard_rebalance_interval = 8;         // min steps between repartitions
  double shard_collide_weight = 1.0;        // pair-vs-particle cost blend

  std::uint64_t seed = 0x5eed5eedULL;

  // --- Derived quantities ---
  double freestream_speed() const {
    return mach * std::sqrt(physics::theory::kGammaDiatomic) * sigma;
  }
  // Diffuse-wall temperature expressed physically, as T_wall / T_inf.  The
  // wall thermal standard deviation scales as sqrt(T), so this is the one
  // place the sigma <-> temperature coupling lives: setting the ratio keeps
  // the wall consistent with whatever `sigma` currently is, instead of
  // leaving `wall_sigma` at its 0.18 default when sigma is overridden.
  double wall_temperature_ratio() const {
    const double r = wall_sigma / sigma;
    return r * r;
  }
  void set_wall_temperature_ratio(double ratio) {
    if (ratio < 0.0)
      throw std::invalid_argument(
          "SimConfig: wall_temperature_ratio must be >= 0");
    wall_sigma = sigma * std::sqrt(ratio);
  }
  double wedge_angle_rad() const {
    return wedge_angle_deg * std::numbers::pi / 180.0;
  }
  bool is3d() const { return nz > 0; }

  void validate() const {
    if (nx <= 0 || ny <= 0 || nz < 0)
      throw std::invalid_argument("SimConfig: bad grid dimensions");
    if (mach <= 0.0) throw std::invalid_argument("SimConfig: mach must be > 0");
    if (sigma <= 0.0)
      throw std::invalid_argument("SimConfig: sigma must be > 0");
    if (lambda_inf < 0.0)
      throw std::invalid_argument("SimConfig: lambda_inf must be >= 0");
    if (particles_per_cell <= 0.0)
      throw std::invalid_argument("SimConfig: particles_per_cell must be > 0");
    if (reservoir_fraction < 0.0)
      throw std::invalid_argument("SimConfig: reservoir_fraction must be >= 0");
    if (axisymmetric) {
      if (nz > 0)
        throw std::invalid_argument(
            "SimConfig: axisymmetric mode is 2D (z-r); it cannot be combined "
            "with the 3D extension (set nz=0)");
      if (has_wedge && !has_body_scene())
        throw std::invalid_argument(
            "SimConfig: axisymmetric mode needs a body of revolution (or "
            "none); the wedge described by has_wedge/wedge_* is planar-only "
            "(set has_wedge=false or use body.kind=...)");
    }
    auto check_body = [&](const geom::Body& b) {
      // Axisymmetric bodies straddle the r = 0 axis (the part below it is
      // the revolved mirror image), so only the upper half must fit.
      const double ymin_floor = axisymmetric ? -static_cast<double>(ny) : 0.0;
      if (b.xmin() < 0.0 || b.xmax() >= nx || b.ymin() < ymin_floor ||
          b.ymax() >= ny)
        throw std::invalid_argument("SimConfig: body '" + b.name() +
                                    "' outside the domain");
      // A body floating wholly above the axis would revolve into a torus:
      // the mirror-image assumption and the frontal-area Cd reference both
      // break, so demand the outline reach r = 0 (center it on y = 0).
      if (axisymmetric && b.ymin() > 0.0)
        throw std::invalid_argument(
            "SimConfig: axisymmetric body '" + b.name() +
            "' does not touch the r=0 axis (bodies of revolution must be "
            "centred on y=0; rings/tori are not supported)");
    };
    for (const geom::Body& b : bodies) check_body(b);
    if (body)
      check_body(*body);
    else if (bodies.empty() && has_wedge)
      check_body(geom::Body::Wedge(wedge_x0, wedge_base, wedge_angle_rad()));
    if (shard_per_lane < 1 || shard_per_lane > 256)
      throw std::invalid_argument(
          "SimConfig: shard_per_lane must be in [1, 256]");
    if (shard_rebalance_threshold < 1.0)
      throw std::invalid_argument(
          "SimConfig: shard_rebalance_threshold must be >= 1");
    if (shard_rebalance_interval < 1)
      throw std::invalid_argument(
          "SimConfig: shard_rebalance_interval must be >= 1");
    if (shard_collide_weight < 0.0 || shard_collide_weight > 64.0)
      throw std::invalid_argument(
          "SimConfig: shard_collide_weight must be in [0, 64]");
    if (sort_scale < 1 || sort_scale > 256)
      throw std::invalid_argument("SimConfig: sort_scale must be in [1,256]");
    // The sort zero-fills and prefix-sums one 4-byte table entry per sort
    // key every step.  Past 32 keys per freestream particle (128 B, about a
    // particle record plus its scratch copy) the table would outweigh the
    // particles it sorts and its per-step pass would outgrow their O(n) one.
    if (sort_scale > 32.0 * particles_per_cell)
      throw std::invalid_argument(
          "SimConfig: sort_scale must be <= 32 x particles_per_cell (the "
          "sort's key table would outweigh the particles)");
    // Sort keys are 32-bit: every pairing cell (grid cells plus the
    // reservoir's, one per 64 reservoir particles plus one) owns sort_scale
    // keys, and axisymmetric runs add one past-the-end key.  The reservoir
    // count is bounded from above by a grid with no body in it.
    const double cells = static_cast<double>(nx) * ny * (nz > 0 ? nz : 1);
    const double res_cells =
        (reservoir_fraction * (particles_per_cell * cells + 1.0) + 1.0) /
            64.0 +
        1.0;
    if ((cells + res_cells) * sort_scale + 1.0 >
        static_cast<double>(UINT32_MAX))
      throw std::invalid_argument(
          "SimConfig: (cells + reservoir pairing cells) x sort_scale "
          "overflows the 32-bit sort keys; lower sort_scale or the grid size");
    if (transpositions_per_collision < 0 || transpositions_per_collision > 4)
      throw std::invalid_argument(
          "SimConfig: transpositions_per_collision must be in [0, 4]");
    if (plunger_trigger <= 0.0)
      throw std::invalid_argument("SimConfig: plunger_trigger must be > 0");
    if (vibrational &&
        (vib_exchange_prob < 0.0 || vib_exchange_prob > 1.0))
      throw std::invalid_argument(
          "SimConfig: vib_exchange_prob must be in [0, 1]");
    if (vibrational && vib_init_temperature < 0.0)
      throw std::invalid_argument(
          "SimConfig: vib_init_temperature must be >= 0");
    gas.validate();
    // CFL-like sanity: the stream should not cross more than ~2 cells/step
    // or cell-based collision selection breaks down.
    if (freestream_speed() > 2.0)
      throw std::invalid_argument(
          "SimConfig: freestream speed exceeds 2 cells/step; lower sigma");
  }
};

}  // namespace cmdsmc::core
