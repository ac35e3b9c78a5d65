// The time-step driver: the paper's four sub-steps
//   1) collisionless motion of particles
//   2) enforcement of boundary conditions
//   3) selection of collision partners
//   4) collision of selected partners
// implemented in the particles-to-processors mapping: per-step randomized
// sort by cell index, even/odd candidate pairing within cells, pairwise
// probabilistic selection (eq. 8) and the Baganoff 5-vector collision.
//
// Reservoir particles live in the same arrays with pairing-cell indices in a
// band past the real grid cells, so the same sort/pair/collide machinery
// relaxes them "for free" — the paper's way of keeping otherwise idle
// processors busy.
//
// Templated on the state scalar: `double` (reference) or
// `fixedpoint::Fixed32` (the paper's integer CM-2 implementation).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cmdp/sort.h"
#include "cmdp/thread_pool.h"
#include "cmdp/timers.h"
#include "core/config.h"
#include "core/particles.h"
#include "core/sampling.h"
#include "core/surface_sampling.h"
#include "fixedpoint/fixed32.h"
#include "geom/body.h"
#include "geom/boundary.h"
#include "geom/grid.h"
#include "geom/scene.h"
#include "geom/wedge.h"
#include "obs/step_stats.h"
#include "physics/selection.h"
#include "rng/rng.h"

namespace cmdsmc::audit {
template <class Real>
class Auditor;
}  // namespace cmdsmc::audit

namespace cmdsmc::core {

// Per-run cumulative counters.
struct SimCounters {
  std::uint64_t candidates = 0;   // candidate pairs examined
  std::uint64_t collisions = 0;   // pairs actually collided (flow)
  std::uint64_t reservoir_collisions = 0;
  std::uint64_t removed = 0;      // particles removed through the sink
  std::uint64_t injected = 0;     // particles injected from the reservoir
  // Refill particles drawn fresh from the freestream because the reservoir
  // was empty.  Long runs of the registered wedge and sphere scenarios
  // drain their reservoir, so this is not 0 there.
  std::uint64_t synthesized = 0;
  // Axisymmetric weight balancing: simulators created by splitting a heavy
  // particle and simulators absorbed by merging two light ones (both 0 in
  // planar runs).
  std::uint64_t cloned = 0;
  std::uint64_t merged = 0;
};

template <class Real>
class Simulation {
 public:
  // Phase indices for the performance breakdown (Table A).
  enum Phase : std::size_t {
    kPhaseMove = 0,   // motion + boundary conditions + injection + sort keys
    kPhaseSort,       // one-table counting sort + index scatter + gathers
    kPhaseSelect,     // kept for reporting compat; 0 since the select/collide
                      // fusion (cell tables now fall out of the sort)
    kPhaseCollide,    // selection + collision of partners (fused traversal)
    kPhaseSample,     // time-average accumulation
    kPhaseCount,
  };

  explicit Simulation(const SimConfig& cfg,
                      cmdp::ThreadPool* pool = nullptr);

  // Advances one full time step.
  void step();
  void run(int nsteps);

  // Time-average sampling control (off initially; enable after the start-up
  // transient).
  void set_sampling(bool on) { sampling_ = on; }
  void reset_sampling() { sampler_.reset(); }
  FieldStats field() const { return sampler_.finalize(); }

  // Surface-flux sampling (requires a body scene; no-op otherwise).
  void set_surface_sampling(bool on) { surface_sampling_ = on; }
  // Time-averaged per-segment Cp/Cf/heat-flux and integrated Cd/Cl, summed
  // over the whole scene (for a one-body scene: exactly that body's stats).
  SurfaceStats surface() const;
  // The same moments resolved per body (empty without a scene).
  std::vector<SurfaceStats> surface_per_body() const;

  // --- Accessors ---
  const SimConfig& config() const { return cfg_; }
  const geom::Grid& grid() const { return grid_; }
  // The wedge outline for shock analysis when the config describes the body
  // by its wedge fields (no cfg.body / cfg.bodies); null otherwise.
  const geom::Wedge* wedge() const {
    return wedge_ ? &wedge_.value() : nullptr;
  }
  // Every body of the run (empty when it has none): cfg.body first, then
  // cfg.bodies, or else the wedge from the config's wedge fields.
  const geom::Scene& scene() const { return scene_; }
  const std::vector<double>& open_fraction() const { return open_frac_; }
  // Per-cell volumes in axisymmetric runs (annulus 2*iy + 1, in units of
  // pi); empty for planar runs (unit cells).  Also the per-particle target
  // weight of each cell.
  const std::vector<double>& cell_volume() const { return cell_volume_; }
  // Per-cell "no boundary reachable" mask driving the move fast path.
  const std::vector<std::uint8_t>& interior_mask() const {
    return interior_mask_;
  }
  ParticleStore<Real>& particles() { return store_; }
  const ParticleStore<Real>& particles() const { return store_; }
  std::size_t total_count() const { return store_.size(); }
  std::size_t reservoir_count() const { return res_count_; }
  std::size_t flow_count() const { return store_.size() - res_count_; }
  std::int64_t step_index() const { return step_; }
  const SimCounters& counters() const { return counters_; }

  // Phase wall-clock seconds (Table A) and their sum, for reports only.
  double phase_seconds(Phase p) const {
    return timers_.seconds(p);  // determinism-ok: reporting
  }
  double total_seconds() const { return timers_.total_seconds(); }
  cmdp::PhaseTimers& timers() { return timers_; }

  // --- Run telemetry (obs/step_stats.h) ---
  // Attaches a per-step observer: every step the observer wants, the
  // simulation fills a StepStats (census, counter deltas, occupancy spread,
  // per-phase and per-lane seconds) and calls on_step before advancing the
  // step counter; nullptr detaches.  With no observer attached the step
  // loop pays a single pointer test.  The observer must outlive the
  // simulation or be detached first.
  void set_step_observer(obs::StepObserver* observer) { observer_ = observer; }

  // --- Invariant audit (audit/auditor.h) ---
  // Attaches the in-situ auditor: every step its cadence selects runs the
  // audit hooks between the phases; nullptr detaches.  Like the observer,
  // a detached auditor costs the step loop a single pointer test.  The
  // auditor must outlive the simulation or be detached first.
  void set_auditor(audit::Auditor<Real>* auditor) { auditor_ = auditor; }

  // Read-only views of the sort phase's per-pairing-cell table and of the
  // step's partition, for the audit layer (valid after the first step; the
  // collide and sample phases read but never rewrite them).  Pairing cell c
  // holds the sorted particles [sort_starts()[c], sort_starts()[c + 1]),
  // and the last of the pair cells + 1 entries is the particle count.
  // Lane t of the pool sorts, collides and samples pairing cells
  // [partition()[t], partition()[t + 1]), cut at particle-count quantiles
  // of the sorted array (cmdp::count_quantile_cuts); the sort uses the
  // previous step's cuts, and partition() is empty after a restore.
  const std::vector<std::uint32_t>& sort_starts() const { return starts_; }
  // Each pairing cell's particle count, derived from sort_starts().
  std::vector<std::uint32_t> sort_counts() const;
  const std::vector<std::uint32_t>& partition() const { return cuts_; }
  // Predicted max/mean lane particle count of partition() (1 on one lane).
  double partition_imbalance() const {
    return cmdp::cut_imbalance(starts_, cuts_);
  }

  // --- Conservation diagnostics (flow + reservoir, double precision) ---
  // Total kinetic + rotational energy per unit mass: sum 0.5 (u^2 + r^2).
  double total_energy() const;
  // Total momentum per unit mass.
  std::array<double, 3> total_momentum() const;
  // Weighted moments of the flow (axisymmetric runs; weights are 1 in
  // planar runs): sum of w, w*v and w*(0.5 |v|^2 + e_int) over flow
  // particles — the quantities the weight-balancing pass conserves exactly.
  double flow_weighted_mass() const;
  std::array<double, 3> flow_weighted_momentum() const;
  double flow_weighted_energy() const;

  // --- Checkpoint/restart support (core/checkpoint.*) ---
  // Everything beyond the particle store a resumed run needs to reproduce
  // the uninterrupted run bit for bit: the step counter (every counter-RNG
  // stream is keyed on it), the plunger phase, reservoir bookkeeping,
  // cumulative counters, and the field/surface sampler accumulators.
  struct ResumeState {
    std::int64_t step = 0;
    double plunger_x = 0.0;
    std::uint64_t res_count = 0;
    SimCounters counters;
    int field_samples = 0;
    std::vector<double> field_sums;
    int surface_samples = 0;
    std::vector<double> surface_sums;
  };
  ResumeState resume_state() const;
  // Restores store + state saved by resume_state().  Throws
  // std::invalid_argument when the accumulator shapes do not match this
  // simulation's grid/scene (geometry mismatch).  Rebuilds the interior
  // mask, which must be re-derived whenever the boundary state is replaced.
  void restore(ParticleStore<Real> store, const ResumeState& state);
  // Provenance hash over everything that defines the run's geometry and
  // particle layout; checkpoints refuse to restore across a mismatch.
  std::uint64_t geometry_hash() const;

 private:
  using N = physics::Num<Real>;

  void init_particles();
  // Draws particle i's two vibrational DOF from `g` at the initial
  // vibrational temperature: Gaussian, or rectangular with the same variance
  // for particles the reservoir's collisions will relax.
  void draw_vibration(std::size_t i, rng::SplitMix64& g, bool rectangular);
  void phase_move_and_boundaries();
  // Fills the slab [x_offset, x_offset + width) at freestream density with
  // reservoir particles taken from the last `reservoir_tail` array slots,
  // and synthesizes the rest when those run out.
  void inject_void(double width, double x_offset, std::size_t reservoir_tail);
  // `strip_count` = flow particles in the first column, tallied during the
  // move loop (the standalone O(n) counting pass is gone).
  void soft_source_topup(std::size_t strip_count, std::size_t reservoir_tail);
  void phase_sort();
  // Axisymmetric weight balancing (called from phase_sort, before the
  // counting sort): splits particles heavier than twice their cell's target
  // weight into equal copies (appended at the tail; the sort places them)
  // and merges pairs of particles lighter than half the target within the
  // same cell (mass- and momentum-conserving velocity average, the lost
  // relative kinetic energy folded into the rotational DOF so total energy
  // is exact too).  Merged-away slots get weight 0 and a past-the-end sort
  // key: the sort moves them behind the reservoir band, where phase_sort
  // truncates them.  Returns the merged-away count.
  std::size_t balance_weights();
  // One fused traversal: candidate pairing + acceptance + collision.  Pairs
  // are disjoint, so fusing is bit-identical to the historical two-pass
  // select-then-collide while skipping the accept-flag round trip.
  void phase_select_and_collide();
  void phase_sample();
  // Randomized sort key of particle i from its current cell/state.  Fused
  // into the move loop (and the injection paths) so the sort phase never
  // makes a separate key-generation pass.  KeyParams hoists every config
  // load; key_from is the single derivation shared by the hot loop and
  // sort_key_for, so the scheme cannot silently diverge between them.
  struct KeyParams {
    std::uint32_t scale = 1;
    std::uint32_t mask = 0;  // scale - 1 when scale is a power of two
    bool randomize = false;
    bool dirty = false;
    std::uint64_t seed_round = 0;
    std::uint64_t step = 0;
  };
  KeyParams key_params() const;
  std::uint32_t key_from(const KeyParams& kp, std::size_t i,
                         std::uint32_t cell) const;
  std::uint32_t sort_key_for(std::size_t i) const;
  // Sort key space: pair cells * sort_scale, plus one reserved past-the-end
  // key value in axisymmetric runs for merged-away slots (they sort behind
  // the reservoir band and are truncated after the sort).
  std::uint32_t sort_key_bound() const {
    return (ncells_ + res_cells_) *
               static_cast<std::uint32_t>(cfg_.sort_scale) +
           (cfg_.axisymmetric ? 1u : 0u);
  }
  std::uint64_t bits_for(std::uint64_t i, std::uint64_t salt) const {
    // seed_round_ caches hash4's seed-only first round (bit-identical).
    return rng::hash4_seeded(seed_round_, i, static_cast<std::uint64_t>(step_),
                             salt);
  }
  // "Quick but dirty" bits from the low-order state bits (paper).
  std::uint64_t dirty_state_bits(std::size_t i) const;
  std::uint32_t reservoir_pair_cell(std::uint64_t i) const;

  // The run's walls, without the plunger's per-step face.
  geom::BoundaryConfig boundary_config() const;
  void rebuild_interior_mask();

  // Telemetry bracketing for one observed step: snapshot the cumulative
  // counters/timers, then turn end-of-step deltas into obs_stats_.
  void begin_observed_step();
  void emit_step_stats();

  SimConfig cfg_;
  cmdp::ThreadPool* pool_;
  geom::Grid grid_;
  std::optional<geom::Wedge> wedge_;  // shock-analysis outline only
  geom::Scene scene_;  // every body of the run (see scene())
  std::vector<double> open_frac_;
  // Axisymmetric per-cell annular volumes (empty when planar) and the
  // per-step weighted per-cell census feeding the collision density (summed
  // by the sort from the sorted runs).
  std::vector<double> cell_volume_;
  std::vector<double> cell_weight_;
  // Balance-pass scratch: per-lane merge-candidate tables (lanes * ncells
  // slots of epoch<<32 | index; a slot is live only when its epoch matches
  // the chunk being walked, so the table never needs clearing) and the
  // per-chunk clone-slot prefix of pass A.
  std::vector<std::uint64_t> balance_pending_;
  std::vector<std::uint32_t> balance_clone_base_;
  std::uint64_t balance_epoch_ = 0;
  std::vector<std::uint8_t> interior_mask_;
  physics::SelectionRule rule_;
  std::uint64_t seed_round_ = 0;  // hash4_seed_round(cfg_.seed)
  double u_inf_ = 0.0;          // freestream speed (cells/step)
  double n_inf_ = 0.0;          // freestream particles per cell volume
  std::uint32_t ncells_ = 0;    // real grid cells
  std::uint32_t res_cells_ = 1;  // reservoir pairing pseudo-cells
  geom::Plunger plunger_;

  ParticleStore<Real> store_;
  // The sort keys, one per record, mapped like the store.  They are dead
  // once every sort lane has passed the gathers' first barrier (the next
  // move rewrites every key), so the sort lends them as its uint32_t spare.
  Array<std::uint32_t> keys_;
  // The sort's other spares, one per element type of the record
  // (SortedGather): its arrays rotate through them, so no second store.
  Array<Real> spare_real_;
  Array<double> spare_weight_;  // Fixed32 axisymmetric runs only
  Array<rng::PackedPerm> spare_perm_;
  Array<std::uint8_t> spare_flags_;
  std::vector<std::uint32_t> starts_;  // pair cells + 1, see sort_starts()
  std::vector<std::uint32_t> cuts_;  // pool lanes + 1, see partition()

  // Reservoir particles.  The sort leaves them contiguous at the tail of
  // the arrays: their pairing cells come after every flow cell.
  std::size_t res_count_ = 0;

  FieldSampler<Real> sampler_;
  bool sampling_ = false;
  SurfaceSampler surf_;
  bool surface_sampling_ = false;
  std::int64_t step_ = 0;
  SimCounters counters_;
  cmdp::PhaseTimers timers_{kPhaseCount, *pool_};

  // In-situ invariant auditor (nullptr: no audit hooks run).
  audit::Auditor<Real>* auditor_ = nullptr;

  // Step observer state: the reusable stats record plus the step-start
  // snapshots the per-step deltas are differenced against.
  obs::StepObserver* observer_ = nullptr;
  obs::StepStats obs_stats_;
  SimCounters obs_counters0_;
  std::uint64_t obs_wall0_ = 0;
  std::array<double, kPhaseCount> obs_phase0_{};
  std::vector<double> obs_lane0_;
};

using SimulationD = Simulation<double>;
using SimulationF = Simulation<fixedpoint::Fixed32>;

extern template class Simulation<double>;
extern template class Simulation<fixedpoint::Fixed32>;

}  // namespace cmdsmc::core
