#include "core/simulation.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "audit/auditor.h"
#include "cmdp/parallel.h"
#include "cmdp/sort.h"
#include "core/reservoir_policy.h"
#include "physics/collision.h"
#include "rng/samplers.h"

namespace cmdsmc::core {

namespace {

// Displacement bounds (cells per axis per step) of the interior fast path.
// The mask is two-level: cells at least kInteriorMaxDisp from every boundary
// admit any particle under that bound (SimConfig::validate() caps the
// freestream at 2 cells/step, so only extreme thermal outliers miss), and
// the ring at least kInteriorDispL1 away still admits the majority of
// particles, which are slower than one cell per step per axis.
constexpr double kInteriorMaxDisp = 2.0;
constexpr double kInteriorDispL1 = 1.0;

// Salts keep the independent random decisions of one (particle, step)
// decorrelated.
enum Salt : std::uint64_t {
  kSaltInit = 1,
  kSaltResInit,
  kSaltBc,
  kSaltRemoveVel,
  kSaltSortKey,
  kSaltAccept,
  kSaltCollide,
  kSaltTranspose,
  kSaltResCell,
  kSaltInject,
  kSaltWeightKeep,
};

SimConfig validated(SimConfig cfg) {
  cfg.validate();
  return cfg;
}

geom::Grid make_grid(const SimConfig& cfg) {
  geom::Grid g{cfg.nx, cfg.ny, cfg.nz};
  g.validate();
  return g;
}

// The outline the shock analysis measures, for a wedge described by the
// config's wedge fields (the scene runs it as Body::Wedge).
std::optional<geom::Wedge> make_wedge(const SimConfig& cfg) {
  if (cfg.has_body_scene() || !cfg.has_wedge) return std::nullopt;
  return geom::Wedge(cfg.wedge_x0, cfg.wedge_base, cfg.wedge_angle_rad());
}

// Every body of the run: cfg.body first, then cfg.bodies, or else the
// paper's wedge from the config's wedge fields.  A body whose segment walls
// were never customized inherits the config's global wall model, so a
// diffuse-wall setup does not silently fall back to specular walls.
geom::Scene make_scene(const SimConfig& cfg) {
  std::vector<geom::Body> bodies;
  if (cfg.body) bodies.push_back(*cfg.body);
  bodies.insert(bodies.end(), cfg.bodies.begin(), cfg.bodies.end());
  if (bodies.empty() && cfg.has_wedge)
    bodies.push_back(geom::Body::Wedge(cfg.wedge_x0, cfg.wedge_base,
                                       cfg.wedge_angle_rad()));
  if (cfg.wall != geom::WallModel::kSpecular)
    for (geom::Body& b : bodies)
      if (!b.any_diffuse()) b.set_wall_model(cfg.wall, cfg.wall_sigma);
  return geom::Scene(std::move(bodies));
}

// Axisymmetric cell volumes: the cell (ix, iy) is the unit-width annulus
// r in [iy, iy+1), volume pi * (2*iy + 1).  The pi is dropped — the radial
// particle weights, the weighted census and the freestream density all use
// the same pi-free units, so it cancels in every ratio.  Empty when planar
// (unit cells).
std::vector<double> make_cell_volume(const SimConfig& cfg,
                                     const geom::Grid& grid) {
  if (!cfg.axisymmetric) return {};
  std::vector<double> vol(static_cast<std::size_t>(grid.ncells()));
  for (int iy = 0; iy < grid.ny; ++iy)
    for (int ix = 0; ix < grid.nx; ++ix)
      vol[grid.index(ix, iy)] = 2.0 * iy + 1.0;
  return vol;
}

}  // namespace

template <class Real>
Simulation<Real>::Simulation(const SimConfig& cfg, cmdp::ThreadPool* pool)
    : cfg_(validated(cfg)),
      pool_(pool != nullptr ? pool : &cmdp::ThreadPool::global()),
      grid_(make_grid(cfg_)),
      wedge_(make_wedge(cfg_)),
      scene_(make_scene(cfg_)),
      open_frac_(scene_.open_fraction_table(grid_)),
      cell_volume_(make_cell_volume(cfg_, grid_)),
      rule_(physics::SelectionRule::make(cfg_.gas, cfg_.lambda_inf, cfg_.sigma,
                                         cfg_.particles_per_cell)),
      sampler_(grid_, open_frac_, cfg_.particles_per_cell, cfg_.sigma,
               cell_volume_) {
  seed_round_ = rng::hash4_seed_round(cfg_.seed);
  u_inf_ = cfg_.closed_box ? 0.0 : cfg_.freestream_speed();
  n_inf_ = cfg_.particles_per_cell;
  ncells_ = static_cast<std::uint32_t>(grid_.ncells());
  store_.has_z = cfg_.is3d();
  store_.has_vib = cfg_.vibrational;
  store_.has_weight = cfg_.axisymmetric;
  if (!scene_.empty())
    surf_ = SurfaceSampler(scene_.total_segments(), pool_->size(),
                           grid_.is3d() ? grid_.nz : 1.0, cfg_.axisymmetric);
  plunger_.speed = u_inf_;
  plunger_.trigger = cfg_.plunger_trigger;
  rebuild_interior_mask();
  init_particles();
}

template <class Real>
geom::BoundaryConfig Simulation<Real>::boundary_config() const {
  geom::BoundaryConfig bc;
  bc.x_max = grid_.nx;
  bc.y_max = grid_.ny;
  bc.z_max = grid_.is3d() ? grid_.nz : 0.0;
  bc.scene = &scene_;
  bc.closed = cfg_.closed_box;
  bc.axisymmetric = cfg_.axisymmetric;
  return bc;
}

template <class Real>
void Simulation<Real>::rebuild_interior_mask() {
  // The interior mask is geometry-only and step-invariant: the plunger's
  // whole sweep range (trigger plus one step of advance) counts as
  // boundary, so the mask never has to track the moving face.  It must be
  // re-derived whenever the boundary state changes (construction and
  // checkpoint restore are the only such points today) — a stale mask next
  // to a newly added body would let particles skip enforce_boundaries at
  // its surface.
  const geom::BoundaryConfig bc = boundary_config();
  const bool plunger_active =
      !cfg_.closed_box && cfg_.upstream == geom::UpstreamMode::kPlunger;
  const double reach = plunger_active ? cfg_.plunger_trigger + u_inf_ : 0.0;
  // Combine the per-displacement masks into levels: mask[c] == L means no
  // boundary is reachable from cell c within the level-L displacement
  // bound (0 = boundary-adjacent, slow path only).
  interior_mask_ = geom::interior_cell_mask(grid_, bc, reach, kInteriorDispL1);
  const std::vector<std::uint8_t> far =
      geom::interior_cell_mask(grid_, bc, reach, kInteriorMaxDisp);
  for (std::size_t c = 0; c < interior_mask_.size(); ++c)
    if (far[c]) interior_mask_[c] = 2;
#ifndef NDEBUG
  // Independent re-verification of the mask's promise: from a masked cell,
  // no displacement within the level's bound can reach any scene body — no
  // facet touches the expanded cell box and the box lies outside every
  // solid.  (The body *bounding box* may legitimately overlap a masked
  // cell: the region above a wedge's hypotenuse is inside its bbox but
  // provably clear of the solid.)
  for (int iz = 0; iz < (grid_.is3d() ? grid_.nz : 1); ++iz) {
    for (int iy = 0; iy < grid_.ny; ++iy) {
      for (int ix = 0; ix < grid_.nx; ++ix) {
        const std::uint8_t level = interior_mask_[grid_.index(ix, iy, iz)];
        if (level == 0) continue;
        const double d = level == 2 ? kInteriorMaxDisp : kInteriorDispL1;
        for (int b = 0; b < scene_.body_count(); ++b) {
          const geom::Body& body = scene_.body(b);
          // Cheap bbox pre-filter before the exact facet tests.
          if (ix - d >= body.xmax() || ix + 1 + d <= body.xmin() ||
              iy - d >= body.ymax() || iy + 1 + d <= body.ymin())
            continue;
          for (const geom::BodySegment& s : body.segments()) {
            const bool touches = geom::segment_touches_box(
                s.x0, s.y0, s.x1, s.y1, ix - d, iy - d, ix + 1 + d,
                iy + 1 + d);
            assert(!touches &&
                   "interior mask covers a cell within reach of a facet");
            (void)touches;
          }
          const bool buried = body.inside(ix + 0.5, iy + 0.5);
          assert(!buried && "interior mask covers a cell inside a body");
          (void)buried;
        }
      }
    }
  }
#endif
}

template <class Real>
std::uint32_t Simulation<Real>::reservoir_pair_cell(std::uint64_t i) const {
  return ncells_ +
         static_cast<std::uint32_t>(bits_for(i, kSaltResCell) % res_cells_);
}

template <class Real>
std::uint64_t Simulation<Real>::dirty_state_bits(std::size_t i) const {
  // "An additional advantage ... is the availability of a quick but dirty
  // random number in the low order bits of a physical state quantity."
  const std::uint64_t a = N::raw32(store_.ux[i]);
  const std::uint64_t b = N::raw32(store_.uy[i]);
  const std::uint64_t c = N::raw32(store_.r0[i]);
  const std::uint64_t d = N::raw32(store_.r1[i]);
  return (a << 32) ^ (b << 16) ^ (c << 48) ^ d ^
         (static_cast<std::uint64_t>(step_) << 24);
}

template <class Real>
void Simulation<Real>::init_particles() {
  double open_volume = 0.0;
  for (double f : open_frac_) open_volume += f;
  const auto n_flow =
      static_cast<std::size_t>(std::llround(cfg_.particles_per_cell *
                                            open_volume));
  const auto n_res = static_cast<std::size_t>(
      std::llround(cfg_.reservoir_fraction * static_cast<double>(n_flow)));
  res_cells_ = static_cast<std::uint32_t>(n_res / 64 + 1);
  store_.resize(n_flow + n_res);
  const double nx = grid_.nx;
  const double ny = grid_.ny;
  const double nz = grid_.is3d() ? grid_.nz : 0.0;
  cmdp::parallel_for(*pool_, n_flow, [&](std::size_t i) {
    rng::SplitMix64 g(rng::hash4(cfg_.seed, i, 0, kSaltInit));
    double x;
    double y;
    do {
      x = g.next_double() * nx;
      y = g.next_double() * ny;
    } while (scene_.inside(x, y));
    const double z = grid_.is3d() ? g.next_double() * nz : 0.0;
    store_.x[i] = N::from_double(x);
    store_.y[i] = N::from_double(y);
    if (store_.has_z) store_.z[i] = N::from_double(z);
    store_.ux[i] =
        N::from_double(u_inf_ + cfg_.sigma * rng::sample_gaussian(g));
    store_.uy[i] = N::from_double(cfg_.sigma * rng::sample_gaussian(g));
    store_.uz[i] = N::from_double(cfg_.sigma * rng::sample_gaussian(g));
    store_.r0[i] = N::from_double(cfg_.sigma * rng::sample_gaussian(g));
    store_.r1[i] = N::from_double(cfg_.sigma * rng::sample_gaussian(g));
    if (cfg_.vibrational) draw_vibration(i, g, /*rectangular=*/false);
    store_.perm[i] = rng::random_perm(g);
    store_.flags[i] = 0;
    store_.id[i] = static_cast<std::uint32_t>(i);
    store_.cell[i] = grid_.index(static_cast<int>(x), static_cast<int>(y),
                                 static_cast<int>(z));
    // Axisymmetric: ~ppc simulators per cell each representing the cell's
    // annular volume of gas, so the weighted census per cell is ppc * vol.
    if (cfg_.axisymmetric) store_.weight[i] = cell_volume_[store_.cell[i]];
  });
  cmdp::parallel_for(*pool_, n_res, [&](std::size_t j) {
    const std::size_t i = n_flow + j;
    const Velocity5 v = rectangular_freestream(
        cfg_.sigma, u_inf_, rng::hash4(cfg_.seed, i, 0, kSaltResInit));
    store_.x[i] = N::from_double(0.0);
    store_.y[i] = N::from_double(0.0);
    if (store_.has_z) store_.z[i] = N::from_double(0.0);
    store_.ux[i] = N::from_double(v.v[0]);
    store_.uy[i] = N::from_double(v.v[1]);
    store_.uz[i] = N::from_double(v.v[2]);
    store_.r0[i] = N::from_double(v.v[3]);
    store_.r1[i] = N::from_double(v.v[4]);
    rng::SplitMix64 g(rng::hash4(cfg_.seed, i, 1, kSaltResInit));
    if (cfg_.vibrational) draw_vibration(i, g, /*rectangular=*/true);
    store_.perm[i] = rng::random_perm(g);
    store_.flags[i] = ParticleStore<Real>::kReservoirFlag;
    store_.id[i] = static_cast<std::uint32_t>(i);
    store_.cell[i] = reservoir_pair_cell(i);
  });
  res_count_ = n_res;
}

template <class Real>
void Simulation<Real>::draw_vibration(std::size_t i, rng::SplitMix64& g,
                                      bool rectangular) {
  const double sv = cfg_.sigma * std::sqrt(cfg_.vib_init_temperature);
  const auto draw = [&] {
    return N::from_double(rectangular ? rng::sample_rectangular(g, sv)
                                      : sv * rng::sample_gaussian(g));
  };
  store_.v0[i] = draw();
  store_.v1[i] = draw();
}

template <class Real>
void Simulation<Real>::step() {
  const bool observe = observer_ != nullptr && observer_->wants_step(step_);
  if (observe) begin_observed_step();
  // Invariant audit: hooks run between the phase scopes (outside the
  // timers, so audit cost never pollutes the Table A breakdown).  The
  // cadence decision is latched once so a mid-step boundary cannot split
  // the hook sequence.
  const bool audited = auditor_ != nullptr && auditor_->wants(step_);
  if (audited) auditor_->begin_step(*this);
  {
    cmdp::PhaseTimers::Scope t(timers_, kPhaseMove);
    phase_move_and_boundaries();
  }
  if (audited) auditor_->after_move(*this);
  {
    cmdp::PhaseTimers::Scope t(timers_, kPhaseSort);
    phase_sort();
  }
  if (audited) auditor_->after_sort(*this);
  {
    // Selection and collision are one fused pass (see
    // phase_select_and_collide); the select slot keeps its place in Table
    // A, reading 0 since the fusion.
    cmdp::PhaseTimers::Scope t(timers_, kPhaseCollide);
    phase_select_and_collide();
  }
  if (audited) auditor_->after_collide(*this);
  if (sampling_) {
    cmdp::PhaseTimers::Scope t(timers_, kPhaseSample);
    phase_sample();
  }
  if (audited) auditor_->end_step(*this);
  if (observe) emit_step_stats();
  ++step_;
}

template <class Real>
void Simulation<Real>::begin_observed_step() {
  obs_counters0_ = counters_;
  obs_wall0_ = surf_.events_total();
  // The timer snapshots feed the observer only, never the step.
  for (std::size_t p = 0; p < kPhaseCount; ++p)
    obs_phase0_[p] = timers_.seconds(p);  // determinism-ok: obs
  obs_lane0_ = timers_.lane_seconds_table();  // determinism-ok: obs
}

template <class Real>
void Simulation<Real>::emit_step_stats() {
  obs::StepStats& s = obs_stats_;
  s.step = step_;  // the step just executed (step_ advances after the emit)
  s.flow = flow_count();
  s.reservoir = res_count_;
  s.total = store_.size();
  if (cfg_.axisymmetric) {
    // The weighted census fell out of the sort phase's per-cell refresh
    // (O(cells)).
    double w = 0.0;
    for (double cw : cell_weight_) w += cw;
    s.weighted_census = w;
  } else {
    s.weighted_census = static_cast<double>(s.flow);
  }
  s.cost_imbalance = partition_imbalance();
  s.candidates = counters_.candidates - obs_counters0_.candidates;
  s.collisions = counters_.collisions - obs_counters0_.collisions;
  s.reservoir_collisions =
      counters_.reservoir_collisions - obs_counters0_.reservoir_collisions;
  s.removed = counters_.removed - obs_counters0_.removed;
  s.injected = counters_.injected - obs_counters0_.injected;
  s.synthesized = counters_.synthesized - obs_counters0_.synthesized;
  s.cloned = counters_.cloned - obs_counters0_.cloned;
  s.merged = counters_.merged - obs_counters0_.merged;
  s.wall_events = surf_.events_total() - obs_wall0_;
  s.accept_rate =
      s.candidates > 0
          ? static_cast<double>(s.collisions + s.reservoir_collisions) /
                static_cast<double>(s.candidates)
          : 0.0;
  s.cum_candidates = counters_.candidates;
  s.cum_collisions = counters_.collisions;
  // Audit gauges (the struct is reused across steps, so clear when off).
  s.audit_active = auditor_ != nullptr;
  s.audit_checks = s.audit_active ? auditor_->counters().total_checks() : 0;
  s.audit_violations =
      s.audit_active ? auditor_->counters().total_violations() : 0;
  // Occupancy spread over open flow cells, from the sort's per-cell starts
  // (still valid: the collide phase reads but never rewrites them).
  std::uint32_t occ_min = 0xffffffffu;
  std::uint32_t occ_max = 0;
  std::uint64_t occ_sum = 0;
  std::uint64_t open_cells = 0;
  for (std::uint32_t c = 0; c < ncells_; ++c) {
    if (open_frac_[c] <= 0.0) continue;  // solid interior cells
    const std::uint32_t cnt = starts_[c + 1] - starts_[c];
    occ_min = cnt < occ_min ? cnt : occ_min;
    occ_max = cnt > occ_max ? cnt : occ_max;
    occ_sum += cnt;
    ++open_cells;
  }
  s.occ_min = open_cells != 0 ? occ_min : 0;
  s.occ_max = occ_max;
  s.occ_mean = open_cells != 0
                   ? static_cast<double>(occ_sum) /
                         static_cast<double>(open_cells)
                   : 0.0;
  // Every buffer the sort holds beyond the record: the pool's workspace
  // (key table, cuts, index), the per-cell starts, the keys and the spares.
  s.arena_bytes =
      pool_->workspace().bytes() +
      sizeof(std::uint32_t) * (keys_.capacity() + starts_.capacity()) +
      sizeof(Real) * spare_real_.capacity() +
      sizeof(double) * spare_weight_.capacity() +
      sizeof(rng::PackedPerm) * spare_perm_.capacity() +
      spare_flags_.capacity();
  // Timing deltas, for the observer only.
  const unsigned lanes = timers_.lanes();
  s.lanes = lanes;
  const std::vector<double>& lane_now =
      timers_.lane_seconds_table();  // determinism-ok: obs
  s.lane_seconds.assign(static_cast<std::size_t>(obs::StepStats::kPhases) *
                            lanes,
                        0.0);
  s.step_seconds = 0.0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const double dt =
        timers_.seconds(p) - obs_phase0_[p];  // determinism-ok: obs
    s.phase_seconds[p] = dt;
    s.step_seconds += dt;
    double lane_max = 0.0;
    double lane_sum = 0.0;
    for (unsigned t = 0; t < lanes; ++t) {
      const std::size_t idx = p * lanes + t;
      const double lt = lane_now[idx] - obs_lane0_[idx];
      s.lane_seconds[idx] = lt;
      lane_max = lt > lane_max ? lt : lane_max;
      lane_sum += lt;
    }
    s.imbalance[p] =
        lane_sum > 0.0 ? lane_max * lanes / lane_sum : 0.0;
  }
  observer_->on_step(s);
}

template <class Real>
void Simulation<Real>::run(int nsteps) {
  for (int s = 0; s < nsteps; ++s) step();
}

template <class Real>
typename Simulation<Real>::KeyParams Simulation<Real>::key_params() const {
  KeyParams kp;
  kp.scale = static_cast<std::uint32_t>(cfg_.sort_scale);
  // The default scales are powers of two; the masked form avoids a 64-bit
  // hardware division per particle per step (identical result).
  kp.mask = (kp.scale & (kp.scale - 1)) == 0 ? kp.scale - 1 : 0;
  kp.randomize = cfg_.randomize_sort && kp.scale > 1;
  kp.dirty = cfg_.rng_mode == RngMode::kDirty;
  kp.seed_round = seed_round_;
  kp.step = static_cast<std::uint64_t>(step_);
  return kp;
}

template <class Real>
inline std::uint32_t Simulation<Real>::key_from(const KeyParams& kp,
                                                std::size_t i,
                                                std::uint32_t cell) const {
  std::uint32_t r = 0;
  if (kp.randomize) {
    const std::uint64_t bits =
        kp.dirty ? dirty_state_bits(i)
                 : rng::hash4_seeded(kp.seed_round, i, kp.step, kSaltSortKey);
    r = kp.mask != 0 ? static_cast<std::uint32_t>(bits & kp.mask)
                     : static_cast<std::uint32_t>(bits % kp.scale);
  }
  return cell * kp.scale + r;
}

template <class Real>
std::uint32_t Simulation<Real>::sort_key_for(std::size_t i) const {
  return key_from(key_params(), i, store_.cell[i]);
}

template <class Real>
void Simulation<Real>::phase_move_and_boundaries() {
  const std::size_t n = store_.size();
  keys_.resize(n);
  // The sort left the reservoir contiguous at the tail of the arrays.  The
  // particles the sink parks below stay where they are, so the refill draws
  // only on the tail the step started with.
  const std::size_t reservoir_tail = res_count_;
  const bool plunger_active =
      !cfg_.closed_box && cfg_.upstream == geom::UpstreamMode::kPlunger;
  // Advance (and possibly withdraw) the plunger.  Particles this step still
  // reflect off the face the plunger reached before withdrawal; the void is
  // refilled behind the restarted face after the move loop.
  const double void_width = plunger_active ? plunger_.advance() : 0.0;

  geom::BoundaryConfig bc = boundary_config();
  bc.plunger_x = plunger_.x + void_width;  // pre-withdrawal face position
  bc.plunger_speed = u_inf_;
  bc.plunger_active = plunger_active;

  const bool need_bc_bits = scene_.any_diffuse();
  const bool record_surface = surface_sampling_ && !scene_.empty();
  // Interior fast path: a particle whose cell is masked and whose per-axis
  // speed stays under the mask's displacement bound provably reaches no
  // boundary, so it skips the double-precision round trip and
  // enforce_boundaries entirely (to_double/from_double round-trips exactly,
  // so the skipped path would have been a no-op bit for bit).
  const std::uint8_t* interior = interior_mask_.data();
  // Indexed by mask level; level 0 yields an empty speed window, so the
  // level check folds into the speed comparison.
  const Real disp_lo[3] = {N::from_double(0.0), N::from_double(-kInteriorDispL1),
                           N::from_double(-kInteriorMaxDisp)};
  const Real disp_hi[3] = {N::from_double(0.0), N::from_double(kInteriorDispL1),
                           N::from_double(kInteriorMaxDisp)};
  // Soft-source runs tally the first-column strip here, during the move,
  // instead of re-scanning every particle afterwards.
  const bool count_strip =
      !cfg_.closed_box && cfg_.upstream == geom::UpstreamMode::kSoftSource;
  const Real one = N::from_double(1.0);
  // Hoisted loop invariants and raw array pointers: byte stores inside the
  // loop (flags) would otherwise force the compiler to re-load every member
  // and vector data pointer each iteration.
  const bool has_z = store_.has_z;
  const int gnx = grid_.nx;
  const int gny = grid_.ny;
  const std::uint32_t ncells = ncells_;
  Real* const xp = store_.x.data();
  Real* const yp = store_.y.data();
  Real* const zp = has_z ? store_.z.data() : nullptr;
  Real* const uxp = store_.ux.data();
  Real* const uyp = store_.uy.data();
  Real* const uzp = store_.uz.data();
  std::uint32_t* const cellp = store_.cell.data();
  std::uint32_t* const keysp = keys_.data();
  // sort_key_for() with every config load hoisted (identical result).
  const KeyParams kp = key_params();
  auto key_of = [&](std::size_t i, std::uint32_t cell) {
    return key_from(kp, i, cell);
  };
  // Axisymmetric mode: the move advances particles in 3D and rotates them
  // back into the (z-r) plane; the per-level displacement bound guards the
  // radial excursion |dr| <= hypot(uy, uz).
  const bool axi = cfg_.axisymmetric;
  const double* const weightp = axi ? store_.weight.data() : nullptr;
  const double axi_disp[3] = {0.0, kInteriorDispL1, kInteriorMaxDisp};
  std::atomic<std::uint64_t> removed{0};
  std::atomic<std::uint64_t> strip{0};
  cmdp::parallel_chunks(*pool_, n, [&](cmdp::Range r, unsigned tid) {
    std::uint64_t local_removed = 0;
    std::uint64_t local_strip = 0;
    // Hoisted out of the loop: entries past `count` are never read, so a
    // per-particle reset of the count alone avoids re-zeroing the buffer in
    // this hot path.
    geom::WallEventBuffer wall_events;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      // cell >= ncells_ <=> the reservoir flag is set (the pairing band
      // starts past the real grid), and the cell index is loaded anyway for
      // the interior mask — so the flags byte stays out of this loop.
      const std::uint32_t c0 = cellp[i];
      if (c0 >= ncells) {
        // Reservoir particles do not move; re-deal their pairing pseudo-cell
        // so partners change between steps.
        const std::uint32_t cell = reservoir_pair_cell(i);
        cellp[i] = cell;
        keysp[i] = key_of(i, cell);
        continue;
      }
      const Real vx = uxp[i];
      const Real vy = uyp[i];
      const Real px = xp[i] + vx;
      // Axisymmetric runs: the new radius and the velocity rotated back into
      // the plane with it.
      double rr = 0.0;
      double ur = 0.0;
      double ut = 0.0;
      if (axi) {
        // 1) Collisionless motion in 3D off the plane: the particle moves to
        // (y + uy, uz) in the (r, azimuth) cross-section, then the plane is
        // rotated back so y is the new radius and the azimuthal velocity
        // folds into uz.  Double precision throughout — the rotation needs a
        // sqrt either way; Fixed32 rounds once on write-back like the
        // boundary path.
        const double uxd = N::to_double(vx);
        const double uyd = N::to_double(vy);
        const double uzd = N::to_double(uzp[i]);
        const double ry = N::to_double(yp[i]) + uyd;
        const double rz = uzd;
        rr = std::sqrt(ry * ry + rz * rz);
        ur = uyd;
        ut = uzd;
        if (rr > 0.0) {
          ur = (uyd * ry + uzd * rz) / rr;
          ut = (uzd * ry - uyd * rz) / rr;
        }
        const double bound = axi_disp[interior[c0]];
        if (uxd > -bound && uxd < bound &&
            uyd * uyd + uzd * uzd < bound * bound) {
          // Interior fast path: |dr| <= hypot(uy, uz) < bound and |dx| <
          // bound, so no boundary is reachable; skip enforce_boundaries.
          xp[i] = px;
          yp[i] = N::from_double(rr);
          uyp[i] = N::from_double(ur);
          uzp[i] = N::from_double(ut);
          const int ix = static_cast<int>(N::to_double(px));
          const int iy = static_cast<int>(rr);
          const auto cell = static_cast<std::uint32_t>(iy * gnx + ix);
          cellp[i] = cell;
          if (count_strip && px < one) ++local_strip;
          keysp[i] = key_of(i, cell);
          continue;
        }
      } else {
        const Real lo = disp_lo[interior[c0]];
        const Real hi = disp_hi[interior[c0]];
        if (vx > lo && vx < hi && vy > lo && vy < hi &&
            (!has_z || (uzp[i] > lo && uzp[i] < hi))) {
          const Real py = yp[i] + vy;
          xp[i] = px;
          yp[i] = py;
          double pz = 0.0;
          if (has_z) {
            zp[i] += uzp[i];
            pz = N::to_double(zp[i]);
          }
          // Interior guarantees 0 < pos < n{x,y,z}, so the truncating casts
          // equal floor and the clamped grid_.index() is unnecessary.
          const int ix = static_cast<int>(N::to_double(px));
          const int iy = static_cast<int>(N::to_double(py));
          const int iz = static_cast<int>(pz);
          const auto cell = static_cast<std::uint32_t>(
              (static_cast<std::int64_t>(iz) * gny + iy) * gnx + ix);
          cellp[i] = cell;
          if (count_strip && px < one) ++local_strip;
          keysp[i] = key_of(i, cell);
          continue;
        }
        // 1) Collisionless motion, in place.
        xp[i] = px;
        yp[i] += vy;
        if (has_z) zp[i] += uzp[i];
      }
      // 2) Boundary conditions, the one path for every particle that missed
      // its fast path, on a double-precision working copy.  An axisymmetric
      // particle hands over its rotated state, which reaches the arrays only
      // if the particle is kept.  The floor at r = 0 is unreachable there
      // (rr >= 0 by construction); the y_max ceiling is the outer
      // cylindrical wall and the x boundaries work as in planar mode.
      // Reflections happen in the plane, which is exact for a surface of
      // revolution (its normal has no azimuthal component).
      geom::ParticleState ps;
      ps.x = N::to_double(px);
      ps.ux = N::to_double(vx);
      if (axi) {
        ps.y = rr;
        ps.uy = ur;
        ps.uz = ut;
      } else {
        ps.y = N::to_double(yp[i]);
        ps.z = has_z ? N::to_double(zp[i]) : 0.0;
        ps.uy = N::to_double(vy);
        ps.uz = N::to_double(uzp[i]);
      }
      ps.r0 = N::to_double(store_.r0[i]);
      ps.r1 = N::to_double(store_.r1[i]);
      // Axisymmetric wall events count at the particle's weight; planar ones
      // at weight 1, which is exact.
      const std::uint64_t bbits = need_bc_bits ? bits_for(i, kSaltBc) : 0;
      wall_events.count = 0;
      const bool kept = geom::enforce_boundaries(
          ps, bc, bbits, record_surface ? &wall_events : nullptr);
      if (record_surface && wall_events.count > 0)
        surf_.record(tid, wall_events, axi ? weightp[i] : 1.0);
      if (kept) {
        xp[i] = N::from_double(ps.x);
        yp[i] = N::from_double(ps.y);
        if (has_z) zp[i] = N::from_double(ps.z);
        uxp[i] = N::from_double(ps.ux);
        uyp[i] = N::from_double(ps.uy);
        uzp[i] = N::from_double(ps.uz);
        store_.r0[i] = N::from_double(ps.r0);
        store_.r1[i] = N::from_double(ps.r1);
        cellp[i] = grid_.index(static_cast<int>(std::floor(ps.x)),
                               static_cast<int>(std::floor(ps.y)),
                               static_cast<int>(std::floor(ps.z)));
        if (count_strip && xp[i] < one) ++local_strip;
      } else {
        // Exited through the downstream sink: park in the reservoir with a
        // rectangular freestream state (paper: reservoir collisions relax it
        // to the correct Gaussian within a few steps).
        const Velocity5 v = rectangular_freestream(
            cfg_.sigma, u_inf_, bits_for(i, kSaltRemoveVel));
        uxp[i] = N::from_double(v.v[0]);
        uyp[i] = N::from_double(v.v[1]);
        uzp[i] = N::from_double(v.v[2]);
        store_.r0[i] = N::from_double(v.v[3]);
        store_.r1[i] = N::from_double(v.v[4]);
        if (cfg_.vibrational) {
          rng::SplitMix64 gv(bits_for(i, kSaltRemoveVel) ^ 0x5151u);
          draw_vibration(i, gv, /*rectangular=*/true);
        }
        store_.flags[i] |= ParticleStore<Real>::kReservoirFlag;
        cellp[i] = reservoir_pair_cell(i);
        ++local_removed;
      }
      keysp[i] = key_of(i, cellp[i]);
    }
    removed.fetch_add(local_removed, std::memory_order_relaxed);
    strip.fetch_add(local_strip, std::memory_order_relaxed);
  });
  const std::uint64_t nrem = removed.load();
  res_count_ += nrem;
  counters_.removed += nrem;

  // 2b) Upstream particle introduction.
  if (record_surface) surf_.end_step();
  if (cfg_.closed_box) return;
  if (cfg_.upstream == geom::UpstreamMode::kPlunger) {
    // The plunger withdrew at the trigger crossing this step: refill the
    // trigger-wide void *ahead of the restarted face* (the slab
    // [plunger_.x, plunger_.x + width]) at freestream density.  The region
    // [0, plunger_.x) stays empty — the restarted plunger is sweeping it.
    if (void_width > 0.0) inject_void(void_width, plunger_.x, reservoir_tail);
  } else {
    soft_source_topup(static_cast<std::size_t>(strip.load()), reservoir_tail);
  }
}

template <class Real>
void Simulation<Real>::inject_void(double width, double x_offset,
                                   std::size_t reservoir_tail) {
  const double volume = width * grid_.ny * (grid_.is3d() ? grid_.nz : 1);
  const auto need = static_cast<std::size_t>(std::llround(n_inf_ * volume));
  const std::size_t n = store_.size();
  const std::size_t k = need < reservoir_tail ? need : reservoir_tail;
  const double ny = grid_.ny;
  const double nz = grid_.is3d() ? grid_.nz : 0.0;
  cmdp::parallel_for(*pool_, k, [&](std::size_t j) {
    const std::size_t i = n - 1 - j;
    rng::SplitMix64 g(bits_for(i, kSaltInject));
    const double x = x_offset + g.next_double() * width;
    const double y = g.next_double() * ny;
    const double z = grid_.is3d() ? g.next_double() * nz : 0.0;
    store_.x[i] = N::from_double(x);
    store_.y[i] = N::from_double(y);
    if (store_.has_z) store_.z[i] = N::from_double(z);
    // Velocity: the particle keeps its relaxed reservoir state.
    store_.flags[i] &= static_cast<std::uint8_t>(
        ~ParticleStore<Real>::kReservoirFlag);
    store_.cell[i] = grid_.index(static_cast<int>(x), static_cast<int>(y),
                                 static_cast<int>(z));
    // Axisymmetric: uniform-in-r placement at the planar count gives a flat
    // simulator census per radial cell; the per-cell annular weight makes
    // the weighted density exactly freestream.
    if (cfg_.axisymmetric)
      store_.weight[i] = cell_volume_[store_.cell[i]];
    // The move loop keyed this particle as a reservoir dweller; re-key it
    // for its new flow cell.
    keys_[i] = sort_key_for(i);
  });
  res_count_ -= k;
  counters_.injected += k;
  if (need > k) {
    // Reservoir ran dry: synthesize the remainder directly (costly path the
    // reservoir design exists to avoid; counted for diagnostics).  One resize
    // makes room for every new record and leaves its flags at 0.
    rng::SplitMix64 g(rng::hash4(cfg_.seed, n,
                                 static_cast<std::uint64_t>(step_),
                                 kSaltInject));
    store_.resize(n + (need - k));
    keys_.resize(n + (need - k));
    for (std::size_t i = n; i < store_.size(); ++i) {
      const double x = x_offset + g.next_double() * width;
      const double y = g.next_double() * ny;
      const double z = grid_.is3d() ? g.next_double() * nz : 0.0;
      const Velocity5 v =
          gaussian_freestream(cfg_.sigma, u_inf_, g.next_u64());
      store_.x[i] = N::from_double(x);
      store_.y[i] = N::from_double(y);
      if (store_.has_z) store_.z[i] = N::from_double(z);
      store_.ux[i] = N::from_double(v.v[0]);
      store_.uy[i] = N::from_double(v.v[1]);
      store_.uz[i] = N::from_double(v.v[2]);
      store_.r0[i] = N::from_double(v.v[3]);
      store_.r1[i] = N::from_double(v.v[4]);
      store_.perm[i] = rng::random_perm(g);
      if (cfg_.vibrational) draw_vibration(i, g, /*rectangular=*/false);
      store_.id[i] = static_cast<std::uint32_t>(i);
      store_.cell[i] = grid_.index(static_cast<int>(x), static_cast<int>(y),
                                   static_cast<int>(z));
      if (cfg_.axisymmetric) store_.weight[i] = cell_volume_[store_.cell[i]];
      keys_[i] = sort_key_for(i);
    }
    counters_.synthesized += need - k;
    counters_.injected += need - k;
  }
}

template <class Real>
void Simulation<Real>::soft_source_topup(std::size_t strip_count,
                                         std::size_t reservoir_tail) {
  // Keep the first column strip at freestream density (the paper's
  // "strength of this source has to be controlled to maintain a constant
  // freestream density").  The strip census rode along with the move loop;
  // nothing here touches the particle arrays unless there is a deficit.
  const auto target = static_cast<std::size_t>(std::llround(
      n_inf_ * grid_.ny * (grid_.is3d() ? grid_.nz : 1)));
  const std::size_t count = strip_count;
  if (count < target) {
    const std::size_t deficit = target - count;
    // Reuse inject_void with an explicit particle count by temporarily
    // scaling the width so need == deficit.
    const double volume = grid_.ny * (grid_.is3d() ? grid_.nz : 1);
    const double width = static_cast<double>(deficit) / (n_inf_ * volume);
    inject_void(width > 1.0 ? 1.0 : width, 0.0, reservoir_tail);
  }
}

template <class Real>
void Simulation<Real>::phase_sort() {
  // Axisymmetric runs rebalance the radial weights first: splits append
  // clones at the tail (the sort places them), merges retire their slot
  // under the reserved past-the-end key so the sort parks them behind the
  // reservoir band, where they are truncated below.
  const std::size_t dead = cfg_.axisymmetric ? balance_weights() : 0;
  const std::size_t n = store_.size();
  // Keys were generated during the move (and fixed up by the injection
  // paths); the sort starts straight at the counting pass.
  const auto scale = static_cast<std::uint32_t>(cfg_.sort_scale);
  const std::uint32_t ncells = ncells_;
  const std::uint32_t pair_cells = ncells_ + res_cells_;
  const std::uint32_t key_bound = sort_key_bound();
  starts_.resize(pair_cells + std::size_t{1});
  const bool axi = cfg_.axisymmetric;
  if (axi) cell_weight_.resize(ncells_);
  std::uint32_t* const startsp = starts_.data();
  cmdp::Workspace& ws = pool_->workspace();
  std::uint32_t* const ks = cmdp::grown(ws.sort_starts,
                                        key_bound + std::size_t{1});
  // Lane t sorts the cells of the previous step's partition block t, whose
  // keys mostly sit in its own stretch of that step's order: sort, collide
  // and sample share one split.  The first step, and the first after a
  // restore, have no partition and sort on one lane.
  const bool on_partition = cuts_.size() == pool_->size() + std::size_t{1} &&
                            n >= cmdp::kSerialCutoff;
  const unsigned lanes = on_partition ? pool_->size() : 1;
  SortedGather<Real> gather(
      store_, {spare_real_, spare_weight_, spare_perm_, keys_, spare_flags_},
      ws.sort_order, lanes);
  const double* const sorted_weight =
      axi ? gather.sorted(store_.weight) : nullptr;
  cmdp::for_each_sort_lane(*pool_, lanes, [&](unsigned t) {
    // The lane owns the whole cells [first, last): the key of cell c lies
    // in [c*scale, (c+1)*scale), so the cell starts drop out of the lane's
    // slice of the key table with no pass over the particles.  The last
    // lane also owns the axisymmetric dead key past the last cell.
    const std::uint32_t first = on_partition ? cuts_[t] : 0;
    const std::uint32_t last = on_partition ? cuts_[t + 1] : pair_cells;
    const std::uint32_t lo = first * scale;
    const std::uint32_t hi = t + 1 == lanes ? key_bound : last * scale;
    const std::uint32_t end = cmdp::count_key_range(keys_, lo, hi, ks);
    for (std::uint32_t c = first; c < last; ++c) startsp[c] = ks[c * scale];
    gather.sort_lane(keys_, lo, hi, ks);
    // Axisymmetric: the weighted census of the lane's flow cells, summed in
    // sorted array order over its own output slice (so independent of the
    // lane count).  The next lane may not have written its first start yet.
    if (!axi) return;
    for (std::uint32_t c = first; c < std::min(last, ncells); ++c) {
      const std::uint32_t e = c + 1 < last ? startsp[c + 1] : end;
      double acc = 0.0;
      for (std::uint32_t i = startsp[c]; i < e; ++i) acc += sorted_weight[i];
      cell_weight_[c] = acc;
    }
  });
  gather.finish();
  if (dead > 0) {
    // Merged-away slots are now a contiguous tail behind the reservoir
    // band; drop them.
    store_.resize(n - dead);
    keys_.resize(n - dead);
  }
  startsp[pair_cells] = static_cast<std::uint32_t>(store_.size());
  // The step's partition: one block of pairing cells per pool lane, cut
  // where the sorted array crosses each particle-count quantile.  Collide
  // and sample walk these blocks, and the next step's sort cuts its lanes
  // at them.
  cuts_.resize(pool_->size() + std::size_t{1});
  cmdp::count_quantile_cuts(starts_, cuts_);
}

template <class Real>
std::size_t Simulation<Real>::balance_weights() {
  const std::size_t n0 = store_.size();
  const std::uint32_t ncells = ncells_;
  const std::uint32_t dead_key = sort_key_bound() - 1;
  std::uint64_t merged_total = 0;
  // Fixed-granularity chunks make the pass deterministic for every lane
  // count: the chunk walk (not the lane count) decides which particles
  // merge, and clone slots come from a per-chunk prefix, so the result is
  // identical whether one lane or thirty-two execute it.  Which particles
  // merge is randomized for free by the randomized sort of the previous
  // step; merge pairing resets at chunk boundaries (a pending light
  // particle simply waits for the next step's pass).
  constexpr std::size_t kChunk = 8192;
  const std::size_t nchunks = (n0 + kChunk - 1) / kChunk;
  // Pass A (read-only, parallel): per-chunk clone counts -> exclusive
  // prefix, so pass B knows every chunk's first clone slot.
  balance_clone_base_.assign(nchunks + 1, 0);
  {
    const double* const wp = store_.weight.data();
    const std::uint32_t* const cellp = store_.cell.data();
    const double* const volp = cell_volume_.data();
    cmdp::parallel_for(*pool_, nchunks, [&](std::size_t ch) {
      const std::size_t b = ch * kChunk;
      const std::size_t e = b + kChunk < n0 ? b + kChunk : n0;
      std::uint32_t clones = 0;
      for (std::size_t i = b; i < e; ++i) {
        const std::uint32_t c = cellp[i];
        if (c >= ncells) continue;
        const double wi = wp[i];
        if (wi >= 2.0 * volp[c]) {
          int k = static_cast<int>(wi / volp[c]);
          if (k > 8) k = 8;  // churn guard against extreme inward jumps
          clones += static_cast<std::uint32_t>(k - 1);
        }
      }
      balance_clone_base_[ch + 1] = clones;
    });
  }
  for (std::size_t ch = 0; ch < nchunks; ++ch)
    balance_clone_base_[ch + 1] += balance_clone_base_[ch];
  const std::size_t total_clones = balance_clone_base_[nchunks];
  if (total_clones > 0) {
    store_.resize(n0 + total_clones);
    keys_.resize(n0 + total_clones);
  }
  // Per-lane merge-candidate tables, epoch-tagged by chunk: a slot is live
  // only when its tag matches the chunk being walked, so stale entries from
  // other chunks/steps never pair and the tables are never cleared.
  const unsigned lanes = pool_->size();
  const std::size_t table =
      static_cast<std::size_t>(lanes) * ncells;
  if (balance_pending_.size() != table ||
      balance_epoch_ + nchunks + 1 > 0xffffffffull) {
    balance_pending_.assign(table, 0);
    balance_epoch_ = 0;
  }
  const std::uint64_t epoch0 = balance_epoch_ + 1;
  balance_epoch_ += nchunks;
  // Pass B (parallel over chunks): splits write their chunk's reserved
  // clone slots, merges pair within chunk+cell.  Chunks touch disjoint
  // slots (their own particles + their own clone range), so the pass is
  // race-free and its writes are independent of which lane runs a chunk.
  std::atomic<std::uint64_t> merged_acc{0};
  const KeyParams kp = key_params();
  pool_->parallel([&](unsigned tid) {
    const cmdp::Range cr = cmdp::lane_range(nchunks, tid, lanes);
    std::uint64_t local_merged = 0;
    std::uint64_t* const pend = balance_pending_.data() +
                                static_cast<std::size_t>(tid) * ncells;
    double* const wp = store_.weight.data();
    const std::uint32_t* const cellp = store_.cell.data();
    const double* const volp = cell_volume_.data();
    for (std::size_t ch = cr.begin; ch < cr.end; ++ch) {
      const std::uint64_t tag = (epoch0 + ch) << 32;
      const std::size_t b = ch * kChunk;
      const std::size_t e = b + kChunk < n0 ? b + kChunk : n0;
      std::size_t slot = n0 + balance_clone_base_[ch];
      for (std::size_t i = b; i < e; ++i) {
        const std::uint32_t c = cellp[i];
        if (c >= ncells) continue;  // reservoir: no radial weight
        const double wi = wp[i];
        const double wt = volp[c];
        if (wi >= 2.0 * wt) {
          // Inward migration built up excess weight: split into k equal
          // copies (identical state, weight wi / k) — exact in mass,
          // momentum and energy.
          int k = static_cast<int>(wi / wt);
          if (k > 8) k = 8;
          const double part = wi / k;
          wp[i] = part;
          for (int j = 1; j < k; ++j, ++slot) {
            store_.copy_record(slot, i);
            wp[slot] = part;
            keys_[slot] = key_from(kp, slot, cellp[slot]);
          }
        } else if (wi < 0.5 * wt) {
          // Outward migration thinned the weight: merge pairs within the
          // cell.  The mass-weighted velocity average conserves mass and
          // momentum exactly; the kinetic energy released by averaging
          // moves into the rotational DOF (collisions relax it back), so
          // total energy is exact too — unlike plain Russian-roulette
          // destruction, which conserves only in expectation.
          std::uint64_t& pending = pend[c];
          if ((pending & 0xffffffff00000000ull) != tag) {
            pending = tag | static_cast<std::uint64_t>(i);
            continue;
          }
          const auto j =
              static_cast<std::size_t>(pending & 0xffffffffull);
          const double wj = wp[j];
          const double ws = wi + wj;
      const double uxi = N::to_double(store_.ux[i]);
      const double uyi = N::to_double(store_.uy[i]);
      const double uzi = N::to_double(store_.uz[i]);
      const double uxj = N::to_double(store_.ux[j]);
      const double uyj = N::to_double(store_.uy[j]);
      const double uzj = N::to_double(store_.uz[j]);
      const double mx = (wi * uxi + wj * uxj) / ws;
      const double my = (wi * uyi + wj * uyj) / ws;
      const double mz = (wi * uzi + wj * uzj) / ws;
      const double dx = uxi - uxj;
      const double dy = uyi - uyj;
      const double dz = uzi - uzj;
      const double de = 0.5 * (wi * wj / ws) * (dx * dx + dy * dy + dz * dz);
      const double r0i = N::to_double(store_.r0[i]);
      const double r1i = N::to_double(store_.r1[i]);
      const double r0j = N::to_double(store_.r0[j]);
      const double r1j = N::to_double(store_.r1[j]);
      const double erot = 0.5 * (wi * (r0i * r0i + r1i * r1i) +
                                 wj * (r0j * r0j + r1j * r1j)) +
                          de;
      const double rs2 = 2.0 * erot / ws;  // target rotational speed^2
      double nr0;
      double nr1;
      const double base = r0j * r0j + r1j * r1j;
      if (base > 0.0) {
        const double s = std::sqrt(rs2 / base);
        nr0 = r0j * s;
        nr1 = r1j * s;
      } else {
        nr0 = std::sqrt(rs2);
        nr1 = 0.0;
      }
      store_.ux[j] = N::from_double(mx);
      store_.uy[j] = N::from_double(my);
      store_.uz[j] = N::from_double(mz);
      store_.r0[j] = N::from_double(nr0);
      store_.r1[j] = N::from_double(nr1);
      if (store_.has_vib) {
        const double v0i = N::to_double(store_.v0[i]);
        const double v1i = N::to_double(store_.v1[i]);
        const double v0j = N::to_double(store_.v0[j]);
        const double v1j = N::to_double(store_.v1[j]);
        const double evib = 0.5 * (wi * (v0i * v0i + v1i * v1i) +
                                   wj * (v0j * v0j + v1j * v1j));
        const double vs2 = 2.0 * evib / ws;
        const double vbase = v0j * v0j + v1j * v1j;
        if (vbase > 0.0) {
          const double s = std::sqrt(vs2 / vbase);
          store_.v0[j] = N::from_double(v0j * s);
          store_.v1[j] = N::from_double(v1j * s);
        } else {
          store_.v0[j] = N::from_double(std::sqrt(vs2));
          store_.v1[j] = N::from_double(0.0);
        }
      }
      wp[j] = ws;
      wp[i] = 0.0;
      keys_[i] = dead_key;
      ++local_merged;
      // A still-light merged particle keeps waiting for the next partner
      // (within this chunk).
      pending = ws < 0.5 * wt ? (tag | static_cast<std::uint64_t>(j)) : 0;
        }
      }
    }
    merged_acc.fetch_add(local_merged, std::memory_order_relaxed);
  });
  merged_total = merged_acc.load();
  counters_.cloned += total_clones;
  counters_.merged += merged_total;
  return merged_total;
}

template <class Real>
void Simulation<Real>::phase_select_and_collide() {
  // starts_ came from the sort phase's key table — no histogram or scan
  // over the particles here.  Selection and collision are one fused
  // per-cell traversal: candidate pairs are the (s, s+1), (s+2, s+3), ...
  // index pairs of each sorted cell, visited in the same ascending order as
  // the historical per-particle select-then-collide passes.  Pairs are
  // disjoint, so no pair's acceptance test can observe another pair's
  // collision writes and the fusion is bit-identical — while the accept
  // flags never round-trip through memory, the odd members are never
  // visited, and the cell tables load once per cell instead of per
  // particle.
  const bool need_g = rule_.g_exponent != 0.0 && !rule_.near_continuum;
  const bool dirty = cfg_.rng_mode == RngMode::kDirty;
  const bool truncate = cfg_.rounding == Rounding::kTruncate;
  const int ntrans = cfg_.transpositions_per_collision;
  const bool vibrational = cfg_.vibrational;
  const double vib_prob = cfg_.vib_exchange_prob;
  // Raw pointers: stores through them cannot be assumed by the compiler to
  // alias the vector control blocks, so the hot loop keeps them in registers.
  Real* const uxp = store_.ux.data();
  Real* const uyp = store_.uy.data();
  Real* const uzp = store_.uz.data();
  Real* const r0p = store_.r0.data();
  Real* const r1p = store_.r1.data();
  Real* const v0p = vibrational ? store_.v0.data() : nullptr;
  Real* const v1p = vibrational ? store_.v1.data() : nullptr;
  rng::PackedPerm* const permp = store_.perm.data();
  const std::uint32_t* const startsp = starts_.data();
  const double* const openp = open_frac_.data();
  // Axisymmetric: the collision density is the weighted census over the
  // annular cell volume (both in the same pi-free units, so it reduces to
  // the planar count/open when every weight sits at the cell target).
  const double* const cellwp =
      cfg_.axisymmetric ? cell_weight_.data() : nullptr;
  const double* const volp = cfg_.axisymmetric ? cell_volume_.data() : nullptr;
  // Unequal-weight pairs use Boyd's species-weighting rule: the lighter
  // particle always takes its post-collision state, the heavier keeps its
  // old state with probability 1 - w_min/w_max.  Without this, collisions
  // systematically hand the outward-biased velocities of light (outward-
  // migrated) particles to heavy partners — a spurious radial mass flux
  // that visibly drains the axis.  Conserves weighted momentum and energy
  // in expectation (exact conservation is restored cell-wise by the
  // split/merge balancing).
  const double* const axiw = cfg_.axisymmetric ? store_.weight.data() : nullptr;
  std::atomic<std::uint64_t> candidates{0};
  std::atomic<std::uint64_t> collided{0};
  std::atomic<std::uint64_t> res_collided{0};
  auto run_cells = [&](std::size_t cbegin, std::size_t cend) {
    std::uint64_t local_cand = 0;
    std::uint64_t local_coll = 0;
    std::uint64_t local_res = 0;
    for (std::size_t c = cbegin; c < cend; ++c) {
      const std::uint32_t s = startsp[c];
      const std::uint32_t cnt = startsp[c + 1] - s;
      if (cnt < 2) continue;
      // Flow cells hold only flow particles and pseudo-cells only reservoir
      // ones, so the cell index replaces the per-particle flag check.
      const bool is_res = c >= ncells_;
      local_cand += cnt / 2;
      double p_cell = 1.0;
      double n_local = 0.0;  // cell density, used by the relative-speed rule
      // Reservoir pseudo-cells collide unconditionally (p_cell stays 1):
      // that drives their relaxation to a Maxwellian.
      if (!is_res) {
        const double open = openp[c] > 0.05 ? openp[c] : 0.05;
        n_local = cellwp != nullptr
                      ? cellwp[c] / (open * volp[c])
                      : static_cast<double>(cnt) / open;
        if (!need_g) {
          p_cell = rule_.probability(n_local, 0.0);
          if (p_cell <= 0.0) continue;
        }
      }
      for (std::uint32_t k = 0; k + 1 < cnt; k += 2) {
        const std::size_t i = s + k;
        double p = p_cell;
        if (need_g && !is_res) {
          const double dx = N::to_double(uxp[i]) - N::to_double(uxp[i + 1]);
          const double dy = N::to_double(uyp[i]) - N::to_double(uyp[i + 1]);
          const double dz = N::to_double(uzp[i]) - N::to_double(uzp[i + 1]);
          const double g = std::sqrt(dx * dx + dy * dy + dz * dz);
          p = rule_.probability(n_local, g);
        }
        if (p < 1.0) {
          if (p <= 0.0) continue;
          const double u = rng::u64_to_unit_double(bits_for(i, kSaltAccept));
          if (u >= p) continue;
        }
        const std::uint64_t bits =
            dirty ? dirty_state_bits(i) ^ rng::mix64(i)
                  : bits_for(i, kSaltCollide);
        // Vibrational extension: with probability vib_exchange_prob this
        // collision exchanges with the two vibrational DOF instead of the
        // rotational pair (relaxation number Z_v = 1/prob).
        const bool use_vib =
            vibrational &&
            static_cast<double>(bits >> 48) * 0x1.0p-16 < vib_prob;
        Real* const s0 = use_vib ? v0p : r0p;
        Real* const s1 = use_vib ? v1p : r1p;
        physics::Pair5<Real> pv;
        pv.a[0] = uxp[i];
        pv.a[1] = uyp[i];
        pv.a[2] = uzp[i];
        pv.a[3] = s0[i];
        pv.a[4] = s1[i];
        pv.b[0] = uxp[i + 1];
        pv.b[1] = uyp[i + 1];
        pv.b[2] = uzp[i + 1];
        pv.b[3] = s0[i + 1];
        pv.b[4] = s1[i + 1];
        // Either of the pair's permutation vectors works (paper); use the
        // leader's.
        const rng::PackedPerm perm = permp[i];
        if (truncate)
          physics::collide_pair<physics::Halving::kTruncate>(pv, perm, bits);
        else
          physics::collide_pair(pv, perm, bits);
        bool write_a = true;
        bool write_b = true;
        if (axiw != nullptr && !is_res) {
          const double wa = axiw[i];
          const double wb = axiw[i + 1];
          if (wa != wb) {
            const double ratio = wa < wb ? wa / wb : wb / wa;
            const double u =
                rng::u64_to_unit_double(bits_for(i, kSaltWeightKeep));
            if (u >= ratio) {
              if (wa < wb)
                write_b = false;
              else
                write_a = false;
            }
          }
        }
        if (write_a) {
          uxp[i] = pv.a[0];
          uyp[i] = pv.a[1];
          uzp[i] = pv.a[2];
          s0[i] = pv.a[3];
          s1[i] = pv.a[4];
        }
        if (write_b) {
          uxp[i + 1] = pv.b[0];
          uyp[i + 1] = pv.b[1];
          uzp[i + 1] = pv.b[2];
          s0[i + 1] = pv.b[3];
          s1[i + 1] = pv.b[4];
        }
        // Refresh both permutation vectors by random transpositions.
        if (ntrans > 0) {
          std::uint64_t ta = dirty ? dirty_state_bits(i)
                                   : bits_for(i, kSaltTranspose);
          std::uint64_t tb = dirty ? dirty_state_bits(i + 1)
                                   : bits_for(i + 1, kSaltTranspose);
          for (int t = 0; t < ntrans; ++t) {
            permp[i] = rng::random_transposition(permp[i], ta);
            permp[i + 1] = rng::random_transposition(permp[i + 1], tb);
            ta >>= 16;
            tb >>= 16;
          }
        }
        if (is_res)
          ++local_res;
        else
          ++local_coll;
      }
    }
    candidates.fetch_add(local_cand, std::memory_order_relaxed);
    collided.fetch_add(local_coll, std::memory_order_relaxed);
    res_collided.fetch_add(local_res, std::memory_order_relaxed);
  };
  // Lane t walks its partition block.  Per-cell work is disjoint and every
  // RNG stream is keyed by particle index and step, so any cuts are
  // bit-identical to a serial walk.
  cmdp::for_each_sort_lane(*pool_, pool_->size(), [&](unsigned t) {
    run_cells(cuts_[t], cuts_[t + 1]);
  });
  counters_.candidates += candidates.load();
  counters_.collisions += collided.load();
  counters_.reservoir_collisions += res_collided.load();
}

template <class Real>
void Simulation<Real>::phase_sample() {
  sampler_.accumulate(*pool_, store_, starts_.data(), cuts_,
                      cfg_.axisymmetric ? store_.weight.data() : nullptr);
}

template <class Real>
std::vector<std::uint32_t> Simulation<Real>::sort_counts() const {
  std::vector<std::uint32_t> counts(starts_.empty() ? 0 : starts_.size() - 1);
  for (std::size_t c = 0; c < counts.size(); ++c)
    counts[c] = starts_[c + 1] - starts_[c];
  return counts;
}

template <class Real>
SurfaceStats Simulation<Real>::surface() const {
  if (scene_.empty()) return SurfaceStats{};
  // u_inf_ is the actual stream speed (0 in closed-box runs, where the raw
  // p/tau/q fluxes stay meaningful but the coefficients are reported as 0).
  return surf_.finalize(scene_, n_inf_, cfg_.sigma, u_inf_);
}

template <class Real>
std::vector<SurfaceStats> Simulation<Real>::surface_per_body() const {
  if (scene_.empty()) return {};
  return surf_.finalize_per_body(scene_, n_inf_, cfg_.sigma, u_inf_);
}

template <class Real>
std::uint64_t Simulation<Real>::geometry_hash() const {
  std::uint64_t h = 1469598103934665603ull;
  h = geom::fnv1a_hash(h, static_cast<std::uint64_t>(grid_.nx));
  h = geom::fnv1a_hash(h, static_cast<std::uint64_t>(grid_.ny));
  h = geom::fnv1a_hash(h, static_cast<std::uint64_t>(grid_.nz));
  h = geom::fnv1a_hash(h, scene_.geometry_hash());
  h = geom::fnv1a_hash(h, cfg_.closed_box ? 1u : 0u);
  h = geom::fnv1a_hash(h, static_cast<std::uint64_t>(cfg_.upstream));
  h = geom::fnv1a_hash(h, std::bit_cast<std::uint64_t>(cfg_.plunger_trigger));
  h = geom::fnv1a_hash(h, cfg_.vibrational ? 1u : 0u);
  // Folded in only when set so every pre-existing planar hash is unchanged.
  if (cfg_.axisymmetric) h = geom::fnv1a_hash(h, 0xA715FEEDull);
  return h;
}

template <class Real>
typename Simulation<Real>::ResumeState Simulation<Real>::resume_state()
    const {
  ResumeState st;
  st.step = step_;
  st.plunger_x = plunger_.x;
  st.res_count = res_count_;
  st.counters = counters_;
  st.field_samples = sampler_.samples();
  st.field_sums = sampler_.accumulated();
  st.surface_samples = surf_.samples();
  st.surface_sums = surf_.accumulated();
  return st;
}

template <class Real>
void Simulation<Real>::restore(ParticleStore<Real> store,
                               const ResumeState& state) {
  if (store.has_z != cfg_.is3d() || store.has_vib != cfg_.vibrational ||
      store.has_weight != cfg_.axisymmetric)
    throw std::invalid_argument(
        "Simulation::restore: store layout does not match the configuration");
  if (state.res_count > store.size())
    throw std::invalid_argument(
        "Simulation::restore: inconsistent reservoir bookkeeping");
  // Validate every accumulator shape before mutating anything, so a throw
  // leaves the simulation untouched instead of half-restored.
  if (state.field_samples < 0 ||
      state.field_sums.size() != sampler_.accumulated().size() ||
      state.surface_samples < 0 ||
      state.surface_sums.size() != surf_.accumulated().size())
    throw std::invalid_argument(
        "Simulation::restore: sampler accumulator shape mismatch");
  sampler_.restore(state.field_samples, state.field_sums);
  surf_.restore(state.surface_samples, state.surface_sums);
  store_ = std::move(store);
  step_ = state.step;
  plunger_.x = state.plunger_x;
  res_count_ = static_cast<std::size_t>(state.res_count);
  counters_ = state.counters;
  // The partition described the replaced store: the next sort runs on one
  // lane and cuts a fresh one.
  cuts_.clear();
  rebuild_interior_mask();
}

template <class Real>
double Simulation<Real>::total_energy() const {
  return cmdp::parallel_sum<double>(*pool_, store_.size(), [&](std::size_t i) {
    const double vx = N::to_double(store_.ux[i]);
    const double vy = N::to_double(store_.uy[i]);
    const double vz = N::to_double(store_.uz[i]);
    const double w0 = N::to_double(store_.r0[i]);
    const double w1 = N::to_double(store_.r1[i]);
    double e = 0.5 * (vx * vx + vy * vy + vz * vz + w0 * w0 + w1 * w1);
    if (store_.has_vib) {
      const double q0 = N::to_double(store_.v0[i]);
      const double q1 = N::to_double(store_.v1[i]);
      e += 0.5 * (q0 * q0 + q1 * q1);
    }
    return e;
  });
}

template <class Real>
double Simulation<Real>::flow_weighted_mass() const {
  const bool wts = store_.has_weight;
  return cmdp::parallel_sum<double>(*pool_, store_.size(), [&](std::size_t i) {
    if (store_.flags[i] & ParticleStore<Real>::kReservoirFlag) return 0.0;
    return wts ? store_.weight[i] : 1.0;
  });
}

template <class Real>
std::array<double, 3> Simulation<Real>::flow_weighted_momentum() const {
  using A = std::array<double, 3>;
  const bool wts = store_.has_weight;
  return cmdp::parallel_reduce<A>(
      *pool_, store_.size(), A{0.0, 0.0, 0.0},
      [&](std::size_t i) {
        if (store_.flags[i] & ParticleStore<Real>::kReservoirFlag)
          return A{0.0, 0.0, 0.0};
        const double w = wts ? store_.weight[i] : 1.0;
        return A{w * N::to_double(store_.ux[i]),
                 w * N::to_double(store_.uy[i]),
                 w * N::to_double(store_.uz[i])};
      },
      [](const A& a, const A& b) {
        return A{a[0] + b[0], a[1] + b[1], a[2] + b[2]};
      });
}

template <class Real>
double Simulation<Real>::flow_weighted_energy() const {
  const bool wts = store_.has_weight;
  return cmdp::parallel_sum<double>(*pool_, store_.size(), [&](std::size_t i) {
    if (store_.flags[i] & ParticleStore<Real>::kReservoirFlag) return 0.0;
    const double vx = N::to_double(store_.ux[i]);
    const double vy = N::to_double(store_.uy[i]);
    const double vz = N::to_double(store_.uz[i]);
    const double w0 = N::to_double(store_.r0[i]);
    const double w1 = N::to_double(store_.r1[i]);
    double e = 0.5 * (vx * vx + vy * vy + vz * vz + w0 * w0 + w1 * w1);
    if (store_.has_vib) {
      const double q0 = N::to_double(store_.v0[i]);
      const double q1 = N::to_double(store_.v1[i]);
      e += 0.5 * (q0 * q0 + q1 * q1);
    }
    return (wts ? store_.weight[i] : 1.0) * e;
  });
}

template <class Real>
std::array<double, 3> Simulation<Real>::total_momentum() const {
  // One fused pass; component-wise the summation order matches the old
  // three-pass version exactly, so the result is bit-identical.
  using A = std::array<double, 3>;
  return cmdp::parallel_reduce<A>(
      *pool_, store_.size(), A{0.0, 0.0, 0.0},
      [&](std::size_t i) {
        return A{N::to_double(store_.ux[i]), N::to_double(store_.uy[i]),
                 N::to_double(store_.uz[i])};
      },
      [](const A& a, const A& b) {
        return A{a[0] + b[0], a[1] + b[1], a[2] + b[2]};
      });
}

template class Simulation<double>;
template class Simulation<fixedpoint::Fixed32>;

}  // namespace cmdsmc::core
