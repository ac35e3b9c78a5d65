#include "audit/auditor.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <type_traits>

#include "core/checkpoint.h"

namespace cmdsmc::audit {

namespace {

std::atomic<std::uint64_t> g_scratch_serial{0};

}  // namespace

template <class Real>
Auditor<Real>::Auditor(AuditOptions opt) : opt_(std::move(opt)) {}

template <class Real>
void Auditor<Real>::settle(Family family, std::uint64_t checks,
                           std::vector<Violation>& fresh) {
  const auto f = static_cast<std::size_t>(family);
  counters_.checks[f] += checks;
  counters_.violations[f] += fresh.size();
  if (fresh.empty()) return;
  if (opt_.fatal) throw AuditFailure(fresh.front());
  for (Violation& v : fresh) log_.push_back(std::move(v));
  fresh.clear();
}

template <class Real>
std::string Auditor<Real>::scratch_path() {
  if (scratch_file_.empty()) {
    namespace fs = std::filesystem;
    const fs::path dir = opt_.scratch_dir.empty()
                             ? fs::temp_directory_path()
                             : fs::path(opt_.scratch_dir);
    const std::uint64_t serial =
        g_scratch_serial.fetch_add(1, std::memory_order_relaxed);
    scratch_file_ = (dir / ("cmdsmc-audit-roundtrip-" +
                            std::to_string(serial) + ".ckpt"))
                        .string();
  }
  return scratch_file_;
}

template <class Real>
void Auditor<Real>::begin_step(const core::Simulation<Real>& sim) {
  flow0_ = sim.flow_count();
  res0_ = sim.reservoir_count();
  total0_ = sim.total_count();
  counters0_ = sim.counters();
}

template <class Real>
void Auditor<Real>::after_move(const core::Simulation<Real>& sim) {
  const std::int64_t step = sim.step_index();
  std::vector<Violation> fresh;
  check_finite_store(sim.particles(), step, "move", fresh);
  check_in_domain(sim.particles(), sim.grid(), sim.scene(), step, "move",
                  fresh);
  settle(Family::kHygiene, 2, fresh);
  // Cells are final for this step from here on: phase_sort (balance pass +
  // scatter) must conserve every cell's weighted moments.
  accumulate_cell_moments(sim.particles(),
                          static_cast<std::uint32_t>(sim.grid().ncells()),
                          cells_before_);
}

template <class Real>
void Auditor<Real>::after_sort(const core::Simulation<Real>& sim) {
  const std::int64_t step = sim.step_index();
  std::vector<Violation> fresh;
  check_sort_runs(sim.particles().cell, sim.sort_counts(), sim.sort_starts(),
                  step, fresh);
  settle(Family::kSort, 1, fresh);

  check_partition(sim.partition(), sim.sort_starts(),
                  sim.particles().size(), sim.partition_imbalance(), 1e-6,
                  step, fresh);
  settle(Family::kPartition, 1, fresh);

  accumulate_cell_moments(sim.particles(),
                          static_cast<std::uint32_t>(sim.grid().ncells()),
                          cells_after_);
  // Fixed-point runs re-quantize every merged velocity, so the per-cell
  // comparison needs a coarser floor than the double default.
  const double tol = std::is_same_v<Real, fixedpoint::Fixed32>
                         ? std::max(opt_.tol, 1e-3)
                         : opt_.tol;
  compare_cell_moments(cells_before_, cells_after_, tol, step, "sort", fresh);
  settle(Family::kConservation, 1, fresh);

  // Snapshot the global flow moments the collide phase must conserve.
  mass_post_sort_ = sim.flow_weighted_mass();
  momentum_post_sort_ = sim.flow_weighted_momentum();
  energy_post_sort_ = sim.flow_weighted_energy();
}

template <class Real>
void Auditor<Real>::after_collide(const core::Simulation<Real>& sim) {
  const std::int64_t step = sim.step_index();
  std::vector<Violation> fresh;
  // Axisymmetric Boyd weighted collisions conserve momentum/energy only in
  // expectation (the majorant-weight scheme), so the exact drift check is a
  // planar-run invariant.
  if (!sim.config().axisymmetric) {
    const double tol = std::is_same_v<Real, fixedpoint::Fixed32>
                           ? std::max(opt_.tol, 1e-3)
                           : opt_.tol;
    const double scale = std::max(1.0, mass_post_sort_);
    const double mass = sim.flow_weighted_mass();
    const std::array<double, 3> mom = sim.flow_weighted_momentum();
    const double energy = sim.flow_weighted_energy();
    auto drift = [&](const char* what, double before, double after) {
      if (std::abs(after - before) > tol * scale) {
        fresh.push_back({Family::kConservation, step, "collide", -1,
                         std::string("collide phase drifted flow ") + what +
                             ": " + std::to_string(before) + " -> " +
                             std::to_string(after) + " (tol " +
                             std::to_string(tol * scale) + ")"});
      }
    };
    drift("mass", mass_post_sort_, mass);
    drift("momentum_x", momentum_post_sort_[0], mom[0]);
    drift("momentum_y", momentum_post_sort_[1], mom[1]);
    drift("momentum_z", momentum_post_sort_[2], mom[2]);
    drift("energy", energy_post_sort_, energy);
    settle(Family::kConservation, 1, fresh);
  }
}

template <class Real>
void Auditor<Real>::end_step(const core::Simulation<Real>& sim) {
  const std::int64_t step = sim.step_index();
  std::vector<Violation> fresh;

  // Exact particle ledger: every census change must be accounted for by
  // the step's counters.  Removal parks a particle in the reservoir (the
  // array never shrinks there), injection promotes one back (synthesized
  // injections append), splits append clones, merges retire slots.
  const core::SimCounters& c = sim.counters();
  const auto d = [&](std::uint64_t now, std::uint64_t then) {
    return static_cast<std::int64_t>(now) - static_cast<std::int64_t>(then);
  };
  const std::int64_t removed = d(c.removed, counters0_.removed);
  const std::int64_t injected = d(c.injected, counters0_.injected);
  const std::int64_t synthesized = d(c.synthesized, counters0_.synthesized);
  const std::int64_t cloned = d(c.cloned, counters0_.cloned);
  const std::int64_t merged = d(c.merged, counters0_.merged);
  const std::int64_t dflow = d(sim.flow_count(), flow0_);
  const std::int64_t dres = d(sim.reservoir_count(), res0_);
  const std::int64_t dtotal = d(sim.total_count(), total0_);
  auto ledger = [&](const char* what, std::int64_t got,
                    std::int64_t expect) {
    if (got != expect) {
      fresh.push_back({Family::kConservation, step, "ledger", -1,
                       std::string(what) + " changed by " +
                           std::to_string(got) + " but the counters say " +
                           std::to_string(expect) + " (removed " +
                           std::to_string(removed) + ", injected " +
                           std::to_string(injected) + ", synthesized " +
                           std::to_string(synthesized) + ", cloned " +
                           std::to_string(cloned) + ", merged " +
                           std::to_string(merged) + ")"});
    }
  };
  ledger("flow census", dflow, injected - removed + cloned - merged);
  ledger("total census", dtotal, synthesized + cloned - merged);
  ledger("reservoir census", dres, removed - (injected - synthesized));
  settle(Family::kConservation, 3, fresh);

  // Field/surface accumulator hygiene (samplers only advance when sampling
  // is enabled, but stale NaNs would still be caught here).
  const auto rs = sim.resume_state();
  check_finite_span(rs.field_sums, "field", step, "sample", fresh);
  check_finite_span(rs.surface_sums, "surface", step, "sample", fresh);
  settle(Family::kHygiene, 2, fresh);

  ++audited_steps_;
  if (opt_.checkpoint_every > 0 &&
      audited_steps_ % opt_.checkpoint_every == 0) {
    const std::string path = scratch_path();
    std::uint64_t saved_hash = 0;
    bool roundtrip_ok = false;
    std::string error;
    try {
      core::save_checkpoint(path, sim.particles());
      core::ParticleStore<Real> restored;
      core::load_checkpoint(path, restored);
      saved_hash = hash_store(restored);
      roundtrip_ok = true;
    } catch (const std::exception& e) {
      error = e.what();
    }
    std::remove(path.c_str());
    const std::uint64_t live_hash = hash_store(sim.particles());
    if (!roundtrip_ok) {
      fresh.push_back({Family::kCheckpoint, step, "checkpoint", -1,
                       "save/restore round trip failed: " + error});
    } else if (saved_hash != live_hash) {
      fresh.push_back({Family::kCheckpoint, step, "checkpoint", -1,
                       "restored store hash " + std::to_string(saved_hash) +
                           " != live store hash " +
                           std::to_string(live_hash) +
                           ": serialization is lossy"});
    }
    settle(Family::kCheckpoint, 1, fresh);
  }
}

template class Auditor<double>;
template class Auditor<fixedpoint::Fixed32>;

}  // namespace cmdsmc::audit
