#include "audit/auditor.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "core/checkpoint.h"

namespace cmdsmc::audit {

namespace {

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return std::ranges::equal(a, b, [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

// Names the first resume-state field whose bits differ between `a` and `b`
// ("" when none does).
template <class State>
std::string resume_state_diff(const State& a, const State& b) {
  if (a.step != b.step) return "step";
  if (!same_bits({&a.plunger_x, 1}, {&b.plunger_x, 1})) return "plunger_x";
  if (a.res_count != b.res_count) return "res_count";
  if (std::memcmp(&a.counters, &b.counters, sizeof(a.counters)) != 0)
    return "counters";
  if (a.field_samples != b.field_samples) return "field_samples";
  if (!same_bits(a.field_sums, b.field_sums)) return "field_sums";
  if (a.surface_samples != b.surface_samples) return "surface_samples";
  if (!same_bits(a.surface_sums, b.surface_sums)) return "surface_sums";
  return "";
}

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
  check_sort_runs(sim.particles().cell, sim.sort_starts(), step, fresh);
  settle(Family::kSort, 1, fresh);

  check_partition(sim.partition(), sim.sort_starts(),
                  sim.partition_imbalance(), 1e-6, step, fresh);
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
  flow_post_sort_ = sim.flow_moments();
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
    const double scale = std::max(1.0, flow_post_sort_.mass);
    const auto now = sim.flow_moments();
    auto drift = [&](const char* what, double before, double after) {
      if (std::abs(after - before) > tol * scale) {
        fresh.push_back({Family::kConservation, step, "collide", -1,
                         std::string("collide phase drifted flow ") + what +
                             ": " + std::to_string(before) + " -> " +
                             std::to_string(after) + " (tol " +
                             std::to_string(tol * scale) + ")"});
      }
    };
    drift("mass", flow_post_sort_.mass, now.mass);
    drift("momentum_x", flow_post_sort_.momentum[0], now.momentum[0]);
    drift("momentum_y", flow_post_sort_.momentum[1], now.momentum[1]);
    drift("momentum_z", flow_post_sort_.momentum[2], now.momentum[2]);
    drift("energy", flow_post_sort_.energy, now.energy);
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
    // The round trip runs through the format runs resume from, in memory:
    // the bytes must give back the live store, geometry hash and resume
    // state.
    std::string lost;
    try {
      std::stringstream bytes(std::ios::in | std::ios::out |
                              std::ios::binary);
      core::save_checkpoint(bytes, sim);
      const core::Checkpoint<Real> ck =
          core::read_checkpoint<Real>(bytes, "the audit round trip");
      if (hash_store(ck.store) != hash_store(sim.particles()))
        lost = "the particle store";
      else if (ck.geometry_hash != sim.geometry_hash())
        lost = "the geometry hash";
      else if (const std::string f = resume_state_diff(ck.state, rs);
               !f.empty())
        lost = "resume state field " + f;
    } catch (const std::exception& e) {
      lost = std::string("the file (") + e.what() + ")";
    }
    if (!lost.empty())
      fresh.push_back({Family::kCheckpoint, step, "checkpoint", -1,
                       "save/restore round trip lost " + lost});
    settle(Family::kCheckpoint, 1, fresh);
  }
}

template class Auditor<double>;
template class Auditor<fixedpoint::Fixed32>;

}  // namespace cmdsmc::audit
