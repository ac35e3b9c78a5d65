// Auditor<Real>: snapshots Simulation state at the step-phase hook points
// and runs the pure checks from audit.h against it.
//
// Hook protocol (all calls made by Simulation::step, only on steps the
// cadence selects):
//
//   begin_step     census + counter snapshot for the end-of-step ledger
//   after_move     hygiene (NaN/Inf, in-domain, not-inside-solid) and the
//                  per-cell weighted-moment snapshot the sort audit diffs
//                  against — cells are final here and phase_sort must
//                  conserve every cell's moments op-by-op
//   after_sort     sort-run bijection check, partition cut audit,
//                  per-cell conservation across split/merge/scatter, and the
//                  global flow-moment snapshot for the collide drift check
//   after_collide  momentum/energy drift of the collide phase (skipped for
//                  axisymmetric runs: Boyd weighted collisions conserve
//                  only in expectation, by design)
//   end_step       exact particle ledger against the counter deltas,
//                  field/surface accumulator hygiene, and the sparse
//                  checkpoint round trip through memory (save_checkpoint ->
//                  read_checkpoint -> store hash, geometry hash and resume
//                  state compared with the live simulation)
//
// Checks run serially on the control thread between phases: audit mode
// trades speed for certainty, and serial accumulation keeps every reported
// number independent of the lane count.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "core/simulation.h"

namespace cmdsmc::audit {

template <class Real>
class Auditor {
 public:
  explicit Auditor(AuditOptions opt = {});

  // True when `step` is selected by the audit cadence.  Simulation latches
  // this once at step entry so a mid-step cadence boundary cannot split the
  // hook sequence.
  bool wants(std::int64_t step) const {
    return opt_.every > 0 && step % opt_.every == 0;
  }

  void begin_step(const core::Simulation<Real>& sim);
  void after_move(const core::Simulation<Real>& sim);
  void after_sort(const core::Simulation<Real>& sim);
  void after_collide(const core::Simulation<Real>& sim);
  void end_step(const core::Simulation<Real>& sim);

  const AuditOptions& options() const { return opt_; }
  const AuditCounters& counters() const { return counters_; }
  // Violations recorded so far (only grows in non-fatal mode; in fatal mode
  // the first one throws AuditFailure instead of accumulating).
  const std::vector<Violation>& violations() const { return log_; }

 private:
  // Counts a finished batch of checks for `family` and either throws the
  // first fresh violation (fatal mode) or appends them to the log.
  void settle(Family family, std::uint64_t checks,
              std::vector<Violation>& fresh);

  AuditOptions opt_;
  AuditCounters counters_;
  std::vector<Violation> log_;

  // --- per-step snapshots ---
  std::uint64_t flow0_ = 0, res0_ = 0, total0_ = 0;
  core::SimCounters counters0_;
  CellMoments cells_before_;   // taken after move, diffed after sort
  CellMoments cells_after_;
  double energy_post_sort_ = 0.0;
  std::array<double, 3> momentum_post_sort_{};
  double mass_post_sort_ = 0.0;
  std::int64_t audited_steps_ = 0;
};

extern template class Auditor<double>;
extern template class Auditor<fixedpoint::Fixed32>;

}  // namespace cmdsmc::audit
