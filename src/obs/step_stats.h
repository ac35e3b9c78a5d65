// Per-step run telemetry: the metrics record the Simulation fills once per
// observed step and hands to an attached StepObserver.
//
// The paper's headline result is a per-run wall-clock phase breakdown; this
// struct is the per-step refinement of it — phase seconds, per-lane busy
// seconds and a measured load-imbalance gauge next to the partition's
// predicted one, plus the particle census, collision statistics and the
// per-cell occupancy spread the sort plan already computes and used to
// throw away.
//
// Deliberately free of core/ includes: counters arrive as plain integers so
// consumers (io writers, benches, tests) can depend on this header alone.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cmdsmc::obs {

// One reported phase: a name over one or two phase slots.
struct ReportedPhase {
  const char* name;
  int a;
  int b;  // second slot, or -1
};

struct StepStats {
  // Phase slots, in Table A order.  Slot kSelect exists for layout compat
  // with Simulation::Phase; it reads 0 since the select/collide fusion and
  // writers report the fused select+collide entry.
  static constexpr int kPhases = 5;
  static constexpr int kMove = 0, kSort = 1, kSelect = 2, kCollide = 3,
                       kSample = 4;
  // The four reported phases, in Table A order: the zero select slot folds
  // into collide.  The JSONL and trace writers both read this table, so
  // the two outputs cannot drift apart.
  static constexpr ReportedPhase kReported[4] = {
      {"move", kMove, -1},
      {"sort", kSort, -1},
      {"select_collide", kSelect, kCollide},
      {"sample", kSample, -1},
  };

  // 0-based index of the step these stats describe (the step just executed).
  std::int64_t step = 0;

  // --- Particle census ---
  std::uint64_t flow = 0;
  std::uint64_t reservoir = 0;
  std::uint64_t total = 0;
  // Statistical-weight-weighted flow census (axisymmetric runs weight each
  // simulator by its annular cell volume; planar runs: == flow).
  double weighted_census = 0.0;

  // --- Per-step counter deltas ---
  std::uint64_t candidates = 0;  // candidate pairs examined this step
  std::uint64_t collisions = 0;  // flow pairs collided this step
  std::uint64_t reservoir_collisions = 0;
  std::uint64_t removed = 0;
  std::uint64_t injected = 0;
  std::uint64_t synthesized = 0;
  std::uint64_t cloned = 0;
  std::uint64_t merged = 0;
  // Wall reflections recorded this step (0 unless surface sampling is on —
  // the move loop only routes events to the sampler then).
  std::uint64_t wall_events = 0;
  // (collisions + reservoir_collisions) / candidates; reservoir pairs
  // collide unconditionally, flow pairs via the eq. 8 acceptance test.
  double accept_rate = 0.0;

  // --- Cumulative counters (run totals at the end of this step) ---
  std::uint64_t cum_candidates = 0;
  std::uint64_t cum_collisions = 0;

  // --- Per-cell occupancy over open flow cells (open_fraction > 0),
  // straight from the sort plan's per-cell counts ---
  std::uint32_t occ_min = 0;
  std::uint32_t occ_max = 0;
  double occ_mean = 0.0;

  // Bytes of every buffer the sort holds beyond the record: the pool
  // workspace (key table, lane cuts, index), the per-cell starts, the keys
  // and the spares the arrays rotate through (capacities).
  std::size_t arena_bytes = 0;

  // --- Partition ---
  // Predicted max-lane / mean-lane particle count of the count-quantile
  // cell blocks this step collided and sampled over the pool's lanes
  // (Simulation::partition(); exactly 1 on one lane).  The measured
  // per-phase `imbalance` below is its clock-side counterpart.
  double cost_imbalance = 0.0;
  // Always 0: read only by the benchmark suite, until the benchmark change
  // deletes it.
  std::uint64_t repartitions = 0;

  // --- Invariant audit (zeros unless an auditor is attached: audit=1) ---
  bool audit_active = false;
  std::uint64_t audit_checks = 0;      // cumulative checks up to this step
  std::uint64_t audit_violations = 0;  // cumulative violations (0 = healthy)

  // --- Timing ---
  // Control-thread wall seconds per phase slot, this step only.
  std::array<double, kPhases> phase_seconds{};
  double step_seconds = 0.0;  // sum of the slots
  // Per-lane busy seconds inside the step's parallel regions, phase-major:
  // lane_seconds[p * lanes + tid].  Serial fallbacks run on the control
  // thread and are credited to lane 0 only when lanes == 1 (where lane 0
  // equals the aggregate by construction); with more lanes they appear in
  // phase_seconds but in no lane — so sum(lanes) <= phase aggregate.
  unsigned lanes = 0;
  std::vector<double> lane_seconds;
  // Load-imbalance gauge per phase: max-lane / mean-lane busy seconds
  // (1.0 = perfectly balanced, 0 when the phase recorded no lane time).
  std::array<double, kPhases> imbalance{};

  double lane_second(int phase, unsigned tid) const {
    return lane_seconds[static_cast<std::size_t>(phase) * lanes + tid];
  }
  // A reported phase's seconds, its slots summed.
  double seconds(const ReportedPhase& f) const {
    double sec = phase_seconds[static_cast<std::size_t>(f.a)];
    if (f.b >= 0) sec += phase_seconds[static_cast<std::size_t>(f.b)];
    return sec;
  }
  double lane_second(const ReportedPhase& f, unsigned tid) const {
    double sec = lane_second(f.a, tid);
    if (f.b >= 0) sec += lane_second(f.b, tid);
    return sec;
  }
};

// Consumer interface.  The Simulation checks `wants_step` before computing
// the (cheap but not free) stats, and calls `on_step` from the control
// thread between steps — implementations need no locking against the
// simulation but must not mutate it.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  // Return false to skip stats collection for `step` entirely.
  virtual bool wants_step(std::int64_t step) const {
    (void)step;
    return true;
  }
  virtual void on_step(const StepStats& stats) = 0;
};

}  // namespace cmdsmc::obs
