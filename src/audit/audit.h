// In-situ invariant audit: the machine-checked form of the correctness
// arguments PRs 3-8 made by hand (golden hashes, thread-count invariance,
// exact split/merge conservation).
//
// Layered in two pieces:
//  - This header + audit.cpp: pure check functions over plain data (spans,
//    a ParticleStore).  Always compiled, no Simulation
//    dependency, unit-testable against deliberately corrupted inputs.
//  - auditor.h: the Auditor<Real> that snapshots Simulation state at the
//    step-phase hooks and calls these checks.  Every build has the hooks;
//    a step with no auditor attached pays one pointer test for them.
//
// A check appends Violations instead of throwing, so tests can count how
// many fire; the Auditor turns the first violation of a batch into an
// AuditFailure (a std::runtime_error with step/phase/cell context).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/particles.h"
#include "geom/grid.h"
#include "geom/scene.h"
#include "physics/numeric.h"

namespace cmdsmc::audit {

// Invariant families, one counter slot each (telemetry reports the totals).
enum class Family : int {
  kSort = 0,      // counting-sort plan is a bijection onto the cell runs
  kPartition,     // lane cuts: ascending exact cover at count quantiles
  kConservation,  // particle ledger + per-cell / global moment conservation
  kHygiene,       // NaN/Inf scans, in-domain, not-inside-solid
  kCheckpoint,    // save -> restore -> rehash round trip
};
inline constexpr int kFamilies = 5;
const char* family_name(Family f);

// One invariant violation, with enough context to locate it.
struct Violation {
  Family family = Family::kSort;
  std::int64_t step = -1;  // step being audited (-1: outside a step)
  std::string phase;       // hook site, e.g. "sort", "collide", "ledger"
  std::int64_t cell = -1;  // offending cell/lane index; -1 when global
  std::string detail;      // human-readable specifics (values, bounds)
};

// Thrown by the Auditor on the first violation of a fatal batch; the
// scenario runner maps it to the runtime-error exit code (3) with the
// formatted context on stderr/JSON.
class AuditFailure : public std::runtime_error {
 public:
  explicit AuditFailure(Violation v);
  const Violation& violation() const { return v_; }

 private:
  Violation v_;
};

std::string format_violation(const Violation& v);

// Runtime knobs (scenario overrides audit= / audit_every= / audit_tol=).
struct AuditOptions {
  // Audit every `every`-th step (1 = every step).  <= 0 disables.
  std::int64_t every = 1;
  // Relative tolerance for floating-point conservation comparisons.  The
  // default covers double-precision runs; fixed-point runs quantize every
  // collision result and need a looser value (audit_tol= override).
  double tol = 1e-9;
  // Checkpoint round-trip cadence in *audited* steps (0 = off).  Kept
  // sparse by default: it serializes the whole particle store.
  std::int64_t checkpoint_every = 16;
  // Throw AuditFailure on the first violation (production mode).  Tests
  // flip this off to count every violation a corruption produces.
  bool fatal = true;
};

// Per-family check/violation counters (cumulative over the run).
struct AuditCounters {
  std::array<std::uint64_t, kFamilies> checks{};
  std::array<std::uint64_t, kFamilies> violations{};
  std::uint64_t total_checks() const {
    std::uint64_t t = 0;
    for (const std::uint64_t c : checks) t += c;
    return t;
  }
  std::uint64_t total_violations() const {
    std::uint64_t t = 0;
    for (const std::uint64_t c : violations) t += c;
    return t;
  }
};

// --- Sort-plan audit ---------------------------------------------------
// After the scatter, the per-pairing-cell `starts` table (pairing cells + 1
// entries; run c is [starts[c], starts[c + 1])) and the particle cell
// array must describe a consistent partition: the starts rise from 0 to
// the sentinel n = cell.size(), so the runs tile [0, n) exactly, and every
// particle inside run c carries pairing cell c.  Together with n staying
// the particle count this proves the scatter was a bijection — no particle
// lost, duplicated, or filed under the wrong cell.
void check_sort_runs(std::span<const std::uint32_t> cell,
                     std::span<const std::uint32_t> starts, std::int64_t step,
                     std::vector<Violation>& out);

// --- Partition audit ----------------------------------------------------
// The step's lane cuts over the sort's per-cell `starts` (starts.size() - 1
// pairing cells, and the sentinel starts.back() = n particles) must ascend
// from 0 to the cell count, each cut t must be the first cell whose start
// reaches t * n / lanes, and the imbalance the step reports must match the
// max/mean lane particle count recomputed here (pass NaN as
// `reported_imbalance` to skip that).
void check_partition(std::span<const std::uint32_t> cuts,
                     std::span<const std::uint32_t> starts,
                     double reported_imbalance, double tol, std::int64_t step,
                     std::vector<Violation>& out);

// --- Conservation: per-cell weighted moments ------------------------------
// Weighted mass / momentum / energy sums per real grid cell over the flow
// particles.  Particles never change cells inside phase_sort (the balance
// pass splits/merges within a cell; the sort only permutes), so comparing
// the tables from before and after the phase checks the whole
// split/merge/scatter chain op-by-op at cell granularity — far stronger
// than a global sum, which hides compensating leaks.
struct CellMoments {
  std::vector<double> mass, px, py, pz, energy;
  void resize(std::size_t ncells);
  std::size_t size() const { return mass.size(); }
};

template <class Real>
void accumulate_cell_moments(const core::ParticleStore<Real>& store,
                             std::uint32_t ncells, CellMoments& m) {
  using N = physics::Num<Real>;
  m.resize(ncells);
  const std::size_t n = store.size();
  const bool wts = store.has_weight;
  for (std::size_t i = 0; i < n; ++i) {
    if (store.flags[i] & core::ParticleStore<Real>::kReservoirFlag) continue;
    const std::uint32_t c = store.cell[i];
    if (c >= ncells) continue;  // merged-away slot already re-keyed
    const double w = wts ? store.weight[i] : 1.0;
    if (w <= 0.0) continue;  // merged-away slot awaiting truncation
    const double ux = N::to_double(store.ux[i]);
    const double uy = N::to_double(store.uy[i]);
    const double uz = N::to_double(store.uz[i]);
    const double r0 = N::to_double(store.r0[i]);
    const double r1 = N::to_double(store.r1[i]);
    double e = 0.5 * (ux * ux + uy * uy + uz * uz + r0 * r0 + r1 * r1);
    if (store.has_vib) {
      const double v0 = N::to_double(store.v0[i]);
      const double v1 = N::to_double(store.v1[i]);
      e += 0.5 * (v0 * v0 + v1 * v1);
    }
    m.mass[c] += w;
    m.px[c] += w * ux;
    m.py[c] += w * uy;
    m.pz[c] += w * uz;
    m.energy[c] += w * e;
  }
}

// Compares two per-cell moment tables; every cell whose relative drift in
// any moment exceeds `tol` becomes one violation (capped at `max_report`).
void compare_cell_moments(const CellMoments& before, const CellMoments& after,
                          double tol, std::int64_t step, const char* phase,
                          std::vector<Violation>& out,
                          std::size_t max_report = 8);

// --- State hygiene ---------------------------------------------------------
// NaN/Inf scan over every active floating-point particle array; each
// non-finite entry is one violation (at most `max_report`).
template <class Real>
void check_finite_store(const core::ParticleStore<Real>& store,
                        std::int64_t step, const char* phase,
                        std::vector<Violation>& out,
                        std::size_t max_report = 8) {
  std::size_t reported = 0;
  core::ParticleStore<Real>::for_each_array(
      [&](const char* name, const auto& a) {
        using T = typename std::decay_t<decltype(a)>::value_type;
        if constexpr (std::is_same_v<T, Real> || std::is_same_v<T, double>) {
          for (std::size_t i = 0; i < a.size() && reported < max_report;
               ++i) {
            const double v = physics::Num<T>::to_double(a[i]);
            if (std::isfinite(v)) continue;
            out.push_back({Family::kHygiene, step, phase,
                           static_cast<std::int64_t>(i),
                           std::string("non-finite ") + name +
                               " in particle array (value " +
                               std::to_string(v) + ")"});
            ++reported;
          }
        }
      },
      store);
}

// NaN/Inf scan over a plain accumulator array (field/surface sums).
void check_finite_span(std::span<const double> values, const char* what,
                       std::int64_t step, const char* phase,
                       std::vector<Violation>& out,
                       std::size_t max_report = 4);

// Flow particles must sit inside the grid box and strictly outside every
// body of the scene.  Reservoir-flagged particles are skipped (they park at
// freestream state off-grid by design).
template <class Real>
void check_in_domain(const core::ParticleStore<Real>& store,
                     const geom::Grid& grid, const geom::Scene& scene,
                     std::int64_t step, const char* phase,
                     std::vector<Violation>& out,
                     std::size_t max_report = 8) {
  using N = physics::Num<Real>;
  const std::size_t n = store.size();
  const double nx = grid.nx;
  const double ny = grid.ny;
  const double nz = grid.is3d() ? grid.nz : 0.0;
  std::size_t reported = 0;
  for (std::size_t i = 0; i < n && reported < max_report; ++i) {
    if (store.flags[i] & core::ParticleStore<Real>::kReservoirFlag) continue;
    if (store.has_weight && store.weight[i] <= 0.0) continue;
    const double x = N::to_double(store.x[i]);
    const double y = N::to_double(store.y[i]);
    if (x < 0.0 || x >= nx || y < 0.0 || y >= ny) {
      out.push_back({Family::kHygiene, step, phase,
                     static_cast<std::int64_t>(i),
                     "flow particle outside the grid box at (" +
                         std::to_string(x) + ", " + std::to_string(y) + ")"});
      ++reported;
      continue;
    }
    if (store.has_z && grid.is3d()) {
      const double z = N::to_double(store.z[i]);
      if (z < 0.0 || z >= nz) {
        out.push_back({Family::kHygiene, step, phase,
                       static_cast<std::int64_t>(i),
                       "flow particle outside the grid box at z=" +
                           std::to_string(z)});
        ++reported;
        continue;
      }
    }
    if (!scene.empty() && scene.inside(x, y)) {
      out.push_back({Family::kHygiene, step, phase,
                     static_cast<std::int64_t>(i),
                     "flow particle inside a solid body at (" +
                         std::to_string(x) + ", " + std::to_string(y) + ")"});
      ++reported;
    }
  }
}

// --- Checkpoint round trip ---------------------------------------------
// FNV-1a over every active array's raw bytes: the "rehash" of the
// save -> restore -> rehash self-check.  Byte-exact, so any serialization
// drift (truncation, field reorder, precision loss) trips it.
template <class Real>
std::uint64_t hash_store(const core::ParticleStore<Real>& store) {
  std::uint64_t h = 1469598103934665603ull;
  core::ParticleStore<Real>::for_each_array(
      [&h](const char*, const auto& a) {
        const auto* b = reinterpret_cast<const unsigned char*>(a.data());
        for (std::size_t i = 0, e = a.size() * sizeof(a[0]); i < e; ++i) {
          h ^= b[i];
          h *= 1099511628211ull;
        }
      },
      store);
  return h;
}

}  // namespace cmdsmc::audit
