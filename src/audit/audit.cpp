#include "audit/audit.h"

#include <algorithm>
#include <cstdio>

namespace cmdsmc::audit {

const char* family_name(Family f) {
  switch (f) {
    case Family::kSort:
      return "sort";
    case Family::kPartition:
      return "partition";
    case Family::kConservation:
      return "conservation";
    case Family::kHygiene:
      return "hygiene";
    case Family::kCheckpoint:
      return "checkpoint";
  }
  return "?";
}

std::string format_violation(const Violation& v) {
  std::string s = "audit[";
  s += family_name(v.family);
  s += "] step ";
  s += std::to_string(v.step);
  s += " phase ";
  s += v.phase.empty() ? "?" : v.phase;
  if (v.cell >= 0) {
    s += " cell ";
    s += std::to_string(v.cell);
  }
  s += ": ";
  s += v.detail;
  return s;
}

AuditFailure::AuditFailure(Violation v)
    : std::runtime_error(format_violation(v)), v_(std::move(v)) {}

void check_sort_runs(std::span<const std::uint32_t> cell,
                     std::span<const std::uint32_t> starts, std::int64_t step,
                     std::vector<Violation>& out) {
  const std::size_t n = cell.size();
  if (starts.empty()) {
    out.push_back({Family::kSort, step, "sort", -1,
                   "the starts table has no end sentinel"});
    return;
  }
  const std::size_t pair_cells = starts.size() - 1;
  // The runs must tile [0, n) exactly: the starts rise from 0 to n.
  if (starts.front() != 0 || starts.back() != n) {
    out.push_back({Family::kSort, step, "sort", -1,
                   "cell runs cover [" + std::to_string(starts.front()) +
                       ", " + std::to_string(starts.back()) + ") of " +
                       std::to_string(n) +
                       " particles: the scatter was not a bijection"});
    return;
  }
  for (std::size_t c = 0; c < pair_cells; ++c) {
    if (starts[c] > starts[c + 1]) {
      out.push_back({Family::kSort, step, "sort",
                     static_cast<std::int64_t>(c),
                     "starts[" + std::to_string(c) + "] = " +
                         std::to_string(starts[c]) + " > starts[" +
                         std::to_string(c + 1) + "] = " +
                         std::to_string(starts[c + 1]) +
                         ": the runs overlap"});
      return;
    }
  }
  // Every particle must sit inside its keyed cell's run.
  std::size_t bad = 0;
  for (std::size_t c = 0; c < pair_cells && bad < 8; ++c) {
    const std::size_t b = starts[c];
    const std::size_t e = starts[c + 1];
    for (std::size_t i = b; i < e; ++i) {
      if (cell[i] != c) {
        out.push_back({Family::kSort, step, "sort",
                       static_cast<std::int64_t>(c),
                       "particle " + std::to_string(i) + " carries cell " +
                           std::to_string(cell[i]) + " inside run [" +
                           std::to_string(b) + ", " + std::to_string(e) +
                           ") of cell " + std::to_string(c)});
        if (++bad >= 8) break;
      }
    }
  }
}

void check_partition(std::span<const std::uint32_t> cuts,
                     std::span<const std::uint32_t> starts,
                     double reported_imbalance, double tol, std::int64_t step,
                     std::vector<Violation>& out) {
  const std::size_t out0 = out.size();
  auto fail = [&](std::int64_t where, std::string detail) {
    out.push_back(
        {Family::kPartition, step, "partition", where, std::move(detail)});
  };
  if (cuts.size() < 2 || starts.empty()) {
    fail(-1, "partition holds " + std::to_string(cuts.size()) +
                 " cuts over " + std::to_string(starts.size()) +
                 " starts (needs lanes + 1 >= 2 and the end sentinel)");
    return;
  }
  const std::size_t cells = starts.size() - 1;
  const std::size_t n = starts.back();
  const std::size_t lanes = cuts.size() - 1;
  // Exact cover of [0, cells) by ascending blocks.
  if (cuts.front() != 0)
    fail(0, "cuts[0] = " + std::to_string(cuts.front()) +
                " (must be 0: the blocks must cover the cells from the "
                "start)");
  if (cuts.back() != cells)
    fail(static_cast<std::int64_t>(lanes),
         "cuts[lanes] = " + std::to_string(cuts.back()) +
             " != pair cells = " + std::to_string(cells));
  for (std::size_t t = 0; t < lanes; ++t) {
    if (cuts[t] > cuts[t + 1]) {
      fail(static_cast<std::int64_t>(t),
           "cuts[" + std::to_string(t) + "] = " + std::to_string(cuts[t]) +
               " > cuts[" + std::to_string(t + 1) + "] = " +
               std::to_string(cuts[t + 1]) + ": blocks overlap");
      break;
    }
  }
  if (out.size() != out0) return;  // the checks below need a sound cover
  // Cut t is the first cell whose start reaches the quantile t * n / lanes
  // (the sentinel n reaches every quantile).
  for (std::size_t t = 1; t < lanes; ++t) {
    const std::size_t target = t * n / lanes;
    const std::uint32_t c = cuts[t];
    const bool reaches = starts[c] >= target;
    const bool first = c == 0 || starts[c - 1] < target;
    if (!reaches || !first) {
      fail(static_cast<std::int64_t>(t),
           "cut " + std::to_string(t) + " = cell " + std::to_string(c) +
               " is not the first cell starting at or past the count "
               "quantile " +
               std::to_string(target));
      return;
    }
  }
  if (std::isnan(reported_imbalance)) return;
  std::size_t busiest = 0;
  for (std::size_t t = 0; t < lanes; ++t)
    busiest = std::max<std::size_t>(busiest,
                                    starts[cuts[t + 1]] - starts[cuts[t]]);
  const double recomputed =
      n > 0 ? static_cast<double>(busiest) * static_cast<double>(lanes) /
                  static_cast<double>(n)
            : 1.0;
  if (std::abs(recomputed - reported_imbalance) >
      tol * std::max(1.0, recomputed))
    fail(-1, "reported imbalance " + std::to_string(reported_imbalance) +
                 " does not match the recomputed " +
                 std::to_string(recomputed));
}

void CellMoments::resize(std::size_t ncells) {
  mass.assign(ncells, 0.0);
  px.assign(ncells, 0.0);
  py.assign(ncells, 0.0);
  pz.assign(ncells, 0.0);
  energy.assign(ncells, 0.0);
}

namespace {
bool drifted(double a, double b, double tol, double scale) {
  return std::abs(a - b) > tol * std::max(1.0, std::max(scale, std::abs(a)));
}
}  // namespace

void compare_cell_moments(const CellMoments& before, const CellMoments& after,
                          double tol, std::int64_t step, const char* phase,
                          std::vector<Violation>& out,
                          std::size_t max_report) {
  if (before.size() != after.size()) {
    out.push_back({Family::kConservation, step, phase, -1,
                   "cell-moment table size changed: " +
                       std::to_string(before.size()) + " -> " +
                       std::to_string(after.size())});
    return;
  }
  std::size_t reported = 0;
  for (std::size_t c = 0; c < before.size() && reported < max_report; ++c) {
    // Scale the momentum/energy tolerance by the cell's mass-weighted
    // magnitude: a near-empty cell's sums are tiny but its particle speeds
    // are O(1), so rounding is O(mass), not O(sum).
    const double scale = std::abs(before.mass[c]);
    struct Row {
      const char* name;
      double b, a;
    } rows[] = {
        {"mass", before.mass[c], after.mass[c]},
        {"momentum_x", before.px[c], after.px[c]},
        {"momentum_y", before.py[c], after.py[c]},
        {"momentum_z", before.pz[c], after.pz[c]},
        {"energy", before.energy[c], after.energy[c]},
    };
    for (const Row& r : rows) {
      if (drifted(r.b, r.a, tol, scale)) {
        out.push_back({Family::kConservation, step, phase,
                       static_cast<std::int64_t>(c),
                       std::string("per-cell ") + r.name + " drifted " +
                           std::to_string(r.b) + " -> " +
                           std::to_string(r.a) +
                           " across a phase that must conserve it"});
        ++reported;
        break;
      }
    }
  }
}

void check_finite_span(std::span<const double> values, const char* what,
                       std::int64_t step, const char* phase,
                       std::vector<Violation>& out, std::size_t max_report) {
  std::size_t reported = 0;
  for (std::size_t i = 0; i < values.size() && reported < max_report; ++i) {
    if (!std::isfinite(values[i])) {
      out.push_back({Family::kHygiene, step, phase,
                     static_cast<std::int64_t>(i),
                     std::string("non-finite value in ") + what +
                         " accumulator (slot " + std::to_string(i) + ")"});
      ++reported;
    }
  }
}

}  // namespace cmdsmc::audit
