// Macroscopic field sampling.
//
// Cell-averaged moments are accumulated over many time steps after the
// start-up transient (paper: 1200 steps to steady state, then 2000 steps of
// time averaging).  Cells cut by the wedge are normalized by their fractional
// open volume — the paper's "special allowance ... for the fractional cell
// volume ... in computing the time average cell density".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "cmdp/sort.h"
#include "cmdp/thread_pool.h"
#include "core/particles.h"
#include "geom/grid.h"
#include "physics/numeric.h"

namespace cmdsmc::core {

// Finalized cell fields, all normalized by freestream reference values.
struct FieldStats {
  geom::Grid grid;
  int samples = 0;
  std::vector<double> density;   // rho / rho_inf
  std::vector<double> ux, uy;    // mean velocity (cells per step)
  std::vector<double> t_trans;   // T_trans / T_inf
  std::vector<double> t_rot;     // T_rot / T_inf
  std::vector<double> t_total;   // (3 T_trans + 2 T_rot) / 5 / T_inf
  // Raw average particles per cell (axisymmetric runs: average *weighted*
  // census, i.e. molecule-units per cell).
  std::vector<double> mean_count;

  double at(const std::vector<double>& f, int ix, int iy, int iz = 0) const {
    return f[grid.index(ix, iy, iz)];
  }
};

// Running per-cell moment sums, accumulated cell block by cell block.
template <class Real>
class FieldSampler {
 public:
  // `cell_volume` rescales each cell's open volume (axisymmetric runs pass
  // the annular volumes 2*iy + 1, in units of pi; empty = unit cells).
  FieldSampler(const geom::Grid& grid, std::vector<double> open_fraction,
               double n_inf, double sigma_inf,
               std::vector<double> cell_volume = {})
      : grid_(grid),
        open_fraction_(std::move(open_fraction)),
        cell_volume_(std::move(cell_volume)),
        n_inf_(n_inf),
        sigma_inf_(sigma_inf),
        sums_(static_cast<std::size_t>(grid.ncells()) * kMoments, 0.0) {}

  int samples() const { return samples_; }

  void reset() {
    samples_ = 0;
    std::fill(sums_.begin(), sums_.end(), 0.0);
  }

  // Accumulates one sample over the sorted runs: cell c's particles occupy
  // [starts[c], starts[c + 1]) (the sort phase's per-pairing-cell table;
  // the reservoir pseudo-cells past the grid carry no field).  Lane t
  // samples cells [cuts[t], cuts[t + 1]) (cuts.size() - 1 is 1 or the
  // pool's lane count), and each cell's moments add into sums_ in ascending
  // index order, so the sums are bit-identical for every lane count and
  // every set of cuts.  `weights` (when non-null) scales every moment by
  // the particle's statistical weight — the axisymmetric radial weighting.
  void accumulate(cmdp::ThreadPool& pool, const ParticleStore<Real>& store,
                  const std::uint32_t* starts,
                  std::span<const std::uint32_t> cuts,
                  const double* weights = nullptr) {
    using N = physics::Num<Real>;
    const auto ncells = static_cast<std::uint32_t>(grid_.ncells());
    auto run = [&](std::uint32_t cbegin, std::uint32_t cend) {
      if (cend > ncells) cend = ncells;  // reservoir band carries no field
      for (std::size_t c = cbegin; c < cend; ++c) {
        double* m = sums_.data() + c * kMoments;
        const std::size_t end = starts[c + 1];
        for (std::size_t i = starts[c]; i < end; ++i) {
          const double vx = N::to_double(store.ux[i]);
          const double vy = N::to_double(store.uy[i]);
          const double vz = N::to_double(store.uz[i]);
          const double w0 = N::to_double(store.r0[i]);
          const double w1 = N::to_double(store.r1[i]);
          if (weights == nullptr) {
            m[0] += 1.0;
            m[1] += vx;
            m[2] += vy;
            m[3] += vz;
            m[4] += vx * vx + vy * vy + vz * vz;
            m[5] += w0;
            m[6] += w1;
            m[7] += w0 * w0 + w1 * w1;
          } else {
            const double w = weights[i];
            m[0] += w;
            m[1] += w * vx;
            m[2] += w * vy;
            m[3] += w * vz;
            m[4] += w * (vx * vx + vy * vy + vz * vz);
            m[5] += w * w0;
            m[6] += w * w1;
            m[7] += w * (w0 * w0 + w1 * w1);
          }
        }
      }
    };
    cmdp::for_each_sort_lane(pool, static_cast<unsigned>(cuts.size() - 1),
                             [&](unsigned t) { run(cuts[t], cuts[t + 1]); });
    ++samples_;
  }

  FieldStats finalize() const {
    FieldStats f;
    f.grid = grid_;
    f.samples = samples_;
    const std::size_t ncells = static_cast<std::size_t>(grid_.ncells());
    f.density.assign(ncells, 0.0);
    f.ux.assign(ncells, 0.0);
    f.uy.assign(ncells, 0.0);
    f.t_trans.assign(ncells, 0.0);
    f.t_rot.assign(ncells, 0.0);
    f.t_total.assign(ncells, 0.0);
    f.mean_count.assign(ncells, 0.0);
    if (samples_ == 0) return f;
    const double tref = sigma_inf_ * sigma_inf_;
    for (std::size_t c = 0; c < ncells; ++c) {
      const double* m = sums_.data() + c * kMoments;
      const double count = m[0];
      f.mean_count[c] = count / samples_;
      const double open =
          c < open_fraction_.size() ? open_fraction_[c] : 1.0;
      const double vol = c < cell_volume_.size() ? cell_volume_[c] : 1.0;
      if (open > 1e-9)
        f.density[c] = f.mean_count[c] / (n_inf_ * open * vol);
      if (count < 2.0) continue;
      const double mux = m[1] / count;
      const double muy = m[2] / count;
      const double muz = m[3] / count;
      const double mr0 = m[5] / count;
      const double mr1 = m[6] / count;
      f.ux[c] = mux;
      f.uy[c] = muy;
      const double var_u =
          m[4] / count - (mux * mux + muy * muy + muz * muz);
      const double var_r = m[7] / count - (mr0 * mr0 + mr1 * mr1);
      f.t_trans[c] = (var_u / 3.0) / tref;
      f.t_rot[c] = (var_r / 2.0) / tref;
      f.t_total[c] = (3.0 * f.t_trans[c] + 2.0 * f.t_rot[c]) / 5.0;
    }
    return f;
  }

  // --- Checkpoint access (core/checkpoint.*) ---
  // The per-cell moment accumulator (ncells * 8 doubles).
  const std::vector<double>& accumulated() const { return sums_; }
  void restore(int samples, const std::vector<double>& sums) {
    if (samples < 0 || sums.size() != sums_.size())
      throw std::invalid_argument(
          "FieldSampler::restore: accumulator shape mismatch");
    samples_ = samples;
    sums_ = sums;
  }

 private:
  static constexpr int kMoments = 8;
  geom::Grid grid_;
  std::vector<double> open_fraction_;
  std::vector<double> cell_volume_;  // empty = unit cells (planar)
  double n_inf_;
  double sigma_inf_;
  int samples_ = 0;
  std::vector<double> sums_;
};

}  // namespace cmdsmc::core
