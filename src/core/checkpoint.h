// Binary checkpoint/restart: long paper-scale runs (1200 + 2000 steps at
// 512k particles) can be split across sessions, and steady-state snapshots
// can be reused by several analysis passes.
//
// One format, the simulation checkpoint (CMDSMC05): the particle store
// *plus* everything a resumed run needs to reproduce the uninterrupted run
// exactly — the step counter (all counter-RNG streams key on it), plunger
// phase, reservoir count, cumulative counters, and the field/surface
// sampler accumulators (so a restore mid-averaging keeps its
// Cd/Cl/heat-flux history instead of silently zeroing it).  The file also
// records a geometry/config provenance hash; loading against a simulation
// whose grid, scene bodies or boundary mode differ throws instead of
// silently mixing incompatible state.
//
// Layout: magic, scalar tag, geometry hash, step, plunger x, reservoir
// count, the SimCounters record, field sample count + sums, surface sample
// count + sums, then the store's three layout flags and its arrays in
// ParticleStore::for_each_array order, each as a length plus raw entries.
// The file ends there; a reader refuses any byte after the last array.
// Each layout change takes a new magic, so an older file is refused with a
// bad-magic error rather than misread.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/particles.h"
#include "core/simulation.h"

namespace cmdsmc::core {

// Writes a full simulation checkpoint (store + resume state + geometry
// hash) to a file, or to a binary stream (the caller checks its state).
// Throws std::runtime_error on I/O failure.
template <class Real>
void save_checkpoint(const std::string& path, const Simulation<Real>& sim);
template <class Real>
void save_checkpoint(std::ostream& os, const Simulation<Real>& sim);

// Everything a checkpoint file holds.
template <class Real>
struct Checkpoint {
  std::uint64_t geometry_hash = 0;
  typename Simulation<Real>::ResumeState state;
  ParticleStore<Real> store;
};

// Reads a checkpoint written by save_checkpoint with the same Real type,
// from a file or from a seekable binary stream (`name` labels its errors).
// Throws std::runtime_error (message starting "checkpoint:") on I/O
// failure, a bad magic, a scalar-type mismatch, or a truncated, padded or
// inconsistent file.
template <class Real>
Checkpoint<Real> read_checkpoint(const std::string& path);
template <class Real>
Checkpoint<Real> read_checkpoint(std::istream& is, const std::string& name);

// Restores a checkpoint into `sim`, which must have been constructed with
// the *same configuration* (the geometry hash is verified).  Sampling
// enable flags are not part of the checkpoint; the caller re-enables them.
// Throws std::runtime_error as read_checkpoint does, and on a geometry
// mismatch; `sim` is left untouched when it throws.
template <class Real>
void load_checkpoint(const std::string& path, Simulation<Real>& sim);

// checkpoint.cpp instantiates every form above for double and Fixed32.

}  // namespace cmdsmc::core
