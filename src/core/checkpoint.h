// Binary checkpoint/restart: long paper-scale runs (1200 + 2000 steps at
// 512k particles) can be split across sessions, and steady-state snapshots
// can be reused by several analysis passes.
//
// Two levels:
//  - ParticleStore checkpoints (format CMDSMC03): the raw arrays only.
//    Kept for snapshot reuse, but they carry no run state — a restore
//    resumes at step 0 with zeroed samplers.
//  - Simulation checkpoints (format CMDSMC05): the store *plus* everything
//    a resumed run needs to reproduce the uninterrupted run exactly — the
//    step counter (all counter-RNG streams key on it), plunger phase,
//    reservoir count, cumulative counters, and the field/surface sampler
//    accumulators (so a restore mid-averaging keeps its Cd/Cl/heat-flux
//    history instead of silently zeroing it).  The file also
//    records a geometry/config provenance hash; loading against a
//    simulation whose grid, scene bodies or boundary mode differ throws
//    instead of silently mixing incompatible state.
#pragma once

#include <string>

#include "core/particles.h"
#include "core/simulation.h"
#include "fixedpoint/fixed32.h"

namespace cmdsmc::core {

// Writes the full particle store (all arrays + layout flags) to `path`.
// Format: magic, version, scalar tag, counts, then raw arrays.  Throws
// std::runtime_error on I/O failure.
template <class Real>
void save_checkpoint(const std::string& path, const ParticleStore<Real>& s);

// Loads a checkpoint written by save_checkpoint with the same Real type.
// Throws std::runtime_error on I/O failure, format or scalar-type mismatch.
template <class Real>
void load_checkpoint(const std::string& path, ParticleStore<Real>& s);

// Writes a full simulation checkpoint (store + resume state + geometry
// hash).  Throws std::runtime_error on I/O failure.
template <class Real>
void save_checkpoint(const std::string& path, const Simulation<Real>& sim);

// Restores a simulation checkpoint into `sim`, which must have been
// constructed with the *same configuration* (the geometry hash is
// verified).  Sampling enable flags are not part of the checkpoint; the
// caller re-enables them.  Throws std::runtime_error on I/O failure, format,
// scalar-type or geometry mismatch.
template <class Real>
void load_checkpoint(const std::string& path, Simulation<Real>& sim);

extern template void save_checkpoint<double>(const std::string&,
                                             const ParticleStore<double>&);
extern template void load_checkpoint<double>(const std::string&,
                                             ParticleStore<double>&);
extern template void save_checkpoint<fixedpoint::Fixed32>(
    const std::string&, const ParticleStore<fixedpoint::Fixed32>&);
extern template void load_checkpoint<fixedpoint::Fixed32>(
    const std::string&, ParticleStore<fixedpoint::Fixed32>&);
extern template void save_checkpoint<double>(const std::string&,
                                             const Simulation<double>&);
extern template void load_checkpoint<double>(const std::string&,
                                             Simulation<double>&);
extern template void save_checkpoint<fixedpoint::Fixed32>(
    const std::string&, const Simulation<fixedpoint::Fixed32>&);
extern template void load_checkpoint<fixedpoint::Fixed32>(
    const std::string&, Simulation<fixedpoint::Fixed32>&);

}  // namespace cmdsmc::core
