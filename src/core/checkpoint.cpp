#include "core/checkpoint.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace cmdsmc::core {

namespace {

// Each format change takes a new magic, so an older file is refused with a
// bad-magic error rather than misread (see checkpoint.h).
constexpr std::uint64_t kMagic = 0x434d44534d433035ull;  // "CMDSMC05"

// The counters block is one SimCounters record: eight uint64_t, no padding.
static_assert(std::is_trivially_copyable_v<SimCounters> &&
              std::has_unique_object_representations_v<SimCounters> &&
              sizeof(SimCounters) == 8 * sizeof(std::uint64_t));

template <class Real>
constexpr std::uint32_t scalar_tag() {
  if constexpr (std::is_same_v<Real, double>)
    return 1;
  else
    return 2;  // Fixed32
}

template <class T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <class T>
void read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("checkpoint: truncated header");
}

template <class T, class Alloc>
void write_vec(std::ostream& os, const std::vector<T, Alloc>& v) {
  const std::uint64_t n = v.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(n * sizeof(T)));
}

// Bytes between the read position and the end of the file.
std::uint64_t bytes_left(std::istream& is) {
  const std::streampos pos = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(pos);
  if (!is || pos < 0 || end < pos)
    throw std::runtime_error("checkpoint: unreadable stream");
  return static_cast<std::uint64_t>(end - pos);
}

// The length field comes from the file, so it is checked against the bytes
// the file still holds before anything is allocated: a corrupt length is a
// refusal, never a multi-GiB allocation.
template <class T, class Alloc>
void read_vec(std::istream& is, std::vector<T, Alloc>& v) {
  std::uint64_t n = 0;
  read_pod(is, n);
  if (n > bytes_left(is) / sizeof(T))
    throw std::runtime_error("checkpoint: array of " + std::to_string(n) +
                             " entries runs past the end of the file");
  v.resize(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!is) throw std::runtime_error("checkpoint: truncated array");
}

template <class Real>
void write_store(std::ostream& os, const ParticleStore<Real>& s) {
  for (const bool layout : {s.has_z, s.has_vib, s.has_weight})
    write_pod(os, static_cast<std::uint8_t>(layout ? 1 : 0));
  ParticleStore<Real>::for_each_array(
      [&os](const char*, const auto& a) { write_vec(os, a); }, s);
}

template <class Real>
void read_store(std::istream& is, ParticleStore<Real>& s) {
  for (bool* layout : {&s.has_z, &s.has_vib, &s.has_weight}) {
    std::uint8_t flag = 0;
    read_pod(is, flag);
    *layout = flag != 0;
  }
  // ParticleStore::size() is x.size(): every other per-particle array must
  // match it, or the first step would index past a short one.
  ParticleStore<Real>::for_each_array(
      [&](const char* name, auto& a) {
        read_vec(is, a);
        if (a.size() != s.x.size())
          throw std::runtime_error(
              std::string("checkpoint: per-particle array ") + name +
              " holds " + std::to_string(a.size()) + " entries for " +
              std::to_string(s.x.size()) + " particles");
      },
      s);
}

}  // namespace

template <class Real>
void save_checkpoint(std::ostream& os, const Simulation<Real>& sim) {
  write_pod(os, kMagic);
  write_pod(os, scalar_tag<Real>());
  write_pod(os, sim.geometry_hash());
  const auto st = sim.resume_state();
  write_pod(os, st.step);
  write_pod(os, st.plunger_x);
  write_pod(os, st.res_count);
  write_pod(os, st.counters);
  write_pod(os, static_cast<std::int32_t>(st.field_samples));
  write_vec(os, st.field_sums);
  write_pod(os, static_cast<std::int32_t>(st.surface_samples));
  write_vec(os, st.surface_sums);
  write_store(os, sim.particles());
}

template <class Real>
void save_checkpoint(const std::string& path, const Simulation<Real>& sim) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("checkpoint: cannot open " + path);
  save_checkpoint(os, sim);
  if (!os) throw std::runtime_error("checkpoint: write failed " + path);
}

template <class Real>
Checkpoint<Real> read_checkpoint(std::istream& is, const std::string& name) {
  std::uint64_t magic = 0;
  std::uint32_t tag = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&tag), sizeof(tag));
  if (!is || magic != kMagic)
    throw std::runtime_error("checkpoint: bad magic in " + name);
  if (tag != scalar_tag<Real>())
    throw std::runtime_error("checkpoint: scalar type mismatch in " + name);
  Checkpoint<Real> ck;
  auto& st = ck.state;
  std::int32_t samples = 0;
  read_pod(is, ck.geometry_hash);
  read_pod(is, st.step);
  read_pod(is, st.plunger_x);
  read_pod(is, st.res_count);
  read_pod(is, st.counters);
  read_pod(is, samples);
  st.field_samples = samples;
  read_vec(is, st.field_sums);
  read_pod(is, samples);
  st.surface_samples = samples;
  read_vec(is, st.surface_sums);
  read_store(is, ck.store);
  if (const std::uint64_t extra = bytes_left(is); extra != 0)
    throw std::runtime_error("checkpoint: " + std::to_string(extra) +
                             " bytes after the last array in " + name);
  return ck;
}

template <class Real>
Checkpoint<Real> read_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  return read_checkpoint<Real>(is, path);
}

template <class Real>
void load_checkpoint(const std::string& path, Simulation<Real>& sim) {
  Checkpoint<Real> ck = read_checkpoint<Real>(path);
  if (ck.geometry_hash != sim.geometry_hash())
    throw std::runtime_error(
        "checkpoint: geometry/config mismatch in " + path +
        " (the checkpoint was written by a run with different grid, bodies "
        "or boundary mode)");
  try {
    sim.restore(std::move(ck.store), ck.state);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("checkpoint: ") + e.what() + " in " +
                             path);
  }
}

template void save_checkpoint<double>(std::ostream&, const Simulation<double>&);
template void save_checkpoint<double>(const std::string&,
                                      const Simulation<double>&);
template Checkpoint<double> read_checkpoint<double>(std::istream&,
                                                    const std::string&);
template Checkpoint<double> read_checkpoint<double>(const std::string&);
template void load_checkpoint<double>(const std::string&, Simulation<double>&);
template void save_checkpoint<fixedpoint::Fixed32>(
    std::ostream&, const Simulation<fixedpoint::Fixed32>&);
template void save_checkpoint<fixedpoint::Fixed32>(
    const std::string&, const Simulation<fixedpoint::Fixed32>&);
template Checkpoint<fixedpoint::Fixed32> read_checkpoint<fixedpoint::Fixed32>(
    std::istream&, const std::string&);
template Checkpoint<fixedpoint::Fixed32> read_checkpoint<fixedpoint::Fixed32>(
    const std::string&);
template void load_checkpoint<fixedpoint::Fixed32>(
    const std::string&, Simulation<fixedpoint::Fixed32>&);

}  // namespace cmdsmc::core
