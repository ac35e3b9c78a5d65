// cmdsmc_suite: the measuring program behind bench/suite/run.py.
//
// One process runs one repetition of one workload and prints one JSON line
// (the last line of stdout) with its raw measurements.  run.py spawns the
// repetitions, takes medians across them and applies the output-check
// tolerances.
//
//   cmdsmc_suite sim   [options] <scenario> [key=value ...]
//   cmdsmc_suite fleet [options] <scenario> [key=value ...] sweep:key=spec ...
//
// Options:
//   --setup-reps N     set-up repetitions; setup_s is their median (default 3)
//   --work DIR         scratch directory for checkpoints and fleet manifests
//   --trace FILE       traced run; FILE receives a Chrome trace
//
// An untraced run times each averaging step with two clock reads and does
// nothing else.  A traced run also attaches a StepObserver that keeps every
// StepStats, records in-memory spans around each public call, probes the
// primitives on inputs captured from the live state (min of N, interleaved)
// and prints the per-layer ledger.  Only public library API is used.
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/args.h"
#include "cmdp/shard.h"
#include "cmdp/sort.h"
#include "cmdp/thread_pool.h"
#include "core/checkpoint.h"
#include "core/simulation.h"
#include "fleet/scheduler.h"
#include "fleet/sweep.h"
#include "io/chrome_trace.h"
#include "io/shock_analysis.h"
#include "obs/step_stats.h"
#include "physics/collision.h"
#include "physics/theory.h"
#include "rng/rng.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace {

using namespace cmdsmc;
using Clock = std::chrono::steady_clock;
using Sim = core::SimulationD;

// Lanes of a simulation's pool, workers of a fleet (one lane each), and the
// "4t" of scaling.speedup_4t: every process keeps at most four threads busy.
constexpr unsigned kLanes = 4;
constexpr int kProbeReps = 5;          // min-of-N repetitions per probe
constexpr int kScalingPairs = 3;       // 1-lane / 4-lane window pairs
constexpr double kWindowSeconds = 0.15;  // target length of one live window
constexpr int kFleetRepAvgSteps = 300;   // step_ms percentiles need >= 300
constexpr int kFleetProbeJobs = 8;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolation percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

// Pins every thread of the process to its own CPU, round robin over the CPUs
// the process may use, main thread first.  Left alone, the guest scheduler
// of a small VM stacks freshly woken pool lanes on one CPU for seconds at a
// time, and that placement rather than the code decides the timing.  Call
// after creating threads: new threads inherit their creator's single CPU.
void pin_threads() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  std::vector<pid_t> tids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    tids.push_back(static_cast<pid_t>(std::stol(e.path().filename().string())));
  std::sort(tids.begin(), tids.end());
  for (std::size_t k = 0; k < tids.size(); ++k) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[k % cpus.size()], &one);
    sched_setaffinity(tids[k], sizeof one, &one);  // best effort
  }
}

// High-water resident set of this process image (VmHWM, KiB).  getrusage's
// maxrss would also count the image the process had before exec, i.e. the
// launcher's, which outweighs the small workloads.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0 / 1e6;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// JSON object builder for the result line; keys are internal names.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[40];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.17g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    return raw(k, buf);
  }
  Json& count(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& flag(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& obj(const std::string& k, const Json& v) { return raw(k, v.str()); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
    return *this;
  }
  std::string body_;
};

// --- Spans -------------------------------------------------------------------

// In-memory spans around the calls into the library: name, start, end and
// the enclosing span.  Written as a Chrome trace when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;  // string literal
    double start_us;
    double end_us;
    int parent;  // index into spans(), -1 at the top level
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now_us(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    open_.pop_back();
  }

  // Duration of span `id` not covered by its direct children.
  double self_us(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    double covered = 0.0;
    for (const Span& c : spans_)
      if (c.parent == id) covered += c.end_us - c.start_us;
    return (s.end_us - s.start_us) - covered;
  }
  double duration_us(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_us - s.start_us;
  }

  void write(const std::string& path) const {
    io::ChromeTraceWriter w(path);
    if (!w.ok()) throw std::runtime_error("cannot write trace " + path);
    w.thread_name(0, "cmdsmc_suite", 0);
    for (const Span& s : spans_)
      w.span(s.name, s.start_us, s.end_us - s.start_us, 0);
    w.close();
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

class StatsLog final : public obs::StepObserver {
 public:
  void on_step(const obs::StepStats& s) override { steps.push_back(s); }
  std::vector<obs::StepStats> steps;
};

// --- One simulation, constructor to validated result ------------------------

Json counters_json(const Sim& sim) {
  const core::SimCounters& c = sim.counters();
  Json j;
  j.count("step", static_cast<std::uint64_t>(sim.step_index()))
      .count("total", sim.total_count())
      .count("reservoir", sim.reservoir_count())
      .count("candidates", c.candidates)
      .count("collisions", c.collisions)
      .count("reservoir_collisions", c.reservoir_collisions)
      .count("removed", c.removed)
      .count("injected", c.injected)
      .count("synthesized", c.synthesized)
      .count("cloned", c.cloned)
      .count("merged", c.merged);
  return j;
}

struct SimOutcome {
  std::unique_ptr<Sim> sim;
  std::vector<double> setup_s;
  double time_to_solution_s = 0.0;
  std::vector<double> step_s;     // wall seconds of each averaging step
  std::vector<double> step_flow;  // flow particles after each averaging step
  int averaging_span = -1;
  double finalize_s = 0.0;
  Json outputs;  // physics numbers run.py checks against its tolerances
  Json checks;   // pass/fail decided here
  Json counters;
};

// Field/surface finalize plus the quantities the output checks read.
void finalize(const Sim& sim, const core::SimConfig& cfg, SimOutcome& o) {
  const core::FieldStats field = sim.field();
  if (const geom::Wedge* wedge = sim.wedge()) {
    namespace th = physics::theory;
    const io::ShockFit fit = io::measure_oblique_shock(field, *wedge);
    const double beta =
        th::oblique_shock_angle(cfg.wedge_angle_rad(), cfg.mach);
    o.checks.flag("shock_fit_valid", fit.valid);
    o.outputs.num("shock_angle_deg", fit.angle_deg)
        .num("shock_angle_theory_deg", beta * 180.0 / std::numbers::pi)
        .num("density_ratio", fit.density_ratio)
        .num("density_ratio_theory",
             th::oblique_shock_density_ratio(beta, cfg.mach));
  }
  if (cfg.has_body_scene()) {
    const core::SurfaceStats s = sim.surface();
    o.outputs.num("cd", s.cd).num("cl", s.cl).num(
        "cp_max", scenario::RunResult::cp_max_of(s));
  }
  // Census straight from the particle flags, against the counts the
  // simulation keeps: total == flow + reservoir.
  const auto& st = sim.particles();
  std::size_t reservoir = 0;
  for (const std::uint8_t f : st.flags)
    if ((f & core::ParticleStore<double>::kReservoirFlag) != 0) ++reservoir;
  const std::size_t flow = st.size() - reservoir;
  o.checks.flag("census", reservoir == sim.reservoir_count() &&
                              flow == sim.flow_count() &&
                              flow + reservoir == sim.total_count());
  o.counters = counters_json(sim);
}

SimOutcome simulate(const core::SimConfig& cfg, int steady, int avg,
                    cmdp::ThreadPool& pool, int setup_reps, Tracer& tracer,
                    obs::StepObserver* observer) {
  SimOutcome o;
  Clock::time_point start;
  for (int k = 0; k < setup_reps; ++k) {
    o.sim.reset();
    const Scope s(tracer, "construct");
    start = Clock::now();
    o.sim = std::make_unique<Sim>(cfg, &pool);
    o.setup_s.push_back(since(start));
  }
  Sim& sim = *o.sim;
  if (observer != nullptr) sim.set_step_observer(observer);
  {
    const Scope s(tracer, "warmup");
    for (int i = 0; i < steady; ++i) {
      const Scope st(tracer, "step");
      sim.step();
    }
  }
  sim.set_sampling(true);
  if (cfg.has_body_scene()) sim.set_surface_sampling(true);
  o.step_s.reserve(static_cast<std::size_t>(avg));
  o.step_flow.reserve(static_cast<std::size_t>(avg));
  {
    const Scope s(tracer, "averaging");
    o.averaging_span = s.id();
    for (int i = 0; i < avg; ++i) {
      const auto t0 = Clock::now();
      {
        const Scope st(tracer, "step");
        sim.step();
      }
      o.step_s.push_back(since(t0));
      o.step_flow.push_back(static_cast<double>(sim.flow_count()));
    }
  }
  if (observer != nullptr) sim.set_step_observer(nullptr);
  {
    const Scope s(tracer, "finalize");
    const auto t0 = Clock::now();
    finalize(sim, cfg, o);
    o.finalize_s = since(t0);
  }
  o.time_to_solution_s = since(start);
  return o;
}

double usec_per_particle_step(const SimOutcome& o) {
  std::vector<double> v(o.step_s.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1e6 * o.step_s[i] / std::max(1.0, o.step_flow[i]);
  return median(v);
}

// --- Per-layer ledger from the observer and the spans ------------------------

void add_step_layers(Json& layers, Json& outputs, const SimOutcome& o,
                     const StatsLog& log, std::int64_t first_avg_step,
                     const Tracer& tracer) {
  using S = obs::StepStats;
  struct Group {
    const char* name;
    std::vector<int> slots;
  };
  const std::array<Group, 4> groups = {{{"move_bc", {S::kMove}},
                                        {"sort", {S::kSort}},
                                        {"collide", {S::kSelect, S::kCollide}},
                                        {"sample", {S::kSample}}}};
  std::array<double, 4> sec{}, lane_max{}, lane_mean{};
  double particle_steps = 0.0, phase_sum = 0.0, cost_imbalance = 0.0;
  double candidates = 0.0, collisions = 0.0, wall_events = 0.0;
  double cloned = 0.0, merged = 0.0;
  std::uint64_t rep0 = 0, rep1 = 0;
  int steps = 0;
  for (const S& s : log.steps) {
    if (s.step < first_avg_step) {
      rep0 = s.repartitions;
      continue;
    }
    ++steps;
    particle_steps += static_cast<double>(s.flow);
    phase_sum += s.step_seconds;
    candidates += static_cast<double>(s.candidates);
    collisions += static_cast<double>(s.collisions + s.reservoir_collisions);
    wall_events += static_cast<double>(s.wall_events);
    cloned += static_cast<double>(s.cloned);
    merged += static_cast<double>(s.merged);
    cost_imbalance += s.cost_imbalance;
    rep1 = s.repartitions;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      double busiest = 0.0, total = 0.0;
      for (int slot : groups[g].slots)
        sec[g] += s.phase_seconds[static_cast<std::size_t>(slot)];
      for (unsigned t = 0; t < s.lanes; ++t) {
        double busy = 0.0;
        for (int slot : groups[g].slots) busy += s.lane_second(slot, t);
        busiest = std::max(busiest, busy);
        total += busy;
      }
      if (s.lanes > 0) {
        lane_max[g] += busiest;
        lane_mean[g] += total / s.lanes;
      }
    }
  }
  if (steps == 0) throw std::runtime_error("observer saw no averaging step");
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::string n = groups[g].name;
    layers.num(n + ".usec_per_particle_step", 1e6 * sec[g] / particle_steps);
    layers.num(n + ".imbalance",
               lane_mean[g] > 0.0 ? lane_max[g] / lane_mean[g] : 1.0);
  }
  double wall = 0.0;
  for (double w : o.step_s) wall += w;
  std::vector<double> step_ms(o.step_s.size());
  for (std::size_t i = 0; i < step_ms.size(); ++i)
    step_ms[i] = 1e3 * o.step_s[i];
  // Useful outcomes over attempts: flow pairs pass the eq. 8 test, reservoir
  // pairs always collide.
  layers.num("step.gap_pct", 100.0 * (wall - phase_sum) / wall)
      .num("step_ms.p50", percentile(step_ms, 0.50))
      .num("step_ms.p95", percentile(step_ms, 0.95))
      .num("collide.accept_ratio",
           candidates > 0.0 ? collisions / candidates : 0.0)
      .num("collide.ns_per_candidate",
           candidates > 0.0 ? 1e9 * sec[2] / candidates : 0.0)
      .num("geom.wall_events_per_kparticle_step",
           1e3 * wall_events / particle_steps)
      .num("axi.cloned_per_kparticle_step", 1e3 * cloned / particle_steps)
      .num("axi.merged_per_kparticle_step", 1e3 * merged / particle_steps)
      .num("shard.repartitions_per_kstep",
           1e3 * static_cast<double>(rep1 - rep0) / steps)
      .num("shard.predicted_imbalance", cost_imbalance / steps)
      .num("finalize_ms", 1e3 * o.finalize_s);

  // Attribution: phases + in-step gap account for the averaging wall clock
  // up to the loop's own overhead, the averaging span's self time.
  outputs.num("attribution_error_pct",
              100.0 * tracer.self_us(o.averaging_span) /
                  tracer.duration_us(o.averaging_span));

  // Interior fast path: flow particles sitting in interior-mask cells.
  const Sim& sim = *o.sim;
  const auto& st = sim.particles();
  const auto& mask = sim.interior_mask();
  std::size_t flow = 0, fast = 0;
  for (std::size_t i = 0; i < st.size(); ++i) {
    if ((st.flags[i] & core::ParticleStore<double>::kReservoirFlag) != 0)
      continue;
    ++flow;
    if (st.cell[i] < mask.size() && mask[st.cell[i]] != 0) ++fast;
  }
  layers.num("geom.fast_path_fraction",
             flow > 0 ? static_cast<double>(fast) / static_cast<double>(flow)
                      : 0.0);
}

// --- Primitive probes on the live state --------------------------------------

void add_primitive_probes(Json& layers, Json& checks, const Sim& sim,
                          cmdp::ThreadPool& pool, Tracer& tracer) {
  const core::SimConfig& cfg = sim.config();
  const core::ParticleStore<double>& live = sim.particles();
  const std::size_t n = live.size();

  // Sort keys as the move phase draws them: cell * scale + random sub-key.
  const auto scale = static_cast<std::uint32_t>(cfg.sort_scale);
  const auto pair_cells = static_cast<std::uint32_t>(sim.sort_counts().size());
  const std::uint32_t key_bound =
      pair_cells * scale + (cfg.axisymmetric ? 1u : 0u);
  std::vector<std::uint32_t> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = live.cell[i] * scale +
              static_cast<std::uint32_t>(rng::hash4(cfg.seed, i, 0, 0x50e7) %
                                         scale);

  core::ParticleStore<double> work, scratch;
  std::vector<double> t_plan, t_scatter;
  unsigned plan_lanes = 1;
  bool sorted = true;
  for (int r = 0; r < kProbeReps; ++r) {
    work = live;
    const Scope s(tracer, "probe.sort");
    auto t0 = Clock::now();
    const cmdp::SortPlan plan =
        cmdp::counting_sort_plan(pool, keys, key_bound);
    t_plan.push_back(since(t0));
    plan_lanes = plan.lanes;
    t0 = Clock::now();
    work.scatter_sorted(pool, keys, plan, scratch);
    t_scatter.push_back(since(t0));
    sorted = sorted && std::is_sorted(work.cell.begin(), work.cell.end());
  }
  checks.flag("probe_scatter_sorted", sorted);
  // Computed traffic of the one-pass scatter: every record field read and
  // written once, plus the key read.
  const std::size_t record =
      (7 + (live.has_z ? 1 : 0) + (live.has_vib ? 2 : 0)) * sizeof(double) +
      (live.has_weight ? sizeof(double) : 0) + sizeof(rng::PackedPerm) +
      sizeof(std::uint32_t) + sizeof(std::uint8_t) + sizeof(std::uint32_t);
  const double bytes = static_cast<double>(2 * record + sizeof(std::uint32_t));
  const double scatter_s = min_of(t_scatter);
  const auto np = static_cast<double>(n);
  layers.num("cmdp.sort_plan_us", 1e6 * min_of(t_plan))
      .num("cmdp.plan_entries_per_key",
           static_cast<double>(plan_lanes) * key_bound / np)
      .num("cmdp.scatter_ns_per_particle", 1e9 * scatter_s / np)
      .num("cmdp.scatter_bytes_per_particle", bytes)
      .num("cmdp.scatter_gbps", bytes * np / scatter_s / 1e9);

  // Shard build over the live per-cell counts, priced as update_shards does
  // at its initial collide weight.
  const auto& counts = sim.sort_counts();
  const auto ncells = static_cast<std::size_t>(sim.grid().ncells());
  std::vector<double> cost(counts.size());
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const double cnt = counts[c];
    const bool collides =
        counts[c] >= 2 && (c < ncells || cfg.reservoir_collisions);
    cost[c] = cnt + (collides ? cfg.shard_collide_weight * 0.5 * cnt : 0.0);
  }
  const unsigned lanes = pool.size();
  const unsigned nshards = lanes * static_cast<unsigned>(cfg.shard_per_lane);
  std::vector<double> t_shard;
  double sink = 0.0;
  for (int r = 0; r < 5 * kProbeReps; ++r) {
    const Scope s(tracer, "probe.shard_build");
    const auto t0 = Clock::now();
    const cmdp::ShardPlan plan = cmdp::build_shard_plan(cost, nshards, lanes);
    t_shard.push_back(since(t0));
    sink += plan.imbalance;
  }
  layers.num("cmdp.shard_build_us", 1e6 * min_of(t_shard));

  // The collision kernel alone, on neighbouring (same-cell) live velocities.
  const std::size_t pairs = std::min<std::size_t>(n / 2, std::size_t{1} << 16);
  std::vector<physics::Pair5<double>> base(pairs), kernel_work;
  std::vector<rng::PackedPerm> perms(pairs);
  std::vector<std::uint64_t> bits(pairs);
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::size_t a = 2 * k, b = 2 * k + 1;
    base[k] = {{live.ux[a], live.uy[a], live.uz[a], live.r0[a], live.r1[a]},
               {live.ux[b], live.uy[b], live.uz[b], live.r0[b], live.r1[b]}};
    perms[k] = live.perm[a];
    bits[k] = rng::hash4(cfg.seed, k, 1, 0xc011);
  }
  std::vector<double> t_kernel;
  for (int r = 0; r < kProbeReps; ++r) {
    kernel_work = base;
    const Scope s(tracer, "probe.collide_pair");
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < pairs; ++k)
      physics::collide_pair(kernel_work[k], perms[k], bits[k]);
    t_kernel.push_back(since(t0));
    sink += kernel_work[pairs - 1].a[0];
  }
  layers.num("physics.collide_pair_ns",
             1e9 * min_of(t_kernel) / static_cast<double>(pairs));
  if (!std::isfinite(sink)) throw std::runtime_error("probe produced NaN");
}

// Checkpoint round trip, then paired 1-lane / 4-lane windows started from
// the bit-identical restored state.  Consumes the live simulation.
void add_checkpoint_and_scaling(Json& layers, Json& checks,
                                std::unique_ptr<Sim> live,
                                cmdp::ThreadPool& one, cmdp::ThreadPool& wide,
                                double live_step_s, const std::string& work_dir,
                                Tracer& tracer) {
  const core::SimConfig cfg = live->config();
  const std::string path = work_dir + "/probe.ckpt";
  double save_s = 0.0;
  {
    const Scope s(tracer, "checkpoint.save");
    const auto t0 = Clock::now();
    core::save_checkpoint(path, *live);
    save_s = since(t0);
  }
  const double mb =
      static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  live.reset();

  Sim a(cfg, &one), b(cfg, &wide);
  std::vector<double> t_load;
  for (Sim* s : {&a, &b}) {
    const Scope sp(tracer, "checkpoint.load");
    const auto t0 = Clock::now();
    core::load_checkpoint(path, *s);
    t_load.push_back(since(t0));
    s->set_sampling(true);
    s->set_surface_sampling(cfg.has_body_scene());
  }
  std::filesystem::remove(path);
  layers.num("checkpoint.save_ms", 1e3 * save_s)
      .num("checkpoint.load_ms", 1e3 * min_of(t_load))
      .num("checkpoint.mb", mb);

  const int window = std::clamp(
      static_cast<int>(std::lround(kWindowSeconds / live_step_s)), 5, 200);
  std::vector<double> t_one, t_wide;
  auto run_window = [&](Sim& s, std::vector<double>& t, const char* name) {
    const Scope sp(tracer, name);
    const auto t0 = Clock::now();
    s.run(window);
    t.push_back(since(t0));
  };
  for (int p = 0; p < kScalingPairs; ++p) {
    if (p % 2 == 0) {
      run_window(a, t_one, "scaling.window_1t");
      run_window(b, t_wide, "scaling.window_4t");
    } else {
      run_window(b, t_wide, "scaling.window_4t");
      run_window(a, t_one, "scaling.window_1t");
    }
  }
  checks.flag("scaling_windows_bit_identical",
              counters_json(a).str() == counters_json(b).str());
  layers.num("scaling.speedup_4t", min_of(t_one) / min_of(t_wide));
}

// --- Fleet -------------------------------------------------------------------

struct FleetOutcome {
  std::vector<double> setup_s;
  double sweep_s = 0.0;
  double replay_s = 0.0;
  std::vector<fleet::FleetJob> jobs;
  std::vector<fleet::JobRecord> records;   // first pass, cache off
  std::vector<fleet::JobRecord> replayed;  // same sweep, cache on
};

FleetOutcome run_fleet(const fleet::SweepRequest& request,
                       const std::string& dir, int setup_reps,
                       Tracer& tracer) {
  FleetOutcome o;
  std::filesystem::remove_all(dir);
  fleet::FleetOptions opt;
  opt.fleet_threads = kLanes;
  opt.job_threads = 1;
  opt.dir = dir;
  opt.cache = false;
  for (int k = 0; k < setup_reps; ++k) {
    const Scope s(tracer, "fleet.setup");
    const auto t0 = Clock::now();
    const auto jobs = fleet::expand_sweep(request);
    const fleet::FleetScheduler scheduler(opt);
    o.setup_s.push_back(since(t0));
  }
  {
    const Scope s(tracer, "fleet.sweep");
    const auto t0 = Clock::now();
    {
      const Scope e(tracer, "expand_sweep");
      o.jobs = fleet::expand_sweep(request);
    }
    fleet::FleetScheduler scheduler(opt);
    pin_threads();
    {
      const Scope e(tracer, "submit");
      scheduler.submit(o.jobs);
    }
    {
      const Scope e(tracer, "finish");
      scheduler.finish();
    }
    o.sweep_s = since(t0);
    o.records = scheduler.records();
  }
  opt.cache = true;
  {
    const Scope s(tracer, "fleet.replay");
    const auto t0 = Clock::now();
    fleet::FleetScheduler scheduler(opt);
    pin_threads();
    scheduler.submit(fleet::expand_sweep(request));
    scheduler.finish();
    o.replay_s = since(t0);
    o.replayed = scheduler.records();
  }
  std::filesystem::remove_all(dir);
  return o;
}

bool same_metrics(const fleet::JobRecord& a, const fleet::JobRecord& b) {
  return a.index == b.index && a.cd == b.cd && a.cl == b.cl &&
         a.cp_max == b.cp_max && a.heat_total == b.heat_total &&
         a.collisions == b.collisions && a.candidates == b.candidates &&
         a.flow == b.flow && a.steps == b.steps &&
         a.usec_per_particle_step == b.usec_per_particle_step;
}

// The spec a fleet job runs (FleetScheduler::run_job resolves it the same way).
scenario::ScenarioSpec job_spec(const fleet::FleetJob& job) {
  scenario::ScenarioSpec spec = scenario::get_scenario(job.scenario);
  scenario::apply_overrides(spec, job.overrides);
  spec.config.seed = job.seed;
  return spec;
}

void add_fleet_layers(Json& layers, const FleetOutcome& f) {
  std::vector<double> job_s;
  double busy = 0.0;
  for (const fleet::JobRecord& r : f.records) {
    job_s.push_back(r.seconds);
    busy += r.seconds;
  }
  std::size_t cached = 0;
  for (const fleet::JobRecord& r : f.replayed)
    cached += r.status == fleet::JobStatus::kCached ? 1 : 0;
  const auto jobs = static_cast<double>(f.jobs.size());

  const core::SimConfig cfg = job_spec(f.jobs.front()).build_config();
  cmdp::ThreadPool one(1);
  std::vector<double> t_setup;
  for (int r = 0; r < kProbeReps; ++r) {
    const auto t0 = Clock::now();
    const Sim sim(cfg, &one);
    t_setup.push_back(since(t0));
  }
  layers.num("fleet.job_s_p50", percentile(job_s, 0.50))
      .num("fleet.job_s_p80", percentile(job_s, 0.80))
      .num("fleet.worker_busy_pct", 100.0 * busy / (kLanes * f.sweep_s))
      .num("fleet.job_setup_ms", 1e3 * min_of(t_setup))
      .num("fleet.replay_ms_per_job", 1e3 * f.replay_s / jobs)
      .num("fleet.cache_hit_ratio", static_cast<double>(cached) / jobs);
}

// --- Command line ------------------------------------------------------------

struct Options {
  std::string mode;
  int setup_reps = 3;
  std::string work = ".";
  std::string trace;
  std::string scenario;
  std::vector<std::string> tokens;  // key=value and sweep:key=spec
};

Options parse_options(int argc, char** argv) {
  if (argc < 3)
    throw cli::ArgError(
        "usage: cmdsmc_suite sim|fleet [options] <scenario> [key=value ...]");
  Options o;
  o.mode = argv[1];
  if (o.mode != "sim" && o.mode != "fleet")
    throw cli::ArgError("unknown mode '" + o.mode + "' (sim|fleet)");
  int i = 2;
  for (; i + 1 < argc && std::string(argv[i]).rfind("--", 0) == 0; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--setup-reps")
      o.setup_reps = cli::parse_int(flag, value);
    else if (flag == "--work")
      o.work = value;
    else if (flag == "--trace")
      o.trace = value;
    else
      throw cli::ArgError("unknown option " + flag);
  }
  if (i >= argc) throw cli::ArgError("missing scenario");
  if (o.setup_reps < 1) throw cli::ArgError("--setup-reps must be >= 1");
  o.scenario = argv[i++];
  for (; i < argc; ++i) o.tokens.emplace_back(argv[i]);
  return o;
}

fleet::SweepRequest sweep_request(const std::string& scenario,
                                  const std::vector<std::string>& tokens) {
  fleet::SweepRequest req;
  req.scenario = scenario;
  std::vector<std::string> fixed;
  for (const std::string& t : tokens) {
    if (fleet::is_sweep_token(t))
      req.axes.push_back(fleet::parse_sweep_axis(t));
    else
      fixed.push_back(t);
  }
  req.fixed = cli::parse_key_values(fixed);
  return req;
}

// The sim workloads' fleet-layer probe: a small seed sweep of the same
// scenario at a tiny scale, so every workload reports the fleet layer.
fleet::SweepRequest fleet_probe_request(const Options& o, std::uint64_t seed) {
  std::vector<std::string> tokens = o.tokens;
  tokens.emplace_back("ppc=2");
  tokens.emplace_back("steps=20");
  std::string axis = "sweep:seed=";
  for (int k = 0; k < kFleetProbeJobs; ++k) {
    if (k > 0) axis += ',';
    axis += std::to_string(seed + static_cast<std::uint64_t>(k));
  }
  tokens.push_back(axis);
  return sweep_request(o.scenario, tokens);
}

Json run_sim_mode(const Options& o) {
  scenario::ScenarioSpec spec = scenario::get_scenario(o.scenario);
  scenario::apply_overrides(spec, cli::parse_key_values(o.tokens));
  const core::SimConfig cfg = spec.build_config();
  Tracer tracer(!o.trace.empty());
  StatsLog log;
  Json out, layers;
  {
    cmdp::ThreadPool pool(kLanes);
    pin_threads();
    const int steady = spec.schedule.steady_steps;
    SimOutcome run =
        simulate(cfg, steady, spec.schedule.avg_steps, pool, o.setup_reps,
                 tracer, tracer.enabled() ? &log : nullptr);
    out.num("setup_s", median(run.setup_s))
        .num("time_to_solution_s", run.time_to_solution_s)
        .num("usec_per_particle_step", usec_per_particle_step(run));
    if (tracer.enabled()) {
      add_step_layers(layers, run.outputs, run, log, steady, tracer);
      cmdp::ThreadPool one(1);
      add_primitive_probes(layers, run.checks, *run.sim, pool, tracer);
      add_checkpoint_and_scaling(layers, run.checks, std::move(run.sim), one,
                                 pool, median(run.step_s), o.work, tracer);
    }
    out.obj("outputs", run.outputs).obj("checks", run.checks)
        .obj("counters", run.counters);
  }
  if (tracer.enabled()) {
    // Pools above are gone: the fleet's workers are the only lanes now.
    const Scope s(tracer, "probe.fleet");
    const FleetOutcome f = run_fleet(fleet_probe_request(o, cfg.seed),
                                     o.work + "/fleet", 1, tracer);
    add_fleet_layers(layers, f);
    tracer.write(o.trace);
  }
  return out.obj("layers", layers);
}

Json run_fleet_mode(const Options& o) {
  const fleet::SweepRequest request = sweep_request(o.scenario, o.tokens);
  Tracer tracer(!o.trace.empty());
  const FleetOutcome f =
      run_fleet(request, o.work + "/fleet", o.setup_reps, tracer);

  std::vector<double> usec;
  std::size_t done = 0, failed = 0, cached = 0, bit_equal = 0;
  double cd_sum = 0.0;
  std::uint64_t collisions = 0, candidates = 0, flow = 0;
  for (const fleet::JobRecord& r : f.records) {
    done += r.status == fleet::JobStatus::kDone ? 1 : 0;
    failed += r.status == fleet::JobStatus::kFailed ? 1 : 0;
    usec.push_back(r.usec_per_particle_step);
    cd_sum += r.cd;
    collisions += r.collisions;
    candidates += r.candidates;
    flow += r.flow;
  }
  for (std::size_t i = 0; i < f.replayed.size(); ++i) {
    const fleet::JobRecord& r = f.replayed[i];
    cached += r.status == fleet::JobStatus::kCached ? 1 : 0;
    if (i < f.records.size() && same_metrics(r, f.records[i])) ++bit_equal;
  }
  const std::size_t jobs = f.jobs.size();
  Json out, outputs, checks, counters, layers;
  out.num("setup_s", median(f.setup_s))
      .num("time_to_solution_s", f.sweep_s)
      .num("usec_per_particle_step", median(usec))
      .num("jobs_per_s", static_cast<double>(done) / f.sweep_s);
  outputs.count("jobs", jobs).count("jobs_failed", failed);
  checks.flag("jobs_done", done == jobs)
      .flag("replay_cached", cached == jobs)
      .flag("replay_bit_equal", bit_equal == jobs);
  counters.count("collisions", collisions)
      .count("candidates", candidates)
      .count("flow", flow)
      .num("cd_sum", cd_sum);

  if (tracer.enabled()) {
    add_fleet_layers(layers, f);
    // One representative job, on one lane as the fleet runs it, carries the
    // simulation layers.
    const scenario::ScenarioSpec spec = job_spec(f.jobs.front());
    const int steady = spec.schedule.steady_steps;
    StatsLog log;
    cmdp::ThreadPool one(1);
    SimOutcome run;
    {
      const Scope s(tracer, "representative_job");
      run = simulate(spec.build_config(), steady, kFleetRepAvgSteps, one, 1,
                     tracer, &log);
    }
    add_step_layers(layers, outputs, run, log, steady, tracer);
    add_primitive_probes(layers, checks, *run.sim, one, tracer);
    cmdp::ThreadPool wide(kLanes);
    pin_threads();
    add_checkpoint_and_scaling(layers, checks, std::move(run.sim), one, wide,
                               median(run.step_s), o.work, tracer);
    tracer.write(o.trace);
  }
  return out.obj("outputs", outputs).obj("checks", checks)
      .obj("counters", counters).obj("layers", layers);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    Json out = o.mode == "sim" ? run_sim_mode(o) : run_fleet_mode(o);
    out.num("peak_rss_mb", peak_rss_mb());
    std::printf("%s\n", out.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cmdsmc_suite: %s\n", e.what());
    return 3;
  }
}
