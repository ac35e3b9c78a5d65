// Figure 7: computational time per particle per time step as a function of
// the total number of particles, machine size held fixed.  On the CM-2 the
// x-axis is the virtual-processor ratio (32k..512k particles on 32k
// processors); here the machine is a fixed thread pool and the same
// amortization effect appears: per-particle time *decreases* as the
// population grows, with the largest drop at small populations.
//
// The paper ratios the time by the number of particles actually in the
// flow, ~10% less than the total; so does this bench.
//
// A second sweep holds the population fixed and scales the machine instead:
// threads 1..32.  Results land in BENCH_scaling.json — per-phase speedup,
// measured lane imbalance and the partition's predicted imbalance per
// point — which bench/check_bench.py --scaling gates: parallel efficiency
// at min(8, hardware threads), and a predicted imbalance below 1.10 at
// every point.  The JSON records hardware_threads so the gate can skip
// oversubscribed points honestly.
#include <array>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cmdp/thread_pool.h"
#include "obs/step_stats.h"

namespace {

using namespace cmdsmc;
using S = core::SimulationD;

// Per-step observer that averages the per-phase lane-imbalance gauge
// (max-lane / mean-lane busy seconds) and the partition's predicted one
// (max-lane / mean-lane particle count); attaching it also switches the
// simulation's phase timers to per-lane accumulation, which is what we
// want measured here.
struct ImbalanceProbe : obs::StepObserver {
  std::array<double, obs::StepStats::kPhases> sum{};
  double predicted_sum = 0.0;
  std::int64_t n = 0;
  void on_step(const obs::StepStats& s) override {
    for (int p = 0; p < obs::StepStats::kPhases; ++p) sum[p] += s.imbalance[p];
    predicted_sum += s.cost_imbalance;
    ++n;
  }
  double mean(int p) const {
    return n > 0 ? sum[p] / static_cast<double>(n) : 0.0;
  }
  double predicted() const {
    return n > 0 ? predicted_sum / static_cast<double>(n) : 0.0;
  }
};

struct Point {
  unsigned threads = 0;
  double wall_seconds = 0.0;
  double usec_per = 0.0;
  // move, sort, fused select+collide seconds from the phase timers.
  double phase[3] = {0.0, 0.0, 0.0};
  // Mean measured lane imbalance for the same three phases.
  double imb[3] = {0.0, 0.0, 0.0};
  // Mean predicted max/mean lane particle count of the partition.
  double predicted = 0.0;
  std::size_t total = 0, flow = 0;
};

Point run_point(core::SimConfig cfg, unsigned threads, int warmup,
                int measured) {
  cmdp::ThreadPool pool(threads);
  S sim(cfg, &pool);
  ImbalanceProbe probe;
  sim.run(warmup);
  sim.set_step_observer(&probe);  // per-lane timers on for the timed window
  sim.timers().reset();
  const auto t0 = std::chrono::steady_clock::now();
  sim.run(measured);
  const auto t1 = std::chrono::steady_clock::now();
  sim.set_step_observer(nullptr);

  Point pt;
  pt.threads = threads;
  pt.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  pt.total = sim.total_count();
  pt.flow = sim.flow_count();
  pt.usec_per = 1e6 * pt.wall_seconds /
                (static_cast<double>(pt.flow) * measured);
  pt.phase[0] = sim.phase_seconds(S::kPhaseMove);
  pt.phase[1] = sim.phase_seconds(S::kPhaseSort);
  pt.phase[2] = sim.phase_seconds(S::kPhaseSelect) +
                sim.phase_seconds(S::kPhaseCollide);
  pt.imb[0] = probe.mean(0);
  pt.imb[1] = probe.mean(1);
  pt.imb[2] = probe.mean(3);  // fused select+collide runs under "collide"
  pt.predicted = probe.predicted();
  return pt;
}

void print_point(const Point& p, const Point& ref, const char* tag) {
  const double speedup = p.wall_seconds > 0.0
                             ? ref.wall_seconds / p.wall_seconds
                             : 0.0;
  std::printf("%8u %10.3f %10.3f %8.2fx %8.1f%% %10.2f %10.4f  %s\n",
              p.threads, p.wall_seconds, p.usec_per, speedup,
              100.0 * speedup / p.threads, p.imb[2], p.predicted, tag);
}

void json_point(std::FILE* f, const Point& p, const Point& ref,
                const char* indent) {
  const double speedup =
      p.wall_seconds > 0.0 ? ref.wall_seconds / p.wall_seconds : 0.0;
  static const char* keys[3] = {"move_bc", "sort", "select_collide"};
  std::fprintf(f, "%s{\"threads\": %u, \"wall_seconds\": %.6f, "
               "\"usec_per_particle_step\": %.6f, \"speedup\": %.4f, "
               "\"efficiency\": %.4f,\n",
               indent, p.threads, p.wall_seconds, p.usec_per, speedup,
               speedup / p.threads);
  std::fprintf(f, "%s \"phases\": {", indent);
  for (int k = 0; k < 3; ++k) {
    const double psp =
        p.phase[k] > 0.0 ? ref.phase[k] / p.phase[k] : 0.0;
    std::fprintf(f,
                 "%s\"%s\": {\"seconds\": %.6f, \"speedup\": %.4f, "
                 "\"imbalance\": %.4f}",
                 k == 0 ? "" : ", ", keys[k], p.phase[k], psp, p.imb[k]);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "%s \"partition_imbalance\": %.4f}", indent, p.predicted);
}

}  // namespace

int main() {
  const auto scale = bench::scale_from_env();
  auto& pool = cmdp::ThreadPool::global();

  // Populations chosen to mirror the paper's 32k..512k sweep.
  const double ppc_list[] = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
  const int warmup = 30;
  const int measured = scale.steady_steps / 3 + 20;

  std::printf("Figure 7: per-particle time vs total particles "
              "(%u threads, %d timed steps per point)\n",
              pool.size(), measured);
  std::printf("%12s %12s %16s %18s\n", "total", "flow", "VP ratio",
              "usec/particle/step");
  double first = 0.0, last = 0.0;
  for (double ppc : ppc_list) {
    auto cfg = bench::paper_wedge_config(scale, 0.0);
    cfg.particles_per_cell = ppc;
    core::SimulationD sim(cfg, &pool);
    sim.run(warmup);
    const auto t0 = std::chrono::steady_clock::now();
    sim.run(measured);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    const double usec_per = 1e6 * seconds /
                            (static_cast<double>(sim.flow_count()) * measured);
    const double vp =
        static_cast<double>(sim.total_count()) / pool.size() / 1000.0;
    std::printf("%12zu %12zu %13.1fk %18.3f\n", sim.total_count(),
                sim.flow_count(), vp, usec_per);
    if (first == 0.0) first = usec_per;
    last = usec_per;
  }
  std::printf("\npaper (CM-2, 32k procs): 10.5 usec @ 32k -> 7.2 usec @ 512k"
              " (1.46x drop)\n");
  std::printf("this machine:            %.2fx drop from smallest to largest"
              " population\n",
              first / last);
  std::printf("(absolute numbers are hardware-bound; the reproduced claim is"
              " the decreasing shape)\n");

  // --- Thread-scaling sweep: fixed population, machine grows ---
  const unsigned hw = std::thread::hardware_concurrency();
  const auto cfg = bench::paper_wedge_config(scale, 0.0);

  std::printf("\nThread scaling: fixed population (%u hardware threads)\n",
              hw);
  std::printf("%8s %10s %10s %9s %9s %10s %10s\n", "threads", "wall[s]",
              "usec/p/s", "speedup", "eff", "coll imb", "predicted");

  std::vector<Point> points;
  for (unsigned t : {1u, 2u, 4u, 8u, 16u, 32u}) {
    points.push_back(run_point(cfg, t, warmup, measured));
    print_point(points.back(), points.front(),
                t > hw ? "(oversubscribed)" : "");
  }

  std::FILE* f = std::fopen("BENCH_scaling.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_scaling.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fig7_scaling\",\n");
  std::fprintf(f, "  \"scenario\": \"wedge-mach4 (paper wind tunnel)\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(f, "  \"particles\": %zu,\n", points.front().total);
  std::fprintf(f, "  \"flow_particles\": %zu,\n", points.front().flow);
  std::fprintf(f, "  \"particles_per_cell\": %g,\n", cfg.particles_per_cell);
  std::fprintf(f, "  \"steps\": %d,\n", measured);
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    json_point(f, points[i], points.front(), "    ");
    std::fprintf(f, "%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"notes\": \"speedup/efficiency are vs the 1-thread "
                  "point; partition_imbalance is the count-quantile "
                  "partition's predicted max/mean lane particle count; "
                  "points past hardware_threads are oversubscribed and "
                  "informational only\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_scaling.json\n");
  return 0;
}
