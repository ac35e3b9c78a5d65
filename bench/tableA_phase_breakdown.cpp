// Table A (in-text, "Performance"): distribution of computational time
// within the algorithm, and the per-particle time.
//
// Paper (CM-2, 32k processors, 512k particles):
//   1) collisionless motion (incl. boundary conditions) -- 14%
//   2) sort                                             -- 27%
//   3) selection of collision partners                  -- 20%
//   4) collision of selected partners                   -- 39%
//   7.2 usec/particle/step; Cray-2 hand-vectorized: 0.8 usec.
#include <cstdio>

#include "bench_common.h"
#include "cmdp/thread_pool.h"

int main() {
  using namespace cmdsmc;
  using S = core::SimulationD;
  const auto scale = bench::scale_from_env();
  auto& pool = cmdp::ThreadPool::global();

  auto cfg = bench::paper_wedge_config(scale, 0.0);
  core::SimulationD sim(cfg, &pool);
  sim.run(40);  // warm-up: reach a representative particle distribution
  sim.timers().reset();
  const int steps = scale.steady_steps / 2 + 50;
  sim.run(steps);

  const double total = sim.total_seconds();
  const double usec_per =
      1e6 * total / (static_cast<double>(sim.flow_count()) * steps);
  const double paper_pct[4] = {14.0, 27.0, 20.0, 39.0};
  const S::Phase phases[4] = {S::kPhaseMove, S::kPhaseSort, S::kPhaseSelect,
                              S::kPhaseCollide};
  const char* names[4] = {"motion + boundary conditions", "sort",
                          "selection of collision partners",
                          "collision of selected partners"};
  const char* notes[4] = {"also generates the sort keys",
                          "counting sort + index scatter + gathers",
                          "fused into the collide pass (reads 0)",
                          "includes partner selection"};

  std::printf("Table A: phase breakdown (%u threads, %zu particles, %d "
              "steps)\n",
              pool.size(), sim.total_count(), steps);
  bench::print_header("phase shares [%]");
  for (int k = 0; k < 4; ++k)
    bench::print_row(names[k], paper_pct[k],
                     100.0 * sim.phase_seconds(phases[k]) / total, notes[k]);
  bench::print_header("per-particle cost [usec/particle/step]");
  bench::print_row("this machine (parallel)", 7.2, usec_per,
                   "paper value is CM-2 @ 32k procs");

  // Single-thread reference: the role the Cray-2 plays in the paper's
  // comparison (a serial/vector reference point on the same algorithm).
  cmdp::ThreadPool serial(1);
  core::SimulationD ssim(cfg, &serial);
  ssim.run(10);
  ssim.timers().reset();
  const int s_steps = steps / 8 + 10;
  ssim.run(s_steps);
  const double s_usec =
      1e6 * ssim.total_seconds() /
      (static_cast<double>(ssim.flow_count()) * s_steps);
  bench::print_row("this machine (1 thread)", 0.8, s_usec,
                   "paper value is Cray-2, 30% assembler");
  std::printf("\nparallel speedup over 1 thread: %.1fx\n", s_usec / usec_per);
  return 0;
}
