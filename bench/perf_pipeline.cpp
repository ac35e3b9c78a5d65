// Machine-readable per-step pipeline benchmark.
//
// Runs the paper's wedge wind tunnel (scaled by the usual CMDSMC_* env
// knobs) through the fused step pipeline and writes BENCH_pipeline.json to
// the working directory: usec/particle/step, per-phase seconds and shares,
// thread and particle counts.  CI uploads the file as an artifact so the
// perf trajectory is tracked across PRs instead of asserted in prose.
//
// CMDSMC_TELEMETRY=<path> (and optionally CMDSMC_TRACE=<path>) attach a
// full TelemetrySession for the timed steps — the telemetry-on leg of the
// CI overhead gate (bench/check_telemetry.py --overhead).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bench_common.h"
#include "cmdp/thread_pool.h"
#include "obs/telemetry.h"

int main() {
  using namespace cmdsmc;
  using S = core::SimulationD;
  const auto scale = bench::scale_from_env();
  auto& pool = cmdp::ThreadPool::global();

  auto cfg = bench::paper_wedge_config(scale, 0.0);
  S sim(cfg, &pool);
  sim.run(40);  // warm-up: reach a representative particle distribution
  sim.timers().reset();
  const int steps = scale.steady_steps / 2 + 50;
  std::unique_ptr<obs::TelemetrySession> telemetry;
  const char* tele_path = std::getenv("CMDSMC_TELEMETRY");
  const char* trace_path = std::getenv("CMDSMC_TRACE");
  if (tele_path != nullptr || trace_path != nullptr) {
    obs::TelemetryOptions topt;
    if (tele_path != nullptr) topt.jsonl_path = tele_path;
    if (trace_path != nullptr) topt.trace_path = trace_path;
    telemetry = std::make_unique<obs::TelemetrySession>(std::move(topt));
    sim.set_step_observer(telemetry.get());
  }
  const auto wall0 = std::chrono::steady_clock::now();
  sim.run(steps);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  // Telemetry overhead, measured honestly: the phase timers cover every
  // phase scope but *not* the between-phase observer work (stats assembly,
  // JSONL formatting, trace spans, file writes), while the wall clock covers
  // both — so (wall - phases)/wall of the attached run is the observer cost
  // directly, with no differencing of two noisy process totals (a detached
  // run's gap measures 0.02%, so the residual loop overhead is negligible).
  double overhead_percent = -1.0;
  if (telemetry) {
    sim.set_step_observer(nullptr);
    telemetry->finish();
    const double phase_sum = sim.total_seconds();
    overhead_percent = wall_seconds > 0.0
                           ? 100.0 * (wall_seconds - phase_sum) / wall_seconds
                           : 0.0;
  }

  // Phase shares come from the phase timers; the headline per-particle cost
  // uses wall clock so between-phase work (including an attached telemetry
  // session's per-step emit) is charged — the timers never see it, and the
  // overhead gate would be blind on phase sums alone.
  const double total = sim.total_seconds();
  const double usec_per =
      1e6 * wall_seconds / (static_cast<double>(sim.flow_count()) * steps);
  const S::Phase phases[4] = {S::kPhaseMove, S::kPhaseSort, S::kPhaseSelect,
                              S::kPhaseCollide};
  const char* keys[4] = {"move_bc", "sort", "select", "collide"};

  std::printf("perf_pipeline: %u threads, %zu particles, %d steps\n",
              pool.size(), sim.total_count(), steps);
  bench::print_kv("usec/particle/step", usec_per);
  if (telemetry) bench::print_kv("telemetry overhead [%]", overhead_percent);
  for (int k = 0; k < 4; ++k)
    bench::print_kv(std::string(keys[k]) + " share [%]",
                    total > 0.0 ? 100.0 * sim.phase_seconds(phases[k]) / total
                                : 0.0);

  std::FILE* f = std::fopen("BENCH_pipeline.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_pipeline.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"perf_pipeline\",\n");
  std::fprintf(f, "  \"scenario\": \"wedge-mach4 (paper wind tunnel)\",\n");
  std::fprintf(f, "  \"threads\": %u,\n", pool.size());
  std::fprintf(f, "  \"particles\": %zu,\n", sim.total_count());
  std::fprintf(f, "  \"flow_particles\": %zu,\n", sim.flow_count());
  std::fprintf(f, "  \"particles_per_cell\": %g,\n", cfg.particles_per_cell);
  std::fprintf(f, "  \"steps\": %d,\n", steps);
  std::fprintf(f, "  \"total_seconds\": %.6f,\n", total);
  std::fprintf(f, "  \"wall_seconds\": %.6f,\n", wall_seconds);
  std::fprintf(f, "  \"usec_per_particle_step\": %.6f,\n", usec_per);
  std::fprintf(f, "  \"phases\": {");
  for (int k = 0; k < 4; ++k) {
    const double sec = sim.phase_seconds(phases[k]);
    std::fprintf(f, "%s\"%s\": {\"seconds\": %.6f, \"share\": %.4f}",
                 k == 0 ? "" : ", ", keys[k],
                 sec, total > 0.0 ? sec / total : 0.0);
  }
  std::fprintf(f, "},\n");
  // Fused percentage breakdown (the truthful phase split: select has been
  // fused into collide since PR 3) — baselines carry per-phase data, not
  // just the total.
  const double fused =
      sim.phase_seconds(S::kPhaseSelect) + sim.phase_seconds(S::kPhaseCollide);
  std::fprintf(f,
               "  \"phase_share_percent\": {\"move_bc\": %.2f, "
               "\"sort\": %.2f, \"select_collide\": %.2f, \"sample\": %.2f},\n",
               total > 0.0 ? 100.0 * sim.phase_seconds(S::kPhaseMove) / total
                           : 0.0,
               total > 0.0 ? 100.0 * sim.phase_seconds(S::kPhaseSort) / total
                           : 0.0,
               total > 0.0 ? 100.0 * fused / total : 0.0,
               total > 0.0 ? 100.0 * sim.phase_seconds(S::kPhaseSample) / total
                           : 0.0);
  std::fprintf(f, "  \"telemetry_attached\": %s,\n",
               telemetry ? "true" : "false");
  if (telemetry)
    std::fprintf(f, "  \"telemetry_overhead_percent\": %.3f,\n",
                 overhead_percent);
  std::fprintf(f, "  \"notes\": \"select is fused into collide; sort keys "
                  "and cell tables are produced by the move and sort phases "
                  "respectively\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_pipeline.json\n");
  return 0;
}
