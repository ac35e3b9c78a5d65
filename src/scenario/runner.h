// The unified run driver: one warmup -> steady-detection -> averaging loop
// for every scenario, replacing the per-binary copies in the old examples
// and benches.  Results fan out to pluggable OutputSinks (field CSV,
// surface CSV, VTK, ASCII contour, console report, JSON summary).
#pragma once

#include <array>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cmdp/thread_pool.h"
#include "core/sampling.h"
#include "core/simulation.h"
#include "core/surface_sampling.h"
#include "scenario/scenario.h"

namespace cmdsmc::scenario {

// Everything one run produces, independent of the numeric engine.
struct RunResult {
  std::string scenario;
  core::SimConfig config;    // the final, validated configuration
  Precision precision = Precision::kDouble;

  core::FieldStats field;
  // Present when the run had a body scene (surface sampling on): the scene
  // totals (for a one-body scene: exactly that body's stats).
  std::optional<core::SurfaceStats> surface;
  // Per-body resolution of the same moments (size == scene body count;
  // empty without a scene).
  std::vector<core::SurfaceStats> surfaces;

  core::SimCounters counters;
  std::size_t flow_count = 0;
  std::size_t reservoir_count = 0;
  std::size_t total_count = 0;

  int steady_steps = 0;  // warmup steps actually run
  int avg_steps = 0;
  bool steady_detected = false;  // true when auto_steady converged early

  // Wall-clock phase breakdown (Table A order: move, sort, select, collide,
  // sample) and its sum.  The select slot reads 0 since the PR 3 fusion;
  // reporting folds it into a fused select+collide entry (see
  // select_collide_seconds) and keeps the raw slots for compat.
  std::array<double, 5> phase_seconds{};
  double total_seconds = 0.0;
  double select_collide_seconds() const {
    return phase_seconds[2] + phase_seconds[3];
  }

  // Perf summary: steps actually run (steady + avg) and the run's
  // per-particle step cost.
  std::int64_t total_steps = 0;
  double usec_per_particle_step = 0.0;

  // Predicted max/mean lane particle count of the last step's partition
  // (Simulation::partition_imbalance(); 1 on one lane).
  double imbalance = 0.0;

  // Invariant audit summary (audit=1 runs only; zeros otherwise).  A
  // completed fatal-mode run always reads violations == 0 — the first
  // violation would have thrown before the result was built.
  bool audit_enabled = false;
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;

  // Peak pressure coefficient over non-embedded segments (0 if no surface).
  double cp_max() const;
  // Same over one body's stats (shared by the per-body JSON/report output).
  static double cp_max_of(const core::SurfaceStats& s);
};

// A result consumer.  Sinks must not mutate the result.
class OutputSink {
 public:
  virtual ~OutputSink() = default;
  virtual void write(const RunResult& result) = 0;
};

// <prefix>_{density,t_total,ux,uy}.csv field dumps.
class FieldCsvSink : public OutputSink {
 public:
  explicit FieldCsvSink(std::string prefix) : prefix_(std::move(prefix)) {}
  void write(const RunResult& r) override;

 private:
  std::string prefix_;
};

// <prefix>_surface.csv per-segment coefficients (no-op without a surface).
class SurfaceCsvSink : public OutputSink {
 public:
  explicit SurfaceCsvSink(std::string prefix) : prefix_(std::move(prefix)) {}
  void write(const RunResult& r) override;

 private:
  std::string prefix_;
};

// <prefix>.vtk legacy VTK structured-points dump.
class VtkSink : public OutputSink {
 public:
  explicit VtkSink(std::string prefix) : prefix_(std::move(prefix)) {}
  void write(const RunResult& r) override;

 private:
  std::string prefix_;
};

// ASCII density contour to a stream (default std::cout).
class AsciiContourSink : public OutputSink {
 public:
  explicit AsciiContourSink(std::ostream* os = nullptr, double vmax = 4.5)
      : os_(os), vmax_(vmax) {}
  void write(const RunResult& r) override;

 private:
  std::ostream* os_;
  double vmax_;
};

// Human-readable run report: particle counts, counters, shock metrics for
// wedge scenarios, surface coefficients, phase shares.
class ConsoleReportSink : public OutputSink {
 public:
  explicit ConsoleReportSink(std::ostream* os = nullptr) : os_(os) {}
  void write(const RunResult& r) override;

 private:
  std::ostream* os_;
};

// <prefix>_summary.json machine-readable summary: configuration echoes,
// particle counts, Cd/Cl/Cp_max, incident/reflected heat split, counters
// and phase timings.
class JsonSummarySink : public OutputSink {
 public:
  explicit JsonSummarySink(std::string path) : path_(std::move(path)) {}
  void write(const RunResult& r) override;
  // Serialization shared with tests.
  static std::string to_json(const RunResult& r);

 private:
  std::string path_;
};

// Sink factory for the names accepted by the `sinks=` override: ascii,
// report, json, field_csv, surface_csv, vtk.  Throws cli::ArgError on an
// unknown name.
std::unique_ptr<OutputSink> make_sink(const std::string& name,
                                      const std::string& prefix);

// Drives one scenario end to end: build_config -> Simulation<Real> ->
// warmup (fixed or steady-detected) -> averaging with field/surface
// sampling -> RunResult -> sinks.
class Runner {
 public:
  explicit Runner(ScenarioSpec spec) : spec_(std::move(spec)) {}

  const ScenarioSpec& spec() const { return spec_; }

  void add_sink(std::unique_ptr<OutputSink> sink);
  // Instantiates spec.sinks (with spec.output_prefix) via make_sink.
  void add_spec_sinks();

  // Runs with the spec's precision.  `pool` defaults to the global pool.
  RunResult run(cmdp::ThreadPool* pool = nullptr);

 private:
  template <class Real>
  RunResult run_impl(cmdp::ThreadPool* pool);

  ScenarioSpec spec_;
  std::vector<std::unique_ptr<OutputSink>> sinks_;
};

}  // namespace cmdsmc::scenario
