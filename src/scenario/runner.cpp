#include "scenario/runner.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "audit/auditor.h"
#include "cli/args.h"
#include "core/steady.h"
#include "io/contour.h"
#include "obs/telemetry.h"
#include "io/csv.h"
#include "io/shock_analysis.h"
#include "io/surface_csv.h"
#include "io/vtk.h"
#include "physics/theory.h"
#include "rng/rng.h"
#include "rng/samplers.h"

namespace cmdsmc::scenario {

namespace {

const char* precision_name(Precision p) {
  return p == Precision::kFixed ? "fixed" : "double";
}

// Replaces the initial Maxwellian with the reservoir's rectangular
// distribution (same variance) — what removed particles receive.
template <class Real>
void rectangular_start(core::Simulation<Real>& sim, const core::SimConfig& cfg) {
  using N = physics::Num<Real>;
  rng::SplitMix64 g(cfg.seed ^ 0x7ec7a9ULL);
  auto& s = sim.particles();
  for (std::size_t i = 0; i < s.size(); ++i) {
    s.ux[i] = N::from_double(rng::sample_rectangular(g, cfg.sigma));
    s.uy[i] = N::from_double(rng::sample_rectangular(g, cfg.sigma));
    s.uz[i] = N::from_double(rng::sample_rectangular(g, cfg.sigma));
    s.r0[i] = N::from_double(rng::sample_rectangular(g, cfg.sigma));
    s.r1[i] = N::from_double(rng::sample_rectangular(g, cfg.sigma));
  }
}

}  // namespace

double RunResult::cp_max_of(const core::SurfaceStats& s) {
  double best = 0.0;
  for (const auto& seg : s.segments)
    if (!seg.embedded && seg.cp > best) best = seg.cp;
  return best;
}

double RunResult::cp_max() const {
  return surface ? cp_max_of(*surface) : 0.0;
}

// --- Sinks -------------------------------------------------------------------

void FieldCsvSink::write(const RunResult& r) {
  // Axisymmetric runs label the transverse axis as radius.
  const char* y = r.config.axisymmetric ? "r" : "y";
  io::write_field_csv_file(prefix_ + "_density.csv", r.field, r.field.density,
                           "rho", 0, y);
  io::write_field_csv_file(prefix_ + "_t_total.csv", r.field, r.field.t_total,
                           "T", 0, y);
  io::write_field_csv_file(prefix_ + "_ux.csv", r.field, r.field.ux, "ux", 0,
                           y);
  io::write_field_csv_file(prefix_ + "_uy.csv", r.field,
                           r.field.uy, r.config.axisymmetric ? "ur" : "uy", 0,
                           y);
}

void SurfaceCsvSink::write(const RunResult& r) {
  if (!r.surface) return;
  // Multi-body scenes get the per-body layout (leading body/name columns);
  // single-body output keeps the legacy column set.
  if (r.surfaces.size() > 1)
    io::write_scene_surface_csv_file(prefix_ + "_surface.csv", r.surfaces);
  else
    io::write_surface_csv_file(prefix_ + "_surface.csv", *r.surface);
}

void VtkSink::write(const RunResult& r) {
  io::write_vtk(prefix_ + ".vtk", r.field,
                r.config.axisymmetric
                    ? r.scenario + " (axisymmetric z-r; the y axis is radius)"
                    : r.scenario);
}

void AsciiContourSink::write(const RunResult& r) {
  std::ostream& os = os_ != nullptr ? *os_ : std::cout;
  io::ContourOptions opt;
  opt.vmax = vmax_;
  if (r.config.is3d()) opt.z_plane = r.config.nz / 2;
  os << io::render_ascii(r.field, r.field.density, opt) << "\n";
}

void ConsoleReportSink::write(const RunResult& r) {
  std::ostream& os = os_ != nullptr ? *os_ : std::cout;
  std::ostringstream buf;
  char line[256];

  char zdim[16] = "";
  if (r.config.is3d()) std::snprintf(zdim, sizeof zdim, "x%d", r.config.nz);
  std::snprintf(line, sizeof line,
                "%s: %s precision, grid %dx%d%s%s, Mach %.2f, lambda_inf %g\n",
                r.scenario.c_str(), precision_name(r.precision), r.config.nx,
                r.config.ny, zdim,
                r.config.axisymmetric ? " axisymmetric (z-r)" : "",
                r.config.mach, r.config.lambda_inf);
  buf << line;
  std::snprintf(line, sizeof line,
                "particles     : %zu flow + %zu reservoir\n", r.flow_count,
                r.reservoir_count);
  buf << line;
  std::snprintf(line, sizeof line,
                "schedule      : %d steady + %d averaging steps%s\n",
                r.steady_steps, r.avg_steps,
                r.steady_detected ? " (steady state detected)" : "");
  buf << line;
  std::snprintf(line, sizeof line,
                "collisions    : %llu flow + %llu reservoir "
                "(%llu candidates)\n",
                static_cast<unsigned long long>(r.counters.collisions),
                static_cast<unsigned long long>(
                    r.counters.reservoir_collisions),
                static_cast<unsigned long long>(r.counters.candidates));
  buf << line;
  if (r.config.axisymmetric) {
    std::snprintf(line, sizeof line,
                  "weight balance: %llu cloned + %llu merged simulators\n",
                  static_cast<unsigned long long>(r.counters.cloned),
                  static_cast<unsigned long long>(r.counters.merged));
    buf << line;
  }

  // Shock metrics for 2D wedge scenarios (wedge fields or body.kind=wedge:
  // the outline comes from the config's wedge fields either way).
  if (r.config.has_wedge && !r.config.is3d()) {
    namespace th = physics::theory;
    const geom::Wedge wedge(r.config.wedge_x0, r.config.wedge_base,
                            r.config.wedge_angle_rad());
    const auto fit = io::measure_oblique_shock(r.field, wedge);
    if (fit.valid) {
      try {
        const double beta =
            th::oblique_shock_angle(r.config.wedge_angle_rad(), r.config.mach);
        std::snprintf(line, sizeof line,
                      "shock angle   : %6.2f deg (theory %6.2f)\n",
                      fit.angle_deg, beta * 180.0 / std::numbers::pi);
        buf << line;
        std::snprintf(line, sizeof line,
                      "density ratio : %6.2f     (theory %6.2f)\n",
                      fit.density_ratio,
                      th::oblique_shock_density_ratio(beta, r.config.mach));
        buf << line;
      } catch (const std::domain_error&) {
        std::snprintf(line, sizeof line,
                      "shock angle   : %6.2f deg (theory: detached)\n",
                      fit.angle_deg);
        buf << line;
      }
      std::snprintf(line, sizeof line,
                    "shock width   : %4.1f cells (vertical 10-90%%)\n",
                    fit.thickness_vertical);
      buf << line;
    } else {
      buf << "no attached oblique shock detected\n";
    }
    const auto wake = io::measure_wake(r.field, wedge);
    std::snprintf(line, sizeof line, "wake base     : %.3f (%s)\n",
                  wake.base_density,
                  wake.shock_present ? "recompression present"
                                     : "washed out");
    buf << line;
  }

  if (r.surface) {
    std::snprintf(line, sizeof line,
                  "surface       : Cd %.3f  Cl %.3f  Cp_max %.3f\n",
                  r.surface->cd, r.surface->cl, r.cp_max());
    buf << line;
    std::snprintf(line, sizeof line,
                  "wall heating  : %.4f (incident %.4f - reflected %.4f)\n",
                  r.surface->heat_total, r.surface->q_incident_total,
                  r.surface->q_reflected_total);
    buf << line;
    if (r.surfaces.size() > 1) {
      for (const core::SurfaceStats& b : r.surfaces) {
        std::snprintf(line, sizeof line,
                      "  body%d %-8s: Cd %.3f  Cl %.3f  Cp_max %.3f  "
                      "heat %.4f\n",
                      b.body_index, b.body_name.c_str(), b.cd, b.cl,
                      RunResult::cp_max_of(b), b.heat_total);
        buf << line;
      }
    }
  }

  if (r.total_seconds > 0.0) {
    // Selection has been fused into the collide pass since PR 3, so its
    // slot is 0 by design — reporting it as a real phase (as this sink
    // once did) skewed the paper comparison.  Report the fused entry.
    std::snprintf(line, sizeof line,
                  "phase shares  : move %.0f%% sort %.0f%% "
                  "select+collide %.0f%% sample %.0f%% "
                  "(select fused into collide)\n",
                  100.0 * r.phase_seconds[0] / r.total_seconds,
                  100.0 * r.phase_seconds[1] / r.total_seconds,
                  100.0 * r.select_collide_seconds() / r.total_seconds,
                  100.0 * r.phase_seconds[4] / r.total_seconds);
    buf << line;
    if (r.usec_per_particle_step > 0.0) {
      std::snprintf(line, sizeof line,
                    "perf          : %.3f us/particle/step over %lld steps\n",
                    r.usec_per_particle_step,
                    static_cast<long long>(r.total_steps));
      buf << line;
    }
  }
  os << buf.str();
}

std::string JsonSummarySink::to_json(const RunResult& r) {
  std::ostringstream os;
  os.precision(10);
  os << "{\n  \"scenario\": \"";
  os << cli::json_escape(r.scenario);
  os << "\",\n  \"precision\": \"" << precision_name(r.precision) << "\",\n";
  os << "  \"grid\": {\"nx\": " << r.config.nx << ", \"ny\": " << r.config.ny
     << ", \"nz\": " << r.config.nz << "},\n";
  os << "  \"axisymmetric\": " << (r.config.axisymmetric ? "true" : "false")
     << ",\n";
  os << "  \"mach\": " << r.config.mach
     << ",\n  \"sigma\": " << r.config.sigma
     << ",\n  \"lambda_inf\": " << r.config.lambda_inf
     << ",\n  \"particles_per_cell\": " << r.config.particles_per_cell
     << ",\n  \"seed\": " << r.config.seed << ",\n";
  os << "  \"particles\": {\"flow\": " << r.flow_count
     << ", \"reservoir\": " << r.reservoir_count
     << ", \"total\": " << r.total_count << "},\n";
  os << "  \"steps\": {\"steady\": " << r.steady_steps
     << ", \"avg\": " << r.avg_steps << ", \"steady_detected\": "
     << (r.steady_detected ? "true" : "false") << "},\n";
  os << "  \"samples\": " << r.field.samples << ",\n";
  os << "  \"counters\": {\"candidates\": " << r.counters.candidates
     << ", \"collisions\": " << r.counters.collisions
     << ", \"reservoir_collisions\": " << r.counters.reservoir_collisions
     << ", \"removed\": " << r.counters.removed
     << ", \"injected\": " << r.counters.injected
     << ", \"synthesized\": " << r.counters.synthesized
     << ", \"cloned\": " << r.counters.cloned
     << ", \"merged\": " << r.counters.merged << "},\n";
  // "select_collide" is the truthful fused entry (selection fused into the
  // collide pass since PR 3); "select" and "collide" stay as compat aliases
  // for pre-fusion consumers ("select" reads 0 by design).
  os << "  \"phase_seconds\": {\"move\": " << r.phase_seconds[0]
     << ", \"sort\": " << r.phase_seconds[1]
     << ", \"select_collide\": " << r.select_collide_seconds()
     << ", \"select\": " << r.phase_seconds[2]
     << ", \"collide\": " << r.phase_seconds[3]
     << ", \"sample\": " << r.phase_seconds[4]
     << ", \"total\": " << r.total_seconds << "},\n";
  // Per-particle cost and the phase split next to the paper's CM-2 numbers
  // (move 14 / sort 27 / select 20 / collide 39, Table A).
  const double tot = r.total_seconds > 0.0 ? r.total_seconds : 1.0;
  os << "  \"perf\": {\"usec_per_particle_step\": "
     << r.usec_per_particle_step << ", \"steps\": " << r.total_steps
     << ",\n    \"phase_share\": {\"move\": "
     << 100.0 * r.phase_seconds[0] / tot
     << ", \"sort\": " << 100.0 * r.phase_seconds[1] / tot
     << ", \"select_collide\": " << 100.0 * r.select_collide_seconds() / tot
     << ", \"sample\": " << 100.0 * r.phase_seconds[4] / tot
     << "},\n    \"paper_share\": {\"move\": 14, \"sort\": 27, "
        "\"select\": 20, \"collide\": 39},\n    \"shards\": " << r.shards
     << ", \"repartitions\": " << r.repartitions
     << ", \"imbalance\": " << r.imbalance
     << ", \"post_repartition_imbalance\": "
     << r.post_repartition_imbalance << "},\n";
  os << "  \"audit\": {\"enabled\": " << (r.audit_enabled ? "true" : "false")
     << ", \"checks\": " << r.audit_checks
     << ", \"violations\": " << r.audit_violations << "}";
  if (r.surface) {
    os << ",\n  \"surface\": {\"cd\": " << r.surface->cd
       << ", \"cl\": " << r.surface->cl << ", \"cp_max\": " << r.cp_max()
       << ", \"heat_total\": " << r.surface->heat_total
       << ", \"q_incident\": " << r.surface->q_incident_total
       << ", \"q_reflected\": " << r.surface->q_reflected_total
       << ", \"segments\": " << r.surface->segments.size();
    if (!r.surfaces.empty()) {
      // Per-body coefficients, keyed "body0", "body1", ... in scene order.
      os << ",\n    \"bodies\": [";
      for (std::size_t b = 0; b < r.surfaces.size(); ++b) {
        const core::SurfaceStats& s = r.surfaces[b];
        os << (b == 0 ? "" : ", ") << "\n      {\"id\": \"body" << b
           << "\", \"name\": \"";
        os << cli::json_escape(s.body_name);
        os << "\", \"cd\": " << s.cd << ", \"cl\": " << s.cl
           << ", \"cp_max\": " << RunResult::cp_max_of(s)
           << ", \"heat_total\": " << s.heat_total
           << ", \"segments\": " << s.segments.size() << "}";
      }
      os << "\n    ]";
    }
    os << "}";
  }
  os << "\n}\n";
  return os.str();
}

void JsonSummarySink::write(const RunResult& r) {
  std::ofstream os(path_);
  if (!os)
    throw std::runtime_error("JsonSummarySink: cannot open " + path_);
  os << to_json(r);
}

std::unique_ptr<OutputSink> make_sink(const std::string& name,
                                      const std::string& prefix) {
  if (name == "ascii") return std::make_unique<AsciiContourSink>();
  if (name == "report") return std::make_unique<ConsoleReportSink>();
  if (name == "json")
    return std::make_unique<JsonSummarySink>(prefix + "_summary.json");
  if (name == "field_csv") return std::make_unique<FieldCsvSink>(prefix);
  if (name == "surface_csv") return std::make_unique<SurfaceCsvSink>(prefix);
  if (name == "vtk") return std::make_unique<VtkSink>(prefix);
  cli::throw_bad_choice(
      "sinks", name,
      {"ascii", "report", "json", "field_csv", "surface_csv", "vtk"});
}

// --- Runner ------------------------------------------------------------------

void Runner::add_sink(std::unique_ptr<OutputSink> sink) {
  sinks_.push_back(std::move(sink));
}

void Runner::add_spec_sinks() {
  const std::string prefix =
      spec_.output_prefix.empty() ? spec_.name : spec_.output_prefix;
  for (const std::string& name : spec_.sinks) {
    // The ASCII contour takes the spec's density scale (blunt bodies
    // compress past the generic 4.5x default).
    if (name == "ascii")
      add_sink(std::make_unique<AsciiContourSink>(nullptr,
                                                  spec_.contour_vmax));
    else
      add_sink(make_sink(name, prefix));
  }
}

template <class Real>
RunResult Runner::run_impl(cmdp::ThreadPool* pool) {
  RunResult result;
  result.scenario = spec_.name;
  result.precision = spec_.schedule.precision;
  result.config = spec_.build_config();
  const core::SimConfig& cfg = result.config;

  core::Simulation<Real> sim(cfg, pool);
  if (spec_.schedule.rectangular_start) rectangular_start(sim, cfg);

  // Run telemetry: stream per-step metrics / trace spans / the progress
  // heartbeat through a StepObserver for the whole warmup + averaging run.
  std::unique_ptr<obs::TelemetrySession> telemetry;
  if (!spec_.telemetry_path.empty() || !spec_.trace_path.empty() ||
      spec_.progress) {
    const std::string prefix =
        spec_.output_prefix.empty() ? spec_.name : spec_.output_prefix;
    obs::TelemetryOptions topt;
    topt.jsonl_path = spec_.telemetry_path == "1" || spec_.telemetry_path == "on"
                          ? prefix + "_telemetry.jsonl"
                          : spec_.telemetry_path;
    topt.trace_path = spec_.trace_path == "1" || spec_.trace_path == "on"
                          ? prefix + "_trace.json"
                          : spec_.trace_path;
    topt.every = spec_.telemetry_every;
    topt.progress = spec_.progress;
    topt.expected_steps =
        (spec_.schedule.auto_steady ? spec_.schedule.max_steady_steps
                                    : spec_.schedule.steady_steps) +
        spec_.schedule.avg_steps;
    telemetry = std::make_unique<obs::TelemetrySession>(std::move(topt));
    if (!telemetry->ok())
      throw std::runtime_error("telemetry: cannot open output file");
    sim.set_step_observer(telemetry.get());
  }

  // Invariant audit: attach the in-situ auditor.  Usage error (exit 2), not
  // a silent no-op, when the build compiled the step-loop hooks out.
  std::unique_ptr<audit::Auditor<Real>> auditor;
  if (spec_.audit) {
    if (!audit::kAuditCompiled)
      throw cli::ArgError(
          "audit=1 requires an audit-enabled build (configure with "
          "-DCMDSMC_AUDIT=ON)");
    audit::AuditOptions aopt;
    aopt.every = spec_.audit_every;
    aopt.tol = spec_.audit_tol;
    auditor = std::make_unique<audit::Auditor<Real>>(aopt);
    sim.set_auditor(auditor.get());
  }

  // Warmup: fixed length, or adaptive via windowed means of the flow
  // population and flow energy (both must settle).
  if (spec_.schedule.auto_steady) {
    core::SteadyDetector count_det(50, 0.01, 3);
    core::SteadyDetector energy_det(10, 0.01, 3);
    int steps = 0;
    while (steps < spec_.schedule.max_steady_steps) {
      sim.step();
      ++steps;
      const bool count_ok =
          count_det.push(static_cast<double>(sim.flow_count()));
      // The energy sum is O(N); sample it every 10 steps.
      if (steps % 10 == 0) energy_det.push(sim.flow_energy());
      if (count_ok && energy_det.steady()) {
        result.steady_detected = true;
        break;
      }
    }
    result.steady_steps = steps;
  } else {
    sim.run(spec_.schedule.steady_steps);
    result.steady_steps = spec_.schedule.steady_steps;
  }

  sim.set_sampling(true);
  if (cfg.has_body_scene()) sim.set_surface_sampling(true);
  sim.run(spec_.schedule.avg_steps);
  result.avg_steps = spec_.schedule.avg_steps;

  result.field = sim.field();
  if (cfg.has_body_scene()) {
    result.surface = sim.surface();
    result.surfaces = sim.surface_per_body();
  }
  result.counters = sim.counters();
  result.flow_count = sim.flow_count();
  result.reservoir_count = sim.reservoir_count();
  result.total_count = sim.total_count();
  using Sim = core::Simulation<Real>;
  result.phase_seconds = {sim.phase_seconds(Sim::kPhaseMove),
                          sim.phase_seconds(Sim::kPhaseSort),
                          sim.phase_seconds(Sim::kPhaseSelect),
                          sim.phase_seconds(Sim::kPhaseCollide),
                          sim.phase_seconds(Sim::kPhaseSample)};
  result.total_seconds = sim.total_seconds();
  const auto shard_stats = sim.shard_stats();
  result.shards = shard_stats.shards;
  result.repartitions = shard_stats.repartitions;
  result.imbalance = shard_stats.cost_imbalance;
  result.post_repartition_imbalance = shard_stats.post_imbalance;
  result.total_steps = result.steady_steps + result.avg_steps;
  if (result.total_steps > 0 && result.total_count > 0)
    result.usec_per_particle_step =
        result.total_seconds * 1e6 /
        (static_cast<double>(result.total_steps) *
         static_cast<double>(result.total_count));

  if (auditor) {
    result.audit_enabled = true;
    result.audit_checks = auditor->counters().total_checks();
    result.audit_violations = auditor->counters().total_violations();
    sim.set_auditor(nullptr);
  }

  if (telemetry) {
    sim.set_step_observer(nullptr);
    telemetry->finish();
  }

  for (auto& sink : sinks_) sink->write(result);
  return result;
}

RunResult Runner::run(cmdp::ThreadPool* pool) {
  if (spec_.schedule.precision == Precision::kFixed)
    return run_impl<fixedpoint::Fixed32>(pool);
  return run_impl<double>(pool);
}

}  // namespace cmdsmc::scenario
