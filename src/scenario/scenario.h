// Declarative scenario registry: scenarios are data, not main() functions.
//
// A ScenarioSpec bundles everything a run needs — the SimConfig, the body
// factory parameters, the warmup/averaging schedule and the default output
// sinks — under a stable name.  The registry is pre-populated with the
// paper's experiment matrix (wedge-mach4 continuum/rarefied, cylinder,
// biconic, flat plate, 3D duct, reservoir relaxation); examples, benches
// and the `cmdsmc` CLI all configure runs by looking a spec up and applying
// `key=value` overrides, so adding a scenario is a registry entry instead
// of ~100 lines of copied argv/loop/output boilerplate.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cli/args.h"
#include "core/config.h"
#include "geom/body.h"

namespace cmdsmc::scenario {

// Which geom::Body factory builds the scenario's body (kNone = the wedge
// described by the config's wedge fields, or no body at all when
// config.has_wedge is false).
enum class BodyKind { kNone, kWedge, kFlatPlate, kCylinder, kBiconic };

// The override-syntax name of a kind ("none", "wedge", ...); one table
// shared by parsing, error messages and `cmdsmc list/describe`.
const char* body_kind_name(BodyKind kind);

// Body factory parameters, addressable by name through overrides.  Body 0
// answers both the legacy `body.*` spelling and `body0.*`; additional scene
// bodies are addressed as `body1.*`, `body2.*`, ... (the bodies list grows
// on first mention).
struct BodySpec {
  BodyKind kind = BodyKind::kNone;
  double x0 = 0.0, y0 = 0.0;     // anchor (leading edge / centre / nose)
  double chord = 0.0;            // wedge base or plate chord
  double thickness = 0.0;        // plate thickness
  double angle_deg = 0.0;        // wedge half-angle
  double incidence_deg = 0.0;    // plate incidence to the flow
  double radius = 0.0;           // cylinder radius
  int facets = 36;               // cylinder facet count
  double len1 = 0.0, angle1_deg = 0.0;  // biconic fore cone
  double len2 = 0.0, angle2_deg = 0.0;  // biconic aft cone
  geom::WallModel wall = geom::WallModel::kSpecular;
  // T_wall / T_inf of diffuse segments; the wall standard deviation is
  // derived as sigma_inf * sqrt(ratio) in one place (build_config).
  double wall_temperature_ratio = 1.0;

  // Builds the body (nullopt for kNone).  `sigma_inf` is the freestream
  // thermal standard deviation the wall temperature ratio is referenced to.
  std::optional<geom::Body> make(double sigma_inf) const;
};

// Numeric engine for the run.
enum class Precision { kDouble, kFixed };

// Warmup -> (optional steady detection) -> averaging schedule.
struct RunSchedule {
  int steady_steps = 400;  // fixed warmup length when auto_steady is off
  int avg_steps = 400;
  // When on, the Runner watches windowed means of the flow population and
  // flow energy (core/steady.h) and starts averaging as soon as both are
  // steady, capped at max_steady_steps.
  bool auto_steady = false;
  int max_steady_steps = 4000;
  Precision precision = Precision::kDouble;
  // Replace the initial Maxwellian with the reservoir's rectangular
  // velocity distribution (the reservoir-relax scenario).
  bool rectangular_start = false;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  core::SimConfig config;  // config.body/bodies are never set here; see below
  // The scene's bodies, in order (bodies[0] fills config.body; kNone
  // entries are skipped at build time).  Never empty.
  std::vector<BodySpec> bodies{BodySpec{}};
  RunSchedule schedule;
  // T_wall / T_inf of the config's default diffuse wall; config.wall_sigma
  // is derived from the *final* sigma at build_config time, so overriding
  // sigma can no longer silently leave the wall at the 0.18 default.
  double wall_temperature_ratio = 1.0;
  std::string output_prefix;  // defaults to the scenario name
  // Default output sinks for the CLI (see runner.h make_sink): any of
  // "ascii", "report", "json", "field_csv", "surface_csv", "vtk".
  std::vector<std::string> sinks;
  // Upper end of the ASCII contour's density scale (blunt-body scenarios
  // compress past the wedge's 4.5x).
  double contour_vmax = 4.5;

  // --- Run telemetry (obs/telemetry.h; the Runner attaches the session) ---
  // JSONL metrics stream path; "1"/"on" derive <output_prefix>_telemetry
  // .jsonl; empty = off.
  std::string telemetry_path;
  // Chrome trace-event path; "1"/"on" derive <output_prefix>_trace.json.
  std::string trace_path;
  int telemetry_every = 1;  // record every Nth step
  bool progress = false;    // stderr heartbeat

  // --- Invariant audit (audit/auditor.h; the Runner attaches the auditor) ---
  bool audit = false;       // attach the in-situ invariant auditor
  int audit_every = 1;      // audit every Nth step
  double audit_tol = 1e-9;  // relative tolerance for conservation checks

  // Final SimConfig: derives the diffuse-wall sigma from the temperature
  // ratio, constructs the body, and validates.  Throws std::invalid_argument
  // on inconsistent parameters.
  core::SimConfig build_config() const;
};

// --- Registry ---------------------------------------------------------------

// The built-in scenarios, in presentation order.
const std::vector<ScenarioSpec>& all_scenarios();

// nullptr when absent.
const ScenarioSpec* find_scenario(const std::string& name);

// Copy of the named spec; throws cli::ArgError listing the valid names.
ScenarioSpec get_scenario(const std::string& name);

// --- Overrides --------------------------------------------------------------

// Every key apply_override accepts, in table order (for error messages and
// `cmdsmc describe`).  Body factory keys are listed in their `body.*`
// spelling; every one of them is equally addressable per scene body as
// `body<N>.*` (body0.* == body.*).
const std::vector<std::string>& override_keys();

// One-line description of an override key ("" for unknown keys).
std::string override_help(const std::string& key);

// Applies one key=value override onto the spec.  Unknown keys and malformed
// values throw cli::ArgError; nothing is silently ignored.
void apply_override(ScenarioSpec& spec, const std::string& key,
                    const std::string& value);

void apply_overrides(ScenarioSpec& spec,
                     const std::vector<cli::KeyValue>& overrides);

}  // namespace cmdsmc::scenario
