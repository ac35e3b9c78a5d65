#include "scenario/scenario.h"

#include <cmath>
#include <functional>
#include <numbers>

namespace cmdsmc::scenario {

namespace {

constexpr double kRad = std::numbers::pi / 180.0;

// --- Enum <-> string tables --------------------------------------------------

struct WallName {
  const char* name;
  geom::WallModel model;
};
constexpr WallName kWallNames[] = {
    {"specular", geom::WallModel::kSpecular},
    {"diffuse_isothermal", geom::WallModel::kDiffuseIsothermal},
    {"diffuse_adiabatic", geom::WallModel::kDiffuseAdiabatic},
};

geom::WallModel parse_wall(const std::string& key, const std::string& value) {
  for (const auto& w : kWallNames)
    if (value == w.name) return w.model;
  cli::throw_bad_choice(key, value,
                        {"specular", "diffuse_isothermal", "diffuse_adiabatic"});
}

struct BodyKindName {
  const char* name;
  BodyKind kind;
};
constexpr BodyKindName kBodyKindNames[] = {
    {"none", BodyKind::kNone},           {"wedge", BodyKind::kWedge},
    {"flat_plate", BodyKind::kFlatPlate}, {"cylinder", BodyKind::kCylinder},
    {"biconic", BodyKind::kBiconic},
};

BodyKind parse_body_kind(const std::string& key, const std::string& value) {
  std::vector<std::string> choices;
  for (const auto& k : kBodyKindNames) {
    if (value == k.name) return k.kind;
    choices.push_back(k.name);
  }
  cli::throw_bad_choice(key, value, choices);
}

// --- Override table ----------------------------------------------------------

struct OverrideEntry {
  const char* key;
  const char* help;
  std::function<void(ScenarioSpec&, const std::string&, const std::string&)>
      apply;
};

// Shorthand builders for the table below.
auto set_int(int core::SimConfig::* field) {
  return [field](ScenarioSpec& s, const std::string& k, const std::string& v) {
    s.config.*field = cli::parse_int(k, v);
  };
}
auto set_double(double core::SimConfig::* field) {
  return [field](ScenarioSpec& s, const std::string& k, const std::string& v) {
    s.config.*field = cli::parse_double(k, v);
  };
}
auto set_bool(bool core::SimConfig::* field) {
  return [field](ScenarioSpec& s, const std::string& k, const std::string& v) {
    s.config.*field = cli::parse_bool(k, v);
  };
}
// --- Per-body override table -------------------------------------------------
// Body factory parameters are addressed as body.<key> (body 0) or
// body<N>.<key> (scene body N, the list growing on first mention), so the
// same table serves every body of a multi-body scene.

struct BodyOverrideEntry {
  const char* key;  // suffix after "bodyN."
  const char* help;
  std::function<void(BodySpec&, const std::string&, const std::string&)> apply;
};

auto set_body_double(double BodySpec::* field) {
  return [field](BodySpec& b, const std::string& k, const std::string& v) {
    b.*field = cli::parse_double(k, v);
  };
}

const std::vector<BodyOverrideEntry>& body_override_table() {
  static const std::vector<BodyOverrideEntry> table = {
      {"kind", "body: none|wedge|flat_plate|cylinder|biconic",
       [](BodySpec& b, const std::string& k, const std::string& v) {
         b.kind = parse_body_kind(k, v);
       }},
      {"x0", "body anchor x (leading edge / centre / nose)",
       set_body_double(&BodySpec::x0)},
      {"y0", "body anchor y", set_body_double(&BodySpec::y0)},
      {"chord", "wedge base / plate chord", set_body_double(&BodySpec::chord)},
      {"thickness", "plate thickness", set_body_double(&BodySpec::thickness)},
      {"angle_deg", "wedge angle (degrees)",
       set_body_double(&BodySpec::angle_deg)},
      {"incidence_deg", "plate incidence (degrees)",
       set_body_double(&BodySpec::incidence_deg)},
      {"radius", "cylinder radius", set_body_double(&BodySpec::radius)},
      {"facets", "cylinder facet count",
       [](BodySpec& b, const std::string& k, const std::string& v) {
         b.facets = cli::parse_int(k, v);
       }},
      {"len1", "biconic fore-cone length", set_body_double(&BodySpec::len1)},
      {"angle1_deg", "biconic fore-cone half-angle (degrees)",
       set_body_double(&BodySpec::angle1_deg)},
      {"len2", "biconic aft-cone length", set_body_double(&BodySpec::len2)},
      {"angle2_deg", "biconic aft-cone half-angle (degrees)",
       set_body_double(&BodySpec::angle2_deg)},
      {"wall", "body wall model: specular|diffuse_isothermal|"
               "diffuse_adiabatic",
       [](BodySpec& b, const std::string& k, const std::string& v) {
         b.wall = parse_wall(k, v);
       }},
      {"twall", "body wall temperature as T_wall / T_inf",
       [](BodySpec& b, const std::string& k, const std::string& v) {
         b.wall_temperature_ratio = cli::parse_double(k, v);
       }},
  };
  return table;
}

// Scene bodies addressable through overrides; a backstop against typo'd
// indices allocating absurd lists, not a geometric limit.
constexpr std::size_t kMaxOverrideBodies = 16;

// Parses "body.<suffix>" / "body<N>.<suffix>".  Returns false when the key
// is not body-addressed at all; throws on a valid body prefix with an
// unknown suffix or out-of-range index.
bool apply_body_override(ScenarioSpec& spec, const std::string& key,
                         const std::string& value) {
  if (key.rfind("body", 0) != 0) return false;
  std::size_t i = 4;
  std::size_t index = 0;
  bool has_digits = false;
  while (i < key.size() && key[i] >= '0' && key[i] <= '9') {
    index = index * 10 + static_cast<std::size_t>(key[i] - '0');
    has_digits = true;
    ++i;
    if (index > 1000) break;  // overflow guard; rejected below anyway
  }
  if (i >= key.size() || key[i] != '.') return false;
  if (has_digits && index >= kMaxOverrideBodies)
    throw cli::ArgError(key + ": body index " + std::to_string(index) +
                        " out of range (max " +
                        std::to_string(kMaxOverrideBodies - 1) + ")");
  const std::string suffix = key.substr(i + 1);
  for (const BodyOverrideEntry& e : body_override_table()) {
    if (suffix == e.key) {
      while (index >= spec.bodies.size()) {
        // Bodies appended after a global `twall=` override must still
        // inherit it (the CLI is otherwise silently order-dependent); a
        // later bodyN.twall= still wins.
        BodySpec fresh;
        fresh.wall_temperature_ratio = spec.wall_temperature_ratio;
        spec.bodies.push_back(fresh);
      }
      e.apply(spec.bodies[index], key, value);
      return true;
    }
  }
  std::string keys;
  for (const BodyOverrideEntry& e : body_override_table()) {
    if (!keys.empty()) keys += ", ";
    keys += e.key;
  }
  throw cli::ArgError("unknown body key '" + key + "'; body" +
                      (has_digits ? std::to_string(index) : std::string()) +
                      ".<key> accepts: " + keys);
}

const std::vector<OverrideEntry>& override_table() {
  static const std::vector<OverrideEntry> table = {
      // --- Domain ---
      {"nx", "grid cells in x", set_int(&core::SimConfig::nx)},
      {"ny", "grid cells in y", set_int(&core::SimConfig::ny)},
      {"nz", "grid cells in z (0 = 2D)", set_int(&core::SimConfig::nz)},
      {"axisymmetric",
       "axisymmetric (z-r) mode: y is radius, radially weighted particles "
       "(2D only, generalized bodies centred on r=0)",
       set_bool(&core::SimConfig::axisymmetric)},
      // --- Freestream ---
      {"mach", "freestream Mach number", set_double(&core::SimConfig::mach)},
      {"sigma", "freestream thermal std dev (cells/step)",
       set_double(&core::SimConfig::sigma)},
      {"lambda_inf", "freestream mean free path (cells; 0 = near continuum)",
       set_double(&core::SimConfig::lambda_inf)},
      {"particles_per_cell", "freestream particles per cell",
       set_double(&core::SimConfig::particles_per_cell)},
      {"reservoir_fraction", "extra particles parked in the reservoir",
       set_double(&core::SimConfig::reservoir_fraction)},
      // --- The paper's wedge (the body when no body.* is given) ---
      {"has_wedge", "enable the paper's wedge body",
       set_bool(&core::SimConfig::has_wedge)},
      {"wedge_x0", "wedge leading edge x (cells)",
       set_double(&core::SimConfig::wedge_x0)},
      {"wedge_base", "wedge base length (cells)",
       set_double(&core::SimConfig::wedge_base)},
      {"wedge_angle_deg", "wedge angle (degrees)",
       set_double(&core::SimConfig::wedge_angle_deg)},
      // --- Gas model ---
      {"potential", "molecular potential: maxwell|inverse_power|hard_sphere",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         if (v == "maxwell")
           s.config.gas.potential = physics::Potential::kMaxwell;
         else if (v == "inverse_power")
           s.config.gas.potential = physics::Potential::kInversePower;
         else if (v == "hard_sphere")
           s.config.gas.potential = physics::Potential::kHardSphere;
         else
           cli::throw_bad_choice(k, v,
                                 {"maxwell", "inverse_power", "hard_sphere"});
       }},
      {"alpha", "inverse-power-law exponent",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         s.config.gas.alpha = cli::parse_double(k, v);
       }},
      {"vibrational", "enable the vibrational-energy extension",
       set_bool(&core::SimConfig::vibrational)},
      {"vib_exchange_prob", "vibrational exchange probability (1/Z_v)",
       set_double(&core::SimConfig::vib_exchange_prob)},
      {"vib_init_temperature", "initial T_vib / T_inf",
       set_double(&core::SimConfig::vib_init_temperature)},
      // --- Boundaries ---
      {"closed_box", "closed specular box (no sink/source/plunger)",
       set_bool(&core::SimConfig::closed_box)},
      {"upstream", "upstream boundary: plunger|source",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         if (v == "plunger")
           s.config.upstream = geom::UpstreamMode::kPlunger;
         else if (v == "source")
           s.config.upstream = geom::UpstreamMode::kSoftSource;
         else
           cli::throw_bad_choice(k, v, {"plunger", "source"});
       }},
      {"plunger_trigger", "plunger withdrawal trigger (cells)",
       set_double(&core::SimConfig::plunger_trigger)},
      {"wall", "wall model of bodies left specular: specular|"
               "diffuse_isothermal|diffuse_adiabatic",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         s.config.wall = parse_wall(k, v);
       }},
      {"twall", "wall temperature as T_wall / T_inf (all bodies)",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         const double r = cli::parse_double(k, v);
         s.wall_temperature_ratio = r;
         for (BodySpec& b : s.bodies) b.wall_temperature_ratio = r;
       }},
      {"wall_sigma", "diffuse-wall thermal std dev (overrides twall)",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         s.wall_sigma_override = cli::parse_double(k, v);
       }},
      // --- Algorithm knobs ---
      {"sort_scale", "cell-key scale factor for sort randomization",
       set_int(&core::SimConfig::sort_scale)},
      {"randomize_sort", "randomize the sort key",
       set_bool(&core::SimConfig::randomize_sort)},
      {"transpositions_per_collision", "post-collision transpositions",
       set_int(&core::SimConfig::transpositions_per_collision)},
      {"rounding", "fixed-point rounding: stochastic|truncate",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         if (v == "stochastic")
           s.config.rounding = core::Rounding::kStochastic;
         else if (v == "truncate")
           s.config.rounding = core::Rounding::kTruncate;
         else
           cli::throw_bad_choice(k, v, {"stochastic", "truncate"});
       }},
      {"rng_mode", "low-impact random bits: counter|dirty",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         if (v == "counter")
           s.config.rng_mode = core::RngMode::kCounter;
         else if (v == "dirty")
           s.config.rng_mode = core::RngMode::kDirty;
         else
           cli::throw_bad_choice(k, v, {"counter", "dirty"});
       }},
      {"reservoir_collisions", "collide reservoir particles",
       set_bool(&core::SimConfig::reservoir_collisions)},
      // --- Cell-block sharding / load balancing ---
      {"shard.per_lane", "shards per lane (shards = lanes * this)",
       set_int(&core::SimConfig::shard_per_lane)},
      {"shard.threshold", "predicted max/mean imbalance repartition trigger",
       set_double(&core::SimConfig::shard_rebalance_threshold)},
      {"shard.interval", "min steps between repartitions",
       set_int(&core::SimConfig::shard_rebalance_interval)},
      {"shard.collide_weight", "pair-vs-particle cost blend",
       set_double(&core::SimConfig::shard_collide_weight)},
      {"seed", "RNG seed (decimal or 0x hex)",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         s.config.seed = cli::parse_uint64(k, v);
       }},
      // (Body factory keys live in body_override_table(): body.* / bodyN.*)
      // --- Schedule ---
      {"steady", "fixed warmup steps before averaging",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         s.schedule.steady_steps = cli::parse_int(k, v);
       }},
      {"avg", "time-averaging steps",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         s.schedule.avg_steps = cli::parse_int(k, v);
       }},
      {"steps", "shorthand: steady=N and avg=N",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         const int n = cli::parse_int(k, v);
         s.schedule.steady_steps = n;
         s.schedule.avg_steps = n;
       }},
      {"auto_steady", "detect steady state instead of a fixed warmup",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         s.schedule.auto_steady = cli::parse_bool(k, v);
       }},
      {"max_steady", "steady-detection step cap",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         s.schedule.max_steady_steps = cli::parse_int(k, v);
       }},
      {"precision", "numeric engine: double|fixed",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         if (v == "double")
           s.schedule.precision = Precision::kDouble;
         else if (v == "fixed")
           s.schedule.precision = Precision::kFixed;
         else
           cli::throw_bad_choice(k, v, {"double", "fixed"});
       }},
      // --- Output ---
      {"out", "output file prefix",
       [](ScenarioSpec& s, const std::string&, const std::string& v) {
         s.output_prefix = v;
       }},
      {"sinks", "comma list of ascii|report|json|field_csv|surface_csv|vtk, "
                "or none",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         s.sinks.clear();
         if (v == "none") return;
         std::size_t start = 0;
         while (start <= v.size()) {
           const std::size_t comma = v.find(',', start);
           const std::string name =
               v.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
           if (name.empty()) throw cli::ArgError(k + ": empty sink name");
           s.sinks.push_back(name);
           if (comma == std::string::npos) break;
           start = comma + 1;
         }
       }},
      // --- Telemetry ---
      {"telemetry", "per-step JSONL metrics stream: a path, or 1/on for "
                    "<out>_telemetry.jsonl; 0/off disables",
       [](ScenarioSpec& s, const std::string&, const std::string& v) {
         s.telemetry_path = (v == "0" || v == "off") ? std::string() : v;
       }},
      {"trace", "Chrome trace-event spans (Perfetto): a path, or 1/on for "
                "<out>_trace.json; 0/off disables",
       [](ScenarioSpec& s, const std::string&, const std::string& v) {
         s.trace_path = (v == "0" || v == "off") ? std::string() : v;
       }},
      {"telemetry_every", "telemetry/trace recording cadence (every Nth step)",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         const int n = cli::parse_int(k, v);
         if (n < 1) throw cli::ArgError(k + ": must be >= 1");
         s.telemetry_every = n;
       }},
      {"progress", "stderr heartbeat: step, particles, us/particle, ETA",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         s.progress = cli::parse_bool(k, v);
       }},
      // --- Invariant audit ---
      {"audit", "in-situ invariant audit (needs a -DCMDSMC_AUDIT=ON build); "
                "violations abort the run",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         s.audit = cli::parse_bool(k, v);
       }},
      {"audit_every", "audit cadence (check every Nth step)",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         const int n = cli::parse_int(k, v);
         if (n < 1) throw cli::ArgError(k + ": must be >= 1");
         s.audit_every = n;
       }},
      {"audit_tol", "relative tolerance for the audit conservation checks",
       [](ScenarioSpec& s, const std::string& k, const std::string& v) {
         const double t = cli::parse_double(k, v);
         if (!(t > 0.0)) throw cli::ArgError(k + ": must be > 0");
         s.audit_tol = t;
       }},
  };
  return table;
}

// Convenience aliases accepted alongside the canonical field names.
struct Alias {
  const char* alias;
  const char* target;
};
constexpr Alias kAliases[] = {
    {"ppc", "particles_per_cell"},
    {"lambda", "lambda_inf"},
};

const OverrideEntry* find_entry(const std::string& key) {
  std::string canonical = key;
  for (const auto& a : kAliases)
    if (key == a.alias) canonical = a.target;
  for (const auto& e : override_table())
    if (canonical == e.key) return &e;
  return nullptr;
}

// --- Registry ----------------------------------------------------------------

std::vector<ScenarioSpec> make_registry() {
  std::vector<ScenarioSpec> reg;

  {
    // The paper's validation case.  The wedge is described by the config's
    // wedge fields (the Simulation runs it as a one-body scene), so the
    // Runner reproduces examples/wedge_mach4 counters bit-for-bit.
    ScenarioSpec s;
    s.name = "wedge-mach4";
    s.description =
        "Near-continuum Mach 4 flow over the paper's 30-degree wedge "
        "(figs. 1-3): oblique shock at 45 deg, 3.7x density rise";
    s.config.nx = 98;
    s.config.ny = 64;
    s.config.mach = 4.0;
    s.config.sigma = 0.09;
    s.config.lambda_inf = 0.0;
    s.config.particles_per_cell = 16.0;
    s.config.wedge_x0 = 20.0;
    s.config.wedge_base = 25.0;
    s.config.wedge_angle_deg = 30.0;
    s.schedule.steady_steps = 600;
    s.schedule.avg_steps = 600;
    s.sinks = {"ascii", "report", "json"};
    reg.push_back(s);
  }
  {
    ScenarioSpec s = reg.back();
    s.name = "wedge-mach4-rarefied";
    s.description =
        "Rarefied Mach 4 wedge, lambda_inf = 0.5 cells (figs. 4-6): wider "
        "shock, washed-out wake";
    s.config.lambda_inf = 0.5;
    reg.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "cylinder-mach10";
    s.description =
        "Mach 10 rarefied flow over a faceted circular cylinder with a "
        "diffuse-isothermal wall; stagnation Cp near the Newtonian limit";
    s.config.nx = 96;
    s.config.ny = 64;
    s.config.mach = 10.0;
    s.config.sigma = 0.12;
    s.config.lambda_inf = 0.5;
    s.config.particles_per_cell = 10.0;
    s.config.has_wedge = false;
    s.config.seed = 0xC1C1ULL;
    s.bodies[0].kind = BodyKind::kCylinder;
    s.bodies[0].x0 = 32.0;
    s.bodies[0].y0 = 32.0;
    s.bodies[0].radius = 8.0;
    s.bodies[0].facets = 36;
    s.bodies[0].wall = geom::WallModel::kDiffuseIsothermal;
    s.bodies[0].wall_temperature_ratio = 1.0;
    s.schedule.steady_steps = 400;
    s.schedule.avg_steps = 400;
    s.sinks = {"ascii", "report", "json", "surface_csv"};
    s.contour_vmax = 6.0;
    reg.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "biconic";
    s.description =
        "Mach 6 rarefied flow over a free-flying biconic (25/10 degree "
        "cones), diffuse-isothermal surface";
    s.config.nx = 120;
    s.config.ny = 64;
    s.config.mach = 6.0;
    s.config.sigma = 0.12;
    s.config.lambda_inf = 0.5;
    s.config.particles_per_cell = 8.0;
    s.config.has_wedge = false;
    s.bodies[0].kind = BodyKind::kBiconic;
    s.bodies[0].x0 = 30.0;
    s.bodies[0].y0 = 32.0;
    s.bodies[0].len1 = 20.0;
    s.bodies[0].angle1_deg = 25.0;
    s.bodies[0].len2 = 15.0;
    s.bodies[0].angle2_deg = 10.0;
    s.bodies[0].wall = geom::WallModel::kDiffuseIsothermal;
    s.schedule.steady_steps = 400;
    s.schedule.avg_steps = 400;
    s.sinks = {"ascii", "report", "json", "surface_csv"};
    s.contour_vmax = 6.0;
    reg.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "flat-plate-diffuse";
    s.description =
        "Rarefied Mach 4 flow over a thin flat plate at 10 degrees "
        "incidence with diffuse no-slip walls (paper future-work BCs)";
    s.config.nx = 98;
    s.config.ny = 64;
    s.config.mach = 4.0;
    s.config.sigma = 0.12;
    s.config.lambda_inf = 0.5;
    s.config.particles_per_cell = 12.0;
    s.config.has_wedge = false;
    s.bodies[0].kind = BodyKind::kFlatPlate;
    s.bodies[0].x0 = 30.0;
    s.bodies[0].y0 = 28.0;
    s.bodies[0].chord = 30.0;
    s.bodies[0].thickness = 2.0;
    s.bodies[0].incidence_deg = 10.0;
    s.bodies[0].wall = geom::WallModel::kDiffuseIsothermal;
    s.schedule.steady_steps = 400;
    s.schedule.avg_steps = 400;
    s.sinks = {"ascii", "report", "json", "surface_csv"};
    reg.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "duct3d";
    s.description =
        "3D duct with a 25-degree compression ramp extruded along z "
        "(paper future work); solution must be z-uniform";
    s.config.nx = 64;
    s.config.ny = 32;
    s.config.nz = 16;
    s.config.mach = 4.0;
    s.config.sigma = 0.12;
    s.config.lambda_inf = 0.5;
    s.config.particles_per_cell = 8.0;
    s.config.reservoir_fraction = 0.2;
    s.config.wedge_x0 = 16.0;
    s.config.wedge_base = 16.0;
    s.config.wedge_angle_deg = 25.0;
    s.schedule.steady_steps = 400;
    s.schedule.avg_steps = 400;
    s.sinks = {"ascii", "report", "json"};
    reg.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "reservoir-relax";
    s.description =
        "Closed box of rectangular-velocity gas relaxing to a Maxwellian "
        "through collisions (the paper's reservoir idea)";
    s.config.nx = 16;
    s.config.ny = 16;
    s.config.closed_box = true;
    s.config.has_wedge = false;
    s.config.mach = 0.01;
    s.config.sigma = 0.2;
    s.config.lambda_inf = 0.0;
    s.config.particles_per_cell = 64.0;
    s.config.reservoir_fraction = 0.0;
    s.schedule.steady_steps = 0;
    s.schedule.avg_steps = 20;
    s.schedule.rectangular_start = true;
    s.sinks = {"report", "json"};
    reg.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "tandem_cylinders";
    s.description =
        "Mach 10 rarefied flow over two cylinders in tandem (multi-body "
        "scene); per-body Cd/Cl shows the wake shielding of the aft body";
    s.config.nx = 140;
    s.config.ny = 64;
    s.config.mach = 10.0;
    s.config.sigma = 0.12;
    s.config.lambda_inf = 0.5;
    s.config.particles_per_cell = 8.0;
    s.config.has_wedge = false;
    s.config.seed = 0x7A2DE3ULL;
    s.bodies.resize(2);
    for (BodySpec& b : s.bodies) {
      b.kind = BodyKind::kCylinder;
      b.y0 = 32.0;
      b.radius = 6.0;
      b.facets = 36;
      b.wall = geom::WallModel::kDiffuseIsothermal;
      b.wall_temperature_ratio = 1.0;
    }
    s.bodies[0].x0 = 36.0;
    s.bodies[1].x0 = 92.0;
    s.schedule.steady_steps = 400;
    s.schedule.avg_steps = 400;
    s.sinks = {"ascii", "report", "json", "surface_csv"};
    s.contour_vmax = 6.0;
    reg.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "biconic_axi";
    s.description =
        "Axisymmetric Mach 6 rarefied flow over a biconic body of "
        "revolution (25/10 degree cones on the r=0 axis): radially "
        "weighted particles, true revolved-body Cd and heat flux";
    s.config.axisymmetric = true;
    s.config.nx = 120;
    s.config.ny = 48;
    s.config.mach = 6.0;
    s.config.sigma = 0.12;
    s.config.lambda_inf = 0.5;
    s.config.particles_per_cell = 8.0;
    s.config.has_wedge = false;
    s.config.seed = 0xA71B1CULL;
    s.bodies[0].kind = BodyKind::kBiconic;
    s.bodies[0].x0 = 30.0;
    s.bodies[0].y0 = 0.0;  // nose on the symmetry axis
    s.bodies[0].len1 = 20.0;
    s.bodies[0].angle1_deg = 25.0;
    s.bodies[0].len2 = 15.0;
    s.bodies[0].angle2_deg = 10.0;
    s.bodies[0].wall = geom::WallModel::kDiffuseIsothermal;
    s.schedule.steady_steps = 400;
    s.schedule.avg_steps = 400;
    s.sinks = {"ascii", "report", "json", "surface_csv"};
    s.contour_vmax = 6.0;
    reg.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "sphere_axi";
    s.description =
        "Axisymmetric Mach 6 rarefied flow over a sphere (faceted circle "
        "on the r=0 axis revolved): the canonical free-molecular-drag "
        "validation body";
    s.config.axisymmetric = true;
    s.config.nx = 80;
    s.config.ny = 32;
    s.config.mach = 6.0;
    s.config.sigma = 0.12;
    s.config.lambda_inf = 0.5;
    s.config.particles_per_cell = 8.0;
    s.config.has_wedge = false;
    s.config.seed = 0x5fe3a1ULL;
    s.bodies[0].kind = BodyKind::kCylinder;  // circle about r=0 -> sphere
    s.bodies[0].x0 = 28.0;
    s.bodies[0].y0 = 0.0;
    s.bodies[0].radius = 8.0;
    s.bodies[0].facets = 36;
    s.bodies[0].wall = geom::WallModel::kDiffuseIsothermal;
    s.bodies[0].wall_temperature_ratio = 1.0;
    s.schedule.steady_steps = 400;
    s.schedule.avg_steps = 400;
    s.sinks = {"ascii", "report", "json", "surface_csv"};
    s.contour_vmax = 6.0;
    reg.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "biconic_flare";
    s.description =
        "Mach 6 rarefied biconic with an aft flat-plate flare (multi-body "
        "scene): nose shock impinging on a downstream surface";
    s.config.nx = 140;
    s.config.ny = 64;
    s.config.mach = 6.0;
    s.config.sigma = 0.12;
    s.config.lambda_inf = 0.5;
    s.config.particles_per_cell = 8.0;
    s.config.has_wedge = false;
    s.config.seed = 0xB1F1A2ULL;
    s.bodies.resize(2);
    s.bodies[0].kind = BodyKind::kBiconic;
    s.bodies[0].x0 = 28.0;
    s.bodies[0].y0 = 36.0;
    s.bodies[0].len1 = 20.0;
    s.bodies[0].angle1_deg = 25.0;
    s.bodies[0].len2 = 15.0;
    s.bodies[0].angle2_deg = 10.0;
    s.bodies[0].wall = geom::WallModel::kDiffuseIsothermal;
    s.bodies[1].kind = BodyKind::kFlatPlate;
    s.bodies[1].x0 = 72.0;
    s.bodies[1].y0 = 18.0;
    s.bodies[1].chord = 30.0;
    s.bodies[1].thickness = 2.0;
    s.bodies[1].incidence_deg = 0.0;
    s.bodies[1].wall = geom::WallModel::kDiffuseIsothermal;
    s.schedule.steady_steps = 400;
    s.schedule.avg_steps = 400;
    s.sinks = {"ascii", "report", "json", "surface_csv"};
    s.contour_vmax = 6.0;
    reg.push_back(s);
  }
  return reg;
}

}  // namespace

const char* body_kind_name(BodyKind kind) {
  for (const auto& k : kBodyKindNames)
    if (k.kind == kind) return k.name;
  return "?";
}

// --- BodySpec ----------------------------------------------------------------

std::optional<geom::Body> BodySpec::make(double sigma_inf) const {
  std::optional<geom::Body> body;
  switch (kind) {
    case BodyKind::kNone:
      return std::nullopt;
    case BodyKind::kWedge:
      body = geom::Body::Wedge(x0, chord, angle_deg * kRad);
      break;
    case BodyKind::kFlatPlate:
      body = geom::Body::FlatPlate(x0, y0, chord, thickness,
                                   incidence_deg * kRad);
      break;
    case BodyKind::kCylinder:
      body = geom::Body::Cylinder(x0, y0, radius, facets);
      break;
    case BodyKind::kBiconic:
      body = geom::Body::Biconic(x0, y0, len1, angle1_deg * kRad, len2,
                                 angle2_deg * kRad);
      break;
  }
  if (wall != geom::WallModel::kSpecular)
    body->set_wall_model(wall, sigma_inf * std::sqrt(wall_temperature_ratio));
  return body;
}

// --- ScenarioSpec ------------------------------------------------------------

core::SimConfig ScenarioSpec::build_config() const {
  core::SimConfig cfg = config;
  // T_wall / T_inf -> wall_sigma, from the final sigma (possibly overridden);
  // an explicit wall_sigma override wins.
  cfg.set_wall_temperature_ratio(wall_temperature_ratio);
  if (wall_sigma_override) cfg.wall_sigma = *wall_sigma_override;
  std::vector<geom::Body> made;
  for (std::size_t n = 0; n < bodies.size(); ++n) {
    BodySpec b = bodies[n];
    // `body.kind=wedge` with no explicit geometry takes its geometry from
    // the config's wedge fields, so both spellings describe the same body
    // (body 0 only; extra bodies must be explicit).
    if (n == 0 && b.kind == BodyKind::kWedge && b.chord <= 0.0) {
      b.x0 = cfg.wedge_x0;
      b.chord = cfg.wedge_base;
      b.angle_deg = cfg.wedge_angle_deg;
    }
    if (auto body = b.make(cfg.sigma)) made.push_back(std::move(*body));
  }
  // First body takes the cfg.body slot; the rest form the scene list.
  cfg.body.reset();
  cfg.bodies.clear();
  if (!made.empty()) {
    cfg.body = std::move(made.front());
    cfg.bodies.assign(std::make_move_iterator(made.begin() + 1),
                      std::make_move_iterator(made.end()));
  }
  cfg.validate();
  return cfg;
}

// --- Registry ----------------------------------------------------------------

const std::vector<ScenarioSpec>& all_scenarios() {
  static const std::vector<ScenarioSpec> registry = make_registry();
  return registry;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const ScenarioSpec& s : all_scenarios())
    if (s.name == name) return &s;
  return nullptr;
}

ScenarioSpec get_scenario(const std::string& name) {
  if (const ScenarioSpec* s = find_scenario(name)) {
    ScenarioSpec copy = *s;
    if (copy.output_prefix.empty()) copy.output_prefix = copy.name;
    return copy;
  }
  std::string names;
  for (const auto& s : all_scenarios()) {
    if (!names.empty()) names += ", ";
    names += s.name;
  }
  throw cli::ArgError("unknown scenario '" + name +
                      "'; run `cmdsmc list` or pick one of: " + names);
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const ScenarioSpec& s : all_scenarios()) names.push_back(s.name);
  return names;
}

// --- Overrides ---------------------------------------------------------------

const std::vector<std::string>& override_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    for (const auto& e : override_table()) k.push_back(e.key);
    // Body factory keys, advertised in their body.* spelling (each is also
    // addressable per scene body as body<N>.*).
    for (const auto& e : body_override_table())
      k.push_back(std::string("body.") + e.key);
    return k;
  }();
  return keys;
}

std::string override_help(const std::string& key) {
  // bodyN.suffix / body.suffix routes to the body table.
  if (key.rfind("body", 0) == 0) {
    const std::size_t dot = key.find('.');
    if (dot != std::string::npos) {
      const std::string suffix = key.substr(dot + 1);
      for (const auto& e : body_override_table())
        if (suffix == e.key) return e.help;
    }
  }
  const OverrideEntry* e = find_entry(key);
  return e != nullptr ? e->help : "";
}

void apply_override(ScenarioSpec& spec, const std::string& key,
                    const std::string& value) {
  if (apply_body_override(spec, key, value)) return;
  const OverrideEntry* e = find_entry(key);
  if (e == nullptr) cli::throw_unknown_key(key, override_keys());
  e->apply(spec, key, value);
}

void apply_overrides(ScenarioSpec& spec,
                     const std::vector<cli::KeyValue>& overrides) {
  for (const cli::KeyValue& kv : overrides)
    apply_override(spec, kv.key, kv.value);
}

}  // namespace cmdsmc::scenario
