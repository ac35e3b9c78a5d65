#include "io/telemetry_jsonl.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace cmdsmc::io {

namespace {

// The fused reporting order: the zero select slot folds into collide.
struct FusedPhase {
  const char* name;
  int a;
  int b;  // -1 when the entry is a single slot
};
constexpr FusedPhase kFused[4] = {
    {"move", obs::StepStats::kMove, -1},
    {"sort", obs::StepStats::kSort, -1},
    {"select_collide", obs::StepStats::kSelect, obs::StepStats::kCollide},
    {"sample", obs::StepStats::kSample, -1},
};

void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

void telemetry_json_line(const obs::StepStats& s, std::string& out) {
  out.clear();
  append(out, "{\"step\":%lld", static_cast<long long>(s.step));
  append(out, ",\"flow\":%" PRIu64 ",\"reservoir\":%" PRIu64
              ",\"total\":%" PRIu64,
         s.flow, s.reservoir, s.total);
  append(out, ",\"weighted_census\":%.9g", s.weighted_census);
  append(out, ",\"candidates\":%" PRIu64 ",\"collisions\":%" PRIu64
              ",\"reservoir_collisions\":%" PRIu64,
         s.candidates, s.collisions, s.reservoir_collisions);
  append(out, ",\"accept_rate\":%.6g", s.accept_rate);
  append(out, ",\"removed\":%" PRIu64 ",\"injected\":%" PRIu64
              ",\"synthesized\":%" PRIu64,
         s.removed, s.injected, s.synthesized);
  append(out, ",\"cloned\":%" PRIu64 ",\"merged\":%" PRIu64, s.cloned,
         s.merged);
  append(out, ",\"wall_events\":%" PRIu64, s.wall_events);
  append(out, ",\"occ\":{\"min\":%u,\"max\":%u,\"mean\":%.6g}", s.occ_min,
         s.occ_max, s.occ_mean);
  append(out, ",\"arena_bytes\":%zu", s.arena_bytes);
  append(out, ",\"partition_imbalance\":%.6g", s.cost_imbalance);
  if (s.audit_active)
    append(out, ",\"audit\":{\"checks\":%" PRIu64 ",\"violations\":%" PRIu64
                "}",
           s.audit_checks, s.audit_violations);
  out += ",\"phase_seconds\":{";
  for (int f = 0; f < 4; ++f) {
    double sec = s.phase_seconds[kFused[f].a];
    if (kFused[f].b >= 0) sec += s.phase_seconds[kFused[f].b];
    append(out, "%s\"%s\":%.9g", f == 0 ? "" : ",", kFused[f].name, sec);
  }
  append(out, ",\"step\":%.9g}", s.step_seconds);
  append(out, ",\"lanes\":%u", s.lanes);
  out += ",\"imbalance\":{";
  for (int f = 0; f < 4; ++f) {
    // The fused pair reports the collide slot's gauge (select records no
    // time of its own).
    const int slot = kFused[f].b >= 0 ? kFused[f].b : kFused[f].a;
    append(out, "%s\"%s\":%.4g", f == 0 ? "" : ",", kFused[f].name,
           s.imbalance[slot]);
  }
  out += '}';
  out += ",\"lane_seconds\":{";
  for (int f = 0; f < 4; ++f) {
    append(out, "%s\"%s\":[", f == 0 ? "" : ",", kFused[f].name);
    for (unsigned t = 0; t < s.lanes; ++t) {
      double sec = s.lane_second(kFused[f].a, t);
      if (kFused[f].b >= 0) sec += s.lane_second(kFused[f].b, t);
      append(out, "%s%.9g", t == 0 ? "" : ",", sec);
    }
    out += ']';
  }
  out += '}';
  append(out, ",\"cum\":{\"candidates\":%" PRIu64 ",\"collisions\":%" PRIu64
              "}}",
         s.cum_candidates, s.cum_collisions);
}

std::string telemetry_json_line(const obs::StepStats& s) {
  std::string out;
  telemetry_json_line(s, out);
  return out;
}

}  // namespace cmdsmc::io
