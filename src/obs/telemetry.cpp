#include "obs/telemetry.h"

#include <cstdio>
#include <iostream>

#include "io/telemetry_jsonl.h"

namespace cmdsmc::obs {

namespace {

// Trace track ids: the control thread's phase spans on track 0, one track
// per lane starting at 100 (the gap keeps future control-side tracks from
// colliding with lane tracks).
constexpr int kControlTrack = 0;
constexpr int kLaneTrackBase = 100;

}  // namespace

TelemetrySession::TelemetrySession(TelemetryOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.every < 1) opts_.every = 1;
  if (!opts_.jsonl_path.empty()) {
    jsonl_.open(opts_.jsonl_path, std::ios::out | std::ios::trunc);
    if (!jsonl_.is_open()) ok_ = false;
  }
  if (!opts_.trace_path.empty()) {
    trace_.open(opts_.trace_path);
    if (!trace_.ok()) ok_ = false;
  }
}

TelemetrySession::~TelemetrySession() { finish(); }

bool TelemetrySession::wants_step(std::int64_t step) const {
  if (finished_) return false;
  // The heartbeat needs every step for exact rates; the streams record on
  // the cadence only.
  return opts_.progress || step % opts_.every == 0;
}

void TelemetrySession::on_step(const StepStats& s) {
  if (finished_) return;
  if (steps_seen_ == 0) {
    wall_start_ = Clock::now();
    last_progress_ = wall_start_ - std::chrono::hours(1);
    first_step_ = s.step;
  }
  ++steps_seen_;
  if (s.step % opts_.every == 0) {
    ++records_;
    if (jsonl_.is_open()) {
      io::telemetry_json_line(s, line_);
      line_ += '\n';
      jsonl_ << line_;
    }
    if (trace_.is_open()) write_trace(s);
  }
  if (opts_.progress) write_progress(s);
}

void TelemetrySession::write_trace(const StepStats& s) {
  if (!tracks_named_) {
    trace_.thread_name(kControlTrack, "control", 0);
    // With one lane the control track is the lane (stop() credits lane 0
    // with the full aggregate); naming a spanless lane track would just
    // leave an empty row in Perfetto.
    for (unsigned t = 0; s.lanes > 1 && t < s.lanes; ++t) {
      char name[32];
      std::snprintf(name, sizeof(name), "lane %u", t);
      trace_.thread_name(kLaneTrackBase + static_cast<int>(t), name,
                         10 + static_cast<int>(t));
    }
    tracks_named_ = true;
  }
  // The cursor is rebuilt from the recorded step durations, so the trace
  // timeline is the run's busy time over the recorded steps (gaps from the
  // cadence are compressed out).
  for (const ReportedPhase& f : StepStats::kReported) {
    const double dur = s.seconds(f);
    if (dur <= 0.0) continue;
    const double dur_us = dur * 1e6;
    trace_.span(f.name, trace_ts_us_, dur_us, kControlTrack);
    if (s.lanes > 1) {
      for (unsigned t = 0; t < s.lanes; ++t) {
        const double lt = s.lane_second(f, t);
        if (lt <= 0.0) continue;
        trace_.span(f.name, trace_ts_us_, lt * 1e6,
                    kLaneTrackBase + static_cast<int>(t));
      }
    }
    trace_ts_us_ += dur_us;
  }
}

void TelemetrySession::write_progress(const StepStats& s) {
  const Clock::time_point now = Clock::now();
  const bool last =
      opts_.expected_steps > 0 &&
      s.step - first_step_ + 1 >= opts_.expected_steps;
  if (!last && now - last_progress_ < std::chrono::seconds(1)) return;
  last_progress_ = now;
  const double elapsed =
      std::chrono::duration<double>(now - wall_start_).count();
  const double done = static_cast<double>(s.step - first_step_ + 1);
  const double usec_per_particle =
      s.total > 0 ? s.step_seconds * 1e6 / static_cast<double>(s.total) : 0.0;
  char buf[192];
  if (opts_.expected_steps > 0) {
    const double eta =
        done > 0 ? elapsed * (static_cast<double>(opts_.expected_steps) -
                              done) /
                       done
                 : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "[telemetry] step %lld/%lld  particles %llu  %.3f "
                  "us/particle  eta %.1fs\n",
                  static_cast<long long>(s.step),
                  static_cast<long long>(first_step_ + opts_.expected_steps -
                                         1),
                  static_cast<unsigned long long>(s.total), usec_per_particle,
                  eta < 0.0 ? 0.0 : eta);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "[telemetry] step %lld  particles %llu  %.3f "
                  "us/particle  elapsed %.1fs\n",
                  static_cast<long long>(s.step),
                  static_cast<unsigned long long>(s.total), usec_per_particle,
                  elapsed);
  }
  std::ostream& os =
      opts_.progress_stream != nullptr ? *opts_.progress_stream : std::cerr;
  os << buf;
  os.flush();
}

void TelemetrySession::finish() {
  if (finished_) return;
  finished_ = true;
  if (jsonl_.is_open()) jsonl_.close();
  trace_.close();
}

}  // namespace cmdsmc::obs
