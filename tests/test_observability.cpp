// The observability layer: StepStats correctness, physics invariance under
// an attached observer, per-lane timing consistency, JSONL schema, Chrome
// trace structure, and checkpoint-aware telemetry continuity.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cmdp/thread_pool.h"
#include "core/checkpoint.h"
#include "core/simulation.h"
#include "geom/body.h"
#include "io/chrome_trace.h"
#include "io/telemetry_jsonl.h"
#include "obs/step_stats.h"
#include "obs/telemetry.h"

namespace {

using namespace cmdsmc;

core::SimConfig small_cfg() {
  core::SimConfig cfg;
  cfg.nx = 40;
  cfg.ny = 24;
  cfg.wedge_x0 = 10.0;
  cfg.wedge_base = 14.0;
  cfg.wedge_angle_deg = 30.0;
  cfg.particles_per_cell = 6.0;
  cfg.lambda_inf = 0.5;
  cfg.seed = 0xabcdef12ULL;
  return cfg;
}

// Collects every StepStats verbatim.
struct Recorder : obs::StepObserver {
  std::vector<obs::StepStats> steps;
  void on_step(const obs::StepStats& s) override { steps.push_back(s); }
};

// Records only every Nth step (cadence filter as TelemetrySession uses it).
struct CadenceRecorder : obs::StepObserver {
  std::int64_t every;
  std::vector<obs::StepStats> steps;
  explicit CadenceRecorder(std::int64_t n) : every(n) {}
  bool wants_step(std::int64_t step) const override {
    return step % every == 0;
  }
  void on_step(const obs::StepStats& s) override { steps.push_back(s); }
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

template <class Real>
std::uint64_t state_hash(const core::Simulation<Real>& sim) {
  const auto& st = sim.particles();
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < st.size(); ++i) {
    h = fnv1a(h, std::bit_cast<std::uint64_t>(st.x[i]));
    h = fnv1a(h, std::bit_cast<std::uint64_t>(st.ux[i]));
    h = fnv1a(h, st.cell[i]);
    h = fnv1a(h, st.id[i]);
  }
  h = fnv1a(h, sim.counters().collisions);
  h = fnv1a(h, sim.counters().candidates);
  return h;
}

// Extracts "key":<number> from a JSON line (flat keys only).
double json_number(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto pos = line.find(pat);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + pos + pat.size(), nullptr);
}

TEST(StepStats, CensusAndDeltasMatchSimulation) {
  cmdp::ThreadPool pool(2);
  core::SimulationD sim(small_cfg(), &pool);
  Recorder rec;
  sim.set_step_observer(&rec);
  sim.run(8);
  sim.set_step_observer(nullptr);

  ASSERT_EQ(rec.steps.size(), 8u);
  // The last record's census is the simulation's state now.
  const obs::StepStats& last = rec.steps.back();
  EXPECT_EQ(last.step, 7);
  EXPECT_EQ(last.flow, sim.flow_count());
  EXPECT_EQ(last.reservoir, sim.reservoir_count());
  EXPECT_EQ(last.total, sim.total_count());
  // Planar run: weighted census == flow census, no clone/merge.
  EXPECT_DOUBLE_EQ(last.weighted_census, static_cast<double>(last.flow));
  EXPECT_EQ(last.cloned, 0u);
  EXPECT_EQ(last.merged, 0u);

  // Per-step deltas sum to the cumulative counters.
  std::uint64_t cand = 0, coll = 0, removed = 0, injected = 0;
  for (const auto& s : rec.steps) {
    cand += s.candidates;
    coll += s.collisions;
    removed += s.removed;
    injected += s.injected;
    EXPECT_GE(s.step_seconds, 0.0);
    EXPECT_GT(s.arena_bytes, 0u);
    if (s.candidates > 0) {
      EXPECT_GE(s.accept_rate, 0.0);
      EXPECT_LE(s.accept_rate, 1.0);
    }
    // Occupancy is over open cells of a populated domain.
    EXPECT_GT(s.occ_mean, 0.0);
    EXPECT_LE(s.occ_min, s.occ_max);
  }
  EXPECT_EQ(cand, sim.counters().candidates);
  EXPECT_EQ(coll, sim.counters().collisions);
  EXPECT_EQ(removed, sim.counters().removed);
  EXPECT_EQ(injected, sim.counters().injected);
  EXPECT_EQ(last.cum_candidates, sim.counters().candidates);
  EXPECT_EQ(last.cum_collisions, sim.counters().collisions);
}

TEST(StepStats, CadenceDeltasArePerStepNotPerInterval) {
  // wants_step gates the *snapshot* too: a record at cadence N still carries
  // single-step deltas, because begin_observed_step only runs on observed
  // steps and the deltas difference that step alone.
  cmdp::ThreadPool pool(1);
  core::SimulationD sim_a(small_cfg(), &pool);
  Recorder all;
  sim_a.set_step_observer(&all);
  sim_a.run(9);
  sim_a.set_step_observer(nullptr);

  core::SimulationD sim_b(small_cfg(), &pool);
  CadenceRecorder every3(3);
  sim_b.set_step_observer(&every3);
  sim_b.run(9);
  sim_b.set_step_observer(nullptr);

  ASSERT_EQ(every3.steps.size(), 3u);
  for (const auto& s : every3.steps) {
    ASSERT_LT(static_cast<std::size_t>(s.step), all.steps.size());
    const auto& full = all.steps[static_cast<std::size_t>(s.step)];
    EXPECT_EQ(s.candidates, full.candidates) << "step " << s.step;
    EXPECT_EQ(s.collisions, full.collisions) << "step " << s.step;
    EXPECT_EQ(s.flow, full.flow) << "step " << s.step;
  }
}

TEST(StepStats, ObserverDoesNotPerturbPhysics) {
  cmdp::ThreadPool pool(3);
  core::SimulationD bare(small_cfg(), &pool);
  bare.run(12);

  cmdp::ThreadPool pool2(3);
  core::SimulationD observed(small_cfg(), &pool2);
  Recorder rec;
  observed.set_step_observer(&rec);
  observed.run(12);
  observed.set_step_observer(nullptr);

  EXPECT_EQ(state_hash(bare), state_hash(observed));
}

TEST(StepStats, LaneSecondsSingleThreadEqualsAggregate) {
  cmdp::ThreadPool pool(1);
  core::SimulationD sim(small_cfg(), &pool);
  Recorder rec;
  sim.set_step_observer(&rec);
  sim.run(5);
  sim.set_step_observer(nullptr);

  for (const auto& s : rec.steps) {
    ASSERT_EQ(s.lanes, 1u);
    for (int p = 0; p < obs::StepStats::kPhases; ++p) {
      // With one lane the timer credits lane 0 with the full aggregate.
      EXPECT_DOUBLE_EQ(s.lane_second(p, 0), s.phase_seconds[p])
          << obs::StepStats::phase_name(p);
    }
  }
}

TEST(StepStats, LaneSecondsMultiThreadBoundedByAggregate) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(small_cfg(), &pool);
  Recorder rec;
  sim.set_step_observer(&rec);
  sim.run(6);
  sim.set_step_observer(nullptr);

  for (const auto& s : rec.steps) {
    ASSERT_EQ(s.lanes, 4u);
    for (int p = 0; p < obs::StepStats::kPhases; ++p) {
      double lane_sum = 0.0, lane_max = 0.0;
      for (unsigned t = 0; t < s.lanes; ++t) {
        const double v = s.lane_second(p, t);
        EXPECT_GE(v, 0.0);
        lane_sum += v;
        lane_max = std::max(lane_max, v);
      }
      // Serial sections (small-N cutoffs) run outside the pool, so lane
      // time can undershoot the aggregate but never exceed the aggregate
      // times the lane count (plus timer-resolution slack).
      EXPECT_LE(lane_sum,
                s.phase_seconds[p] * s.lanes * (1.0 + 0.25) + 1e-4)
          << obs::StepStats::phase_name(p);
      // A lane cannot be busy longer than the phase's wall time (slack for
      // clock resolution).
      EXPECT_LE(lane_max, s.phase_seconds[p] + 1e-3);
      if (lane_sum > 0.0) {
        EXPECT_GT(s.imbalance[p], 0.0);
      }
    }
  }
}

TEST(StepStats, ShardMetricsReportPlanAndImbalancePair) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(small_cfg(), &pool);
  Recorder rec;
  sim.set_step_observer(&rec);
  sim.run(10);
  sim.set_step_observer(nullptr);

  // Every step reports its own partition's predicted max/mean lane count:
  // count-quantile blocks over four lanes sit within a few percent of 1.
  for (const auto& s : rec.steps) {
    EXPECT_GE(s.cost_imbalance, 1.0) << "step " << s.step;
    EXPECT_LT(s.cost_imbalance, 1.10) << "step " << s.step;
    EXPECT_EQ(s.repartitions, 0u);
  }
  EXPECT_EQ(rec.steps.back().cost_imbalance, sim.partition_imbalance());

  // Single lane: one block holds every particle, exactly balanced.
  cmdp::ThreadPool serial(1);
  core::SimulationD ssim(small_cfg(), &serial);
  Recorder srec;
  ssim.set_step_observer(&srec);
  ssim.run(3);
  ssim.set_step_observer(nullptr);
  for (const auto& s : srec.steps) EXPECT_EQ(s.cost_imbalance, 1.0);
}

TEST(TelemetryJsonl, LineCarriesFullSchema) {
  cmdp::ThreadPool pool(2);
  core::SimulationD sim(small_cfg(), &pool);
  Recorder rec;
  sim.set_step_observer(&rec);
  sim.run(3);
  sim.set_step_observer(nullptr);

  const std::string line = io::telemetry_json_line(rec.steps.back());
  for (const char* key :
       {"step", "flow", "reservoir", "total", "weighted_census",
        "candidates", "collisions", "reservoir_collisions", "accept_rate",
        "removed", "injected", "synthesized", "cloned", "merged",
        "wall_events", "occ", "arena_bytes", "partition_imbalance",
        "phase_seconds", "lanes", "imbalance", "cum", "move", "sort",
        "select_collide", "sample"}) {
    EXPECT_NE(line.find(std::string("\"") + key + "\""), std::string::npos)
        << "missing key " << key << " in: " << line;
  }
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  // Braces and brackets balance (cheap well-formedness check without a
  // JSON parser; CI runs the real validator in bench/check_telemetry.py).
  int depth = 0;
  for (char c : line) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json_number(line, "step"), 2.0);
  EXPECT_EQ(json_number(line, "total"),
            static_cast<double>(sim.total_count()));
}

TEST(ChromeTrace, WriterProducesBalancedEventArray) {
  const char* path = "trace_writer_test.json";
  {
    io::ChromeTraceWriter w;
    w.open(path);
    ASSERT_TRUE(w.is_open());
    w.thread_name(0, "control", 0);
    w.thread_name(100, "lane 0", 10);
    w.span("move", 0, 120, 0);
    w.span("sort", 120, 80, 0);
    w.span("move", 0, 110, 100);
    w.close();
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text.back(), '\n');
  int depth = 0;
  for (char c : text) {
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  // 2 thread_name calls emit 2 metadata events each, plus 3 spans.
  std::size_t events = 0;
  for (std::size_t p = text.find("\"ph\""); p != std::string::npos;
       p = text.find("\"ph\"", p + 1))
    ++events;
  EXPECT_EQ(events, 7u);
  std::remove(path);
}

TEST(TelemetrySession, WritesMonotoneStreamAndTrace) {
  cmdp::ThreadPool pool(2);
  core::SimulationD sim(small_cfg(), &pool);

  obs::TelemetryOptions topt;
  topt.jsonl_path = "session_test.jsonl";
  topt.trace_path = "session_trace.json";
  topt.every = 2;
  obs::TelemetrySession session(std::move(topt));
  ASSERT_TRUE(session.ok());
  sim.set_step_observer(&session);
  sim.run(10);
  sim.set_step_observer(nullptr);
  session.finish();
  EXPECT_EQ(session.steps_recorded(), 5);

  std::ifstream in("session_test.jsonl");
  std::string line;
  std::int64_t prev = -1;
  int count = 0;
  while (std::getline(in, line)) {
    const auto step = static_cast<std::int64_t>(json_number(line, "step"));
    EXPECT_GT(step, prev);
    EXPECT_EQ(step % 2, 0) << "cadence=2 must only record even steps";
    prev = step;
    ++count;
  }
  EXPECT_EQ(count, 5);

  std::ifstream tr("session_trace.json");
  std::stringstream ss;
  ss << tr.rdbuf();
  const std::string trace = ss.str();
  EXPECT_EQ(trace.front(), '[');
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
  std::remove("session_test.jsonl");
  std::remove("session_trace.json");
}

// Checkpoint-aware telemetry: run A straight through; run B to the midpoint,
// checkpoint, restore into C and finish.  The concatenated B+C stream must
// be step-monotone with no cumulative-counter discontinuity, and must agree
// record-for-record with A (restore is bit-exact, so even the physics
// metrics match).
TEST(TelemetrySession, CheckpointRestartStreamIsContinuous) {
  const int kHalf = 6;
  cmdp::ThreadPool pool(2);

  core::SimulationD a(small_cfg(), &pool);
  Recorder rec_a;
  a.set_step_observer(&rec_a);
  a.run(2 * kHalf);
  a.set_step_observer(nullptr);

  const char* ckpt = "telemetry_ckpt_test.bin";
  core::SimulationD b(small_cfg(), &pool);
  Recorder rec_b;
  b.set_step_observer(&rec_b);
  b.run(kHalf);
  b.set_step_observer(nullptr);
  core::save_checkpoint(ckpt, b);

  core::SimulationD c(small_cfg(), &pool);
  core::load_checkpoint(ckpt, c);
  EXPECT_EQ(c.step_index(), kHalf);
  Recorder rec_c;
  c.set_step_observer(&rec_c);
  c.run(kHalf);
  c.set_step_observer(nullptr);
  std::remove(ckpt);

  // Concatenate the two streams as a restart run's telemetry file would.
  std::vector<obs::StepStats> joined = rec_b.steps;
  joined.insert(joined.end(), rec_c.steps.begin(), rec_c.steps.end());
  ASSERT_EQ(joined.size(), rec_a.steps.size());

  std::int64_t prev_step = -1;
  std::uint64_t prev_cum_cand = 0, prev_cum_coll = 0;
  for (std::size_t i = 0; i < joined.size(); ++i) {
    const auto& s = joined[i];
    const auto& ref = rec_a.steps[i];
    EXPECT_GT(s.step, prev_step);
    // Cumulative counters never step backwards across the restore seam and
    // grow exactly by the per-step delta.
    EXPECT_EQ(s.cum_candidates, prev_cum_cand + s.candidates)
        << "cum discontinuity at step " << s.step;
    EXPECT_EQ(s.cum_collisions, prev_cum_coll + s.collisions)
        << "cum discontinuity at step " << s.step;
    prev_step = s.step;
    prev_cum_cand = s.cum_candidates;
    prev_cum_coll = s.cum_collisions;
    // Bit-exact restore: the restart stream reproduces the straight run.
    EXPECT_EQ(s.step, ref.step);
    EXPECT_EQ(s.flow, ref.flow);
    EXPECT_EQ(s.candidates, ref.candidates);
    EXPECT_EQ(s.collisions, ref.collisions);
    EXPECT_EQ(s.cum_candidates, ref.cum_candidates);
    EXPECT_EQ(s.cum_collisions, ref.cum_collisions);
  }
  EXPECT_EQ(state_hash(a), state_hash(c));
}

}  // namespace
