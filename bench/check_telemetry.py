#!/usr/bin/env python3
"""Telemetry artifact validator and overhead gate.

Two modes:

  check_telemetry.py TELEMETRY.jsonl [TRACE.json]
      Validates the per-step telemetry stream: every line parses as JSON,
      carries the full metric schema, and the `step` field is strictly
      monotone.  When a Chrome-trace path is given, checks that it is one
      valid JSON array of well-formed trace events ("M" metadata + "X"
      complete spans with non-negative ts/dur) and that at least one span
      exists per fused pipeline phase.

  check_telemetry.py --overhead BENCH_pipeline.json
      Gates telemetry overhead.  perf_pipeline, when run with
      CMDSMC_TELEMETRY set, embeds `telemetry_overhead_percent`: the gap
      between the timed loop's wall clock and its phase-timer sum, which
      is exactly the observer work since the phase timers never see it
      (process-to-process comparison of two bench runs would drown in
      runner noise).  Fails when that measurement exceeds the allowed
      overhead (default 3%, override with CMDSMC_TELEMETRY_MAX_OVERHEAD
      or --max-overhead).
"""

import argparse
import json
import math
import os
import sys

# One entry per metric the JSONL schema promises (docs/observability.md).
REQUIRED_KEYS = [
    "step", "flow", "reservoir", "total", "weighted_census",
    "candidates", "collisions", "reservoir_collisions", "accept_rate",
    "removed", "injected", "synthesized", "cloned", "merged",
    "wall_events", "occ", "arena_bytes", "partition_imbalance",
    "phase_seconds", "lanes", "imbalance", "cum",
]
# Optional block: present only on audited runs (audit=1).
AUDIT_KEYS = ["checks", "violations"]
PHASE_KEYS = ["move", "sort", "select_collide", "sample", "step"]
FUSED_PHASES = ["move", "sort", "select_collide", "sample"]


def check_jsonl(path: str) -> int:
    prev_step = None
    records = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"check_telemetry: FAIL — {path}:{lineno}: "
                      f"invalid JSON ({e})")
                return 1
            missing = [k for k in REQUIRED_KEYS if k not in rec]
            if missing:
                print(f"check_telemetry: FAIL — {path}:{lineno}: "
                      f"missing keys {missing}")
                return 1
            for k in PHASE_KEYS:
                if k not in rec["phase_seconds"]:
                    print(f"check_telemetry: FAIL — {path}:{lineno}: "
                          f"phase_seconds missing '{k}'")
                    return 1
            # Predicted max/mean lane particle count of the step's
            # partition: 1 on one lane, at most the lane count.
            imb = rec["partition_imbalance"]
            if not (isinstance(imb, (int, float)) and
                    1.0 <= imb <= max(1, rec["lanes"])):
                print(f"check_telemetry: FAIL — {path}:{lineno}: "
                      f"partition_imbalance {imb} outside [1, lanes]")
                return 1
            if "audit" in rec:
                for k in AUDIT_KEYS:
                    if k not in rec["audit"]:
                        print(f"check_telemetry: FAIL — {path}:{lineno}: "
                              f"audit missing '{k}'")
                        return 1
            step = rec["step"]
            if prev_step is not None and step <= prev_step:
                print(f"check_telemetry: FAIL — {path}:{lineno}: step "
                      f"{step} not greater than previous {prev_step}")
                return 1
            if rec["total"] != rec["flow"] + rec["reservoir"]:
                print(f"check_telemetry: FAIL — {path}:{lineno}: total "
                      f"{rec['total']} != flow + reservoir")
                return 1
            if not math.isfinite(rec["accept_rate"]):
                print(f"check_telemetry: FAIL — {path}:{lineno}: "
                      f"non-finite accept_rate")
                return 1
            prev_step = step
            records += 1
    if records == 0:
        print(f"check_telemetry: FAIL — {path}: no records")
        return 1
    print(f"check_telemetry: {path}: {records} records, steps monotone, "
          f"schema OK")
    return 0


def check_trace(path: str) -> int:
    with open(path) as f:
        try:
            events = json.load(f)
        except json.JSONDecodeError as e:
            print(f"check_telemetry: FAIL — {path}: invalid JSON ({e})")
            return 1
    if not isinstance(events, list) or not events:
        print(f"check_telemetry: FAIL — {path}: expected a non-empty "
              f"JSON array of trace events")
        return 1
    span_names = set()
    tracks = set()
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            print(f"check_telemetry: FAIL — {path}: event {i} has "
                  f"ph='{ph}' (only 'M' and 'X' are emitted)")
            return 1
        if ev.get("ts", -1) < 0 or ev.get("dur", -1) < 0:
            print(f"check_telemetry: FAIL — {path}: event {i} has "
                  f"negative ts/dur")
            return 1
        span_names.add(ev.get("name"))
        tracks.add(ev.get("tid"))
    missing = [p for p in FUSED_PHASES if p not in span_names
               and p != "sample"]  # sample track absent when sampling is off
    if missing:
        print(f"check_telemetry: FAIL — {path}: no spans for phases "
              f"{missing}")
        return 1
    print(f"check_telemetry: {path}: {len(events)} events, "
          f"{len(tracks)} tracks, spans {sorted(span_names)} OK")
    return 0


def check_overhead(path: str, max_overhead: float) -> int:
    with open(path) as f:
        bench = json.load(f)
    if not bench.get("telemetry_attached"):
        print("check_telemetry: FAIL — bench run did not have telemetry "
              "attached (telemetry_attached is false); run perf_pipeline "
              "with CMDSMC_TELEMETRY set")
        return 1
    if "telemetry_overhead_percent" not in bench:
        print("check_telemetry: FAIL — no telemetry_overhead_percent in "
              f"{path}; the bench predates the interleaved measurement")
        return 1
    pct = float(bench["telemetry_overhead_percent"])
    limit = max_overhead * 100.0
    print(f"check_telemetry: telemetry overhead {pct:.2f}% "
          f"(wall minus phase-timer sum, {bench.get('threads')} threads), "
          f"limit {limit:.1f}%")
    if pct > limit:
        print(f"check_telemetry: FAIL — telemetry overhead {pct:.2f}% "
              f"exceeds {limit:.1f}% budget")
        return 1
    print("check_telemetry: OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+",
                    help="TELEMETRY.jsonl [TRACE.json], or with --overhead: "
                         "BENCH_pipeline.json from a CMDSMC_TELEMETRY run")
    ap.add_argument("--overhead", action="store_true",
                    help="gate the bench's embedded telemetry overhead "
                         "measurement")
    ap.add_argument("--max-overhead", type=float,
                    default=float(os.environ.get(
                        "CMDSMC_TELEMETRY_MAX_OVERHEAD", 0.03)),
                    help="allowed fractional overhead (default 0.03)")
    args = ap.parse_args()

    if args.overhead:
        if len(args.files) != 1:
            ap.error("--overhead takes exactly one BENCH_pipeline.json")
        return check_overhead(args.files[0], args.max_overhead)

    rc = check_jsonl(args.files[0])
    if rc == 0 and len(args.files) > 1:
        rc = check_trace(args.files[1])
    return rc


if __name__ == "__main__":
    sys.exit(main())
