#!/usr/bin/env python3
"""Perf-regression gate over BENCH_pipeline.json / BENCH_scaling.json.

Default mode compares the per-particle step time of a fresh bench run
against the committed baseline and fails (exit 1) when it regresses by
more than the allowed fraction.  Optionally appends the run to a
JSON-lines trajectory file so the uploaded artifact carries the history
instead of a single point.

Usage:
    check_bench.py CURRENT.json BASELINE.json [--max-regress 0.25]
                   [--append TRAJECTORY.jsonl] [--label LABEL]
    check_bench.py --scaling BENCH_scaling.json [--min-efficiency 0.8]

The gate metric is `usec_per_particle_step`.  The run's `peak_rss_mb`
(the process's VmHWM) is printed beside it and travels with the appended
trajectory; it is reported, not gated.  The baseline is measured at
tiny CI scale (CMDSMC_PPC=4 CMDSMC_STEADY_STEPS=60); refresh it with
    CMDSMC_PPC=4 CMDSMC_STEADY_STEPS=60 ./build/perf_pipeline && \
        cp BENCH_pipeline.json bench/baselines/BENCH_pipeline.baseline.json
when runners or the pipeline change intentionally (note the new number in
the PR).  CMDSMC_BENCH_MAX_REGRESS overrides the threshold without a
workflow edit.

--scaling gates the fig7_scaling thread sweep instead: every point's
predicted partition imbalance (max/mean lane particle count of the
count-quantile cell blocks, a property of the counts and not of the
hardware) must stay below 1.10, so a partition stuck on one lane reads
its lane count and fails; and parallel efficiency at min(8,
hardware_threads) must reach --min-efficiency (CMDSMC_MIN_EFFICIENCY
overrides, default 0.8).  Points past the machine's core count are
oversubscribed and informational only for the efficiency gate; on a
single-core runner that gate reports and skips.
"""

import argparse
import json
import os
import sys

MAX_PARTITION_IMBALANCE = 1.10


def check_scaling(path: str, min_eff: float) -> int:
    with open(path) as f:
        bench = json.load(f)
    hw = int(bench.get("hardware_threads", 0))
    points = {int(p["threads"]): p for p in bench.get("points", [])}
    if not points:
        print(f"check_bench: FAIL — {path} has no scaling points")
        return 1
    for t in sorted(points):
        p = points[t]
        tag = " (oversubscribed)" if hw and t > hw else ""
        print(f"check_bench: scaling @ {t:2d} threads: "
              f"eff={p['efficiency']:.3f} speedup={p['speedup']:.2f} "
              f"collide_imb="
              f"{p['phases']['select_collide']['imbalance']:.2f} "
              f"partition_imb={p['partition_imbalance']:.4f}{tag}")
    # The partition gate holds at every point, oversubscribed or not.
    for t in sorted(points):
        imb = float(points[t]["partition_imbalance"])
        if not 1.0 <= imb < MAX_PARTITION_IMBALANCE:
            print(f"check_bench: FAIL — predicted partition imbalance "
                  f"{imb:.4f} at {t} threads is outside "
                  f"[1, {MAX_PARTITION_IMBALANCE:.2f})")
            return 1
    if hw <= 1:
        print(f"check_bench: SKIP — {hw or 'unknown'} hardware thread(s); "
              f"every multi-thread point is oversubscribed, efficiency "
              f"means nothing here")
        return 0

    # Gate point: the largest measured thread count that fits the machine,
    # capped at 8 (the acceptance target).
    gate_t = max(t for t in points if t <= min(8, hw))
    eff = float(points[gate_t]["efficiency"])
    print(f"check_bench: gate point {gate_t} threads "
          f"(hardware {hw}): efficiency {eff:.3f}, floor {min_eff:.2f}")
    if eff < min_eff:
        print(f"check_bench: FAIL — parallel efficiency {eff:.3f} at "
              f"{gate_t} threads is below {min_eff:.2f}")
        return 1

    print("check_bench: scaling OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current")
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("--max-regress", type=float,
                    default=float(os.environ.get("CMDSMC_BENCH_MAX_REGRESS",
                                                 0.25)),
                    help="allowed fractional slowdown (default 0.25)")
    ap.add_argument("--append", metavar="FILE",
                    help="append the current run to this .jsonl trajectory")
    ap.add_argument("--label", default="",
                    help="free-form tag recorded with the appended run "
                         "(e.g. the commit SHA)")
    ap.add_argument("--scaling", action="store_true",
                    help="gate a BENCH_scaling.json thread sweep instead of "
                         "the pipeline baseline comparison")
    ap.add_argument("--min-efficiency", type=float,
                    default=float(os.environ.get("CMDSMC_MIN_EFFICIENCY",
                                                 0.8)),
                    help="parallel-efficiency floor for --scaling "
                         "(default 0.8)")
    args = ap.parse_args()

    if args.scaling:
        return check_scaling(args.current, args.min_efficiency)
    if args.baseline is None:
        ap.error("BASELINE.json is required without --scaling")

    with open(args.current) as f:
        cur = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)

    metric = "usec_per_particle_step"
    cur_v = float(cur[metric])
    base_v = float(base[metric])
    if cur_v <= 0 or base_v <= 0:
        print(f"check_bench: bad {metric}: current={cur_v} baseline={base_v}")
        return 1

    ratio = cur_v / base_v
    limit = 1.0 + args.max_regress
    print(f"check_bench: {metric} current={cur_v:.6f} baseline={base_v:.6f} "
          f"ratio={ratio:.3f} limit={limit:.3f} "
          f"(threads {cur.get('threads')} vs {base.get('threads')}, "
          f"particles {cur.get('particles')} vs {base.get('particles')})")
    rss = cur.get("peak_rss_mb")
    print(f"check_bench: peak_rss_mb current="
          f"{'n/a' if rss is None else format(float(rss), '.1f')} "
          f"(reported, not gated)")

    # Per-particle time at tiny scale is only comparable at equal thread
    # counts (parallel overhead dominates otherwise) — the workflow pins
    # CMDSMC_THREADS to match the baseline.
    if cur.get("threads") != base.get("threads"):
        print(f"check_bench: FAIL — thread count mismatch "
              f"({cur.get('threads')} vs baseline {base.get('threads')}); "
              f"run the bench with CMDSMC_THREADS={base.get('threads')}.")
        return 1

    if args.append:
        rec = dict(cur)
        rec["label"] = args.label
        rec["baseline_" + metric] = base_v
        rec["ratio_vs_baseline"] = ratio
        with open(args.append, "a") as f:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
        print(f"check_bench: appended run to {args.append}")

    if ratio > limit:
        print(f"check_bench: FAIL — per-particle time regressed "
              f"{(ratio - 1.0) * 100:.1f}% (> {args.max_regress * 100:.0f}% "
              f"allowed). If intentional, refresh "
              f"bench/baselines/BENCH_pipeline.baseline.json and explain in "
              f"the PR.")
        return 1
    print("check_bench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
