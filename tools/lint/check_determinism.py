#!/usr/bin/env python3
"""Determinism lint: static scan for nondeterminism leaks in the simulation.

The repo's headline correctness property is bit-identical reproduction: the
same (seed, config) must give the same particle state on any machine, any
lane count, any rebuild.  The physics therefore draws randomness only from
the counter-based rng/ streams keyed by (seed, particle id, step, salt).
This lint enforces the bans that keep that property machine-checked:

  everywhere under src/:
    - libc randomness: rand(), srand(), drand48 family, random()
    - std::random_device (hardware entropy; never reproducible)
    - std::mt19937 & friends seeded ad hoc (use rng/ streams instead)
    - wall-clock seeding: time(...), clock(), getpid/gettid
  hot paths (src/core, src/physics, src/cmdp, src/rng) additionally:
    - unordered_map / unordered_set: iteration order is
      implementation-defined, so any loop over one that feeds physics
      silently breaks bit-identity
    - std::cout / printf / puts: the hot path must stay silent (output
      belongs to io/, obs/ and the scenario sinks; interleaved prints from
      lanes are also nondeterministic)
  the step itself (src/core, src/physics, src/rng) additionally:
    - reads of measured time: a phase timer (`.seconds(`,
      `lane_seconds_table(`), the pool's lane clock (`lane_seconds(`) or a
      std::chrono clock.  Clocks may feed
      telemetry, never a decision the step takes: state that follows the
      clock (a cost model, a schedule) differs from run to run even when
      the physics does not.  The telemetry snapshots carry waivers.

A line can be waived with an inline justification:

    foo();  // determinism-ok: <why this use cannot affect physics>

Usage: check_determinism.py [--root DIR]   (default: repo root from script)
Exit: 0 clean, 1 with file:line diagnostics otherwise.
"""

import argparse
import os
import re
import sys

# (regex, message) pairs applied to every source line under src/.
GLOBAL_BANS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("),
     "libc rand()/srand() is not reproducible; use rng/ streams"),
    (re.compile(r"\b[dlm]rand48\s*\("),
     "drand48 family is hidden global state; use rng/ streams"),
    (re.compile(r"\brandom\s*\(\s*\)"),
     "libc random() is not reproducible; use rng/ streams"),
    (re.compile(r"std::random_device"),
     "std::random_device draws hardware entropy; runs become unrepeatable"),
    (re.compile(r"std::(mt19937|minstd_rand|ranlux\d+|knuth_b)\b"),
     "ad-hoc <random> engines bypass the counter-based rng/ streams"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(NULL|nullptr|0|\))"),
     "wall-clock seeding breaks reproducibility; plumb the config seed"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"),
     "clock() in sim code is a determinism leak; use obs/ timers"),
    (re.compile(r"\bget(pid|tid)\s*\("),
     "process ids are not reproducible; derive names from config/seed"),
]

# Additional bans inside the hot-path directories.
HOT_BANS = [
    (re.compile(r"\bunordered_(map|set|multimap|multiset)\b"),
     "unordered container iteration order is implementation-defined; "
     "use a sorted container or indexed vectors in physics code"),
    (re.compile(r"std::cout\b"),
     "hot paths must not write stdout; route output through io/ sinks"),
    (re.compile(r"(?<![\w:.])(printf|puts|putchar)\s*\("),
     "hot paths must not write stdout; route output through io/ sinks"),
]

# Reads of measured time inside the step.
CLOCK_BANS = [
    (re.compile(r"(\.|->)seconds\s*\("),
     "phase timer read in the step; measured time may feed telemetry only"),
    (re.compile(r"\blane_seconds(_table)?\s*\("),
     "per-lane clock read in the step; measured time may feed telemetry only"),
    (re.compile(r"\b(steady|system|high_resolution)_clock\b"),
     "clock read in the step; measured time may feed telemetry only"),
]

HOT_DIRS = ("core", "physics", "cmdp", "rng")
CLOCK_DIRS = ("core", "physics", "rng")
WAIVER = "determinism-ok:"
EXTS = (".h", ".cpp")


def strip_comment_text(line: str) -> str:
    """Removes // comment text so prose mentioning rand() does not trip the
    scan (the waiver is detected before stripping)."""
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def scan_file(path: str, hot: bool, clocked: bool):
    findings = []
    bans = (GLOBAL_BANS + (HOT_BANS if hot else []) +
            (CLOCK_BANS if clocked else []))
    with open(path, encoding="utf-8", errors="replace") as f:
        for lineno, raw in enumerate(f, 1):
            if WAIVER in raw:
                continue
            line = strip_comment_text(raw)
            for pattern, message in bans:
                if pattern.search(line):
                    findings.append((path, lineno, raw.rstrip(), message))
    return findings


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root",
                    default=os.path.normpath(os.path.join(here, "..", "..")),
                    help="repository root (containing src/)")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    if not os.path.isdir(src):
        print(f"check_determinism: FAIL — no src/ under {args.root}")
        return 1

    findings = []
    scanned = 0
    for dirpath, _, names in sorted(os.walk(src)):
        rel = os.path.relpath(dirpath, src)
        top = rel.split(os.sep, 1)[0]
        hot = top in HOT_DIRS
        clocked = top in CLOCK_DIRS
        for name in sorted(names):
            if not name.endswith(EXTS):
                continue
            scanned += 1
            findings += scan_file(os.path.join(dirpath, name), hot, clocked)

    for path, lineno, line, message in findings:
        rel = os.path.relpath(path, args.root)
        print(f"{rel}:{lineno}: {message}")
        print(f"    {line.strip()}")
    if findings:
        print(f"check_determinism: FAIL — {len(findings)} finding(s) over "
              f"{scanned} files (waive with '// {WAIVER} <reason>')")
        return 1
    print(f"check_determinism: OK — {scanned} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
