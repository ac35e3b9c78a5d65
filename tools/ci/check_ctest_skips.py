#!/usr/bin/env python3
"""Fails a CI step when ctest skipped a test.

ctest lists every test it did not run (skipped, disabled, not run) after
its summary as "  <n> - <name> (<reason>)".  A skip passes ctest, so a
test that always skips would go unnoticed; this check turns any such
entry into a failure.

Usage:
  set -o pipefail
  ctest --output-on-failure | tee ctest.log
  python3 tools/ci/check_ctest_skips.py ctest.log
"""
import argparse
import re
import sys

ENTRY = re.compile(r"^\s*\d+ - (.+) \(([^()]+)\)\s*$")


def not_run(lines):
    """(name, reason) for every entry of ctest's "did not run" list."""
    listing = False
    for line in lines:
        if line.startswith("The following tests did not run:"):
            listing = True
            continue
        if listing:
            m = ENTRY.match(line)
            if not m:
                listing = False
                continue
            yield m.group(1), m.group(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("log", help="captured ctest output")
    args = ap.parse_args()
    with open(args.log, encoding="utf-8", errors="replace") as f:
        entries = list(not_run(f))
    for name, reason in entries:
        print(f"UNEXPECTED: {name} ({reason})")
    if entries:
        print(f"{len(entries)} test(s) did not run", file=sys.stderr)
        return 1
    print("skip check passed: every test ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
