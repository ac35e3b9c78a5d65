#!/usr/bin/env python3
"""Fails a CI step when ctest skipped a test that must run.

ctest lists every test it did not run (skipped, disabled, not run) after
its summary as "  <n> - <name> (<reason>)".  A skip passes ctest, so a
test that always skips would go unnoticed; this check turns any such
entry whose name does not match --allow into a failure.

Usage:
  set -o pipefail
  ctest --output-on-failure | tee ctest.log
  python3 tools/ci/check_ctest_skips.py ctest.log --allow 'AuditedRun\\.'

Without --allow, any test that did not run fails the check.
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
    ap.add_argument("--allow", default=None,
                    help="regex; tests whose name starts with a match may "
                         "skip")
    args = ap.parse_args()
    allow = re.compile(args.allow) if args.allow else None
    with open(args.log, encoding="utf-8", errors="replace") as f:
        entries = list(not_run(f))
    bad = [(n, r) for n, r in entries if not (allow and allow.match(n))]
    for name, reason in entries:
        tag = "UNEXPECTED" if (name, reason) in bad else "allowed"
        print(f"{tag}: {name} ({reason})")
    if bad:
        print(f"{len(bad)} test(s) did not run and are not allowed to skip",
              file=sys.stderr)
        return 1
    print(f"skip check passed: {len(entries)} allowed skip(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
