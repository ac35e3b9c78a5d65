#!/usr/bin/env python3
"""Fails a CI step when a test id is not stable.

ctest names every test after the test binary's --gtest_list_tests output.
gtest prints a value parameter that has no PrintTo as a dump of its raw
bytes ("16-byte object <...>"), padding included, and CMake can put that
print into the test id, so the id changes from one run to the next and any
list of test names kept across builds goes stale.  This check lists the
tests of every test_* executable in the build directory twice and fails if
the two listings differ or any line holds such a byte dump.

Usage:
  python3 tools/ci/check_test_ids.py build
"""
import argparse
import os
import pathlib
import subprocess
import sys

BYTE_DUMP = "-byte object <"


def listing(exe):
    """The executable's --gtest_list_tests lines, names and printed values."""
    out = subprocess.run([str(exe), "--gtest_list_tests"], check=True,
                         capture_output=True, text=True, errors="replace")
    return [line.rstrip() for line in out.stdout.splitlines() if line.strip()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", help="directory holding the test_* binaries")
    args = ap.parse_args()
    exes = sorted(p for p in pathlib.Path(args.build_dir).glob("test_*")
                  if p.is_file() and os.access(p, os.X_OK))
    if not exes:
        print(f"no test_* executables in {args.build_dir}", file=sys.stderr)
        return 1
    bad = 0
    for exe in exes:
        first, second = listing(exe), listing(exe)
        if first != second:
            bad += 1
            changed = (sorted(set(first) ^ set(second))
                       or ["(the same lines in another order)"])
            print(f"UNSTABLE: {exe.name}: {len(changed)} line(s) differ "
                  f"between two listings, e.g. {changed[0].strip()}")
        dumps = [line for line in first if BYTE_DUMP in line]
        if dumps:
            bad += 1
            print(f"BYTE DUMP: {exe.name}: {len(dumps)} test(s) named from "
                  f"raw bytes, e.g. {dumps[0].strip()}")
    if bad:
        print(f"{bad} problem(s) in {len(exes)} test executables",
              file=sys.stderr)
        return 1
    print(f"test id check passed: {len(exes)} executables list stable ids")
    return 0


if __name__ == "__main__":
    sys.exit(main())
