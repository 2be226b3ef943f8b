"""Run every `padiczeta verify` suite on a grid of instances and print
which pass, fail or run out of time.

    python3 verifygrid/run.py [--save DIR]

Run from anywhere: the package is imported from ``src/`` next to this
directory.  Each (suite, instance) is one subprocess, started only after
the previous one has ended, never in parallel, with a wall budget of
TIMEOUT_S seconds and an address-space limit of MEM_BYTES; a subprocess
that exceeds either is stopped and reported as ``timeout`` or
``memory``.  The last lines of stdout are a markdown table, one row per
run.  With ``--save DIR`` the report each finished run printed is kept in
DIR as ``<suite>-<p>-<m>-<rank>.json``, so that two checkouts can be
compared byte for byte.  A run that raised is reported as ``error``.
The exit code is 1 when a suite reported a failure or raised, and 0
otherwise, a run over either budget included.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SUITES = ("testfn-agreement", "zeta", "concentration", "rs-support",
          "nicedomain-vanishing", "params-exhaustive", "volumes")

# (p, m, rank): the four acceptance instances, then four larger ones
INSTANCES = ((2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2),
             (5, 1, 2), (3, 2, 2), (3, 1, 3), (2, 1, 4))

TIMEOUT_S = 60
MEM_BYTES = 2 * 2 ** 30


def run_one(suite: str, inst: tuple, save: Path | None) -> tuple:
    """(result, seconds) for one suite at one instance."""
    p, m, rank = inst
    cmd = [sys.executable, "-m", "padiczeta.cli", "verify", "--suite", suite,
           "--p", str(p), "--m", str(m), "--rank", str(rank)]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (MEM_BYTES, MEM_BYTES))

    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S, preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - t0
    secs = time.monotonic() - t0
    # an uncaught exception also exits 1, but prints a traceback and no
    # report
    if proc.returncode not in (0, 1) or "Traceback" in proc.stderr:
        crash = "memory" if "MemoryError" in proc.stderr else "error"
        return crash, secs
    if save is not None:
        (save / f"{suite}-{p}-{m}-{rank}.json").write_text(proc.stdout)
    return ("pass" if proc.returncode == 0 else "fail"), secs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    rows = []
    for inst in INSTANCES:
        for suite in SUITES:
            result, secs = run_one(suite, inst, args.save)
            print(f"{suite} {inst}: {result} ({secs:.1f} s)", flush=True)
            rows.append((suite, inst, result, secs))
    print()
    print("| suite | p, m, rank | result | seconds |")
    print("|---|---|---|---|")
    for suite, (p, m, rank), result, secs in rows:
        print(f"| `{suite}` | {p}, {m}, {rank} | {result} | {secs:.1f} |")
    return 1 if any(r[2] in ("fail", "error") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
