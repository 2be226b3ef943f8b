"""Run one benchmark workload of padiczeta and print its metrics.

    python3 perfbench/run.py --workload convolution-grid --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The
command fails (non-zero exit, no result line) when the sources are
missing, and exits 1 after printing the result when any output is wrong.

With ``--trace 0`` the loop runs untraced and the last line of stdout is a
JSON object with the end-to-end metrics.  With ``--trace 1`` one warm-up
round is followed by a third of the time untraced; the same rounds are
then replayed under the span recorder, and the JSON carries the per-layer
metrics, with the traced over the untraced wall time as the tracing
overhead.  The spans are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
PROBE_EVERY_S = 0.1
# reference speed: the speed at which reference_work() takes this long
REFERENCE_S = 0.002

sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, build, draw  # noqa: E402


def reference_work() -> str:
    """A fixed piece of pure-Python work like the package's own: rational
    arithmetic, text formatting and JSON.  It does not use the package;
    it is the yardstick for the speed of the machine."""
    x, table = Fraction(1), {}
    for i in range(1, 250):
        x = x * Fraction(i + 1, i) - Fraction(1, i * i + 1)
        x = Fraction(x.numerator % 1000003, x.denominator % 999983 or 1)
        table[str(x)] = [i, f"{x.numerator}/{x.denominator}"]
    return json.dumps(table, sort_keys=True)


def probe() -> float:
    """Seconds the reference work takes right now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


@dataclass
class Loop:
    elapsed: float        # wall seconds, probes and checks included
    latencies: list       # wall seconds per request
    scaled: list          # the same at reference speed
    rounds: int


def closed_loop(pool, on_result, seconds: float = None, rounds: int = None,
                tracer: Tracer = None) -> Loop:
    """Send the pool's rounds back to back, one request at a time, for at
    least ``seconds`` (whole rounds) or for exactly ``rounds`` rounds, and
    hand each (request, output, error) to ``on_result`` outside the timed
    call.

    The machine's speed is probed before the first request, then after a
    request whenever PROBE_EVERY_S have passed, and after the last one.
    Each latency is rescaled to reference speed by the mean of the probes
    around it."""
    latencies, probes = [], [(0, probe())]
    clock = time.perf_counter
    start = last_probe = clock()
    done = 0
    while True:
        for req in pool[done % len(pool)]:
            if tracer is not None:
                tracer.request += 1
            t0 = clock()
            try:
                out, err = req.call(), None
            except Exception as exc:  # a failed request is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            latencies.append(t1 - t0)
            on_result(req, out, err)
            if t1 - last_probe >= PROBE_EVERY_S:
                probes.append((len(latencies), probe()))
                last_probe = clock()
        done += 1
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and clock() - start >= seconds:
            break
    if probes[-1][0] != len(latencies):
        probes.append((len(latencies), probe()))
    scaled = []
    for (lo, before), (hi, after) in zip(probes, probes[1:]):
        factor = 2 * REFERENCE_S / (before + after)
        scaled += [x * factor for x in latencies[lo:hi]]
    return Loop(clock() - start, latencies, scaled, done)


class Gate:
    """Correctness of every output, checked as it arrives (outside the
    timed call) so that outputs need not be kept, plus a determinism check
    at the end: the first request of each kind is run again and must
    render to the same bytes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.first = {}

    def __call__(self, req, out, err):
        self.attempted += 1
        if err is None:
            try:
                err = self.workload.check(req.kind, req.data, out)
            except Exception as exc:  # a malformed output is a failure
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            self.failures.append(f"{req.kind}: {err}")
        elif req.kind not in self.first:
            self.first[req.kind] = (req, out)

    def determinism(self):
        render = self.workload.render
        for kind, (req, out) in sorted(self.first.items()):
            if render(req.call()) != render(out):
                self.failures.append(
                    f"{kind}: output does not render identically twice")


def percentile(sorted_values, q: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def setup(name: str, seed: int):
    """Draw the seeded inputs once, then build the workload SETUP_REPEATS
    times; return the last build and the median build time at reference
    speed (probed before and after each build)."""
    plan = draw(name, seed)
    times, built = [], None
    for _ in range(SETUP_REPEATS):
        built = None
        gc.collect()
        before = probe()
        t0 = time.perf_counter()
        built = build(name, plan)
        wall = time.perf_counter() - t0
        times.append(wall * 2 * REFERENCE_S / (before + probe()))
    return built, statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "padiczeta" / "__init__.py").is_file():
        print(f"no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    (workload, pool), setup_s = setup(args.workload, args.seed)
    import padiczeta
    if Path(padiczeta.__file__).resolve().parent != SRC / "padiczeta":
        print(f"padiczeta imported from {padiczeta.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    gate = Gate(workload)
    if args.trace:
        # one warm-up round, so that neither timed pass pays first-call costs
        closed_loop(pool, gate, rounds=1)
        plain = closed_loop(pool, gate, args.seconds / 3)
        tracer, traced_results = Tracer(), []
        with tracer.installed():
            traced = closed_loop(pool, lambda *r: traced_results.append(r),
                                 rounds=plain.rounds, tracer=tracer)
        for result in traced_results:     # checks would add spans
            gate(*result)
        del traced_results
        tracer.write(OUT_DIR / f"spans-{args.workload}")
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (sum(traced.scaled)
                                           / sum(plain.scaled), "ratio")
        print(f"traced {len(traced.latencies)} requests ({len(tracer)} spans) "
              f"in {sum(traced.latencies):.2f} s, "
              f"untraced in {sum(plain.latencies):.2f} s")
    else:
        run = closed_loop(pool, gate, args.seconds)
        lat = sorted(x * 1e3 for x in run.scaled)
        p50, _ = percentile(lat, 0.5)
        p90, beyond = percentile(lat, 0.9)
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (len(lat) / sum(run.scaled), "1/s"),
            "item_p50_ms": (p50, "ms"),
            "item_p90_ms": (p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }
        wall = sorted(x * 1e3 for x in run.latencies)
        print(f"{len(lat)} requests in {run.rounds} rounds, "
              f"{run.elapsed:.2f} s; p90 has {beyond} of {len(lat)} samples "
              f"beyond it; set-up is the median of {SETUP_REPEATS}")
        print(f"wall clock: {1e3 * len(wall) / sum(wall):.4g} items/s, "
              f"p50 {percentile(wall, 0.5)[0]:.4g} ms, "
              f"p90 {percentile(wall, 0.9)[0]:.4g} ms")

    gate.determinism()
    for reason in gate.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    failed, attempted = len(gate.failures), gate.attempted
    print(f"failed_frac = {failed / attempted:.6g} frac "
          f"({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
