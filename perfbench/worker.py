"""Child process that runs one workload's items in a closed loop.

One client: each item is a ``stochorder.cli.main(argv)`` call with stdout
and stderr captured, and the next item starts only after the previous one
has been checked.  Only the ``main`` call is timed.  The loop runs whole
passes over the pool for about ``--seconds``, and at least
``--min-passes``.

A shared host's speed drifts by 10-30% over seconds to minutes, and the
drift slows the program and any other code alike.  So before the first item
and after every item the loop times ``probe``, a fixed mix of interpreter
and numpy work that does not use stochorder, and reports each latency also
scaled to a host on which the probe takes ``REFERENCE_PROBE_S``: the raw
latency times ``REFERENCE_PROBE_S`` over the median of the probe times
around the item.  A change to the program moves the scaled latency as it
moves the raw one, since the probe does not run program code; a change of
host speed moves the scaled latency far less.

With ``--traced`` the child first runs the items untraced for half the time,
then runs the same items again with the public functions wrapped
(``tracing.Tracer``) and reports per-layer self time and counts.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/worker.py MANIFEST RESULT --seconds S --min-passes N [--traced SPANS]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pickle
import resource
import statistics
import sys
import time

import numpy as np

import checks
import tracing

#: ``probe`` time on the host the benchmark was written on (2-vCPU shared
#: x86-64 VM, CPython 3.11, numpy 2): the median of 3000 calls.
REFERENCE_PROBE_S = 0.013

_PROBE_RNG = np.random.default_rng(0)
_PROBE_VALUES = _PROBE_RNG.random(50_000)
_PROBE_PVALS = np.full(400, 1.0 / 400)


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter loops, small numpy calls,
    a sort and a multinomial draw; about 13 ms, without stochorder."""
    start = time.perf_counter()
    acc = 0
    table = dict.fromkeys(range(256), 0)
    for i in range(20_000):
        acc += (i * i) % 7
        table[i & 255] = acc
    sorted(range(3000), key=lambda v: (v * 7919) % 3001)
    x = np.zeros(10)
    for _ in range(1500):
        x = np.cumsum(x)[::-1] * 0.05 + 1.0
    np.sort(_PROBE_VALUES)
    _PROBE_RNG.multinomial(100_000, _PROBE_PVALS)
    return time.perf_counter() - start


def scale(seconds: float, probes: list[float]) -> float:
    """``seconds`` on a host where the median of ``probes`` is the reference."""
    return seconds * REFERENCE_PROBE_S / statistics.median(probes)


class Loop:
    """Closed-loop runner over an item pool; keeps latencies, probe times
    (one before the first item and one after each) and failures."""

    def __init__(self, items, main, tracer=None):
        self.items = items
        self.main = main
        self.tracer = tracer
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.failures: list[str] = []
        self.reports: list[dict] = []

    def run_one(self, item) -> None:
        if not self.probes:
            self.probes.append(probe())
        try:
            self._run_item(item)
        finally:
            self.probes.append(probe())

    def _run_item(self, item) -> None:
        if self.tracer is not None:
            self.tracer.item = len(self.latencies)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code = self.main(list(item.argv))
                elapsed = time.perf_counter() - start
        except Exception as exc:  # an item that raises is an error, not a crash
            self.failures.append(f"{item.kind} {item.argv}: raised {exc!r}")
            self.latencies.append(float("nan"))
            return
        self.latencies.append(elapsed)
        try:
            report = checks.check(item.kind, item.expect, code, out.getvalue())
        except checks.CheckFailed as exc:
            self.failures.append(f"{item.kind} {item.argv}: {exc}")
            return
        if item.kind == "tp2-project":
            self.reports.append(report["result"])

    def run(self, seconds: float, min_passes: int) -> int:
        """Run whole passes over the pool, so every run measures the same mix.

        The pass count is the one that best fills ``seconds`` at the speed of
        the first pass, and at least ``min_passes``.  Returns the count.
        """
        start = time.perf_counter()
        self.run_passes(1)
        first = time.perf_counter() - start
        passes = max(round(seconds / first), min_passes)
        self.run_passes(passes - 1)
        return passes

    def run_passes(self, passes: int) -> None:
        for _ in range(passes):
            for item in self.items:
                self.run_one(item)

    def scaled(self) -> list[float]:
        """Latencies scaled to the reference host speed.

        Item ``i`` ran between probes ``i`` and ``i + 1``; its host speed is
        the median of those two and the one on each side of them.
        """
        return [scale(t, self.probes[max(i - 1, 0):i + 3]) for i, t in enumerate(self.latencies)]



def warm_up(items, main) -> None:
    """Run the first item of each kind once, untimed, to finish lazy set-up."""
    seen = set()
    loop = Loop(items, main)
    for item in items:
        if item.kind not in seen:
            seen.add(item.kind)
            loop.run_one(item)


def projection_counts(reports) -> dict:
    """Exact counts read from the projection reports' ``trace``.

    ``objective_evals`` is the pattern-search trial evaluations per item
    that reached the search; ``accept_ratio`` is accepted moves over them.
    """
    n = len(reports)
    short = [r for r in reports if r["trace"]["source"] == "input-tp2"]
    searched = [r for r in reports if r["trace"]["source"] != "input-tp2"]
    evals = sum(sum(r["trace"]["iterations"]) for r in searched)
    accepted = sum(len(a) - 1 for r in searched for a in r["trace"]["accepted_per_restart"])
    ratios = [r["distance"] / r["trace"]["baseline_product_distance"] for r in searched]
    return {
        "items": n,
        "input_tp2_share": len(short) / n if n else 0.0,
        "objective_evals": evals / len(searched) if searched else 0.0,
        "accept_ratio": accepted / evals if evals else 0.0,
        "distance_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
    }


def overhead(plain: list[float], traced: list[float]) -> float:
    """Median over items of traced over untraced scaled latency, minus one.

    Both phases ran the same items in the same order, so item ``i`` of one
    pairs with item ``i`` of the other; a median of the pairs is steadier
    than a ratio of the phases' totals.
    """
    return statistics.median(t / p for p, t in zip(plain, traced) if p == p and t == t) - 1.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-passes", type=int, required=True)
    ap.add_argument("--traced", default=None, help="spans file; enables the traced run")
    args = ap.parse_args()

    with open(args.manifest, "rb") as fh:
        items = pickle.load(fh)
    from stochorder import cli

    warm_up(items, cli.main)
    seconds = args.seconds / 2 if args.traced else args.seconds
    plain = Loop(items, cli.main)
    passes = plain.run(seconds, args.min_passes)
    result = {
        "latencies": plain.scaled(),
        "raw_latencies": plain.latencies,
        "probe_s": statistics.median(plain.probes),
        "passes": passes,
        "failures": plain.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "projection": projection_counts(plain.reports),
    }
    if args.traced:
        tracer = tracing.Tracer()
        tracer.install()
        traced = Loop(items, cli.main, tracer)  # cli.main is now the wrapper
        traced.run_passes(passes)  # the same items as the untraced phase
        tracer.dump(args.traced)
        self_s, calls = tracer.self_times()
        n = len(traced.latencies)
        result["failures"] += traced.failures
        result["traced"] = {
            "items": n,
            "overhead_frac": overhead(plain.scaled(), traced.scaled()),
            "self_ms": {name: 1000.0 * s / n for name, s in zip(tracing.SPAN_NAMES, self_s)},
            "calls": {name: c / n for name, c in zip(tracing.SPAN_NAMES, calls)},
            "minors": tracer.minors / n,
            "draws": tracer.draws,
            "projection": projection_counts(traced.reports),
        }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
