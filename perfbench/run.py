"""stochorder benchmark: documented CLI invocations run in-process.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs generated from ``--seed``; see ``workloads.py``):
``verdict-float``, ``verdict-exact``, ``project-empirical``, ``converge-sim``.

Each item is one ``stochorder.cli.main(argv)`` call with stdout captured and
checked by ``checks.py`` without calling the library under test, so an item
costs what a user pays per call: argument parsing, file load,
canonicalization, compute, input digests and JSON serialization.  The
interpreter and numpy import are paid once per launch and measured apart as
``setup_s``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over ``SETUP_LAUNCHES`` fresh interpreters, each
  running the workload's cold-start item (a cheap item on a small input)
  through ``python3 -m stochorder.cli``, from launch to exit.  The launches
  are spread in groups before, between and after the timed chunks, so a
  slow spell of a shared host covers only some of them;
* ``items_per_s``: items attempted over the summed item latency of the
  timed phase (closed loop, one client; output checking not timed), which
  runs whole passes over the pool in ``CHUNKS`` fresh worker processes;
* ``item_ms_p50`` and ``item_ms_tail``: the median and the ``TAIL_PCT``-th
  percentile of all item latencies; every run makes enough passes to leave
  at least ten samples above the tail;
* these four use times scaled to a reference host speed, measured by a
  probe loop timed before and after every item and every launch (see
  ``worker.py``; the launches and their probes share one core), because the
  speed of a shared host drifts by more than the bounds within minutes.  The
  unscaled medians and the median probe time are printed beside them;
* ``peak_rss_mb``: the largest peak RSS of the worker processes.

``--trace 1`` runs the same items untraced and then traced, and reports the
per-layer metrics: self time and calls per item of each wrapped public
function, the projection counts read from the reports, and the tracing
overhead.  Spans are written to ``.bench_out/``.

The lines before it summarize the run, including ``error_rate`` (items
whose output failed its check, exited unexpectedly or raised, over items
attempted) and, for ``project-empirical``, ``proj_distance_ratio`` (mean
projection distance over the product-of-marginals baseline distance).
Neither is a benchmark metric: the first is ``failed`` over ``attempted``
in the result line and 0 when the program is correct, the second exists on
one workload only and is the per-layer ``kuiper.tp2_project.distance_ratio``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every child runs alone, with numpy/BLAS
threads capped at the number of usable cores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The timed phase runs in this many worker processes, one after another,
#: with ``LAUNCHES_PER_GAP`` cold starts before, between and after them.
CHUNKS = 2
LAUNCHES_PER_GAP = 4
SETUP_LAUNCHES = LAUNCHES_PER_GAP * (CHUNKS + 1)
#: ``item_ms_tail`` is this percentile of all item latencies.  It falls
#: inside a cluster of similar item costs in every pool (in the 9-item pools,
#: among the second-slowest item's samples), not on a gap between two
#: clusters, where host noise would move it across the gap.
TAIL_PCT = 85
#: A run must end within 180 s; this leaves room for generation and set-up.
RUN_TIMEOUT_S = 150
LAUNCH_TIMEOUT_S = 20


def min_passes(pool: int) -> int:
    """Passes over the pool that leave at least ten latencies above the tail."""
    return math.ceil(10 / ((1 - TAIL_PCT / 100) * pool))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def cold_start(item, env) -> tuple[float, str | None]:
    """Seconds from launch to exit of a fresh CLI process, and a check failure."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "stochorder.cli", *item.argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    try:
        checks.check(item.kind, item.expect, proc.returncode, proc.stdout)
    except checks.CheckFailed as exc:
        return elapsed, f"cold start {item.argv}: {exc}"
    return elapsed, None


def tail(latencies_ms: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile (linear interpolation) and the count above it."""
    value = statistics.quantiles(latencies_ms, n=100, method="inclusive")[round(pct) - 1]
    return value, sum(1 for v in latencies_ms if v > value)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup: list[float], setup_raw: list[float]) -> tuple[dict, list[str]]:
    latencies_ms = [1000.0 * t for t in result["latencies"] if t == t]
    raw = [t for t in result["raw_latencies"] if t == t]
    tail_ms, beyond = tail(latencies_ms, TAIL_PCT)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "items_per_s": metric(1000.0 * len(result["latencies"]) / sum(latencies_ms), "1/s"),
        "item_ms_p50": metric(statistics.median(latencies_ms), "ms"),
        "item_ms_tail": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }
    notes = [
        f"items: {len(result['latencies'])} timed in {result['passes']} passes over a pool of "
        f"{result['pool']}",
        f"item_ms_p50: median of {len(latencies_ms)} latencies",
        f"item_ms_tail: p{TAIL_PCT} of {len(latencies_ms)} latencies, {beyond} above it",
        f"unscaled: item_ms_p50 {1000.0 * statistics.median(raw):.6g} ms, setup_s "
        f"{statistics.median(setup_raw):.6g} s; median probe "
        f"{1000.0 * result['probe_s']:.6g} ms, reference {1000.0 * worker.REFERENCE_PROBE_S:.6g} ms",
        f"setup_s: median of {len(setup)} launches, scaled {[round(s, 4) for s in setup]}",
    ]
    proj = result["projection"]
    if proj["items"]:
        notes.append(f"proj_distance_ratio: {proj['distance_ratio']:.6f} ratio "
                     f"(input TP2 share {proj['input_tp2_share']:.3f} of {proj['items']} items)")
    return metrics, notes


def per_layer(traced: dict) -> dict:
    self_ms, calls = traced["self_ms"], traced["calls"]
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.self_ms"] = metric(self_ms[name], "ms")
    for name in tracing.COUNTED:
        metrics[f"{name}.calls"] = metric(calls[name], "count")
    metrics["tp2.check_tp2.minors_computed"] = metric(traced["minors"], "count")
    empirical_s = self_ms["estimation.empirical"] * traced["items"] / 1000.0
    metrics["estimation.empirical.draws_per_s"] = metric(
        traced["draws"] / empirical_s if empirical_s else 0.0, "1/s")
    proj = traced["projection"]
    for key in ("objective_evals", "accept_ratio", "input_tp2_share", "distance_ratio"):
        unit = "count" if key == "objective_evals" else "ratio"
        metrics[f"kuiper.tp2_project.{key}"] = metric(proj[key], unit)
    metrics["trace.overhead_frac"] = metric(traced["overhead_frac"], "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stochorder", "cli.py")):
        sys.stderr.write(f"no stochorder sources under {ROOT}/src; run from a repository checkout\n")
        return 2

    os.chdir(ROOT)  # input paths are relative to the repository root, the children's cwd
    workdir = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        items = workloads.build(args.workload, args.seed, workdir)
        manifest = os.path.join(workdir, "manifest.pkl")
        with open(manifest, "wb") as fh:
            pickle.dump(items, fh)
        env = child_env()
        failures: list[str] = []
        setup: list[float] = []
        setup_raw: list[float] = []
        first = workloads.cold_start_item(items)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        result_path = os.path.join(workdir, "result.json")

        def launches(count: int) -> None:
            # the probe runs here and the launch in a child; both on one core,
            # because the vCPUs of a shared host differ in speed
            cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(cpus)})
            try:
                for _ in range(count):
                    before = worker.probe()
                    elapsed, failure = cold_start(first, env)
                    setup_raw.append(elapsed)
                    setup.append(worker.scale(elapsed, [before, worker.probe()]))
                    if failure:
                        failures.append(failure)
            finally:
                os.sched_setaffinity(0, cpus)

        def run_worker(seconds: float, passes: int, *extra: str) -> dict:
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), manifest, result_path,
                   "--seconds", str(seconds), "--min-passes", str(passes), *extra]
            proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=max(deadline - time.monotonic(), 1.0))
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited with {proc.returncode}")
            with open(result_path, encoding="utf-8") as fh:
                return json.load(fh)

        if args.trace:
            # the traced run reports no timing, so it needs no repeated passes
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            result = run_worker(args.seconds, 1, "--traced", spans)
        else:
            cold_start(first, env)  # untimed: lets the interpreter write its bytecode cache
            chunks = []
            for _ in range(CHUNKS):
                launches(LAUNCHES_PER_GAP)
                chunks.append(run_worker(args.seconds / CHUNKS,
                                         math.ceil(min_passes(len(items)) / CHUNKS)))
            launches(LAUNCHES_PER_GAP)
            result = {
                "latencies": [t for c in chunks for t in c["latencies"]],
                "raw_latencies": [t for c in chunks for t in c["raw_latencies"]],
                "probe_s": statistics.median(c["probe_s"] for c in chunks),
                "failures": [f for c in chunks for f in c["failures"]],
                "passes": sum(c["passes"] for c in chunks),
                "pool": len(items),
                "peak_rss_mb": max(c["peak_rss_mb"] for c in chunks),
                "projection": chunks[0]["projection"],  # the same items in every chunk
            }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:  # another run's inputs are still there
            pass

    failures += result["failures"]
    attempted = len(result["latencies"]) + len(setup)
    if args.trace:
        attempted += result["traced"]["items"]
        metrics = per_layer(result["traced"])
        notes = [f"traced items: {result['traced']['items']}"]
    else:
        metrics, notes = end_to_end(result, setup, setup_raw)
    notes.append(f"error_rate: {len(failures) / attempted:.4f} ratio ({len(failures)} of {attempted})")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
