"""Best-of-N wall times of the Kuiper layers and verdicts of one checkout, as JSON.

Usage, from the repository root::

    python3 tools/layer_times.py [--repeat N]

The sources under ``src`` next to this script are the ones timed.  Every
input is built here from fixed seeds, so two checkouts time the same work:

* ``tp2_project`` on n x n pmfs (uniform random cells, normalized; none is
  TP2): 5x5 and 8x8 with ``restarts=4``, 11x11 with ``restarts=1,
  max_iters=3`` and 16x16 with ``restarts=1, max_iters=2``, all with seed 3;
* ``kuiper_norm`` of standard normal deltas on 100x100 and 300x300 grids;
* the projection's stacked objective (a (k, g, g) stack of candidate pmfs
  to its Kuiper distances from a target pmf): k = 24 on the 7x7, 9x9 and
  11x11 refined grids of 3x3 to 5x5 inputs, and k = ``kuiper._stack_cap``,
  the largest stack the search sends, on the 17x17, 23x23 and 33x33 refined
  grids of 8x8, 11x11 and 16x16 inputs;
* the consecutive-row and survival verdicts, in float and exact mode, on
  holding inputs (so each scores every comparison): ``check_st`` and
  ``check_lr`` ``ratio`` on 3 and 2,000 atoms (weights w from seed n, against
  w * (1, 2, ..., n)), ``check_tp2`` ``pmf-adjacent`` on 3x3, 16x16 and 32x32
  grids and ``check_st_condition`` on 3x3 and 32x32 grids (cells
  r_i * c_j * (1 + min(i, j)), r and c from seed n, a TP2 kernel).  Float
  inputs are the weights over their total; exact inputs are the weights;
* the convergence harnesses on ``fixtures.random_tp2`` truths of k x k
  atoms, k = 12 and 20 (seed k), one sample of 1,000, 10,000 or 100,000
  draws with seed 1 and beta 0.5: ``bracket_check`` at the points after
  atoms k // 3 and 2k // 3, as the ``converge-sim`` workload places them,
  and ``uniform_convergence_check`` on the atoms from k // 4 to 3k // 4;
  ``bracket_check`` also once with all three sample sizes in its n_list;
* ``quantile_curve`` ``west-min`` and ``east-max`` at beta 0.5 on the
  default grid of the 20 x 20 float truth above;
* the harnesses' count path ``_CellStreams(r).counts`` on that 20 x 20
  truth with 10**5, 10**6 and 10**7 draws (seed 1), and on 100x100 and
  1000x1000 grids (uniform random cells from seed n, normalized) with 10**5
  and 10**6 draws, each also with the peak of the memory ``tracemalloc``
  traces during one call, as ``peak_mib``;
* the exact builds: ``BivariateDist.from_weights`` from nested lists of
  weights 0-9 (seed n) on n x n grids, n = 3, 20 and 100, as a JSON payload
  gives them; ``canonical()`` of a fresh 3x3 grid with an empty row (its
  build, then its build plus ``canonical()``); and that build plus exact
  ``check_tp2`` ``pmf-adjacent``, as acceptance criterion 06 runs each grid;
* the loaders, each load hashed into a fresh sha256 as the CLI hashes
  it: ``load_bivariate`` on a 100x100 CSV grid (uniform random cells from
  seed 100, normalized) in float mode and with ``exact=True``, which reads
  the decimal text through the ``csv`` module, ``load_univariate`` on 2,000
  atoms (seed 2000), both written by the package's CSV writers to a
  temporary directory, and ``load_bivariate`` with ``exact=True`` on the
  integer weights of the 32x32 TP2 grid below as a JSON file, as the
  ``verdict-exact`` workload writes its inputs;
* the builds from checked distributions: ``kernel_new`` of the 32x32 TP2
  grid below in float and exact mode (its TP2 check, boundaries and rows),
  and ``roc_curve`` and ``odc_curve`` of the 2,000-atom float pair below;
* the report writer ``cli._json_text`` on two reports built as the CLI
  builds them: ``roc`` of the 2,000-atom float pair above (2,001 points) and
  ``kernel --flavor new`` of the 32x32 float TP2 grid above (2,016 triples
  at its 63 default evaluation points).

Each entry is the best of ``--repeat`` timed calls, after one untimed call;
a verdict or build entry times runs of ``VERDICT_CALLS`` calls and gives the
time per call.  ``minflt`` is the change of the process's minor page faults
(``ru_minflt``) over all of an entry's timed calls, so heap pages that a
call returns to the system and takes back show up per entry.  Each entry
runs in a fresh interpreter (the script runs itself with ``--only N`` for
entry N), so no entry's time or faults depend on what earlier entries left
on the heap.  To compare two commits, run the script in a checkout of each,
alternating sides, since the speed of a shared host drifts within minutes.
The stacked objective calls ``kuiper._band_norm(delta)``, so a checkout
needs the slab-wise band kernel, which takes no row ranges, and
``kuiper._stack_cap``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
from stochorder import (BivariateDist, GridSignedMeasure, UnivariateDist, bracket_check,  # noqa: E402
                        check_lr, check_st, check_st_condition, check_tp2, cli, estimation, kernel_new,
                        kuiper, kuiper_norm, odc_curve, quantile_curve, roc_curve, tp2_project,
                        uniform_convergence_check)
from stochorder.distributions import (load_bivariate, load_univariate, write_bivariate_csv,  # noqa: E402
                                      write_univariate_csv)
from stochorder.fixtures import random_tp2  # noqa: E402

PROJECTIONS = ((5, {"restarts": 4}), (8, {"restarts": 4}),
               (11, {"restarts": 1, "max_iters": 3}), (16, {"restarts": 1, "max_iters": 2}))
NORMS = (100, 300)
STACK = 24
STACKED_GRIDS = (7, 9, 11)
#: refined grids whose stacked objective is timed at ``kuiper._stack_cap`` trials
CAPPED_GRIDS = (17, 23, 33)
PAIR_ATOMS = (3, 2000)
GRIDS = {"pmf-adjacent": (3, 16, 32), "st-condition": (3, 32)}
MODES = ("float", "exact")
HARNESS_TRUTHS = (12, 20)
HARNESS_SAMPLES = (1000, 10_000, 100_000)
CURVE_TRUTH = 20
COUNT_DRAWS = (10**5, 10**6, 10**7)
COUNT_GRIDS = (100, 1000)
LARGE_COUNT_DRAWS = (10**5, 10**6)
BUILD_GRIDS = (3, 20, 100)
#: a 3x3 grid of weights with an empty row, so ``canonical()`` builds anew
EMPTY_ROW = [[1, 0, 2], [0, 0, 0], [3, 4, 1]]
CSV_GRID = 100
CSV_ATOMS = 2000
REPORT_ATOMS = 2000
REPORT_GRID = 32
#: stands in for every input digest of a timed report
DIGEST = "sha256:" + "0" * 64


#: calls per timed run of a verdict, which takes microseconds
VERDICT_CALLS = 100


def best_ms(call, repeat: int, number: int = 1) -> tuple[float, int]:
    """The best of ``repeat`` timed runs of ``number`` calls, per call, and the
    minor page faults of all the timed calls together."""
    call()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - start) / number)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return round(min(times) * 1e3, 5), faults


def objective(target: np.ndarray):
    """The projection's objective on ``target``: a stack of pmfs to their Kuiper distances."""
    return lambda pmfs: kuiper._band_norm(pmfs - target)


def cases():
    """(layer, input, call) of every timed entry."""
    for n, kwargs in PROJECTIONS:
        pmf = np.random.default_rng(n).random((n, n))
        r = BivariateDist(np.arange(float(n)), np.arange(float(n)), pmf / pmf.sum())
        args = ", ".join(f"{k}={v}" for k, v in kwargs.items())
        yield "tp2_project", f"{n}x{n}, {args}", lambda r=r, kwargs=kwargs: tp2_project(r, seed=3, **kwargs)
    for n in NORMS:
        rng = np.random.default_rng(n)
        sigma = GridSignedMeasure(np.arange(float(n)), np.arange(float(n)), rng.normal(size=(n, n)))
        yield "kuiper_norm", f"{n}x{n}", lambda sigma=sigma: kuiper_norm(sigma)
    for g, k in (*((g, STACK) for g in STACKED_GRIDS), *((g, kuiper._stack_cap((g, g))) for g in CAPPED_GRIDS)):
        rng = np.random.default_rng(g)
        target = rng.random((g, g))
        target /= target.sum()
        cand = kuiper._PotentialCandidate(rng.normal(size=g), rng.normal(size=g),
                                          rng.exponential(0.2, (g - 1, g - 1)))
        pmfs = cand.pmf(cand.theta + rng.normal(0.0, 0.1, (k, cand.theta.size)))
        yield "stacked objective", f"k={k}, {g}x{g}", lambda f=objective(target), pmfs=pmfs: f(pmfs)


def pair(n: int, mode: str):
    """An LR-ordered pair on n atoms: weights w and w * (1, ..., n)."""
    w = np.random.default_rng(n).integers(1, 1000, n)
    support = np.arange(float(n))
    return tuple(UnivariateDist.from_weights(support, v.tolist()) if mode == "exact"
                 else UnivariateDist(support, v / v.sum()) for v in (w, w * np.arange(1, n + 1)))


def tp2_grid(n: int, mode: str) -> BivariateDist:
    """A TP2 n x n grid: cells r_i * c_j * (1 + min(i, j))."""
    rng = np.random.default_rng(n)
    i = np.arange(n)
    w = np.outer(rng.integers(1, 10, n), rng.integers(1, 10, n)) * (1 + np.minimum.outer(i, i))
    if mode == "exact":
        return BivariateDist.from_weights(i * 1.0, i * 1.0, w.tolist())
    return BivariateDist(i * 1.0, i * 1.0, w / w.sum())


def verdict_cases():
    """(layer, input, call) of every timed verdict; each input's verdict holds."""
    for mode in MODES:
        for n in PAIR_ATOMS:
            q1, q2 = pair(n, mode)
            yield "check_st", f"{n} atoms, {mode}", lambda q1=q1, q2=q2, mode=mode: check_st(q1, q2, mode)
            yield ("check_lr ratio", f"{n} atoms, {mode}",
                   lambda q1=q1, q2=q2, mode=mode: check_lr(q1, q2, "ratio", mode))
        for n in GRIDS["pmf-adjacent"]:
            r = tp2_grid(n, mode)
            yield ("check_tp2 pmf-adjacent", f"{n}x{n}, {mode}",
                   lambda r=r, mode=mode: check_tp2(r, "pmf-adjacent", mode))
        for n in GRIDS["st-condition"]:
            r = tp2_grid(n, mode)
            yield "check_st_condition", f"{n}x{n}, {mode}", lambda r=r, mode=mode: check_st_condition(r, mode)


def build_cases():
    """(layer, input, call) of every timed exact build; each call builds anew."""
    for n in BUILD_GRIDS:
        weights = np.random.default_rng(n).integers(0, 10, (n, n)).tolist()
        atoms = [float(i) for i in range(n)]
        yield ("BivariateDist.from_weights", f"{n}x{n} lists",
               lambda atoms=atoms, weights=weights: BivariateDist.from_weights(atoms, atoms, weights))

    def build():
        return BivariateDist.from_weights([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], EMPTY_ROW)

    yield "BivariateDist.from_weights", "3x3 lists, empty row", build
    yield "from_weights + canonical", "3x3, empty row", lambda: build().canonical()
    yield ("from_weights + check_tp2 pmf-adjacent", "3x3, empty row, exact",
           lambda: check_tp2(build(), "pmf-adjacent", "exact"))


def harness_cases():
    """(layer, input, call) of every timed convergence harness."""
    for size in HARNESS_TRUTHS:
        r = random_tp2(np.random.default_rng(size), size, size)
        xs = r.x_support.tolist()
        x1, x2 = xs[size // 3] + 0.5, xs[2 * size // 3] + 0.5
        window = (xs[size // 4], xs[3 * size // 4])
        for n in HARNESS_SAMPLES:
            yield ("bracket_check", f"{size}x{size}, n={n}",
                   lambda r=r, n=n, x1=x1, x2=x2: bracket_check(r, {"n_list": [n], "seed": 1}, 0.5, x1, x2))
            yield ("uniform_convergence_check", f"{size}x{size}, n={n}",
                   lambda r=r, n=n, window=window: uniform_convergence_check(r, 0.5, window, [n], [1]))
        yield ("bracket_check", f"{size}x{size}, n_list={list(HARNESS_SAMPLES)}",
               lambda r=r, x1=x1, x2=x2: bracket_check(r, {"n_list": HARNESS_SAMPLES, "seed": 1}, 0.5, x1, x2))
    r = random_tp2(np.random.default_rng(CURVE_TRUTH), CURVE_TRUTH, CURVE_TRUTH)
    for flavor in ("west-min", "east-max"):
        yield ("quantile_curve", f"{CURVE_TRUTH}x{CURVE_TRUTH}, float, {flavor}, default grid",
               lambda r=r, flavor=flavor: quantile_curve(r, 0.5, flavor))


def peak_mib(call) -> float:
    """The peak of the memory ``tracemalloc`` traces during one call, in MiB."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(peak / 2**20, 3)


def count_cases():
    """(layer, input, call) of every timed count path."""
    r = random_tp2(np.random.default_rng(CURVE_TRUTH), CURVE_TRUTH, CURVE_TRUTH)
    for n in COUNT_DRAWS:
        yield ("_CellStreams.counts", f"{CURVE_TRUTH}x{CURVE_TRUTH}, float, n={n}",
               lambda n=n: estimation._CellStreams(r).counts(n, 1))
    for k in COUNT_GRIDS:
        pmf = np.random.default_rng(k).random((k, k))
        grid = BivariateDist(np.arange(k, dtype=float), np.arange(k, dtype=float), pmf / pmf.sum())
        for n in LARGE_COUNT_DRAWS:
            yield ("_CellStreams.counts", f"{k}x{k}, float, n={n}",
                   lambda grid=grid, n=n: estimation._CellStreams(grid).counts(n, 1))


def parse_cases(tmp: str):
    """(layer, input, call) of every timed CSV load, on files written to ``tmp``."""
    pmf = np.random.default_rng(CSV_GRID).random((CSV_GRID, CSV_GRID))
    grid = os.path.join(tmp, "r.csv")
    write_bivariate_csv(BivariateDist(np.arange(float(CSV_GRID)), np.arange(float(CSV_GRID)),
                                      pmf / pmf.sum()), grid)
    probs = np.random.default_rng(CSV_ATOMS).random(CSV_ATOMS)
    atoms = os.path.join(tmp, "q.csv")
    write_univariate_csv(UnivariateDist(np.arange(float(CSV_ATOMS)), probs / probs.sum()), atoms)
    size = f"{CSV_GRID}x{CSV_GRID}"
    yield "load_bivariate", f"{size} CSV, float", lambda: load_bivariate(grid, digest=hashlib.sha256())
    yield ("load_bivariate", f"{size} CSV, exact",
           lambda: load_bivariate(grid, exact=True, digest=hashlib.sha256()))
    yield ("load_univariate", f"{CSV_ATOMS} atoms CSV, float",
           lambda: load_univariate(atoms, digest=hashlib.sha256()))
    weights = os.path.join(tmp, "r.json")
    r = tp2_grid(REPORT_GRID, "exact")
    with open(weights, "w", encoding="utf-8") as fh:
        json.dump({"x_support": r.x_support.tolist(), "y_support": r.y_support.tolist(),
                   "weights": r.weights.tolist()}, fh)
    yield ("load_bivariate", f"{REPORT_GRID}x{REPORT_GRID} JSON weights, exact",
           lambda: load_bivariate(weights, exact=True, digest=hashlib.sha256()))


def derived_cases():
    """(layer, input, call) of every timed build from checked distributions."""
    for mode in MODES:
        r = tp2_grid(REPORT_GRID, mode)
        yield ("kernel_new", f"{REPORT_GRID}x{REPORT_GRID}, {mode}",
               lambda r=r, mode=mode: kernel_new(r, mode=mode))
    q1, q2 = pair(REPORT_ATOMS, "float")
    yield "roc_curve", f"{REPORT_ATOMS} atoms, float", lambda: roc_curve(q1, q2)
    yield "odc_curve", f"{REPORT_ATOMS} atoms, float", lambda: odc_curve(q1, q2)


def writer_cases():
    """(layer, input, call) of every timed report write; the payloads are
    the ``roc`` and ``kernel`` results as ``cli`` builds them."""
    q1, q2 = pair(REPORT_ATOMS, "float")
    roc = cli._report("roc", {"q1": DIGEST, "q2": DIGEST}, {"points": roc_curve(q1, q2).points})
    kern = kernel_new(tp2_grid(REPORT_GRID, "float"))
    rows = [[[x, y, p] for y, p in zip(row.support.tolist(), row.probs.tolist())]
            for x, row in zip(kern.eval_points.tolist(), kern.rows)]
    kernel = cli._report("kernel", {"r": DIGEST}, {"flavor": kern.flavor,
                                                  "eval_points": kern.eval_points.tolist(), "rows": rows})
    yield "report writer", f"roc, {REPORT_ATOMS} atoms", lambda: cli._json_text(roc)
    yield ("report writer", f"kernel --flavor new, {REPORT_GRID}x{REPORT_GRID}",
           lambda: cli._json_text(kernel))


def timed_cases(tmp: str):
    """(layer, input, call, calls per timed run, kind) of every entry, in the
    order the entries are printed; kind is "verdict" for a verdict whose
    holding is checked first, "count" for an entry whose traced peak is
    added, else ""."""
    for layer, text, call in (*cases(), *harness_cases(), *parse_cases(tmp), *derived_cases(),
                              *writer_cases()):
        yield layer, text, call, 1, ""
    for layer, text, call in verdict_cases():
        yield layer, text, call, VERDICT_CALLS, "verdict"
    for layer, text, call in build_cases():
        yield layer, text, call, VERDICT_CALLS, ""
    for layer, text, call in count_cases():
        yield layer, text, call, 1, "count"


def entry(repeat: int, index: int) -> list:
    """The timed entry at ``index`` as a list of one, or an empty list past the last."""
    with tempfile.TemporaryDirectory() as tmp:
        for layer, text, call, number, kind in itertools.islice(timed_cases(tmp), index, index + 1):
            if kind == "verdict" and not call().holds:
                raise AssertionError(f"{layer} on {text} fails: it would not score every comparison")
            ms, minflt = best_ms(call, repeat, number)
            found = {"layer": layer, "input": text, "ms": ms, "minflt": minflt}
            if kind == "count":
                found["peak_mib"] = peak_mib(call)
            return [found]
    return []


def fresh_entries(repeat: int) -> list:
    """Every entry, each timed in a fresh interpreter."""
    found = []
    while True:
        argv = [sys.executable, os.path.abspath(__file__), "--repeat", str(repeat), "--only", str(len(found))]
        got = json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)["entries"]
        if not got:
            return found
        found += got


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per entry (best is kept)")
    ap.add_argument("--only", type=int, help="time only the entry at this index (from 0), in this process")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    found = fresh_entries(args.repeat) if args.only is None else entry(args.repeat, args.only)
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "repeat": args.repeat, "entries": found}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
