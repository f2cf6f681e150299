"""Best-of-N wall times of the Kuiper layers of one checkout, as JSON.

Usage, from the repository root::

    python3 tools/layer_times.py [--repeat N]

The sources under ``src`` next to this script are the ones timed.  Every
input is built here from fixed seeds, so two checkouts time the same work:

* ``tp2_project`` on n x n pmfs (uniform random cells, normalized; none is
  TP2): 5x5 and 8x8 with ``restarts=4``, 11x11 with ``restarts=1,
  max_iters=3`` and 16x16 with ``restarts=1, max_iters=2``, all with seed 3;
* ``kuiper_norm`` of standard normal deltas on 100x100 and 300x300 grids;
* the projection's stacked objective (a (24, g, g) stack of candidate pmfs
  to its Kuiper distances from a target pmf) on the 7x7, 9x9 and 11x11
  refined grids of 3x3 to 5x5 inputs.

Each entry is the best of ``--repeat`` timed calls, after one untimed call.
To compare two commits, run the script in a checkout of each, alternating
sides, since the speed of a shared host drifts within minutes.  The stacked
objective calls ``kuiper._band_norm(delta)``, so a checkout needs the
slab-wise band kernel, which takes no row ranges.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
from stochorder import BivariateDist, GridSignedMeasure, kuiper, kuiper_norm, tp2_project  # noqa: E402

PROJECTIONS = ((5, {"restarts": 4}), (8, {"restarts": 4}),
               (11, {"restarts": 1, "max_iters": 3}), (16, {"restarts": 1, "max_iters": 2}))
NORMS = (100, 300)
STACK = 24
STACKED_GRIDS = (7, 9, 11)


def best_ms(call, repeat: int) -> float:
    call()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1e3, 4)


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
    for g in STACKED_GRIDS:
        rng = np.random.default_rng(g)
        target = rng.random((g, g))
        target /= target.sum()
        cand = kuiper._PotentialCandidate(rng.normal(size=g), rng.normal(size=g),
                                          rng.exponential(0.2, (g - 1, g - 1)))
        pmfs = cand.pmf(cand.theta + rng.normal(0.0, 0.1, (STACK, cand.theta.size)))
        yield "stacked objective", f"k={STACK}, {g}x{g}", lambda f=objective(target), pmfs=pmfs: f(pmfs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per entry (best is kept)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    entries = [{"layer": layer, "input": text, "ms": best_ms(call, args.repeat)}
               for layer, text, call in cases()]
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "repeat": args.repeat, "entries": entries}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
