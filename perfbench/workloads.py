"""Seeded input generators and the item pools of the four workloads.

Every workload is a pool of CLI invocations ("items") built from the run's
seed.  The program sees only the files written here; the expectations that
the checks compare against come from the construction and travel with each
item in the manifest.

Bivariate TP2 inputs come from a bounded supermodular potential
``a_i + b_j + c * u_i * v_j`` with ``u``, ``v`` strictly increasing in
[0, 1], so every cell keeps mass within ``exp(-2 - c) .. 1`` of the largest
one and no row or column disappears under canonicalization.  Planted
violations raise one cell far enough above its neighbours that the minor
``(i-1, i) x (j, j+1)`` fails; that minor is the known witness.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from checks import is_tp2

@dataclass
class Item:
    """One CLI invocation and what its output must satisfy."""

    kind: str
    argv: list
    expect: dict = field(default_factory=dict)
    #: Run for ``setup_s``: one cheap item on a small input per workload,
    #: chosen by kind and size so its work is the same for every seed.
    cold: bool = False


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def _axis(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly increasing support values with at least 0.2 between atoms."""
    return np.round(np.cumsum(rng.uniform(0.2, 1.0, n)), 6)


def _unit_increasing(rng: np.random.Generator, n: int) -> np.ndarray:
    steps = rng.uniform(0.5, 1.5, n)
    u = np.cumsum(steps)
    return (u - u[0]) / (u[-1] - u[0])


def band_limits(l: int, m: int):
    """Nondecreasing column limits per row covering every column.

    The band's width is fixed by the shape, so the verdict's work is too.
    """
    half = math.ceil((m - 1) / (l - 1)) + 2
    centers = np.round(np.arange(l) * (m - 1) / (l - 1)).astype(int)
    return np.maximum(centers - half, 0), np.minimum(centers + half, m - 1)


def _plant_cell(rng, lo, hi, l: int, m: int, stratum: float):
    """A cell (i, j) with (i-1, j+1) also inside the support band.

    The all-pairs scan stops near row i, so i is fixed by the shape, at a
    quarter or three quarters of the rows (``stratum`` 0 or 0.5), to keep
    the early-exit work the same for every seed; only j is drawn.
    """
    i = 1 + int((stratum + 0.25) * (l - 1))
    j_hi = min(int(hi[i]), int(hi[i - 1]) - 1, m - 2)
    j = int(rng.integers(int(lo[i]), j_hi + 1))
    return i, j


def float_grid(rng: np.random.Generator, l: int, m: int, banded: bool, planted: bool) -> np.ndarray:
    """Float pmf from the bounded potential, band-masked and/or planted."""
    u = _unit_increasing(rng, l)
    v = _unit_increasing(rng, m)
    c = float(rng.uniform(1.0, 3.0))
    phi = rng.uniform(-1.0, 0.0, l)[:, None] + rng.uniform(-1.0, 0.0, m)[None, :] + c * np.outer(u, v)
    w = np.exp(phi)
    if banded:
        lo, hi = band_limits(l, m)
    else:
        lo, hi = np.zeros(l, dtype=int), np.full(l, m - 1)
    cols = np.arange(m)[None, :]
    w = np.where((cols >= lo[:, None]) & (cols <= hi[:, None]), w, 0.0)
    if planted:
        # the potential's minors are at most exp(c) away from equality
        w[_plant_cell(rng, lo, hi, l, m, 0.5 * banded)] *= math.exp(c + 3.0)
    return w / w.sum()


def exact_grid(rng: np.random.Generator, l: int, m: int, banded: bool, planted: bool) -> list:
    """Integer weights A_i * B_j * 2**(u_i * v_j) with nondecreasing integer u, v."""
    u = (np.arange(l) * 4) // l
    v = (np.arange(m) * 4) // m
    a = rng.integers(1, 41, l)
    b = rng.integers(1, 41, m)
    rows = [[int(a[i]) * int(b[j]) * 2 ** int(u[i] * v[j]) for j in range(m)] for i in range(l)]
    if banded:
        lo, hi = band_limits(l, m)
    else:
        lo, hi = np.zeros(l, dtype=int), np.full(l, m - 1)
    for i in range(l):
        for j in range(m):
            if not lo[i] <= j <= hi[i]:
                rows[i][j] = 0
    if planted:
        i, j = _plant_cell(rng, lo, hi, l, m, 0.5 * banded)
        rows[i][j] *= 1000  # the minor's ratio is at most 2**9
    return rows


def write_bivariate_csv(path: str, xs, ys, pmf) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,prob\n")
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                p = float(pmf[i][j])
                if p > 0.0:
                    fh.write(f"{x!r},{y!r},{p!r}\n")


def write_univariate_csv(path: str, support, probs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value,prob\n")
        for v, p in zip(support, probs):
            fh.write(f"{float(v)!r},{float(p)!r}\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# ---------------------------------------------------------------------------
# verdict workloads
# ---------------------------------------------------------------------------

GRID_SHAPES = ((16, 16), (24, 24), (32, 32), (20, 28))
PAIR_SIZES = (300, 800, 1400, 2000)


def _univariate_pair(rng, n: int, planted: bool, exact: bool):
    """q1 <=_lr q2 by construction, or q2 with one heavy low atom."""
    support = _axis(rng, n)
    if exact:
        w1 = rng.integers(100, 1000, n)
        w2 = w1 * (100 + np.cumsum(rng.integers(0, 3, n)))
        w1 = [int(w) for w in w1]
        w2 = [int(w) for w in w2]
    else:
        f = rng.normal(0.0, 0.5, n)
        g = np.cumsum(rng.uniform(0.5, 1.5, n)) * (2.0 / n)
        w1 = np.exp(f)
        w2 = np.exp(f + g)
    if planted:
        # an atom in the lowest quarter of q1's mass that ends up holding
        # 60% of q2's mass breaks every order at once
        cum = np.cumsum(np.asarray(w1, dtype=float))
        k_max = int(np.searchsorted(cum, 0.25 * cum[-1]))
        k = int(rng.integers(0, max(k_max, 1)))
        rest = sum(w2) - w2[k]
        w2[k] = math.ceil(1.5 * rest) if exact else 1.5 * rest
    if exact:
        return support, w1, w2
    return support, w1 / w1.sum(), w2 / w2.sum()


def _verdict_items(seed: int, workdir: str, exact: bool) -> list[Item]:
    flag = ["--exact"] if exact else []
    ext = "json" if exact else "csv"
    items: list[Item] = []
    key = 0
    for l, m in GRID_SHAPES:
        for banded in (False, True):
            for planted in (False, True):
                key += 1
                rng = _rng(seed, 1, int(exact), key)
                xs = _axis(rng, l).tolist()
                ys = _axis(rng, m).tolist()
                path = os.path.join(workdir, f"grid{key}.{ext}")
                if exact:
                    rows = exact_grid(rng, l, m, banded, planted)
                    write_json(path, {"x_support": xs, "y_support": ys, "weights": rows})
                    values = rows
                else:
                    pmf = float_grid(rng, l, m, banded, planted)
                    write_bivariate_csv(path, xs, ys, pmf)
                    values = pmf.tolist()
                expect = {"xs": xs, "ys": ys, "values": values, "exact": exact,
                          "holds": not planted}
                items.append(Item("tp2-check", ["tp2", "check", "--r", path, *flag], expect))
                items.append(Item("kernel-new", ["kernel", "--r", path, "--flavor", "new", *flag], expect))
                items.append(Item("boundaries", ["boundaries", "--r", path, *flag], expect))
    for n in PAIR_SIZES:
        for planted in (False, True):
            key += 1
            rng = _rng(seed, 2, int(exact), key)
            support, g1, g2 = _univariate_pair(rng, n, planted, exact)
            p1 = os.path.join(workdir, f"q{key}a.{ext}")
            p2 = os.path.join(workdir, f"q{key}b.{ext}")
            if exact:
                write_json(p1, {"support": support.tolist(), "weights": g1})
                write_json(p2, {"support": support.tolist(), "weights": g2})
                g1v, g2v = g1, g2
            else:
                write_univariate_csv(p1, support, g1)
                write_univariate_csv(p2, support, g2)
                g1v, g2v = g1.tolist(), g2.tolist()
            expect = {"support": support.tolist(), "g1": g1v, "g2": g2v, "exact": exact,
                      "holds": not planted}
            pair = ["--q1", p1, "--q2", p2]
            items.append(Item("check-lr", ["check-lr", *pair, *flag], expect,
                              cold=n == PAIR_SIZES[0] and not planted))
            items.append(Item("check-st", ["check-st", *pair, *flag], expect))
            items.append(Item("roc", ["roc", *pair, "--verdict", *flag], expect))
            items.append(Item("odc", ["odc", *pair, "--verdict", *flag], expect))
    return items


def build_verdict_float(seed: int, workdir: str) -> list[Item]:
    """Float CSV items."""
    return _verdict_items(seed, workdir, exact=False)


def build_verdict_exact(seed: int, workdir: str) -> list[Item]:
    """The same shapes and mix as integer-weight JSON run with ``--exact``:
    the only items on the exact branches."""
    return _verdict_items(seed, workdir, exact=True)


# ---------------------------------------------------------------------------
# projection workload
# ---------------------------------------------------------------------------

PROJECT_SHAPES = (3, 4, 5)
PROJECT_DRAWS = (400, 1000, 2000)
#: Pool items whose empirical is drawn until it is already TP2 (the
#: short-circuit path); all others are drawn until it is not.  Fixing the
#: share keeps the pool's work the same for every seed.
PROJECT_TP2_KEYS = (0,)
#: One item per shape and sample size: the pattern search's work depends on
#: the shape, not on the sampled values, so a small pool run many times
#: gives steadier figures than a large pool run few times.
PROJECT_POOL = 9


def _empirical_counts(rng, pmf: np.ndarray, n: int, tp2: bool) -> np.ndarray:
    """Multinomial counts hitting every row and column, TP2 or not as asked."""
    for _ in range(100_000):
        counts = rng.multinomial(n, pmf.ravel()).reshape(pmf.shape)
        if counts.sum(axis=1).all() and counts.sum(axis=0).all() and is_tp2(counts / n) == tp2:
            return counts
    raise RuntimeError("no empirical of the requested kind drawn")


def build_project(seed: int, workdir: str) -> list[Item]:
    items: list[Item] = []
    for key in range(PROJECT_POOL):
        k = PROJECT_SHAPES[key % len(PROJECT_SHAPES)]
        n = PROJECT_DRAWS[(key // len(PROJECT_SHAPES)) % len(PROJECT_DRAWS)]
        rng = _rng(seed, 3, key)
        grid = np.linspace(0.0, 1.0, k)
        c = float(rng.uniform(0.8, 1.2))
        truth = np.exp(c * np.outer(grid, grid))
        counts = _empirical_counts(rng, truth / truth.sum(), n, key in PROJECT_TP2_KEYS)
        xs = _axis(rng, k).tolist()
        ys = _axis(rng, k).tolist()
        path = os.path.join(workdir, f"emp{key}.csv")
        pmf = counts / n
        write_bivariate_csv(path, xs, ys, pmf)
        expect = {"xs": xs, "ys": ys, "values": pmf.tolist()}
        seed_arg = str(int(rng.integers(0, 2**31)))
        items.append(Item("tp2-project",
                          ["tp2", "project", "--r", path, "--seed", seed_arg, "--restarts", "2"],
                          expect, cold=key == 0))
    return items


# ---------------------------------------------------------------------------
# convergence workload
# ---------------------------------------------------------------------------

TRUTH_SIZES = (12, 16, 20)
KUIPER_SIZES = (60, 80, 100)
NS = "1000,10000,100000"


def _truth(rng, l: int, m: int):
    pmf = float_grid(rng, l, m, banded=False, planted=False)
    return (np.arange(1.0, l + 1.0).tolist(), np.arange(1.0, m + 1.0).tolist(), pmf)


def build_converge(seed: int, workdir: str) -> list[Item]:
    items: list[Item] = []
    key = 0
    for size in TRUTH_SIZES:
        key += 1
        rng = _rng(seed, 4, key)
        xs, ys, pmf = _truth(rng, size, size)
        path = os.path.join(workdir, f"truth{key}.csv")
        write_bivariate_csv(path, xs, ys, pmf)
        lo = int(rng.integers(1, 4))
        x1 = xs[size // 3] + 0.5
        x2 = xs[2 * size // 3] + 0.5
        expect = {"ys": ys, "xs": xs, "seeds": 3, "ns": 3}
        items.append(Item("converge-bracket",
                          ["converge", "bracket", "--r", path, "--beta", "0.5", "--ns", NS,
                           "--seeds", f"{lo}..{lo + 2}", "--x1", repr(x1), "--x2", repr(x2)],
                          expect))
        a, b = xs[size // 4], xs[3 * size // 4]
        expect = {"ys": ys, "xs": xs, "seeds": 2, "ns": 3, "window": [a, b]}
        items.append(Item("converge-uniform",
                          ["converge", "uniform", "--r", path, "--beta", "0.5", "--ns", NS,
                           "--seeds", f"{lo}..{lo + 1}", "--a", repr(a), "--b", repr(b)],
                          expect))
    for size in KUIPER_SIZES:
        key += 1
        rng = _rng(seed, 5, key)
        xs, ys, pmf = _truth(rng, size, size)
        n = 20 * size * size
        counts = rng.multinomial(n, pmf.ravel()).reshape(pmf.shape)
        emp = counts / n
        pa = os.path.join(workdir, f"ktruth{key}.csv")
        pb = os.path.join(workdir, f"kemp{key}.csv")
        write_bivariate_csv(pa, xs, ys, pmf)
        write_bivariate_csv(pb, xs, ys, emp)
        expect = {"delta": (pmf - emp).tolist()}
        items.append(Item("kuiper-dist", ["kuiper", "dist", "--a", pa, "--b", pb], expect,
                          cold=key == len(TRUTH_SIZES) + 1))
    return items


BUILDERS = {
    "verdict-float": build_verdict_float,
    "verdict-exact": build_verdict_exact,
    "project-empirical": build_project,
    "converge-sim": build_converge,
}


def build(workload: str, seed: int, workdir: str) -> list[Item]:
    """Write the workload's inputs into ``workdir`` and return its item pool.

    The pool interleaves the item kinds in an order fixed for all seeds, so
    a slow spell of the host does not fall on one kind only.
    """
    items = BUILDERS[workload](seed, workdir)
    order = np.random.Generator(np.random.PCG64(len(items))).permutation(len(items))
    return [items[i] for i in order]


def cold_start_item(items: list[Item]) -> Item:
    """The item a fresh interpreter runs for ``setup_s``."""
    return next(item for item in items if item.cold)
