"""Verdicts for the usual stochastic order and the likelihood ratio order.

All checks canonicalize their inputs, operate on the merged support with the
counting measure, and compare cross-multiplied masses only (see
:mod:`stochorder.isotonic`), so they are division free.  A failed verdict
always carries a witness from which the violated inequality can be recomputed.

``check_lr`` exposes four equivalent characterizations of the likelihood
ratio order on finite support:

* ``ratio`` - the pointwise mass ratio is isotonic where defined;
* ``pairwise`` - two-point cross products for every pair of support points,
  scored by the all-pairs minor scan that also backs ``check_tp2``: one
  chunked array pass whose witness is the first violation in serial order;
* ``intervals`` - cross products of adjacent-interval masses over all
  boundary triples cut between atoms;
* ``conditional-st`` - stochastic dominance of the two conditional
  distributions on every window with positive mass under both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, isqrt

import numpy as np

from .distributions import Interval, UnivariateDist, _interval_slice
from .errors import DomainError, InvalidDistributionError
from .isotonic import (MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL, _check_mode, _cumulative,
                       _interval_scan, first_violation, products_le)

LR_METHODS = ("ratio", "pairwise", "intervals", "conditional-st")


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of an order or shape check.

    ``witness`` is present exactly when the verdict fails and names the
    points/boundaries at which the checked inequality is violated.
    """

    holds: bool
    method: str
    witness: tuple | None = None

    def __post_init__(self):
        if self.holds == (self.witness is not None):
            raise InvalidDistributionError("verdict must carry a witness iff it fails")

    def __bool__(self) -> bool:
        return self.holds


def _holds(method: str) -> OrderVerdict:
    return OrderVerdict(True, method)


def _fails(method: str, witness: tuple) -> OrderVerdict:
    return OrderVerdict(False, method, witness)


# ---------------------------------------------------------------------------
# merged-support mass extraction
# ---------------------------------------------------------------------------


def _merged_masses(q1: UnivariateDist, q2: UnivariateDist, mode: str):
    """Merged support of the canonical pair and both mass lists on it, in the
    numbers of the mode (Python ints in exact mode, floats otherwise)."""
    q1 = q1.canonical()
    q2 = q2.canonical()
    merged = np.union1d(q1.support, q2.support)
    out = []
    for q in (q1, q2):
        g = np.zeros(merged.size, dtype=object if mode == MODE_EXACT else np.float64)
        g[np.searchsorted(merged, q.support)] = q.masses(mode)
        out.append(g.tolist())
    return merged, out[0], out[1]


# ---------------------------------------------------------------------------
# stochastic order
# ---------------------------------------------------------------------------


def check_st(q1: UnivariateDist, q2: UnivariateDist, mode: str = MODE_FLOAT,
             tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Usual stochastic order: the survival of q1 never exceeds that of q2.

    The survival functions are step functions, so comparing them at every
    merged-support atom covers all real thresholds.  The witness is the
    violating threshold.
    """
    _check_mode(mode)
    merged, g1, g2 = _merged_masses(q1, q2, mode)
    if mode == MODE_EXACT:
        t1, t2 = sum(g1), sum(g2)
        s1, s2 = t1, t2
        for y, m1, m2 in zip(merged.tolist(), g1, g2):
            s1 -= m1
            s2 -= m2
            # survival ratios s1/t1 <= s2/t2, cross-multiplied
            if s1 * t2 > s2 * t1:
                return _fails("st", (y,))
        return _holds("st")
    # accumulate from the top so tail survivals keep full relative accuracy
    s1 = 0.0
    s2 = 0.0
    for y, m1, m2 in zip(merged.tolist()[::-1], g1[::-1], g2[::-1]):
        if s1 > s2 + tol:
            return _fails("st", (y,))
        s1 += m1
        s2 += m2
    return _holds("st")


# ---------------------------------------------------------------------------
# likelihood ratio order
# ---------------------------------------------------------------------------


def _lr_ratio(merged, g1, g2, mode, tol):
    pts = [i for i in range(len(merged)) if g1[i] > 0 or g2[i] > 0]
    for a, b in zip(pts, pts[1:]):
        if not products_le(g2[a] * g1[b], g1[a] * g2[b], mode, tol):
            return (float(merged[a]), float(merged[b]))
    return None


#: minors scored per array pass of the all-pairs scan; bounds its working memory
MINOR_BUDGET = 2**14

#: largest weight whose products with any other such weight fit in int64
INT64_FACTOR_MAX = isqrt(2**63 - 1)


@lru_cache(maxsize=8)
def _pairs(n: int, lo: int, hi: int):
    """The pairs i < j < n at positions [lo, hi) of ``combinations`` order."""
    starts = np.arange(n) * (2 * n - np.arange(n) - 1) // 2  # first position of each i
    flat = np.arange(lo, hi)
    i = np.searchsorted(starts, flat, side="right") - 1
    j = flat - starts[i] + i + 1
    i.flags.writeable = j.flags.writeable = False  # every caller of the cache shares them
    return i, j


def _minor_scan(h: np.ndarray, mode: str, tol: float):
    """First minor (i, k, j, l), row pairs i < k then column pairs j < l in
    ``combinations`` order, failing ``products_le(h[i,l]*h[k,j], h[i,j]*h[k,l])``.

    Array passes score at most ``MINOR_BUDGET`` minors each, in serial order,
    with the same IEEE operations as ``products_le``; exact grids run on int64
    when every product fits, else on the object array of Python ints.
    """
    if mode == MODE_EXACT and h.max() <= INT64_FACTOR_MAX:
        h = h.astype(np.int64)
    nx, ny = h.shape
    n_rows, n_cols = nx * (nx - 1) // 2, ny * (ny - 1) // 2
    rows_step = max(1, MINOR_BUDGET // max(n_cols, 1))  # 1 when column pairs need slices
    for r0 in range(0, n_rows if n_cols else 0, rows_step):
        i, k = _pairs(nx, r0, min(r0 + rows_step, n_rows))
        top, bot = h.take(i, 0), h.take(k, 0)
        for c0 in range(0, n_cols, MINOR_BUDGET):
            j, l = _pairs(ny, c0, min(c0 + MINOR_BUDGET, n_cols))
            lhs = top.take(l, 1) * bot.take(j, 1)
            rhs = top.take(j, 1) * bot.take(l, 1)
            first = first_violation(lhs, rhs, mode, tol)
            if first is not None:
                r, c = divmod(first, lhs.shape[1])
                return int(i[r]), int(k[r]), int(j[c]), int(l[c])
    return None


def _lr_pairwise(merged, g1, g2, mode, tol):
    h = np.array([g1, g2], dtype=object if mode == MODE_EXACT else np.float64)
    hit = _minor_scan(h, mode, tol)
    return None if hit is None else (float(merged[hit[2]]), float(merged[hit[3]]))


def _midpoint(a: float, b: float) -> float:
    """(a + b) / 2, or a / 2 + b / 2 where the sum overflows."""
    mid = (a + b) / 2.0
    return mid if isfinite(mid) else a / 2.0 + b / 2.0


def _refined_axis(atoms) -> list[float]:
    """The sorted atoms interleaved with the midpoints between consecutive
    atoms, inside outer sentinels one unit beyond the end atoms:
    [v0 - 1, v0, (v0 + v1) / 2, v1, ..., vn, vn + 1]."""
    vals = atoms.tolist()
    out = [vals[0] - 1.0, vals[0]]
    for a, b in zip(vals, vals[1:]):
        out += [_midpoint(a, b), b]
    out.append(vals[-1] + 1.0)
    return out


def _boundaries(merged) -> list[float]:
    """Cut points between atoms plus outer sentinels (the even positions of
    the refined axis); index c splits before atom c."""
    return _refined_axis(merged)[::2]


def _lr_intervals(merged, g1, g2, mode, tol):
    hit = _interval_scan(_cumulative(g1), _cumulative(g2), mode, tol)
    if hit is None:
        return None
    cuts = _boundaries(merged)
    return tuple(cuts[i] for i in hit)


def _lr_conditional_st(merged, g1, g2, mode, tol):
    cuts = _boundaries(merged)
    c1 = _cumulative(g1)
    c2 = _cumulative(g2)
    n = len(cuts)
    for a in range(n):
        for b in range(a + 1, n):
            w1 = c1[b] - c1[a]
            w2 = c2[b] - c2[a]
            if w1 <= 0 or w2 <= 0:
                continue
            for t in range(a + 1, b):
                u1 = c1[b] - c1[t]
                u2 = c2[b] - c2[t]
                # conditional survivals u1/w1 <= u2/w2, cross-multiplied
                if not products_le(u1 * w2, u2 * w1, mode, tol):
                    return (cuts[a], cuts[b], cuts[t])
    return None


_LR_IMPL = {
    "ratio": _lr_ratio,
    "pairwise": _lr_pairwise,
    "intervals": _lr_intervals,
    "conditional-st": _lr_conditional_st,
}


def check_lr(q1: UnivariateDist, q2: UnivariateDist, method: str = "ratio",
             mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Likelihood ratio order of q1 against q2 via the chosen characterization.

    All methods return identical verdicts on every input pair; they differ
    only in the shape of the witness they produce when the order fails.
    """
    _check_mode(mode)
    if method not in _LR_IMPL:
        raise DomainError(f"unknown check_lr method {method!r}; choose from {LR_METHODS}")
    merged, g1, g2 = _merged_masses(q1, q2, mode)
    witness = _LR_IMPL[method](merged, g1, g2, mode, tol)
    tag = f"lr:{method}"
    return _holds(tag) if witness is None else _fails(tag, witness)


def truncate(q: UnivariateDist, iv: Interval) -> UnivariateDist:
    """Conditional distribution of q given the interval, renormalized."""
    q = q.canonical()
    lo, hi = _interval_slice(q.support, iv)
    if lo == hi:
        raise DomainError(f"interval {iv} carries zero mass")
    support = q.support[lo:hi]
    probs = q.probs[lo:hi]
    mass = float(probs.sum())
    if mass <= 0.0:
        raise DomainError(f"interval {iv} carries zero mass")
    weights = None if q.weights is None else q.weights[lo:hi]
    return UnivariateDist(support, probs / mass, weights)
