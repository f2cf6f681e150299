"""Verdicts for the usual stochastic order and the likelihood ratio order.

All checks canonicalize their inputs, operate on the merged support with the
counting measure, and compare cross-multiplied masses only (see
:mod:`stochorder.isotonic`), so they are division free.  A failed verdict
always carries a witness from which the violated inequality can be recomputed.

``check_lr`` exposes four equivalent characterizations of the likelihood
ratio order on finite support:

* ``ratio`` - the pointwise mass ratio is isotonic where defined;
* ``pairwise`` - two-point cross products for every pair of support points;
* ``intervals`` - cross products of adjacent-interval masses over all
  boundary triples cut between atoms;
* ``conditional-st`` - stochastic dominance of the two conditional
  distributions on every window (a, b] with positive mass under both: at
  a < t < b, u1 * w2 <= u2 * w1 for u = m(t, b] and w = m(a, b].  With
  I = (a, t] and J = (t, b], u1 * w2 - u2 * w1 = m1(J) m2(I) - m2(J) m1(I),
  so a window passes exactly when the ``intervals`` triple (a, t, b) does (one
  with no mass under either gives 0 <= 0): the intervals scan in (a, b, t) order.

The last three run one chunked array scan (:mod:`stochorder.isotonic`) on the
2-row grid of the masses, and the witness is the first violation in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .distributions import Interval, UnivariateDist, _interval_slice
from .errors import DomainError, InvalidDistributionError
from .isotonic import (MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL, _beyond, _check_mode,
                       _interval_scan, _minor_scan, products_le)

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
    merged-support atom covers all real thresholds.  The witness is a
    violating threshold, and which one depends on the mode: float mode
    accumulates the survivals from the top (for tail accuracy) and reports
    the largest violating threshold, exact mode cross-multiplies from the
    bottom and reports the smallest.
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


def _midpoint(a: float, b: float) -> float:
    """(a + b) / 2, or a / 2 + b / 2 where the sum overflows."""
    mid = (a + b) / 2.0
    return mid if isfinite(mid) else a / 2.0 + b / 2.0


def _boundaries(atoms) -> list[float]:
    """Cut points between the sorted atoms, inside outer sentinels one unit (or,
    for |v| >= 2^53, one float) beyond the end atoms; index c splits before atom c."""
    vals = atoms.tolist()
    return [_beyond(vals[0], -1.0), *map(_midpoint, vals, vals[1:]), _beyond(vals[-1], 1.0)]


def _refined_axis(atoms) -> list[float]:
    """The sorted atoms interleaved with their cuts:
    [v0 - 1, v0, (v0 + v1) / 2, v1, ..., vn, vn + 1]."""
    cuts = _boundaries(atoms)
    return [v for pair in zip(cuts, atoms.tolist()) for v in pair] + cuts[-1:]


def check_lr(q1: UnivariateDist, q2: UnivariateDist, method: str = "ratio",
             mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Likelihood ratio order of q1 against q2 via the chosen characterization.

    All methods return identical verdicts on every input pair; they differ
    only in the shape of the witness they produce when the order fails.
    """
    _check_mode(mode)
    if method not in LR_METHODS:
        raise DomainError(f"unknown check_lr method {method!r}; choose from {LR_METHODS}")
    merged, g1, g2 = _merged_masses(q1, q2, mode)
    if method == "ratio":
        witness = _lr_ratio(merged, g1, g2, mode, tol)
    else:
        h = np.array([g1, g2], dtype=object if mode == MODE_EXACT else np.float64)
        hit = (_minor_scan(h, mode, tol) if method == "pairwise"
               else _interval_scan(h, mode, tol, by_last=method == "conditional-st"))
        labels = hit and (merged.tolist() if method == "pairwise" else _boundaries(merged))
        witness = hit and tuple(labels[i] for i in hit[1])
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
    # the floats stay probs / mass, which is not w / total in the last bits
    weights = q.masses(MODE_EXACT)[lo:hi] if q.mode == MODE_EXACT else None
    return UnivariateDist(support, probs / mass, weights)
