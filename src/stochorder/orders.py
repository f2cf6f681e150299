"""Verdicts for the usual stochastic order and the likelihood ratio order.

All checks canonicalize their inputs, operate on the merged support with the
counting measure, and compare cross-multiplied masses only, so they are
division free.  Every verdict is one ``isotonic.first_violation`` pass over
the (2, n) array of the pair's masses in the mode's numbers, and a failed
verdict carries a witness from which the violated inequality can be
recomputed.

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

``ratio`` is ``_ratio_scan`` on the 2-row grid of the masses; the last three
run the chunked product scan (:mod:`stochorder.isotonic`) on it.  The witness
is the first violation in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .distributions import MASS_TOL, Interval, UnivariateDist, _derived, _interval_slice
from .errors import DomainError, InvalidDistributionError
from .isotonic import (MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL, _beyond, _check_mode,
                       _interval_scan, _minor_scan, first_violation, scan_dtype)

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
    """Merged support of the canonical pair and the (2, n) array of both
    masses on it, in the numbers of the mode (Python ints in exact mode,
    floats otherwise)."""
    q1 = q1.canonical()
    q2 = q2.canonical()
    merged = np.union1d(q1.support, q2.support)
    h = np.zeros((2, merged.size), dtype=q1.masses(mode).dtype)
    for row, q in zip(h, (q1, q2)):
        row[np.searchsorted(merged, q.support)] = q.masses(mode)
    return merged, h


# ---------------------------------------------------------------------------
# stochastic order
# ---------------------------------------------------------------------------


def check_st(q1: UnivariateDist, q2: UnivariateDist, mode: str = MODE_FLOAT,
             tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Usual stochastic order: the survival of q1 never exceeds that of q2.

    The survival functions are step functions, so comparing them above every
    merged-support atom covers all real thresholds.  The survivals are
    accumulated from the top (for tail accuracy) and compared as
    s1 * t2 <= s2 * t1 with the totals t (1.0 for float masses).  The witness
    is a violating threshold: the largest in float mode, the smallest in
    exact mode.
    """
    _check_mode(mode)
    merged, h = _merged_masses(q1, q2, mode)
    t1, t2 = h.sum(axis=1) if mode == MODE_EXACT else (1.0, 1.0)
    h = h[:, ::-1].astype(scan_dtype(mode, max(t1, t2)))
    up = np.zeros_like(h)  # [:, k]: the masses above the k-th atom from the top
    np.cumsum(h[:, :-1], axis=1, out=up[:, 1:])
    lhs, rhs, atoms = up[0] * t2, up[1] * t1, merged[::-1]
    if mode == MODE_EXACT:
        lhs, rhs, atoms = lhs[::-1], rhs[::-1], merged
    k = first_violation(lhs, rhs, mode, tol)
    return _holds("st") if k is None else _fails("st", (atoms[k].item(),))


# ---------------------------------------------------------------------------
# likelihood ratio order
# ---------------------------------------------------------------------------


def _ratio_scan(h: np.ndarray, mode: str, tol: float):
    """First ((i, i + 1), (a, b)) where rows i, i + 1 of the grid ``h`` fail
    h[i+1, a] * h[i, b] <= h[i, a] * h[i+1, b], rows outer, for consecutive
    columns a < b of those that are positive in either row; its factors are
    cells.  A column b positive in neither row, or with no such column
    before it, is scored against column 0 and gives 0 <= 0."""
    h = h.astype(scan_dtype(mode, h.max()), copy=False)
    m = h.shape[1]
    top, bot = h[:-1], h[1:]
    # a[i, b - 1]: the last column before b positive in row i or i + 1, else 0
    a = np.maximum.accumulate((top[:, :-1] + bot[:, :-1] > 0) * np.arange(m - 1), axis=1)
    flat = a + np.arange(0, top.size, m)[:, None]
    k = first_violation(bot.take(flat) * top[:, 1:], top.take(flat) * bot[:, 1:], mode, tol)
    if k is None:
        return None
    i, b = divmod(k, m - 1)
    return (i, i + 1), (int(a[i, b]), b + 1)


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
    merged, h = _merged_masses(q1, q2, mode)
    hit = (_ratio_scan(h, mode, tol) if method == "ratio"
           else _minor_scan(h, mode, tol) if method == "pairwise"
           else _interval_scan(h, mode, tol, by_last=method == "conditional-st"))
    labels = hit and (_boundaries(merged) if method in ("intervals", "conditional-st")
                      else merged.tolist())
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
    # The floats stay probs / mass, which is not w / total in the last bits.
    # Subnormal masses can stray further, so the constructor checks a
    # mismatch beyond MASS_TOL.
    floats = probs / mass
    weights = None if q.weights is None else q.weights[lo:hi]
    if weights is not None and (np.abs(weights / weights.sum() - floats) > MASS_TOL).any():
        return UnivariateDist(support, floats, weights)
    return _derived(UnivariateDist, (support,), floats, weights)
