"""ROC point sets with the concavity criterion, and ordinal dominance curves.

The ROC of a pair (q1, q2) is the finite set of survival pairs
(q1((y, inf)), q2((y, inf))) over thresholds y in the merged support together
with the corner points (0, 0) and (1, 1); no interpolation is performed.
Concavity of this point set is equivalent to the likelihood ratio order.

The ordinal dominance curve evaluates the second distribution function at the
quantiles of the first, restricted to the image of the first distribution
function; convexity there is equivalent to the likelihood ratio order as
soon as q2 is absolutely continuous with respect to q1 (for finite support:
support inclusion), and the flag for that condition is carried on the curve.

Exact mode works on the integer weights: each axis is an integer weight over
a positive total, and both sides of the triple test scale by the same positive
factor, so the verdict on the integers is the verdict on the rationals.  The
floats are ``int / int``, which Python rounds correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

import numpy as np

from .distributions import UnivariateDist
from .errors import DomainError, InvalidDistributionError
from .isotonic import (INT64_FACTOR_MAX, MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL, _check_mode,
                       _cumulative, first_violation)
from .orders import OrderVerdict, _fails, _holds, _merged_masses


def _exact_view(weights, axis: int) -> tuple[Fraction, ...] | None:
    return None if weights is None else tuple(Fraction(w, weights[2 + axis]) for w in weights[axis])


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Sorted, deduplicated ROC points in the unit square.

    Both coordinates are nondecreasing along the sorted sequence and the
    corners (0, 0) and (1, 1) are always present.  For integer-weight inputs
    ``weights`` holds the exact points as q1's and q2's survival weights, then
    the two totals; ``exact_points`` reads them as rationals.
    """

    points: tuple[tuple[float, float], ...]
    weights: tuple[tuple[int, ...], tuple[int, ...], int, int] | None = None

    def __post_init__(self):
        pts = tuple((float(u), float(v)) for u, v in self.points)
        if pts != tuple(sorted(set(pts))):
            raise InvalidDistributionError("ROC points must be sorted and deduplicated")
        if (0.0, 0.0) not in pts or (1.0, 1.0) not in pts:
            raise InvalidDistributionError("ROC must contain (0,0) and (1,1)")
        for (u1, v1), (u2, v2) in zip(pts, pts[1:]):
            if u2 < u1 or v2 < v1:
                raise InvalidDistributionError("ROC points must be componentwise monotone")
        if any(not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0) for u, v in pts):
            raise InvalidDistributionError("ROC points must lie in the unit square")
        object.__setattr__(self, "points", pts)

    @property
    def exact_points(self) -> tuple[tuple[Fraction, Fraction], ...] | None:
        if self.weights is None:
            return None
        return tuple(zip(_exact_view(self.weights, 0), _exact_view(self.weights, 1)))


@dataclass(frozen=True, eq=False)
class OdcCurve:
    """Ordinal dominance curve on the image of the first distribution function.

    ``alphas`` is {0} followed by the cumulative masses of q1 (strictly
    increasing, ending at the total mass, clamped to 1); ``values`` holds the
    second distribution function at the corresponding quantiles of the first.
    ``dominated`` reports whether every q2 atom is a q1 atom.  For
    integer-weight inputs ``weights`` holds q1's and q2's cumulative weights
    at the levels, then the totals (q2's last level falls short of its total
    when q2 has atoms above q1's); ``exact_alphas`` / ``exact_values`` divide.
    """

    alphas: tuple[float, ...]
    values: tuple[float, ...]
    dominated: bool
    weights: tuple[tuple[int, ...], tuple[int, ...], int, int] | None = None

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        values = tuple(float(v) for v in self.values)
        if len(alphas) != len(values):
            raise InvalidDistributionError("alphas and values must have equal length")
        if alphas[0] != 0.0 or alphas[-1] != 1.0:
            raise InvalidDistributionError("alphas must start at 0 and end at 1")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise InvalidDistributionError("alphas must be strictly increasing")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise InvalidDistributionError("values must lie in [0, 1]")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "values", values)

    exact_alphas = property(lambda self: _exact_view(self.weights, 0))
    exact_values = property(lambda self: _exact_view(self.weights, 1))


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _axes(curve, floats, mode: str):
    """The axes a verdict scans and their totals: the integer weights in
    exact mode, else the floats over unit totals."""
    if _check_mode(mode) != MODE_EXACT:
        return (*floats, 1, 1)
    if curve.weights is None:
        raise DomainError("exact mode requires a curve built from integer-weight inputs")
    return curve.weights


def _first_bend(x, y, mode: str, tol: float) -> int | None:
    """First k whose triple k, k+1, k+2 fails ``products_le`` on
    (y[k+2]-y[k+1])*(x[k+1]-x[k]) <= (y[k+1]-y[k])*(x[k+2]-x[k+1]), in one
    array pass over nondecreasing, nonnegative ``x`` and ``y``; exact mode
    runs on int64 when every value is at most ``INT64_FACTOR_MAX``."""
    dtype = np.float64 if mode != MODE_EXACT else object
    if mode == MODE_EXACT and max(x[-1], y[-1]) <= INT64_FACTOR_MAX:
        dtype = np.int64
    dx = np.diff(np.array(x, dtype=dtype))
    dy = np.diff(np.array(y, dtype=dtype))
    return first_violation(dy[1:] * dx[:-1], dy[:-1] * dx[1:], mode, tol)


def roc_curve(q1: UnivariateDist, q2: UnivariateDist) -> RocCurve:
    """Survival pairs at all merged-support thresholds plus the two corners.

    For finite support the left-limit points coincide with the survival pair
    of the preceding atom (or the corner (1, 1)), so evaluating at the atoms
    and adding both corners exhausts the point set.  Survivals accumulated
    from the top (for tail accuracy) come out sorted.
    """
    exact = q1.mode == q2.mode == MODE_EXACT
    _, g1, g2 = _merged_masses(q1, q2, MODE_EXACT if exact else MODE_FLOAT)
    u = _cumulative(g1[::-1])
    v = _cumulative(g2[::-1])
    if not exact:
        # the corner (1, 1) in place of the float totals
        pts = [(_clip01(a), _clip01(b)) for a, b in zip(u[:-1], v[:-1])] + [(1.0, 1.0)]
        return RocCurve(tuple(k for k, _ in groupby(pts)), None)
    # every merged atom carries weight in q1 or q2, so the integer pairs are distinct
    s1, s2 = u[-1], v[-1]
    pts = tuple(k for k, _ in groupby(zip((a / s1 for a in u), (b / s2 for b in v))))
    return RocCurve(pts, (tuple(u), tuple(v), s1, s2))


def roc_is_concave(curve: RocCurve, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Concavity of the ROC point set, checked on consecutive point triples.

    The slope condition is evaluated as the cross product
    (b2-a2)(c1-b1) >= (c2-b2)(b1-a1), which stays well defined across the
    vertical segments of a jump; consecutive triples suffice on a
    componentwise monotone point sequence.
    """
    u, v, s1, s2 = _axes(curve, zip(*curve.points), mode)
    k = _first_bend(u, v, mode, tol)
    if k is None:
        return _holds("roc:concavity")
    return _fails("roc:concavity", tuple((u[i] / s1, v[i] / s2) for i in range(k, k + 3)))


def odc_curve(q1: UnivariateDist, q2: UnivariateDist) -> OdcCurve:
    """Ordinal dominance curve H = G2 o G1^{-1} on the image of G1.

    The image points {0} + cumsum(q1) are paired with G2 evaluated at the q1
    atoms (the quantile at a positive cumulative level is the atom itself);
    the level 0 pairs with G2(-inf) = 0.  The trailing cumulative mass is
    clamped to exactly 1 for probability inputs.
    """
    q1 = q1.canonical()
    q2 = q2.canonical()
    dominated = set(q2.support.tolist()) <= set(q1.support.tolist())
    exact = q1.mode == q2.mode == MODE_EXACT
    mode = MODE_EXACT if exact else MODE_FLOAT
    c1 = _cumulative(q1.masses(mode))
    c2 = _cumulative(q2.masses(mode))
    # c2 index of G2 at each image level: 0 at level 0, then q2 atoms <= each q1 atom
    at = [0] + np.searchsorted(q2.support, q1.support, side="right").tolist()
    weights = None
    if exact:
        weights = (tuple(c1), tuple(c2[j] for j in at), c1[-1], c2[-1])
        alphas = [c / c1[-1] for c in c1]
        values = [c / c2[-1] for c in weights[1]]
    else:
        alphas = [min(a, 1.0) for a in c1]
        values = [_clip01(c2[j]) for j in at]
    alphas[-1] = 1.0
    # distinct rationals can collapse to one float level: keep the later value
    curve = dict(zip(alphas, values))
    return OdcCurve(tuple(curve), tuple(curve.values()), bool(dominated), weights)


def odc_is_convex(curve: OdcCurve, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Convexity of the ordinal dominance curve on its finite image set: the
    ROC triple test with the axes swapped."""
    alphas, values, s1, _ = _axes(curve, (curve.alphas, curve.values), mode)
    k = _first_bend(values, alphas, mode, tol)
    if k is None:
        return _holds("odc:convexity")
    return _fails("odc:convexity", tuple(alphas[i] / s1 for i in range(k, k + 3)))
