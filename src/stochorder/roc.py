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

Both modes score a curve's steps, the masses between consecutive points, not
differences of rounded points, which lose masses below about 1e-13 near a
corner: integer weights in exact mode, floats or ``int / int`` in float mode.
The witness is the three points around the failing pair of steps before equal
rounded points are merged, so a float witness may repeat a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

import numpy as np

from .distributions import UnivariateDist, _trusted
from .errors import DomainError, InvalidDistributionError
from .isotonic import (MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL, _check_mode, _cumulative,
                       first_violation, scan_dtype)
from .orders import OrderVerdict, _fails, _holds, _merged_masses


def _exact_view(steps, axis: int) -> tuple[Fraction, ...] | None:
    """Partial sums of one axis's integer steps over its total; None for float steps."""
    if steps is None or not isinstance(steps[2 + axis], int):
        return None
    return tuple(Fraction(c, steps[2 + axis]) for c in _cumulative(steps[axis]))


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Sorted, deduplicated ROC points in the unit square.

    Both coordinates are nondecreasing along the sorted sequence and the
    corners (0, 0) and (1, 1) are always present.  ``steps`` holds each merged
    atom's q1 and q2 mass, from the top, then the two totals (1.0 for floats);
    None marks a curve built from its points alone, scored on their
    differences.  The constructor checks these invariants; ``roc_curve``,
    whose points hold them by construction, skips the checks.
    """

    points: tuple[tuple[float, float], ...]
    steps: tuple | None = None

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


@dataclass(frozen=True, eq=False)
class OdcCurve:
    """Ordinal dominance curve on the image of the first distribution function.

    ``alphas`` is {0} followed by the cumulative masses of q1 (strictly
    increasing, ending at the total mass, clamped to 1); ``values`` holds the
    second distribution function at the corresponding quantiles of the first.
    ``dominated`` reports whether every q2 atom is a q1 atom.  ``steps`` holds
    each q1 atom's mass and the q2 mass since the previous q1 atom (none above
    the last), then the totals, as on ``RocCurve``; ``exact_alphas`` /
    ``exact_values`` read integer steps as rationals.  The constructor checks
    these invariants; ``odc_curve``, whose levels hold them by construction,
    skips the checks.
    """

    alphas: tuple[float, ...]
    values: tuple[float, ...]
    dominated: bool
    steps: tuple | None = None

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

    exact_alphas = property(lambda self: _exact_view(self.steps, 0))
    exact_values = property(lambda self: _exact_view(self.steps, 1))


def _steps(dx, dy, m1, m2, mode: str) -> tuple:
    """Steps, then the totals of the masses m1 and m2: sums in exact mode, else 1.0."""
    return tuple(dx), tuple(dy), *((sum(m) if mode == MODE_EXACT else 1.0) for m in (m1, m2))


def _walk(steps, axis: int) -> list[float]:
    """One axis of a curve's points before equal points are merged: partial
    sums of its steps over its total, at most 1, with the corner 1.0 last."""
    total = steps[2 + axis]
    return [c / total if c <= total else 1.0 for c in _cumulative(steps[axis])[:-1]] + [1.0]


def _first_bend(dx, dy, mode: str, tol: float) -> int | None:
    """First k whose steps k, k+1 fail dy[k+1]*dx[k] <= dy[k]*dx[k+1], the
    slope test of the points around them, in one array pass over nonnegative
    steps; its factors are steps."""
    steps = np.array([dx, dy], dtype=object if mode == MODE_EXACT else np.float64)
    dx, dy = steps.astype(scan_dtype(mode, steps.max()), copy=False)
    return first_violation(dy[1:] * dx[:-1], dy[:-1] * dx[1:], mode, tol)


def _in_mode(steps, mode: str):
    """Steps as the mode scores them: integers, or w / total in float mode; floats as they are."""
    dx, dy, s1, s2 = steps
    if _check_mode(mode) == MODE_EXACT and not isinstance(s1, int):
        raise DomainError("exact mode requires a curve built from integer-weight inputs")
    if mode == MODE_EXACT or not isinstance(s1, int):
        return dx, dy
    return [w / s1 for w in dx], [w / s2 for w in dy]


def roc_curve(q1: UnivariateDist, q2: UnivariateDist) -> RocCurve:
    """Survival pairs at all merged-support thresholds plus the two corners.

    For finite support the left-limit points coincide with the survival pair
    of the preceding atom (or the corner (1, 1)), so evaluating at the atoms
    and adding both corners exhausts the point set.  Survivals accumulated
    from the top (for tail accuracy) come out sorted.
    """
    mode = MODE_EXACT if q1.mode == q2.mode == MODE_EXACT else MODE_FLOAT
    g1, g2 = _merged_masses(q1, q2, mode)[1].tolist()
    steps = _steps(g1[::-1], g2[::-1], g1, g2, mode)
    pts = zip(_walk(steps, 0), _walk(steps, 1))
    # walks of nonnegative steps run from (0, 0) to (1, 1), componentwise
    # nondecreasing, so without repeats the points pass every RocCurve check
    return _trusted(RocCurve, tuple(k for k, _ in groupby(pts)), steps)


def roc_is_concave(curve: RocCurve, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Concavity of the ROC point set: the slopes of consecutive steps, as the
    cross product (b2-a2)(c1-b1) >= (c2-b2)(b1-a1), which stays well defined
    across the vertical segments of a jump; consecutive triples suffice on a
    componentwise monotone point sequence."""
    steps = curve.steps or (*np.diff(curve.points, axis=0).T, 1.0, 1.0)
    k = _first_bend(*_in_mode(steps, mode), mode, tol)
    if k is None:
        return _holds("roc:concavity")
    pts = curve.points if curve.steps is None else tuple(zip(_walk(steps, 0), _walk(steps, 1)))
    return _fails("roc:concavity", pts[k:k + 3])


def odc_curve(q1: UnivariateDist, q2: UnivariateDist) -> OdcCurve:
    """Ordinal dominance curve H = G2 o G1^{-1} on the image of G1.

    The image points {0} + cumsum(q1) are paired with G2 evaluated at the q1
    atoms (the quantile at a positive cumulative level is the atom itself);
    the level 0 pairs with G2(-inf) = 0.  The trailing cumulative mass is
    clamped to exactly 1 for probability inputs.
    """
    q1, q2 = q1.canonical(), q2.canonical()
    dominated = set(q2.support.tolist()) <= set(q1.support.tolist())
    mode = MODE_EXACT if q1.mode == q2.mode == MODE_EXACT else MODE_FLOAT
    m1, m2 = q1.masses(mode).tolist(), q2.masses(mode).tolist()
    # each q2 mass joins the step of the first q1 atom at or above it; mass above all is dropped
    dv = [m1[0] * 0] * (len(m1) + 1)
    for i, m in zip(np.searchsorted(q1.support, q2.support).tolist(), m2):
        dv[i] += m
    steps = _steps(m1, dv[:-1], m1, m2, mode)
    # c2 index of G2 at each image level: 0 at level 0, then q2 atoms <= each q1 atom
    at = [0] + np.searchsorted(q2.support, q1.support, side="right").tolist()
    c2 = _cumulative(m2)
    values = [c2[j] / steps[3] if c2[j] <= steps[3] else 1.0 for j in at]
    # distinct rationals can collapse to one float level: keep the later value
    curve = dict(zip(_walk(steps, 0), values))
    # the walk runs from 0 to 1, so its distinct levels pass every OdcCurve check
    return _trusted(OdcCurve, tuple(curve), tuple(curve.values()), dominated, steps)


def odc_is_convex(curve: OdcCurve, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Convexity of the ordinal dominance curve on its finite image set: the
    ROC step test with the axes swapped; the witness is three alphas."""
    steps = curve.steps or (np.diff(curve.alphas), np.diff(curve.values), 1.0, 1.0)
    da, dv = _in_mode(steps, mode)
    k = _first_bend(dv, da, mode, tol)
    if k is None:
        return _holds("odc:convexity")
    alphas = curve.alphas if curve.steps is None else _walk(steps, 0)
    return _fails("odc:convexity", tuple(alphas[k:k + 3]))
