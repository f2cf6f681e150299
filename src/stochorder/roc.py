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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import UnivariateDist
from .errors import DomainError, InvalidDistributionError
from .isotonic import MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL, _check_mode, _cumulative, products_le
from .orders import OrderVerdict, _fails, _holds, _merged_masses


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Sorted, deduplicated ROC points in the unit square.

    Both coordinates are nondecreasing along the sorted sequence and the
    corners (0, 0) and (1, 1) are always present.  ``exact_points`` mirrors
    ``points`` as exact rationals when both inputs carried integer weights.
    """

    points: tuple[tuple[float, float], ...]
    exact_points: tuple[tuple[Fraction, Fraction], ...] | None = None

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
        if self.exact_points is not None:
            object.__setattr__(self, "exact_points", tuple(self.exact_points))


@dataclass(frozen=True, eq=False)
class OdcCurve:
    """Ordinal dominance curve on the image of the first distribution function.

    ``alphas`` is {0} followed by the cumulative masses of q1 (strictly
    increasing, ending at the total mass, clamped to 1); ``values`` holds the
    second distribution function at the corresponding quantiles of the first.
    ``dominated`` reports whether every q2 atom is a q1 atom.
    """

    alphas: tuple[float, ...]
    values: tuple[float, ...]
    dominated: bool
    exact_alphas: tuple[Fraction, ...] | None = None
    exact_values: tuple[Fraction, ...] | None = None

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


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def roc_curve(q1: UnivariateDist, q2: UnivariateDist) -> RocCurve:
    """Survival pairs at all merged-support thresholds plus the two corners.

    For finite support the left-limit points coincide with the survival pair
    of the preceding atom (or the corner (1, 1)), so evaluating at the atoms
    and adding both corners exhausts the point set.
    """
    exact = q1.weights is not None and q2.weights is not None
    _, g1, g2 = _merged_masses(q1, q2, MODE_EXACT if exact else MODE_FLOAT)
    s1 = s2 = g1[0] * 0
    sums = []
    # ascending survivals, accumulated from the top for tail accuracy
    for m1, m2 in zip(g1[::-1], g2[::-1]):
        sums.append((s1, s2))
        s1 += m1
        s2 += m2
    if not exact:
        pts = {(0.0, 0.0), (1.0, 1.0)} | {(_clip01(u), _clip01(v)) for u, v in sums}
        return RocCurve(tuple(sorted(pts)), None)
    # after the loop s1, s2 hold the total weights
    epts = {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))}
    exact_pts = tuple(sorted(epts | {(Fraction(u, s1), Fraction(v, s2)) for u, v in sums}))
    return RocCurve(tuple(sorted({(float(u), float(v)) for u, v in exact_pts})), exact_pts)


def roc_is_concave(curve: RocCurve, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Concavity of the ROC point set, checked on consecutive point triples.

    The slope condition is evaluated as the cross product
    (b2-a2)(c1-b1) >= (c2-b2)(b1-a1), which stays well defined across the
    vertical segments of a jump; consecutive triples suffice on a
    componentwise monotone point sequence.
    """
    _check_mode(mode)
    if mode == MODE_EXACT:
        if curve.exact_points is None:
            raise DomainError("exact mode requires a curve built from integer-weight inputs")
        pts = curve.exact_points
    else:
        pts = curve.points
    for (a1, a2), (b1, b2), (c1, c2) in zip(pts, pts[1:], pts[2:]):
        lhs = (c2 - b2) * (b1 - a1)
        rhs = (b2 - a2) * (c1 - b1)
        if not products_le(lhs, rhs, mode, tol):
            witness = (
                (float(a1), float(a2)),
                (float(b1), float(b2)),
                (float(c1), float(c2)),
            )
            return _fails("roc:concavity", witness)
    return _holds("roc:concavity")


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
    exact = q1.weights is not None and q2.weights is not None
    mode = MODE_EXACT if exact else MODE_FLOAT
    c1 = _cumulative(q1.masses(mode))
    c2 = _cumulative(q2.masses(mode))
    # c2 index of G2 at each image level: 0 at level 0, then q2 atoms <= each q1 atom
    at = [0] + np.searchsorted(q2.support, q1.support, side="right").tolist()
    exact_a = exact_v = None
    if exact:
        exact_a = tuple(Fraction(c, c1[-1]) for c in c1)
        exact_v = tuple(Fraction(c2[j], c2[-1]) for j in at)
        alphas = [float(a) for a in exact_a]
        values = [float(v) for v in exact_v]
    else:
        alphas = [min(a, 1.0) for a in c1]
        values = [_clip01(c2[j]) for j in at]
    alphas[-1] = 1.0
    # distinct rationals can collapse to one float level: keep the later value
    ded_a: list[float] = []
    ded_v: list[float] = []
    for a, v in zip(alphas, values):
        if ded_a and a == ded_a[-1]:
            ded_v[-1] = v
        else:
            ded_a.append(a)
            ded_v.append(v)
    return OdcCurve(tuple(ded_a), tuple(ded_v), bool(dominated), exact_a, exact_v)


def odc_is_convex(curve: OdcCurve, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Convexity of the ordinal dominance curve on its finite image set."""
    _check_mode(mode)
    if mode == MODE_EXACT:
        if curve.exact_alphas is None:
            raise DomainError("exact mode requires a curve built from integer-weight inputs")
        alphas = curve.exact_alphas
        values = curve.exact_values
    else:
        alphas = curve.alphas
        values = curve.values
    triples = zip(
        zip(alphas, values), zip(alphas[1:], values[1:]), zip(alphas[2:], values[2:])
    )
    for (r, hr), (s, hs), (t, ht) in triples:
        lhs = (hs - hr) * (t - s)
        rhs = (ht - hs) * (s - r)
        if not products_le(lhs, rhs, mode, tol):
            return _fails("odc:convexity", (float(r), float(s), float(t)))
    return _holds("odc:convexity")
