"""Division-free ratio comparison and extremal isotonic densities.

``cross_compare`` decides r2/r1 <= s2/s1 on the extended half-line [0, inf]
through the cross products r2*s1 <= r1*s2, so no division (and no 0/0 or
inf) ever occurs.  The same product comparison backs every order verdict in
the package, either with a relative float slack or exactly on integers.

``minimal_isotonic_density`` / ``maximal_isotonic_density`` construct the
smallest and largest isotonic density of a finite measure nu with respect to
a dominating finite measure mu, specialized to finite support: at an atom
both equal the atom mass ratio; between atoms the minimal version continues
the value of the nearest atom below, the maximal version the value of the
nearest atom above (with off-support defaults 0 and 1 respectively).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import MODE_EXACT, MODE_FLOAT, UnivariateDist, _frozen
from .errors import DomainError, InvalidDistributionError, PreconditionError

#: Relative slack for float product comparisons.
PRODUCT_RTOL = 1e-12


def _check_mode(mode: str) -> str:
    if mode not in (MODE_FLOAT, MODE_EXACT):
        raise DomainError(f"unknown comparison mode {mode!r}")
    return mode


def products_le(lhs, rhs, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> bool:
    """lhs <= rhs for nonnegative products, with slack scaled to the products."""
    if mode == MODE_EXACT:
        return lhs <= rhs
    return lhs <= rhs + tol * max(abs(lhs), abs(rhs))


def first_violation(lhs: np.ndarray, rhs: np.ndarray, mode: str = MODE_FLOAT,
                    tol: float = PRODUCT_RTOL) -> int | None:
    """Flat index of the first entry where ``products_le`` fails, if any,
    evaluated over whole arrays with the same IEEE operations."""
    if mode != MODE_EXACT:
        rhs = rhs + tol * np.maximum(np.abs(lhs), np.abs(rhs))
    bad = ~(lhs <= rhs)
    return int(bad.argmax()) if bad.any() else None


@dataclass(frozen=True)
class CrossCompareResult:
    """Outcome of a cross-multiplied ratio comparison.

    ``le`` reports r2/r1 <= s2/s1; ``degenerate`` flags inputs where one of
    the pairs is (0, 0), for which the ratio reading is vacuous although the
    product inequality is still evaluated.
    """

    le: bool
    degenerate: bool


def cross_compare(r1, r2, s1, s2, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> CrossCompareResult:
    """Decide r2/r1 <= s2/s1 in [0, inf] via r2*s1 <= r1*s2."""
    _check_mode(mode)
    if min(r1, r2, s1, s2) < 0:
        raise DomainError("cross_compare expects nonnegative inputs")
    degenerate = (r1 == 0 and r2 == 0) or (s1 == 0 and s2 == 0)
    le = products_le(r2 * s1, r1 * s2, mode, tol)
    return CrossCompareResult(le=le, degenerate=degenerate)


# ---------------------------------------------------------------------------
# Isotonic densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IsotonicDensity:
    """Isotonic density values on the atoms of the dominating measure.

    ``kind`` selects the off-atom continuation: "minimal" steps from the
    left (0 below all atoms), "maximal" from the right (1 above all atoms).
    """

    points: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self):
        points = _frozen(self.points)
        values = _frozen(self.values)
        if points.shape != values.shape or points.ndim != 1:
            raise InvalidDistributionError("points and values must be equal-length 1-D arrays")
        if self.kind not in ("minimal", "maximal"):
            raise DomainError(f"unknown density kind {self.kind!r}")
        if np.any(values < 0) or np.any(values > 1):
            raise InvalidDistributionError("density values must lie in [0, 1]")
        if np.any(np.diff(values) < 0):
            raise InvalidDistributionError("density values must be nondecreasing")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)

    def evaluate(self, x: float) -> float:
        if self.kind == "minimal":
            i = int(np.searchsorted(self.points, x, side="right"))
            return 0.0 if i == 0 else float(self.values[i - 1])
        i = int(np.searchsorted(self.points, x, side="left"))
        return 1.0 if i == self.points.size else float(self.values[i])

    __call__ = evaluate


def _cumulative(masses: list) -> list:
    """Running totals with a leading zero of the masses' own type (0 or 0.0)."""
    out = [masses[0] * 0]
    for m in masses:
        out.append(out[-1] + m)
    return out


def _interval_scan(c1: list, c2: list, mode: str, tol: float):
    """First index triple a < b < c with c1(b,c] * c2(a,b] > c1(a,b] * c2(b,c], if any.

    ``c1`` and ``c2`` are cumulative masses over shared boundaries, so
    ``c[b] - c[a]`` is the mass between boundaries a and b.
    """
    n = len(c1)
    for a in range(n):
        for b in range(a + 1, n):
            m1 = c1[b] - c1[a]
            m2 = c2[b] - c2[a]
            for c in range(b + 1, n):
                if not products_le((c1[c] - c1[b]) * m2, m1 * (c2[c] - c2[b]), mode, tol):
                    return a, b, c
    return None


def _interval_ratio_condition(mu: UnivariateDist, nu: UnivariateDist, mode: str, tol: float):
    """Find a triple x < y < z violating the interval ratio monotonicity, if any.

    The condition checked is mu((y,z]) * nu((x,y]) <= mu((x,y]) * nu((y,z])
    over all boundary triples; for finite support it suffices to cut between
    atoms, so boundaries run over a sentinel below the support plus the atoms.
    """
    atoms = mu.support.tolist()
    nu_at = dict(zip(nu.support.tolist(), nu.masses(mode)))
    hit = _interval_scan(
        _cumulative(mu.masses(mode)), _cumulative([nu_at.get(a, 0) for a in atoms]), mode, tol
    )
    bounds = [atoms[0] - 1.0] + atoms
    return None if hit is None else tuple(bounds[i] for i in hit)


def _atom_ratios(mu: UnivariateDist, nu: UnivariateDist, tol: float):
    """Per-atom mass ratios nu({x}) / mu({x}); requires nu <= mu atomwise."""
    mu = mu.canonical()
    if float(nu.probs.sum()) == 0.0:
        return mu, nu, np.zeros(len(mu))
    nu = nu.canonical()
    for v, p in zip(nu.support.tolist(), nu.probs.tolist()):
        mp = mu.atom_prob(v)
        if p > mp + tol * max(1.0, mp):
            raise PreconditionError(
                f"nu exceeds mu at atom {v!r} ({p!r} > {mp!r})", witness=(v, p, mp)
            )
    ratios = [
        min(1.0, nu.atom_prob(v) / p) for v, p in zip(mu.support.tolist(), mu.probs.tolist())
    ]
    # Float division can wobble exact ties by an ulp; absorb sub-slack dips so
    # the exact nondecreasing invariant of IsotonicDensity is not tripped by
    # representation noise.  Genuine violations stay visible.
    for i in range(1, len(ratios)):
        if ratios[i] < ratios[i - 1] and ratios[i - 1] - ratios[i] <= tol * max(1.0, ratios[i - 1]):
            ratios[i] = ratios[i - 1]
    return mu, nu, np.array(ratios)


def _isotonic_density(mu, nu, kind: str, verify: bool, mode: str, tol: float) -> IsotonicDensity:
    _check_mode(mode)
    mu, nu, ratios = _atom_ratios(mu, nu, tol)
    if verify:
        witness = _interval_ratio_condition(mu, nu, mode, tol)
        if witness is not None:
            raise PreconditionError(
                f"interval ratio monotonicity fails at boundaries {witness}", witness=witness
            )
    return IsotonicDensity(mu.support, ratios, kind)


def minimal_isotonic_density(
    mu: UnivariateDist,
    nu: UnivariateDist,
    *,
    verify: bool = False,
    mode: str = MODE_FLOAT,
    tol: float = PRODUCT_RTOL,
) -> IsotonicDensity:
    """Smallest isotonic density of nu with respect to mu (finite support).

    Requires nu <= mu atomwise.  With ``verify=True`` the interval ratio
    monotonicity precondition is checked over all atom-boundary triples and a
    violating triple is raised as a :class:`PreconditionError` witness.
    """
    return _isotonic_density(mu, nu, "minimal", verify, mode, tol)


def maximal_isotonic_density(
    mu: UnivariateDist,
    nu: UnivariateDist,
    *,
    verify: bool = False,
    mode: str = MODE_FLOAT,
    tol: float = PRODUCT_RTOL,
) -> IsotonicDensity:
    """Largest isotonic density of nu with respect to mu.

    Atom values agree with the minimal density; the two differ only in how
    they continue between and beyond atoms (0/0 resolves to 1 here).
    """
    return _isotonic_density(mu, nu, "maximal", verify, mode, tol)
