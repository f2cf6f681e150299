"""Division-free ratio comparison, the product scans and extremal isotonic densities.

``first_violation`` is the package's one comparator: it scores whole arrays
of products lhs <= rhs, with a relative float slack or exactly on integers,
and every verdict in the package is one ``first_violation`` pass over the
mode's mass array.  ``scan_dtype`` picks the numbers a pass runs on: float64,
int64 where every product fits, or Python ints.

The minor and interval verdicts are one chunked scan, ``_scan``.  Its masses
are direct sums, never differences of cumulative sums: a float mass on n atoms
is off by about n*eps relative, which ``PRODUCT_RTOL`` absorbs to ~2,000 atoms.

``minimal_isotonic_density`` / ``maximal_isotonic_density`` construct the
smallest and largest isotonic density of a finite measure nu with respect to
a dominating finite measure mu, specialized to finite support: at an atom
both equal the atom mass ratio; between atoms the minimal version continues
the value of the nearest atom below, the maximal version the value of the
nearest atom above (with off-support defaults 0 and 1 respectively).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt

import numpy as np

from .distributions import MODE_EXACT, MODE_FLOAT, UnivariateDist, _frozen
from .errors import DomainError, InvalidDistributionError, PreconditionError

#: Relative slack for float product comparisons.
PRODUCT_RTOL = 1e-12


def _check_mode(mode: str) -> str:
    if mode not in (MODE_FLOAT, MODE_EXACT):
        raise DomainError(f"unknown comparison mode {mode!r}")
    return mode


def first_violation(lhs: np.ndarray, rhs: np.ndarray, mode: str = MODE_FLOAT,
                    tol: float = PRODUCT_RTOL) -> int | None:
    """Flat index of the first entry where lhs <= rhs fails, if any: exactly in
    exact mode, else with the slack ``tol * max(|lhs|, |rhs|)`` on nonnegative
    products."""
    if mode != MODE_EXACT:
        rhs = rhs + tol * np.maximum(np.abs(lhs), np.abs(rhs))
    bad = ~(lhs <= rhs)
    return int(bad.argmax()) if bad.any() else None


#: largest weight whose products with any other such weight fit in int64
INT64_FACTOR_MAX = isqrt(2**63 - 1)

#: largest float factor whose products, plus a slack below 1, stay finite
FLOAT_FACTOR_MAX = 2.0**511


def scan_dtype(mode: str, bound) -> type:
    """The numbers a ``first_violation`` pass runs on, given ``bound``, the
    largest factor of its products: float64 in float mode, where a bound
    above ``FLOAT_FACTOR_MAX`` is a DomainError, as its products could
    overflow to inf and compare equal; in exact mode int64 when the bound is
    at most ``INT64_FACTOR_MAX``, else Python ints."""
    if mode != MODE_EXACT:
        if bound > FLOAT_FACTOR_MAX:
            raise DomainError(f"float products of factors up to {float(bound)!r} could overflow; "
                              "scale the masses down")
        return np.float64
    return np.int64 if bound <= INT64_FACTOR_MAX else object


#: products scored per array pass of a scan; bounds its working memory
MINOR_BUDGET = 2**14


def _scan(n_rows: int, rows, n_cols: int, cols, mode: str, tol: float):
    """Labels of the first (row item, column item), rows outer, failing
    top[P] * bot[Q] <= top[Q] * bot[P]: ``rows(lo, hi)`` gives the
    labels (one array per label) and factor rows (top, bot) of items [lo, hi),
    ``cols`` the labels and positions (P, Q); a pass scores <= MINOR_BUDGET."""
    rows_step = max(1, MINOR_BUDGET // max(n_cols, 1))  # 1 when column items need slices
    for r0 in range(0, n_rows if n_cols else 0, rows_step):
        row_ids, top, bot = rows(r0, min(r0 + rows_step, n_rows))
        for c0 in range(0, n_cols, MINOR_BUDGET):
            col_ids, p, q = cols(c0, min(c0 + MINOR_BUDGET, n_cols))
            lhs = top.take(p, 1) * bot.take(q, 1)
            rhs = top.take(q, 1) * bot.take(p, 1)
            first = first_violation(lhs, rhs, mode, tol)
            if first is not None:
                r, c = divmod(first, lhs.shape[1])
                return tuple(int(a[r]) for a in row_ids), tuple(int(a[c]) for a in col_ids)
    return None


@lru_cache(maxsize=8)
def _triples(n: int, lo: int, hi: int, by_last: bool = False):
    """Rows (d, e, f): the triples d < e < f < n at positions [lo, hi) of
    ``combinations`` order (``by_last``: rows (d, f, e), in the order by them),
    and the flat positions of the cells (e, f-1) and (d, e-1) of an (n-1)^2 table."""
    tri = np.arange(n) * (np.arange(n) - 1) // 2  # C(v, 2): colex position of the pair (0, v)
    sizes = tri[::-1]  # C(n-1-d, 2) triples start at d
    flat = np.arange(lo, hi)
    d = np.searchsorted(np.cumsum(sizes), flat, side="right")
    rem = flat - (np.cumsum(sizes) - sizes)[d]
    # pairs (e, f) after d by colex order, or by its reverse on the mirrored (n-1-f, n-1-e)
    pos = rem if by_last else sizes[d] - 1 - rem
    v = np.searchsorted(tri, pos, side="right") - 1
    u = pos - tri[v]
    e, f = (d + 1 + u, d + 1 + v) if by_last else (n - 1 - v, n - 1 - u)
    return tuple(_frozen(a, None) for a in ([d, f, e] if by_last else [d, e, f],
                                            e * (n - 1) + f - 1, d * (n - 1) + e - 1))


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
    """First minor ((i, k), (j, l)), row pairs i < k then column pairs j < l in
    ``combinations`` order, failing h[i,l]*h[k,j] <= h[i,j]*h[k,l]; its
    factors are cells."""
    h = h.astype(scan_dtype(mode, h.max()), copy=False)
    nx, ny = h.shape

    def rows(lo, hi):
        i, k = _pairs(nx, lo, hi)
        return (i, k), h.take(i, 0), h.take(k, 0)

    def cols(lo, hi):
        j, l = _pairs(ny, lo, hi)
        return (j, l), l, j

    return _scan(comb(nx, 2), rows, comb(ny, 2), cols, mode, tol)


def _interval_scan(h: np.ndarray, mode: str, tol: float, by_last: bool = False):
    """First ((a, b, c), (d, e, f)), row triples then column triples in
    ``combinations`` order (``by_last``: (d, f, e), in that order), failing
    M1(e,f] * M2(d,e] <= M1(d,e] * M2(e,f] for the column masses M1, M2 of
    the row blocks [a, b), [b, c); cut c lies before atom c.  Its factors are
    block masses, at most the total."""
    nx, ny = h.shape
    padded = np.zeros((nx + 1, ny), dtype=scan_dtype(mode, h.sum()))  # cuts run up to row nx
    padded[:nx] = h
    upper = np.arange(ny) >= np.arange(ny)[:, None]  # row d of a masked copy sums from atom d

    def rows(lo, hi):
        abc = _triples(nx + 1, lo, hi)[0]
        blocks = np.add.reduceat(padded, abc.T.ravel(), axis=0).reshape(-1, 3, 1, ny)[:, :2]
        # [r, s, d * ny + j]: atoms d..j of row item r's block s, [a, b) or [b, c)
        table = np.cumsum(blocks * upper, axis=-1).reshape(-1, 2, ny * ny)
        return abc, table[:, 0], table[:, 1]

    return _scan(comb(nx + 1, 3), rows, comb(ny + 1, 3),
                 lambda lo, hi: _triples(ny + 1, lo, hi, by_last), mode, tol)


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


def _beyond(v: float, step: float) -> float:
    """v + step (+-1.0), or the next float past v if that rounds back to v (|v| >= 2^53)."""
    out = v + step
    return out if out != v else float(np.nextafter(v, step * np.inf))


def _interval_ratio_condition(atoms: list, h: np.ndarray, mode: str, tol: float):
    """Find a triple x < y < z violating the interval ratio monotonicity, if any.

    ``h`` holds the masses of mu and nu on mu's atoms.  The condition checked
    is mu((y,z]) * nu((x,y]) <= mu((x,y]) * nu((y,z]) over all boundary
    triples; for finite support it suffices to cut between atoms, so
    boundaries run over a sentinel below the support plus the atoms.
    """
    hit = _interval_scan(h, mode, tol)
    bounds = [_beyond(atoms[0], -1.0)] + atoms
    return None if hit is None else tuple(bounds[i] for i in hit[1])


def _atom_ratios(mu: UnivariateDist, nu: UnivariateDist, mode: str, tol: float):
    """mu's atoms, the (2, n) masses of mu and nu on them in the numbers of
    the mode, and the ratios nu({x}) / mu({x}).  Requires nu <= mu atomwise,
    checked in one ``first_violation`` pass: the float masses with the
    relative slack, or exactly the shares nu_w * mu_total <= mu_w * nu_total,
    whose cross products give the correctly rounded exact ratios."""
    from .orders import _merged_masses  # orders imports this module

    if mode != MODE_EXACT and not nu.probs.any():
        mu = mu.canonical()
        return mu.support.tolist(), np.stack([mu.probs, np.zeros(len(mu))]), np.zeros(len(mu))
    atoms, h = _merged_masses(mu, nu, mode)
    lhs, rhs = (h[1] * sum(h[0]), h[0] * sum(h[1])) if mode == MODE_EXACT else h[::-1]
    bad = first_violation(lhs, rhs, mode, tol)
    if bad is not None:
        v = float(atoms[bad])
        p, mp = nu.atom_prob(v), mu.atom_prob(v)
        raise PreconditionError(f"nu exceeds mu at atom {v!r} ({p!r} > {mp!r})", witness=(v, p, mp))
    # every atom of nu is an atom of mu now, so the merged support is mu's
    ratios = np.minimum(1.0, (lhs / rhs).astype(np.float64))
    if mode != MODE_EXACT:
        # Float division can wobble exact ties by an ulp; absorb sub-slack
        # dips so the exact nondecreasing invariant of IsotonicDensity is not
        # tripped by representation noise.  Genuine violations stay visible.
        for i in range(1, len(ratios)):
            if ratios[i] < ratios[i - 1] and ratios[i - 1] - ratios[i] <= tol * max(1.0, ratios[i - 1]):
                ratios[i] = ratios[i - 1]
    return atoms.tolist(), h, ratios


def _isotonic_density(mu, nu, kind: str, verify: bool, mode: str, tol: float) -> IsotonicDensity:
    _check_mode(mode)
    atoms, h, ratios = _atom_ratios(mu, nu, mode, tol)
    if verify:
        witness = _interval_ratio_condition(atoms, h, mode, tol)
        if witness is not None:
            raise PreconditionError(
                f"interval ratio monotonicity fails at boundaries {witness}", witness=witness
            )
    return IsotonicDensity(atoms, ratios, kind)


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
    violating triple is raised as a :class:`PreconditionError` witness.  In
    exact mode both measures are the normalized shares of their integer
    weights, so nu <= mu holds only where the shares are equal, and the
    density's values are then all 1.
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
    they continue between and beyond atoms (0/0 resolves to 1 here).  In
    exact mode, as there, a density exists only where the two measures'
    shares are equal, and its values are then all 1.
    """
    return _isotonic_density(mu, nu, "maximal", verify, mode, tol)
