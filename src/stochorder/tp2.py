"""Bivariate TP2 checks, support boundaries, and extremal conditional kernels.

A bivariate pmf is totally positive of order two (TP2) when every 2x2 minor
taken with increasing rows and columns is nonnegative; the distributional
version replaces single cells by rectangle masses over increasing interval
pairs.  A distribution is TP2 exactly when the conditional distributions of
the second coordinate are isotonic in the first coordinate with respect to
the likelihood ratio order, so ``check_tp2`` runs the LR scans of
:mod:`stochorder.orders` on its grid.  Every verdict here is one
``isotonic.first_violation`` pass over the grid's masses: the minor and
interval scans are the chunked ``isotonic._scan``, and the ratio scan needs
consecutive rows only, with or without zero cells, as the LR order is
transitive.  Likewise ``check_st_condition`` scores consecutive rows only: a
chord slope of the path (sum of row totals, sum of upper masses) is a
weighted mean of its segment slopes.  The conditionals can be pinned down
constructively:

* ``kernel_west`` conditions on the nearest support atom at or below the
  evaluation point (the from-the-left extremal kernel);
* ``kernel_east`` conditions on the nearest atom at or above it;
* ``kernel_new`` truncates the west rows to the band between the southeast
  and northwest support boundaries and places point masses on the crossing
  region where the band pinches to a single value.

``_row_index`` is the one rule that picks each point's conditional row, for
the kernels, ``boundaries`` and ``estimation._row_quantiles``.  Outside the
first-marginal range every kernel returns the second marginal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (NEG_INF, POS_INF, BivariateDist, Interval, UnivariateDist, _derived, _frozen,
                            prefix_table)
from .errors import DomainError, InvalidDistributionError, PreconditionError
from .isotonic import (MODE_FLOAT, PRODUCT_RTOL, _check_mode, _interval_scan, _minor_scan,
                       first_violation, scan_dtype)
from .orders import (OrderVerdict, _boundaries, _fails, _holds, _midpoint, _ratio_scan,
                     _refined_axis, truncate)

TP2_METHODS = ("pmf-allpairs", "pmf-adjacent", "intervals")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Kernel:
    """Conditional distributions of the second coordinate at evaluation points."""

    eval_points: np.ndarray
    rows: tuple[UnivariateDist, ...]
    flavor: str

    def __post_init__(self):
        pts = _frozen(self.eval_points)
        if pts.ndim != 1 or pts.size == 0:
            raise DomainError("kernel needs at least one evaluation point")
        if pts.size > 1 and not np.all(pts[1:] > pts[:-1]):
            raise InvalidDistributionError("evaluation points must be strictly increasing")
        if len(self.rows) != pts.size:
            raise InvalidDistributionError("one row per evaluation point required")
        object.__setattr__(self, "eval_points", pts)
        object.__setattr__(self, "rows", tuple(self.rows))

    def row_at(self, x: float) -> UnivariateDist:
        i = int(np.searchsorted(self.eval_points, x))
        if i == self.eval_points.size or self.eval_points[i] != x:
            raise DomainError(f"{x!r} is not an evaluation point of this kernel")
        return self.rows[i]


@dataclass(frozen=True, eq=False)
class Boundaries:
    """Northwest/southeast support boundaries per evaluation point.

    ``in_crossing`` marks points where the northwest boundary does not exceed
    the southeast one, forcing degenerate (point mass) conditionals there;
    ``in_range`` marks membership in the first-marginal range.
    """

    xs: np.ndarray
    s_nw: np.ndarray
    s_se: np.ndarray
    in_crossing: np.ndarray
    in_range: np.ndarray

    def __post_init__(self):
        for name, dtype in (("xs", np.float64), ("s_nw", np.float64), ("s_se", np.float64),
                            ("in_crossing", bool), ("in_range", bool)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    def at(self, x: float) -> tuple[float, float, bool, bool]:
        i = int(np.searchsorted(self.xs, x))
        if i == self.xs.size or self.xs[i] != x:
            raise DomainError(f"{x!r} is not an evaluation point")
        return (
            float(self.s_nw[i]),
            float(self.s_se[i]),
            bool(self.in_crossing[i]),
            bool(self.in_range[i]),
        )


def default_grid(r: BivariateDist) -> list[float]:
    """First-marginal atoms plus the midpoints between consecutive atoms (the
    interior of the refined axis)."""
    return _refined_axis(r.canonical().x_support)[1:-1]


def _eval_points(r: BivariateDist, xs) -> list[float]:
    """Sorted distinct evaluation points (default grid if None); +-inf lies outside the range."""
    pts = default_grid(r) if xs is None else [float(v) for v in xs]
    if not pts:
        raise DomainError("at least one evaluation point is required")
    if np.isnan(pts).any():
        raise DomainError("evaluation points must not be NaN")
    return sorted(set(pts))


def _row_index(atoms: np.ndarray, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The conditional row of each point on the sorted ``atoms``: the index of
    the nearest atom at or below it (west; -1 below all atoms), of the nearest
    at or above it (east; ``atoms.size`` above them), and whether it lies in
    [atoms[0], atoms[-1]]; a point outside takes the second marginal."""
    west = np.searchsorted(atoms, xs, side="right") - 1
    east = np.searchsorted(atoms, xs, side="left")
    return west, east, (west >= 0) & (east < atoms.size)


def boundaries(r: BivariateDist, xs=None) -> Boundaries:
    """Monotone support boundaries evaluated on a grid of x values."""
    r = r.canonical()
    xs = np.asarray(_eval_points(r, xs), dtype=np.float64)
    atoms, ys = r.x_support, r.y_support
    # topmost / bottommost mass-carrying column index per (canonical, so nonempty) row
    positive = r.pmf > 0
    top = ys.size - 1 - positive[:, ::-1].argmax(axis=1)
    bot = positive.argmax(axis=1)
    # s_nw: the running top at the last atom <= x, -inf below all atoms;
    # s_se: the running bottom from the first atom >= x, +inf above all atoms
    west, east, in_range = _row_index(atoms, xs)
    s_nw = np.where(west < 0, NEG_INF, ys[np.maximum.accumulate(top)][west])
    run_bot = np.minimum.accumulate(bot[::-1])[::-1]
    s_se = np.where(east == atoms.size, POS_INF, ys[run_bot][np.minimum(east, atoms.size - 1)])
    in_crossing = s_nw <= s_se
    return Boundaries(xs, s_nw, s_se, in_crossing, in_range)


# ---------------------------------------------------------------------------
# distributional order conditions
# ---------------------------------------------------------------------------


def check_st_condition(r: BivariateDist, mode: str = MODE_FLOAT,
                       tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Stochastic-order condition on adjacent x blocks, as one O(l*m) pass.

    At each y cut, the left block's upper mass times the right block's total
    must not exceed the left block's total times the right block's upper
    mass.  With f_i the upper mass and g_i > 0 the total of canonical row i,
    a block's ratio sum(f)/sum(g) is a chord slope of the path (sum g, sum f),
    i.e. the g-weighted mean of its segment slopes f_i/g_i.  So every block
    pair passes exactly when every pair of consecutive rows does, and the
    witness is the x cuts around two consecutive rows plus the y cut.  Upper
    masses are row totals minus prefix sums.
    """
    _check_mode(mode)
    r = r.canonical()
    h = r.cells(mode)
    cum = np.cumsum(h.astype(scan_dtype(mode, h.sum()), copy=False), axis=1)
    total = cum[:, -1:]  # the factors: row totals, and upper masses below them
    up = total - cum[:, :-1]  # [i, j - 1]: masses of row i with column index >= j
    k = first_violation(up[:-1] * total[1:], total[:-1] * up[1:], mode, tol)
    if k is None:
        return _holds("st-condition:marginal")
    i, j = divmod(k, up.shape[1])
    return _fails("st-condition:marginal",
                  (*_boundaries(r.x_support)[i:i + 3], _boundaries(r.y_support)[j + 1]))


def check_tp2(r: BivariateDist, method: str = "pmf-allpairs", mode: str = MODE_FLOAT,
              tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Total positivity of order two of a bivariate distribution.

    A pmf is TP2 exactly when its rows increase in the likelihood ratio order,
    so each method is an LR scan of the grid; the witness is the x labels of
    its rows or row cuts, then the y labels:

    * ``pmf-allpairs`` - all 2x2 minors (the reference semantics), row pairs
      then column pairs in ``combinations`` order, as in ``pairwise``;
    * ``pmf-adjacent`` - consecutive rows through the ``ratio`` scan, O(l*m),
      exact for every pmf, zero cells included, as the LR order is transitive;
    * ``intervals`` - rectangle masses of row blocks [a, b), [b, c) between x
      cuts on adjacent intervals between y cuts, as in ``intervals``.
    """
    _check_mode(mode)
    if method not in TP2_METHODS:
        raise DomainError(f"unknown check_tp2 method {method!r}; choose from {TP2_METHODS}")
    r = r.canonical()
    cells = r.cells(mode)
    tag = f"tp2:{method}"
    scan = {"pmf-allpairs": _minor_scan, "pmf-adjacent": _ratio_scan}.get(method, _interval_scan)
    labels = _boundaries if method == "intervals" else np.ndarray.tolist
    hit = scan(cells, mode, tol)
    if hit is None:
        return _holds(tag)
    xs, ys = labels(r.x_support), labels(r.y_support)
    return _fails(tag, tuple(xs[i] for i in hit[0]) + tuple(ys[j] for j in hit[1]))


def supermodular_potential(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Potential a_i + b_j + cum2d(s)_ij, shifted to maximum 0.

    ``s`` is (len(a) - 1) x (len(b) - 1); its zero-padded double cumulative
    sum makes every adjacent second difference of the potential equal an
    ``s`` entry, so for s >= 0 the exponential is TP2 by construction.
    Stacks of ``a``, ``b`` and ``s`` (shared leading axes) give a stack of
    potentials, each built with the same adds as the unstacked call.
    """
    phi = a[..., :, None] + b[..., None, :] + prefix_table(s)
    return phi - phi.max(axis=(-2, -1), keepdims=True)


# ---------------------------------------------------------------------------
# kernel constructions
# ---------------------------------------------------------------------------


def _build_kernel(r: BivariateDist, xs, flavor: str) -> Kernel:
    r = r.canonical()
    xs = _eval_points(r, xs)
    west, east, in_range = _row_index(r.x_support, xs)
    index = west if flavor == "west" else east
    marginal = r.marginal_y()
    rows_at = {i: r.conditional_row(float(r.x_support[i])) for i in set(index[in_range].tolist())}
    rows = tuple(rows_at[i] if inside else marginal for i, inside in zip(index.tolist(), in_range.tolist()))
    return Kernel(np.array(xs), rows, flavor)


def kernel_west(r: BivariateDist, xs=None) -> Kernel:
    """From-the-left extremal kernel: the nearest atom at or below each point."""
    return _build_kernel(r, xs, "west")


def kernel_east(r: BivariateDist, xs=None) -> Kernel:
    """From-the-right extremal kernel: the nearest atom at or above each point."""
    return _build_kernel(r, xs, "east")


SELECTION_RULES = ("nw", "se", "midpoint")


def kernel_new(r: BivariateDist, xs=None, rule: str = "midpoint", selection=None,
               mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> Kernel:
    """Band-truncated kernel with point masses on the crossing region.

    Requires a TP2 input.  On the crossing region the row is a point mass at
    an isotonic selection between the two boundaries, given either by a rule
    ("nw", "se", "midpoint"; midpoints are repaired to isotonic with a
    running maximum) or explicitly as (x, value) pairs.  Elsewhere in range,
    the west row is conditioned on the closed boundary band by
    ``orders.truncate``, which sums the band's masses directly.
    """
    verdict = check_tp2(r, "pmf-adjacent", mode, tol)
    if not verdict.holds:
        raise PreconditionError(
            f"input distribution is not TP2 (witness {verdict.witness})",
            witness=verdict.witness,
        )
    r = r.canonical()
    xs = _eval_points(r, xs)
    bnd = boundaries(r, xs)
    west = kernel_west(r, xs)
    marginal = r.marginal_y()

    crossing_idx = [i for i in range(len(xs)) if bnd.in_range[i] and bnd.in_crossing[i]]
    if selection is not None:
        sel_map = {float(x): float(s) for x, s in selection}
        missing = [xs[i] for i in crossing_idx if xs[i] not in sel_map]
        if missing:
            raise DomainError(f"selection does not cover crossing points {missing}")
        sel = [sel_map[xs[i]] for i in crossing_idx]
    elif rule == "nw":
        sel = [float(bnd.s_nw[i]) for i in crossing_idx]
    elif rule == "se":
        sel = [float(bnd.s_se[i]) for i in crossing_idx]
    elif rule == "midpoint":
        sel = [_midpoint(float(bnd.s_nw[i]), float(bnd.s_se[i])) for i in crossing_idx]
        sel = np.maximum.accumulate(sel).tolist() if sel else []
    else:
        raise DomainError(f"unknown selection rule {rule!r}; choose from {SELECTION_RULES}")

    for j, i in enumerate(crossing_idx):
        lo, hi = float(bnd.s_nw[i]), float(bnd.s_se[i])
        if not (lo <= sel[j] <= hi):
            raise PreconditionError(
                f"selection {sel[j]!r} at x={xs[i]!r} leaves [{lo!r}, {hi!r}]",
                witness=(xs[i], sel[j], lo, hi),
            )
        if j > 0 and sel[j] < sel[j - 1]:
            raise PreconditionError(
                f"selection is not isotonic at x={xs[i]!r}",
                witness=(xs[crossing_idx[j - 1]], sel[j - 1], xs[i], sel[j]),
            )

    sel_at = dict(zip(crossing_idx, sel))
    rows = []
    for i in range(len(xs)):
        if not bnd.in_range[i]:
            rows.append(marginal)
        elif bnd.in_crossing[i]:
            # UnivariateDist.delta on a selection checked to lie between two atoms
            rows.append(_derived(UnivariateDist, (np.array([sel_at[i]]),), None, np.ones(1, dtype=object)))
        else:
            band = Interval.closed(float(bnd.s_se[i]), float(bnd.s_nw[i]))
            rows.append(truncate(west.rows[i], band))
    return Kernel(np.array(xs), tuple(rows), "new")


@dataclass(frozen=True, eq=False)
class ConditionalDensity:
    """Density of a kernel row with respect to the second marginal."""

    ys: np.ndarray
    values: np.ndarray
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "ys", _frozen(self.ys))
        object.__setattr__(self, "values", _frozen(self.values))


def conditional_density(knew: Kernel, x: float, r: BivariateDist) -> ConditionalDensity:
    """Row density h(x, .) of the band-truncated kernel w.r.t. the y-marginal.

    Defined off the crossing region only; there the row is a point mass and
    no bounded density exists.
    """
    r = r.canonical()
    bnd = boundaries(r, [float(x)])
    s_nw, s_se, crossing, in_range = bnd.at(float(x))
    if not in_range:
        raise DomainError(f"x={x!r} lies outside the first-marginal range")
    if crossing:
        raise DomainError(f"x={x!r} lies in the crossing region; the row is a point mass")
    row = knew.row_at(float(x))
    q = r.marginal_y()
    values = np.array([
        row.atom_prob(v) / p if p > 0 else 0.0
        for v, p in zip(q.support.tolist(), q.probs.tolist())
    ])
    return ConditionalDensity(q.support, values, float(values.max()))
