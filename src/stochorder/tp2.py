"""Bivariate TP2 checks, support boundaries, and extremal conditional kernels.

A bivariate pmf is totally positive of order two (TP2) when every 2x2 minor
taken with increasing rows and columns is nonnegative; the distributional
version replaces single cells by rectangle masses over increasing interval
pairs.  A distribution is TP2 exactly when the conditional distributions of
the second coordinate are isotonic in the first coordinate with respect to
the likelihood ratio order, so ``check_tp2`` has one engine: its three
methods run the LR scans of :mod:`stochorder.orders` on pairs of row blocks
(all row pairs at once, as chunked array passes over the minors; consecutive
rows; or adjacent row ranges).  Consecutive rows suffice for every pmf, with
or without zero cells, because the LR order is transitive.  Likewise
``check_st_condition`` scans consecutive rows only: a chord slope of the path
(sum of row totals, sum of upper masses) is a weighted mean of its segment
slopes.  The conditionals can be pinned down constructively:

* ``kernel_west`` conditions on the nearest support atom at or below the
  evaluation point (the from-the-left extremal kernel);
* ``kernel_east`` conditions on the nearest atom at or above it;
* ``kernel_new`` truncates the west rows to the band between the southeast
  and northwest support boundaries and places point masses on the crossing
  region where the band pinches to a single value.

Outside the first-marginal range every kernel returns the second marginal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .distributions import BivariateDist, Interval, UnivariateDist, prefix_table
from .errors import DomainError, InvalidDistributionError, PreconditionError
from .isotonic import MODE_FLOAT, PRODUCT_RTOL, _check_mode, _cumulative, products_le
from .orders import (OrderVerdict, _boundaries, _fails, _holds, _lr_intervals, _lr_ratio,
                     _midpoint, _minor_scan, _refined_axis, truncate)

TP2_METHODS = ("pmf-allpairs", "pmf-adjacent", "intervals")

NEG_INF = float("-inf")
POS_INF = float("inf")


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
        pts = np.asarray(self.eval_points, dtype=np.float64)
        if pts.ndim != 1 or pts.size == 0:
            raise DomainError("kernel needs at least one evaluation point")
        if pts.size > 1 and not np.all(pts[1:] > pts[:-1]):
            raise InvalidDistributionError("evaluation points must be strictly increasing")
        if len(self.rows) != pts.size:
            raise InvalidDistributionError("one row per evaluation point required")
        pts.flags.writeable = False
        object.__setattr__(self, "eval_points", pts)
        object.__setattr__(self, "rows", tuple(self.rows))

    def row_at(self, x: float) -> UnivariateDist:
        i = int(np.searchsorted(self.eval_points, x))
        if i == self.eval_points.size or self.eval_points[i] != x:
            raise DomainError(f"{x!r} is not an evaluation point of this kernel")
        return self.rows[i]

    def cdf(self, x: float, y: float) -> float:
        return self.row_at(x).cdf(y)

    def survival(self, x: float, y: float) -> float:
        return self.row_at(x).survival(y)


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
        for name in ("xs", "s_nw", "s_se"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for name in ("in_crossing", "in_range"):
            arr = np.asarray(getattr(self, name), dtype=bool)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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


def boundaries(r: BivariateDist, xs=None) -> Boundaries:
    """Monotone support boundaries evaluated on a grid of x values."""
    r = r.canonical()
    xs = np.asarray(_eval_points(r, xs), dtype=np.float64)
    atoms = r.x_support
    ys = r.y_support
    pmf = r.pmf
    # topmost / bottommost mass-carrying column index per row
    top = [int(np.flatnonzero(row)[-1]) for row in pmf > 0]
    bot = [int(np.flatnonzero(row)[0]) for row in pmf > 0]
    run_top = np.maximum.accumulate(top)
    run_bot = np.minimum.accumulate(bot[::-1])[::-1]
    s_nw = np.empty(xs.size)
    s_se = np.empty(xs.size)
    in_range = (xs >= atoms[0]) & (xs <= atoms[-1])
    for i, x in enumerate(xs.tolist()):
        n_le = int(np.searchsorted(atoms, x, side="right"))
        s_nw[i] = NEG_INF if n_le == 0 else float(ys[run_top[n_le - 1]])
        first_ge = int(np.searchsorted(atoms, x, side="left"))
        s_se[i] = POS_INF if first_ge == atoms.size else float(ys[run_bot[first_ge]])
    in_crossing = s_nw <= s_se
    return Boundaries(xs, s_nw, s_se, in_crossing, in_range)


# ---------------------------------------------------------------------------
# distributional order conditions
# ---------------------------------------------------------------------------


def check_st_condition(r: BivariateDist, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL,
                       form: str = "marginal") -> OrderVerdict:
    """Stochastic-order condition on adjacent x blocks, as one O(l*m) scan.

    At each y cut, ``form="marginal"`` checks the left block's upper mass
    times the right block's total against the symmetric product;
    ``form="joint"`` is the equivalent all-joint product form.  With f_i the
    upper mass and g_i > 0 the total of canonical row i, a block's ratio
    sum(f)/sum(g) is a chord slope of the path (sum g, sum f), i.e. the
    g-weighted mean of its segment slopes f_i/g_i.  So every block pair
    passes exactly when every pair of consecutive rows does, and the witness
    is the x cuts around two consecutive rows plus the y cut.
    """
    _check_mode(mode)
    if form not in ("marginal", "joint"):
        raise DomainError(f"unknown form {form!r}")
    r = r.canonical()
    ny = r.shape[1]
    cum = [_cumulative(row) for row in r.cells(mode).tolist()]
    xcuts = _boundaries(r.x_support)
    ycuts = _boundaries(r.y_support)
    method = f"st-condition:{form}"
    for i, (left, right) in enumerate(zip(cum, cum[1:])):
        for j in range(1, ny):
            # masses with column index >= j of rows i and i + 1
            up1 = left[ny] - left[j]
            up2 = right[ny] - right[j]
            if form == "marginal":
                lhs = up1 * right[ny]
                rhs = left[ny] * up2
            else:
                lhs = up1 * right[j]
                rhs = left[j] * up2
            if not products_le(lhs, rhs, mode, tol):
                return _fails(method, (xcuts[i], xcuts[i + 1], xcuts[i + 2], ycuts[j]))
    return _holds(method)


def check_tp2(r: BivariateDist, method: str = "pmf-allpairs", mode: str = MODE_FLOAT,
              tol: float = PRODUCT_RTOL) -> OrderVerdict:
    """Total positivity of order two of a bivariate distribution.

    A pmf is TP2 exactly when its rows increase in the likelihood ratio order,
    so every method runs a ``check_lr`` scan of :mod:`stochorder.orders` on
    the column masses of pairs of row blocks and reports the blocks' x labels
    followed by the scan's y witness:

    * ``pmf-allpairs`` - all 2x2 minors over row pairs and column pairs (the
      reference semantics), scored by the minor scan behind the ``pairwise``
      method as one chunked array pass; the witness is the first violation
      in serial order (row pairs, then column pairs, in ``combinations``
      order);
    * ``pmf-adjacent`` - consecutive rows through the ``ratio`` scan, O(l*m).
      The LR order is transitive, so this is exact for every pmf, zero cells
      included;
    * ``intervals`` - the rectangle-mass oracle: the row ranges [a, b) and
      [b, c) between x cuts through the ``intervals`` scan over y cuts.
    """
    _check_mode(mode)
    if method not in TP2_METHODS:
        raise DomainError(f"unknown check_tp2 method {method!r}; choose from {TP2_METHODS}")
    r = r.canonical()
    nx = r.shape[0]
    cells = r.cells(mode)
    tag = f"tp2:{method}"
    if method == "pmf-allpairs":
        hit = _minor_scan(cells, mode, tol)
        if hit is None:
            return _holds(tag)
        i, k, j, l = hit
        xs, ys = r.x_support, r.y_support
        return _fails(tag, (float(xs[i]), float(xs[k]), float(ys[j]), float(ys[l])))
    if method == "intervals":
        xcuts = _boundaries(r.x_support)
        blocks = (((xcuts[a], xcuts[b], xcuts[c]),
                   cells[a:b].sum(axis=0).tolist(), cells[b:c].sum(axis=0).tolist())
                  for a, b, c in combinations(range(nx + 1), 3))
        lr_scan = _lr_intervals
    else:
        xs = r.x_support.tolist()
        h = cells.tolist()
        blocks = (((xs[i], xs[i + 1]), h[i], h[i + 1]) for i in range(nx - 1))
        lr_scan = _lr_ratio
    for labels, lo, hi in blocks:
        hit = lr_scan(r.y_support, lo, hi, mode, tol)
        if hit is not None:
            return _fails(tag, labels + hit)
    return _holds(tag)


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


def _classify(atoms: np.ndarray, x: float):
    """Locate x relative to the atom grid: ("atom", i), ("gap", i_below) or ("outside", None)."""
    if x < atoms[0] or x > atoms[-1]:
        return ("outside", None)
    i = int(np.searchsorted(atoms, x))
    if i < atoms.size and atoms[i] == x:
        return ("atom", i)
    return ("gap", i - 1)


def _build_kernel(r: BivariateDist, xs, flavor: str) -> Kernel:
    r = r.canonical()
    xs = _eval_points(r, xs)
    atoms = r.x_support
    marginal = r.marginal_y()
    row_cache: dict[int, UnivariateDist] = {}

    def row(i: int) -> UnivariateDist:
        if i not in row_cache:
            row_cache[i] = r.conditional_row(float(atoms[i]))
        return row_cache[i]

    rows = []
    for x in xs:
        kind, i = _classify(atoms, x)
        if kind == "outside":
            rows.append(marginal)
        elif kind == "atom":
            rows.append(row(i))
        else:
            rows.append(row(i) if flavor == "west" else row(i + 1))
    return Kernel(np.array(xs), tuple(rows), flavor)


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
            rows.append(UnivariateDist.delta(sel_at[i]))
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
        ys = np.asarray(self.ys, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        ys.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "values", values)

    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.ys.tolist(), self.values.tolist()))


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
