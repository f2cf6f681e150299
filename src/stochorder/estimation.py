"""Sampling, empirical distributions, and conditional quantile diagnostics.

Sampling uses the Philox 4x32-10 counter-based generator (numpy
implementation) with a guide-table lookup over the row-major cumulative pmf,
the same indices as inverse-CDF ``searchsorted``, so identical seeds
reproduce identical streams on every platform.  Derived streams inside the
diagnostic harnesses use spawn keys of the base seed and are documented next
to each harness.

One helper draws the flat cell indices of the stream.  ``sample`` maps them
to (x, y) draws; the convergence harnesses instead count them per cell with
``np.bincount`` into the integer-weight empirical distribution, which equals
``empirical(sample(r, n, seed))`` exactly without building or sorting the
float draws.  ``empirical`` stays public for arbitrary draw arrays.

Conditional quantile curves come in three flavors:

* ``west-min``: minimal quantile of the from-the-left kernel,
* ``east-max``: maximal quantile of the from-the-right kernel,
* ``empirical``: the west-min construction applied to an empirical
  distribution (the estimator convention; the maximal choice is reported
  alongside by the harnesses to show the insensitivity of the limits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import BivariateDist, _atom_grid
from .errors import DomainError, PreconditionError
from .isotonic import MODE_FLOAT, PRODUCT_RTOL
from .tp2 import check_st_condition, kernel_east, kernel_west

QUANTILE_FLAVORS = ("west-min", "east-max", "empirical")
#: most draws one sample may hold; the stream keeps two 8-byte arrays per draw
MAX_SAMPLE_SIZE = 10**7


def _philox(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _cell_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each u in [0, 1), the first index i with ``cum[i] >= u``, where
    ``cum`` is nondecreasing and ends in exactly 1.0: the indices of
    ``np.searchsorted(cum, u, side="left")``, found through a guide table
    (Chen & Asau's indexed search).

    With K = ``cum.size``, u falls in bucket b = floor(u·K) < K, and
    ``guide[b]`` counts the entries with floor(cum·K) < b, for b = 0..K.
    Scaling and ``floor`` are monotone, so the first ``guide[b]`` entries lie
    below every u in bucket b and the entries from ``guide[b + 1]`` on lie
    above it: the answer lies in ``[guide[b], guide[b + 1]]``, zero-mass
    cells included, and ``guide[K] < K`` since ``cum[-1]`` falls in bucket K.
    Most draws stop at the start of their bucket or one cell past it; the
    rest bisect what is left of their bucket, so a bucket holding many cells
    costs passes logarithmic in their number, not one pass per cell.
    """
    k = cum.size
    guide = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(np.bincount((cum * k).astype(np.intp), minlength=k + 1)[:k], out=guide[1:])
    # no per-draw bucket array is kept, since each n-sized array adds to the
    # peak RSS; the few draws that bisect recompute their buckets
    idx = guide[(u * k).astype(np.intp)]
    active = np.flatnonzero(cum[idx] < u)
    idx[active] += 1
    active = active[cum[idx[active]] < u[active]]
    ua = u[active]
    lo, hi = idx[active] + 1, guide[(ua * k).astype(np.intp) + 1]
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        below = cum[mid] < ua
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    idx[active] = lo
    return idx


def _draw_cells(r: BivariateDist, n: int, seed) -> tuple[BivariateDist, np.ndarray]:
    """The canonical ``r`` and n flat row-major cell indices drawn from its
    seeded stream; the one implementation of the stream."""
    (n,), (seed,) = _sample_sizes([n]), _seeds([seed])
    r = r.canonical()
    cum = np.cumsum(r.pmf.reshape(-1))
    cum = cum / cum[-1]
    return r, _cell_index(cum, _philox(seed).random(n))


def sample(r: BivariateDist, n: int, seed) -> np.ndarray:
    """n i.i.d. draws as an (n, 2) array; deterministic per seed."""
    r, idx = _draw_cells(r, n, seed)
    i, j = np.divmod(idx, r.shape[1])
    return np.column_stack([r.x_support[i], r.y_support[j]])


def _sample_counts(r: BivariateDist, n: int, seed) -> BivariateDist:
    """``empirical(sample(r, n, seed))``, counted per cell without the draws."""
    r, idx = _draw_cells(r, n, seed)
    counts = np.bincount(idx, minlength=r.pmf.size).reshape(r.shape)
    rows, cols = counts.any(axis=1), counts.any(axis=0)
    return BivariateDist.from_weights(
        r.x_support[rows], r.y_support[cols], counts[np.ix_(rows, cols)].tolist()
    )


def empirical(samples) -> BivariateDist:
    """Empirical distribution with integer counts as exact weights."""
    pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise DomainError("samples must be a nonempty (n, 2) array")
    (gx, gy), counts = _atom_grid(pts.T, np.ones(pts.shape[0], dtype=np.int64), np.int64)
    return BivariateDist.from_weights(gx, gy, counts.tolist())


@dataclass(frozen=True, eq=False)
class QuantileCurve:
    """Conditional beta-quantiles along a grid of x values."""

    beta: float
    points: tuple[tuple[float, float], ...]
    flavor: str

    def value_at(self, x: float) -> float:
        for px, q in self.points:
            if px == x:
                return q
        raise DomainError(f"{x!r} is not an evaluation point of this curve")


def quantile_curve(r: BivariateDist, beta: float, flavor: str = "west-min", xs=None) -> QuantileCurve:
    """Conditional quantile curve of the chosen kernel flavor."""
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie strictly inside (0, 1), got {beta!r}")
    if flavor not in QUANTILE_FLAVORS:
        raise DomainError(f"unknown flavor {flavor!r}; choose from {QUANTILE_FLAVORS}")
    east = flavor == "east-max"
    kern = kernel_east(r, xs) if east else kernel_west(r, xs)
    pts = tuple((float(x), row.max_quantile(beta) if east else row.quantile(beta))
                for x, row in zip(kern.eval_points.tolist(), kern.rows))
    return QuantileCurve(beta, pts, flavor)


# ---------------------------------------------------------------------------
# convergence harnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BracketEntry:
    n: int
    seed_key: tuple
    q_emp_min_x1: float
    q_emp_max_x1: float
    q_emp_min_x2: float
    q_emp_max_x2: float
    lower_ok: bool
    upper_ok: bool

    def to_dict(self) -> dict:
        return {**vars(self), "seed_key": list(self.seed_key)}


@dataclass(frozen=True)
class BracketReport:
    beta: float
    x1: float
    x2: float
    q_west_x1: float
    q_east_x2: float
    entries: tuple[BracketEntry, ...]

    @property
    def pass_rate(self) -> float:
        ok = sum(1 for e in self.entries if e.lower_ok and e.upper_ok)
        return ok / len(self.entries)

    def to_dict(self) -> dict:
        return {**vars(self), "pass_rate": self.pass_rate,
                "entries": [e.to_dict() for e in self.entries]}


def _sample_sizes(n_list) -> list[int]:
    """The sample sizes as ints, checked before anything is drawn."""
    n_list = [int(n) for n in n_list]
    for n in n_list:
        if not 1 <= n <= MAX_SAMPLE_SIZE:
            raise DomainError(f"sample size must lie in 1..{MAX_SAMPLE_SIZE}, got {n}")
    return n_list


def _seeds(seeds) -> list:
    """The seeds, checked before anything is drawn: each an int or a sequence
    of ints (such as a spawn key), with no negative part."""
    seeds = list(seeds)
    for seed in seeds:
        if min(np.ravel(seed).tolist(), default=0) < 0:
            raise DomainError(f"seed must be nonnegative, got {seed!r}")
    return seeds


def bracket_check(r_true: BivariateDist, samples_spec: dict, beta: float,
                  x1: float, x2: float, mode: str = MODE_FLOAT,
                  tol: float = PRODUCT_RTOL) -> BracketReport:
    """Empirical-vs-extremal quantile bracketing at two interior points.

    For each sample size, counts a seeded sample into its empirical
    distribution, and verifies that the empirical quantile at the higher
    point does not undercut the west quantile at the lower point, and dually
    for the east quantile.  On finite support all quantiles are atom values,
    so no slack is applied.  Stream i uses spawn key (seed, i).  ``mode``
    and ``tol`` govern the stochastic-order precondition on ``r_true``.
    """
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie strictly inside (0, 1), got {beta!r}")
    st = check_st_condition(r_true, mode, tol)
    if not st.holds:
        raise PreconditionError(
            f"source distribution violates the stochastic-order condition at {st.witness}",
            witness=st.witness,
        )
    r_true = r_true.canonical()
    atoms = r_true.x_support
    if not (atoms[0] < x1 < atoms[-1]) or not (atoms[0] < x2 < atoms[-1]):
        raise DomainError("x1 and x2 must be interior to the first-marginal range")
    if not x1 < x2:
        raise DomainError("x1 < x2 required")
    n_list = _sample_sizes(samples_spec["n_list"])
    if not n_list:
        raise DomainError("n_list names no sample sizes")
    (seed,) = _seeds([int(samples_spec["seed"])])
    q_west_x1 = kernel_west(r_true, [x1]).rows[0].quantile(beta)
    q_east_x2 = kernel_east(r_true, [x2]).rows[0].max_quantile(beta)
    entries = []
    for i, n in enumerate(n_list):
        key = (seed, i)
        row1, row2 = kernel_west(_sample_counts(r_true, n, key), [x1, x2]).rows
        q1_min, q2_min = row1.quantile(beta), row2.quantile(beta)
        entries.append(
            BracketEntry(
                n=n,
                seed_key=key,
                q_emp_min_x1=q1_min,
                q_emp_max_x1=row1.max_quantile(beta),
                q_emp_min_x2=q2_min,
                q_emp_max_x2=row2.max_quantile(beta),
                lower_ok=bool(q2_min >= q_west_x1),
                upper_ok=bool(q1_min <= q_east_x2),
            )
        )
    return BracketReport(beta, float(x1), float(x2), q_west_x1, q_east_x2, tuple(entries))


@dataclass(frozen=True)
class UniformConvergenceEntry:
    n: int
    seed: int
    sup_distance: float

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class UniformConvergenceReport:
    beta: float
    interval: tuple[float, float]
    grid: tuple[float, ...]
    entries: tuple[UniformConvergenceEntry, ...]

    def sup_by_n(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for e in self.entries:
            out[e.n] = max(out.get(e.n, 0.0), e.sup_distance)
        return out

    def to_dict(self) -> dict:
        return {**vars(self), "interval": list(self.interval), "grid": list(self.grid),
                "sup_by_n": {str(k): v for k, v in sorted(self.sup_by_n().items())},
                "entries": [e.to_dict() for e in self.entries]}


def uniform_convergence_check(r_true: BivariateDist, beta: float, interval, n_list,
                              seeds) -> UniformConvergenceReport:
    """Sup-distance of empirical quantile curves to the west curve on a window.

    The evaluation grid is the set of positive-mass first-marginal atoms
    inside the closed window; between atoms the west and east curves of a
    discrete marginal bracket a whole support gap, so the equal-quantile
    precondition is validated (and convergence measured) on the atoms.
    Stream for (seed, n index i) uses spawn key (seed, i).
    """
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie strictly inside (0, 1), got {beta!r}")
    n_list, seeds = _sample_sizes(n_list), _seeds(int(s) for s in seeds)
    if not n_list or not seeds:
        raise DomainError("n_list and seeds must each be nonempty")
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise DomainError("interval must satisfy a < b")
    r_true = r_true.canonical()
    grid = [x for x in r_true.x_support.tolist() if a <= x <= b]
    if not grid:
        raise DomainError("no first-marginal atoms inside the interval")
    west = quantile_curve(r_true, beta, "west-min", grid)
    east = quantile_curve(r_true, beta, "east-max", grid)
    for (x, qw), (_, qe) in zip(west.points, east.points):
        if qw != qe:
            raise PreconditionError(
                f"west and east quantiles differ at x={x!r}: {qw!r} vs {qe!r}",
                witness=(x, qw, qe),
            )
    entries = []
    for seed in seeds:
        for i, n in enumerate(n_list):
            kern = kernel_west(_sample_counts(r_true, n, (seed, i)), grid)
            sup = 0.0
            for row, (_, qw) in zip(kern.rows, west.points):
                sup = max(sup, abs(row.quantile(beta) - qw))
            entries.append(UniformConvergenceEntry(n, seed, sup))
    return UniformConvergenceReport(beta, (a, b), tuple(grid), tuple(entries))
