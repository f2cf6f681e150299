"""Sampling, empirical distributions, and conditional quantile diagnostics.

Sampling uses the Philox 4x32-10 counter-based generator (numpy
implementation) with a guide-table lookup over the row-major cumulative pmf,
the same indices as inverse-CDF ``searchsorted``, so identical seeds
reproduce identical streams on every platform.  Derived streams inside the
diagnostic harnesses use spawn keys of the base seed and are documented next
to each harness.

One helper draws the flat cell indices of the stream, block by block, so
memory does not grow with the sample size.  ``sample`` maps them to (x, y)
draws; the convergence harnesses instead add each block's counts per cell of
the canonical source grid into one count grid.  Every conditional quantile,
of a sample or of its source, is read by ``_row_quantiles`` from a mass grid
(draw counts, a float pmf or integer weights) with the bits of the kernel
rows: no float draws, no empirical distribution and no kernel rows are
built.  ``empirical`` stays public for arbitrary draw arrays.

Conditional quantile curves come in three flavors:

* ``west-min``: minimal quantile of the from-the-left kernel's rows,
* ``east-max``: maximal quantile of the from-the-right kernel's rows,
* ``empirical``: the west-min construction applied to an empirical
  distribution (the estimator convention; the maximal choice is reported
  alongside by the harnesses to show the insensitivity of the limits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import MASS_TOL, POS_INF, BivariateDist, _atom_grid, _quantile_index
from .errors import DomainError, PreconditionError
from .isotonic import MODE_FLOAT, PRODUCT_RTOL
from .tp2 import _eval_points, _row_index, check_st_condition

QUANTILE_FLAVORS = ("west-min", "east-max", "empirical")
#: most draws one sample may hold; ``sample`` returns two 8-byte floats per draw
MAX_SAMPLE_SIZE = 10**7
#: uniforms the stream draws and maps to cells at a time, on grids of at
#: most this many cells; a block of a larger grid holds one draw per cell
BLOCK = 2**15


def _philox(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _table_size(cells: int, n: int) -> int:
    """The guide table's bucket count M for n draws over ``cells`` cells: 8
    times the cells, but at most ``BLOCK`` or n and at least the cells.
    Small grids get 8 buckets per cell, so most draws stop at the start of
    their bucket, and a larger grid or a smaller sample at least one, as many
    as the one-shot lookup had, so that building the table costs no more
    than the draws or the grid."""
    return max(cells, min(8 * cells, BLOCK, n))


def _guide(cum: np.ndarray, m: int) -> np.ndarray:
    """The guide table of ``_cell_index`` over ``cum`` with M = m buckets:
    M + 1 entries, where ``guide[b]`` counts the entries with
    floor(cum·M) < b, and ``guide[0]`` those with cum = 0.
    """
    guide = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount((cum * m).astype(np.intp), minlength=m + 1)[:m], out=guide[1:])
    # u = 0.0 would take cell 0 even when it has no mass; it takes the first
    # cell with mass instead, as the smallest positive float would.  Every
    # other u in bucket 0 lies above the zero-mass cells anyway.
    guide[0] = np.searchsorted(cum, 0.0, side="right")
    return guide


def _cell_index(cum: np.ndarray, guide: np.ndarray, u: np.ndarray, buckets: np.ndarray) -> np.ndarray:
    """For each u in [0, 1), the first index i with ``cum[i] >= u`` (the
    first with ``cum[i] > 0`` for u = 0), where ``cum`` is nondecreasing and
    ends in exactly 1.0: the indices of ``np.searchsorted(cum, u,
    side="left")`` for u > 0, found through the guide table ``_guide(cum, M)``
    (Chen & Asau's indexed search).  ``buckets`` holds each u's bucket
    floor(u·M).

    Scaling by M (rounded) and ``floor`` are monotone, so the first
    ``guide[b]`` entries lie below every u in bucket b and the entries from
    ``guide[b + 1]`` on lie above it: the answer lies in
    ``[guide[b], guide[b + 1]]``, zero-mass cells included, and
    ``guide[M] < cum.size`` since ``cum[-1]`` falls in bucket M.  u < 1
    falls in a bucket b < M: u·M lies more than half a unit in the last
    place below M, or is exact if M is a power of two.  Most draws stop at
    the start of their bucket or one cell past it; the rest bisect what is
    left of their bucket, so a bucket holding many cells costs passes
    logarithmic in their number, not one pass per cell.
    """
    idx = guide.take(buckets)
    active = np.flatnonzero(cum.take(idx) < u)
    idx[active] += 1
    active = active[cum[idx[active]] < u[active]]
    ua = u[active]
    lo, hi = idx[active] + 1, guide[buckets[active] + 1]
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        below = cum[mid] < ua
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    idx[active] = lo
    return idx


def _cell_blocks(cum: np.ndarray, guide: np.ndarray, n: int, gen: np.random.Generator):
    """The ``_cell_index`` cells of n uniforms drawn from ``gen`` through the
    guide table ``guide``, one block at a time.  Each block of ``BLOCK``
    draws (of one draw per cell on larger grids, so a caller's per-block
    ``bincount`` costs no more than the block) is drawn into reused buffers,
    so the stream holds one block and the table in memory, whatever n is.
    Drawing in blocks gives the same doubles as one ``random(n)`` call.
    """
    block = min(max(BLOCK, cum.size), n)
    buf, buckets = np.empty(block), np.empty(block, dtype=np.intp)
    for start in range(0, n, block):
        size = min(block, n - start)
        u, b = buf[:size], buckets[:size]
        gen.random(out=u)
        # the product is truncated to an integer as it is stored: floor(u·M)
        np.multiply(u, guide.size - 1, out=b, casting="unsafe")
        yield _cell_index(cum, guide, u, b)


class _CellStreams:
    """The seeded cell streams of one distribution, the one implementation
    of the stream: its canonical form ``r``, whose normalized row-major
    cumulative pmf ``cum`` is computed once, and one guide table per table
    size, built when a stream first needs it.  A harness draws all its
    samples from one instance."""

    def __init__(self, r: BivariateDist):
        self.r = r.canonical()
        cum = np.cumsum(self.r.pmf.reshape(-1))
        self.cum = cum / cum[-1]
        self._guides: dict[int, np.ndarray] = {}

    def blocks(self, n: int, seed):
        """An iterator over the flat row-major cell indices of n draws from
        the stream of ``seed``, block by block; n and the seed are checked
        by the caller."""
        m = _table_size(self.cum.size, n)
        if m not in self._guides:
            self._guides[m] = _guide(self.cum, m)
        return _cell_blocks(self.cum, self._guides[m], n, _philox(seed))

    def counts(self, n: int, seed) -> np.ndarray:
        """The draws per cell of the canonical grid of n draws from the stream of ``seed``."""
        blocks = self.blocks(n, seed)
        # n >= 1, so there is a first block; its counts become the count grid
        counts = np.bincount(next(blocks), minlength=self.cum.size)
        for idx in blocks:
            counts += np.bincount(idx, minlength=counts.size)
        return counts.reshape(self.r.shape)


def sample(r: BivariateDist, n: int, seed) -> np.ndarray:
    """n i.i.d. draws as an (n, 2) array; deterministic per seed."""
    (n,), (seed,) = _sample_sizes([n]), _seeds([seed])
    streams = _CellStreams(r)
    r = streams.r
    points = np.stack(np.meshgrid(r.x_support, r.y_support, indexing="ij"), axis=-1).reshape(-1, 2)
    out = np.empty((n, 2))
    start = 0
    for idx in streams.blocks(n, seed):
        out[start:start + idx.size] = points[idx]
        start += idx.size
    return out


def _row_quantiles(r: BivariateDist, cells: np.ndarray, xs, beta: float,
                   east: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The minimal and the maximal beta-quantile (0 < beta < 1) of each row of
    ``kernel_west`` (``kernel_east`` if ``east``) at the sorted points ``xs``,
    read from ``cells``: draw counts, a float pmf or integer weights on the
    supports of the canonical ``r``.

    The rows with mass are the kernel's x-atoms; ``tp2._row_index`` picks a
    point's row, and outside their range the column sums, the y-marginal.
    Masses keep the kernel rows' bits: a row's cells over their sum, as
    ``conditional_row`` divides, and the column sums as they are (floats) or
    over their total (integers), as ``marginal_y`` builds them.  A row's
    atoms are its cells with a positive share (floats) or weight (integers).
    Running sums pass any other cell with an unchanged partial sum, so the
    first entry past a positive level is an atom; a level at or below 0 and
    an index past the end are clamped to the row's first and last atom.  As
    in ``UnivariateDist.quantile``, the minimal quantile is +inf past a total
    short of beta by more than ``MASS_TOL``.
    """
    with_mass = np.flatnonzero((cells > 0).any(axis=1))
    west, east_at, in_range = _row_index(r.x_support[with_mass], xs)
    masses = cells[with_mass[np.minimum(east_at if east else west, with_mass.size - 1)]]
    masses[~in_range] = cells.sum(axis=0)
    totals = masses.sum(axis=1, keepdims=True)
    floats = cells.dtype.kind == "f"
    if floats:
        totals[~in_range] = 1.0
    probs = (masses / totals).astype(np.float64)
    positive = (probs if floats else masses) > 0
    cum = np.cumsum(probs, axis=1)
    first, last = positive.argmax(axis=1), cells.shape[1] - 1 - positive[:, ::-1].argmax(axis=1)
    lo, hi = (r.y_support[np.clip(_quantile_index(cum, beta, largest), first, last)]
              for largest in (False, True))
    return np.where(beta - cum[:, -1] > MASS_TOL, POS_INF, lo), hi


def empirical(samples) -> BivariateDist:
    """Empirical distribution with integer counts as exact weights."""
    pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise DomainError("samples must be a nonempty (n, 2) array")
    (gx, gy), counts = _atom_grid(pts.T, np.ones(pts.shape[0], dtype=np.int64), np.int64)
    return BivariateDist.from_weights(gx, gy, counts)


@dataclass(frozen=True, eq=False)
class QuantileCurve:
    """Conditional beta-quantiles along a grid of x values."""

    beta: float
    points: tuple[tuple[float, float], ...]
    flavor: str


def quantile_curve(r: BivariateDist, beta: float, flavor: str = "west-min", xs=None) -> QuantileCurve:
    """Conditional quantile curve of the chosen kernel flavor, read from the grid."""
    beta = _beta(beta)
    if flavor not in QUANTILE_FLAVORS:
        raise DomainError(f"unknown flavor {flavor!r}; choose from {QUANTILE_FLAVORS}")
    east = flavor == "east-max"
    r = r.canonical()
    xs = _eval_points(r, xs)
    q_min, q_max = _row_quantiles(r, r.cells(r.mode), xs, beta, east)
    return QuantileCurve(beta, tuple(zip(xs, (q_max if east else q_min).tolist())), flavor)


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


def _beta(beta) -> float:
    """The quantile level as a float, checked to lie strictly inside (0, 1)."""
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie strictly inside (0, 1), got {beta!r}")
    return beta


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

    For each sample size, counts a seeded sample per cell of the canonical
    source grid and reads the empirical quantiles at both points from those
    counts, as ``kernel_west`` on the sample's empirical distribution gives
    them.  It verifies that the empirical quantile at the higher point does
    not undercut the west quantile at the lower point, and dually for the
    east quantile.  On finite support all quantiles are atom values,
    so no slack is applied.  Stream i uses spawn key (seed, i).  ``mode``
    and ``tol`` govern the stochastic-order precondition on ``r_true``.
    """
    beta = _beta(beta)
    st = check_st_condition(r_true, mode, tol)
    if not st.holds:
        raise PreconditionError(
            f"source distribution violates the stochastic-order condition at {st.witness}",
            witness=st.witness,
        )
    streams = _CellStreams(r_true)
    r_true = streams.r
    atoms = r_true.x_support
    if not (atoms[0] < x1 < atoms[-1]) or not (atoms[0] < x2 < atoms[-1]):
        raise DomainError("x1 and x2 must be interior to the first-marginal range")
    if not x1 < x2:
        raise DomainError("x1 < x2 required")
    n_list = _sample_sizes(samples_spec["n_list"])
    if not n_list:
        raise DomainError("n_list names no sample sizes")
    (seed,) = _seeds([int(samples_spec["seed"])])
    q_west_x1 = _row_quantiles(r_true, r_true.cells(r_true.mode), [x1], beta)[0].item()
    q_east_x2 = _row_quantiles(r_true, r_true.cells(r_true.mode), [x2], beta, east=True)[1].item()
    entries = []
    for i, n in enumerate(n_list):
        key = (seed, i)
        (q1_min, q2_min), (q1_max, q2_max) = (
            q.tolist() for q in _row_quantiles(r_true, streams.counts(n, key), [x1, x2], beta))
        entries.append(
            BracketEntry(
                n=n,
                seed_key=key,
                q_emp_min_x1=q1_min,
                q_emp_max_x1=q1_max,
                q_emp_min_x2=q2_min,
                q_emp_max_x2=q2_max,
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
    beta = _beta(beta)
    n_list, seeds = _sample_sizes(n_list), _seeds(int(s) for s in seeds)
    if not n_list or not seeds:
        raise DomainError("n_list and seeds must each be nonempty")
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise DomainError("interval must satisfy a < b")
    streams = _CellStreams(r_true)
    r_true = streams.r
    grid = [x for x in r_true.x_support.tolist() if a <= x <= b]
    if not grid:
        raise DomainError("no first-marginal atoms inside the interval")
    # on atoms the west and east kernels take the same rows
    q_west, q_east = _row_quantiles(r_true, r_true.cells(r_true.mode), grid, beta)
    for x, qw, qe in zip(grid, q_west.tolist(), q_east.tolist()):
        if qw != qe:
            raise PreconditionError(
                f"west and east quantiles differ at x={x!r}: {qw!r} vs {qe!r}",
                witness=(x, qw, qe),
            )
    entries = []
    for seed in seeds:
        for i, n in enumerate(n_list):
            q, _ = _row_quantiles(r_true, streams.counts(n, (seed, i)), grid, beta)
            entries.append(UniformConvergenceEntry(n, seed, float(np.abs(q - q_west).max())))
    return UniformConvergenceReport(beta, (a, b), tuple(grid), tuple(entries))
