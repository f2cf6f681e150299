"""Deterministic fixture distributions used by the CLI and the test suites."""

from __future__ import annotations

import numpy as np

from .distributions import BivariateDist, UnivariateDist
from .errors import DomainError
from .tp2 import supermodular_potential


#: most points (or cells) a fixture holds; a finer grid is an input error
MAX_FIXTURE_POINTS = 10**6


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Equally spaced points from lo to hi; every bad bound is named."""
    for name, value in (("lo", lo), ("hi", hi)):
        if not np.isfinite(value):
            raise DomainError(f"grid bound {name} must be finite, got {value!r}")
    if not (np.isfinite(step) and step > 0):
        raise DomainError(f"grid step must be finite and positive, got {step!r}")
    if hi < lo:
        raise DomainError(f"grid bound hi={hi!r} lies below lo={lo!r}")
    span = (hi - lo) / step  # inf when hi - lo overflows
    if not span <= MAX_FIXTURE_POINTS - 1:
        raise DomainError(f"a grid from {lo!r} to {hi!r} in steps of {step!r} "
                          f"exceeds {MAX_FIXTURE_POINTS} points")
    return np.linspace(lo, hi, round(span) + 1)


def _on_grid(ys: np.ndarray, *densities) -> tuple:
    """The densities normalized on the grid, each of which must carry mass there."""
    for p in densities:
        if not p.sum() > 0:
            raise DomainError(f"the grid from {float(ys[0])!r} to {float(ys[-1])!r} carries no mass")
    return tuple(UnivariateDist(ys, p / p.sum()) for p in densities)


def gaussian_pair(lo: float = -15.0, hi: float = 15.0, step: float = 0.1):
    """Discretized normal pair with equal grids; not likelihood-ratio ordered."""
    ys = _grid(lo, hi, step)
    with np.errstate(over="ignore"):  # far from the means the density is 0
        p1 = np.exp(-0.5 * (ys - 1.0) ** 2)
        p2 = np.exp(-0.5 * (ys - 1.5) ** 2 / 6.0)
    return _on_grid(ys, p1, p2)


def gamma_pair(lo: float = 0.05, hi: float = 9.95, step: float = 0.1):
    """Discretized gamma pair with increasing density ratio on the grid."""
    if lo < 0:
        raise DomainError(f"gamma densities live on [0, inf); lo must be >= 0, got {lo!r}")
    ys = _grid(lo, hi, step)
    p1 = np.exp(-ys)  # shape 1, scale 1
    p2 = np.sqrt(ys) * np.exp(-ys / 2.0)  # shape 1.5, scale 2
    return _on_grid(ys, p1, p2)


def odc_counterexample(n: int = 200):
    """Two-point lattice vs. uniform grid: convex dominance curve without LR order."""
    if not 1 <= n <= MAX_FIXTURE_POINTS:
        raise DomainError(f"the uniform grid needs 1 to {MAX_FIXTURE_POINTS} points, got {n!r}")
    q1 = UnivariateDist.from_weights([0.0, 1.0], [1, 1])
    pts = (np.arange(n) + 0.5) / n
    q2 = UnivariateDist.from_weights(pts, [1] * n)
    return q1, q2


def unif_delta_kernel(n: int = 30) -> BivariateDist:
    """Uniform first coordinate with a three-regime conditional structure.

    On the lower third of the grid the second coordinate is uniform over the
    lower third, on the middle third it equals the first coordinate, and on
    the upper third it is uniform over the upper third.  The result is TP2
    with a nontrivial crossing region on the middle third.
    """
    if n % 3 != 0 or n < 3 or n * n > MAX_FIXTURE_POINTS:
        raise DomainError(f"grid size must be a positive multiple of 3 with at most "
                          f"{MAX_FIXTURE_POINTS} cells, got {n!r}")
    pts = (np.arange(n) + 0.5) / n
    lower, upper = (pts <= 1.0 / 3.0)[:, None], (pts >= 2.0 / 3.0)[:, None]
    col_third = np.arange(n) // (n // 3)
    rows = np.where(lower, 3 * (col_third == 0),
                    np.where(upper, 3 * (col_third == 2), 3 * (n // 3) * np.eye(n, dtype=int)))
    return BivariateDist.from_weights(pts, pts, rows)


def diag_uniform(k: int = 5) -> BivariateDist:
    """Uniform distribution on the diagonal of {1..k}^2."""
    if k < 1 or k * k > MAX_FIXTURE_POINTS:
        raise DomainError(f"k must be positive with at most {MAX_FIXTURE_POINTS} cells, got {k!r}")
    pts = [float(i + 1) for i in range(k)]
    return BivariateDist.from_weights(pts, pts, np.eye(k, dtype=int))


def antidiag() -> BivariateDist:
    """Anti-diagonal two-point distribution; the canonical non-TP2 example."""
    return BivariateDist.from_weights([1.0, 2.0], [1.0, 2.0], [[0, 1], [1, 0]])


def banded_tp2(k: int = 5) -> BivariateDist:
    """Tridiagonal TP2 band with uniform first marginal and wide quantile margins.

    Interior rows put weights (3, 14, 3) on the neighboring diagonal cells;
    edge rows absorb the missing shoulder into the diagonal.  Consecutive
    conditional rows are likelihood-ratio increasing, so the pmf is TP2, and
    all conditional distribution functions stay far from the usual quantile
    levels, which makes the bracketing diagnostics deterministic at moderate
    sample sizes.
    """
    if k < 2:
        raise DomainError("k must be at least 2")
    rows = 14 * np.eye(k, dtype=int) + 3 * (np.eye(k, k=1, dtype=int) + np.eye(k, k=-1, dtype=int))
    rows[0, 0] = rows[-1, -1] = 17
    pts = [float(i + 1) for i in range(k)]
    return BivariateDist.from_weights(pts, pts, rows)


def random_tp2(rng: np.random.Generator, nx: int, ny: int, band: bool = False) -> BivariateDist:
    """Random TP2 pmf from an exponentiated supermodular potential.

    With ``band=True`` the positive matrix is masked to a random monotone
    support band (nondecreasing lower and upper column limits per row), which
    preserves TP2 and creates boundary/crossing structure, then renormalized.
    """
    a = rng.normal(0.0, 1.0, nx)
    b = rng.normal(0.0, 1.0, ny)
    s = rng.exponential(0.5, (max(nx - 1, 1), max(ny - 1, 1)))
    pmf = np.exp(supermodular_potential(a, b, s[: nx - 1, : ny - 1]))
    if band:
        lo = np.sort(rng.integers(0, ny, nx))
        hi = np.maximum(np.sort(rng.integers(0, ny, nx)), lo)
        cols = np.arange(ny)
        pmf = pmf * ((cols >= lo[:, None]) & (cols <= hi[:, None]))
    pmf = pmf / pmf.sum()
    xs = np.arange(1.0, nx + 1.0)
    ys = np.arange(1.0, ny + 1.0)
    return BivariateDist(xs, ys, pmf).canonical()

