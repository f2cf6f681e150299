"""Deterministic fixture distributions used by the CLI and the test suites."""

from __future__ import annotations

import numpy as np

from .distributions import BivariateDist, UnivariateDist
from .errors import DomainError
from .tp2 import supermodular_potential


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, hi, count)


def gaussian_pair(lo: float = -15.0, hi: float = 15.0, step: float = 0.1):
    """Discretized normal pair with equal grids; not likelihood-ratio ordered."""
    ys = _grid(lo, hi, step)
    p1 = np.exp(-0.5 * (ys - 1.0) ** 2)
    p2 = np.exp(-0.5 * (ys - 1.5) ** 2 / 6.0)
    return (
        UnivariateDist(ys, p1 / p1.sum()),
        UnivariateDist(ys, p2 / p2.sum()),
    )


def gamma_pair(lo: float = 0.05, hi: float = 9.95, step: float = 0.1):
    """Discretized gamma pair with increasing density ratio on the grid."""
    if lo < 0:
        raise DomainError(f"gamma densities live on [0, inf); lo must be >= 0, got {lo!r}")
    ys = _grid(lo, hi, step)
    p1 = np.exp(-ys)  # shape 1, scale 1
    p2 = np.sqrt(ys) * np.exp(-ys / 2.0)  # shape 1.5, scale 2
    return (
        UnivariateDist(ys, p1 / p1.sum()),
        UnivariateDist(ys, p2 / p2.sum()),
    )


def odc_counterexample(n: int = 200):
    """Two-point lattice vs. uniform grid: convex dominance curve without LR order."""
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
    if n % 3 != 0 or n < 3:
        raise DomainError("grid size must be a positive multiple of 3")
    pts = ((np.arange(n) + 0.5) / n).tolist()
    third = n // 3
    rows = [[0] * n for _ in range(n)]
    for i, x in enumerate(pts):
        if x <= 1.0 / 3.0:
            for j in range(third):
                rows[i][j] = 3
        elif x < 2.0 / 3.0:
            rows[i][i] = 3 * third
        else:
            for j in range(2 * third, n):
                rows[i][j] = 3
    return BivariateDist.from_weights(pts, pts, rows)


def diag_uniform(k: int = 5) -> BivariateDist:
    """Uniform distribution on the diagonal of {1..k}^2."""
    if k < 1:
        raise DomainError("k must be positive")
    rows = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    pts = [float(i + 1) for i in range(k)]
    return BivariateDist.from_weights(pts, pts, rows)


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
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        if i == 0:
            rows[0][0] = 17
            rows[0][1] = 3
        elif i == k - 1:
            rows[i][i - 1] = 3
            rows[i][i] = 17
        else:
            rows[i][i - 1] = 3
            rows[i][i] = 14
            rows[i][i + 1] = 3
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
        mask = np.zeros_like(pmf)
        for i in range(nx):
            mask[i, lo[i] : hi[i] + 1] = 1.0
        pmf = pmf * mask
    pmf = pmf / pmf.sum()
    xs = np.arange(1.0, nx + 1.0)
    ys = np.arange(1.0, ny + 1.0)
    return BivariateDist(xs, ys, pmf).canonical()


FIXTURE_NAMES = (
    "gauss-pair",
    "gamma-pair",
    "odc-counterexample",
    "unif-delta-kernel",
    "diag-uniform",
    "antidiag",
)
