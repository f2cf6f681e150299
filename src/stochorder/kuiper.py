"""Bivariate Kuiper norm and a certified-feasible nearest-TP2 projection.

The Kuiper norm of a signed measure on a finite grid is the largest absolute
mass over all axis-aligned half-open rectangles.  ``kuiper_norm`` computes it
with one O(l^2 m) kernel for float, integer and rational deltas alike (the
last two as object arrays of Python ints or Fractions, so they stay exact).
For a row range [i0, i1), let ``band = pref[i1] - pref[i0]`` over the m + 1
column prefixes; the rectangle [i0, i1) x [p, q) has mass
``band[q] - band[p]``, so the largest absolute mass over the range's column
pairs is ``band.max() - band.min()``.  For floats this holds bit for bit, not
just up to rounding: floating-point subtraction rounds monotonically
(non-decreasing in its first operand, non-increasing in its second) and
symmetrically under negation, so no rounded difference of two band entries
exceeds the rounded difference of the extremes, which is itself one of the
candidates.  The row ranges are scored in chunks of at most ``BAND_BUDGET``
band entries, so memory stays bounded on large grids; the chunks do the same
subtractions, and a grid that fits one chunk runs in a single call.

``tp2_project`` searches for a TP2 distribution close to a given one in the
Kuiper norm.  An exact minimizer exists on the midpoint-refined grid, but no
closed form is available, so the solver contract is "certified feasible and
no worse than the named baselines": the input itself when already TP2, the
product of its marginals (always TP2), and the best of a pool of seeded
pattern-search restarts over strictly positive candidates parameterized as
normalized exponentials of supermodular potentials (all adjacent log-minors
nonnegative by construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import BivariateDist, prefix_table
from .errors import DomainError, InvalidDistributionError
from .isotonic import MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL
from .tp2 import _with_midpoints, check_tp2, supermodular_potential

#: names ``kuiper_norm`` accepts; both run the one band kernel
KUIPER_METHODS = ("brute", "kadane")

#: most prefix entries a chunk of row-range bands holds at once; with the chunk's
#: own indices, this bounds the norm's working memory whatever the number of ranges
BAND_BUDGET = 2**16

#: cells below this value are zeroed in the final thresholding pass
PROJECTION_ZERO_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class GridSignedMeasure:
    """Signed cell masses on a shared finite grid."""

    x_grid: np.ndarray
    y_grid: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        xg = np.asarray(self.x_grid, dtype=np.float64)
        yg = np.asarray(self.y_grid, dtype=np.float64)
        delta = np.asarray(self.delta)
        if delta.dtype.kind not in "iuf" and delta.dtype != object:
            raise InvalidDistributionError("delta must be numeric")
        if xg.ndim != 1 or yg.ndim != 1 or delta.shape != (xg.size, yg.size) or delta.size == 0:
            raise InvalidDistributionError("delta must be nonempty and match the grids in shape")
        if xg.size > 1 and not np.all(np.diff(xg) > 0):
            raise InvalidDistributionError("x grid must be strictly increasing")
        if yg.size > 1 and not np.all(np.diff(yg) > 0):
            raise InvalidDistributionError("y grid must be strictly increasing")
        if delta.dtype.kind == "f" and not np.all(np.isfinite(delta)):
            raise InvalidDistributionError("delta entries must be finite")
        xg.flags.writeable = False
        yg.flags.writeable = False
        d = delta.copy()
        d.flags.writeable = False
        object.__setattr__(self, "x_grid", xg)
        object.__setattr__(self, "y_grid", yg)
        object.__setattr__(self, "delta", d)


def signed_difference(a: BivariateDist, b: BivariateDist) -> GridSignedMeasure:
    """a - b as cell masses on the union grid."""
    xg = np.union1d(a.x_support, b.x_support)
    yg = np.union1d(a.y_support, b.y_support)
    delta = np.zeros((xg.size, yg.size))
    ia = np.searchsorted(xg, a.x_support)
    ja = np.searchsorted(yg, a.y_support)
    delta[np.ix_(ia, ja)] += a.pmf
    ib = np.searchsorted(xg, b.x_support)
    jb = np.searchsorted(yg, b.y_support)
    delta[np.ix_(ib, jb)] -= b.pmf
    return GridSignedMeasure(xg, yg, delta)


# ---------------------------------------------------------------------------
# norm computation
# ---------------------------------------------------------------------------


def _row_ranges(shape: tuple[int, int]):
    """Yield the index pairs (ii, jj) of every row range [i0, i1), 0 <= i0 < i1 <= nx, in ``triu_indices``
    order and in chunks whose bands hold at most ``BAND_BUDGET`` entries, one chunk's indices at a time."""
    nx, ny = shape
    step = max(1, BAND_BUDGET // (ny + 1))
    offsets = np.concatenate(([0], np.cumsum(np.arange(nx, 0, -1))))  # first range of each start row
    total = int(offsets[-1])  # nx (nx + 1) / 2 row ranges
    for k in range(0, total, step):
        flat = np.arange(k, min(k + step, total))
        ii = np.searchsorted(offsets, flat, side="right") - 1
        yield ii, ii + 1 + (flat - offsets[ii])


def _band_norm(delta: np.ndarray, chunks):
    """Largest |rectangle sum| of a float or object delta, given ``_row_ranges(delta.shape)``.

    Each row range's band of column prefixes scores its range max - min,
    which is its largest |band[q] - band[p]| (see the module docstring).
    """
    pref = prefix_table(delta)
    best = None
    for ii, jj in chunks:
        band = pref[jj] - pref[ii]  # (chunk, ny+1): rows [i0, i1) per column prefix
        score = (band.max(axis=1) - band.min(axis=1)).max()
        if best is None or score > best:
            best = score
    return best


def kuiper_norm(sigma: GridSignedMeasure, method: str = "kadane"):
    """Largest absolute rectangle mass of the signed measure.

    Both method names run the same kernel; the name is only checked.
    Returns a float for float deltas, an int for integer deltas, and keeps
    exact types (e.g. Fraction) for object-dtype deltas.
    """
    if method not in KUIPER_METHODS:
        raise DomainError(f"unknown kuiper method {method!r}; choose from {KUIPER_METHODS}")
    delta = sigma.delta
    if delta.dtype.kind == "f":
        return float(_band_norm(delta, _row_ranges(delta.shape)))
    return _band_norm(delta.astype(object), _row_ranges(delta.shape))


# ---------------------------------------------------------------------------
# grid refinement and projection
# ---------------------------------------------------------------------------


def _refined_axis(vals: np.ndarray) -> np.ndarray:
    inner = _with_midpoints(vals)
    return np.array([inner[0] - 1.0, *inner, inner[-1] + 1.0])


def refine_grid(r: BivariateDist) -> BivariateDist:
    """Embed on the interleaved (2l+1) x (2m+1) grid.

    Original atoms occupy the odd positions; the fresh even positions
    (midpoints and outer sentinels) carry zero mass.  Kuiper distances to any
    candidate supported on this grid are unchanged by the embedding.
    """
    r = r.canonical()
    xg = _refined_axis(r.x_support)
    yg = _refined_axis(r.y_support)
    pmf = np.zeros((xg.size, yg.size))
    pmf[1::2, 1::2] = r.pmf
    weights = None
    if r.weights is not None:
        weights = np.zeros(pmf.shape, dtype=object)
        weights[1::2, 1::2] = r.cells(MODE_EXACT)
        weights = weights.tolist()
    return BivariateDist(xg, yg, pmf, weights)


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """A certified-TP2 distribution together with its Kuiper distance.

    ``distance`` is recomputed from scratch against the embedded input, and
    ``tp2_certified`` is the result of the all-pairs minor check on the
    returned distribution; both are hard invariants of the solver.
    """

    distribution: BivariateDist
    distance: float
    tp2_certified: bool
    trace: dict
    seed: int

    def to_dict(self) -> dict:
        return {
            "distribution": self.distribution.to_dict(),
            "distance": self.distance,
            "tp2_certified": self.tp2_certified,
            "trace": self.trace,
            "seed": self.seed,
        }


class _PotentialCandidate:
    """Strictly positive pmf exp(supermodular_potential(a, b, s)) / Z with
    s >= 0, so TP2 by construction."""

    def __init__(self, a: np.ndarray, b: np.ndarray, s: np.ndarray):
        self.a = a
        self.b = b
        self.s = s

    def pmf(self) -> np.ndarray:
        phi = supermodular_potential(self.a, self.b, self.s)
        # floor against exp underflow: strict positivity is what makes the
        # adjacent-minor construction sufficient for TP2
        w = np.maximum(np.exp(phi), 1e-300)
        return w / w.sum()


def _pattern_search(cand: _PotentialCandidate, objective, steps, sweeps: int):
    """Coordinate pattern search with multiplicative (log-space) steps.

    Accepts strictly improving moves only, so the accepted objective values
    are strictly decreasing; the step halves after a sweep with no accepted
    move.
    """
    best = objective(cand.pmf())
    accepted = [best]
    params: list[tuple[np.ndarray, tuple]] = []
    for arr in (cand.a, cand.b):
        params.extend((arr, (i,)) for i in range(arr.size))
    params.extend((cand.s, idx) for idx in np.ndindex(cand.s.shape))
    step_iter = list(steps)
    step = step_iter.pop(0)
    iters = 0
    for _ in range(sweeps):
        improved = False
        for arr, idx in params:
            base = arr[idx]
            for delta in (step, -step):
                trial = base + delta
                if arr is cand.s and trial < 0.0:
                    trial = 0.0
                    if base == 0.0:
                        continue
                arr[idx] = trial
                val = objective(cand.pmf())
                iters += 1
                if val < best:
                    best = val
                    accepted.append(best)
                    improved = True
                    break
                arr[idx] = base
        if not improved:
            if step_iter:
                step = step_iter.pop(0)
            else:
                break
    return best, accepted, iters


def tp2_project(r_hat: BivariateDist, *, seed: int = 42, restarts: int = 8,
                max_iters: int = 20, step_schedule=None,
                tol: float = PRODUCT_RTOL) -> ProjectionResult:
    """Kuiper-nearest TP2 approximation on the refined grid.

    Deterministic per seed.  The returned distance never exceeds the best
    baseline: 0 for already-TP2 inputs, else the product-of-marginals
    distance; restart pattern searches may improve on it.  The output always
    passes the all-pairs TP2 check.
    """
    if restarts < 0 or max_iters < 0:
        raise DomainError(f"restarts and max_iters must be nonnegative, got {restarts} and {max_iters}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    steps = [0.5 * 0.5**k for k in range(8)] if step_schedule is None else list(step_schedule)
    if not steps:
        raise DomainError("step_schedule must name at least one step")
    r0 = r_hat.canonical()
    embedded = refine_grid(r0)
    target = embedded.pmf

    if check_tp2(r0, "pmf-allpairs", MODE_FLOAT, tol).holds:
        return ProjectionResult(
            distribution=embedded,
            distance=0.0,
            tp2_certified=True,
            trace={"source": "input-tp2", "restarts": 0, "iterations": [],
                   "best_per_restart": []},
            seed=seed,
        )

    xg, yg = embedded.x_support, embedded.y_support
    nx, ny = xg.size, yg.size
    rows = list(_row_ranges(embedded.shape))  # one chunk on a projection grid

    def objective(pmf: np.ndarray) -> float:
        return float(_band_norm(pmf - target, rows))

    px = target.sum(axis=1)
    qy = target.sum(axis=0)
    product = np.outer(px, qy) / target.sum()
    candidates: list[tuple[float, int, np.ndarray, str]] = [
        (objective(product), -1, product, "baseline-product")
    ]

    floor = 1e-6  # keeps log() finite when seeding from marginals with zero cells
    best_per_restart = []
    iters_per_restart = []
    accepted_per_restart = []
    for rs in range(restarts):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(rs,))))
        if rs == 0:
            a = np.log(px + floor)
            b = np.log(qy + floor)
            s = np.zeros((nx - 1, ny - 1))
        else:
            a = rng.normal(0.0, 1.0, nx)
            b = rng.normal(0.0, 1.0, ny)
            s = rng.exponential(0.2, (nx - 1, ny - 1))
        cand = _PotentialCandidate(a, b, s)
        best, accepted, iters = _pattern_search(cand, objective, steps, max_iters)
        best_per_restart.append(best)
        iters_per_restart.append(iters)
        accepted_per_restart.append(accepted)
        candidates.append((best, rs, cand.pmf(), f"restart-{rs}"))

    dist, _, pmf, source = min(candidates, key=lambda c: (c[0], c[1]))

    # final thresholding: drop numerically-zero cells, keep only if still TP2
    thresholded = np.where(pmf < PROJECTION_ZERO_THRESHOLD, 0.0, pmf)
    total = thresholded.sum()
    if total > 0:
        thresholded = thresholded / total
        if check_tp2(BivariateDist(xg, yg, thresholded), "pmf-allpairs", MODE_FLOAT, tol).holds:
            d2 = objective(thresholded)
            if d2 <= dist + tol:
                pmf, dist = thresholded, min(dist, d2)

    out = BivariateDist(xg, yg, pmf / pmf.sum())
    certificate = check_tp2(out, "pmf-allpairs", MODE_FLOAT, tol)
    if not certificate.holds:
        # fall back to the always-feasible product baseline
        out = BivariateDist(xg, yg, product / product.sum())
        certificate = check_tp2(out, "pmf-allpairs", MODE_FLOAT, tol)
        source = "baseline-product(fallback)"
    distance = kuiper_norm(signed_difference(out, embedded))
    return ProjectionResult(
        distribution=out,
        distance=distance,
        tp2_certified=bool(certificate.holds),
        trace={
            "source": source,
            "restarts": restarts,
            "iterations": iters_per_restart,
            "best_per_restart": best_per_restart,
            "accepted_per_restart": accepted_per_restart,
            "baseline_product_distance": candidates[0][0],
        },
        seed=seed,
    )


def consistency_bound(true_to_empirical: float, projection_distance: float) -> float:
    """Triangle bound for the projected distribution against the truth.

    Returns the sum of the two distances; when the projection is a minimizer
    (so its distance does not exceed the first argument) the sum is at most
    twice the first argument, which is asserted.
    """
    if true_to_empirical < 0 or projection_distance < 0:
        raise DomainError("distances must be nonnegative")
    bound = projection_distance + true_to_empirical
    if projection_distance <= true_to_empirical:
        assert bound <= 2.0 * true_to_empirical + 1e-15
    return bound
