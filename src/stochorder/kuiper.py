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

The search is speculative but keeps the serial path.  A sweep's trial moves
are known when it starts (each parameter is visited once per sweep and
changes only when visited), so the next ``SPECULATION_BATCH`` of them are
scored as one (k, nx, ny) stack: the potential, the pmf and the band kernel
all act on the last two axes and give each slice the same floats as an
unstacked call.  The first trial that beats the incumbent is accepted, the
rest of the batch is discarded, and only the trials the serial loop would
have run are counted, so accepted moves, counts and reports do not depend
on the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import BivariateDist, _frozen, _on_sorted, prefix_table
from .errors import DomainError, InvalidDistributionError, PreconditionError
from .estimation import _seeds
from .isotonic import MODE_FLOAT, PRODUCT_RTOL
from .orders import _refined_axis
from .tp2 import check_tp2, supermodular_potential

#: names ``kuiper_norm`` accepts; both run the one band kernel
KUIPER_METHODS = ("brute", "kadane")

#: most prefix entries a chunk of row-range bands holds at once; with the chunk's
#: own indices, this bounds the norm's working memory whatever the number of ranges
BAND_BUDGET = 2**16

#: trial moves the pattern search scores in one stacked pass; larger batches
#: waste the trials after an accept (about 7% of trials are accepted)
SPECULATION_BATCH = 12

#: most pattern-search restarts one projection may run; each costs up to
#: ``max_iters`` sweeps over the refined grid
MAX_RESTARTS = 10**3

#: cells below this value are zeroed in the final thresholding pass
PROJECTION_ZERO_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class GridSignedMeasure:
    """Signed cell masses on a shared finite grid."""

    x_grid: np.ndarray
    y_grid: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        xg = _frozen(self.x_grid)
        yg = _frozen(self.y_grid)
        delta = _frozen(self.delta, None)
        if delta.dtype.kind not in "iuf" and delta.dtype != object:
            raise InvalidDistributionError("delta must be numeric")
        if xg.ndim != 1 or yg.ndim != 1 or delta.shape != (xg.size, yg.size) or delta.size == 0:
            raise InvalidDistributionError("delta must be nonempty and match the grids in shape")
        if xg.size > 1 and not np.all(xg[1:] > xg[:-1]):
            raise InvalidDistributionError("x grid must be strictly increasing")
        if yg.size > 1 and not np.all(yg[1:] > yg[:-1]):
            raise InvalidDistributionError("y grid must be strictly increasing")
        if delta.dtype.kind == "f" and not np.all(np.isfinite(delta)):
            raise InvalidDistributionError("delta entries must be finite")
        object.__setattr__(self, "x_grid", xg)
        object.__setattr__(self, "y_grid", yg)
        object.__setattr__(self, "delta", delta)


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
    """Largest |rectangle sum| of a float or object delta over its last two axes,
    given ``_row_ranges(delta.shape[-2:])``; a (k, nx, ny) stack gives k norms.

    Each row range's band of column prefixes scores its range max - min,
    which is its largest |band[q] - band[p]| (see the module docstring).
    A stacked slice gets the same subtractions as the 2-D call on it.
    """
    pref = prefix_table(delta)
    best = None
    for ii, jj in chunks:
        band = pref[..., jj, :]  # (..., chunk, ny+1): rows [i0, i1) per column prefix
        band -= pref[..., ii, :]
        score = (band.max(axis=-1) - band.min(axis=-1)).max(axis=-1)
        best = score if best is None else np.maximum(best, score)
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
    # a stack of one, so that chunk maxima stay Python objects
    return _band_norm(delta.astype(object)[None], _row_ranges(delta.shape))[0]


# ---------------------------------------------------------------------------
# grid refinement and projection
# ---------------------------------------------------------------------------


def refine_grid(r: BivariateDist) -> BivariateDist:
    """Embed on the interleaved (2l+1) x (2m+1) grid.

    Original atoms occupy the odd positions; the fresh even positions
    (midpoints and outer sentinels) carry zero mass.  Kuiper distances to any
    candidate supported on this grid are unchanged by the embedding.  Two
    adjacent atoms with no float between them have no cut: PreconditionError.
    """
    r = r.canonical()
    xg = np.array(_refined_axis(r.x_support))
    yg = np.array(_refined_axis(r.y_support))
    for g in (xg, yg):
        same = np.flatnonzero(g[1:] == g[:-1]).tolist()
        if same:  # a cut equals an atom: take the atoms on both sides of it
            a, b = g[same[0] - 1 + same[0] % 2::2][:2].tolist()
            raise PreconditionError(f"no float lies between the adjacent atoms {a!r} and {b!r}",
                                    (a, b))
    masses = r.cells(r.mode)
    cells = np.zeros((xg.size, yg.size), dtype=masses.dtype)
    cells[1::2, 1::2] = masses
    return _on_sorted(BivariateDist, (xg, yg), cells, r.mode)


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
    s >= 0, so TP2 by construction.

    ``a``, ``b`` and ``s`` are views of one flat parameter vector
    ``theta = a | b | s.ravel()``, so a (k, theta.size) stack of vectors
    scores k candidates in one pass.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, s: np.ndarray):
        self.theta = np.concatenate((a, b, s.ravel()))
        self.a, self.b, self.s = self._split(self.theta, a.size, b.size)

    @staticmethod
    def _split(theta: np.ndarray, nx: int, ny: int):
        lead = theta.shape[:-1]
        return theta[..., :nx], theta[..., nx:nx + ny], theta[..., nx + ny:].reshape(*lead, nx - 1, ny - 1)

    def pmf(self, theta: np.ndarray | None = None) -> np.ndarray:
        """The pmf, or a (k, nx, ny) stack of pmfs for a (k, theta.size) stack of parameter vectors."""
        a, b, s = self._split(self.theta if theta is None else theta, self.a.size, self.b.size)
        phi = supermodular_potential(a, b, s)
        # floor against exp underflow: strict positivity is what makes the
        # adjacent-minor construction sufficient for TP2
        w = np.maximum(np.exp(phi), 1e-300)
        return w / w.reshape(*w.shape[:-2], -1).sum(axis=-1)[..., None, None]


def _speculation_batch(shape: tuple[int, int]) -> int:
    """Trials per stacked pass on a grid of this shape: ``SPECULATION_BATCH``, capped so the
    stack's bands hold at most half of ``BAND_BUDGET`` entries, and at least 1.

    Half, because on larger grids a bigger stack stops lowering the cost per
    trial while each batch still wastes the trials after an accept.  On a
    23x23 grid (2-vCPU Xeon, numpy 2.4), the full budget's 9 trials per pass
    made a projection 30% slower than the serial search, and half the
    budget's 4 trials made it 12% faster.
    """
    nx, ny = shape
    return max(1, min(SPECULATION_BATCH, BAND_BUDGET // 2 // (nx * (nx + 1) // 2 * (ny + 1))))


def _sweep_trials(cand: _PotentialCandidate, step):
    """A sweep's trial moves in serial order as (parameter index, value) arrays:
    each parameter +step then -step, an ``s`` trial below 0 clamped to 0 and
    skipped when its parameter is already 0."""
    theta = cand.theta
    trial = theta[:, None] + np.array([step, -step])
    clamped = (np.arange(theta.size) >= cand.a.size + cand.b.size)[:, None] & (trial < 0.0)
    keep = ~(clamped & (theta[:, None] == 0.0))
    return np.nonzero(keep)[0], np.where(clamped, 0.0, trial)[keep]


def _pattern_search(cand: _PotentialCandidate, objective, steps, sweeps: int, batch: int):
    """Coordinate pattern search with multiplicative (log-space) steps.

    Accepts strictly improving moves only, so the accepted objective values
    are strictly decreasing; the step halves after a sweep with no accepted
    move.  ``objective`` maps a (k, nx, ny) stack of pmfs to k values.

    The trials are scored ``batch`` at a time, in the serial order of the
    sweep; the first improving one is taken and the search resumes at the
    next parameter, so the result (``best``, the accepted values, the count
    of trials the serial loop runs, and the final parameters) is the same
    for every batch size.
    """
    theta = cand.theta
    best = float(objective(cand.pmf(theta[None]))[0])
    accepted = [best]
    step_iter = list(steps)
    step = step_iter.pop(0)
    iters = 0
    for _ in range(sweeps):
        improved = False
        params, values = _sweep_trials(cand, step)
        t = 0
        while t < params.size:
            p, v = params[t:t + batch], values[t:t + batch]
            stack = np.repeat(theta[None], p.size, axis=0)
            stack[np.arange(p.size), p] = v
            vals = objective(cand.pmf(stack))
            hits = np.flatnonzero(vals < best)
            if not hits.size:
                iters += p.size
                t += p.size
                continue
            j = int(hits[0])
            iters += j + 1
            theta[p[j]] = v[j]
            best = float(vals[j])
            accepted.append(best)
            improved = True
            t += j + 1
            if t < params.size and params[t] == p[j]:
                t += 1  # the other direction of an accepted parameter is not tried
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
    if restarts > MAX_RESTARTS:
        raise DomainError(f"restarts must be at most {MAX_RESTARTS}, got {restarts}")
    (seed,) = _seeds([seed])
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
    rows = list(_row_ranges(embedded.shape))  # built once per call
    batch = _speculation_batch(embedded.shape)

    def objective(pmfs: np.ndarray) -> np.ndarray:
        """Kuiper distances of a (k, nx, ny) stack of pmfs to the target."""
        return _band_norm(pmfs - target, rows)

    px = target.sum(axis=1)
    qy = target.sum(axis=0)
    product = np.outer(px, qy) / target.sum()
    candidates: list[tuple[float, int, np.ndarray, str]] = [
        (float(objective(product[None])[0]), -1, product, "baseline-product")
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
        best, accepted, iters = _pattern_search(cand, objective, steps, max_iters, batch)
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
            d2 = float(objective(thresholded[None])[0])
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
