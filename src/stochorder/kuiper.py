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
candidates.  The kernel copies the prefix table with its column-prefix axis
first and a stack of deltas as the contiguous inner run, so each band's max
and min reduce across whole slabs of the array, one slab per column prefix,
not along rows only m + 1 long.  When every row range of the whole stack
fits ``BAND_BUDGET``, folded (see ``_band_norm``), one gather and one
in-place subtraction score each range once; this is the path of every
stack the pattern search scores.  Larger tables take the bands of blocks of
start rows by plain-slice subtractions of at most ``BAND_BUDGET`` entries,
so memory stays bounded on large grids.

``tp2_project`` searches for a TP2 distribution close to a given one in the
Kuiper norm.  An exact minimizer exists on the midpoint-refined grid, but no
closed form is available, so the solver contract is "certified feasible and
no worse than the named baselines": the input itself when already TP2, the
product of its marginals (always TP2), and the best of a pool of seeded
pattern-search restarts over strictly positive candidates parameterized as
normalized exponentials of supermodular potentials (all adjacent log-minors
nonnegative by construction).

The search is speculative and runs its restarts in lockstep, but keeps the
serial path.  A sweep's trial moves are known when it starts (each parameter
is visited once per sweep and changes only when visited), so each restart
proposes its next ``SPECULATION_BATCH`` of them as one pass, and the passes
of all running restarts are stacked into objective calls of at most half of
``BAND_BUDGET`` band entries: the potential, the pmf and the band kernel all
act on the last two axes and give each slice the same floats as an unstacked
call.  Each restart accepts the first of its trials that beats its
incumbent and discards the rest of its pass, and only the trials the serial
loop would have run are counted, so accepted moves, counts and reports
depend neither on the batch size nor on which restarts share a call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .distributions import BivariateDist, _derived, _frozen, _validate_support, prefix_table
from .errors import DomainError, InvalidDistributionError, PreconditionError
from .estimation import _seeds
from .isotonic import MODE_FLOAT, PRODUCT_RTOL
from .orders import _refined_axis
from .tp2 import check_tp2, supermodular_potential

#: names ``kuiper_norm`` accepts; both run the one band kernel
KUIPER_METHODS = ("brute", "kadane")

#: most band entries a block of the norm's kernel holds at once (one row range of
#: the whole stack at least); this bounds its working memory whatever the grid
BAND_BUDGET = 2**16

#: trial moves each restart of the pattern search scores in one stacked pass; larger
#: batches waste the trials after an accept (about 7% of trials are accepted)
SPECULATION_BATCH = 12

#: most pattern-search restarts one projection may run; each costs up to
#: ``max_iters`` sweeps over the refined grid
MAX_RESTARTS = 10**3

#: the pattern search's log-space step sizes, largest first: 0.5, 0.25, ..., 2**-8
STEP_SCHEDULE = tuple(0.5 * 0.5**k for k in range(8))

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
        if xg.ndim != 1 or yg.ndim != 1 or delta.shape != (xg.size, yg.size) or delta.size == 0:
            raise InvalidDistributionError("delta must be nonempty and match the grids in shape")
        _validate_support(xg, "x grid")  # finite and strictly increasing, as a support is
        _validate_support(yg, "y grid")
        kind = delta.dtype.kind  # object entries: ints, Fractions or finite floats
        if not (kind in "iu" or kind == "f" and np.isfinite(delta).all()
                or kind == "O" and all(isinstance(v, (int, Fraction)) and not isinstance(v, bool)
                                       or isinstance(v, float) and np.isfinite(v) for v in delta.flat)):
            raise InvalidDistributionError("delta entries must be finite real numbers")
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


@lru_cache(maxsize=64)
def _folded_ends(m: int) -> np.ndarray:
    """End rows (i + j) mod m of start rows i < m at offsets 1 <= j <= m // 2,
    as an (m, m // 2) index table."""
    return (np.arange(m)[:, None] + np.arange(1, m // 2 + 1)) % m


def _band_norm(delta: np.ndarray):
    """Largest |rectangle sum| of a float or object delta over its last two
    axes; a (k, nx, ny) stack gives k norms.

    The prefix table is copied as (ny+1, nx+1, k): column prefixes first,
    then row prefixes, with the stack as the contiguous inner run, so each row
    range's max - min over the column prefixes reduces across whole slabs (see
    the module docstring).  When the m = nx + 1 row prefixes' folded bands,
    m * (m // 2) row ranges of the whole stack, fit ``BAND_BUDGET``, one
    ``take`` gathers the end row (i + j) mod m of every start row i and
    offset 1 <= j <= m // 2, and one in-place subtraction of the start rows
    turns the gather into bands.  Every pair a < c is scored: as (a, c - a)
    when c - a <= m // 2, else as (c, m - c + a), whose band is the exact
    negation of the true one and so has the same max - min.  Larger tables
    run a loop over blocks of start rows a with all their end rows past a;
    its later start rows also score ranges that end at or before them,
    which give a range's score or 0 the same way.  Blocks, and end-row splits
    of one start row, hold at most ``BAND_BUDGET`` band entries (one range of
    the whole stack at least).  A stacked slice gets the same subtractions as
    the 2-D call on it.
    """
    pref = np.ascontiguousarray(prefix_table(delta).T)  # (ny+1, nx+1) or (ny+1, nx+1, k)
    m = pref.shape[1]
    slab = pref[:, 0].size  # entries of one row range's bands over the stack
    if slab * m * (m // 2) <= BAND_BUDGET:
        band = pref.take(_folded_ends(m), axis=1)  # (ny+1, m, m // 2, ...)
        band -= pref[:, :, None]
        return (band.max(axis=0) - band.min(axis=0)).max(axis=(0, 1))
    nx = m - 1
    best = None
    a = 0
    while a < nx:
        rows = min(nx - a, max(1, BAND_BUDGET // (slab * (nx - a))))
        cols = max(1, BAND_BUDGET // (slab * rows))
        for c in range(a + 1, nx + 1, cols):
            band = pref[:, None, c:c + cols] - pref[:, a:a + rows, None]
            score = (band.max(axis=0) - band.min(axis=0)).max(axis=(0, 1))
            best = score if best is None else np.maximum(best, score)
        a += rows
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
        return float(_band_norm(delta))
    # a stack of one, so that block maxima stay Python objects
    return _band_norm(delta.astype(object)[None])[0]


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
    # a sentinel past the largest float is not finite
    _validate_support(xg, "x_support")
    _validate_support(yg, "y_support")

    def embedded(masses):
        grid = np.zeros((xg.size, yg.size), dtype=masses.dtype)
        grid[1::2, 1::2] = masses
        return grid

    # the total is kept, so the embedded floats are w / total in exact mode too
    return _derived(BivariateDist, (xg, yg), embedded(r.pmf),
                    None if r.weights is None else embedded(r.weights), r.is_probability)


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


def _stack_cap(shape: tuple[int, int]) -> int:
    """Most trials one objective call scores on a grid of this shape: as many
    as half of ``BAND_BUDGET`` band entries hold, and at least 1.  A trial
    takes the m * (m // 2) * (ny + 1) entries of ``_band_norm``'s one pass,
    m = nx + 1, so a stack of at most this many trials runs in that one pass
    wherever a single trial fits the budget."""
    m, ny = shape[0] + 1, shape[1]
    return max(1, BAND_BUDGET // 2 // (m * (m // 2) * (ny + 1)))


def _speculation_batch(shape: tuple[int, int]) -> int:
    """Trials per restart per stacked pass on a grid of this shape:
    ``SPECULATION_BATCH``, capped by ``_stack_cap``.

    Half the budget, because on larger grids a bigger stack stops lowering the
    cost per trial while each batch still wastes the trials after an accept.
    With the folded one-pass kernel (2-vCPU Xeon, numpy 2.4, best of five
    fresh processes), half the budget lost nowhere beyond noise on the grids
    measured: a 23x23 projection took 94 ms with one restart at its 4 trials
    per pass against 92 ms at the full budget's 9, and 0.65 s against 0.84 s
    with four restarts; a 33x33 one took 0.29 s with one restart at 1 trial
    against 0.32 s at 3, and 1.83 s against 2.30 s with four.
    """
    return min(SPECULATION_BATCH, _stack_cap(shape))


def _sweep_trials(cand: _PotentialCandidate, step):
    """A sweep's trial moves in serial order as (parameter index, value) arrays:
    each parameter +step then -step, an ``s`` trial below 0 clamped to 0 and
    skipped when its parameter is already 0."""
    theta = cand.theta
    trial = theta[:, None] + np.array([step, -step])
    clamped = (np.arange(theta.size) >= cand.a.size + cand.b.size)[:, None] & (trial < 0.0)
    keep = ~(clamped & (theta[:, None] == 0.0))
    return np.nonzero(keep)[0], np.where(clamped, 0.0, trial)[keep]


def _search(cand: _PotentialCandidate, steps, sweeps: int, batch: int):
    """One restart's search as a generator: it yields each pass's (k, theta.size)
    stack of trial parameters, is sent their k objective values, and returns
    (best, accepted values, trials the serial loop runs)."""
    theta = cand.theta
    best = float((yield theta[None])[0])
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
            vals = yield stack
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


def _pattern_search(cands: list, objective, steps, sweeps: int, batch: int) -> list:
    """Coordinate pattern search with multiplicative (log-space) steps from each
    candidate, run in lockstep; returns each one's (best, accepted values,
    trials the serial loop runs), in order, and leaves its final parameters in
    the candidate.

    Each search accepts strictly improving moves only, so its accepted values
    are strictly decreasing; the step halves after a sweep with no accepted
    move.  ``objective`` maps a (k, nx, ny) stack of pmfs to k values.

    Each search scores its trials ``batch`` at a time, in the serial order of
    the sweep; the first improving one is taken and the search resumes at the
    next parameter, so its result is the same for every batch size.  One round
    scores the next pass of every running search: the passes are stacked into
    objective calls of at most ``_stack_cap`` trials (a pass is never split),
    and each search reads back its own slice of values.
    """
    cap = _stack_cap((cands[0].a.size, cands[0].b.size)) if cands else 1
    searches = [_search(cand, steps, sweeps, batch) for cand in cands]
    results = [None] * len(cands)
    stacks = {k: next(search) for k, search in enumerate(searches)}  # each running search's pass

    def score(group):
        vals = objective(cands[0].pmf(np.concatenate([stacks[k] for k in group])))
        at = 0
        for k in group:
            size = len(stacks[k])
            try:
                stacks[k] = searches[k].send(vals[at:at + size])
            except StopIteration as done:
                results[k] = done.value
                del stacks[k]
            at += size

    while stacks:
        group, size = [], 0
        for k, stack in list(stacks.items()):
            if group and size + len(stack) > cap:
                score(group)
                group, size = [], 0
            group.append(k)
            size += len(stack)
        score(group)
    return results


def tp2_project(r_hat: BivariateDist, *, seed: int = 42, restarts: int = 8,
                max_iters: int = 20, tol: float = PRODUCT_RTOL) -> ProjectionResult:
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
    batch = _speculation_batch(embedded.shape)

    def objective(pmfs: np.ndarray) -> np.ndarray:
        """Kuiper distances of a (k, nx, ny) stack of pmfs to the target."""
        return _band_norm(pmfs - target)

    px = target.sum(axis=1)
    qy = target.sum(axis=0)
    product = np.outer(px, qy) / target.sum()
    candidates: list[tuple[float, int, np.ndarray, str]] = [
        (float(objective(product[None])[0]), -1, product, "baseline-product")
    ]

    floor = 1e-6  # keeps log() finite when seeding from marginals with zero cells
    cands = []
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
        cands.append(_PotentialCandidate(a, b, s))
    searched = _pattern_search(cands, objective, STEP_SCHEDULE, max_iters, batch)
    best_per_restart = [best for best, _, _ in searched]
    accepted_per_restart = [accepted for _, accepted, _ in searched]
    iters_per_restart = [iters for _, _, iters in searched]
    candidates += [(best, rs, cand.pmf(), f"restart-{rs}")
                   for rs, (cand, best) in enumerate(zip(cands, best_per_restart))]

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
