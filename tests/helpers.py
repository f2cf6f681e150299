"""Shared generators and brute-force oracles for the test suite.

Oracles here are written independently of the library code paths they check:
they enumerate, use exact rational arithmetic, or apply the literal textbook
definition, and their outputs are compared against the library verdicts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from stochorder import BivariateDist, Interval, InvalidDistributionError, UnivariateDist
from stochorder.isotonic import MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL, _cumulative, products_le
from stochorder.orders import _boundaries, _fails, _holds, _merged_masses


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def random_univariate(rng: np.random.Generator, max_atoms: int = 5, integer: bool = False) -> UnivariateDist:
    k = int(rng.integers(1, max_atoms + 1))
    support = np.sort(rng.choice(np.arange(-5.0, 6.0), size=k, replace=False))
    if integer:
        weights = rng.integers(1, 10, size=k).tolist()
        return UnivariateDist.from_weights(support, weights)
    probs = rng.random(k) + 0.05
    return UnivariateDist(support, probs / probs.sum())


def enumerate_weight_dists(support, max_weight: int) -> list[UnivariateDist]:
    """Every integer-weight distribution on the given support (zeros allowed)."""
    out = []
    for weights in itertools.product(range(max_weight + 1), repeat=len(support)):
        if sum(weights) == 0:
            continue
        out.append(UnivariateDist.from_weights(support, weights))
    return out


def lr_pair(rng: np.random.Generator, max_atoms: int = 5) -> tuple[UnivariateDist, UnivariateDist]:
    """A likelihood-ratio ordered pair built from an isotonic factor."""
    q1 = random_univariate(rng, max_atoms)
    factor = np.sort(rng.random(len(q1)) + 0.05)
    boosted = q1.probs * factor
    q2 = UnivariateDist(q1.support, boosted / boosted.sum())
    return q1, q2


def lr_chain(rng: np.random.Generator, max_atoms: int = 5):
    q1, q2 = lr_pair(rng, max_atoms)
    factor = np.sort(rng.random(len(q2)) + 0.05)
    boosted = q2.probs * factor
    q3 = UnivariateDist(q2.support, boosted / boosted.sum())
    return q1, q2, q3


def random_supermodular_tp2(rng: np.random.Generator, nx: int, ny: int) -> BivariateDist:
    """Strictly positive TP2 pmf via an exponentiated supermodular potential."""
    a = rng.normal(0.0, 1.0, nx)
    b = rng.normal(0.0, 1.0, ny)
    s = rng.exponential(0.5, (nx - 1, ny - 1))
    phi = a[:, None] + b[None, :]
    bump = np.zeros((nx, ny))
    bump[1:, 1:] = np.cumsum(np.cumsum(s, axis=0), axis=1)
    phi = phi + bump
    phi -= phi.max()
    pmf = np.exp(phi)
    return BivariateDist(np.arange(1.0, nx + 1), np.arange(1.0, ny + 1), pmf / pmf.sum())


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def fractions(q: UnivariateDist) -> list[Fraction]:
    """Exact normalized masses; requires integer weights."""
    return [Fraction(w, q.total_weight) for w in q.weights]


def exact_lr_oracle(q1: UnivariateDist, q2: UnivariateDist) -> bool:
    """LR order by exact rational ratio monotonicity on the merged support."""
    w1 = dict(zip(q1.support.tolist(), fractions(q1)))
    w2 = dict(zip(q2.support.tolist(), fractions(q2)))
    merged = sorted(set(w1) | set(w2))
    prev = None
    for v in merged:
        a = w1.get(v, Fraction(0))
        b = w2.get(v, Fraction(0))
        if a == 0 and b == 0:
            continue
        # ratio b/a on [0, inf]: encode as (num, den) and compare by cross products
        cur = (b, a)
        if prev is not None:
            pb, pa = prev
            if pb * a > b * pa:
                return False
        prev = cur
    return True


def exact_st_oracle(q1: UnivariateDist, q2: UnivariateDist) -> bool:
    w1 = dict(zip(q1.support.tolist(), fractions(q1)))
    w2 = dict(zip(q2.support.tolist(), fractions(q2)))
    merged = sorted(set(w1) | set(w2))
    s1 = Fraction(1)
    s2 = Fraction(1)
    for v in merged:
        s1 -= w1.get(v, Fraction(0))
        s2 -= w2.get(v, Fraction(0))
        if s1 > s2:
            return False
    return True


def all_triples_concave(points, tol: float = 1e-12) -> bool:
    """Concavity over *all* point triples, not just consecutive ones."""
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                (a1, a2), (b1, b2), (c1, c2) = points[i], points[j], points[k]
                lhs = (c2 - b2) * (b1 - a1)
                rhs = (b2 - a2) * (c1 - b1)
                if lhs > rhs + tol * max(abs(lhs), abs(rhs)):
                    return False
    return True


def literal_minimal_density(mu: UnivariateDist, nu: UnivariateDist, x: float) -> float:
    """sup over left boundaries a < x of nu((a, x]) / mu((a, x]), with 0/0 = 0."""
    bounds = [float(mu.support[0]) - 1.0] + mu.support.tolist()
    best = 0.0
    for a in bounds:
        if a >= x:
            continue
        iv = Interval.open_closed(a, x)
        m = mu.interval_mass(iv)
        n = nu.interval_mass(iv)
        if m > 0:
            best = max(best, n / m)
    return best


def literal_maximal_density(mu: UnivariateDist, nu: UnivariateDist, x: float) -> float:
    """inf over right boundaries b > x of nu([x, b)) / mu([x, b)), with 0/0 = 1."""
    bounds = mu.support.tolist() + [float(mu.support[-1]) + 1.0]
    best = 1.0
    for b in bounds:
        if b <= x:
            continue
        iv = Interval.closed_open(x, b)
        m = mu.interval_mass(iv)
        n = nu.interval_mass(iv)
        if m > 0:
            best = min(best, n / m)
    return best


def measure_pair_with_isotonic_ratio(rng: np.random.Generator, max_atoms: int = 6):
    """(mu, nu) with nu = r * mu for an isotonic ratio r in [0, 1]."""
    k = int(rng.integers(1, max_atoms + 1))
    support = np.sort(rng.choice(np.arange(-8.0, 9.0), size=k, replace=False))
    masses = rng.random(k) + 0.05
    mu = UnivariateDist(support, masses, is_probability=False)
    r = np.sort(rng.random(k))
    nu = UnivariateDist(support, masses * r, is_probability=False)
    return mu, nu, r


def all_rectangles_norm(delta: np.ndarray):
    """Largest |rectangle sum| of a delta, every rectangle materialized.

    The O(L^2 M^2) time and memory expression the float brute Kuiper norm used
    before scoring each row range by its band's range; kept to check that the
    library returns the same float, bit for bit.  On object arrays of Python
    ints or Fractions it computes the exact norm.
    """
    nx, ny = delta.shape
    pref = np.zeros((nx + 1, ny + 1), dtype=delta.dtype)
    np.cumsum(np.cumsum(delta, axis=0), axis=1, out=pref[1:, 1:])
    ii, jj = np.triu_indices(nx + 1, k=1)  # all 0 <= i0 < i1 <= nx
    pp, qq = np.triu_indices(ny + 1, k=1)
    band = pref[jj] - pref[ii]  # (n_rowranges, ny+1): rows [i0, i1) per column prefix
    rect = band[:, qq] - band[:, pp]  # every row-range x column-range combination
    return abs(rect).max()


def _norm_kadane(delta) -> object:
    """Max |rectangle sum| via row-range collapse plus 1-D scans per range.

    The pure-Python O(l^2 m) scan ``kuiper_norm`` ran for the method name
    "kadane" before both names ran the band kernel; kept as an independent
    algorithm to check it against.  Takes nested lists (``delta.tolist()``).
    """
    rows = [list(r) for r in delta]
    nx = len(rows)
    ny = len(rows[0])
    best = 0
    for i0 in range(nx):
        col = [0] * ny
        for i1 in range(i0, nx):
            r = rows[i1]
            for j in range(ny):
                col[j] = col[j] + r[j]
            # max and min subarray sums over col
            cur_max = best_max = col[0]
            cur_min = best_min = col[0]
            for v in col[1:]:
                cur_max = v if cur_max < 0 else cur_max + v
                if cur_max > best_max:
                    best_max = cur_max
                cur_min = v if cur_min > 0 else cur_min + v
                if cur_min < best_min:
                    best_min = cur_min
            cand = max(best_max, -best_min)
            if cand > best:
                best = cand
    return best


def _row_range_prefixes(cells: np.ndarray) -> dict:
    """Column prefixes of every row range: ``out[a, b][j]`` is the mass of
    rows [a, b) in columns [0, j), as Python numbers of the cells' type.

    Each range's column sums are formed before the running total across
    columns, so an empty block has mass exactly 0 in float mode too.  2-D
    inclusion-exclusion on a prefix table can leave a rounding residue there,
    which a product compared against an exact 0 turns into a false violation.
    """
    nx, ny = cells.shape
    rows = np.zeros((nx + 1, ny), dtype=cells.dtype)
    np.cumsum(cells, axis=0, out=rows[1:])
    ii, jj = np.triu_indices(nx + 1, k=1)
    bands = np.zeros((ii.size, ny + 1), dtype=cells.dtype)
    np.cumsum(rows[jj] - rows[ii], axis=1, out=bands[:, 1:])
    return dict(zip(zip(ii.tolist(), jj.tolist()), bands.tolist()))


def all_blocks_st_condition(r: BivariateDist, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL,
                            form: str = "marginal"):
    """Stochastic-order condition on every pair of adjacent x blocks [a, b), [b, c).

    The O(l^3 m) loop ``check_st_condition`` ran before it was reduced to
    consecutive rows; kept to check that the scan gives the same verdicts.
    """
    r = r.canonical()
    nx, ny = r.shape
    pref = _row_range_prefixes(r.cells(mode))
    xcuts = _boundaries(r.x_support)
    ycuts = _boundaries(r.y_support)
    method = f"st-condition:{form}"
    for a in range(nx + 1):
        for b in range(a + 1, nx + 1):
            left = pref[a, b]
            for c in range(b + 1, nx + 1):
                right = pref[b, c]
                for j in range(1, ny):
                    # masses with column index >= j of the left and right blocks
                    up1 = left[ny] - left[j]
                    up2 = right[ny] - right[j]
                    if form == "marginal":
                        lhs = up1 * right[ny]
                        rhs = left[ny] * up2
                    else:
                        lhs = up1 * right[j]
                        rhs = left[j] * up2
                    if not products_le(lhs, rhs, mode, tol):
                        return _fails(method, (xcuts[a], xcuts[b], xcuts[c], ycuts[j]))
    return _holds(method)


def merge_pairs_by_loop(values, masses):
    """Sort atoms and merge duplicates by summing their masses.

    The argsort-and-merge loop ``UnivariateDist.from_pairs`` and
    ``from_weights`` ran before they built their grid with
    ``distributions._atom_grid``; kept to check that both give the same
    atoms and masses.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(masses) != values.size:
        raise InvalidDistributionError("support and masses must have equal length")
    order = np.argsort(values, kind="stable")
    values = values[order]
    merged_v: list[float] = []
    merged_m: list = []
    for v, m in zip(values.tolist(), (masses[i] for i in order.tolist())):
        if merged_v and v == merged_v[-1]:
            merged_m[-1] = merged_m[-1] + m
        else:
            merged_v.append(v)
            merged_m.append(m)
    return merged_v, merged_m


def grid_by_dict(xs, ys, masses, dtype=np.float64):
    """Sorted distinct coordinates and the per-cell mass sums of long-form
    (x, y, mass) triples, through dict lookups and one ``+=`` per triple.

    The loop ``BivariateDist.from_pairs`` (float masses) and the exact
    branch of ``read_bivariate_csv`` (Python ints, ``dtype=object``) ran
    before they built their grid with ``distributions._atom_grid``; kept to
    check that both give the same grid.
    """
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    gx = sorted(set(xs))
    gy = sorted(set(ys))
    ix = {v: i for i, v in enumerate(gx)}
    iy = {v: j for j, v in enumerate(gy)}
    pmf = np.zeros((len(gx), len(gy)), dtype=dtype)
    for x, y, m in zip(xs, ys, masses):
        pmf[ix[x], iy[y]] += m
    return np.array(gx), np.array(gy), pmf


def empirical_by_dict(samples) -> BivariateDist:
    """Empirical distribution of an (n, 2) draw array, counted through
    ``np.unique(axis=0)`` and dict lookups of the distinct coordinates.

    The loop ``estimation.empirical`` ran before it counted per axis with
    ``np.bincount``; kept to check that both give the same distribution.
    """
    pts = np.asarray(samples, dtype=np.float64)
    uniq, counts = np.unique(pts, axis=0, return_counts=True)
    gx = sorted(set(uniq[:, 0].tolist()))
    gy = sorted(set(uniq[:, 1].tolist()))
    ix = {v: i for i, v in enumerate(gx)}
    iy = {v: j for j, v in enumerate(gy)}
    rows = [[0] * len(gy) for _ in gx]
    for (x, y), c in zip(uniq.tolist(), counts.tolist()):
        rows[ix[x]][iy[y]] += int(c)
    return BivariateDist.from_weights(gx, gy, rows)


def allpairs_minors_serial(r: BivariateDist, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL):
    """The all-pairs TP2 check as a serial loop: every row pair, then every
    column pair, one ``products_le`` per 2x2 minor; the witness is the first
    failing minor's (x_i, x_k, y_j, y_l)."""
    r = r.canonical()
    xs, ys = r.x_support.tolist(), r.y_support.tolist()
    h = r.cells(mode).tolist()
    for i, k in itertools.combinations(range(len(xs)), 2):
        g1, g2 = h[i], h[k]
        for j, l in itertools.combinations(range(len(ys)), 2):
            if not products_le(g1[l] * g2[j], g1[j] * g2[l], mode, tol):
                return _fails("tp2:pmf-allpairs", (xs[i], xs[k], ys[j], ys[l]))
    return _holds("tp2:pmf-allpairs")


def pattern_search_serial(cand, objective, steps, sweeps: int):
    """Coordinate pattern search with multiplicative (log-space) steps.

    Accepts strictly improving moves only, so the accepted objective values
    are strictly decreasing; the step halves after a sweep with no accepted
    move.

    The one-trial-at-a-time loop ``kuiper._pattern_search`` ran before it
    scored trials in stacked batches; kept to check that the batched search
    takes the same path.  ``objective`` maps one pmf to a float.
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


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def roc_curve_fractions(q1: UnivariateDist, q2: UnivariateDist):
    """``(points, exact_points)`` of the ROC as built in ``Fraction``
    arithmetic: every survival pair plus both corners, as a sorted set of
    rationals and, separately, of floats; ``exact_points`` is None unless
    both inputs carry integer weights."""
    exact = q1.weights is not None and q2.weights is not None
    _, g1, g2 = _merged_masses(q1, q2, MODE_EXACT if exact else MODE_FLOAT)
    s1 = s2 = g1[0] * 0
    sums = []
    for m1, m2 in zip(g1[::-1], g2[::-1]):
        sums.append((s1, s2))
        s1 += m1
        s2 += m2
    if not exact:
        pts = {(0.0, 0.0), (1.0, 1.0)} | {(_clip01(u), _clip01(v)) for u, v in sums}
        return tuple(sorted(pts)), None
    epts = {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))}
    exact_pts = tuple(sorted(epts | {(Fraction(u, s1), Fraction(v, s2)) for u, v in sums}))
    return tuple(sorted({(float(u), float(v)) for u, v in exact_pts})), exact_pts


def roc_concave_by_triples(pts, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL):
    """ROC concavity as a loop over consecutive triples of ``pts`` (floats,
    or ``Fraction`` pairs in exact mode), one ``products_le`` each."""
    for (a1, a2), (b1, b2), (c1, c2) in zip(pts, pts[1:], pts[2:]):
        if not products_le((c2 - b2) * (b1 - a1), (b2 - a2) * (c1 - b1), mode, tol):
            witness = ((float(a1), float(a2)), (float(b1), float(b2)), (float(c1), float(c2)))
            return _fails("roc:concavity", witness)
    return _holds("roc:concavity")


def odc_curve_fractions(q1: UnivariateDist, q2: UnivariateDist):
    """``(alphas, values, dominated, exact_alphas, exact_values)`` of the
    ordinal dominance curve as built in ``Fraction`` arithmetic; the exact
    views are None unless both inputs carry integer weights."""
    q1, q2 = q1.canonical(), q2.canonical()
    dominated = set(q2.support.tolist()) <= set(q1.support.tolist())
    exact = q1.weights is not None and q2.weights is not None
    mode = MODE_EXACT if exact else MODE_FLOAT
    c1 = _cumulative(q1.masses(mode))
    c2 = _cumulative(q2.masses(mode))
    at = [0] + np.searchsorted(q2.support, q1.support, side="right").tolist()
    exact_a = exact_v = None
    if exact:
        exact_a = tuple(Fraction(c, c1[-1]) for c in c1)
        exact_v = tuple(Fraction(c2[j], c2[-1]) for j in at)
        alphas = [float(a) for a in exact_a]
        values = [float(v) for v in exact_v]
    else:
        alphas = [min(a, 1.0) for a in c1]
        values = [_clip01(c2[j]) for j in at]
    alphas[-1] = 1.0
    ded_a: list[float] = []
    ded_v: list[float] = []
    for a, v in zip(alphas, values):
        if ded_a and a == ded_a[-1]:
            ded_v[-1] = v
        else:
            ded_a.append(a)
            ded_v.append(v)
    return tuple(ded_a), tuple(ded_v), dominated, exact_a, exact_v


def odc_convex_by_triples(alphas, values, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL):
    """ODC convexity as a loop over consecutive (alpha, value) triples, one
    ``products_le`` each; the witness is the triple's three alphas."""
    pts = list(zip(alphas, values))
    for (r, hr), (s, hs), (t, ht) in zip(pts, pts[1:], pts[2:]):
        if not products_le((hs - hr) * (t - s), (ht - hs) * (s - r), mode, tol):
            return _fails("odc:convexity", (float(r), float(s), float(t)))
    return _holds("odc:convexity")


def cell_index_searchsorted(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The inverse-CDF cell lookup as a binary search: the first index i with
    ``cum[i] >= u``."""
    return np.searchsorted(cum, u, side="left")
