"""Shared generators and brute-force oracles for the test suite.

Oracles here are written independently of the library code paths they check:
they enumerate, use exact rational arithmetic, or apply the literal textbook
definition, and their outputs are compared against the library verdicts.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from stochorder import (BivariateDist, DomainError, Interval, InvalidDistributionError, PreconditionError,
                        UnivariateDist)
from stochorder import estimation
from stochorder.distributions import (QUANTILE_ATOL, _atom_grid, _interval_slice,
                                      _weights_from_decimal_strings, prefix_table)
from stochorder.isotonic import MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL, _beyond, _cumulative
from stochorder.orders import _boundaries, _fails, _holds, _merged_masses, _refined_axis
from stochorder.roc import _exact_view
from stochorder.tp2 import kernel_east, kernel_west


def weight_list(d):
    """A distribution's integer weights as (nested) lists, or None in float mode."""
    return None if d.weights is None else d.weights.tolist()


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


def products_le(lhs, rhs, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL) -> bool:
    """lhs <= rhs for nonnegative products, with slack scaled to the products.

    The scalar comparator every verdict ran before each became one
    ``isotonic.first_violation`` pass; the serial oracles here run it once per
    comparison."""
    if mode == MODE_EXACT:
        return lhs <= rhs
    return lhs <= rhs + tol * max(abs(lhs), abs(rhs))


def merged_mass_lists(q1: UnivariateDist, q2: UnivariateDist, mode: str):
    """Merged support of the canonical pair and both mass lists on it, in the
    numbers of the mode."""
    merged, h = _merged_masses(q1, q2, mode)
    return (merged, *h.tolist())


# The serial loops ``check_st``, ``check_lr(..., "ratio")``,
# ``check_tp2(..., "pmf-adjacent")`` and ``check_st_condition`` ran before each
# became one ``first_violation`` pass.  Kept to check that the passes give the
# same verdicts and witnesses.


def st_serial(q1: UnivariateDist, q2: UnivariateDist, mode: str = MODE_FLOAT,
              tol: float = PRODUCT_RTOL):
    """The usual stochastic order as a loop per mode.  Exact mode subtracts
    each atom's mass from the totals, bottom up, and cross-multiplies; the
    witness is the smallest violating threshold.  Float mode accumulates the
    survivals from the top and compares them with the relative slack (the
    loop's absolute slack flipped verdicts on survivals below it); the
    witness is the largest violating threshold."""
    merged, g1, g2 = merged_mass_lists(q1, q2, mode)
    atoms = merged.tolist()
    if mode == MODE_EXACT:
        t1, t2 = sum(g1), sum(g2)
        s1, s2 = t1, t2
        for y, m1, m2 in zip(atoms, g1, g2):
            s1 -= m1
            s2 -= m2
            if not products_le(s1 * t2, s2 * t1, mode, tol):
                return _fails("st", (y,))
        return _holds("st")
    s1 = s2 = 0.0
    for y, m1, m2 in zip(atoms[::-1], g1[::-1], g2[::-1]):
        if not products_le(s1, s2, mode, tol):
            return _fails("st", (y,))
        s1 += m1
        s2 += m2
    return _holds("st")


def lr_ratio_serial(support, g1: list, g2: list, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL):
    """First consecutive pair (a, b) of the atoms positive in g1 or g2 where
    g2[a] * g1[b] <= g1[a] * g2[b] fails, as their labels, if any."""
    pts = [i for i in range(len(support)) if g1[i] > 0 or g2[i] > 0]
    for a, b in zip(pts, pts[1:]):
        if not products_le(g2[a] * g1[b], g1[a] * g2[b], mode, tol):
            return float(support[a]), float(support[b])
    return None


def lr_ratio_check_serial(q1: UnivariateDist, q2: UnivariateDist, mode: str = MODE_FLOAT,
                          tol: float = PRODUCT_RTOL):
    witness = lr_ratio_serial(*merged_mass_lists(q1, q2, mode), mode, tol)
    return _holds("lr:ratio") if witness is None else _fails("lr:ratio", witness)


def boundaries_by_loop(r: BivariateDist, xs) -> tuple[np.ndarray, np.ndarray]:
    """(s_nw, s_se) of ``tp2.boundaries`` at the sorted points ``xs``, one
    point at a time: the running top of the rows at atoms <= x (-inf below
    all atoms) and the running bottom of the rows at atoms >= x (+inf above
    all atoms), on the canonical grid."""
    r = r.canonical()
    atoms, ys = r.x_support, r.y_support
    top = [int(np.flatnonzero(row)[-1]) for row in r.pmf > 0]
    bot = [int(np.flatnonzero(row)[0]) for row in r.pmf > 0]
    run_top = np.maximum.accumulate(top)
    run_bot = np.minimum.accumulate(bot[::-1])[::-1]
    s_nw = np.empty(len(xs))
    s_se = np.empty(len(xs))
    for i, x in enumerate(xs):
        n_le = int(np.searchsorted(atoms, x, side="right"))
        s_nw[i] = float("-inf") if n_le == 0 else float(ys[run_top[n_le - 1]])
        first_ge = int(np.searchsorted(atoms, x, side="left"))
        s_se[i] = float("inf") if first_ge == atoms.size else float(ys[run_bot[first_ge]])
    return s_nw, s_se


def _classify(atoms: np.ndarray, x: float):
    """Locate x relative to the atom grid: ("atom", i), ("gap", i_below) or ("outside", None)."""
    if x < atoms[0] or x > atoms[-1]:
        return ("outside", None)
    i = int(np.searchsorted(atoms, x))
    if i < atoms.size and atoms[i] == x:
        return ("atom", i)
    return ("gap", i - 1)


def row_index_by_classify(atoms: np.ndarray, xs) -> tuple[list, list, list]:
    """(west, east, in range) of ``tp2._row_index``, one point at a time: an
    atom names itself on both sides, a gap the atoms around it; a point below
    all atoms has west -1 and east 0, one above them west ``atoms.size - 1``
    and east ``atoms.size``.  The kernels' per-point loop before one binary
    search per side."""
    west, east, in_range = [], [], []
    for x in xs:
        kind, i = _classify(atoms, x)
        if kind == "outside":
            w, e = (-1, 0) if x < atoms[0] else (atoms.size - 1, atoms.size)
        else:
            w, e = (i, i) if kind == "atom" else (i, i + 1)
        west.append(w)
        east.append(e)
        in_range.append(kind != "outside")
    return west, east, in_range


def tp2_adjacent_serial(r: BivariateDist, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL):
    """The adjacent-row TP2 check as a loop over consecutive rows, each
    through ``lr_ratio_serial``."""
    r = r.canonical()
    xs = r.x_support.tolist()
    h = r.cells(mode).tolist()
    for i in range(len(h) - 1):
        hit = lr_ratio_serial(r.y_support, h[i], h[i + 1], mode, tol)
        if hit is not None:
            return _fails("tp2:pmf-adjacent", (xs[i], xs[i + 1]) + hit)
    return _holds("tp2:pmf-adjacent")


def st_condition_serial(r: BivariateDist, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL,
                        form: str = "marginal"):
    """The stochastic-order condition on consecutive rows as a loop over row
    pairs and y cuts, in the marginal form or the equivalent all-joint
    product form; upper masses are a row's total minus its prefix sums."""
    r = r.canonical()
    ny = r.shape[1]
    cum = [_cumulative(row) for row in r.cells(mode).tolist()]
    xcuts = _boundaries(r.x_support)
    ycuts = _boundaries(r.y_support)
    method = f"st-condition:{form}"
    for i, (left, right) in enumerate(zip(cum, cum[1:])):
        for j in range(1, ny):
            up1 = left[ny] - left[j]
            up2 = right[ny] - right[j]
            if form == "marginal":
                lhs, rhs = up1 * right[ny], left[ny] * up2
            else:
                lhs, rhs = up1 * right[j], left[j] * up2
            if not products_le(lhs, rhs, mode, tol):
                return _fails(method, (xcuts[i], xcuts[i + 1], xcuts[i + 2], ycuts[j]))
    return _holds(method)


def fractions(q: UnivariateDist) -> list[Fraction]:
    """Exact normalized masses; requires integer weights."""
    return [Fraction(w, q.weights.sum()) for w in q.weights]


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
        iv = Interval(x, b, True, False)  # [x, b)
        m = mu.interval_mass(iv)
        n = nu.interval_mass(iv)
        if m > 0:
            best = min(best, n / m)
    return best


def atom_ratios_serial(mu: UnivariateDist, nu: UnivariateDist, mode: str = MODE_FLOAT,
                       tol: float = PRODUCT_RTOL) -> tuple[list, list]:
    """mu's atoms and the ratios nu({x}) / mu({x}) of the isotonic densities,
    atom by atom: the loop the one nu <= mu pass replaced.  Float mode keeps
    its absolute slack ``tol * max(1, mu({x}))`` and its repair of sub-slack
    dips; exact mode compares the ``Fraction`` shares without slack.  Raises
    the library's ``PreconditionError`` at the first atom where nu exceeds mu."""
    mu = mu.canonical()
    exact = mode == MODE_EXACT
    if not exact and float(nu.probs.sum()) == 0.0:
        return mu.support.tolist(), [0.0] * len(mu)
    nu = nu.canonical()
    mu_at, nu_at = ({v: p for v, p in zip(q.support.tolist(), fractions(q) if exact else q.probs.tolist())}
                    for q in (mu, nu))
    for v, p in nu_at.items():
        mp = mu_at.get(v, 0)
        if p > mp + (0 if exact else tol * max(1.0, mp)):
            raise PreconditionError(f"nu exceeds mu at atom {v!r}",
                                    witness=(v, nu.atom_prob(v), mu.atom_prob(v)))
    ratios = [min(1.0, float(nu_at.get(v, 0) / p)) for v, p in mu_at.items()]
    for i in range(1, len(ratios) if not exact else 0):
        if ratios[i] < ratios[i - 1] and ratios[i - 1] - ratios[i] <= tol * max(1.0, ratios[i - 1]):
            ratios[i] = ratios[i - 1]
    return list(mu_at), ratios


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


def row_ranges(shape: tuple[int, int], budget: int = 2**16):
    """Yield the index pairs (ii, jj) of every row range [i0, i1), 0 <= i0 < i1 <= nx, in ``triu_indices``
    order and in chunks whose bands hold at most ``budget`` entries, one chunk's indices at a time."""
    nx, ny = shape
    step = max(1, budget // (ny + 1))
    offsets = np.concatenate(([0], np.cumsum(np.arange(nx, 0, -1))))  # first range of each start row
    total = int(offsets[-1])  # nx (nx + 1) / 2 row ranges
    for k in range(0, total, step):
        flat = np.arange(k, min(k + step, total))
        ii = np.searchsorted(offsets, flat, side="right") - 1
        yield ii, ii + 1 + (flat - offsets[ii])


def band_norm_by_row_ranges(delta: np.ndarray, budget: int = 2**16):
    """Largest |rectangle sum| of a float or object delta over its last two axes;
    a (k, nx, ny) stack gives k norms.

    The kernel ``kuiper._band_norm`` ran before it copied the prefix table with
    its column-prefix axis first: each chunk of ``row_ranges`` gathers its
    ranges' bands of column prefixes with fancy indexing and scores each range
    max - min along the short last axis.  Kept to check that the slab-wise
    kernel gives the same norms, bit for bit.
    """
    pref = prefix_table(delta)
    best = None
    for ii, jj in row_ranges(delta.shape[-2:], budget):
        band = pref[..., jj, :]  # (..., chunk, ny+1): rows [i0, i1) per column prefix
        band -= pref[..., ii, :]
        score = (band.max(axis=-1) - band.min(axis=-1)).max(axis=-1)
        best = score if best is None else np.maximum(best, score)
    return best


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


class _Hashed(io.BufferedReader):
    """A buffered binary file that feeds every byte the text wrapper reads from
    it (through ``read`` and ``read1``) to ``digest``."""

    def __init__(self, raw, digest):
        super().__init__(raw)
        self.digest = digest

    def read(self, size=-1) -> bytes:
        data = super().read(size)
        self.digest.update(data)
        return data

    def read1(self, size=-1) -> bytes:
        data = super().read1(size)
        self.digest.update(data)
        return data


def streamed_text(path, digest, newline: str | None = None) -> io.TextIOWrapper:
    """The UTF-8 text of the file at ``path``, streamed; every byte read is
    fed to ``digest`` (a ``hashlib`` object) when one is given.  The loaders
    read each file in one binary read, hash the bytes and decode them in
    memory; kept to check that they decode, report and hash as a streamed
    read does."""
    raw = open(path, "rb", buffering=0)
    stream = io.BufferedReader(raw) if digest is None else _Hashed(raw, digest)
    return io.TextIOWrapper(stream, encoding="utf-8", newline=newline)


def read_csv_by_rows(cls, path, *, exact: bool = False, digest=None):
    """The ``UnivariateDist`` or ``BivariateDist`` in a CSV file, read as the
    CSV readers read every file before numpy parsed float CSVs: the ``csv``
    module over the streamed text, Python loops over its rows, and one
    ``float()`` per coordinate field, a failure of which is reported as a
    JSON support entry's is.  Kept to check the numpy path and the loop-free
    ``csv`` path against."""
    bivariate = cls is BivariateDist
    header = ("x", "y", "prob") if bivariate else ("value", "prob")
    with streamed_text(path, digest, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or [f.strip() for f in rows[0]] != list(header):
        raise InvalidDistributionError(f"{path}: expected header {','.join(header)!r}")
    if any(len(row) != len(header) for row in rows[1:]):
        raise InvalidDistributionError(f"{path}: every row needs {len(header)} fields")
    *coords, probs = list(zip(*rows[1:])) or [()] * len(header)
    names = ("x_support", "y_support") if bivariate else ("support",)
    for k, (column, name) in enumerate(zip(coords, names)):
        try:
            coords[k] = [float(v) for v in column]
        except ValueError:
            raise InvalidDistributionError(f"{name} values must be numbers") from None
    if not exact:
        return cls.from_pairs(*coords, probs)
    weights = _weights_from_decimal_strings(probs)
    if not bivariate:
        return UnivariateDist.from_weights(*coords, weights)
    (gx, gy), grid = _atom_grid(coords, weights, object)
    return BivariateDist.from_weights(gx, gy, grid.tolist())


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


# The serial interval loops that ``check_lr`` ("intervals", "conditional-st"),
# ``check_tp2(..., "intervals")`` and the isotonic-density precondition ran
# before they became ``isotonic._interval_scan``: interval masses are
# differences of cumulative sums, one ``products_le`` per triple.  Kept to
# check that the scan gives the same exact verdicts and witnesses.


def interval_scan_serial(c1: list, c2: list, mode: str, tol: float):
    """First index triple a < b < c with c1(b,c] * c2(a,b] > c1(a,b] * c2(b,c], if any.

    ``c1`` and ``c2`` are cumulative masses over shared boundaries, so
    ``c[b] - c[a]`` is the mass between boundaries a and b.
    """
    n = len(c1)
    for a in range(n):
        for b in range(a + 1, n):
            m1 = c1[b] - c1[a]
            m2 = c2[b] - c2[a]
            for c in range(b + 1, n):
                if not products_le((c1[c] - c1[b]) * m2, m1 * (c2[c] - c2[b]), mode, tol):
                    return a, b, c
    return None


def lr_intervals_serial(q1, q2, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL):
    merged, g1, g2 = merged_mass_lists(q1, q2, mode)
    hit = interval_scan_serial(_cumulative(g1), _cumulative(g2), mode, tol)
    if hit is None:
        return _holds("lr:intervals")
    cuts = _boundaries(merged)
    return _fails("lr:intervals", tuple(cuts[i] for i in hit))


def conditional_st_scan_serial(g1: list, g2: list, mode: str, tol: float):
    """First cut triple (a, b, t), a < t < b, of the conditional-st loop, if any."""
    c1 = _cumulative(g1)
    c2 = _cumulative(g2)
    n = len(c1)
    for a in range(n):
        for b in range(a + 1, n):
            w1 = c1[b] - c1[a]
            w2 = c2[b] - c2[a]
            if w1 <= 0 or w2 <= 0:
                continue
            for t in range(a + 1, b):
                u1 = c1[b] - c1[t]
                u2 = c2[b] - c2[t]
                # conditional survivals u1/w1 <= u2/w2, cross-multiplied
                if not products_le(u1 * w2, u2 * w1, mode, tol):
                    return a, b, t
    return None


def lr_conditional_st_serial(q1, q2, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL):
    merged, g1, g2 = merged_mass_lists(q1, q2, mode)
    hit = conditional_st_scan_serial(g1, g2, mode, tol)
    if hit is None:
        return _holds("lr:conditional-st")
    cuts = _boundaries(merged)
    return _fails("lr:conditional-st", tuple(cuts[i] for i in hit))


def interval_ratio_condition_serial(mu: UnivariateDist, nu: UnivariateDist, mode: str = MODE_FLOAT,
                                    tol: float = PRODUCT_RTOL):
    """Violating boundary triple x < y < z of mu((y,z]) nu((x,y]) <= mu((x,y]) nu((y,z]), if any."""
    atoms = mu.support.tolist()
    nu_at = dict(zip(nu.support.tolist(), nu.masses(mode).tolist()))
    hit = interval_scan_serial(
        _cumulative(mu.masses(mode).tolist()), _cumulative([nu_at.get(a, 0) for a in atoms]), mode, tol
    )
    bounds = [_beyond(atoms[0], -1.0)] + atoms
    return None if hit is None else tuple(bounds[i] for i in hit)


def tp2_intervals_serial(r: BivariateDist, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL):
    """Every row-block triple a < b < c in ``combinations`` order, each
    through the serial interval loop on the blocks' column sums."""
    r = r.canonical()
    cells = r.cells(mode)
    xcuts = _boundaries(r.x_support)
    ycuts = _boundaries(r.y_support)
    for a, b, c in itertools.combinations(range(r.shape[0] + 1), 3):
        hit = interval_scan_serial(_cumulative(cells[a:b].sum(axis=0).tolist()),
                                   _cumulative(cells[b:c].sum(axis=0).tolist()), mode, tol)
        if hit is not None:
            return _fails("tp2:intervals", (xcuts[a], xcuts[b], xcuts[c])
                          + tuple(ycuts[i] for i in hit))
    return _holds("tp2:intervals")


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
    _, g1, g2 = merged_mass_lists(q1, q2, MODE_EXACT if exact else MODE_FLOAT)
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


def roc_exact_points(curve) -> tuple | None:
    """The curve's integer steps read as rational points, as
    ``roc_curve_fractions`` builds them; None for float steps."""
    u = _exact_view(curve.steps, 0)
    return None if u is None else tuple(zip(u, _exact_view(curve.steps, 1)))


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
    c1 = _cumulative(q1.masses(mode).tolist())
    c2 = _cumulative(q2.masses(mode).tolist())
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


# The rounded-point loops above are the oracles for curves built from their
# points alone; curves built from distributions score the masses between
# consecutive points, which keep tail masses that a difference of rounded
# points near a corner loses.


def first_bend_serial(dx, dy, s1, s2, mode: str = MODE_FLOAT, tol: float = PRODUCT_RTOL):
    """First k whose steps k, k+1 fail ``products_le`` on
    dy[k+1]*dx[k] <= dy[k]*dx[k+1], as a loop; float mode reads w / total."""
    if mode != MODE_EXACT:
        dx, dy = [w / s1 for w in dx], [w / s2 for w in dy]
    for k in range(len(dx) - 1):
        if not products_le(dy[k + 1] * dx[k], dy[k] * dx[k + 1], mode, tol):
            return k
    return None


def _points_before_merging(steps, total) -> list[float]:
    """Running sums of the steps over the total, clipped to [0, 1], then 1.0."""
    out, acc = [], steps[0] * 0
    for w in steps:
        out.append(_clip01(acc / total))
        acc += w
    return out + [1.0]


def _pair_masses(q1: UnivariateDist, q2: UnivariateDist):
    """The pair's mode (exact only if both carry integer weights) and the
    totals its masses are read over: the weight sums, or 1.0 for floats."""
    if q1.weights is not None and q2.weights is not None:
        return MODE_EXACT, q1.weights.sum(), q2.weights.sum()
    return MODE_FLOAT, 1.0, 1.0


def roc_concave_by_steps(q1: UnivariateDist, q2: UnivariateDist, mode: str = MODE_FLOAT,
                         tol: float = PRODUCT_RTOL):
    """ROC concavity as a loop over consecutive pairs of each merged atom's
    (q1, q2) masses, taken from the top; the witness is the three points
    around the failing pair before equal points are merged."""
    pair_mode, s1, s2 = _pair_masses(q1, q2)
    _, g1, g2 = merged_mass_lists(q1, q2, pair_mode)
    dx, dy = g1[::-1], g2[::-1]
    k = first_bend_serial(dx, dy, s1, s2, mode, tol)
    if k is None:
        return _holds("roc:concavity")
    pts = list(zip(_points_before_merging(dx, s1), _points_before_merging(dy, s2)))
    return _fails("roc:concavity", tuple(pts[k:k + 3]))


def odc_convex_by_steps(q1: UnivariateDist, q2: UnivariateDist, mode: str = MODE_FLOAT,
                        tol: float = PRODUCT_RTOL):
    """ODC convexity as a loop over consecutive pairs of steps: each q1 atom's
    mass and the q2 mass in (previous q1 atom, q1 atom], summed atom by atom;
    the witness is three alphas before equal levels are merged."""
    q1, q2 = q1.canonical(), q2.canonical()
    pair_mode, s1, s2 = _pair_masses(q1, q2)
    m1, m2 = q1.masses(pair_mode).tolist(), q2.masses(pair_mode).tolist()
    dv, below = [], -np.inf
    for x in q1.support.tolist():
        acc = m1[0] * 0
        for y, m in zip(q2.support.tolist(), m2):
            if below < y <= x:
                acc += m
        dv.append(acc)
        below = x
    k = first_bend_serial(dv, m1, s2, s1, mode, tol)
    if k is None:
        return _holds("odc:convexity")
    return _fails("odc:convexity", tuple(_points_before_merging(m1, s1)[k:k + 3]))


def cell_index_searchsorted(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The inverse-CDF cell lookup as a binary search: the first index i with
    ``cum[i] >= u``."""
    return np.searchsorted(cum, u, side="left")


def empirical_of_counts(x_support: np.ndarray, y_support: np.ndarray, counts: np.ndarray) -> BivariateDist:
    """The integer-weight empirical distribution of a grid of draw counts: the
    rows and columns without draws are dropped."""
    rows, cols = counts.any(axis=1), counts.any(axis=0)
    return BivariateDist.from_weights(
        x_support[rows], y_support[cols], counts[np.ix_(rows, cols)].tolist()
    )


def cell_index_by_guide(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each u in [0, 1), the first index i with ``cum[i] >= u``, through
    a guide table of K = ``cum.size`` buckets floor(u·K) over all n draws at
    once: the stream's lookup before it drew in blocks through a table of up
    to 8 buckets per cell.

    ``guide[b]`` counts the entries with floor(cum·K) < b, so the answer
    lies in ``[guide[b], guide[b + 1]]``.  Every draw is checked against the
    start of its bucket and one cell past it; the rest bisect what is left.
    """
    k = cum.size
    guide = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(np.bincount((cum * k).astype(np.intp), minlength=k + 1)[:k], out=guide[1:])
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


def draw_cells_at_once(r: BivariateDist, n: int, seed) -> tuple[BivariateDist, np.ndarray]:
    """The canonical ``r`` and all n flat cell indices of its seeded stream,
    from one ``random(n)`` call: the stream before it drew in blocks."""
    r = r.canonical()
    cum = np.cumsum(r.pmf.reshape(-1))
    u = estimation._philox(seed).random(n)
    np.maximum(u, np.nextafter(0.0, 1.0), out=u)
    return r, cell_index_by_guide(cum / cum[-1], u)


def sample_at_once(r: BivariateDist, n: int, seed) -> np.ndarray:
    """``sample`` from the one-shot stream: (x, y) of every drawn cell."""
    r, idx = draw_cells_at_once(r, n, seed)
    i, j = np.divmod(idx, r.shape[1])
    return np.column_stack([r.x_support[i], r.y_support[j]])


def count_grid_at_once(r: BivariateDist, n: int, seed) -> tuple[BivariateDist, np.ndarray]:
    """``count_grid`` from the one-shot stream: one ``bincount``."""
    r, idx = draw_cells_at_once(r, n, seed)
    return r, np.bincount(idx, minlength=r.pmf.size).reshape(r.shape)


def count_grid(r: BivariateDist, n: int, seed) -> tuple[BivariateDist, np.ndarray]:
    """The canonical ``r`` and the draws per cell of its grid of n draws
    from the seed's stream, as a harness counts them."""
    streams = estimation._CellStreams(r)
    return streams.r, streams.counts(n, seed)


def sample_counts(r: BivariateDist, n: int, seed) -> BivariateDist:
    """``empirical(sample(r, n, seed))``, counted per cell without the draws:
    the convergence harnesses' sample before they read quantiles from the
    count grid."""
    r, counts = count_grid(r, n, seed)
    return empirical_of_counts(r.x_support, r.y_support, counts)


def west_quantiles_by_kernel(r: BivariateDist, xs, beta: float, east: bool = False) -> tuple[list, list]:
    """The minimal and the maximal beta-quantile of each row of
    ``kernel_west(r, xs)`` (``kernel_east`` when ``east``): one
    ``UnivariateDist`` per point, the path of the harnesses and of
    ``quantile_curve`` before they read quantiles from the grid."""
    rows = (kernel_east if east else kernel_west)(r, xs).rows
    return [row.quantile(beta) for row in rows], [max_quantile(row, beta) for row in rows]


def max_quantile(q: UnivariateDist, beta: float) -> float:
    """max{y : mass strictly below y <= beta}, with the absolute slack
    ``QUANTILE_ATOL``: the atom after the last whose cumulative mass is at
    most beta + slack, or the last atom when there is none after it."""
    i = int(np.searchsorted(np.cumsum(q.probs), beta + QUANTILE_ATOL, side="right"))
    return float(q.support[min(i, len(q) - 1)])


def rect_prob(r: BivariateDist, ix: Interval, iy: Interval) -> float:
    """Mass of the rectangle ix x iy, summed over its cell block (an empty
    block is 0.0)."""
    lo_i, hi_i = _interval_slice(r.x_support, ix)
    lo_j, hi_j = _interval_slice(r.y_support, iy)
    return float(r.pmf[lo_i:hi_i, lo_j:hi_j].sum())


# ---------------------------------------------------------------------------
# per-mode distribution builders
# ---------------------------------------------------------------------------
# The bodies that branched on ``weights is None`` before each class read its
# masses through ``masses(mode)`` / ``cells(mode)`` and built on one
# ``_on_sorted`` path; kept to check that the one path gives the same bytes.


def _on_sorted_weights(support, weights, is_probability: bool = True) -> UnivariateDist:
    total = sum(weights)
    return UnivariateDist(support, [w / total for w in weights], tuple(weights), is_probability)


def canonical_by_mode(q: UnivariateDist) -> UnivariateDist:
    if q.weights is not None:
        keep = [i for i, w in enumerate(q.weights) if w > 0]
        if len(keep) == len(q.weights):
            return q
        return UnivariateDist(q.support[keep], q.probs[keep], tuple(q.weights[i] for i in keep),
                              q.is_probability)
    keep = q.probs > 0
    if bool(keep.all()):
        return q
    if not keep.any():
        raise InvalidDistributionError("no positive mass left after canonicalization")
    return UnivariateDist(q.support[keep], q.probs[keep], None, q.is_probability)


def drop_empty_atoms_by_mode(r: BivariateDist) -> BivariateDist:
    if r.weights is not None:
        rows = [i for i, row in enumerate(r.weights) if sum(row) > 0]
        cols = [j for j in range(r.shape[1]) if sum(row[j] for row in r.weights) > 0]
        if len(rows) == r.shape[0] and len(cols) == r.shape[1]:
            return r
        ws = tuple(tuple(r.weights[i][j] for j in cols) for i in rows)
        return BivariateDist(r.x_support[rows], r.y_support[cols], r.pmf[np.ix_(rows, cols)], ws,
                             r.is_probability)
    rows = r.pmf.sum(axis=1) > 0
    cols = r.pmf.sum(axis=0) > 0
    if bool(rows.all()) and bool(cols.all()):
        return r
    if not rows.any():
        raise InvalidDistributionError("no positive mass left after canonicalization")
    return BivariateDist(r.x_support[rows], r.y_support[cols],
                         r.pmf[np.ix_(np.flatnonzero(rows), np.flatnonzero(cols))],
                         None, r.is_probability)


def marginal_x_by_mode(r: BivariateDist) -> UnivariateDist:
    if r.weights is not None:
        return canonical_by_mode(
            _on_sorted_weights(r.x_support, [sum(row) for row in r.weights], r.is_probability))
    return canonical_by_mode(UnivariateDist(r.x_support, r.pmf.sum(axis=1), None, r.is_probability))


def marginal_y_by_mode(r: BivariateDist) -> UnivariateDist:
    if r.weights is not None:
        cols = [sum(row[j] for row in r.weights) for j in range(r.shape[1])]
        return canonical_by_mode(_on_sorted_weights(r.y_support, cols, r.is_probability))
    return canonical_by_mode(UnivariateDist(r.y_support, r.pmf.sum(axis=0), None, r.is_probability))


def conditional_row_by_mode(r: BivariateDist, i: int) -> UnivariateDist:
    """The conditional distribution of the second coordinate at the i-th x-atom."""
    row = r.pmf[i]
    mass = float(row.sum())
    if mass <= 0.0:
        raise DomainError(f"first-marginal atom {r.x_support[i]!r} has zero mass")
    if r.weights is not None:
        return canonical_by_mode(_on_sorted_weights(r.y_support, r.weights[i]))
    return canonical_by_mode(UnivariateDist(r.y_support, row / mass))


def refine_grid_by_mode(r: BivariateDist) -> BivariateDist:
    r = drop_empty_atoms_by_mode(r)
    xg = np.array(_refined_axis(r.x_support))
    yg = np.array(_refined_axis(r.y_support))
    pmf = np.zeros((xg.size, yg.size))
    pmf[1::2, 1::2] = r.pmf
    weights = None
    if r.weights is not None:
        weights = np.zeros(pmf.shape, dtype=object)
        weights[1::2, 1::2] = np.array(r.weights, dtype=object)
        weights = weights.tolist()
    return BivariateDist(xg, yg, pmf, weights, r.is_probability)


def truncate_by_mode(q: UnivariateDist, iv: Interval) -> UnivariateDist:
    q = canonical_by_mode(q)
    lo, hi = _interval_slice(q.support, iv)
    if lo == hi:
        raise DomainError(f"interval {iv} carries zero mass")
    probs = q.probs[lo:hi]
    mass = float(probs.sum())
    if mass <= 0.0:
        raise DomainError(f"interval {iv} carries zero mass")
    weights = None if q.weights is None else q.weights[lo:hi]
    return UnivariateDist(q.support[lo:hi], probs / mass, weights)


def _inf_as_text(obj):
    """``obj`` with every float ±inf replaced by the string "inf" / "-inf"."""
    if isinstance(obj, dict):
        return {k: _inf_as_text(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_inf_as_text(v) for v in obj]
    return str(obj) if isinstance(obj, float) and math.isinf(obj) else obj


def json_text_by_dumps(payload) -> str:
    """Standard JSON with ±inf as the strings "inf" / "-inf"; a NaN fails ``allow_nan`` (exit 2)."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        return json.dumps(_inf_as_text(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
