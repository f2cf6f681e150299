"""Every verdict's one array pass against the serial loop it replaced.

``check_tp2(..., "pmf-allpairs")`` and ``check_lr(..., "pairwise")`` score
the 2x2 minors, and ``check_lr(..., "intervals")``, ``"conditional-st"``,
``check_tp2(..., "intervals")`` and the isotonic-density precondition score
adjacent-interval triples, all through ``isotonic._scan``.  ``check_st``,
``check_lr(..., "ratio")``, ``check_tp2(..., "pmf-adjacent")`` and
``check_st_condition`` are one ``isotonic.first_violation`` pass each.  Exact
verdicts and witnesses must equal those of the serial loops in ``helpers``
(one ``products_le`` per comparison, in loop order), for weights on both
sides of the int64 limit and at chunk budgets small enough that every input
is split into passes.  Float minors and the float consecutive-row passes must
match too.  Float interval verdicts sum their masses directly where the loops
subtracted cumulative sums, so where they differ from the loops they must
agree with the exact verdict on the floats' exact values, and they must hold
wherever it holds.
"""

import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (BivariateDist, DomainError, UnivariateDist, check_lr, check_st, check_st_condition,
                        check_tp2, kernel_new, odc_curve, odc_is_convex, roc_curve, roc_is_concave)
from stochorder import isotonic
from stochorder.isotonic import INT64_FACTOR_MAX, MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL, _pairs
from stochorder.isotonic import _interval_ratio_condition, _triples, scan_dtype
from stochorder.orders import LR_METHODS
from stochorder.tp2 import TP2_METHODS

from stochorder.isotonic import _cumulative

from helpers import (allpairs_minors_serial, conditional_st_scan_serial,
                     interval_ratio_condition_serial, interval_scan_serial,
                     lr_conditional_st_serial, lr_intervals_serial, lr_ratio_check_serial,
                     merged_mass_lists, st_condition_serial, st_serial, tp2_adjacent_serial,
                     tp2_intervals_serial)

#: budgets that split even tiny grids into several passes and split one row
#: pair's column pairs into slices, plus the default
BUDGETS = st.sampled_from([1, 2, 3, 5, 16, isotonic.MINOR_BUDGET])
TOLS = st.sampled_from([0.0, 1e-16, PRODUCT_RTOL])

#: weights on both sides of the largest factor whose products fit in int64
BIG_WEIGHTS = st.sampled_from([INT64_FACTOR_MAX - 1, INT64_FACTOR_MAX, INT64_FACTOR_MAX + 1,
                               2**62, 2**63, 10**30])


def verdict(v):
    return v.holds, v.method, v.witness


@st.composite
def float_grids(draw):
    """Float grids, many with zero rows and columns or near-rank-one blocks
    whose minors tie within a few ulps."""
    l, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "rank-one", "nudged"]))
    if kind == "random":
        cells = st.one_of(st.just(0.0), st.floats(1e-300, 1e3), st.integers(0, 4).map(float))
        pmf = np.array(draw(st.lists(cells, min_size=l * m, max_size=l * m)), dtype=float)
        pmf = pmf.reshape(l, m)
    else:
        a = np.array(draw(st.lists(st.floats(0.01, 100), min_size=l, max_size=l)))
        b = np.array(draw(st.lists(st.floats(0.01, 100), min_size=m, max_size=m)))
        pmf = np.outer(a, b)
        if kind == "nudged":
            i, j = draw(st.integers(0, l - 1)), draw(st.integers(0, m - 1))
            ulps = draw(st.sampled_from([-2, -1, 1, 2]))
            pmf[i, j] = np.nextafter(pmf[i, j], np.inf if ulps > 0 else 0.0)
            if abs(ulps) == 2:
                pmf[i, j] = np.nextafter(pmf[i, j], np.inf if ulps > 0 else 0.0)
    zero_rows = draw(st.lists(st.integers(0, l - 1), max_size=2))
    zero_cols = draw(st.lists(st.integers(0, m - 1), max_size=2))
    pmf[zero_rows, :] = 0.0
    pmf[:, zero_cols] = 0.0
    if not pmf.sum() > 0:
        pmf[0, 0] = 1.0
    return BivariateDist(np.arange(l) - 0.5, np.arange(m) * 2.0, pmf, is_probability=False)


@st.composite
def weight_grids(draw):
    """Integer-weight grids; some hold weights beyond the int64 factor limit,
    so the scan runs on Python ints."""
    l, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.one_of(st.integers(0, 5), BIG_WEIGHTS) if draw(st.booleans()) else st.integers(0, 5)
    w = draw(st.lists(cells, min_size=l * m, max_size=l * m).filter(any))
    rows = [w[i * m:(i + 1) * m] for i in range(l)]
    return BivariateDist.from_weights(np.arange(l) * 1.0, np.arange(m) * 0.5, rows)


@st.composite
def univariate_pairs(draw, exact: bool):
    """Pairs with overlapping, nested or disjoint supports."""
    def one(lo: int):
        atoms = draw(st.lists(st.integers(lo, lo + 8), min_size=1, max_size=7, unique=True))
        if exact:
            ws = draw(st.lists(st.one_of(st.integers(0, 6), BIG_WEIGHTS),
                               min_size=len(atoms), max_size=len(atoms)).filter(any))
            return UnivariateDist.from_weights([float(a) for a in atoms], ws)
        ps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                           min_size=len(atoms), max_size=len(atoms)).filter(any))
        return UnivariateDist.from_pairs([float(a) for a in atoms], ps, is_probability=False)
    disjoint = draw(st.booleans())
    return one(0), one(9 if disjoint else draw(st.integers(-4, 4)))


def two_row_grid(q1, q2, mode) -> BivariateDist:
    """The pair's masses on their merged support as a 2-row grid."""
    merged, g1, g2 = merged_mass_lists(q1, q2, mode)
    if mode == MODE_EXACT:
        return BivariateDist.from_weights([0.0, 1.0], merged, [g1, g2])
    return BivariateDist([0.0, 1.0], merged, [g1, g2], is_probability=False)


class TestScanEqualsSerialLoop:
    @given(float_grids(), TOLS, BUDGETS)
    @settings(max_examples=400, deadline=None)
    def test_float_grids(self, r, tol, budget):
        with mock.patch.object(isotonic, "MINOR_BUDGET", budget):
            got = check_tp2(r, "pmf-allpairs", MODE_FLOAT, tol)
        assert verdict(got) == verdict(allpairs_minors_serial(r, MODE_FLOAT, tol))

    @given(weight_grids(), BUDGETS)
    @settings(max_examples=300, deadline=None)
    def test_exact_grids(self, r, budget):
        with mock.patch.object(isotonic, "MINOR_BUDGET", budget):
            got = check_tp2(r, "pmf-allpairs", MODE_EXACT)
        assert verdict(got) == verdict(allpairs_minors_serial(r, MODE_EXACT))

    @given(st.booleans(), st.data(), TOLS, BUDGETS)
    @settings(max_examples=300, deadline=None)
    def test_univariate_pairs(self, exact, data, tol, budget):
        q1, q2 = data.draw(univariate_pairs(exact))
        mode = MODE_EXACT if exact else MODE_FLOAT
        with mock.patch.object(isotonic, "MINOR_BUDGET", budget):
            got = check_lr(q1, q2, "pairwise", mode, tol)
        want = allpairs_minors_serial(two_row_grid(q1, q2, mode), mode, tol)
        assert got.holds == want.holds
        assert got.witness == (None if want.holds else want.witness[2:])
        if exact:
            assert got.holds == check_lr(q1, q2, "ratio", mode).holds

    def test_near_limit_products_stay_exact(self):
        """At the int64 limit, minors that differ by one still decide."""
        big = INT64_FACTOR_MAX
        for top in (big, big + 1):
            # minor top*(top-2) - (top-1)^2 = -1 fails; (top-1)^2 - top*(top-2) = 1 holds
            r = BivariateDist.from_weights([0.0, 1.0], [0.0, 1.0],
                                           [[top, top - 1], [top - 1, top - 2]])
            assert check_tp2(r, "pmf-allpairs", MODE_EXACT).witness == (0.0, 1.0, 0.0, 1.0)
            holding = BivariateDist.from_weights([0.0, 1.0], [0.0, 1.0],
                                                 [[top - 1, top - 2], [top, top - 1]])
            assert check_tp2(holding, "pmf-allpairs", MODE_EXACT).holds

    def test_degenerate_shapes_hold(self):
        for rows in ([[1, 2, 3]], [[1], [2], [3]], [[5]]):
            r = BivariateDist.from_weights(range(len(rows)), range(len(rows[0])), rows)
            for mode in (MODE_FLOAT, MODE_EXACT):
                assert check_tp2(r, "pmf-allpairs", mode).holds


class TestPassEqualsSerialLoop:
    """The consecutive-row passes and ``check_st`` decide every comparison of
    their loops with the same operations, so verdicts and witnesses match in
    both modes: zero cells and columns, rank-one grids whose products tie
    within a few ulps, exact ties, and weights on both sides of the int64 limit."""

    @given(float_grids(), TOLS)
    @settings(max_examples=400, deadline=None)
    def test_float_grids(self, r, tol):
        assert (verdict(check_tp2(r, "pmf-adjacent", MODE_FLOAT, tol))
                == verdict(tp2_adjacent_serial(r, MODE_FLOAT, tol)))
        assert (verdict(check_st_condition(r, MODE_FLOAT, tol))
                == verdict(st_condition_serial(r, MODE_FLOAT, tol)))

    @given(weight_grids())
    @settings(max_examples=400, deadline=None)
    def test_exact_grids(self, r):
        assert verdict(check_tp2(r, "pmf-adjacent", MODE_EXACT)) == verdict(tp2_adjacent_serial(r, MODE_EXACT))
        assert verdict(check_st_condition(r, MODE_EXACT)) == verdict(st_condition_serial(r, MODE_EXACT))

    @given(st.booleans(), st.data(), TOLS)
    @settings(max_examples=400, deadline=None)
    def test_univariate_pairs(self, exact, data, tol):
        q1, q2 = data.draw(univariate_pairs(exact))
        mode = MODE_EXACT if exact else MODE_FLOAT
        for a, b in ((q1, q2), (q2, q1), (q1, q1)):  # (q1, q1) ties at every threshold
            assert verdict(check_st(a, b, mode, tol)) == verdict(st_serial(a, b, mode, tol))
            assert verdict(check_lr(a, b, "ratio", mode, tol)) == verdict(lr_ratio_check_serial(a, b, mode, tol))

    def test_products_on_both_sides_of_the_int64_limit(self):
        # a bound at the limit runs on int64, one above it on Python ints;
        # products near 2**126 that wrap in int64 would flip these verdicts
        assert scan_dtype(MODE_EXACT, INT64_FACTOR_MAX) is np.int64
        assert scan_dtype(MODE_EXACT, INT64_FACTOR_MAX + 1) is object
        assert scan_dtype(MODE_FLOAT, 10**30) is np.float64
        for big in (INT64_FACTOR_MAX - 1, INT64_FACTOR_MAX, 2**62, 10**30):
            for w in ([[big, 1], [1, big]], [[1, big], [big, 1]], [[big, 0, 1], [0, big, 0]]):
                r = BivariateDist.from_weights(range(2), range(len(w[0])), w, is_probability=False)
                assert verdict(check_tp2(r, "pmf-adjacent", MODE_EXACT)) == verdict(
                    tp2_adjacent_serial(r, MODE_EXACT))
                assert verdict(check_st_condition(r, MODE_EXACT)) == verdict(
                    st_condition_serial(r, MODE_EXACT))
                q1, q2 = (UnivariateDist.from_weights([0.0, 1.0, 2.0][:len(row)], row,
                                                      is_probability=False) for row in w)
                for a, b in ((q1, q2), (q2, q1)):
                    assert verdict(check_st(a, b, MODE_EXACT)) == verdict(st_serial(a, b, MODE_EXACT))
                    assert verdict(check_lr(a, b, "ratio", MODE_EXACT)) == verdict(
                        lr_ratio_check_serial(a, b, MODE_EXACT))


def on_exact_values(q: UnivariateDist) -> UnivariateDist:
    """The same atoms with integer weights in the ratio of the float masses' exact values."""
    masses = [Fraction(p) for p in q.probs.tolist()]
    scale = max(m.denominator for m in masses)
    return UnivariateDist.from_weights(q.support, [int(m * scale) for m in masses],
                                       is_probability=False)


def grid_on_exact_values(r: BivariateDist) -> BivariateDist:
    masses = [[Fraction(p) for p in row] for row in r.pmf.tolist()]
    scale = max(m.denominator for row in masses for m in row)
    return BivariateDist.from_weights(r.x_support, r.y_support,
                                      [[int(m * scale) for m in row] for row in masses],
                                      is_probability=False)


def exact_holds(scan, *masses):
    """Whether the serial ``scan`` holds on exact (``Fraction``) masses, or None
    where it holds within the package slack but fails without it: there the
    floats tie within their slack, and either float verdict is right."""
    strict = scan(*masses, MODE_EXACT, 0) is None
    return strict if strict == (scan(*masses, MODE_FLOAT, PRODUCT_RTOL) is None) else None


def interval_blocks_serial(rows, mode, tol):
    """The serial interval loop over every row-block triple of ``rows``."""
    for a, b, c in itertools.combinations(range(len(rows) + 1), 3):
        lo, hi = ([sum(col) for col in zip(*rows[i:j])] for i, j in ((a, b), (b, c)))
        if interval_scan_serial(_cumulative(lo), _cumulative(hi), mode, tol) is not None:
            return a, b, c
    return None


def pair_intervals_serial(g1, g2, mode, tol):
    return interval_scan_serial(_cumulative(g1), _cumulative(g2), mode, tol)


def tilted_pair(n: int, width: float, tilt: float):
    """q1 ~ exp(-width (s - n/2)^2) and q2 ~ q1 exp(tilt s) on s = 0..n-1: q2/q1 increases."""
    s = np.arange(float(n))
    q1 = np.exp(-width * (s - n / 2) ** 2)
    q2 = q1 * np.exp(tilt * s)
    return UnivariateDist(s, q1 / q1.sum()), UnivariateDist(s, q2 / q2.sum())


def gaussian_kernel(n: int, width: float) -> BivariateDist:
    """pmf ~ exp(-width (x - y)^2) on an n x n grid: TP2 in exact arithmetic."""
    x = np.arange(float(n))
    pmf = np.exp(-width * (x[:, None] - x[None, :]) ** 2)
    return BivariateDist(x, x, pmf / pmf.sum())


@st.composite
def exact_measures(draw):
    """(mu, nu) integer-weight measures, nu with atoms off mu's support too."""
    atoms = draw(st.lists(st.integers(0, 9), min_size=1, max_size=8, unique=True))
    weights = st.one_of(st.integers(0, 6), BIG_WEIGHTS)
    mu_w = draw(st.lists(weights, min_size=len(atoms), max_size=len(atoms)).filter(any))
    nu_atoms = draw(st.lists(st.integers(0, 9), min_size=1, max_size=8, unique=True))
    nu_w = draw(st.lists(weights, min_size=len(nu_atoms), max_size=len(nu_atoms)).filter(any))
    return (UnivariateDist.from_weights([float(a) for a in atoms], mu_w, is_probability=False),
            UnivariateDist.from_weights([float(a) for a in nu_atoms], nu_w, is_probability=False))


class TestIntervalScanEqualsSerialLoops:
    @given(weight_grids(), BUDGETS)
    @settings(max_examples=300, deadline=None)
    def test_exact_grids(self, r, budget):
        with mock.patch.object(isotonic, "MINOR_BUDGET", budget):
            got = check_tp2(r, "intervals", MODE_EXACT)
        assert verdict(got) == verdict(tp2_intervals_serial(r, MODE_EXACT))

    @given(univariate_pairs(exact=True), BUDGETS)
    @settings(max_examples=300, deadline=None)
    def test_exact_pairs(self, pair, budget):
        q1, q2 = pair
        with mock.patch.object(isotonic, "MINOR_BUDGET", budget):
            got = [check_lr(q1, q2, m, MODE_EXACT) for m in ("intervals", "conditional-st")]
        want = [lr_intervals_serial(q1, q2, MODE_EXACT), lr_conditional_st_serial(q1, q2, MODE_EXACT)]
        assert [verdict(v) for v in got] == [verdict(v) for v in want]
        assert got[0].holds == check_lr(q1, q2, "ratio", MODE_EXACT).holds

    @given(exact_measures(), BUDGETS)
    @settings(max_examples=200, deadline=None)
    def test_exact_isotonic_precondition(self, measures, budget):
        mu, nu = (q.canonical() for q in measures)
        atoms = mu.support.tolist()
        nu_at = dict(zip(nu.support.tolist(), nu.weights))  # nu's atoms off mu's support drop out
        h = np.array([mu.weights, [nu_at.get(a, 0) for a in atoms]], dtype=object)
        with mock.patch.object(isotonic, "MINOR_BUDGET", budget):
            got = _interval_ratio_condition(atoms, h, MODE_EXACT, 0.0)
        assert got == interval_ratio_condition_serial(mu, nu, MODE_EXACT, 0.0)

    # With a slack below the rounding error of a mass, the float scans cannot
    # resolve ulp-level ties either way, so these run at the package slack.

    @given(float_grids(), BUDGETS)
    @settings(max_examples=300, deadline=None)
    def test_float_grids_differ_only_toward_the_exact_verdict(self, r, budget):
        with mock.patch.object(isotonic, "MINOR_BUDGET", budget):
            got = check_tp2(r, "intervals", MODE_FLOAT)
        if verdict(got) != verdict(tp2_intervals_serial(r, MODE_FLOAT)):
            rows = [[Fraction(m) for m in row] for row in r.canonical().pmf.tolist()]
            exact = exact_holds(interval_blocks_serial, rows)
            assert exact is None or got.holds == exact

    @given(univariate_pairs(exact=False), BUDGETS)
    @settings(max_examples=300, deadline=None)
    def test_float_pairs_differ_only_toward_the_exact_verdict(self, pair, budget):
        q1, q2 = pair
        _, g1, g2 = merged_mass_lists(q1, q2, MODE_FLOAT)
        for method, serial, scan in (("intervals", lr_intervals_serial, pair_intervals_serial),
                                     ("conditional-st", lr_conditional_st_serial,
                                      conditional_st_scan_serial)):
            with mock.patch.object(isotonic, "MINOR_BUDGET", budget):
                got = check_lr(q1, q2, method, MODE_FLOAT)
            if verdict(got) != verdict(serial(q1, q2, MODE_FLOAT)):
                exact = exact_holds(scan, *([Fraction(m) for m in g] for g in (g1, g2)))
                assert exact is None or got.holds == exact

    def test_conditional_st_scans_the_interval_triples_in_loop_order(self):
        for n in range(8):
            loop = [(a, b, t) for a in range(n) for b in range(a + 1, n) for t in range(a + 1, b)]
            labels = _triples(n, 0, len(loop), True)[0]
            assert [tuple(t) for t in labels.T.tolist()] == loop


class TestFloatVerdictsHoldWhereExactHolds:
    """Direct sums keep every float mass within about n*eps of its exact
    value, so the product slack absorbs the error up to a few hundred atoms
    (about 2,000 in theory)."""

    @given(st.integers(2, 300), st.floats(0.001, 0.2), st.floats(0.001, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_tilted_pairs(self, n, width, tilt):
        q1, q2 = tilted_pair(n, width, tilt)
        if check_lr(on_exact_values(q1), on_exact_values(q2), "ratio", MODE_EXACT).holds:
            for method in ("ratio", "pairwise", "intervals", "conditional-st"):
                assert check_lr(q1, q2, method).holds, method

    def test_st_on_the_tilted_survey_grid(self):
        """Float ``check_st`` holds on every pair of the tilted-pair survey
        where exact mode holds on the floats' exact values (and fails where it
        fails, with the pair reversed)."""
        held = 0
        for n, width, tilt in itertools.product((20, 50, 120, 200, 300),
                                                (0.001, 0.005, 0.01, 0.05, 0.1, 0.2),
                                                (0.001, 0.01, 0.05, 0.1, 0.5, 1)):
            q1, q2 = tilted_pair(n, width, tilt)
            e1, e2 = on_exact_values(q1), on_exact_values(q2)
            for (a, b), (ea, eb) in (((q1, q2), (e1, e2)), ((q2, q1), (e2, e1))):
                exact = check_st(ea, eb, MODE_EXACT).holds
                assert check_st(a, b).holds == exact, (n, width, tilt)
                held += exact
        assert held == 180

    @given(st.integers(2, 16), st.floats(0.01, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_gaussian_kernels(self, n, width):
        r = gaussian_kernel(n, width)
        if check_tp2(grid_on_exact_values(r), "pmf-allpairs", MODE_EXACT).holds:
            for method in ("pmf-allpairs", "pmf-adjacent", "intervals"):
                assert check_tp2(r, method).holds, method


class TestTinyMassesKeepTheirDigits:
    """Interval masses far below the total were differences of cumulative
    sums near the total, and the rounding noise flipped these verdicts."""

    def test_tilted_pair_of_120_atoms(self):
        q1, q2 = tilted_pair(120, 0.01, 0.01)
        for method in ("intervals", "conditional-st"):
            assert check_lr(q1, q2, method).holds
        assert lr_intervals_serial(q1, q2).witness == (100.5, 117.5, 118.5)

    def test_gaussian_kernels_of_20_and_30_rows(self):
        for n in (20, 30):
            assert check_tp2(gaussian_kernel(n, 0.2), "intervals").holds


#: finite measures whose float cross products overflow: the first fails TP2
#: (2e600 > 1e600), the second, diagonal once canonical, holds
HUGE_GRIDS = [[[1e300, 2e300], [1e300, 1e300]], [[0, 0], [1e300, 0], [0, 1e300]]]


def huge_grid(cells, scale: float = 1.0) -> BivariateDist:
    cells = np.array(cells) * scale
    return BivariateDist(np.arange(1.0, len(cells) + 1), [1.0, 2.0], cells, is_probability=False)


def huge_pair(scale: float = 1.0):
    """Rows of the first huge grid as univariate measures: q2 / q1 falls."""
    return (UnivariateDist([1.0, 2.0], [1e300 * scale, 2e300 * scale], is_probability=False),
            UnivariateDist([1.0, 2.0], [1e300 * scale, 1e300 * scale], is_probability=False))


class TestFloatProductsNeverOverflow:
    """A float pass whose factors could square past the float range raises
    DomainError instead of comparing inf with inf; the same grids scaled to
    ordinary masses keep their verdicts, and exact mode scores them all."""

    @pytest.mark.parametrize("cells", HUGE_GRIDS)
    def test_tp2_and_st_condition(self, cells):
        for check, methods in ((check_tp2, TP2_METHODS), (check_st_condition, [None])):
            for method in methods:
                args = () if method is None else (method,)
                r = huge_grid(cells)
                with pytest.raises(DomainError):
                    check(r, *args)
                small = check(huge_grid(cells, 1e-300), *args).holds
                weights = [[round(v / 1e300) * 10**300 for v in row] for row in cells]
                exact = BivariateDist.from_weights(r.x_support, r.y_support, weights)
                assert check(exact, *args, MODE_EXACT).holds == small == (cells is HUGE_GRIDS[1])
        with pytest.raises(DomainError):
            kernel_new(huge_grid(HUGE_GRIDS[1]))

    def test_lr_and_curves(self):
        q1, q2 = huge_pair()
        small = huge_pair(1e-300)
        for method in LR_METHODS:
            with pytest.raises(DomainError):
                check_lr(q1, q2, method)
            assert not check_lr(*small, method).holds
        for curve, verdict_of in ((roc_curve, roc_is_concave), (odc_curve, odc_is_convex)):
            with pytest.raises(DomainError):
                verdict_of(curve(q1, q2))
            assert not verdict_of(curve(*small)).holds

    def test_factors_up_to_the_bound_score(self):
        edge = isotonic.FLOAT_FACTOR_MAX
        r = huge_grid([[edge, edge], [edge, edge]])
        assert check_tp2(r, "pmf-allpairs").holds and check_tp2(r, "pmf-adjacent").holds
        with pytest.raises(DomainError):
            check_tp2(huge_grid([[np.nextafter(edge, np.inf), edge], [edge, edge]]), "pmf-allpairs")


class TestPairs:
    def test_pairs_are_combinations_order(self):
        for n in range(0, 9):
            want = list(itertools.combinations(range(n), 2))
            for lo in range(len(want) + 1):
                for hi in range(lo, len(want) + 1):
                    i, j = _pairs(n, lo, hi)
                    assert list(zip(i.tolist(), j.tolist())) == want[lo:hi]


class TestTriples:
    def test_triples_are_combinations_order_or_by_last(self):
        for n in range(0, 9):
            by_first = list(itertools.combinations(range(n), 3))
            for by_last in (False, True):
                want = sorted(by_first, key=lambda t: (t[0], t[2], t[1])) if by_last else by_first
                for lo in range(len(want) + 1):
                    for hi in range(lo, len(want) + 1):
                        labels, p, q = _triples(n, lo, hi, by_last)
                        got = [tuple(t) for t in labels.T.tolist()]
                        assert got == [(d, f, e) if by_last else (d, e, f)
                                       for d, e, f in want[lo:hi]]
                        assert p.tolist() == [e * (n - 1) + f - 1 for _, e, f in want[lo:hi]]
                        assert q.tolist() == [d * (n - 1) + e - 1 for d, e, _ in want[lo:hi]]


class TestBoundedMemory:
    def test_pairwise_on_2000_atoms(self):
        """2,000 atoms have about 2M column pairs; the scan holds a few
        budgets' worth of them at a time, and a holding verdict scans all."""
        support = np.arange(2000.0)
        base = np.linspace(1.0, 2.0, 2000)
        q1 = UnivariateDist(support, base / base.sum())
        boosted = base * np.linspace(1.0, 3.0, 2000)
        q2 = UnivariateDist(support, boosted / boosted.sum())
        _pairs.cache_clear()
        tracemalloc.start()
        try:
            got = check_lr(q1, q2, "pairwise")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.holds
        assert peak < 8 * 2**20
        assert not check_lr(q2, q1, "pairwise").holds

    def test_intervals_on_400_atoms(self):
        """400 atoms have about 10.7M interval triples; the scan holds one
        interval table per side and a few budgets' worth of triples."""
        q1, q2 = tilted_pair(400, 0.0001, 0.01)
        _triples.cache_clear()
        tracemalloc.start()
        try:
            got = check_lr(q1, q2, "intervals")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.holds
        assert peak < 16 * 2**20
