"""The all-pairs minor scan against the serial loop it replaced.

``check_tp2(..., "pmf-allpairs")`` and ``check_lr(..., "pairwise")`` run one
chunked array scan over the 2x2 minors.  Its verdict and witness must equal
those of ``helpers.allpairs_minors_serial``, which calls ``products_le`` once
per minor in ``combinations`` order, for float grids (zero rows and columns,
ties within an ulp) and for exact weights on both sides of the int64 limit,
and at chunk budgets small enough that every grid is split into passes.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import BivariateDist, UnivariateDist, check_lr, check_tp2
from stochorder import orders
from stochorder.isotonic import MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL
from stochorder.orders import INT64_FACTOR_MAX, _merged_masses, _pairs

from helpers import allpairs_minors_serial

#: budgets that split even tiny grids into several passes and split one row
#: pair's column pairs into slices, plus the default
BUDGETS = st.sampled_from([1, 2, 3, 5, 16, orders.MINOR_BUDGET])
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
    merged, g1, g2 = _merged_masses(q1, q2, mode)
    if mode == MODE_EXACT:
        return BivariateDist.from_weights([0.0, 1.0], merged, [g1, g2])
    return BivariateDist([0.0, 1.0], merged, [g1, g2], is_probability=False)


class TestScanEqualsSerialLoop:
    @given(float_grids(), TOLS, BUDGETS)
    @settings(max_examples=400, deadline=None)
    def test_float_grids(self, r, tol, budget):
        with mock.patch.object(orders, "MINOR_BUDGET", budget):
            got = check_tp2(r, "pmf-allpairs", MODE_FLOAT, tol)
        assert verdict(got) == verdict(allpairs_minors_serial(r, MODE_FLOAT, tol))

    @given(weight_grids(), BUDGETS)
    @settings(max_examples=300, deadline=None)
    def test_exact_grids(self, r, budget):
        with mock.patch.object(orders, "MINOR_BUDGET", budget):
            got = check_tp2(r, "pmf-allpairs", MODE_EXACT)
        assert verdict(got) == verdict(allpairs_minors_serial(r, MODE_EXACT))

    @given(st.booleans(), st.data(), TOLS, BUDGETS)
    @settings(max_examples=300, deadline=None)
    def test_univariate_pairs(self, exact, data, tol, budget):
        q1, q2 = data.draw(univariate_pairs(exact))
        mode = MODE_EXACT if exact else MODE_FLOAT
        with mock.patch.object(orders, "MINOR_BUDGET", budget):
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


class TestPairs:
    def test_pairs_are_combinations_order(self):
        for n in range(0, 9):
            want = list(itertools.combinations(range(n), 2))
            for lo in range(len(want) + 1):
                for hi in range(lo, len(want) + 1):
                    i, j = _pairs(n, lo, hi)
                    assert list(zip(i.tolist(), j.tolist())) == want[lo:hi]


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
