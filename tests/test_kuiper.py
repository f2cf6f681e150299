import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochorder import (
    BivariateDist,
    DomainError,
    GridSignedMeasure,
    Interval,
    InvalidDistributionError,
    check_tp2,
    consistency_bound,
    kuiper_norm,
    refine_grid,
    signed_difference,
    tp2_project,
)
from stochorder import kuiper
from stochorder.fixtures import antidiag, diag_uniform
from helpers import _norm_kadane, all_rectangles_norm, random_supermodular_tp2

METHODS = ("brute", "kadane")


def measure(delta) -> GridSignedMeasure:
    delta = np.asarray(delta)
    nx, ny = delta.shape
    return GridSignedMeasure(np.arange(float(nx)), np.arange(float(ny)), delta)


def small_chunks():
    """Band chunks of a few prefix entries: every example with more than one
    row range spans several chunks, and chunks split a start row's ranges."""
    return mock.patch.object(kuiper, "BAND_BUDGET", 7)


@st.composite
def float_deltas(draw):
    """Float deltas from 1x1 to 13x13: mixed scales, sparse zeros, a zero block."""
    nx = draw(st.integers(1, 13))
    ny = draw(st.integers(1, 13))
    n = nx * ny
    mantissas = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    exponents = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    delta = (np.array(mantissas) * 10.0 ** np.array(exponents) * np.array(keep)).reshape(nx, ny)
    i0 = draw(st.integers(0, nx))
    i1 = draw(st.integers(i0, nx))
    j0 = draw(st.integers(0, ny))
    j1 = draw(st.integers(j0, ny))
    delta[i0:i1, j0:j1] = 0.0
    return delta


@st.composite
def int_deltas(draw):
    nx = draw(st.integers(1, 8))
    ny = draw(st.integers(1, 8))
    values = draw(st.lists(st.integers(-50, 50), min_size=nx * ny, max_size=nx * ny))
    return np.array(values, dtype=np.int64).reshape(nx, ny)


@st.composite
def fraction_deltas(draw):
    nx = draw(st.integers(1, 6))
    ny = draw(st.integers(1, 6))
    values = draw(st.lists(st.fractions(-5, 5, max_denominator=12), min_size=nx * ny,
                           max_size=nx * ny))
    delta = np.empty(nx * ny, dtype=object)
    delta[:] = values
    return delta.reshape(nx, ny)


class TestKuiperNorm:
    def test_self_difference_is_zero(self):
        r = diag_uniform(3)
        for method in METHODS:
            assert kuiper_norm(signed_difference(r, r), method) == 0.0

    def test_two_point_masses(self):
        a = BivariateDist.from_weights([0, 1], [0, 1], [[1, 0], [0, 0]])
        b = BivariateDist.from_weights([0, 1], [0, 1], [[0, 0], [0, 1]])
        sigma = signed_difference(a, b)
        for method in METHODS:
            assert kuiper_norm(sigma, method) == 1.0

    def test_antidiagonal_vs_product(self):
        sigma = measure([[0.0 - 0.25, 0.5 - 0.25], [0.5 - 0.25, 0.0 - 0.25]])
        for method in METHODS:
            assert kuiper_norm(sigma, method) == pytest.approx(0.25)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            kuiper_norm(measure([[0.0]]), "magic")

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_grid_rejected(self, shape):
        with pytest.raises(InvalidDistributionError):
            measure(np.zeros(shape))

    def test_kadane_equals_brute_exact_integers(self):
        rng = np.random.default_rng(100)
        for _ in range(500):
            nx = int(rng.integers(1, 9))
            ny = int(rng.integers(1, 9))
            delta = rng.integers(-50, 51, size=(nx, ny))
            sigma = measure(delta)
            oracle = _norm_kadane(delta.tolist())
            for method in METHODS:
                assert kuiper_norm(sigma, method) == oracle

    def test_kadane_equals_brute_floats(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            delta = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            sigma = measure(delta)
            oracle = _norm_kadane(delta.tolist())
            for method in METHODS:
                assert kuiper_norm(sigma, method) == pytest.approx(oracle, abs=1e-12)

    def test_zero_iff_all_rectangle_sums_zero(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            delta = rng.integers(-3, 4, size=(3, 3))
            sigma = measure(delta)
            pref = np.zeros((4, 4))
            pref[1:, 1:] = np.cumsum(np.cumsum(delta, axis=0), axis=1)
            rect_all_zero = all(
                pref[i1, j1] - pref[i0, j1] - pref[i1, j0] + pref[i0, j0] == 0
                for i0 in range(4) for i1 in range(i0 + 1, 4)
                for j0 in range(4) for j1 in range(j0 + 1, 4)
            )
            assert (kuiper_norm(sigma, "brute") == 0) == rect_all_zero

    @settings(max_examples=300, deadline=None)
    @given(float_deltas())
    @example(np.zeros((1, 1)))
    @example(np.zeros((4, 7)))
    @example(np.array([[0.3, -1e3, 2e-3, 0.0, 7.0]]))
    @example(np.array([[0.3], [-1e3], [2e-3], [0.0], [7.0]]))
    def test_brute_float_equals_all_rectangles_bitwise(self, delta):
        expected = all_rectangles_norm(delta)
        assert kuiper_norm(measure(delta), "brute") == expected
        with small_chunks():
            assert kuiper_norm(measure(delta), "brute") == expected

    @settings(max_examples=200, deadline=None)
    @given(int_deltas())
    @example(np.zeros((3, 2), dtype=np.int64))
    def test_brute_int_equals_all_rectangles(self, delta):
        expected = all_rectangles_norm(delta.astype(object))
        norm = kuiper_norm(measure(delta), "brute")
        assert type(norm) is int
        assert norm == expected
        with small_chunks():
            norm = kuiper_norm(measure(delta), "brute")
        assert type(norm) is int
        assert norm == expected

    @settings(max_examples=200, deadline=None)
    @given(fraction_deltas())
    def test_brute_fraction_equals_all_rectangles(self, delta):
        expected = all_rectangles_norm(delta)
        norm = kuiper_norm(measure(delta), "brute")
        assert isinstance(norm, (int, Fraction))
        assert norm == expected
        with small_chunks():
            norm = kuiper_norm(measure(delta), "brute")
        assert isinstance(norm, (int, Fraction))
        assert norm == expected

    def test_row_ranges_cover_every_range_in_budgeted_chunks(self):
        for shape in [(1, 1), (5, 1), (5, 6), (13, 2)]:
            with small_chunks():
                chunks = list(kuiper._row_ranges(shape))
                step = max(1, kuiper.BAND_BUDGET // (shape[1] + 1))
            ii, jj = np.triu_indices(shape[0] + 1, k=1)
            np.testing.assert_array_equal(np.concatenate([c[0] for c in chunks]), ii)
            np.testing.assert_array_equal(np.concatenate([c[1] for c in chunks]), jj)
            assert all(len(c[0]) == step for c in chunks[:-1])
        # a projection grid (at most 11 x 11 after refinement) is one chunk
        assert len(list(kuiper._row_ranges((11, 11)))) == 1

    def test_brute_float_memory_is_bounded(self):
        # materializing every rectangle of a 60x60 delta takes about 78 MB,
        # every row range's band of a 300x300 delta about 209 MB, and the
        # index pairs of every row range of a 2000x2 delta about 32 MB
        for shape in ((60, 60), (300, 300), (2000, 2)):
            sigma = measure(np.random.default_rng(104).normal(size=shape))
            for method in METHODS:
                tracemalloc.start()
                try:
                    kuiper_norm(sigma, method)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 8 * 2**20, (shape, method, peak)

    def test_triangle_and_homogeneity(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            d1 = rng.normal(size=(4, 4))
            d2 = rng.normal(size=(4, 4))
            n1 = kuiper_norm(measure(d1), "brute")
            n2 = kuiper_norm(measure(d2), "brute")
            n12 = kuiper_norm(measure(d1 + d2), "brute")
            assert n12 <= n1 + n2 + 1e-12
            c = float(rng.normal())
            assert kuiper_norm(measure(c * d1), "brute") == pytest.approx(abs(c) * n1, rel=1e-12)


class TestRefineGrid:
    def test_single_atom_centers_3x3(self):
        r = BivariateDist.from_weights([0.0], [0.0], [[1]])
        ref = refine_grid(r)
        assert ref.shape == (3, 3)
        assert ref.x_support.tolist() == [-1.0, 0.0, 1.0]
        assert ref.pmf[1, 1] == 1.0

    def test_2x2_embeds_on_odd_positions(self):
        r = antidiag()
        ref = refine_grid(r)
        assert ref.shape == (5, 5)
        np.testing.assert_allclose(ref.pmf[1::2, 1::2], r.pmf)
        assert ref.pmf.sum() == pytest.approx(1.0)

    def test_refinement_preserves_distances(self):
        r = antidiag()
        assert kuiper_norm(signed_difference(r, refine_grid(r)), "brute") == 0.0

    def test_rectangle_family_reduction(self):
        # on the refined common grid the norm equals the maximum over the
        # closed-rectangle family (for the positive part) and the open one
        # (for the negative part), enumerated directly
        r_hat = antidiag()
        rng = np.random.default_rng(7)
        pmf = rng.random((5, 5))
        r_tilde = BivariateDist(
            refine_grid(r_hat).x_support, refine_grid(r_hat).y_support, pmf / pmf.sum()
        )
        norm = kuiper_norm(signed_difference(r_hat, r_tilde), "brute")
        xs = r_hat.x_support.tolist()
        ys = r_hat.y_support.tolist()
        closed = max(
            r_hat.rect_prob(Interval.closed(a, b), Interval.closed(c, d))
            - r_tilde.rect_prob(Interval.closed(a, b), Interval.closed(c, d))
            for a, b in itertools.combinations_with_replacement(xs, 2)
            for c, d in itertools.combinations_with_replacement(ys, 2)
        )
        xo = [xs[0] - 1.0] + xs + [xs[-1] + 1.0]
        yo = [ys[0] - 1.0] + ys + [ys[-1] + 1.0]
        open_ = max(
            r_tilde.rect_prob(Interval.open(a, b), Interval.open(c, d))
            - r_hat.rect_prob(Interval.open(a, b), Interval.open(c, d))
            for a, b in itertools.combinations(xo, 2)
            for c, d in itertools.combinations(yo, 2)
        )
        assert norm == pytest.approx(max(closed, open_), abs=1e-12)


class TestProjection:
    def test_tp2_input_returns_identity_embedding(self):
        r = diag_uniform(2)
        res = tp2_project(r, seed=1, restarts=2)
        assert res.distance == 0.0
        assert res.tp2_certified
        np.testing.assert_allclose(res.distribution.pmf[1::2, 1::2], r.pmf)

    def test_antidiagonal_within_product_baseline(self):
        res = tp2_project(antidiag(), seed=42, restarts=4)
        assert res.tp2_certified
        assert res.distance <= 0.25 + 1e-12
        recomputed = kuiper_norm(
            signed_difference(res.distribution, refine_grid(antidiag())), "brute"
        )
        assert res.distance == pytest.approx(recomputed, abs=1e-15)

    def test_output_always_tp2(self):
        rng = np.random.default_rng(200)
        for _ in range(5):
            pmf = rng.random((3, 3))
            r = BivariateDist(np.arange(3.0), np.arange(3.0), pmf / pmf.sum())
            res = tp2_project(r, seed=9, restarts=2)
            assert res.tp2_certified
            assert check_tp2(res.distribution).holds

    def test_deterministic_per_seed(self):
        r = antidiag()
        res1 = tp2_project(r, seed=5, restarts=3)
        res2 = tp2_project(r, seed=5, restarts=3)
        assert res1.distance == res2.distance
        np.testing.assert_array_equal(res1.distribution.pmf, res2.distribution.pmf)

    @pytest.mark.parametrize("kwargs", [{"restarts": -3}, {"max_iters": -1}, {"step_schedule": []},
                                        {"seed": -1}])
    def test_negative_search_sizes_rejected(self, kwargs):
        kwargs = {"seed": 1, **kwargs}
        with pytest.raises(DomainError):
            tp2_project(antidiag(), **kwargs)
        # also for inputs that are already TP2 and would short-circuit
        with pytest.raises(DomainError):
            tp2_project(diag_uniform(2), **kwargs)

    def test_trace_monotone_per_restart(self):
        res = tp2_project(antidiag(), seed=3, restarts=3)
        for accepted in res.trace["accepted_per_restart"]:
            assert accepted == sorted(accepted, reverse=True)


class TestConsistencyBound:
    def test_arithmetic(self):
        assert consistency_bound(0.1, 0.05) == pytest.approx(0.15)

    def test_boundary(self):
        assert consistency_bound(0.1, 0.1) == pytest.approx(0.2)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            consistency_bound(-0.1, 0.0)

    def test_end_to_end_projection_satisfies_bound(self):
        rng = np.random.default_rng(300)
        truth = random_supermodular_tp2(rng, 3, 3)
        noisy = truth.pmf + rng.normal(0, 0.02, truth.pmf.shape)
        noisy = np.clip(noisy, 1e-6, None)
        r_hat = BivariateDist(truth.x_support, truth.y_support, noisy / noisy.sum())
        res = tp2_project(r_hat, seed=11, restarts=3)
        d_true = float(kuiper_norm(signed_difference(truth, r_hat), "brute"))
        if res.distance <= d_true:
            bound = consistency_bound(d_true, res.distance)
            d_out = float(
                kuiper_norm(signed_difference(res.distribution, refine_grid(truth)), "brute")
            )
            assert d_out <= bound + 1e-12
