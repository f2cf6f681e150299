import itertools
import json
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
    kuiper_norm,
    refine_grid,
    signed_difference,
    tp2_project,
)
from stochorder import kuiper
from stochorder.distributions import prefix_table
from stochorder.fixtures import antidiag, diag_uniform
from helpers import (_norm_kadane, all_rectangles_norm, band_norm_by_row_ranges, pattern_search_serial,
                     random_supermodular_tp2, rect_prob, row_ranges)

METHODS = ("brute", "kadane")


def measure(delta) -> GridSignedMeasure:
    delta = np.asarray(delta)
    nx, ny = delta.shape
    return GridSignedMeasure(np.arange(float(nx)), np.arange(float(ny)), delta)


def small_chunks():
    """Band blocks of a few prefix entries: every example with more than one
    row range spans several blocks, and blocks split a start row's end rows."""
    return mock.patch.object(kuiper, "BAND_BUDGET", 7)


@st.composite
def float_deltas(draw, shape=None):
    """Float deltas from 1x1 to 13x13 (or of the given shape): mixed scales,
    sparse zeros, a zero block."""
    nx, ny = shape or (draw(st.integers(1, 13)), draw(st.integers(1, 13)))
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
def float_stacks(draw):
    """(k, nx, ny) stacks of one to five float deltas of one shape."""
    shape = (draw(st.integers(1, 13)), draw(st.integers(1, 13)))
    return np.stack([draw(float_deltas(shape)) for _ in range(draw(st.integers(1, 5)))])


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "1", True, None,
                                     np.int64(1)])
    def test_object_delta_entries_must_be_finite_real_numbers(self, bad):
        delta = np.array([[1.0], [bad]], dtype=object)
        with pytest.raises(InvalidDistributionError, match="finite real numbers"):
            GridSignedMeasure([0, 1], [0], delta)

    def test_float_delta_entries_must_be_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidDistributionError, match="finite real numbers"):
                measure([[1.0], [bad]])

    @pytest.mark.parametrize("xs, ys, delta", [
        ([float("nan")], [float("inf")], [[1.0]]),  # once had a norm of 1.0
        ([0.0, float("inf")], [0.0], [[1.0], [2.0]]),  # once passed as strictly increasing
        ([0.0], [-float("inf")], [[1.0]]),
    ])
    def test_grids_must_be_finite(self, xs, ys, delta):
        with pytest.raises(InvalidDistributionError, match="grid must be finite"):
            kuiper_norm(GridSignedMeasure(xs, ys, delta))

    def test_object_delta_of_ints_fractions_and_floats_is_kept(self):
        delta = np.array([[1, Fraction(-1, 3)], [0.5, np.float64(-2.0)]], dtype=object)
        assert kuiper_norm(GridSignedMeasure([0, 1], [0, 1], delta)) == pytest.approx(7 / 3)

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
            chunks = list(row_ranges(shape, 7))
            step = max(1, 7 // (shape[1] + 1))
            ii, jj = np.triu_indices(shape[0] + 1, k=1)
            np.testing.assert_array_equal(np.concatenate([c[0] for c in chunks]), ii)
            np.testing.assert_array_equal(np.concatenate([c[1] for c in chunks]), jj)
            assert all(len(c[0]) == step for c in chunks[:-1])
        # a projection grid (at most 11 x 11 after refinement) is one chunk
        assert len(list(row_ranges((11, 11)))) == 1

    def test_brute_float_memory_is_bounded(self):
        # materializing every rectangle of a 60x60 delta takes about 78 MB,
        # every row range's band of a 300x300 delta about 209 MB, and every
        # start and end row pair's band of a 2000x2 delta about 96 MB
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

    def test_finite_measure_stays_a_finite_measure(self):
        r = BivariateDist([1, 2], [1, 2], [[1e-300, 0], [0, 0]], is_probability=False)
        ref = refine_grid(r)
        assert ref.shape == (3, 3) and not ref.is_probability
        assert ref.pmf[1, 1] == 1e-300 and ref.pmf.sum() == 1e-300

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
            rect_prob(r_hat, Interval.closed(a, b), Interval.closed(c, d))
            - rect_prob(r_tilde, Interval.closed(a, b), Interval.closed(c, d))
            for a, b in itertools.combinations_with_replacement(xs, 2)
            for c, d in itertools.combinations_with_replacement(ys, 2)
        )
        xo = [xs[0] - 1.0] + xs + [xs[-1] + 1.0]
        yo = [ys[0] - 1.0] + ys + [ys[-1] + 1.0]
        open_ = max(
            rect_prob(r_tilde, Interval(a, b, False, False), Interval(c, d, False, False))
            - rect_prob(r_hat, Interval(a, b, False, False), Interval(c, d, False, False))
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

    @pytest.mark.parametrize("kwargs", [{"restarts": -3}, {"max_iters": -1}, {"seed": -1}])
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


@st.composite
def search_cases(draw):
    """A target and one to four starts on a 3x3 to 13x13 refined grid, with
    ``s`` holding exact zeros, tiny entries and entries equal to the first
    step.  The target is the first start's pmf mixed with a sparse random pmf,
    so sweeps range from rejecting every trial to accepting most parameters."""
    nx = draw(st.integers(3, 13))
    ny = draw(st.integers(3, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.random((nx, ny)) * (rng.random((nx, ny)) < 0.7)
    noise.flat[rng.integers(noise.size)] += 1.0
    steps = draw(st.sampled_from([[0.5], [0.125], [-0.25], [0.5, 0.25, 0.125],
                                  [0.5 * 0.5**k for k in range(8)]]))
    p_special = draw(st.sampled_from([(1.0, 0.0, 0.0, 0.0), (0.4, 0.2, 0.2, 0.2), (0.0, 0.5, 0.5, 0.0)]))
    tiny = draw(st.sampled_from([5e-324, 1e-300, 1e-12]))
    starts = []
    for _ in range(draw(st.integers(1, 4))):
        s = rng.exponential(0.2, (nx - 1, ny - 1))
        special = rng.choice(4, size=s.shape, p=p_special)
        s[special == 1] = 0.0
        s[special == 2] = tiny
        s[special == 3] = abs(steps[0])
        starts.append((rng.normal(0.0, 1.0, nx), rng.normal(0.0, 1.0, ny), s))
    mix = draw(st.sampled_from([1.0, 1e-3, 0.0]))
    target = (1.0 - mix) * kuiper._PotentialCandidate(*starts[0]).pmf() + mix * noise / noise.sum()
    # up to whole sweeps (2 * 13 * 13 * 2 trials) in one batch, so batches reach sweep ends
    batch = draw(st.one_of(st.integers(1, 40), st.just(1000)))
    return target, starts, steps, draw(st.integers(0, 3)), batch


def serial_searches(cands, objective, steps, sweeps, batch):
    """``kuiper._pattern_search`` as one ``pattern_search_serial`` run per candidate, in order."""
    return [pattern_search_serial(cand, lambda pmf: float(objective(pmf[None])[0]), steps, sweeps)
            for cand in cands]


def non_tp2_input(n: int, seed: int) -> BivariateDist:
    pmf = np.random.default_rng(seed).random((n, n))
    r = BivariateDist(np.arange(float(n)), np.arange(float(n)), pmf / pmf.sum())
    assert not check_tp2(r).holds
    return r


class TestStackedSearch:
    @settings(max_examples=100, deadline=None)
    @given(float_stacks(), st.sampled_from([7, 40, kuiper.BAND_BUDGET]))
    @example(np.zeros((3, 13, 13)), 40)
    @example(np.arange(2 * 13 * 2, dtype=float).reshape(2, 13, 2) - 20.0, 7)
    def test_stacked_kernel_equals_2d_calls_bitwise(self, stack, budget):
        pref = prefix_table(stack)
        with mock.patch.object(kuiper, "BAND_BUDGET", budget):
            norms = kuiper._band_norm(stack)
            assert norms.shape == (len(stack),)
            for k, delta in enumerate(stack):
                assert pref[k].tobytes() == prefix_table(delta).tobytes()
                assert norms[k].tobytes() == np.float64(kuiper._band_norm(delta)).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(float_stacks(), st.sampled_from([7, 40, kuiper.BAND_BUDGET]))
    @example(np.zeros((2, 9, 4)), 7)
    @example(np.zeros((1, 1, 1)), kuiper.BAND_BUDGET)
    @example(np.array([[[0.3, -1e3, 2e-3, 0.0, 7.0, -5e-3, 1e-3]]]), 7)
    @example(np.array([[[0.3], [-1e3], [2e-3], [0.0], [7.0], [-5e-3], [1e-3]]]), 7)
    @example(np.random.default_rng(5).normal(size=(3, 1, 13)), 40)
    @example(np.random.default_rng(6).normal(size=(3, 13, 1)), 40)
    def test_float_kernel_equals_row_range_oracle_bitwise(self, stack, budget):
        expected = band_norm_by_row_ranges(stack, budget)
        with mock.patch.object(kuiper, "BAND_BUDGET", budget):
            assert kuiper._band_norm(stack).tobytes() == expected.tobytes()
            assert np.float64(kuiper._band_norm(stack[0])).tobytes() == expected[0].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(int_deltas(), fraction_deltas()), st.sampled_from([7, 40, kuiper.BAND_BUDGET]))
    @example(np.zeros((1, 6), dtype=np.int64), 7)
    @example(np.zeros((6, 1), dtype=np.int64), 40)
    @example(np.array([[Fraction(1, 3), Fraction(-2, 7), Fraction(0), Fraction(5, 2)]]), 7)
    @example(np.array([[Fraction(1, 3)], [Fraction(-2, 7)], [Fraction(0)], [Fraction(5, 2)]]), 7)
    @example(np.full((3, 4), Fraction(0)), 40)
    def test_object_kernel_equals_row_range_oracle(self, delta, budget):
        stack = delta.astype(object)[None]
        expected = band_norm_by_row_ranges(stack, budget)[0]
        with mock.patch.object(kuiper, "BAND_BUDGET", budget):
            norm = kuiper._band_norm(stack)[0]
        assert type(norm) is type(expected)
        assert norm == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 40), st.integers(1, 6), st.sampled_from([7, 40, 300]))
    def test_kernel_bands_fit_the_budget(self, k, nx, ny, budget):
        # each block of start rows, or split of one start row's end rows, holds at
        # most BAND_BUDGET band entries, or one row range over the whole stack
        stack = np.random.default_rng(nx * ny).normal(size=(k, nx, ny))
        sizes = []

        class Bands(np.ndarray):
            """A prefix table that records the size of each band subtracted from it."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if "out" in kwargs:  # an in-place subtraction writes into a band
                    kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
                out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
                if ufunc is np.subtract:
                    sizes.append(out.size)
                return out

        contiguous = np.ascontiguousarray
        with mock.patch.object(kuiper, "BAND_BUDGET", budget), \
                mock.patch.object(np, "ascontiguousarray", lambda a: contiguous(a).view(Bands)):
            norms = kuiper._band_norm(stack)
        assert norms.tobytes() == band_norm_by_row_ranges(stack).tobytes()
        assert max(sizes) <= max(budget, k * (ny + 1))

    @staticmethod
    def one_pass_and_loop(stack):
        """``_band_norm`` of the stack with ``BAND_BUDGET`` at exactly the folded
        bands' entries (one pass) and one below them (the row-block loop)."""
        k, nx, ny = stack.shape
        m = nx + 1
        passes = []
        folded_ends = kuiper._folded_ends

        def spy(m):
            passes.append(m)
            return folded_ends(m)

        norms = []
        for budget in (k * (ny + 1) * m * (m // 2), k * (ny + 1) * m * (m // 2) - 1):
            with mock.patch.object(kuiper, "BAND_BUDGET", budget), mock.patch.object(kuiper, "_folded_ends", spy):
                norms.append(kuiper._band_norm(stack))
        assert passes == [m]  # the smaller budget gathers no folded bands
        return norms

    @settings(max_examples=200, deadline=None)
    @given(float_stacks())
    @example(np.zeros((2, 4, 3)))  # m = 5
    @example(np.zeros((2, 5, 3)))  # m = 6
    @example(np.random.default_rng(7).normal(size=(3, 1, 6)))  # m = 2: one offset, both orders
    @example(np.random.default_rng(8).normal(size=(4, 12, 5)))
    @example(np.random.default_rng(9).normal(size=(5, 13, 13)))
    def test_float_one_pass_equals_oracle_and_loop_at_the_boundary(self, stack):
        one_pass, loop = self.one_pass_and_loop(stack)
        expected = band_norm_by_row_ranges(stack)
        assert one_pass.tobytes() == expected.tobytes()
        assert loop.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(int_deltas(), fraction_deltas()))
    @example(np.array([[3, -1], [-4, 1], [5, -9], [2, 6]]))  # m = 5
    @example(np.array([[3, -1], [-4, 1], [5, -9], [2, 6], [-5, 3]]))  # m = 6
    @example(np.array([[Fraction(1, 3), Fraction(-2, 7)], [Fraction(5, 2), Fraction(0)]]))  # m = 3
    @example(np.array([[Fraction(1, 3)], [Fraction(-2, 7)], [Fraction(5, 2)]]))  # m = 4
    def test_object_one_pass_equals_oracle_and_loop_at_the_boundary(self, delta):
        stack = delta.astype(object)[None]
        expected = band_norm_by_row_ranges(stack)[0]
        for norms in self.one_pass_and_loop(stack):
            assert type(norms[0]) is type(expected)
            assert norms[0] == expected

    def test_refined_shapes_at_their_stack_cap_take_one_pass(self):
        # every stack the pattern search sends on the refined grids of 1x1 to 16x16
        # inputs fits the folded bands' one pass
        rng = np.random.default_rng(27)
        for nx, ny in itertools.product(range(3, 34, 2), repeat=2):
            stack = rng.normal(size=(kuiper._stack_cap((nx, ny)), nx, ny))
            with mock.patch.object(kuiper, "_folded_ends", wraps=kuiper._folded_ends) as spy:
                norms = kuiper._band_norm(stack)
            spy.assert_called_once_with(nx + 1)
            assert norms.tobytes() == band_norm_by_row_ranges(stack).tobytes()

    def test_one_pass_holds_one_band_sized_temporary(self):
        # the gather is the pass's only band-sized array: the subtraction writes into it
        nx = ny = 17
        k = kuiper._stack_cap((nx, ny))
        m = nx + 1
        stack = np.random.default_rng(17).normal(size=(k, nx, ny))
        band_bytes = k * (ny + 1) * m * (m // 2) * 8
        assert band_bytes <= kuiper.BAND_BUDGET * 8
        kuiper._folded_ends(m)  # the cached index table is not part of a call
        tracemalloc.start()
        try:
            kuiper._band_norm(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * band_bytes + prefix_table(stack).nbytes, (peak, band_bytes)

    def test_stacked_lockstep_memory_is_bounded(self):
        # every start and end row pair's band of a (96, 23, 23) stack takes
        # about 9.7 MB; four restarts' passes of four trials on a 23x23 grid
        # would take 1.6 MB, but one call scores at most _stack_cap trials
        rng = np.random.default_rng(105)
        stack = rng.normal(size=(96, 23, 23))
        target = rng.random((23, 23))
        target /= target.sum()
        cands = [kuiper._PotentialCandidate(rng.normal(size=23), rng.normal(size=23),
                                            rng.exponential(0.2, (22, 22))) for _ in range(4)]
        sizes = []

        def objective(pmfs):
            sizes.append(len(pmfs))
            return kuiper._band_norm(pmfs - target)

        for call in (lambda: kuiper._band_norm(stack),
                     lambda: kuiper._pattern_search(cands, objective, [0.5], 1,
                                                    kuiper._speculation_batch((23, 23)))):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, peak
        assert max(sizes) == kuiper._stack_cap((23, 23)) == 4

    def test_speculation_batch_fits_half_the_band_budget(self):
        for budget in (7, 500, 4096, kuiper.BAND_BUDGET):
            with mock.patch.object(kuiper, "BAND_BUDGET", budget):
                for nx, ny in itertools.product(range(1, 60), (1, 2, 7, 23, 60)):
                    k = kuiper._speculation_batch((nx, ny))
                    cap = kuiper._stack_cap((nx, ny))
                    band = (nx + 1) * ((nx + 1) // 2) * (ny + 1)
                    assert 1 <= k <= kuiper.SPECULATION_BATCH and k == min(kuiper.SPECULATION_BATCH, cap)
                    assert 2 * cap * band <= budget or cap == 1
                    assert 2 * (cap + 1) * band > budget
        # the refined grids of 3x3 to 5x5 inputs take whole batches
        assert kuiper._speculation_batch((11, 11)) == kuiper.SPECULATION_BATCH

    @settings(max_examples=50, deadline=None)
    @given(search_cases(), st.sampled_from([7, 2000, kuiper.BAND_BUDGET]))
    def test_batched_search_equals_serial_oracle(self, case, budget):
        target, starts, steps, sweeps, batch = case
        serial = [kuiper._PotentialCandidate(a.copy(), b.copy(), s.copy()) for a, b, s in starts]
        expected = serial_searches(serial, lambda pmfs: kuiper._band_norm(pmfs - target), steps, sweeps, batch)
        cands = [kuiper._PotentialCandidate(a.copy(), b.copy(), s.copy()) for a, b, s in starts]
        sizes = []

        def objective(pmfs):
            sizes.append(len(pmfs))
            return kuiper._band_norm(pmfs - target)

        with mock.patch.object(kuiper, "BAND_BUDGET", budget):
            got = kuiper._pattern_search(cands, objective, steps, sweeps, batch)
            cap = kuiper._stack_cap(target.shape)
        assert got == expected
        assert all(type(best) is float for best, _, _ in got)
        for cand, oracle in zip(cands, serial):
            assert cand.theta.tobytes() == oracle.theta.tobytes()
        # one call scores one pass of each running search, as many as fit the cap
        assert max(sizes) <= max(cap, batch)
        assert sizes[0] == min(len(starts), cap)

    @pytest.mark.parametrize("budget", [None, 4096])
    def test_projection_within_budget_equals_serial_oracle(self, budget):
        # an 11x11 input refines to 23x23, whose bands take 24 * 12 * 24 = 6912 entries per
        # trial: the default budget caps the batch below SPECULATION_BATCH, and 4096
        # leaves one trial per pass, its start rows split into blocks
        r = non_tp2_input(11, 11)
        budget = budget or kuiper.BAND_BUDGET
        sizes = []
        band_norm = kuiper._band_norm

        def spy(delta):
            sizes.append(delta.shape[0] if delta.ndim == 3 else 1)
            return band_norm(delta)

        with mock.patch.object(kuiper, "BAND_BUDGET", budget):
            assert kuiper._speculation_batch((23, 23)) == kuiper._stack_cap((23, 23)) == max(1, budget // 2 // 6912)
            with mock.patch.object(kuiper, "_band_norm", spy):
                res = tp2_project(r, seed=3, restarts=1, max_iters=1)
            with mock.patch.object(kuiper, "_pattern_search", serial_searches):
                expected = tp2_project(r, seed=3, restarts=1, max_iters=1)
        assert max(sizes) == max(1, budget // 2 // 6912)
        assert res.trace["source"] != "input-tp2"
        assert json.dumps(res.to_dict()) == json.dumps(expected.to_dict())

    @pytest.mark.parametrize("restarts", range(5))
    @pytest.mark.parametrize("budget", [None, 2 * 864 * 30, 2 * 864 * 12, 2 * 864 * 5])
    def test_lockstep_projection_equals_serial_restarts(self, restarts, budget):
        # a 5x5 input refines to 11x11, whose bands take 12 * 6 * 12 = 864 entries per trial:
        # one call stacks the passes of 12 trials of three restarts at the default budget,
        # of two at 2 * 864 * 30 and of one at 2 * 864 * 12, and 2 * 864 * 5 leaves one
        # pass of 5 trials per call
        r = non_tp2_input(5, 12)
        sizes = []
        band_norm = kuiper._band_norm

        def spy(delta):
            sizes.append(delta.shape[0] if delta.ndim == 3 else 1)
            return band_norm(delta)

        with mock.patch.object(kuiper, "BAND_BUDGET", budget or kuiper.BAND_BUDGET):
            batch = kuiper._speculation_batch((11, 11))
            cap = kuiper._stack_cap((11, 11))
            with mock.patch.object(kuiper, "_band_norm", spy):
                res = tp2_project(r, seed=7, restarts=restarts, max_iters=3)
            with mock.patch.object(kuiper, "_pattern_search", serial_searches):
                expected = tp2_project(r, seed=7, restarts=restarts, max_iters=3)
        assert (batch, cap) == {None: (12, 37), 2 * 864 * 30: (12, 30), 2 * 864 * 12: (12, 12),
                                2 * 864 * 5: (5, 5)}[budget]
        assert max(sizes) <= (cap if restarts > 1 else batch)
        if restarts > 1 and cap >= 2 * batch:
            assert max(sizes) > batch
        assert res.trace["source"] != "input-tp2"
        assert json.dumps(res.to_dict()) == json.dumps(expected.to_dict())


class TestConsistencyBound:
    def test_end_to_end_projection_satisfies_bound(self):
        rng = np.random.default_rng(300)
        truth = random_supermodular_tp2(rng, 3, 3)
        noisy = truth.pmf + rng.normal(0, 0.02, truth.pmf.shape)
        noisy = np.clip(noisy, 1e-6, None)
        r_hat = BivariateDist(truth.x_support, truth.y_support, noisy / noisy.sum())
        res = tp2_project(r_hat, seed=11, restarts=3)
        d_true = float(kuiper_norm(signed_difference(truth, r_hat), "brute"))
        if res.distance <= d_true:
            bound = d_true + res.distance  # the triangle inequality
            d_out = float(
                kuiper_norm(signed_difference(res.distribution, refine_grid(truth)), "brute")
            )
            assert d_out <= bound + 1e-12
