import contextlib
import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stochorder import (
    BivariateDist,
    DomainError,
    Interval,
    InvalidDistributionError,
    OdcCurve,
    RocCurve,
    StochOrderError,
    UnivariateDist,
    kernel_east,
    kernel_new,
    kernel_west,
    odc_curve,
    roc_curve,
)
from stochorder import distributions, kuiper, orders, roc, tp2
from stochorder.distributions import (
    _atom_grid,
    load_bivariate,
    load_univariate,
    read_bivariate_csv,
    read_univariate_csv,
    write_bivariate_csv,
    write_univariate_csv,
)
from stochorder.isotonic import IsotonicDensity
from stochorder.kuiper import GridSignedMeasure, refine_grid
from stochorder.orders import truncate
from stochorder.tp2 import Boundaries, ConditionalDensity, Kernel
from helpers import (canonical_by_mode, conditional_row_by_mode, drop_empty_atoms_by_mode,
                     grid_by_dict, marginal_x_by_mode, marginal_y_by_mode, merge_pairs_by_loop,
                     rect_prob, refine_grid_by_mode, sample_counts, truncate_by_mode, weight_list)

NEG_INF = float("-inf")
POS_INF = float("inf")


def coin() -> UnivariateDist:
    return UnivariateDist.from_weights([0.0, 1.0], [1, 1])


class TestCdf:
    def test_below_support(self):
        assert UnivariateDist.delta(0.0).cdf(-1.0) == 0.0

    def test_atom_included_right_continuity(self):
        assert UnivariateDist.delta(0.0).cdf(0.0) == 1.0

    def test_between_atoms(self):
        assert coin().cdf(0.5) == 0.5

    def test_monotone_and_right_continuous(self):
        q = UnivariateDist.from_weights([-1.0, 0.5, 2.0], [1, 2, 1])
        grid = [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0]
        vals = [q.cdf(y) for y in grid]
        assert vals == sorted(vals)
        for atom in q.support.tolist():
            assert q.cdf(atom) == q.cdf(atom + 1e-9)


class TestQuantile:
    def test_smallest_atom_reaching_level(self):
        assert coin().quantile(0.5) == 0.0

    def test_next_atom_above_level(self):
        assert coin().quantile(0.6) == 1.0

    def test_zero_level_is_minus_infinity(self):
        assert coin().quantile(0.0) == NEG_INF

    def test_domain_error(self):
        with pytest.raises(DomainError):
            coin().quantile(1.5)
        with pytest.raises(DomainError):
            coin().quantile(-0.1)

    def test_level_one_on_slightly_subnormalized_mass(self):
        # totals within the declared tolerance of 1 must still resolve level 1
        q = UnivariateDist(np.array([0.0, 1.0]), np.array([0.5, 0.5 - 1e-10]))
        assert q.quantile(1.0) == 1.0

    @given(st.integers(0, 16))
    @settings(max_examples=50, deadline=None)
    def test_galois_inequalities(self, num):
        # dyadic masses keep every cumulative sum exact in binary floats
        q = UnivariateDist(np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.25, 0.5]))
        alpha = num / 16
        y = q.quantile(alpha)
        if y != NEG_INF:
            assert q.cdf(y) >= alpha
            image = {0.0, 0.25, 0.5, 1.0}
            assert (q.cdf(y) == alpha) == (alpha in image)
        for atom in q.support.tolist():
            assert q.quantile(q.cdf(atom)) <= atom


class TestIntervalMass:
    def test_left_open_excludes_atom(self):
        assert UnivariateDist.delta(0.0).interval_mass(Interval.open_closed(0, 1)) == 0.0

    def test_closed_includes_atom(self):
        assert UnivariateDist.delta(0.0).interval_mass(Interval.closed(0, 1)) == 1.0

    def test_open_interval(self):
        q = UnivariateDist.from_pairs([1, 2, 3], [0.2, 0.3, 0.5])
        assert q.interval_mass(Interval(1, 3, False, False)) == pytest.approx(0.3, abs=1e-15)

    def test_half_line_matches_cdf(self):
        q = UnivariateDist.from_pairs([-1, 0.5, 2], [0.25, 0.25, 0.5])
        for y in [-2.0, -1.0, 0.0, 0.5, 2.0, 3.0]:
            assert q.interval_mass(Interval.open_closed(NEG_INF, y)) == q.cdf(y)

    def test_additivity_over_adjacent_intervals(self):
        q = UnivariateDist.from_pairs([1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4])
        whole = q.interval_mass(Interval.open_closed(0.5, 3.5))
        left = q.interval_mass(Interval.open_closed(0.5, 2.0))
        right = q.interval_mass(Interval.open_closed(2.0, 3.5))
        assert whole == pytest.approx(left + right, abs=1e-15)

    def test_infinite_endpoint_must_be_open(self):
        with pytest.raises(DomainError):
            Interval.closed(NEG_INF, 0)
        with pytest.raises(DomainError):
            Interval.open_closed(0, POS_INF)


class TestMarginalsAndConditionalRows:
    def test_marginals_of_point_mass(self):
        r = BivariateDist.from_weights([0.0], [1.0], [[1]])
        p, q = r.marginal_x(), r.marginal_y()
        assert p.support.tolist() == [0.0] and p.probs.tolist() == [1.0]
        assert q.support.tolist() == [1.0] and q.probs.tolist() == [1.0]

    def test_conditional_row_normalizes(self):
        r = BivariateDist.from_weights([1.0], [1.0, 2.0], [[1, 1]])
        row = r.conditional_row(1.0)
        assert row.support.tolist() == [1.0, 2.0]
        assert row.probs.tolist() == [0.5, 0.5]

    def test_conditional_row_zero_mass_errors(self):
        r = BivariateDist(np.array([1.0, 2.0]), np.array([1.0]), np.array([[1.0], [0.0]]))
        with pytest.raises(DomainError):
            r.conditional_row(2.0)

    def test_marginal_totals_match_pmf(self):
        rng = np.random.default_rng(3)
        pmf = rng.random((3, 4))
        pmf /= pmf.sum()
        r = BivariateDist(np.arange(3.0), np.arange(4.0), pmf)
        p, q = r.marginal_x(), r.marginal_y()
        assert p.total_mass == pytest.approx(r.pmf.sum(), abs=1e-12)
        assert q.total_mass == pytest.approx(r.pmf.sum(), abs=1e-12)

    def test_rect_prob_empty_blocks_are_exactly_zero(self):
        # 2-D inclusion-exclusion on a prefix table gave -5.55e-17 for the
        # empty cell at rows [1, 1] x columns [2, 2]
        weights = [[1, 0, 0], [4, 1, 0], [0, 0, 3]]
        r = BivariateDist.from_weights([0, 1, 2], [0, 1, 2], weights)
        empty = 0
        for i0 in range(3):
            for i1 in range(i0, 3):
                for j0 in range(3):
                    for j1 in range(j0, 3):
                        if any(weights[i][j] for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)):
                            continue
                        empty += 1
                        mass = rect_prob(r, Interval.closed(i0, i1), Interval.closed(j0, j1))
                        assert mass == 0.0 and not np.signbit(mass)
        assert empty == 8


class TestValidationAndCanonical:
    def test_support_must_increase(self):
        with pytest.raises(InvalidDistributionError):
            UnivariateDist(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    def test_mass_must_sum_to_one(self):
        with pytest.raises(InvalidDistributionError):
            UnivariateDist(np.array([1.0]), np.array([0.5]))

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidDistributionError):
            UnivariateDist(np.array([0.0, 1.0]), np.array([1.5, -0.5]))

    def test_measure_mode_skips_total_check(self):
        m = UnivariateDist(np.array([0.0]), np.array([7.0]), is_probability=False)
        assert m.total_mass == 7.0

    def test_from_pairs_merges_duplicates(self):
        q = UnivariateDist.from_pairs([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        assert q.support.tolist() == [1.0, 2.0]
        assert q.probs.tolist() == [0.5, 0.5]

    def test_canonical_drops_zero_atoms(self):
        q = UnivariateDist.from_weights([1.0, 2.0, 3.0], [1, 0, 1])
        c = q.canonical()
        assert c.support.tolist() == [1.0, 3.0]
        assert c.weights.tolist() == [1, 1]

    def test_bivariate_canonical_drops_empty_rows_and_columns(self):
        r = BivariateDist.from_weights([1, 2, 3], [1, 2], [[1, 0], [0, 0], [0, 1]])
        c = r.canonical()
        assert c.x_support.tolist() == [1.0, 3.0]
        assert c.y_support.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("exact", [True, False])
    def test_bivariate_canonical_is_memoized(self, exact, monkeypatch):
        weights = [[0, 0, 0, 0], [1, 0, 2, 0], [0, 0, 0, 0], [0, 0, 3, 0]]
        r = BivariateDist.from_weights([1, 2, 3, 4], [1, 2, 3, 4], weights)
        if not exact:
            r = BivariateDist(r.x_support, r.y_support, r.pmf)
        c = r.canonical()
        with monkeypatch.context() as m:
            m.setattr(BivariateDist, "_drop_empty_atoms", None)  # a recomputation raises
            assert r.canonical() is c
            assert c.canonical() is c
        fresh = BivariateDist(r.x_support, r.y_support, r.pmf, r.weights).canonical()
        assert fresh is not c
        assert c.x_support.tolist() == fresh.x_support.tolist() == [2.0, 4.0]
        assert c.y_support.tolist() == fresh.y_support.tolist() == [1.0, 3.0]
        assert c.pmf.tobytes() == fresh.pmf.tobytes()
        assert weight_list(c) == weight_list(fresh)

    def test_canonical_instance_is_its_own_memo(self, monkeypatch):
        r = BivariateDist.from_weights([1, 2], [1, 2], [[1, 0], [0, 1]])
        assert r.canonical() is r
        monkeypatch.setattr(BivariateDist, "_drop_empty_atoms", None)
        assert r.canonical().canonical() is r

    def test_immutable_arrays(self):
        q = coin()
        with pytest.raises(ValueError):
            q.probs[0] = 0.9

    def test_weights_must_match_probs(self):
        with pytest.raises(InvalidDistributionError):
            UnivariateDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]), (3, 1))

    def test_weights_alone_give_the_floats(self):
        q = UnivariateDist([1.0, 2.0, 3.0], None, (1, 3, 1))
        assert q.probs.tolist() == [1 / 5, 3 / 5, 1 / 5] and q.weights.tolist() == [1, 3, 1]
        r = BivariateDist([1.0, 2.0], [1.0, 2.0], None, [[1, 0], [2, 4]])
        assert r.pmf.tolist() == [[1 / 7, 0.0], [2 / 7, 4 / 7]] and r.weights.tolist() == [[1, 0], [2, 4]]
        with pytest.raises(InvalidDistributionError):
            UnivariateDist([1.0, 2.0], None)

    @pytest.mark.parametrize("build", [
        lambda: BivariateDist.from_weights([1, 2], [1, 2], 5),
        lambda: BivariateDist.from_weights([1, 2], [1, 2], [5, 6]),
        lambda: UnivariateDist.from_weights([1, 2], 5),
        lambda: UnivariateDist([1, 2], [0.5, 0.5], 5),
        lambda: BivariateDist([1, 2], [1, 2], np.full((2, 2), 0.25), 5),
    ], ids=["bivariate-number", "bivariate-flat", "univariate-number", "univariate-class",
            "bivariate-class"])
    def test_weights_that_are_not_sequences_are_a_shape_error(self, build):
        with pytest.raises(InvalidDistributionError, match="weights shape does not match the support"):
            build()

    @pytest.mark.parametrize("cls, arrays, rest", [
        (GridSignedMeasure, lambda g: [g, g.copy(), np.array([[0.5, -0.5], [0.0, 0.0]])], []),
        (IsotonicDensity, lambda g: [g, np.array([0.25, 0.5])], ["minimal"]),
        (Kernel, lambda g: [g], [(coin(), coin()), "west"]),
        (Boundaries, lambda g: [g, g.copy(), g.copy(), np.array([True, False]), np.array([True, True])], []),
        (ConditionalDensity, lambda g: [g, np.array([0.25, 0.5])], [0.5]),
        (UnivariateDist, lambda g: [g, np.array([0.5, 0.5]), np.array([1, 1], dtype=object)], []),
        (BivariateDist, lambda g: [g, g.copy(), np.full((2, 2), 0.25), np.ones((2, 2), dtype=object)],
         []),
    ], ids=["GridSignedMeasure", "IsotonicDensity", "Kernel", "Boundaries", "ConditionalDensity",
            "UnivariateDist", "BivariateDist"])
    def test_stored_arrays_are_frozen_copies(self, cls, arrays, rest):
        given = arrays(np.array([0.0, 1.0]))
        built = cls(*given, *rest)
        for a, f in zip(given, dataclasses.fields(cls)):
            stored = getattr(built, f.name)
            assert a.flags.writeable and not stored.flags.writeable
            assert not np.shares_memory(a, stored)


class TestIO:
    def test_univariate_csv_roundtrip(self, tmp_path):
        q = UnivariateDist.from_pairs([0.5, 1.5], [0.25, 0.75])
        path = tmp_path / "q.csv"
        write_univariate_csv(q, path)
        back = read_univariate_csv(path)
        assert back.support.tolist() == q.support.tolist()
        assert back.probs.tolist() == q.probs.tolist()

    def test_univariate_csv_exact_mode(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("value,prob\n0,0.25\n1,0.75\n")
        q = read_univariate_csv(path, exact=True)
        assert q.weights.tolist() == [1, 3]

    def test_bivariate_csv_roundtrip(self, tmp_path):
        r = BivariateDist.from_weights([1, 2], [3, 4], [[1, 0], [1, 2]])
        path = tmp_path / "r.csv"
        write_bivariate_csv(r, path)
        back = read_bivariate_csv(path)
        assert back.x_support.tolist() == [1.0, 2.0]
        assert np.allclose(back.pmf, r.pmf)

    def test_json_roundtrip_with_weights(self, tmp_path):
        q = UnivariateDist.from_weights([0, 1], [1, 2])
        path = tmp_path / "q.json"
        path.write_text(json.dumps(q.to_dict()))
        back = load_univariate(path)
        assert back.weights.tolist() == [1, 2]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(InvalidDistributionError):
            read_univariate_csv(path)

    def test_bivariate_json(self, tmp_path):
        r = BivariateDist.from_weights([1, 2], [1, 2], [[1, 0], [0, 1]])
        path = tmp_path / "r.json"
        path.write_text(json.dumps(r.to_dict()))
        back = load_bivariate(path)
        assert back.weights.tolist() == [[1, 0], [0, 1]]


# Coordinates with duplicates, both signed zeros and extreme magnitudes, drawn
# in any order; masses with exact zeros of both signs and tiny and huge values.
COORDS = st.sampled_from([-0.0, 0.0, 0.25, -1.5, 3.0, 1e300, -1e-300, 5e-324, 7.0])
MASSES = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 1 / 3, 5e-324, 1e-300, 1e300]),
                   st.floats(0.0, 1e6))
WEIGHTS = st.one_of(st.integers(0, 3), st.integers(0, 2**70), st.just(10**33))


def _differing(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Positions where two float64 arrays of one shape differ in their bytes."""
    assert new.shape == old.shape
    return np.flatnonzero(new.view(np.int64) != old.view(np.int64))


def _assert_support_matches(new: np.ndarray, old: np.ndarray, column) -> None:
    """Supports equal byte for byte, except which zero stands for a column
    holding both -0.0 and +0.0: the loops kept the first in input order,
    ``np.unique`` keeps the one its sort puts first."""
    d = _differing(new, old)
    assert (new[d] == 0).all() and (old[d] == 0).all()
    if d.size:
        signs = {bool(np.signbit(v)) for v in column if v == 0}
        assert signs == {False, True}


class TestAtomGrid:
    """The constructors equal the loops they replaced, byte for byte."""

    @given(st.lists(st.tuples(COORDS, MASSES), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_univariate_from_pairs_equals_the_merge_loop(self, pairs):
        values, masses = [v for v, _ in pairs], [m for _, m in pairs]
        q = UnivariateDist.from_pairs(values, masses, is_probability=False)
        vals, ms = merge_pairs_by_loop(values, masses)
        _assert_support_matches(q.support, np.array(vals), values)
        # The one mass difference: a cell whose masses are all -0.0 kept -0.0
        # in the loop and sums to +0.0 onto the zero-initialized grid.
        old = np.array(ms, dtype=np.float64)
        d = _differing(q.probs, old)
        assert (old[d] == 0).all() and np.signbit(old[d]).all()
        assert (q.probs[d] == 0).all() and not np.signbit(q.probs[d]).any()

    def test_all_negative_zero_masses_sum_to_positive_zero(self):
        q = UnivariateDist.from_pairs([1.0, 2.0, 1.0], [-0.0, 1.0, -0.0], is_probability=False)
        vals, ms = merge_pairs_by_loop([1.0, 2.0, 1.0], [-0.0, 1.0, -0.0])
        assert np.signbit(ms[0]) and not np.signbit(q.probs[0])

    @given(st.lists(st.tuples(COORDS, WEIGHTS), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_univariate_from_weights_equals_the_merge_loop(self, pairs):
        values, weights = [v for v, _ in pairs], [w for _, w in pairs]
        if not any(weights):
            weights[0] = 1
        q = UnivariateDist.from_weights(values, weights, is_probability=False)
        vals, ws = merge_pairs_by_loop(values, weights)
        _assert_support_matches(q.support, np.array(vals), values)
        assert q.weights.dtype == object and all(type(w) is int for w in q.weights)
        assert q.weights.tolist() == ws
        total = sum(ws)
        assert q.probs.tobytes() == np.array([w / total for w in ws]).tobytes()

    @given(st.lists(st.tuples(COORDS, COORDS, MASSES), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_bivariate_from_pairs_equals_the_dict_loop(self, cells):
        xs, ys, masses = (list(c) for c in zip(*cells))
        r = BivariateDist.from_pairs(xs, ys, masses, is_probability=False)
        gx, gy, pmf = grid_by_dict(xs, ys, masses)
        _assert_support_matches(r.x_support, gx, xs)
        _assert_support_matches(r.y_support, gy, ys)
        assert r.pmf.tobytes() == pmf.tobytes()

    @given(st.lists(st.tuples(COORDS, COORDS, WEIGHTS), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_exact_bivariate_csv_equals_the_dict_loop(self, cells):
        xs, ys, weights = (list(c) for c in zip(*cells))
        if not any(weights):
            weights[0] = 1
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("x,y,prob\n")
                fh.writelines(f"{x!r},{y!r},{w}\n" for x, y, w in zip(xs, ys, weights))
            r = read_bivariate_csv(path, exact=True)
        gx, gy, grid = grid_by_dict(xs, ys, weights, dtype=object)
        _assert_support_matches(r.x_support, gx, xs)
        _assert_support_matches(r.y_support, gy, ys)
        assert r.weights.dtype == object and all(type(w) is int for w in r.weights.flat)
        assert r.weights.tolist() == grid.tolist()
        ref = BivariateDist.from_weights(gx, gy, grid.tolist(), is_probability=False)
        assert r.pmf.tobytes() == ref.pmf.tobytes()

    def test_negative_mass_offset_by_a_duplicate_is_rejected(self):
        # the merge loops summed first and accepted the nonnegative total
        with pytest.raises(InvalidDistributionError):
            UnivariateDist.from_pairs([1.0, 1.0, 2.0], [-0.5, 1.0, 0.5])
        with pytest.raises(InvalidDistributionError):
            UnivariateDist.from_weights([0.0, 0.0, 1.0], [-1, 1, 1])
        with pytest.raises(InvalidDistributionError):
            BivariateDist.from_pairs([1.0, 1.0], [2.0, 2.0], [-0.5, 1.5])

    @pytest.mark.parametrize("coords, masses", [
        ([[[1.0, 2.0], [3.0, 4.0]]], [0.5, 0.5]),
        ([[[1.0, 2.0], [3.0, 4.0]]], [0.25, 0.25, 0.25, 0.25]),
        ([[1.0, 2.0], [1.0]], [0.5, 0.5]),
        ([[1.0, 2.0, 3.0]], [0.5, 0.5]),
        ([[[1.0], [2.0, 3.0]]], [0.5, 0.5]),
        ([[{}, 1.0]], [0.5, 0.5]),
        ([["a", 1.0]], [0.5, 0.5]),
    ], ids=["nested", "nested-flat-length", "short-column", "long-column", "ragged", "dict",
            "text"])
    def test_rejects_columns_that_are_not_flat_and_as_long_as_the_masses(self, coords, masses):
        with pytest.raises(InvalidDistributionError):
            _atom_grid(coords, masses)


# Cell masses with exact zeros, tiny and huge values; weights up to 3**45,
# which no float holds exactly.
CELL_FLOATS = st.one_of(st.just(0.0), st.sampled_from([1e-300, 1 / 3, 1e300]), st.floats(0.0, 1e3))
CELL_WEIGHTS = st.one_of(st.just(0), st.integers(0, 9), st.just(3**45))
#: interval endpoints around the atoms 1..6
ENDS = st.sampled_from([-np.inf, 0.5, 1.0, 2.0, 2.5, 4.0, 6.0, 7.0, np.inf])


@st.composite
def mode_grids(draw, ndim: int):
    """A weighted or float distribution on atoms 1, 2, ...: whole rows and
    columns (or atoms) may be zero, and the masses may form a finite measure
    (``is_probability=False``) that is not normalized."""
    exact = draw(st.booleans())
    is_probability = draw(st.booleans())
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    cells = np.array(draw(st.lists(CELL_WEIGHTS if exact else CELL_FLOATS,
                                   min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                     dtype=object if exact else np.float64).reshape(shape)
    for axis in range(ndim):
        for i in draw(st.sets(st.integers(0, shape[axis] - 1), max_size=shape[axis] - 1)):
            np.moveaxis(cells, axis, 0)[i] = 0
    if not cells.any():
        cells[(0,) * ndim] = 1
    if not exact and is_probability:
        cells = cells / cells.sum()
    atoms = [np.arange(1.0, n + 1.0) for n in shape]
    if exact:
        build = UnivariateDist.from_weights if ndim == 1 else BivariateDist.from_weights
        return build(*atoms, cells.tolist(), is_probability=is_probability)
    return (UnivariateDist if ndim == 1 else BivariateDist)(*atoms, cells, None, is_probability)


def outcome(f, *args):
    """``f(*args)``, or the type of the error it raises."""
    try:
        return f(*args)
    except (DomainError, InvalidDistributionError) as exc:
        return type(exc)


def assert_same(new, old) -> None:
    """Equal results: the same error type, or the same class, supports,
    float masses byte for byte, integer weights and ``is_probability``."""
    assert type(new) is type(old)
    if isinstance(new, type):
        return
    arrays = ("support", "probs") if isinstance(new, UnivariateDist) else ("x_support", "y_support", "pmf")
    for name in arrays:
        a, b = getattr(new, name), getattr(old, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert weight_list(new) == weight_list(old) and new.is_probability == old.is_probability
    if new.weights is not None:
        assert all(type(w) is int for w in new.weights.flat)


class TestOneMassPath:
    """Each class reads its masses in its own mode once and builds on one
    path; the results equal the per-mode bodies that path replaced."""

    @given(mode_grids(2))
    @settings(max_examples=300, deadline=None)
    def test_bivariate_equals_the_per_mode_bodies(self, r):
        assert r.mode == ("float" if r.weights is None else "exact")
        assert_same(outcome(BivariateDist.canonical, r), outcome(drop_empty_atoms_by_mode, r))
        assert_same(outcome(BivariateDist.marginal_x, r), outcome(marginal_x_by_mode, r))
        assert_same(outcome(BivariateDist.marginal_y, r), outcome(marginal_y_by_mode, r))
        for i, x in enumerate(r.x_support.tolist()):
            assert_same(outcome(r.conditional_row, x), outcome(conditional_row_by_mode, r, i))
        assert_same(outcome(refine_grid, r), outcome(refine_grid_by_mode, r))

    @given(mode_grids(1), st.lists(st.tuples(ENDS, ENDS, st.booleans(), st.booleans()), max_size=4))
    # truncated to [1, 2], (1/5) / (4/5) is 0.25 and (3/5) / (4/5) is 0.7499999999999999,
    # not the 0.75 of 3 / 4: truncate keeps the renormalized floats
    @example(UnivariateDist.from_weights([1.0, 2.0, 3.0], [1, 3, 1]), [(1.0, 2.0, True, True)])
    @settings(max_examples=300, deadline=None)
    def test_univariate_equals_the_per_mode_bodies(self, q, ends):
        assert q.mode == ("float" if q.weights is None else "exact")
        assert_same(outcome(UnivariateDist.canonical, q), outcome(canonical_by_mode, q))
        intervals = [Interval(a, b, lc and abs(a) < np.inf, rc and abs(b) < np.inf)
                     for a, b, lc, rc in ends if a <= b]
        for iv in intervals:
            assert_same(outcome(truncate, q, iv), outcome(truncate_by_mode, q, iv))


def _empty_parts() -> BivariateDist:
    """A weighted grid with an empty row, an empty column and an empty cell."""
    return BivariateDist.from_weights([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                                      [[1, 0, 2], [0, 0, 0], [3, 0, 1]])


def _tp2_weights() -> BivariateDist:
    """A TP2 weighted grid whose ``kernel_new`` has truncated rows and a
    point-mass row at its default points."""
    return BivariateDist.from_weights([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [[2, 1, 0], [1, 1, 0], [0, 1, 3]])


def _weight_pair() -> tuple[UnivariateDist, UnivariateDist]:
    return (UnivariateDist.from_weights([1.0, 2.0, 3.0], [1, 0, 2]),
            UnivariateDist.from_weights([2.0, 3.0, 4.0], [1, 2, 3]))


#: (setup, exact build) of the builds from user input: the setup runs
#: before the checks are counted
USER_INPUT_BUILDS = {
    "univariate-from-weights": (lambda: None,
                                lambda _: UnivariateDist.from_weights([2.0, 1.0, 2.0], [1, 2, 3])),
    "bivariate-from-weights": (lambda: None, lambda _: _empty_parts()),
    "univariate-from-dict": (lambda: {"support": [2, 1], "probs": ["0.25", "0.75"]},
                             lambda d: UnivariateDist.from_dict(d, exact=True)),
    "bivariate-from-dict": (lambda: {"x_support": [1, 2], "y_support": [1, 2],
                                     "pmf": [["0.1", "0.2"], ["0.3", "0.4"]]},
                            lambda d: BivariateDist.from_dict(d, exact=True)),
    # counts drawn by the package, handed to the public constructor
    "sample-counts": (lambda: _empty_parts().canonical(), lambda r: sample_counts(r, 50, 3)),
}

#: (setup, exact build) of the builds from a checked distribution
DERIVED_BUILDS = {
    "univariate-canonical": (lambda: _weight_pair()[0], UnivariateDist.canonical),
    "bivariate-canonical": (_empty_parts, BivariateDist.canonical),
    "marginal-x": (_empty_parts, BivariateDist.marginal_x),
    "marginal-y": (_empty_parts, BivariateDist.marginal_y),
    "conditional-row-zero-cell": (_empty_parts, lambda r: r.conditional_row(1.0)),
    "refine-grid": (lambda: _empty_parts().canonical(), refine_grid),
    "truncate": (lambda: _weight_pair()[1], lambda q: truncate(q, Interval.closed(2.5, 4.0))),
    "kernel-new-rows": (lambda: _tp2_weights().canonical(), lambda r: kernel_new(r, mode="exact")),
    "kernel-west-rows": (lambda: _tp2_weights().canonical(), kernel_west),
    "roc-curve": (_weight_pair, lambda pair: roc_curve(*pair)),
    "odc-curve": (_weight_pair, lambda pair: odc_curve(*pair)),
}


class TestOneWeightCheck:
    """Integer weights are checked once, where they enter the package: a
    build from user input checks them exactly once, in the class
    constructor, and a build from a checked distribution (whose weights were
    checked when it was built) runs no constructor check at all."""

    @pytest.mark.parametrize("name", sorted(USER_INPUT_BUILDS.keys() | DERIVED_BUILDS.keys()))
    def test_one_check_per_build(self, name, monkeypatch):
        derived = name in DERIVED_BUILDS
        setup, build = (DERIVED_BUILDS if derived else USER_INPUT_BUILDS)[name]
        made = setup()
        calls, built = [], []
        check = distributions._checked_weights
        monkeypatch.setattr(distributions, "_checked_weights",
                            lambda *args: calls.append(args) or check(*args))
        for cls in (UnivariateDist, BivariateDist, RocCurve, OdcCurve):
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, real=cls.__post_init__: built.append(self) or real(self))
        out = build(made)
        if derived:
            assert out is not made and calls == built == []
        else:
            assert len(calls) == 1 and out.weights.tolist() == check(*calls[0])[0].tolist()


def _fields(obj) -> tuple:
    """Every field of a distribution or curve, arrays as dtype, shape,
    writeability and bytes (an object array's items by ``repr``), the rest
    by ``repr``, which tells -0.0 from 0.0 and a numpy float from a Python
    one; and a distribution's cumulative masses, computed when first read."""
    out = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            data = repr(value.tolist()) if value.dtype == object else value.tobytes()
            value = (value.dtype.str, value.shape, value.flags.writeable, data)
        out.append(repr(value))
    if isinstance(obj, UnivariateDist):
        out += [obj._cum.tobytes(), obj._suffix.tobytes()]
    return tuple(out)


def _run(build):
    """``build()``, or the class and message of the package error it raises."""
    try:
        return build()
    except StochOrderError as exc:
        return type(exc), str(exc)


def _same(derived, public) -> None:
    if isinstance(public, tuple):
        assert derived == public
    else:
        assert type(derived) is type(public) and _fields(derived) == _fields(public)


@contextlib.contextmanager
def checked_against_the_constructor():
    """Every derived build, of a distribution or a curve, also built by the
    public class constructor on the same arrays; the two must give equal
    fields bit for bit, or raise the same error.  Yields the list of builds
    compared."""
    compared = []
    real_derived, real_trusted = distributions._derived, roc._trusted

    def derived(cls, supports, floats, weights=None, is_probability=True):
        public = _run(lambda: cls(*supports, floats, weights, is_probability))
        got = _run(lambda: real_derived(cls, supports, floats, weights, is_probability))
        _same(got, public)
        compared.append(cls)
        if isinstance(got, tuple):
            raise got[0](got[1])
        return got

    def trusted(cls, *values):
        got = real_trusted(cls, *values)
        _same(got, _run(lambda: cls(*values)))
        compared.append(cls)
        return got

    with pytest.MonkeyPatch.context() as m:
        for module in (distributions, orders, kuiper, tp2):
            m.setattr(module, "_derived", derived)
        m.setattr(roc, "_trusted", trusted)
        yield compared


#: float totals at and just inside or outside 1 +- MASS_TOL
EDGE_TOTALS = st.sampled_from([1.0, 1 - 1e-9, 1 + 1e-9, 1 - 0.999e-9, 1 + 0.999e-9, 1 - 1.001e-9,
                               1 + 1.001e-9])


@st.composite
def edge_grids(draw, ndim: int):
    """``mode_grids``, and float probabilities rescaled to a total at the
    edge of ``MASS_TOL`` where the constructor accepts them."""
    d = draw(mode_grids(ndim))
    if d.weights is not None or not d.is_probability or not draw(st.booleans()):
        return d
    masses = d.probs if ndim == 1 else d.pmf
    scaled = masses / masses.sum() * draw(EDGE_TOTALS)
    assume(abs(float(scaled.sum()) - 1.0) <= distributions.MASS_TOL)
    return (UnivariateDist(d.support, scaled) if ndim == 1
            else BivariateDist(d.x_support, d.y_support, scaled))


class TestDerivedBuilds:
    """Each build from a checked distribution equals the public constructor
    on the same arrays, bit for bit, or raises what it raises."""

    @given(edge_grids(2))
    @settings(max_examples=300, deadline=None)
    def test_bivariate_builds(self, r):
        with checked_against_the_constructor() as compared:
            for build in (BivariateDist.canonical, BivariateDist.marginal_x, BivariateDist.marginal_y,
                          refine_grid, kernel_west, kernel_east):
                _run(lambda: build(r))
            _run(lambda: kernel_new(r, mode=r.mode))
            for x in r.x_support.tolist():
                _run(lambda: r.conditional_row(x))
        assert compared

    @given(edge_grids(1), edge_grids(1),
           st.lists(st.tuples(ENDS, ENDS, st.booleans(), st.booleans()), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_univariate_builds_and_curves(self, q1, q2, ends):
        intervals = [Interval(a, b, lc and abs(a) < np.inf, rc and abs(b) < np.inf)
                     for a, b, lc, rc in ends if a <= b]
        with checked_against_the_constructor() as compared:
            _run(q1.canonical)
            for iv in intervals:
                _run(lambda: truncate(q1, iv))
            for curve in (roc_curve, odc_curve):
                _run(lambda: curve(q1, q2))
        assert RocCurve in compared and OdcCurve in compared


def _representations(weights: list) -> dict:
    """The same integer weights (nested lists) in every form the builders
    take: lists, tuples, int64 and uint64 arrays, object arrays of Python
    ints or of numpy ints, and integral floats, each where it holds them."""
    flat = np.ravel(np.array(weights, dtype=object)).tolist()
    tuples = tuple(map(tuple, weights)) if isinstance(weights[0], list) else tuple(weights)
    forms = {"list": weights, "tuple": tuples, "object": np.array(weights, dtype=object)}
    if max(flat) < 2**63:
        forms["int64"] = np.array(weights, dtype=np.int64)
        forms["int64-scalars"] = np.empty(np.shape(weights), dtype=object)
        forms["int64-scalars"].flat = list(forms["int64"].flat)  # numpy int objects
    if max(flat) < 2**64:
        forms["uint64"] = np.array(weights, dtype=np.uint64)
    if all(float(w) == w for w in flat):
        forms["float-list"] = np.array(weights, dtype=np.float64).tolist()
        forms["float64"] = np.array(weights, dtype=np.float64)
    return forms


#: per-cell weights m << shift: totals of 1 to 6 cells on either side of
#: 2^53 (shift 33) and of 2^63 (shifts 42 and 43); an odd offset makes a
#: weight that no float holds
SHIFTS = st.sampled_from([0, 30, 33, 42, 43, 44])


class TestWeightArray:
    """Exact weights are one read-only object array of Python ints, shaped
    like the float masses, whatever form they were given in."""

    @given(st.booleans(), st.integers(1, 3), st.integers(1, 2), SHIFTS, st.data())
    @example(True, 2, 1, 52, None)
    @settings(max_examples=300, deadline=None)
    def test_every_form_builds_the_same_distribution(self, bivariate, nx, ny, shift, data):
        n = nx * ny if bivariate else nx
        if data is None:  # two weights 2^52 + 1 and 2^52: a total past 2^53
            flat = [2**52 + 1, 2**52][:n] + [0] * max(0, n - 2)
        else:
            flat = data.draw(st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 1)),
                                      min_size=n, max_size=n)
                             .map(lambda c: [m << shift | odd for m, odd in c]).filter(any))
        weights = np.array(flat, dtype=object).reshape(nx, ny).tolist() if bivariate else flat
        atoms = [float(i) for i in range(nx)], [float(j) for j in range(ny)]
        build = ((lambda w: BivariateDist.from_weights(*atoms, w)) if bivariate
                 else lambda w: UnivariateDist.from_weights(atoms[0], w))
        ref = build(weights)
        total = sum(flat)
        masses = ref.pmf if bivariate else ref.probs
        assert masses.tobytes() == np.array([w / total for w in flat]).reshape(masses.shape).tobytes()
        assert ref.weights.tolist() == weights and ref.weights.shape == masses.shape
        for name, form in _representations(weights).items():
            got = build(form)
            assert got.weights.tolist() == weights, name
            assert all(type(w) is int for w in got.weights.flat), name
            assert (got.pmf if bivariate else got.probs).tobytes() == masses.tobytes(), name
            supports = ("x_support", "y_support") if bivariate else ("support",)
            assert all(getattr(got, a).tobytes() == getattr(ref, a).tobytes() for a in supports), name

    def test_cells_and_masses_return_the_stored_array(self):
        r = BivariateDist.from_weights([1.0, 2.0], [1.0, 2.0], np.array([[1, 2], [3, 4]]))
        assert r.cells("exact") is r.weights and not r.weights.flags.writeable
        assert r.weights.dtype == object and r.weights.shape == r.pmf.shape
        q = r.marginal_x()
        assert q.masses("exact") is q.weights and not q.weights.flags.writeable

    def test_weights_sum_to_a_python_int(self):
        big = 2**70
        r = BivariateDist.from_weights([1.0, 2.0], [1.0], np.array([[big], [1]], dtype=object))
        assert type(r.weights.sum()) is int and r.weights.sum() == big + 1
        q = UnivariateDist.from_weights([1.0, 2.0], np.array([3, 4], dtype=np.int64))
        assert type(q.weights.sum()) is int and q.weights.sum() == 7

    @pytest.mark.parametrize("build", [
        lambda: UnivariateDist.from_weights([1.0, 2.0], [True, 1]),
        lambda: UnivariateDist.from_weights([1.0, 2.0], np.array([True, False])),
        lambda: UnivariateDist.from_weights([1.0, 2.0], [1.5, 1]),
        lambda: UnivariateDist.from_weights([1.0, 2.0], np.array([1.0, np.nan])),
        lambda: BivariateDist.from_weights([1.0], [1.0, 2.0], [[1, "1"]]),
        lambda: BivariateDist.from_weights([1.0], [1.0, 2.0], np.array([[1, 2]], dtype=np.float32) + 0.5),
    ], ids=["bool", "bool-array", "fraction", "nan-array", "text", "fractional-float32-array"])
    def test_non_integers_are_rejected(self, build):
        with pytest.raises(InvalidDistributionError, match="weights must be integers"):
            build()

    @pytest.mark.parametrize("weights", [[[1, 2], [3]], [[1], [2, 3]], 7, "12"],
                             ids=["ragged-short", "ragged-long", "number", "text"])
    def test_ragged_rows_and_scalars_are_shape_errors(self, weights):
        with pytest.raises(InvalidDistributionError, match="weights shape does not match the support"):
            BivariateDist.from_weights([1.0, 2.0], [1.0, 2.0], weights)
