import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    BivariateDist,
    DomainError,
    InvalidDistributionError,
    PreconditionError,
    bracket_check,
    empirical,
    quantile_curve,
    sample,
    uniform_convergence_check,
)
from stochorder import estimation
from stochorder.fixtures import antidiag, banded_tp2, diag_uniform
from helpers import cell_index_searchsorted, empirical_by_dict, random_supermodular_tp2


def product_2x2() -> BivariateDist:
    return BivariateDist.from_weights([1, 2], [1, 2], [[1, 1], [1, 1]])


def same_dist(a: BivariateDist, b: BivariateDist) -> bool:
    return (a.x_support.tolist() == b.x_support.tolist()
            and a.y_support.tolist() == b.y_support.tolist()
            and a.weights == b.weights
            and a.pmf.tobytes() == b.pmf.tobytes())


@st.composite
def sparse_dists(draw) -> BivariateDist:
    """Integer-weight grids with many zero cells, often whole zero rows and
    columns; every other grid drops its weights to exercise the float pmf."""
    l, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]), min_size=l * m, max_size=l * m))
    if not any(cells):
        cells[draw(st.integers(0, l * m - 1))] = 1
    rows = [cells[i * m:(i + 1) * m] for i in range(l)]
    xs = sorted(draw(st.sets(st.integers(-50, 50), min_size=l, max_size=l)))
    ys = sorted(draw(st.sets(st.integers(-50, 50), min_size=m, max_size=m)))
    r = BivariateDist.from_weights([x / 4 for x in xs], [y / 8 for y in ys], rows)
    if draw(st.booleans()):
        r = BivariateDist(r.x_support, r.y_support, r.pmf)
    return r


class TestSampling:
    def test_single_draw_from_point_mass(self):
        r = BivariateDist.from_weights([0.0], [0.0], [[1]])
        draws = sample(r, 1, 0)
        assert draws.tolist() == [[0.0, 0.0]]
        emp = empirical(draws)
        assert emp.pmf.tolist() == [[1.0]]

    def test_uniform_frequencies_concentrate(self):
        r = BivariateDist.from_weights([1, 2, 3], [1, 2, 3], [[1] * 3] * 3)
        draws = sample(r, 100_000, 42)
        emp = empirical(draws)
        assert emp.shape == (3, 3)
        assert np.all(np.abs(emp.pmf - 1.0 / 9.0) < 0.01)

    def test_empirical_weights_sum_to_sample_size(self):
        r = diag_uniform(4)
        draws = sample(r, 1234, 7)
        emp = empirical(draws)
        assert emp.total_weight == 1234

    def test_deterministic_per_seed(self):
        r = diag_uniform(3)
        a = sample(r, 50, 99)
        b = sample(r, 50, 99)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, sample(r, 50, 100))

    def test_negative_seeds_are_named(self):
        for seed in (-1, (3, -1), (-2,), [5, -4], -(10**30)):
            with pytest.raises(DomainError, match=re.escape(f"seed must be nonnegative, got {seed!r}")):
                sample(diag_uniform(2), 5, seed)

    def test_sample_size_validated(self):
        for n in (0, -1, estimation.MAX_SAMPLE_SIZE + 1, 10**13):
            with pytest.raises(DomainError, match="sample size"):
                sample(diag_uniform(2), n, 1)

    @given(sparse_dists(), st.integers(1, 5000),
           st.one_of(st.integers(0, 2**32), st.tuples(st.integers(0, 1000), st.integers(0, 5))))
    @settings(max_examples=200, deadline=None)
    def test_counts_equal_empirical_of_the_draws(self, r, n, seed):
        assert same_dist(estimation._sample_counts(r, n, seed), empirical(sample(r, n, seed)))

    @given(st.lists(st.tuples(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, 1e300]),
                              st.integers(-3, 3).map(float)), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_empirical_equals_the_dict_oracle(self, pts):
        assert same_dist(empirical(pts), empirical_by_dict(pts))

    def test_empirical_rejects_nan_draws(self):
        for bad in ([[np.nan, 1.0]], [[1.0, 2.0], [1.0, np.nan]]):
            with pytest.raises(InvalidDistributionError):
                empirical(bad)


#: cell masses: zero cells are common, so zero runs form anywhere
CELL_MASSES = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 0.5, 7.0, 1e-9, 3e5])


@st.composite
def cell_masses(draw) -> np.ndarray:
    """Flat cell masses: general ones with zero cells first, last or in runs,
    a 1x1 grid, or one cell of mass 1 - 1e-12 beside many tiny ones."""
    kind = draw(st.sampled_from(["cells", "one", "skewed"]))
    if kind == "one":
        return np.ones(1)
    if kind == "skewed":
        k = draw(st.integers(2, 400))
        masses = np.full(k, 1e-12 / (k - 1))
        masses[draw(st.integers(0, k - 1))] = 1.0 - 1e-12
        return masses
    body = draw(st.lists(CELL_MASSES, min_size=1, max_size=80).filter(any))
    lead, run, trail = (draw(st.integers(0, 12)) for _ in range(3))
    at = draw(st.integers(0, len(body)))
    return np.array([0.0] * lead + body[:at] + [0.0] * run + body[at:] + [0.0] * trail)


def cumulative(masses: np.ndarray) -> np.ndarray:
    """The normalized cumulative pmf, built as ``_draw_cells`` builds it."""
    cum = np.cumsum(masses)
    return cum / cum[-1]


def edge_draws(cum: np.ndarray) -> np.ndarray:
    """0, the largest float below 1, and every cumulative value with both of
    its float neighbours, kept inside [0, 1)."""
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum,
                        np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestCellIndex:
    """The guide-table lookup gives the indices of the binary search."""

    @given(cell_masses(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
           st.integers(0, 2**32))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_searchsorted_oracle(self, masses, drawn, seed):
        cum = cumulative(masses)
        assert cum[-1] == 1.0
        u = np.concatenate([edge_draws(cum), drawn, np.random.default_rng(seed).random(300)])
        got = estimation._cell_index(cum, u)
        np.testing.assert_array_equal(got, cell_index_searchsorted(cum, u))

    def test_one_cell(self):
        u = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        assert estimation._cell_index(np.ones(1), u).tolist() == [0, 0, 0]

    @given(sparse_dists(), st.integers(1, 3000), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_stream_cells_equal_the_oracle(self, r, n, seed):
        canon, idx = estimation._draw_cells(r, n, seed)
        u = estimation._philox(seed).random(n)
        np.testing.assert_array_equal(idx, cell_index_searchsorted(cumulative(canon.pmf.ravel()), u))


class TestHarnessesCountCells:
    """The harnesses count cells from the stream; no float draws are built."""

    def test_reports_without_draw_arrays(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a harness built float draws")

        monkeypatch.setattr(estimation, "sample", forbidden)
        monkeypatch.setattr(estimation, "empirical", forbidden)
        rep = bracket_check(banded_tp2(5), {"n_list": [10, 1000], "seed": 3}, 0.5, 2.0, 4.0)
        assert len(rep.entries) == 2
        rep = uniform_convergence_check(diag_uniform(5), 0.5, (2.0, 4.0), [100], [1, 2])
        assert rep.sup_by_n()[100] == 0.0

    @pytest.mark.parametrize("n_list", [[100_000, 0], [5, -1], [0], [5, 10**13]])
    def test_sample_sizes_checked_before_any_draw(self, monkeypatch, n_list):
        drawn = []
        real = estimation._draw_cells
        monkeypatch.setattr(estimation, "_draw_cells",
                            lambda r, n, seed: drawn.append(n) or real(r, n, seed))
        with pytest.raises(DomainError, match="sample size"):
            bracket_check(diag_uniform(5), {"n_list": n_list, "seed": 1}, 0.5, 2.0, 4.0)
        with pytest.raises(DomainError, match="sample size"):
            uniform_convergence_check(diag_uniform(5), 0.5, (2.0, 4.0), n_list, [1])
        assert drawn == []


    def test_seeds_checked_before_any_draw(self, monkeypatch):
        drawn = []
        real = estimation._draw_cells
        monkeypatch.setattr(estimation, "_draw_cells",
                            lambda r, n, seed: drawn.append(seed) or real(r, n, seed))
        with pytest.raises(DomainError, match="seed must be nonnegative, got -3"):
            bracket_check(diag_uniform(5), {"n_list": [10], "seed": -3}, 0.5, 2.0, 4.0)
        with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
            uniform_convergence_check(diag_uniform(5), 0.5, (2.0, 4.0), [10], [1, 2, -1])
        assert drawn == []


class TestQuantileCurve:
    def test_diagonal_quantiles_are_the_diagonal(self):
        r = diag_uniform(3)
        atoms = [1.0, 2.0, 3.0]
        for flavor in ("west-min", "east-max"):
            curve = quantile_curve(r, 0.5, flavor, atoms)
            assert [q for _, q in curve.points] == atoms

    def test_product_curve_is_constant(self):
        r = product_2x2()
        curve = quantile_curve(r, 0.25, "west-min")
        qs = {q for _, q in curve.points}
        assert qs == {r.marginal_y().quantile(0.25)}

    def test_skew_example(self):
        r = BivariateDist(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                          np.array([[0.3, 0.1], [0.2, 0.4]]))
        curve = quantile_curve(r, 0.5, "west-min", [1.0, 2.0])
        assert curve.value_at(1.0) == 1.0  # conditional cdf 0.75 >= 0.5
        assert curve.value_at(2.0) == 2.0  # conditional cdf 1/3 < 0.5

    def test_beta_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                quantile_curve(diag_uniform(2), bad)

    def test_monotone_for_st_sources_and_west_below_east(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            r = random_supermodular_tp2(rng, 4, 4)
            for beta in (0.25, 0.5, 0.75):
                west = quantile_curve(r, beta, "west-min")
                east = quantile_curve(r, beta, "east-max")
                qw = [q for _, q in west.points]
                qe = [q for _, q in east.points]
                assert qw == sorted(qw)
                assert qe == sorted(qe)
                assert all(a <= b for a, b in zip(qw, qe))

    def test_step_structure_on_the_grid(self):
        # west rows extend rightward from each atom, east rows leftward
        r = diag_uniform(3)
        west = dict(quantile_curve(r, 0.5, "west-min").points)
        east = dict(quantile_curve(r, 0.5, "east-max").points)
        for atom, mid in ((1.0, 1.5), (2.0, 2.5)):
            assert west[mid] == west[atom]
            assert east[mid] == east[atom + 1.0]

    def test_empirical_flavor_matches_west_on_empirical_dist(self):
        r = banded_tp2(4)
        emp = empirical(sample(r, 500, 3))
        grid = emp.x_support.tolist()
        a = quantile_curve(emp, 0.5, "empirical", grid)
        b = quantile_curve(emp, 0.5, "west-min", grid)
        assert a.points == b.points
        # empirical quantiles stay within the observed atom range
        ys = emp.y_support.tolist()
        assert all(ys[0] <= q <= ys[-1] for _, q in a.points)


class TestBracketCheck:
    def test_diagonal_holds_with_zero_slack(self):
        rep = bracket_check(diag_uniform(5), {"n_list": [100, 10_000], "seed": 1},
                            0.5, 2.0, 4.0)
        assert rep.pass_rate == 1.0
        assert rep.q_west_x1 == 2.0
        assert rep.q_east_x2 == 4.0

    def test_product_holds_trivially(self):
        r = BivariateDist.from_weights([1, 2, 3], [1, 2], [[1, 1]] * 3)
        rep = bracket_check(r, {"n_list": [10, 100], "seed": 5}, 0.5, 1.5, 2.5)
        assert rep.pass_rate == 1.0

    def test_interior_points_enforced(self):
        with pytest.raises(DomainError):
            bracket_check(diag_uniform(3), {"n_list": [10], "seed": 1}, 0.5, 1.0, 3.0)

    def test_st_condition_precondition(self):
        with pytest.raises(PreconditionError):
            bracket_check(antidiag(), {"n_list": [10], "seed": 1}, 0.5, 1.2, 1.8)

    def test_reports_min_and_max_conventions(self):
        rep = bracket_check(banded_tp2(5), {"n_list": [1000], "seed": 2}, 0.5, 2.0, 4.0)
        e = rep.entries[0]
        assert e.q_emp_min_x1 <= e.q_emp_max_x1
        assert e.q_emp_min_x2 <= e.q_emp_max_x2

    def test_deterministic(self):
        kw = dict(beta=0.5, x1=2.0, x2=4.0)
        r1 = bracket_check(banded_tp2(5), {"n_list": [100, 1000], "seed": 11}, **kw)
        r2 = bracket_check(banded_tp2(5), {"n_list": [100, 1000], "seed": 11}, **kw)
        assert r1.to_dict() == r2.to_dict()


class TestUniformConvergence:
    def test_diagonal_reaches_zero(self):
        rep = uniform_convergence_check(diag_uniform(5), 0.5, (2.0, 4.0),
                                        [100, 10_000], [1, 2, 3])
        assert rep.grid == (2.0, 3.0, 4.0)
        assert rep.sup_by_n()[10_000] == 0.0

    def test_product_converges_via_marginal_quantile(self):
        r = BivariateDist.from_weights([1, 2, 3], [5, 7], [[3, 1]] * 3)
        rep = uniform_convergence_check(r, 0.5, (1.0, 3.0), [50_000], [4])
        assert rep.sup_by_n()[50_000] == 0.0

    def test_small_n_makes_no_claim(self):
        rep = uniform_convergence_check(diag_uniform(5), 0.5, (2.0, 4.0), [1], [9])
        assert rep.entries[0].sup_distance >= 0.0

    def test_precondition_violation_names_the_point(self):
        # a fair conditional row makes the min and max 0.5-quantiles differ
        r = BivariateDist.from_weights([1, 2, 3], [1, 2], [[1, 1]] * 3)
        with pytest.raises(PreconditionError) as err:
            uniform_convergence_check(r, 0.5, (1.0, 3.0), [10], [1])
        x, qw, qe = err.value.witness
        assert qw < qe

    def test_empty_window_rejected(self):
        with pytest.raises(DomainError):
            uniform_convergence_check(diag_uniform(3), 0.5, (10.0, 11.0), [10], [1])
