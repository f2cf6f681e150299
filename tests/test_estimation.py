import re
import tracemalloc

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
from stochorder.distributions import QUANTILE_ATOL, _quantile_index
from stochorder.fixtures import antidiag, banded_tp2, diag_uniform, random_tp2
from helpers import (cell_index_by_guide, cell_index_searchsorted, count_grid, count_grid_at_once,
                     empirical_by_dict, empirical_of_counts, random_supermodular_tp2, sample_at_once,
                     sample_counts, max_quantile, weight_list, west_quantiles_by_kernel)


def product_2x2() -> BivariateDist:
    return BivariateDist.from_weights([1, 2], [1, 2], [[1, 1], [1, 1]])


def same_dist(a: BivariateDist, b: BivariateDist) -> bool:
    return (a.x_support.tolist() == b.x_support.tolist()
            and a.y_support.tolist() == b.y_support.tolist()
            and weight_list(a) == weight_list(b)
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
        assert emp.weights.sum() == 1234

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
        assert same_dist(sample_counts(r, n, seed), empirical(sample(r, n, seed)))

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
    """The normalized cumulative pmf, built as ``_CellStreams`` builds it."""
    cum = np.cumsum(masses)
    return cum / cum[-1]


def edge_draws(cum: np.ndarray) -> np.ndarray:
    """0, the largest float below 1, and every cumulative value with both of
    its float neighbours, kept inside [0, 1)."""
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum,
                        np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf)])
    return u[(u >= 0.0) & (u < 1.0)]


#: sample sizes at and around multiples of the stream's block, and small ones
BLOCK_SIZES = st.one_of(
    st.sampled_from([1, estimation.BLOCK - 1, estimation.BLOCK, estimation.BLOCK + 1,
                     3 * estimation.BLOCK + 7]),
    st.integers(1, 3000))


class Replay:
    """A stand-in generator: ``random(out=...)`` fills ``out`` with the next
    of the given draws, in order."""

    def __init__(self, u):
        self.u, self.at = np.asarray(u, dtype=np.float64), 0

    def random(self, *, out):
        out[:] = self.u[self.at:self.at + out.size]
        self.at += out.size
        return out


def lifted(u: np.ndarray) -> np.ndarray:
    """The draws with the stream's rule for u = 0 applied: 0.0 becomes the
    smallest positive float."""
    return np.maximum(u, np.nextafter(0.0, 1.0))


def lookup(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``_cell_index`` of all the draws ``u`` at once, through ``cum``'s guide table."""
    guide = estimation._guide(cum, estimation._table_size(cum.size, u.size))
    return estimation._cell_index(cum, guide, u, (u * (guide.size - 1)).astype(np.intp))


def stream_cells(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The cells the stream's block loop maps the draws ``u`` to, joined."""
    gen = Replay(u)
    guide = estimation._guide(cum, estimation._table_size(cum.size, u.size))
    cells = np.concatenate(list(estimation._cell_blocks(cum, guide, u.size, gen)))
    assert gen.at == u.size
    return cells


class TestCellIndex:
    """The stream's guide-table lookup gives the indices of the binary search,
    block by block, and the stream the one-shot stream's cells."""

    @given(cell_masses(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
           BLOCK_SIZES, st.integers(0, 2**32))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_searchsorted_oracle(self, masses, drawn, n, seed):
        cum = cumulative(masses)
        assert cum[-1] == 1.0
        rng = np.random.default_rng(seed)
        pool = np.concatenate([edge_draws(cum), drawn, rng.random(300)])
        u = np.concatenate([pool, rng.choice(pool, n)])[:n]
        expected = cell_index_searchsorted(cum, lifted(u))
        np.testing.assert_array_equal(stream_cells(cum, u), expected)
        np.testing.assert_array_equal(lookup(cum, u), expected)
        np.testing.assert_array_equal(cell_index_by_guide(cum, lifted(u)), expected)

    def test_one_cell(self):
        u = np.resize([0.0, 0.5, np.nextafter(1.0, 0.0)], estimation.BLOCK + 1)
        assert not stream_cells(np.ones(1), u).any()
        r = BivariateDist.from_weights([2.0], [3.0], [[1]])
        assert sample(r, estimation.BLOCK + 1, 5).tolist() == [[2.0, 3.0]] * (estimation.BLOCK + 1)

    def test_blocks_of_a_larger_grid_hold_one_draw_per_cell(self):
        k = estimation.BLOCK + 3
        cum = cumulative(np.random.default_rng(3).random(k))
        u = np.resize(np.concatenate([edge_draws(cum), np.random.default_rng(4).random(5000)]), 2 * k + 1)
        guide = estimation._guide(cum, estimation._table_size(k, u.size))
        blocks = list(estimation._cell_blocks(cum, guide, u.size, Replay(u)))
        assert [idx.size for idx in blocks] == [k, k, 1]
        np.testing.assert_array_equal(np.concatenate(blocks), cell_index_searchsorted(cum, lifted(u)))

    @given(sparse_dists(), BLOCK_SIZES,
           st.one_of(st.integers(0, 2**32), st.tuples(st.integers(0, 1000), st.integers(0, 5))))
    @settings(max_examples=100, deadline=None)
    def test_counts_and_draws_equal_the_one_shot_stream(self, r, n, seed):
        canon, counts = count_grid(r, n, seed)
        oracle, expected = count_grid_at_once(r, n, seed)
        assert same_dist(canon, oracle)
        assert counts.dtype == expected.dtype and counts.tolist() == expected.tolist()
        draws = sample(r, n, seed)
        assert draws.shape == (n, 2) and draws.tobytes() == sample_at_once(r, n, seed).tobytes()

    @pytest.mark.parametrize("n", [3, estimation.BLOCK + 1])
    def test_zero_draws_take_the_first_cell_with_mass(self, monkeypatch, n):
        # antidiag's first cell (1, 1) has no mass; u = 0.0 must not land there
        monkeypatch.setattr(estimation, "_philox", lambda seed: Replay(np.zeros(n)))
        assert sample(antidiag(), n, 0).tolist() == [[1.0, 2.0]] * n
        canon, counts = count_grid(antidiag(), n, 0)
        assert (canon.x_support.tolist(), canon.y_support.tolist()) == ([1.0, 2.0], [1.0, 2.0])
        assert counts.tolist() == [[0, n], [0, 0]]

    def test_count_memory_is_bounded(self):
        # drawing 10**6 cells at once held about 25 MB of n-sized arrays; the
        # block loop holds one block and the guide table, and sample its output
        r = random_tp2(np.random.default_rng(20), 20, 20)
        for call, bound in ((lambda: count_grid(r, 10**6, 1), 0),
                            (lambda: sample(r, 10**5, 1), 16 * 10**5)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound + 2 * 2**20, peak


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
        real = estimation._CellStreams.blocks
        monkeypatch.setattr(estimation._CellStreams, "blocks",
                            lambda self, n, seed: drawn.append(n) or real(self, n, seed))
        with pytest.raises(DomainError, match="sample size"):
            bracket_check(diag_uniform(5), {"n_list": n_list, "seed": 1}, 0.5, 2.0, 4.0)
        with pytest.raises(DomainError, match="sample size"):
            uniform_convergence_check(diag_uniform(5), 0.5, (2.0, 4.0), n_list, [1])
        assert drawn == []


    @pytest.mark.parametrize("harness", ["bracket", "uniform"])
    def test_one_cumulative_pmf_and_one_guide_table_per_size(self, monkeypatch, harness):
        """A harness call computes the truth's cumulative pmf once and builds
        one guide table per distinct table size; each stream's counts equal
        a fresh count of that stream."""
        r = banded_tp2(5)
        # 25 cells: tables of 25, 200 and 200 buckets for these sizes
        n_list = [10, 1000, 5000]
        streams, guides, counted = [], [], []
        init, guide, counts = (estimation._CellStreams.__init__, estimation._guide,
                               estimation._CellStreams.counts)
        monkeypatch.setattr(estimation._CellStreams, "__init__",
                            lambda self, r: streams.append(r) or init(self, r))
        monkeypatch.setattr(estimation, "_guide", lambda cum, m: guides.append(m) or guide(cum, m))
        monkeypatch.setattr(estimation._CellStreams, "counts", lambda self, n, seed: counted.append(
            (self.r, n, seed, counts(self, n, seed))) or counted[-1][-1])
        if harness == "bracket":
            bracket_check(r, {"n_list": n_list, "seed": 3}, 0.5, 2.0, 4.0)
        else:
            uniform_convergence_check(r, 0.5, (2.0, 4.0), n_list, [1, 2])
        monkeypatch.undo()
        assert len(streams) == 1 and guides == [25, 200]
        assert len(counted) == len(n_list) * (1 if harness == "bracket" else 2)
        for canon, n, seed, got in counted:
            expected = sample_counts(r, n, seed)
            assert same_dist(empirical_of_counts(canon.x_support, canon.y_support, got), expected)

    def test_seeds_checked_before_any_draw(self, monkeypatch):
        drawn = []
        real = estimation._CellStreams.blocks
        monkeypatch.setattr(estimation._CellStreams, "blocks",
                            lambda self, n, seed: drawn.append(seed) or real(self, n, seed))
        with pytest.raises(DomainError, match="seed must be nonnegative, got -3"):
            bracket_check(diag_uniform(5), {"n_list": [10], "seed": -3}, 0.5, 2.0, 4.0)
        with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
            uniform_convergence_check(diag_uniform(5), 0.5, (2.0, 4.0), [10], [1, 2, -1])
        assert drawn == []


#: quantile levels: at and below ``QUANTILE_ATOL`` (a level of 0 or less),
#: near 1, on exact shares, and anywhere inside (0, 1)
BETAS = st.one_of(st.sampled_from([1e-13, 1e-12, 2e-12, 0.25, 0.5, 1 / 3, 0.75, 0.999999, 1 - 1e-12,
                                   1 - 1e-13]),
                  st.floats(1e-15, 1 - 1e-15))


@st.composite
def count_grids(draw):
    """(x support, y support, counts) of a canonical source grid: draw counts
    with empty cells, rows and columns anywhere, at least one draw."""
    l, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 10**6]), min_size=l * m, max_size=l * m))
    if not any(cells):
        cells[draw(st.integers(0, l * m - 1))] = 1
    xs = sorted(draw(st.sets(st.integers(-20, 20), min_size=l, max_size=l)))
    ys = sorted(draw(st.sets(st.integers(-20, 20), min_size=m, max_size=m)))
    return np.array(xs, dtype=float), np.array(ys, dtype=float), np.array(cells).reshape(l, m)


def eval_points(x_support: np.ndarray):
    """Sorted distinct points: atoms, gaps, points below and above the grid and +-inf."""
    pool = sorted({*x_support.tolist(), *(x_support + 0.5).tolist(), x_support[0] - 1.0,
                   float("-inf"), float("inf")})
    return st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True).map(sorted)


def grid_quantiles(x_support, y_support, counts, xs, beta):
    r = BivariateDist(x_support, y_support, counts / counts.sum())
    return tuple(q.tolist() for q in estimation._row_quantiles(r, counts, xs, beta))


@st.composite
def truths(draw) -> BivariateDist:
    """Canonical source grids of each mass kind the reader takes from a truth:
    float pmfs whose sums are off 1 by up to 9e-10, float measures that are
    not probabilities, and integer weights, small or near 2**60; zero cells,
    rows and columns anywhere."""
    l, m = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["pmf", "measure", "weights", "weights near 2**60"]))
    mass = {"weights": st.integers(1, 9), "weights near 2**60": st.integers(2**60 - 2**40, 2**60)}.get(
        kind, st.floats(1e-3, 1.0))
    cells = draw(st.lists(st.one_of(st.just(0), mass), min_size=l * m, max_size=l * m).filter(any))
    xs = sorted(draw(st.sets(st.integers(-20, 20), min_size=l, max_size=l)))
    axes = [x / 4 for x in xs], [y / 8 for y in range(m)]
    if kind.startswith("weights"):
        return BivariateDist.from_weights(*axes, np.reshape(cells, (l, m)).tolist()).canonical()
    pmf = np.reshape(cells, (l, m)).astype(float)
    if kind == "pmf":
        pmf = pmf / pmf.sum() * (1 + draw(st.floats(-9e-10, 9e-10)))
        return BivariateDist(*axes, pmf).canonical()
    pmf *= draw(st.sampled_from([1e-3, 0.3, 1.0, 7.0, 1e3]))
    return BivariateDist(*axes, pmf, is_probability=False).canonical()


def oracle_quantiles(x_support, y_support, counts, xs, beta):
    return west_quantiles_by_kernel(empirical_of_counts(x_support, y_support, counts), xs, beta)


class TestGridQuantiles:
    """The harnesses read each sample's conditional quantiles from its count
    grid; ``kernel_west`` on the sample's empirical distribution is the oracle."""

    @given(st.data(), count_grids(), BETAS)
    @settings(max_examples=500, deadline=None)
    def test_equal_the_kernel_rows(self, data, grid, beta):
        xs = data.draw(eval_points(grid[0]))
        assert grid_quantiles(*grid, xs, beta) == oracle_quantiles(*grid, xs, beta)

    @given(sparse_dists(), st.integers(1, 300), st.integers(0, 2**32), BETAS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_sample_grids_equal_the_kernel_on_the_sample(self, r, n, seed, beta, data):
        canon, counts = count_grid(r, n, seed)
        xs = data.draw(eval_points(canon.x_support))
        got = grid_quantiles(canon.x_support, canon.y_support, counts, xs, beta)
        assert got == west_quantiles_by_kernel(sample_counts(r, n, seed), xs, beta)

    @given(truths(), BETAS, st.booleans(), st.data())
    @settings(max_examples=500, deadline=None)
    def test_truths_equal_the_kernel_rows(self, r, beta, east, data):
        xs = data.draw(eval_points(r.x_support))
        got = tuple(q.tolist() for q in estimation._row_quantiles(r, r.cells(r.mode), xs, beta, east))
        assert got == west_quantiles_by_kernel(r, xs, beta, east)

    @given(truths(), BETAS, st.sampled_from(estimation.QUANTILE_FLAVORS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_curves_equal_the_kernel_rows(self, r, beta, flavor, data):
        xs = data.draw(eval_points(r.x_support))
        q_min, q_max = west_quantiles_by_kernel(r, xs, beta, flavor == "east-max")
        curve = quantile_curve(r, beta, flavor, xs[::-1])
        assert curve.points == tuple(zip(xs, q_max if flavor == "east-max" else q_min))

    def test_a_measure_short_of_beta_has_an_infinite_minimal_quantile(self):
        # total mass 0.5: past it the marginal's minimal quantile is +inf, its maximal the last atom
        r = BivariateDist([1.0, 2.0], [1.0, 2.0], [[0.1, 0.1], [0.2, 0.1]], is_probability=False)
        for beta in (0.25, 0.75):
            got = tuple(q.tolist() for q in estimation._row_quantiles(r, r.pmf, [0.0, 1.5], beta))
            assert got == west_quantiles_by_kernel(r, [0.0, 1.5], beta)
        assert got == ([float("inf"), 2.0], [2.0, 2.0])

    def test_a_cell_whose_share_rounds_to_zero_is_no_atom_of_its_row(self):
        # 5e-324 / 3.0 rounds to 0.0, so the conditional row drops that atom;
        # the marginal keeps its column sums as they are, so it keeps the atom
        r = BivariateDist([1.0], [1.0, 2.0], [[5e-324, 3.0]], is_probability=False)
        got = tuple(q.tolist() for q in estimation._row_quantiles(r, r.pmf, [0.0, 1.0], 1e-13))
        assert got == west_quantiles_by_kernel(r, [0.0, 1.0], 1e-13) == ([1.0, 2.0], [2.0, 2.0])

    @pytest.mark.parametrize("beta", [1e-13, 1e-12])
    def test_level_at_or_below_zero_skips_a_leading_empty_cell(self, beta):
        grid = np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]), np.array([[0, 3, 1], [1, 0, 0]])
        got = grid_quantiles(*grid, [1.0], beta)
        assert got == oracle_quantiles(*grid, [1.0], beta) == ([2.0], [2.0])

    def test_points_outside_the_drawn_rows_take_the_y_marginal(self):
        counts = np.array([[0, 0, 0], [1, 0, 2], [0, 3, 0], [0, 0, 0]])
        grid = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 2.0, 3.0]), counts
        xs = [1.0, 1.5, 3.5, 4.0]
        for beta in (0.1, 1 / 6, 0.5, 0.9):
            got = grid_quantiles(*grid, xs, beta)
            marginal = empirical_of_counts(*grid).marginal_y()
            assert got == oracle_quantiles(*grid, xs, beta)
            assert got == ([marginal.quantile(beta)] * 4, [max_quantile(marginal, beta)] * 4)

    def test_max_quantile_past_the_end_takes_the_last_cell_with_draws(self):
        grid = np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0, 4.0]), np.array([[0, 2, 1, 0], [1, 1, 1, 1]])
        for beta in (1 - 1e-12, 1 - 1e-13):
            got = grid_quantiles(*grid, [1.0, 1.5], beta)
            assert got == oracle_quantiles(*grid, [1.0, 1.5], beta) == ([3.0, 3.0], [3.0, 3.0])

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_or_two_draws_leave_most_rows_empty(self, n):
        r = random_supermodular_tp2(np.random.default_rng(12), 12, 12)
        xs = (r.x_support + 0.5).tolist()
        for seed in range(20):
            for beta in (1e-13, 0.5, 1 - 1e-13):
                canon, counts = count_grid(r, n, (seed, 0))
                got = grid_quantiles(canon.x_support, canon.y_support, counts, xs, beta)
                assert got == west_quantiles_by_kernel(sample_counts(r, n, (seed, 0)), xs, beta)

    @given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), min_size=1, max_size=10), BETAS,
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_one_index_rule_is_the_binary_search(self, steps, beta, largest):
        cum = np.cumsum(steps)
        side, level = ("right", beta + QUANTILE_ATOL) if largest else ("left", beta - QUANTILE_ATOL)
        assert _quantile_index(cum, beta, largest) == np.searchsorted(cum, level, side=side)


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
        # conditional cdfs 0.75 >= 0.5 at x = 1, and 1/3 < 0.5 at x = 2
        assert curve.points == ((1.0, 1.0), (2.0, 2.0))

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
