import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    BivariateDist,
    DomainError,
    Interval,
    InvalidDistributionError,
    UnivariateDist,
    left_support,
    marginals,
)
from stochorder.distributions import (
    load_bivariate,
    load_univariate,
    read_bivariate_csv,
    read_univariate_csv,
    write_bivariate_csv,
    write_univariate_csv,
    write_univariate_json,
)

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
        assert q.interval_mass(Interval.open(1, 3)) == pytest.approx(0.3, abs=1e-15)

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

    def test_interval_weight_matches_mass(self):
        q = UnivariateDist.from_weights([1, 2, 3], [1, 2, 5])
        for iv in (Interval.open_closed(1, 3), Interval.closed(1, 2), Interval.open(1, 3)):
            assert q.interval_weight(iv) / 8 == pytest.approx(q.interval_mass(iv), abs=1e-15)
        with pytest.raises(DomainError):
            UnivariateDist.from_pairs([0.0], [1.0]).interval_weight(Interval.closed(0, 1))


class TestRangeAndMarginals:
    def test_range_of_uniform_grid(self):
        r = BivariateDist.from_weights([1, 2, 3], [1, 2, 3], [[1] * 3] * 3)
        iv = r.range_x()
        assert (iv.left, iv.right) == (1.0, 3.0)
        assert iv.left_closed and iv.right_closed

    def test_range_single_atom(self):
        r = BivariateDist.from_weights([0.0], [0.0], [[1]])
        iv = r.range_x()
        assert (iv.left, iv.right) == (0.0, 0.0)

    def test_range_spans_gaps(self):
        r = BivariateDist.from_weights([1.0, 5.0], [0.0], [[1], [1]])
        iv = r.range_x()
        assert (iv.left, iv.right) == (1.0, 5.0)
        assert iv.contains(3.0)

    def test_marginals_of_point_mass(self):
        r = BivariateDist.from_weights([0.0], [1.0], [[1]])
        p, q = marginals(r)
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

    def test_left_support_carries_all_mass(self):
        q = coin()
        atoms = left_support(q)
        assert atoms == (0.0, 1.0)
        assert sum(q.atom_prob(a) for a in atoms) == 1.0

    def test_marginal_totals_match_pmf(self):
        rng = np.random.default_rng(3)
        pmf = rng.random((3, 4))
        pmf /= pmf.sum()
        r = BivariateDist(np.arange(3.0), np.arange(4.0), pmf)
        p, q = marginals(r)
        assert p.total_mass == pytest.approx(r.total_mass, abs=1e-12)
        assert q.total_mass == pytest.approx(r.total_mass, abs=1e-12)

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
                        mass = r.rect_prob(Interval.closed(i0, i1), Interval.closed(j0, j1))
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
        assert c.weights == (1, 1)

    def test_bivariate_canonical_drops_empty_rows_and_columns(self):
        r = BivariateDist.from_weights([1, 2, 3], [1, 2], [[1, 0], [0, 0], [0, 1]])
        c = r.canonical()
        assert c.x_support.tolist() == [1.0, 3.0]
        assert c.y_support.tolist() == [1.0, 2.0]

    def test_immutable_arrays(self):
        q = coin()
        with pytest.raises(ValueError):
            q.probs[0] = 0.9

    def test_weights_must_match_probs(self):
        with pytest.raises(InvalidDistributionError):
            UnivariateDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]), (3, 1))


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
        assert q.weights == (1, 3)

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
        write_univariate_json(q, path)
        back = load_univariate(path)
        assert back.weights == (1, 2)

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
        assert back.weights == ((1, 0), (0, 1))
