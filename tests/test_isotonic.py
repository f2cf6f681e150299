from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    Interval,
    InvalidDistributionError,
    PreconditionError,
    UnivariateDist,
    cross_compare,
    maximal_isotonic_density,
    minimal_isotonic_density,
)
from helpers import (
    literal_maximal_density,
    literal_minimal_density,
    measure_pair_with_isotonic_ratio,
)


class TestCrossCompare:
    def test_zero_over_positive_le_one(self):
        out = cross_compare(1, 0, 1, 1)
        assert out.le and not out.degenerate

    def test_infinite_ratio_not_le_one(self):
        out = cross_compare(0, 1, 1, 1)
        assert not out.le and not out.degenerate

    def test_equal_ratios(self):
        out = cross_compare(2, 1, 4, 2)
        assert out.le and not out.degenerate

    def test_degenerate_pair_flagged(self):
        assert cross_compare(0, 0, 1, 1).degenerate
        assert cross_compare(1, 1, 0, 0).degenerate

    def test_exact_mode_has_no_slack(self):
        assert not cross_compare(10**9, 10**9 + 1, 1, 1, mode="exact").le
        assert cross_compare(10**9 + 1, 10**9, 1, 1, mode="exact").le

    def test_agrees_with_rational_oracle(self):
        rng = np.random.default_rng(2024)
        quads = rng.integers(0, 30, size=(10_000, 4))
        for r1, r2, s1, s2 in quads.tolist():
            if (r1 == 0 and r2 == 0) or (s1 == 0 and s2 == 0):
                continue
            expected = Fraction(r2) * Fraction(s1) <= Fraction(r1) * Fraction(s2)
            assert cross_compare(r1, r2, s1, s2, mode="exact").le == expected
            assert cross_compare(float(r1), float(r2), float(s1), float(s2)).le == expected

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_comparison(self, r1, r2, s1, s2):
        out = cross_compare(r1, r2, s1, s2, mode="exact")
        assert out.le == (r2 * s1 <= r1 * s2)


def simple_pair():
    mu = UnivariateDist.from_pairs([1.0, 2.0], [0.6, 0.4], is_probability=False)
    nu = UnivariateDist.from_pairs([1.0, 2.0], [0.2, 0.4], is_probability=False)
    return mu, nu


class TestMinimalDensity:
    def test_identity_density(self):
        mu = UnivariateDist.from_pairs([0, 2, 5], [0.3, 0.3, 0.4], is_probability=False)
        f = minimal_isotonic_density(mu, mu, verify=True)
        assert f.values.tolist() == [1.0, 1.0, 1.0]

    def test_zero_measure(self):
        mu = UnivariateDist.from_pairs([0, 1], [0.5, 0.5], is_probability=False)
        nu = UnivariateDist(np.array([0.0, 1.0]), np.array([0.0, 0.0]), is_probability=False)
        f = minimal_isotonic_density(mu, nu, verify=True)
        assert f.values.tolist() == [0.0, 0.0]

    def test_atom_ratio_formula(self):
        mu, nu = simple_pair()
        f = minimal_isotonic_density(mu, nu, verify=True)
        assert f.values.tolist() == pytest.approx([1.0 / 3.0, 1.0], abs=1e-15)
        # density reproduces nu atomwise
        for v in mu.support.tolist():
            assert f.evaluate(v) * mu.atom_prob(v) == pytest.approx(nu.atom_prob(v), abs=1e-15)

    def test_off_support_takes_left_atom(self):
        mu, nu = simple_pair()
        fmin = minimal_isotonic_density(mu, nu)
        fmax = maximal_isotonic_density(mu, nu)
        assert fmin.evaluate(1.5) == pytest.approx(1.0 / 3.0)
        assert fmax.evaluate(1.5) == 1.0
        assert fmin.evaluate(0.0) == 0.0  # below all atoms
        assert fmax.evaluate(3.0) == 1.0  # above all atoms

    def test_maximal_matches_minimal_on_atoms(self):
        mu, nu = simple_pair()
        fmin = minimal_isotonic_density(mu, nu)
        fmax = maximal_isotonic_density(mu, nu, verify=True)
        assert fmax.values.tolist() == fmin.values.tolist()

    def test_nu_exceeding_mu_rejected(self):
        mu = UnivariateDist.from_pairs([1.0], [0.5], is_probability=False)
        nu = UnivariateDist.from_pairs([1.0], [0.7], is_probability=False)
        with pytest.raises(PreconditionError) as err:
            minimal_isotonic_density(mu, nu)
        assert err.value.witness[0] == 1.0

    def test_precondition_violation_carries_triple(self):
        # decreasing ratio (0.8 then 0.2) breaks interval ratio monotonicity
        mu = UnivariateDist.from_pairs([1.0, 2.0], [0.5, 0.5], is_probability=False)
        nu = UnivariateDist.from_pairs([1.0, 2.0], [0.4, 0.1], is_probability=False)
        with pytest.raises(PreconditionError) as err:
            minimal_isotonic_density(mu, nu, verify=True)
        x, y, z = err.value.witness
        assert x < y < z
        # unverified construction still refuses to emit a non-isotonic density
        with pytest.raises(InvalidDistributionError):
            minimal_isotonic_density(mu, nu)


    def test_precondition_witness_cuts_below_a_large_first_atom(self):
        # 1e17 - 1 rounds back to 1e17, so the lower cut is the next float below
        mu = UnivariateDist.from_pairs([1e17, 2e17], [0.5, 0.5], is_probability=False)
        nu = UnivariateDist.from_pairs([1e17, 2e17], [0.4, 0.1], is_probability=False)
        with pytest.raises(PreconditionError) as err:
            minimal_isotonic_density(mu, nu, verify=True)
        assert err.value.witness == (np.nextafter(1e17, -np.inf), 1e17, 2e17)


class TestDensityProperties:
    def test_density_property_on_interval_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mu, nu, _ = measure_pair_with_isotonic_ratio(rng)
            f = minimal_isotonic_density(mu, nu, verify=True)
            bounds = [mu.support[0] - 1.0] + mu.support.tolist()
            for i, a in enumerate(bounds):
                for b in bounds[i + 1 :]:
                    iv = Interval.open_closed(a, b)
                    integral = sum(
                        f.evaluate(v) * mu.atom_prob(v)
                        for v in mu.support.tolist()
                        if iv.contains(v)
                    )
                    assert integral == pytest.approx(nu.interval_mass(iv), abs=1e-12)

    def test_single_pass_equals_literal_sup(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            mu, nu, _ = measure_pair_with_isotonic_ratio(rng)
            fmin = minimal_isotonic_density(mu, nu)
            fmax = maximal_isotonic_density(mu, nu)
            probe = mu.support.tolist()
            probe += [(a + b) / 2 for a, b in zip(probe, probe[1:])]
            probe += [probe[0] - 1.0, mu.support[-1] + 1.0]
            for x in probe:
                assert fmin.evaluate(x) == pytest.approx(
                    literal_minimal_density(mu, nu, x), abs=1e-12
                )
                assert fmax.evaluate(x) == pytest.approx(
                    literal_maximal_density(mu, nu, x), abs=1e-12
                )

    def test_minimal_below_maximal_and_below_any_isotonic_density(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            mu, nu, ratio = measure_pair_with_isotonic_ratio(rng)
            fmin = minimal_isotonic_density(mu, nu)
            fmax = maximal_isotonic_density(mu, nu)
            assert np.all(fmin.values <= fmax.values + 1e-15)
            # caller-supplied isotonic density: the generating ratio itself
            for v, r in zip(mu.support.tolist(), ratio.tolist()):
                assert fmin.evaluate(v) <= r + 1e-12
