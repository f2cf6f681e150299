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
    maximal_isotonic_density,
    minimal_isotonic_density,
)
from stochorder.isotonic import first_violation
from helpers import (
    atom_ratios_serial,
    literal_maximal_density,
    literal_minimal_density,
    measure_pair_with_isotonic_ratio,
)


def ratio_le(r1, r2, s1, s2, mode: str = "float") -> bool:
    """r2/r1 <= s2/s1 in [0, inf] as one ``first_violation`` call on the
    one-element cross products r2*s1 <= r1*s2 (Python ints in exact mode)."""
    lhs, rhs = np.array([[r2 * s1], [r1 * s2]], dtype=object if mode == "exact" else np.float64)
    return first_violation(lhs, rhs, mode) is None


class TestFirstViolation:
    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_zero_over_positive_le_one(self, mode):
        assert ratio_le(1, 0, 1, 1, mode)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_infinite_ratio_not_le_one(self, mode):
        assert not ratio_le(0, 1, 1, 1, mode)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_equal_ratios(self, mode):
        assert ratio_le(2, 1, 4, 2, mode)

    def test_exact_mode_has_no_slack(self):
        assert not ratio_le(10**9, 10**9 + 1, 1, 1, "exact")
        assert ratio_le(10**9 + 1, 10**9, 1, 1, "exact")

    def test_agrees_with_rational_oracle(self):
        rng = np.random.default_rng(2024)
        quads = rng.integers(0, 30, size=(10_000, 4))
        for r1, r2, s1, s2 in quads.tolist():
            if (r1 == 0 and r2 == 0) or (s1 == 0 and s2 == 0):
                continue
            expected = Fraction(r2) * Fraction(s1) <= Fraction(r1) * Fraction(s2)
            assert ratio_le(r1, r2, s1, s2, "exact") == expected
            assert ratio_le(float(r1), float(r2), float(s1), float(s2)) == expected

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100), st.integers(0, 100),
           st.sampled_from(["float", "exact"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_comparison(self, r1, r2, s1, s2, mode):
        assert ratio_le(r1, r2, s1, s2, mode) == (r2 * s1 <= r1 * s2)


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


def _outcome(call):
    try:
        f = call()
    except PreconditionError as exc:
        return ("precondition", exc.witness)
    return (f.points.tolist(), f.values.tolist())


#: masses of the float measures: zeros, a wide spread of magnitudes, and
#: ties.  Every two of them differ by far more than either slack, so the
#: loop's absolute slack and the pass's relative one give the same verdicts;
#: masses below the absolute slack are the regression cases above.
FLOAT_MASSES = st.sampled_from([0.0, 0.0, 1e-3, 0.1, 0.25, 0.5, 1.0, 3.0, 1e20])


@st.composite
def float_measure_pairs(draw):
    """(mu, nu) on supports from one small pool: nu a random measure, or mu
    scaled atomwise by sorted factors in [0, 1] (an isotonic ratio)."""
    n = draw(st.integers(1, 6))
    support = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n, unique=True))
    mu_m = draw(st.lists(FLOAT_MASSES, min_size=n, max_size=n).filter(any))
    if draw(st.booleans()):
        nu_m = draw(st.lists(FLOAT_MASSES, min_size=n, max_size=n))
    else:
        factors = sorted(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n)))
        nu_m = [m * f for m, f in zip(mu_m, factors)]
    nu_support = draw(st.permutations(support)) if draw(st.booleans()) else support
    mu = UnivariateDist.from_pairs([float(v) for v in support], mu_m, is_probability=False)
    nu = UnivariateDist.from_pairs([float(v) for v in nu_support], nu_m, is_probability=False)
    return mu, nu


@st.composite
def weight_pairs(draw):
    """(mu, nu) with integer weights: nu random, or a multiple of mu's weights
    (equal shares), with weights beyond 2**53 on some draws."""
    n = draw(st.integers(1, 5))
    support = [float(v) for v in draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n, unique=True))]
    big = draw(st.sampled_from([1, 10**13, 2**70]))
    mu_w = [w * big for w in draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))]
    if draw(st.booleans()):
        nu_w = [w * big + draw(st.sampled_from([0, 0, 1])) for w in
                draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))]
    else:
        nu_w = [draw(st.integers(1, 3)) * w for w in mu_w]
    return UnivariateDist.from_weights(support, mu_w), UnivariateDist.from_weights(support, nu_w)


class TestAtomRatiosThroughTheComparator:
    """nu <= mu is one ``first_violation`` pass; the atom loop is the oracle."""

    def test_tiny_excess_over_a_tiny_mu_atom_fails_in_float_mode(self):
        mu = UnivariateDist.from_pairs([0.0, 1.0], [0.5, 1e-20], is_probability=False)
        nu = UnivariateDist.from_pairs([0.0, 1.0], [0.5, 1e-14], is_probability=False)
        with pytest.raises(PreconditionError) as err:
            minimal_isotonic_density(mu, nu)
        assert err.value.witness == (1.0, 1e-14, 1e-20)

    def test_exact_share_excess_fails_in_exact_mode(self):
        mu = UnivariateDist.from_weights([0.0, 1.0], [10**13, 10**13])
        nu = UnivariateDist.from_weights([0.0, 1.0], [10**13 + 1, 10**13])
        for density in (minimal_isotonic_density, maximal_isotonic_density):
            for verify in (False, True):
                with pytest.raises(PreconditionError, match="nu exceeds mu") as err:
                    density(mu, nu, mode="exact", verify=verify)
                assert err.value.witness[0] == 0.0

    def test_exact_ties_give_equal_ratios(self):
        mu = UnivariateDist.from_weights([0.0, 1.0, 2.0], [3, 7, 11])
        nu = UnivariateDist.from_weights([0.0, 1.0, 2.0], [9, 21, 33])
        assert minimal_isotonic_density(mu, nu, mode="exact", verify=True).values.tolist() == [1.0] * 3

    @given(float_measure_pairs())
    @settings(max_examples=300, deadline=None)
    def test_float_mode_equals_the_atom_loop(self, pair):
        mu, nu = pair
        try:
            atoms, ratios = atom_ratios_serial(mu, nu)
        except PreconditionError as exc:
            expected = ("precondition", exc.witness)
        else:
            expected = (atoms, ratios) if ratios == sorted(ratios) else None
        for density in (minimal_isotonic_density, maximal_isotonic_density):
            if expected is None:
                with pytest.raises(InvalidDistributionError, match="nondecreasing"):
                    density(mu, nu)
            else:
                assert _outcome(lambda: density(mu, nu)) == expected

    @given(weight_pairs())
    @settings(max_examples=300, deadline=None)
    def test_exact_mode_equals_the_fraction_loop(self, pair):
        mu, nu = pair
        try:
            expected = atom_ratios_serial(mu, nu, "exact")
        except PreconditionError as exc:
            expected = ("precondition", exc.witness)
        assert _outcome(lambda: minimal_isotonic_density(mu, nu, mode="exact")) == tuple(expected)
