import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    DomainError,
    Interval,
    UnivariateDist,
    check_lr,
    check_st,
    truncate,
)
from stochorder.fixtures import gamma_pair, gaussian_pair
from stochorder.orders import LR_METHODS, _midpoint, _refined_axis
from helpers import (
    enumerate_weight_dists,
    exact_lr_oracle,
    fractions,
    lr_chain,
    lr_pair,
    random_univariate,
)


def interleaved_pair():
    q1 = UnivariateDist.from_pairs([0.0, 1.0], [0.5, 0.5])
    q2 = UnivariateDist.from_pairs([0.5, 1.5], [0.5, 0.5])
    return q1, q2


class TestCheckSt:
    def test_reflexive(self):
        q = UnivariateDist.from_pairs([1, 3], [0.4, 0.6])
        assert check_st(q, q).holds

    def test_interleaved_supports(self):
        q1, q2 = interleaved_pair()
        assert check_st(q1, q2).holds

    def test_fails_with_witness(self):
        v = check_st(UnivariateDist.delta(1.0), UnivariateDist.delta(0.0))
        assert not v.holds
        (y,) = v.witness
        assert y == 0.0
        # witness reproduces the violation
        assert UnivariateDist.delta(1.0).survival(y) > UnivariateDist.delta(0.0).survival(y)


class TestCheckLr:
    def test_reflexive_all_methods(self):
        q = UnivariateDist.from_pairs([1, 2, 3], [0.5, 0.3, 0.2])
        for m in LR_METHODS:
            assert check_lr(q, q, m).holds

    def test_isotonic_ratio_holds(self):
        q1 = UnivariateDist.from_pairs([1, 2, 3], [0.5, 0.3, 0.2])
        q2 = UnivariateDist.from_pairs([1, 2, 3], [0.2, 0.3, 0.5])
        for m in LR_METHODS:
            assert check_lr(q1, q2, m).holds

    def test_st_without_lr(self):
        q1, q2 = interleaved_pair()
        assert check_st(q1, q2).holds
        for m in LR_METHODS:
            assert not check_lr(q1, q2, m).holds

    def test_unknown_method(self):
        q = UnivariateDist.delta(0.0)
        with pytest.raises(DomainError):
            check_lr(q, q, "nope")

    def test_gamma_pair_is_lr_ordered(self):
        q1, q2 = gamma_pair()
        assert check_lr(q1, q2).holds

    def test_gaussian_pair_is_not_lr_comparable(self):
        q1, q2 = gaussian_pair()
        assert not check_lr(q1, q2).holds
        assert not check_lr(q2, q1).holds

    def test_exact_mode_requires_weights(self):
        q = UnivariateDist.from_pairs([0.0], [1.0])
        with pytest.raises(DomainError):
            check_lr(q, q, mode="exact")


class TestWitnessReproduction:
    """A failing verdict's witness re-evaluates to a violated inequality."""

    def setup_method(self):
        self.q1, self.q2 = interleaved_pair()

    def _mass(self, q, a, b):
        return q.interval_mass(Interval.open_closed(a, b))

    def test_ratio_witness(self):
        v = check_lr(self.q1, self.q2, "ratio")
        x, y = v.witness
        g = lambda q, v_: q.atom_prob(v_)
        assert g(self.q2, x) * g(self.q1, y) > g(self.q1, x) * g(self.q2, y)

    def test_pairwise_witness(self):
        v = check_lr(self.q1, self.q2, "pairwise")
        x, y = v.witness
        assert self.q1.atom_prob(y) * self.q2.atom_prob(x) > self.q1.atom_prob(x) * self.q2.atom_prob(y)

    def test_intervals_witness(self):
        v = check_lr(self.q1, self.q2, "intervals")
        x, y, z = v.witness
        lhs = self._mass(self.q1, y, z) * self._mass(self.q2, x, y)
        rhs = self._mass(self.q1, x, y) * self._mass(self.q2, y, z)
        assert lhs > rhs

    def test_conditional_st_witness(self):
        v = check_lr(self.q1, self.q2, "conditional-st")
        x, y, t = v.witness
        w1 = self._mass(self.q1, x, y)
        w2 = self._mass(self.q2, x, y)
        u1 = self._mass(self.q1, t, y)
        u2 = self._mass(self.q2, t, y)
        assert u1 * w2 > u2 * w1


class TestMethodEquivalence:
    def test_exhaustive_small_family_exact(self):
        family = enumerate_weight_dists([1.0, 2.0, 3.0], 2)
        for q1, q2 in itertools.product(family, repeat=2):
            verdicts = [check_lr(q1, q2, m, mode="exact").holds for m in LR_METHODS]
            assert len(set(verdicts)) == 1
            assert verdicts[0] == exact_lr_oracle(q1, q2)

    def test_random_pairs_float(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            q1 = random_univariate(rng)
            q2 = random_univariate(rng)
            verdicts = [check_lr(q1, q2, m).holds for m in LR_METHODS]
            assert len(set(verdicts)) == 1


class TestOrderRelations:
    def test_lr_implies_st(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            q1, q2 = lr_pair(rng)
            assert check_lr(q1, q2).holds
            assert check_st(q1, q2).holds

    def test_antisymmetry_exact(self):
        family = enumerate_weight_dists([1.0, 2.0], 3)
        for q1, q2 in itertools.product(family, repeat=2):
            both = check_lr(q1, q2, mode="exact").holds and check_lr(q2, q1, mode="exact").holds
            c1, c2 = q1.canonical(), q2.canonical()
            same = (
                c1.support.tolist() == c2.support.tolist()
                and fractions(c1) == fractions(c2)
            )
            assert both == same or (both and same)
            if both:
                assert same

    def test_transitivity_on_chains(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            q1, q2, q3 = lr_chain(rng)
            assert check_lr(q1, q2).holds
            assert check_lr(q2, q3).holds
            assert check_lr(q1, q3).holds

    def test_conditional_preservation(self):
        rng = np.random.default_rng(23)
        count = 0
        while count < 200:
            q1, q2 = lr_pair(rng)
            if len(q1) < 2:
                continue
            lo, hi = sorted(rng.choice(q1.support, size=2, replace=False).tolist())
            window = Interval.closed(lo, hi)
            if q1.interval_mass(window) <= 0 or q2.interval_mass(window) <= 0:
                continue
            count += 1
            assert check_lr(truncate(q1, window), truncate(q2, window)).holds


class TestTruncate:
    def test_renormalizes(self):
        q = UnivariateDist.from_pairs([1, 2, 3], [0.25, 0.25, 0.5])
        t = truncate(q, Interval.closed(2, 3))
        assert t.support.tolist() == [2.0, 3.0]
        assert t.probs.tolist() == pytest.approx([1 / 3, 2 / 3], abs=1e-15)

    def test_superset_is_identity(self):
        q = UnivariateDist.from_pairs([1, 2], [0.5, 0.5])
        t = truncate(q, Interval.closed(0, 5))
        assert t.support.tolist() == q.support.tolist()
        assert t.probs.tolist() == q.probs.tolist()

    def test_zero_mass_errors(self):
        with pytest.raises(DomainError):
            truncate(UnivariateDist.delta(0.0), Interval.open_closed(0, 1))

    def test_truncation_preserves_lr_with_shifted_windows(self):
        rng = np.random.default_rng(31)
        count = 0
        while count < 200:
            q1, q2 = lr_pair(rng)
            if len(q1) < 2:
                continue
            atoms = q1.support.tolist()
            a1, b1 = sorted(rng.choice(atoms, size=2, replace=False).tolist())
            a2 = atoms[min(len(atoms) - 1, atoms.index(a1) + int(rng.integers(0, 2)))]
            b2 = atoms[min(len(atoms) - 1, atoms.index(b1) + int(rng.integers(0, 2)))]
            if a2 > b2:
                continue
            i1, i2 = Interval.closed(a1, b1), Interval.closed(a2, b2)
            if min(q1.interval_mass(i1), q2.interval_mass(i2)) <= 0:
                continue
            count += 1
            assert check_lr(truncate(q1, i1), truncate(q2, i2)).holds

    def test_separated_supports_are_lr_ordered(self):
        q1 = UnivariateDist.from_pairs([0, 1], [0.5, 0.5])
        q2 = UnivariateDist.from_pairs([1, 2], [0.5, 0.5])
        # max support of q1 <= 1 <= min support of q2
        assert check_lr(q1, q2).holds


class TestWeakConvergenceStability:
    def test_limit_of_lr_ordered_sequence_is_lr_ordered(self):
        base1 = UnivariateDist.from_pairs([1, 2, 3], [0.5, 0.3, 0.2])
        base2 = UnivariateDist.from_pairs([1, 2, 3], [0.2, 0.3, 0.5])
        for n in (10, 100, 1000, 10000):
            support = base1.support + 1.0 / n
            bump = np.array([1.0, 1.0 + 1.0 / n, 1.0 + 2.0 / n])
            p1 = base1.probs * bump
            p2 = base2.probs * bump
            qn1 = UnivariateDist(support, p1 / p1.sum())
            qn2 = UnivariateDist(support, p2 / p2.sum())
            assert check_lr(qn1, qn2).holds
        assert check_lr(base1, base2).holds


class TestMidpoint:
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=500, deadline=None)
    def test_finite_and_between_and_unchanged_where_the_sum_is_finite(self, a, b):
        a, b = min(a, b), max(a, b)
        mid = _midpoint(a, b)
        assert a <= mid <= b
        if np.isfinite(a + b):
            assert mid == (a + b) / 2.0

    def test_atoms_near_the_float_limit(self):
        axis = _refined_axis(np.array([1e308, 1.7e308]))
        assert axis == [1e308 - 1.0, 1e308, 1.35e308, 1.7e308, 1.7e308 + 1.0]
