import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochorder import (
    DomainError,
    UnivariateDist,
    check_lr,
    odc_curve,
    odc_is_convex,
    roc_curve,
    roc_is_concave,
)
from stochorder.fixtures import gamma_pair, gaussian_pair, odc_counterexample
from stochorder.isotonic import MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL
from stochorder.isotonic import INT64_FACTOR_MAX
from stochorder.roc import OdcCurve, RocCurve
from helpers import (
    all_triples_concave,
    enumerate_weight_dists,
    odc_convex_by_steps,
    odc_convex_by_triples,
    odc_curve_fractions,
    random_univariate,
    roc_concave_by_steps,
    roc_concave_by_triples,
    roc_curve_fractions,
    roc_exact_points,
)


class TestRocCurve:
    def test_equal_point_masses_give_two_corners(self):
        d = UnivariateDist.delta(0.0)
        curve = roc_curve(d, d)
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))

    def test_interleaved_staircase(self):
        q1 = UnivariateDist.from_pairs([0.0, 1.0], [0.5, 0.5])
        q2 = UnivariateDist.delta(0.5)
        curve = roc_curve(q1, q2)
        assert curve.points == ((0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (1.0, 1.0))

    def test_lr_pair_yields_concave_curve(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            q1 = random_univariate(rng)
            factor = np.sort(rng.random(len(q1)) + 0.05)
            boosted = q1.probs * factor
            q2 = UnivariateDist(q1.support, boosted / boosted.sum())
            assert roc_is_concave(roc_curve(q1, q2)).holds

    def test_monotonicity_enforced(self):
        with pytest.raises(Exception):
            RocCurve(((0.0, 0.0), (0.5, 0.8), (0.6, 0.2), (1.0, 1.0)))

    def test_weighted_inputs_give_integer_steps(self):
        q1 = UnivariateDist.from_weights([0, 1], [1, 1])
        q2 = UnivariateDist.from_weights([0, 1], [1, 2])
        curve = roc_curve(q1, q2)
        assert curve.steps == ((1, 1), (2, 1), 2, 3)
        assert roc_is_concave(curve, mode="exact").holds


class TestRocConcavity:
    def test_two_points_hold(self):
        assert roc_is_concave(RocCurve(((0.0, 0.0), (1.0, 1.0)))).holds

    def test_staircase_fails_on_vertical_after_flat(self):
        curve = RocCurve(((0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (1.0, 1.0)))
        v = roc_is_concave(curve)
        assert not v.holds
        assert v.witness == ((0.0, 0.0), (0.5, 0.0), (0.5, 1.0))

    def test_gamma_fixture_concave(self):
        assert roc_is_concave(roc_curve(*gamma_pair())).holds

    def test_gaussian_fixture_not_concave(self):
        assert not roc_is_concave(roc_curve(*gaussian_pair())).holds

    def test_consecutive_triples_match_all_triples_oracle(self):
        # a curve built from its points alone scores the differences of its points
        rng = np.random.default_rng(12)
        for _ in range(300):
            q1 = random_univariate(rng)
            q2 = random_univariate(rng)
            points = roc_curve(q1, q2).points
            assert roc_is_concave(RocCurve(points)).holds == all_triples_concave(points)

    def test_exact_mode_requires_exact_curve(self):
        q1 = UnivariateDist.from_pairs([0.0], [1.0])
        curve = roc_curve(q1, q1)
        with pytest.raises(DomainError):
            roc_is_concave(curve, mode="exact")


class TestOdc:
    def test_identity_curve(self):
        q = UnivariateDist.from_weights([1, 2, 3], [1, 1, 2])
        curve = odc_curve(q, q)
        assert curve.alphas == (0.0, 0.25, 0.5, 1.0)
        assert curve.values == (0.0, 0.25, 0.5, 1.0)
        assert curve.dominated
        assert odc_is_convex(curve).holds

    def test_counterexample_exact_values(self):
        q1, q2 = odc_counterexample()
        curve = odc_curve(q1, q2)
        assert curve.alphas == (0.0, 0.5, 1.0)
        assert curve.values == (0.0, 0.0, 1.0)
        assert not curve.dominated
        assert odc_is_convex(curve, mode="exact").holds
        assert not check_lr(q1, q2).holds
        assert not roc_is_concave(roc_curve(q1, q2)).holds

    def test_dominated_lr_pairs_give_convex_curves(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            q1 = random_univariate(rng)
            factor = np.sort(rng.random(len(q1)) + 0.05)
            boosted = q1.probs * factor
            q2 = UnivariateDist(q1.support, boosted / boosted.sum())
            curve = odc_curve(q1, q2)
            assert curve.dominated
            assert odc_is_convex(curve).holds


class TestEquivalences:
    def test_roc_concavity_iff_lr_small_exhaustive(self):
        family = enumerate_weight_dists([1.0, 2.0, 3.0], 2)
        for q1, q2 in itertools.product(family, repeat=2):
            lr = check_lr(q1, q2, mode="exact").holds
            concave = roc_is_concave(roc_curve(q1, q2), mode="exact").holds
            assert lr == concave

    def test_odc_convexity_iff_lr_under_domination(self):
        family = enumerate_weight_dists([1.0, 2.0, 3.0], 2)
        for q1, q2 in itertools.product(family, repeat=2):
            if not set(q2.canonical().support.tolist()) <= set(q1.canonical().support.tolist()):
                continue
            lr = check_lr(q1, q2, mode="exact").holds
            convex = odc_is_convex(odc_curve(q1, q2), mode="exact").holds
            assert lr == convex

    def test_roc_concavity_iff_lr_random(self):
        rng = np.random.default_rng(30)
        for _ in range(500):
            q1 = random_univariate(rng)
            q2 = random_univariate(rng)
            assert check_lr(q1, q2).holds == roc_is_concave(roc_curve(q1, q2)).holds


# ---------------------------------------------------------------------------
# the integer-weight curves against the Fraction code they replaced
# ---------------------------------------------------------------------------

#: zero and small weights, weights up to 1e20 (whose neighbors in a sum give
#: distinct rationals that round to one float), and weights on both sides of
#: the largest factor whose products fit in int64
WEIGHTS = st.one_of(st.integers(0, 9), st.integers(0, 10**20),
                    st.sampled_from([INT64_FACTOR_MAX, INT64_FACTOR_MAX + 1, 2**53, 10**20]))
BIG = INT64_FACTOR_MAX + 1


@st.composite
def weighted(draw):
    """One to eight atoms on a shared small lattice, so supports nest, overlap,
    are disjoint or lie above each other; zero weights included."""
    support = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(WEIGHTS, min_size=len(support), max_size=len(support)))
    if not any(weights):
        weights[0] = draw(st.integers(1, 10**20))
    return UnivariateDist.from_weights([float(x) for x in support], weights)


def verdict(v):
    return v.holds, v.method, v.witness


def modes_of(exact_view):
    return [MODE_FLOAT] + [MODE_EXACT] * (exact_view is not None)


#: two distributions, whether to read them as floats, and the float slack
PAIRS = (weighted(), weighted(), st.booleans(), st.sampled_from([0.0, PRODUCT_RTOL]))


class TestAgainstFractionOracles:
    @given(*PAIRS)
    @settings(max_examples=400, deadline=None)
    # spans one above the int64 limit: the failing triple's product is BIG**2
    @example(UnivariateDist.from_weights([2.0], [BIG]), UnivariateDist.from_weights([1.0], [BIG]),
             False, 0.0)
    @example(UnivariateDist.from_weights([2.0], [BIG - 1]),
             UnivariateDist.from_weights([1.0], [BIG - 1]), False, 0.0)
    def test_roc(self, q1, q2, floats, tol):
        if floats:
            q1, q2 = UnivariateDist(q1.support, q1.probs), UnivariateDist(q2.support, q2.probs)
        curve = roc_curve(q1, q2)
        points, exact_points = roc_curve_fractions(q1, q2)
        assert repr(curve.points) == repr(points)
        assert roc_exact_points(curve) == exact_points
        for mode in modes_of(exact_points):
            oracle = (roc_concave_by_triples(exact_points, mode, tol) if mode == MODE_EXACT
                      else roc_concave_by_steps(q1, q2, mode, tol))
            assert verdict(roc_is_concave(curve, mode, tol)) == verdict(oracle)
        assert (verdict(roc_is_concave(RocCurve(points), MODE_FLOAT, tol))
                == verdict(roc_concave_by_triples(points, MODE_FLOAT, tol)))

    @given(*PAIRS)
    @settings(max_examples=400, deadline=None)
    @example(UnivariateDist.from_weights([1.0, 2.0], [1, BIG]),
             UnivariateDist.from_weights([1.0], [BIG]), False, 0.0)
    @example(UnivariateDist.from_weights([1.0, 2.0], [1, BIG - 2]),
             UnivariateDist.from_weights([1.0], [BIG - 2]), False, 0.0)
    # q2 mass above q1's largest atom: the last level is not q2's total
    @example(UnivariateDist.from_weights([0.0], [3]), UnivariateDist.from_weights([5.0], [2]),
             False, 0.0)
    def test_odc(self, q1, q2, floats, tol):
        if floats:
            q1, q2 = UnivariateDist(q1.support, q1.probs), UnivariateDist(q2.support, q2.probs)
        curve = odc_curve(q1, q2)
        alphas, values, dominated, exact_a, exact_v = odc_curve_fractions(q1, q2)
        assert repr((curve.alphas, curve.values, curve.dominated)) == repr((alphas, values, dominated))
        assert (curve.exact_alphas, curve.exact_values) == (exact_a, exact_v)
        for mode in modes_of(exact_a):
            oracle = (odc_convex_by_triples(exact_a, exact_v, mode, tol) if mode == MODE_EXACT
                      else odc_convex_by_steps(q1, q2, mode, tol))
            assert verdict(odc_is_convex(curve, mode, tol)) == verdict(oracle)
        assert (verdict(odc_is_convex(OdcCurve(alphas, values, dominated), MODE_FLOAT, tol))
                == verdict(odc_convex_by_triples(alphas, values, MODE_FLOAT, tol)))


def as_floats(q: UnivariateDist) -> UnivariateDist:
    return UnivariateDist(q.support, q.probs)


def floats_exactly(q: UnivariateDist) -> UnivariateDist:
    """The floats' exact rational values as integer weights over one denominator."""
    fractions = [Fraction(p) for p in q.probs.tolist()]
    den = max(f.denominator for f in fractions)
    return UnivariateDist.from_weights(q.support, [int(f * den) for f in fractions])


class TestFloatVerdictsKeepTinyMasses:
    """Read as floats, a pair whose exact verdict holds on the floats' own
    rational values holds in float mode too: scoring the masses between
    points keeps the tail masses that rounded points near a corner lose."""

    @given(weighted(), weighted())
    @settings(max_examples=400, deadline=None)
    # pairs whose float verdicts failed on differences of rounded points
    @example(UnivariateDist.from_weights([-3.0, -2.0], [46746, 189]),
             UnivariateDist.from_weights([-1.0, 1.0, 6.0], [5, BIG, 517]))
    @example(UnivariateDist.from_weights([-3.0, 0.0, 5.0], [69978332564443, 6, BIG - 1]),
             UnivariateDist.from_weights([-3.0, 0.0, 5.0], [6, 6, BIG - 1]))
    def test_exact_verdict_on_the_floats_holds_in_float_mode(self, q1, q2):
        q1, q2 = as_floats(q1), as_floats(q2)
        e1, e2 = floats_exactly(q1), floats_exactly(q2)
        roc = roc_is_concave(roc_curve(e1, e2), MODE_EXACT)
        assert verdict(roc) == verdict(
            roc_concave_by_triples(roc_curve_fractions(e1, e2)[1], MODE_EXACT))
        if roc.holds:
            assert roc_is_concave(roc_curve(q1, q2)).holds
        _, _, _, exact_a, exact_v = odc_curve_fractions(e1, e2)
        odc = odc_is_convex(odc_curve(e1, e2), MODE_EXACT)
        assert verdict(odc) == verdict(odc_convex_by_triples(exact_a, exact_v, MODE_EXACT))
        if odc.holds:
            assert odc_is_convex(odc_curve(q1, q2)).holds
