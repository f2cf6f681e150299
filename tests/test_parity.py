"""Float and exact mode give the same verdicts on small integer-weight inputs.

Float mode reads the normalized masses with a relative slack, exact mode the
integer weights with no slack.  On weights 0-9 every strict inequality has a
relative gap far above the slack, so the two modes must agree on the verdict,
its method tag and its witness.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    BivariateDist,
    PreconditionError,
    UnivariateDist,
    check_lr,
    check_st_condition,
    check_tp2,
    maximal_isotonic_density,
    minimal_isotonic_density,
)
from stochorder.orders import LR_METHODS
from stochorder.tp2 import TP2_METHODS

from helpers import all_blocks_st_condition

WEIGHTS = st.integers(0, 9)


@st.composite
def weight_lists(draw, n):
    return draw(st.lists(WEIGHTS, min_size=n, max_size=n).filter(any))


@st.composite
def univariate(draw, support=None):
    if support is None:
        n = draw(st.integers(1, 5))
        support = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n, unique=True))
    return UnivariateDist.from_weights([float(v) for v in support], draw(weight_lists(len(support))))


@st.composite
def bivariate(draw):
    nx = draw(st.integers(1, 5))
    ny = draw(st.integers(1, 5))
    flat = draw(weight_lists(nx * ny))
    rows = [flat[i * ny:(i + 1) * ny] for i in range(nx)]
    return BivariateDist.from_weights(range(nx), range(ny), rows)


@st.composite
def measure_pairs(draw):
    """(mu, nu) on one support: nu random, or a multiple of mu's weights."""
    mu = draw(univariate())
    if draw(st.booleans()):
        nu = draw(univariate(mu.support.tolist()))
    else:
        nu = UnivariateDist.from_weights(mu.support, [draw(st.integers(1, 3)) * w for w in mu.weights])
    return mu, nu


@settings(max_examples=300, deadline=None)
@given(univariate(), univariate())
def test_check_lr_modes_agree(q1, q2):
    for method in LR_METHODS:
        assert check_lr(q1, q2, method, mode="float") == check_lr(q1, q2, method, mode="exact")


@settings(max_examples=300, deadline=None)
@given(bivariate())
def test_check_tp2_modes_agree(r):
    for method in TP2_METHODS:
        assert check_tp2(r, method, mode="float") == check_tp2(r, method, mode="exact")


@settings(max_examples=300, deadline=None)
@given(bivariate())
def test_check_st_condition_modes_agree(r):
    verdict = check_st_condition(r, "exact")
    assert check_st_condition(r, "float") == verdict
    for form in ("marginal", "joint"):
        assert all_blocks_st_condition(r, "exact", form=form).holds == verdict.holds


def _density_outcome(density, mu, nu, mode):
    try:
        d = density(mu, nu, verify=True, mode=mode)
    except PreconditionError as exc:
        return ("precondition", exc.witness)
    return (d.kind, d.points.tolist(), d.values.tolist())


@pytest.mark.parametrize("density", [minimal_isotonic_density, maximal_isotonic_density])
@settings(max_examples=300, deadline=None)
@given(pair=measure_pairs())
def test_verified_isotonic_densities_modes_agree(density, pair):
    mu, nu = pair
    assert _density_outcome(density, mu, nu, "float") == _density_outcome(density, mu, nu, "exact")
