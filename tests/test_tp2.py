import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    BivariateDist,
    DomainError,
    PreconditionError,
    boundaries,
    check_lr,
    check_st_condition,
    check_tp2,
    conditional_density,
    kernel_east,
    kernel_new,
    kernel_west,
)
from stochorder.fixtures import banded_tp2, diag_uniform, random_tp2, unif_delta_kernel

from stochorder.tp2 import _row_index

from helpers import all_blocks_st_condition, boundaries_by_loop, row_index_by_classify

NEG_INF = float("-inf")
POS_INF = float("inf")


def product_uniform_2x2() -> BivariateDist:
    return BivariateDist.from_weights([1, 2], [1, 2], [[1, 1], [1, 1]])


def antidiag_2x2() -> BivariateDist:
    return BivariateDist.from_weights([1, 2], [1, 2], [[0, 1], [1, 0]])


def integer_matrices(rng: np.random.Generator, n: int) -> list[BivariateDist]:
    """Integer-weight matrices up to 6x6, many with zero cells: sparse random
    ones, products (proportional rows, exact ties), and chains whose rows move
    mass upward (stochastically increasing rows); half of the last two kinds
    get one cell raised or lowered by 1."""
    out = []
    while len(out) < n:
        nx, ny = (int(v) for v in rng.integers(1, 7, size=2))
        kind = len(out) % 3
        if kind == 0:
            w = rng.integers(0, 4, (nx, ny)) * (rng.random((nx, ny)) < rng.random())
        elif kind == 1:
            w = np.outer(rng.integers(0, 3, nx), rng.integers(0, 3, ny))
        else:
            row = rng.integers(0, 4, ny)
            rows = [row]
            for _ in range(nx - 1):
                row = row.copy()
                src = [j for j in range(ny - 1) if row[j] > 0]
                if src:
                    j = int(rng.choice(src))
                    m = int(rng.integers(1, row[j] + 1))
                    row[j] -= m
                    row[int(rng.integers(j + 1, ny))] += m
                rows.append(row)
            w = np.array(rows)
        if kind and rng.random() < 0.5:
            i, j = int(rng.integers(nx)), int(rng.integers(ny))
            w[i, j] = max(0, w[i, j] + (1 if rng.random() < 0.5 else -1))
        if w.sum() > 0:
            out.append(BivariateDist.from_weights(range(nx), range(ny), w.tolist()))
    return out


def assert_st_witness_violated(r: BivariateDist, witness, form: str) -> None:
    """The witness cuts hold exactly one mass-carrying row each, the two rows
    are consecutive, and the form's inequality fails on the input's weights."""
    x0, x1, x2, y = witness
    atoms = r.canonical().x_support
    lo = np.flatnonzero((atoms > x0) & (atoms < x1))
    hi = np.flatnonzero((atoms > x1) & (atoms < x2))
    assert lo.size == hi.size == 1 and hi[0] == lo[0] + 1
    cells = r.cells("exact")
    xs, up = r.x_support, r.y_support > y
    left = cells[(xs > x0) & (xs < x1)]
    right = cells[(xs > x1) & (xs < x2)]
    up1, up2 = left[:, up].sum(), right[:, up].sum()
    t1, t2 = left.sum(), right.sum()
    if form == "marginal":
        assert up1 * t2 > t1 * up2
    else:
        assert up1 * (t2 - up2) > (t1 - up1) * up2


def skew_2x2() -> BivariateDist:
    # pmf [[0.3, 0.1], [0.2, 0.4]]: TP2 since 0.1 * 0.2 <= 0.3 * 0.4
    return BivariateDist(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                         np.array([[0.3, 0.1], [0.2, 0.4]]))


class TestStCondition:
    def test_product_distribution_holds(self):
        assert check_st_condition(product_uniform_2x2()).holds

    def test_diagonal_holds(self):
        r = BivariateDist.from_weights([1, 2], [1, 2], [[1, 0], [0, 1]])
        assert check_st_condition(r).holds

    def test_antidiagonal_fails_with_witness(self):
        r = antidiag_2x2()
        v = check_st_condition(r)
        assert not v.holds
        x0, x1, x2, y = v.witness
        assert x0 < x1 < x2 and y == 1.5
        assert_st_witness_violated(r, v.witness, "marginal")

    @pytest.mark.parametrize("form", ["marginal", "joint"])
    def test_witness_brackets_violated_consecutive_rows(self, form):
        # at consecutive rows the marginal and the joint product differ by
        # up1 * up2 on both sides, so one witness violates both forms
        failing = [r for r in integer_matrices(np.random.default_rng(31), 300)
                   if not check_st_condition(r, "exact").holds]
        assert len(failing) > 50
        for r in failing:
            assert_st_witness_violated(r, check_st_condition(r, "exact").witness, form)

    def test_matches_all_blocks_oracle(self):
        # the condition on all adjacent block pairs reduces to consecutive rows:
        # a chord slope of the path (sum g, sum f) is a weighted mean of segment slopes
        cases = integer_matrices(np.random.default_rng(2024), 10_000)
        assert sum(bool((r.pmf == 0).any()) for r in cases) > 5_000
        verdicts = {True: 0, False: 0}
        for r in cases:
            for mode in ("exact", "float"):
                holds = check_st_condition(r, mode).holds
                for form in ("marginal", "joint"):
                    assert holds == all_blocks_st_condition(r, mode, form=form).holds
                verdicts[holds] += 1
        assert min(verdicts.values()) > 5_000

    def test_joint_form_agrees(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            pmf = rng.random((3, 3))
            r = BivariateDist(np.arange(3.0), np.arange(3.0), pmf / pmf.sum())
            holds = check_st_condition(r).holds
            for form in ("marginal", "joint"):
                assert holds == all_blocks_st_condition(r, form=form).holds


class TestCheckTp2:
    def test_product_holds(self):
        assert check_tp2(product_uniform_2x2()).holds

    def test_diagonal_holds(self):
        r = BivariateDist.from_weights([1, 2], [1, 2], [[1, 0], [0, 1]])
        assert check_tp2(r).holds

    def test_antidiagonal_fails_with_witness(self):
        v = check_tp2(antidiag_2x2())
        assert not v.holds
        assert v.witness == (1.0, 2.0, 1.0, 2.0)

    def test_methods_agree_on_random_matrices(self):
        # strictly positive matrices, banded TP2 ones with zero cells, and
        # planted violations: pmf-adjacent needs no positivity guard
        rng = np.random.default_rng(14)
        cases = []
        for _ in range(200):
            pmf = rng.random((3, 4)) + 0.01
            cases.append(BivariateDist(np.arange(3.0), np.arange(4.0), pmf / pmf.sum()))
        for trial in range(200):
            nx, ny = (int(v) for v in rng.integers(2, 6, size=2))
            r = random_tp2(rng, nx, ny, band=True)
            cases.append(r)
            pmf = r.pmf.copy()
            i, j = int(rng.integers(0, pmf.shape[0])), int(rng.integers(0, pmf.shape[1]))
            pmf[i, j] = 0.0 if trial % 2 else pmf[i, j] + 1.0
            cases.append(BivariateDist(r.x_support, r.y_support, pmf / pmf.sum()))
        verdicts = set()
        for r in cases:
            res = {m: check_tp2(r, m).holds for m in ("pmf-allpairs", "pmf-adjacent", "intervals")}
            assert len(set(res.values())) == 1
            verdicts.add((res["pmf-allpairs"], bool(np.all(r.canonical().pmf > 0))))
        # every combination of verdict and positivity occurs
        assert len(verdicts) == 4

    def test_adjacent_fails_on_zero_cells_without_fallback(self):
        # every adjacent 2x2 minor holds; the ratio scan of the consecutive rows
        # x=1, 2 over their positive columns y=1, 3 finds the violated minor
        # h(2,1) h(1,3) = 1 > 0 = h(1,1) h(2,3) without any fallback
        r = BivariateDist.from_weights(
            [1, 2, 3], [1, 2, 3], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        )
        v = check_tp2(r, "pmf-adjacent")
        assert not v.holds
        assert v.method == "tp2:pmf-adjacent"
        assert v.witness == (1.0, 2.0, 1.0, 3.0)
        assert not check_tp2(r, "pmf-allpairs").holds

    def test_exact_mode(self):
        assert check_tp2(antidiag_2x2(), mode="exact").holds is False
        assert check_tp2(product_uniform_2x2(), mode="exact").holds

    def test_intervals_method_on_examples(self):
        assert check_tp2(product_uniform_2x2(), "intervals").holds
        assert not check_tp2(antidiag_2x2(), "intervals").holds

    def test_intervals_float_keeps_empty_rectangles_at_zero(self):
        # TP2 (every minor holds); the empty rectangle rows [1, 2) x columns [2, 3)
        # came out of 2-D inclusion-exclusion as a rounding residue, which
        # flipped the float intervals verdict against the exact one
        r = BivariateDist.from_weights([0, 1, 2], [0, 1, 2], [[1, 0, 0], [4, 1, 0], [0, 0, 3]])
        for mode in ("float", "exact"):
            assert check_tp2(r, "intervals", mode=mode).holds


class TestBoundaries:
    def test_diagonal_uniform(self):
        b = boundaries(diag_uniform(3))
        s_nw, s_se, crossing, in_range = b.at(2.5)
        assert (s_nw, s_se) == (2.0, 3.0)
        assert crossing and in_range

    def test_product_is_not_crossing(self):
        b = boundaries(product_uniform_2x2())
        s_nw, s_se, crossing, _ = b.at(1.0)
        assert (s_nw, s_se) == (2.0, 1.0)
        assert not crossing

    def test_point_mass(self):
        r = BivariateDist.from_weights([0.0], [0.0], [[1]])
        b = boundaries(r)
        s_nw, s_se, crossing, in_range = b.at(0.0)
        assert s_nw == s_se == 0.0
        assert crossing and in_range

    def test_out_of_range_flagged(self):
        b = boundaries(diag_uniform(3), [-5.0, 2.0, 99.0])
        assert b.in_range.tolist() == [False, True, False]
        assert b.s_nw[0] == NEG_INF
        assert b.s_se[2] == POS_INF

    def test_boundaries_monotone(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            r = random_tp2(rng, 4, 5, band=bool(rng.integers(0, 2)))
            b = boundaries(r)
            assert np.all(np.diff(b.s_nw) >= 0)
            assert np.all(np.diff(b.s_se) >= 0)

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_point_loop(self, nx, ny, data):
        # sparse grids, often with empty rows and columns, on atoms 0, 2, 4, ...;
        # points at atoms, in gaps, beyond both ends and at +-inf
        cells = data.draw(st.lists(st.sampled_from([0, 0, 1, 5]), min_size=nx * ny, max_size=nx * ny)
                          .filter(any))
        atoms = [2.0 * i for i in range(max(nx, ny))]
        r = BivariateDist.from_weights(atoms[:nx], atoms[:ny], np.reshape(cells, (nx, ny)))
        points = st.one_of(st.sampled_from([NEG_INF, POS_INF]), st.integers(-2, 2 * nx).map(float),
                           st.floats(-3.0, 2.0 * nx + 1.0))
        xs = data.draw(st.lists(points, min_size=1, max_size=8))
        b = boundaries(r, xs)
        s_nw, s_se = boundaries_by_loop(r, b.xs.tolist())
        assert b.s_nw.tobytes() == s_nw.tobytes() and b.s_se.tobytes() == s_se.tobytes()
        assert b.in_crossing.tolist() == (s_nw <= s_se).tolist()


class TestExtremalKernels:
    def test_rows_at_atoms_equal_conditionals(self):
        r = skew_2x2()
        for kern in (kernel_west(r), kernel_east(r)):
            for x in (1.0, 2.0):
                np.testing.assert_allclose(
                    kern.row_at(x).probs, r.conditional_row(x).probs
                )

    def test_gap_rows_take_nearest_atom(self):
        r = BivariateDist.from_weights([1, 2], [1, 2], [[1, 0], [0, 1]])
        assert kernel_west(r).row_at(1.5).support.tolist() == [1.0]
        assert kernel_east(r).row_at(1.5).support.tolist() == [2.0]

    def test_outside_range_returns_marginal(self):
        r = skew_2x2()
        kern = kernel_west(r, [0.0])
        np.testing.assert_allclose(kern.row_at(0.0).probs, r.marginal_y().probs)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            kernel_west(skew_2x2(), [])

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True).map(sorted), st.data())
    @settings(max_examples=300, deadline=None)
    def test_row_index_equals_the_per_point_loop(self, atoms, data):
        # points at atoms, in gaps, beyond both ends and at +-inf
        atoms = np.array(atoms, dtype=float) / 2
        points = st.one_of(st.sampled_from([NEG_INF, POS_INF, *atoms.tolist()]), st.floats(-12.0, 12.0))
        xs = sorted(data.draw(st.lists(points, min_size=1, max_size=8, unique=True)))
        west, east, in_range = _row_index(atoms, xs)
        assert (west.tolist(), east.tolist(), in_range.tolist()) == row_index_by_classify(atoms, xs)

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_kernel_rows_are_the_rows_the_loop_picks(self, nx, ny, data):
        # sparse grids, often with empty rows, on atoms 0, 2, 4, ...
        cells = data.draw(st.lists(st.sampled_from([0, 0, 1, 5]), min_size=nx * ny, max_size=nx * ny)
                          .filter(any))
        r = BivariateDist.from_weights([2.0 * i for i in range(nx)], [2.0 * j for j in range(ny)],
                                       np.reshape(cells, (nx, ny))).canonical()
        points = st.one_of(st.sampled_from([NEG_INF, POS_INF]), st.integers(-2, 2 * nx).map(float))
        xs = sorted(data.draw(st.lists(points, min_size=1, max_size=8, unique=True)))
        west, east, in_range = row_index_by_classify(r.x_support, xs)
        for kern, index in ((kernel_west(r, xs), west), (kernel_east(r, xs), east)):
            for row, i, inside in zip(kern.rows, index, in_range):
                want = r.conditional_row(float(r.x_support[i])) if inside else r.marginal_y()
                assert row.support.tobytes() == want.support.tobytes()
                assert row.probs.tobytes() == want.probs.tobytes()
                assert row.weights.tolist() == want.weights.tolist()

    def test_kernel_reproduces_joint_distribution(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            r = random_tp2(rng, 3, 4, band=True)
            p = r.marginal_x()
            atoms = p.support.tolist()
            for kern in (kernel_west(r, atoms), kernel_east(r, atoms), kernel_new(r, atoms)):
                for j, y in enumerate(r.y_support.tolist()):
                    recon = sum(
                        p.atom_prob(x) * kern.row_at(x).atom_prob(y) for x in atoms
                    )
                    assert recon == pytest.approx(float(r.pmf[:, j].sum()), abs=1e-12)

    def test_extremal_rows_lr_isotonic_for_tp2_sources(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            r = random_tp2(rng, 4, 4, band=bool(rng.integers(0, 2)))
            for kern in (kernel_west(r), kernel_east(r)):
                for r1, r2 in zip(kern.rows, kern.rows[1:]):
                    assert check_lr(r1, r2).holds


class TestKernelNew:
    def test_requires_tp2(self):
        with pytest.raises(PreconditionError):
            kernel_new(antidiag_2x2())

    def test_diagonal_gives_isotonic_point_masses(self):
        kern = kernel_new(diag_uniform(3), rule="midpoint")
        sel = [row.support[0] for row in kern.rows]
        assert sel == sorted(sel)
        assert all(len(row) == 1 for row in kern.rows)

    def test_product_rows_equal_conditionals(self):
        r = product_uniform_2x2()
        kern = kernel_new(r)
        for x in (1.0, 2.0):
            np.testing.assert_allclose(kern.row_at(x).probs, r.conditional_row(x).probs)

    def test_rules_nw_se(self):
        r = diag_uniform(3)
        b = boundaries(r)
        for rule in ("nw", "se"):
            kern = kernel_new(r, rule=rule)
            for i, x in enumerate(kern.eval_points.tolist()):
                expected = b.s_nw[i] if rule == "nw" else b.s_se[i]
                assert kern.row_at(x).support.tolist() == [expected]

    def test_explicit_selection_validated(self):
        r = diag_uniform(3)
        grid = kernel_west(r).eval_points.tolist()
        bad = [(x, 99.0) for x in grid]
        with pytest.raises(PreconditionError):
            kernel_new(r, selection=bad)
        decreasing = [(x, -i) for i, x in enumerate(grid)]
        with pytest.raises(PreconditionError):
            kernel_new(r, selection=decreasing)

    def test_rows_lr_isotonic_on_random_tp2(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            r = random_tp2(rng, 4, 4, band=bool(rng.integers(0, 2)))
            kern = kernel_new(r)
            for r1, r2 in zip(kern.rows, kern.rows[1:]):
                assert check_lr(r1, r2).holds

    def test_bracketing_between_west_and_east(self):
        rng = np.random.default_rng(62)
        for _ in range(60):
            r = random_tp2(rng, 4, 4, band=bool(rng.integers(0, 2)))
            xs = None
            kw, kn, ke = kernel_west(r, xs), kernel_new(r, xs), kernel_east(r, xs)
            for x in kn.eval_points.tolist():
                assert check_lr(kw.row_at(x), kn.row_at(x)).holds
                assert check_lr(kn.row_at(x), ke.row_at(x)).holds

    def test_support_bracketing(self):
        rng = np.random.default_rng(63)
        for _ in range(60):
            r = random_tp2(rng, 4, 5, band=True)
            b = boundaries(r, r.x_support.tolist())
            for i, x in enumerate(r.x_support.tolist()):
                s_nw, s_se, _, _ = b.at(x)
                for j, y in enumerate(r.y_support.tolist()):
                    if r.pmf[i, j] > 0:
                        assert s_se <= y <= s_nw


class TestDiscreteTp2Equivalence:
    """pmf minors nonnegative iff consecutive conditional rows are LR ordered."""

    @staticmethod
    def rows_lr_ordered(r: BivariateDist) -> bool:
        atoms = r.marginal_x().support.tolist()
        rows = [r.conditional_row(x) for x in atoms]
        return all(check_lr(a, b, mode="exact").holds for a, b in zip(rows, rows[1:]))

    def test_exhaustive_2x2(self):
        for weights in itertools.product(range(3), repeat=4):
            if sum(weights) == 0:
                continue
            grid = [[weights[0], weights[1]], [weights[2], weights[3]]]
            r = BivariateDist.from_weights([1, 2], [1, 2], grid)
            tp2 = check_tp2(r, "pmf-allpairs", mode="exact").holds
            assert tp2 == self.rows_lr_ordered(r)
            assert tp2 == check_tp2(r, "intervals", mode="exact").holds

    def test_random_matrices(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            w = rng.integers(0, 4, size=(3, 3))
            if w.sum() == 0:
                continue
            r = BivariateDist.from_weights([1, 2, 3], [1, 2, 3], w.tolist())
            tp2 = check_tp2(r, "pmf-allpairs", mode="exact").holds
            assert tp2 == self.rows_lr_ordered(r)
            assert tp2 == check_tp2(r, "intervals", mode="exact").holds

    def test_tp2_implies_st_condition(self):
        rng = np.random.default_rng(88)
        for _ in range(200):
            pmf = rng.random((3, 3)) * (rng.random((3, 3)) < 0.8)
            if pmf.sum() == 0:
                continue
            r = BivariateDist(np.arange(3.0), np.arange(3.0), pmf / pmf.sum())
            if check_tp2(r).holds:
                assert check_st_condition(r).holds


class TestConditionalDensity:
    def test_product_gives_flat_density(self):
        r = product_uniform_2x2()
        kern = kernel_new(r)
        dens = conditional_density(kern, 1.0, r)
        assert dens.values.tolist() == pytest.approx([1.0, 1.0], abs=1e-12)
        assert dens.bound == pytest.approx(1.0, abs=1e-12)

    def test_skew_rows_integrate_to_one_and_are_tp2(self):
        r = skew_2x2()
        kern = kernel_new(r)
        q = r.marginal_y()
        h1 = conditional_density(kern, 1.0, r)
        h2 = conditional_density(kern, 2.0, r)
        # kernel rows are conditionals: h = conditional mass / marginal mass
        assert h1.values.tolist() == pytest.approx([1.5, 0.5], abs=1e-12)
        assert h2.values.tolist() == pytest.approx([2.0 / 3.0, 4.0 / 3.0], abs=1e-12)
        for dens in (h1, h2):
            total = sum(v * q.atom_prob(y) for y, v in zip(dens.ys, dens.values))
            assert total == pytest.approx(1.0, abs=1e-12)
        # TP2 in the evaluation point and the second coordinate
        assert h2.values[0] * h1.values[1] <= h1.values[0] * h2.values[1] + 1e-12

    def test_vanishes_outside_boundary_band(self):
        r = banded_tp2(5)
        kern = kernel_new(r)
        b = boundaries(r)
        for x in (1.5, 2.0, 3.5):
            s_nw, s_se, crossing, _ = b.at(x)
            if crossing:
                continue
            dens = conditional_density(kern, x, r)
            for y, v in zip(dens.ys, dens.values):
                if y < s_se or y > s_nw:
                    assert v == 0.0

    def test_crossing_region_rejected(self):
        r = diag_uniform(3)
        kern = kernel_new(r)
        with pytest.raises(DomainError):
            conditional_density(kern, 2.0, r)

    def test_unif_delta_kernel_has_crossing_middle(self):
        r = unif_delta_kernel(30)
        b = boundaries(r, [0.5])
        _, _, crossing, in_range = b.at(0.5)
        assert crossing and in_range
        assert check_tp2(r).holds

    def test_density_tp2_across_eval_points(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            r = random_tp2(rng, 4, 4)
            kern = kernel_new(r)
            b = boundaries(r)
            pts = [
                x for i, x in enumerate(kern.eval_points.tolist())
                if b.in_range[i] and not b.in_crossing[i]
            ]
            dens = {x: conditional_density(kern, x, r).values for x in pts}
            for x1, x2 in itertools.combinations(pts, 2):
                h1, h2 = dens[x1], dens[x2]
                for j1 in range(h1.size):
                    for j2 in range(j1 + 1, h1.size):
                        lhs = h2[j1] * h1[j2]
                        rhs = h1[j1] * h2[j2]
                        assert lhs <= rhs + 1e-12 * max(lhs, rhs)


class TestDegenerateSingleColumn:
    def test_single_x_atom_kernels_return_conditional_row(self):
        r = BivariateDist.from_weights([2.0], [1.0, 3.0], [[1, 3]])
        expected = r.conditional_row(2.0)
        for build in (kernel_west, kernel_east, kernel_new):
            kern = build(r)
            assert kern.eval_points.tolist() == [2.0]
            np.testing.assert_allclose(kern.rows[0].probs, expected.probs)
