import itertools

import numpy as np
import pytest

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

NEG_INF = float("-inf")
POS_INF = float("inf")


def product_uniform_2x2() -> BivariateDist:
    return BivariateDist.from_weights([1, 2], [1, 2], [[1, 1], [1, 1]])


def antidiag_2x2() -> BivariateDist:
    return BivariateDist.from_weights([1, 2], [1, 2], [[0, 1], [1, 0]])


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
        v = check_st_condition(antidiag_2x2())
        assert not v.holds
        x0, x1, x2, y = v.witness
        assert x0 < x1 < x2 and y == 1.5

    def test_joint_form_agrees(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            pmf = rng.random((3, 3))
            r = BivariateDist(np.arange(3.0), np.arange(3.0), pmf / pmf.sum())
            assert (
                check_st_condition(r, form="marginal").holds
                == check_st_condition(r, form="joint").holds
            )


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
            total = sum(v * q.atom_prob(y) for y, v in dens.pairs())
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
            for y, v in dens.pairs():
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
