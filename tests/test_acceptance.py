"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Exhaustive families run in exact integer mode (zero tolerance); randomized
families run in float mode with the package-wide product slack.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from stochorder import (
    BivariateDist,
    GridSignedMeasure,
    UnivariateDist,
    boundaries,
    check_lr,
    check_st,
    check_tp2,
    kernel_east,
    kernel_new,
    kernel_west,
    kuiper_norm,
    minimal_isotonic_density,
    odc_curve,
    odc_is_convex,
    refine_grid,
    roc_curve,
    roc_is_concave,
    signed_difference,
    tp2_project,
    bracket_check,
    uniform_convergence_check,
)
from stochorder.distributions import Interval
from stochorder.fixtures import (
    antidiag,
    banded_tp2,
    diag_uniform,
    gamma_pair,
    gaussian_pair,
    odc_counterexample,
    random_tp2,
)
from stochorder.orders import LR_METHODS
from helpers import (
    _norm_kadane,
    enumerate_weight_dists,
    fractions,
    lr_chain,
    measure_pair_with_isotonic_ratio,
    random_univariate,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} [{status}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared exhaustive computations (criteria 1-5 reuse these)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exhaustive():
    """All integer-weight distributions on {1,2,3} with weights <= 4, and the
    likelihood-ratio / stochastic-order verdicts over every ordered pair."""
    t0 = time.perf_counter()
    family = enumerate_weight_dists([1.0, 2.0, 3.0], 4)
    n = len(family)
    lr = np.zeros((n, n), dtype=bool)
    st = np.zeros((n, n), dtype=bool)
    disagreements = 0
    for i, q1 in enumerate(family):
        for j, q2 in enumerate(family):
            verdicts = [check_lr(q1, q2, m, mode="exact").holds for m in LR_METHODS]
            if len(set(verdicts)) != 1:
                disagreements += 1
            lr[i, j] = verdicts[0]
            st[i, j] = check_st(q1, q2, mode="exact").holds
    return {
        "family": family,
        "lr": lr,
        "st": st,
        "disagreements": disagreements,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def random_pairs():
    """10^4 random float pairs (a third of them LR-ordered by construction)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_240_817)
    pairs = []
    disagreements = 0
    for trial in range(10_000):
        q1 = random_univariate(rng, max_atoms=4)
        if trial % 3 == 0:
            factor = np.sort(rng.random(len(q1)) + 0.05)
            boosted = q1.probs * factor
            q2 = UnivariateDist(q1.support, boosted / boosted.sum())
        else:
            q2 = random_univariate(rng, max_atoms=4)
        verdicts = [check_lr(q1, q2, m).holds for m in LR_METHODS]
        if len(set(verdicts)) != 1:
            disagreements += 1
        pairs.append((q1, q2, verdicts[0]))
    return {"pairs": pairs, "disagreements": disagreements,
            "elapsed": time.perf_counter() - t0}


def test_criterion_01_lr_method_equivalence(exhaustive, random_pairs):
    n_pairs = len(exhaustive["family"]) ** 2
    elapsed = exhaustive["elapsed"] + random_pairs["elapsed"]
    ok = (
        exhaustive["disagreements"] == 0
        and random_pairs["disagreements"] == 0
        and elapsed < 60.0
    )
    report(1, "four check_lr characterizations agree", ok,
           f"{n_pairs} exhaustive + 10000 random pairs, {elapsed:.1f}s")


def test_criterion_02_lr_implies_st(exhaustive, random_pairs):
    lr, st = exhaustive["lr"], exhaustive["st"]
    bad = int(np.sum(lr & ~st))
    for q1, q2, holds in random_pairs["pairs"]:
        if holds and not check_st(q1, q2).holds:
            bad += 1
    report(2, "likelihood ratio order implies stochastic order", bad == 0,
           f"{bad} counterexamples")


def test_criterion_03_partial_order(exhaustive):
    family = exhaustive["family"]
    lr = exhaustive["lr"]
    failures = 0

    # reflexivity: exhaustive family plus random draws
    failures += sum(1 for i in range(len(family)) if not lr[i, i])
    rng = np.random.default_rng(99)
    for _ in range(1000):
        q = random_univariate(rng)
        if not check_lr(q, q).holds:
            failures += 1

    # antisymmetry in exact mode: both directions force equal canonical pmfs
    for i, j in zip(*np.nonzero(lr & lr.T)):
        c1 = family[i].canonical()
        c2 = family[j].canonical()
        if c1.support.tolist() != c2.support.tolist() or fractions(c1) != fractions(c2):
            failures += 1

    # transitivity on constructed chains
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        q1, q2, q3 = lr_chain(rng)
        if not (check_lr(q1, q2).holds and check_lr(q2, q3).holds and check_lr(q1, q3).holds):
            failures += 1

    report(3, "reflexivity, antisymmetry, transitivity", failures == 0,
           f"{failures} failures over exhaustive + 10000 chains")


def test_criterion_04_roc_concavity_iff_lr(exhaustive):
    family = exhaustive["family"]
    lr = exhaustive["lr"]
    disagreements = 0
    for i, q1 in enumerate(family):
        for j, q2 in enumerate(family):
            concave = roc_is_concave(roc_curve(q1, q2), mode="exact").holds
            if concave != lr[i, j]:
                disagreements += 1
    g_ok = roc_is_concave(roc_curve(*gamma_pair())).holds
    n_bad = not roc_is_concave(roc_curve(*gaussian_pair())).holds
    ok = disagreements == 0 and g_ok and n_bad
    report(4, "ROC concavity iff likelihood ratio order", ok,
           f"{disagreements} disagreements; gamma concave={g_ok}, gaussian concave={not n_bad}")


def test_criterion_05_odc_convexity_iff_lr(exhaustive):
    family = exhaustive["family"]
    lr = exhaustive["lr"]
    supports = [set(q.canonical().support.tolist()) for q in family]
    disagreements = 0
    checked = 0
    for i, q1 in enumerate(family):
        for j, q2 in enumerate(family):
            if not supports[j] <= supports[i]:
                continue
            checked += 1
            convex = odc_is_convex(odc_curve(q1, q2), mode="exact").holds
            if convex != lr[i, j]:
                disagreements += 1
    q1, q2 = odc_counterexample()
    curve = odc_curve(q1, q2)
    ctrex_ok = (
        curve.exact_alphas == (Fraction(0), Fraction(1, 2), Fraction(1))
        and curve.exact_values == (Fraction(0), Fraction(0), Fraction(1))
        and odc_is_convex(curve, mode="exact").holds
        and not check_lr(q1, q2).holds
        and not curve.dominated
    )
    ok = disagreements == 0 and ctrex_ok
    report(5, "dominance-curve convexity iff LR under absolute continuity", ok,
           f"{checked} dominated pairs, {disagreements} disagreements; counterexample={ctrex_ok}")


# ---------------------------------------------------------------------------
# criterion 6: discrete TP2 equivalences, exhaustively
# ---------------------------------------------------------------------------


def _rows_lr_exact(weights) -> bool:
    """Consecutive positive rows are LR ordered; exact integer cross products."""
    rows = [r for r in weights if sum(r) > 0]
    m = len(rows[0])
    for r1, r2 in zip(rows, rows[1:]):
        for a in range(m):
            for b in range(a + 1, m):
                if r2[a] * r1[b] > r1[a] * r2[b]:
                    return False
    return True


def test_criterion_06_discrete_tp2_equivalences():
    t0 = time.perf_counter()
    disagreements = 0
    total = 0
    spot_checks = 0

    def run(shape, supports):
        nonlocal disagreements, total, spot_checks
        cells = shape[0] * shape[1]
        for flat in itertools.product(range(4), repeat=cells):
            if sum(flat) == 0:
                continue
            total += 1
            weights = [list(flat[i * shape[1] : (i + 1) * shape[1]]) for i in range(shape[0])]
            r = BivariateDist.from_weights(supports[0], supports[1], weights)
            tp2 = check_tp2(r, "pmf-allpairs", mode="exact").holds
            if check_tp2(r, "intervals", mode="exact").holds != tp2:
                disagreements += 1
            if _rows_lr_exact(weights) != tp2:
                disagreements += 1
            if check_tp2(r, "pmf-adjacent", mode="exact").holds != tp2:
                disagreements += 1
            # spot-check the fast row oracle against the public kernel path
            if total % 4096 == 0:
                atoms = r.marginal_x().support.tolist()
                rows = [r.conditional_row(x) for x in atoms]
                public = all(
                    check_lr(a, b, mode="exact").holds for a, b in zip(rows, rows[1:])
                )
                if public != _rows_lr_exact(weights):
                    disagreements += 1
                spot_checks += 1

    run((2, 2), ([1.0, 2.0], [1.0, 2.0]))
    run((3, 3), ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))

    # plus random integer matrices beyond the exhaustive weight range
    rng = np.random.default_rng(666)
    randoms = 0
    for _ in range(10_000):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        w = rng.integers(0, 8, size=(nx, ny))
        if w.sum() == 0:
            continue
        randoms += 1
        weights = w.tolist()
        r = BivariateDist.from_weights(
            list(range(1, nx + 1)), list(range(1, ny + 1)), weights
        )
        tp2 = check_tp2(r, "pmf-allpairs", mode="exact").holds
        if check_tp2(r, "intervals", mode="exact").holds != tp2:
            disagreements += 1
        if check_tp2(r, "pmf-adjacent", mode="exact").holds != tp2:
            disagreements += 1
        if _rows_lr_exact(weights) != tp2:
            disagreements += 1

    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 120.0
    report(6, "pmf TP2 iff interval TP2 iff LR-isotonic kernel rows", ok,
           f"{total} exhaustive + {randoms} random matrices, "
           f"{spot_checks} kernel spot checks, {elapsed:.1f}s")


def test_criterion_07_kernel_and_support_bracketing():
    rng = np.random.default_rng(777)
    failures = 0
    for trial in range(1000):
        nx = int(rng.integers(2, 6))
        ny = int(rng.integers(2, 6))
        r = random_tp2(rng, nx, ny, band=bool(trial % 2))
        kw = kernel_west(r)
        ke = kernel_east(r)
        kn = kernel_new(r)
        for x in kn.eval_points.tolist():
            if not check_lr(kw.row_at(x), kn.row_at(x)).holds:
                failures += 1
            if not check_lr(kn.row_at(x), ke.row_at(x)).holds:
                failures += 1
        b = boundaries(r, r.x_support.tolist())
        for i, x in enumerate(r.x_support.tolist()):
            s_nw, s_se, _, _ = b.at(x)
            for j, y in enumerate(r.y_support.tolist()):
                if r.pmf[i, j] > 0 and not (s_se <= y <= s_nw):
                    failures += 1
    report(7, "west <=lr new <=lr east and support inside the boundary band",
           failures == 0, f"{failures} failures over 1000 TP2 instances")


def test_criterion_08_kadane_equals_brute():
    rng = np.random.default_rng(888)
    mismatches = 0
    float_mismatches = 0
    for trial in range(10_000):
        nx = int(rng.integers(1, 13))
        ny = int(rng.integers(1, 13))
        delta = rng.integers(-100, 101, size=(nx, ny))
        sigma = GridSignedMeasure(np.arange(float(nx)), np.arange(float(ny)), delta)
        exact_kadane = _norm_kadane(delta.tolist())
        if any(kuiper_norm(sigma, method) != exact_kadane for method in ("brute", "kadane")):
            mismatches += 1
        if trial % 5 == 0:
            fdelta = delta / 64.0
            fsigma = GridSignedMeasure(np.arange(float(nx)), np.arange(float(ny)), fdelta)
            float_kadane = _norm_kadane(fdelta.tolist())
            if any(abs(kuiper_norm(fsigma, method) - float_kadane) > 1e-12
                   for method in ("brute", "kadane")):
                float_mismatches += 1
    ok = mismatches == 0 and float_mismatches == 0
    report(8, "Kuiper norm under both method names agrees with the Kadane scan", ok,
           f"{mismatches} exact / {float_mismatches} float mismatches over 10000 matrices")


def test_criterion_09_tp2_projection():
    failures = []

    # (a) TP2 inputs project to themselves at distance exactly zero
    rng = np.random.default_rng(909)
    for r in (diag_uniform(3), banded_tp2(5), random_tp2(rng, 4, 4)):
        res = tp2_project(r, seed=1, restarts=2)
        if res.distance != 0.0 or not res.tp2_certified:
            failures.append("tp2-input")
        if not np.allclose(res.distribution.pmf[1::2, 1::2], r.canonical().pmf):
            failures.append("tp2-identity")

    # (b) anti-diagonal input: product baseline and dense-grid oracle bounds
    res_ad = tp2_project(antidiag(), seed=42, restarts=8)
    if not res_ad.tp2_certified or res_ad.distance > 0.25 + 1e-12:
        failures.append("antidiag-baseline")
    oracle = _antidiag_oracle_64()
    if res_ad.distance > oracle + 1.0 / 64.0 + 1e-12:
        failures.append(f"antidiag-oracle ({res_ad.distance} > {oracle} + 1/64)")

    # (c) certified output and per-instance runtime at 5x5
    rng = np.random.default_rng(910)
    pmf = rng.random((5, 5))
    r5 = BivariateDist(np.arange(5.0), np.arange(5.0), pmf / pmf.sum())
    t0 = time.perf_counter()
    res5 = tp2_project(r5, seed=7, restarts=8)
    elapsed = time.perf_counter() - t0
    recheck = check_tp2(res5.distribution, "pmf-allpairs").holds
    if not (res5.tp2_certified and recheck):
        failures.append("certification")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s")
    dist_recomputed = float(
        kuiper_norm(signed_difference(res5.distribution, refine_grid(r5)), "brute")
    )
    if abs(dist_recomputed - res5.distance) > 1e-12:
        failures.append("distance-recompute")

    report(9, "certified TP2 projection within baselines", not failures,
           f"antidiag distance {res_ad.distance:.6f}, oracle {oracle:.6f}, "
           f"5x5 in {elapsed:.1f}s{'; ' + ', '.join(failures) if failures else ''}")


def _antidiag_oracle_64() -> float:
    """Best Kuiper distance to the anti-diagonal over the 1/64 grid of TP2
    pmfs supported on the four original cells (independent brute-force)."""
    best = None
    for a in range(65):
        for b in range(65 - a):
            for c in range(65 - a - b):
                d = 64 - a - b - c
                if b * c > a * d:
                    continue
                da, db, dc, dd = a, b - 32, c - 32, d
                m = max(
                    abs(da), abs(db), abs(dc), abs(dd),
                    abs(da + db), abs(dc + dd), abs(da + dc), abs(db + dd),
                )
                if best is None or m < best:
                    best = m
    return best / 64.0


def test_criterion_10_convergence_harness():
    t0 = time.perf_counter()
    band = banded_tp2(5)
    failures = 0
    for beta in (0.25, 0.5, 0.75):
        for seed in range(1, 21):
            rep = bracket_check(band, {"n_list": [100, 1000, 10_000], "seed": seed},
                                beta, 2.0, 4.0)
            for entry in rep.entries:
                if entry.n >= 1000 and not (entry.lower_ok and entry.upper_ok):
                    failures += 1
    diag = diag_uniform(5)
    for seed in range(1, 21):
        rep = uniform_convergence_check(diag, 0.5, (2.0, 4.0), [100, 1000, 10_000],
                                        [seed])
        for entry in rep.entries:
            if entry.n >= 10_000 and entry.sup_distance != 0.0:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 300.0
    report(10, "quantile bracketing and uniform convergence", ok,
           f"{failures} failures, {elapsed:.1f}s")


def test_criterion_11_isotonic_density_properties():
    rng = np.random.default_rng(1111)
    failures = 0
    for _ in range(10_000):
        mu, nu, ratio = measure_pair_with_isotonic_ratio(rng)
        f = minimal_isotonic_density(mu, nu)
        vals = f.values
        if np.any(np.diff(vals) < 0):
            failures += 1
        # atom-ratio formula
        for v, r in zip(mu.support.tolist(), (nu.probs / mu.probs).tolist()):
            if abs(f.evaluate(v) - min(1.0, r)) > 1e-12:
                failures += 1
                break
        # interval masses reproduced
        bounds = [mu.support[0] - 1.0] + mu.support.tolist()
        for a, b in zip(bounds, bounds[2:]):
            iv = Interval.open_closed(a, b)
            integral = sum(
                f.evaluate(v) * mu.atom_prob(v)
                for v in mu.support.tolist()
                if iv.contains(v)
            )
            if abs(integral - nu.interval_mass(iv)) > 1e-12:
                failures += 1
                break
    report(11, "minimal isotonic density: formula, isotonicity, reproduction",
           failures == 0, f"{failures} failures over 10000 measure pairs")
