"""Output checks that do not call the library being timed.

Each check receives the item's expectations (from the construction), the
exit code and the parsed stdout report, and raises ``CheckFailed`` when the
output is wrong.  Verdicts are compared with the construction; every failing
witness is re-verified by recomputing the violated product from the input
values with plain Python or numpy.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

#: The CLI's default relative slack for float product comparisons.
RTOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _violated(lhs, rhs, exact: bool) -> bool:
    """True when lhs <= rhs fails under the CLI's comparison rule."""
    if exact:
        return lhs > rhs
    return lhs > rhs + RTOL * max(abs(lhs), abs(rhs))


def _index(values: list, x: float) -> int:
    _require(x in values, f"witness coordinate {x!r} is not a support atom")
    return values.index(x)


def _verdict(expect: dict, code: int, payload: dict) -> bool:
    holds = expect["holds"]
    _require(payload["holds"] is holds, f"verdict {payload['holds']} against construction {holds}")
    _require(code == (0 if holds else 3), f"exit code {code} for holds={holds}")
    _require((payload["witness"] is None) == holds, "witness present iff the verdict fails")
    return holds


# ---------------------------------------------------------------------------
# bivariate
# ---------------------------------------------------------------------------


def check_tp2_check(expect, code, report):
    payload = report["result"]
    if _verdict(expect, code, payload):
        return
    x1, x2, y1, y2 = payload["witness"]
    i1, i2 = _index(expect["xs"], x1), _index(expect["xs"], x2)
    j1, j2 = _index(expect["ys"], y1), _index(expect["ys"], y2)
    _require(i1 < i2 and j1 < j2, "witness indices not increasing")
    h = expect["values"]
    _require(_violated(h[i2][j1] * h[i1][j2], h[i1][j1] * h[i2][j2], expect["exact"]),
             f"witness minor {payload['witness']} is not violated")


def _default_grid(xs: list) -> list:
    out = []
    for a, b in zip(xs, xs[1:]):
        out += [a, (a + b) / 2.0]
    return out + [xs[-1]]


def check_kernel_new(expect, code, report):
    if not expect["holds"]:
        _require(code == 4 and report is None, f"non-TP2 input gave exit {code}, expected 4")
        return
    _require(code == 0, f"exit code {code} on a TP2 input")
    result = report["result"]
    grid = _default_grid(expect["xs"])
    _require(result["eval_points"] == grid, "evaluation points are not the default grid")
    _require(len(result["rows"]) == len(grid), "one row per evaluation point expected")
    for x, row in zip(grid, result["rows"]):
        _require(all(t[0] == x for t in row), f"row at {x!r} carries foreign points")
        total = sum(t[2] for t in row)
        _require(abs(total - 1.0) <= 1e-9, f"kernel row at {x!r} sums to {total!r}")


def check_boundaries(expect, code, report):
    _require(code == 0, f"exit code {code}")
    xs, ys = expect["xs"], expect["ys"]
    pos = np.asarray(expect["values"], dtype=object) != 0
    top = np.maximum.accumulate([int(np.flatnonzero(r)[-1]) for r in pos])
    bot = np.minimum.accumulate([int(np.flatnonzero(r)[0]) for r in pos][::-1])[::-1]
    records = report["result"]["records"]
    grid = _default_grid(xs)
    _require([r["x"] for r in records] == grid, "boundary grid is not the default grid")
    for k, rec in enumerate(records):
        below = k // 2  # last atom at or below the point
        above = (k + 1) // 2  # first atom at or above the point
        s_nw, s_se = ys[top[below]], ys[bot[above]]
        _require(rec["s_nw"] == s_nw and rec["s_se"] == s_se,
                 f"boundaries at {rec['x']!r} differ from the support scan")
        _require(rec["crossing"] == (s_nw <= s_se) and rec["in_range"], "flags differ")


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------


def _masses(expect):
    if expect["exact"]:
        return [Fraction(w) for w in expect["g1"]], [Fraction(w) for w in expect["g2"]]
    return expect["g1"], expect["g2"]


def check_lr(expect, code, report):
    payload = report["result"]
    if _verdict(expect, code, payload):
        return
    support = expect["support"]
    a, b = _index(support, payload["witness"][0]), _index(support, payload["witness"][1])
    _require(a < b, "LR witness atoms not increasing")
    g1, g2 = expect["g1"], expect["g2"]
    _require(_violated(g2[a] * g1[b], g1[a] * g2[b], expect["exact"]),
             f"LR witness {payload['witness']} is not violated")


def check_st(expect, code, report):
    payload = report["result"]
    if _verdict(expect, code, payload):
        return
    (y,) = payload["witness"]
    g1, g2 = _masses(expect)
    above = [v > y for v in expect["support"]]
    s1 = sum(m for m, up in zip(g1, above) if up) / sum(g1)
    s2 = sum(m for m, up in zip(g2, above) if up) / sum(g2)
    _require(s1 > s2, f"ST witness {y!r} is not violated ({s1} <= {s2})")


def _survival_pairs(expect):
    g1, g2 = _masses(expect)
    t1, t2 = sum(g1), sum(g2)
    pts = {(0, 0), (1, 1)}
    s1 = s2 = 0
    for m1, m2 in zip(g1[::-1], g2[::-1]):
        pts.add((s1 / t1, s2 / t2))
        s1 += m1
        s2 += m2
    return pts


def _match(point, candidates):
    u, v = point
    best = min(candidates, key=lambda c: abs(float(c[0]) - u) + abs(float(c[1]) - v))
    _require(abs(float(best[0]) - u) + abs(float(best[1]) - v) <= 1e-12,
             f"witness point {point} is not an ROC point of the input")
    return best


def check_roc(expect, code, report):
    payload = report["result"]["concave"]
    if _verdict(expect, code, payload):
        return
    pts = _survival_pairs(expect)
    a, b, c = (_match(p, pts) for p in payload["witness"])
    # ROC points rise componentwise; a vertical or horizontal segment keeps
    # one coordinate, so the order is strict only as a whole
    _require(a < b < c and a[0] <= b[0] <= c[0] and a[1] <= b[1] <= c[1],
             "ROC witness points not increasing")
    (a1, a2), (b1, b2), (c1, c2) = a, b, c
    _require(_violated((c2 - b2) * (b1 - a1), (b2 - a2) * (c1 - b1), expect["exact"]),
             f"ROC witness {payload['witness']} is not violated")


def check_odc(expect, code, report):
    payload = report["result"]["convex"]
    if _verdict(expect, code, payload):
        return
    g1, g2 = _masses(expect)
    t1, t2 = sum(g1), sum(g2)
    alphas = [g1[0] * 0]
    values = [g2[0] * 0]
    c1 = c2 = 0
    for m1, m2 in zip(g1, g2):
        c1 += m1
        c2 += m2
        alphas.append(c1 / t1)
        values.append(c2 / t2)

    def at(alpha):
        k = min(range(len(alphas)), key=lambda i: abs(float(alphas[i]) - alpha))
        _require(abs(float(alphas[k]) - alpha) <= 1e-12, f"witness level {alpha!r} not in the image")
        return alphas[k], values[k]

    (r, hr), (s, hs), (t, ht) = (at(a) for a in payload["witness"])
    _require(r < s < t, "ODC witness levels not increasing")
    _require(_violated((hs - hr) * (t - s), (ht - hs) * (s - r), expect["exact"]),
             f"ODC witness {payload['witness']} is not violated")


# ---------------------------------------------------------------------------
# projection, Kuiper distance, convergence
# ---------------------------------------------------------------------------


def kuiper_scan(delta: np.ndarray) -> float:
    """Largest absolute rectangle sum by prefix sums over row ranges."""
    nx, ny = delta.shape
    pref = np.zeros((nx + 1, ny + 1))
    pref[1:, 1:] = np.cumsum(np.cumsum(delta, axis=0), axis=1)
    best = 0.0
    for i0 in range(nx):
        band = pref[i0 + 1:] - pref[i0]  # rows [i0, i1) for every i1, per column prefix
        best = max(best,
                   float((band - np.minimum.accumulate(band, axis=1)).max()),
                   float((np.maximum.accumulate(band, axis=1) - band).max()))
    return best


def is_tp2(pmf: np.ndarray) -> bool:
    """All-pairs 2x2 minors under the CLI's float comparison rule."""
    l, m = pmf.shape
    i1, i2 = np.triu_indices(l, 1)
    j1, j2 = np.triu_indices(m, 1)
    lhs = pmf[i2][:, j1] * pmf[i1][:, j2]
    rhs = pmf[i1][:, j1] * pmf[i2][:, j2]
    return bool(np.all(lhs <= rhs + RTOL * np.maximum(np.abs(lhs), np.abs(rhs))))


def _refined(vals: list) -> list:
    out = [vals[0] - 1.0]
    for a, b in zip(vals, vals[1:]):
        out += [a, (a + b) / 2.0]
    return out + [vals[-1], vals[-1] + 1.0]


def check_project(expect, code, report):
    _require(code == 0, f"exit code {code}")
    res = report["result"]
    _require(res["tp2_certified"] is True, "projection is not certified TP2")
    dist = res["distribution"]
    _require(dist["x_support"] == _refined(expect["xs"]) and dist["y_support"] == _refined(expect["ys"]),
             "projection is not on the refined grid")
    target = np.zeros((len(dist["x_support"]), len(dist["y_support"])))
    target[1::2, 1::2] = expect["values"]
    scan = kuiper_scan(np.asarray(dist["pmf"]) - target)
    _require(abs(scan - res["distance"]) <= 1e-12,
             f"distance {res['distance']!r} differs from the rectangle scan {scan!r}")
    input_tp2 = is_tp2(np.asarray(expect["values"]))
    _require((res["trace"]["source"] == "input-tp2") == input_tp2,
             f"short-circuit taken={res['trace']['source'] == 'input-tp2'}, input TP2={input_tp2}")
    if not input_tp2:
        # the product baseline is scored before normalization; allow rounding
        _require(res["distance"] <= res["trace"]["baseline_product_distance"] + 1e-12,
                 "projection is worse than the product-of-marginals baseline")


def check_kuiper_dist(expect, code, report):
    _require(code == 0, f"exit code {code}")
    scan = kuiper_scan(np.asarray(expect["delta"]))
    got = report["result"]["distance"]
    _require(abs(scan - got) <= 1e-12, f"distance {got!r} differs from the prefix-sum scan {scan!r}")


def _check_entry_count(expect, entries):
    _require(len(entries) == expect["seeds"] * expect["ns"],
             f"{len(entries)} entries, expected {expect['seeds']} seeds x {expect['ns']} sizes")


def check_bracket(expect, code, report):
    _require(code == 0, f"exit code {code}")
    reports = report["result"]["reports"]
    entries = [e for r in reports for e in r["entries"]]
    _check_entry_count(expect, entries)
    atoms = set(expect["ys"])
    for r in reports:
        _require(r["q_west_x1"] in atoms and r["q_east_x2"] in atoms, "truth quantile is not an atom")
        for e in r["entries"]:
            qs = (e["q_emp_min_x1"], e["q_emp_max_x1"], e["q_emp_min_x2"], e["q_emp_max_x2"])
            _require(all(q in atoms for q in qs), f"empirical quantiles {qs} are not y-atoms")


def check_uniform(expect, code, report):
    _require(code == 0, f"exit code {code}")
    rep = report["result"]["report"]
    _check_entry_count(expect, rep["entries"])
    a, b = expect["window"]
    _require(rep["grid"] == [x for x in expect["xs"] if a <= x <= b], "grid is not the window's atoms")
    gaps = {abs(p - q) for p in expect["ys"] for q in expect["ys"]}
    _require(all(e["sup_distance"] in gaps for e in rep["entries"]),
             "a sup distance is not a distance between y-atoms")


CHECKS = {
    "tp2-check": check_tp2_check,
    "kernel-new": check_kernel_new,
    "boundaries": check_boundaries,
    "check-lr": check_lr,
    "check-st": check_st,
    "roc": check_roc,
    "odc": check_odc,
    "tp2-project": check_project,
    "kuiper-dist": check_kuiper_dist,
    "converge-bracket": check_bracket,
    "converge-uniform": check_uniform,
}


def check(kind: str, expect: dict, code: int, stdout: str):
    """Return the parsed report; raise ``CheckFailed`` unless it is correct."""
    try:
        report = json.loads(stdout) if stdout.strip() else None
        if report is None and kind != "kernel-new":
            raise CheckFailed(f"no report on stdout (exit {code})")
        CHECKS[kind](expect, code, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed report
        raise CheckFailed(f"unexpected report: {exc!r}") from exc
    return report
