"""Command-line interface: one subcommand per library operation.

Every command prints a JSON report to stdout; ``--out`` names the command's
file artifact (points/rows/samples CSV, projection or convergence JSON) or,
for plain verdict commands, a copy of the report itself.

Exit codes: 0 success or verdict holds, 2 input/usage error, 3 verdict
fails, 4 precondition error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii

from . import __version__
from .distributions import (
    _write_csv,
    load_bivariate,
    load_univariate,
    write_bivariate_csv,
    write_univariate_csv,
)
from .errors import DomainError, InvalidDistributionError, PreconditionError
from .estimation import _seeds, bracket_check, quantile_curve, sample, uniform_convergence_check
from .fixtures import (
    antidiag,
    diag_uniform,
    gamma_pair,
    gaussian_pair,
    odc_counterexample,
    unif_delta_kernel,
)
from .isotonic import MODE_EXACT, MODE_FLOAT, PRODUCT_RTOL
from .kuiper import KUIPER_METHODS, kuiper_norm, signed_difference, tp2_project
from .orders import LR_METHODS, check_lr, check_st
from .roc import odc_curve, odc_is_convex, roc_curve, roc_is_concave
from .tp2 import (SELECTION_RULES, TP2_METHODS, boundaries, check_tp2, kernel_east, kernel_new,
                  kernel_west)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAILS = 3
EXIT_PRECONDITION = 4

#: most seeds one convergence run may name
MAX_SEEDS = 10**4


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _load(loader, args, *names: str):
    """The inputs that ``args`` names, each read once and parsed by ``loader``
    while the bytes it reads are hashed, then the sha256 of those bytes by name."""
    loaded, digests = [], {}
    for name in names:
        sha = hashlib.sha256()
        loaded.append(loader(getattr(args, name), exact=args.exact, digest=sha))
        digests[name] = "sha256:" + sha.hexdigest()
    return (*loaded, digests)


def _report(command: str, digests: dict[str, str], result: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "inputs": digests,
        "result": result,
    }


_NUMBERS = {float, int}  # exact types whose repr is their JSON text (bool is not among them)
_SEQUENCES = {list, tuple}


def _float_text(o: float) -> str:
    """A float as ``json.dumps(allow_nan=False)`` writes it, with ±inf as "inf" / "-inf"."""
    if o != o:
        raise ValueError("Out of range float values are not JSON compliant: " + repr(o))
    if o in (math.inf, -math.inf):
        return '"inf"' if o > 0 else '"-inf"'
    return float.__repr__(o)


def _key_text(k) -> str:
    """A dict key as ``json.dumps(allow_nan=False)`` writes it: a quoted string."""
    if isinstance(k, float):
        if k != k or k in (math.inf, -math.inf):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(k))
        k = float.__repr__(k)
    elif k is True or k is False or k is None:
        k = "null" if k is None else "true" if k else "false"
    elif isinstance(k, int):
        k = int.__repr__(k)
    elif not isinstance(k, str):
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return encode_basestring_ascii(k)


def _numbers_text(sep: str, cells, texts) -> str | None:
    """``sep.join(texts)``, in one C-level pass, when every one of ``cells`` is an
    exact float or int and none is ±inf or NaN; else None."""
    if set(map(type, cells)) <= _NUMBERS:
        try:
            text = sep.join(texts)
        except ValueError:  # an int too long for str(): raised in json's order by the caller
            return None
        if "n" not in text:  # no "inf" or "nan"
            return text
    return None


def _write(o, nl: str) -> str:
    """``o`` as ``json.dumps(indent=2, sort_keys=True, allow_nan=False)`` writes it
    at the indent ``nl`` (a newline and the current indent), but ±inf as strings."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        text = _numbers_text(sep, o, map(repr, o))
        if text is None and set(map(type, o)) <= _SEQUENCES:
            widths = set(map(len, o))
            if len(widths) == 1 and 0 not in widths:  # rows of numbers, one width: a row template
                row = "[" + inner + "  " + (sep + "  ").join(["{}"] * widths.pop()) + inner + "]"
                text = _numbers_text(sep, chain.from_iterable(o), starmap(row.format, o))
        if text is None:
            text = sep.join([_write(v, inner) for v in o])
        return "[" + inner + text + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = [_key_text(k) + ": " + _write(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_text(payload) -> str:
    """Standard JSON with 2-space indent, sorted keys, shortest-repr floats and
    ±inf as the strings "inf" / "-inf"; a NaN raises ``ValueError`` (exit 2)."""
    return _write(payload, "\n") + "\n"


def _emit(report: dict, out_path: str | None = None) -> None:
    """The report to stdout and ``out_path``: the file first, so a failed write prints nothing."""
    text = _json_text(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _verdict_payload(v) -> dict:
    return {"holds": v.holds, "method": v.method, "witness": v.witness}


def _parse_xs(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        seeds = range(int(lo), int(hi) + 1)  # a lazy range: counted before it is built
    else:
        seeds = _parse_ints(text)
    if not seeds or seeds[MAX_SEEDS:]:
        raise DomainError(f"--seeds {text!r} must name 1 to {MAX_SEEDS} seeds")
    return _seeds(seeds)  # every seed, before the first one draws


def _tolerance(text: str) -> float:
    tol = float(text)
    if not math.isfinite(tol) or tol < 0:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text!r}")
    return tol


def _mode(args) -> str:
    return MODE_EXACT if args.exact else MODE_FLOAT


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_check_order(args) -> int:
    """``check-st`` and ``check-lr``."""
    q1, q2, inputs = _load(load_univariate, args, "q1", "q2")
    if args.cmd == "check-st":
        verdict = check_st(q1, q2, _mode(args), args.tolerance)
    else:
        verdict = check_lr(q1, q2, args.method, _mode(args), args.tolerance)
    _emit(_report(args.cmd, inputs, _verdict_payload(verdict)), args.out)
    return EXIT_OK if verdict.holds else EXIT_FAILS


def _cmd_roc(args) -> int:
    q1, q2, inputs = _load(load_univariate, args, "q1", "q2")
    curve = roc_curve(q1, q2)
    result: dict = {"points": curve.points}
    code = EXIT_OK
    if args.verdict:
        verdict = roc_is_concave(curve, _mode(args), args.tolerance)
        result["concave"] = _verdict_payload(verdict)
        code = EXIT_OK if verdict.holds else EXIT_FAILS
    if args.out:
        _write_csv(args.out, ("u", "v"), curve.points)
    _emit(_report("roc", inputs, result))
    return code


def _cmd_odc(args) -> int:
    q1, q2, inputs = _load(load_univariate, args, "q1", "q2")
    curve = odc_curve(q1, q2)
    result: dict = {
        "alphas": curve.alphas,
        "values": curve.values,
        "dominated": curve.dominated,
    }
    code = EXIT_OK
    if args.verdict:
        verdict = odc_is_convex(curve, _mode(args), args.tolerance)
        result["convex"] = _verdict_payload(verdict)
        code = EXIT_OK if verdict.holds else EXIT_FAILS
    if args.out:
        _write_csv(args.out, ("alpha", "H"), zip(curve.alphas, curve.values))
    _emit(_report("odc", inputs, result))
    return code


def _cmd_tp2_check(args) -> int:
    r, inputs = _load(load_bivariate, args, "r")
    verdict = check_tp2(r, args.method, _mode(args), args.tolerance)
    _emit(_report("tp2-check", inputs, _verdict_payload(verdict)), args.out)
    return EXIT_OK if verdict.holds else EXIT_FAILS


def _cmd_tp2_project(args) -> int:
    if args.exact:
        raise DomainError("tp2 project searches in float arithmetic; --exact is not supported")
    r, inputs = _load(load_bivariate, args, "r")
    res = tp2_project(r, seed=args.seed, restarts=args.restarts, tol=args.tolerance)
    payload = res.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_json_text(payload))
    _emit(_report("tp2-project", inputs, payload))
    return EXIT_OK


def _cmd_kernel(args) -> int:
    r, inputs = _load(load_bivariate, args, "r")
    xs = _parse_xs(args.x) if args.x else None
    if args.flavor == "w":
        kern = kernel_west(r, xs)
    elif args.flavor == "e":
        kern = kernel_east(r, xs)
    else:
        kern = kernel_new(r, xs, rule=args.rule, mode=_mode(args), tol=args.tolerance)
    rows = [[[x, y, p] for y, p in zip(row.support.tolist(), row.probs.tolist())]
            for x, row in zip(kern.eval_points.tolist(), kern.rows)]
    if args.out:
        _write_csv(args.out, ("x", "y", "prob"), (t for per_x in rows for t in per_x))
    result = {"flavor": kern.flavor, "eval_points": kern.eval_points.tolist(), "rows": rows}
    _emit(_report("kernel", inputs, result))
    return EXIT_OK


def _cmd_boundaries(args) -> int:
    r, inputs = _load(load_bivariate, args, "r")
    xs = _parse_xs(args.x) if args.x else None
    b = boundaries(r, xs)
    records = [
        {
            "x": float(x),
            "s_nw": float(nw),
            "s_se": float(se),
            "crossing": bool(c),
            "in_range": bool(ir),
        }
        for x, nw, se, c, ir in zip(b.xs, b.s_nw, b.s_se, b.in_crossing, b.in_range)
    ]
    if args.out:
        _write_csv(args.out, ("x", "s_nw", "s_se", "crossing", "in_range"),
                   (rec.values() for rec in records))
    _emit(_report("boundaries", inputs, {"records": records}))
    return EXIT_OK


def _cmd_kuiper_dist(args) -> int:
    a, b, inputs = _load(load_bivariate, args, "a", "b")
    value = kuiper_norm(signed_difference(a, b), args.method)
    _emit(_report("kuiper-dist", inputs,
                  {"distance": float(value), "method": args.method}), args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    r, inputs = _load(load_bivariate, args, "r")
    draws = sample(r, args.n, args.seed)
    if args.out:
        _write_csv(args.out, ("x", "y"), draws.tolist())
    _emit(_report("sample", inputs, {"n": args.n, "seed": args.seed,
                                     "first": draws[0].tolist()}))
    return EXIT_OK


def _cmd_quantiles(args) -> int:
    r, inputs = _load(load_bivariate, args, "r")
    flavor = {"w": "west-min", "e": "east-max", "emp": "empirical"}[args.flavor]
    xs = _parse_xs(args.x) if args.x else None
    curve = quantile_curve(r, args.beta, flavor, xs)
    result = {"beta": curve.beta, "flavor": curve.flavor,
              "points": [list(p) for p in curve.points]}
    _emit(_report("quantiles", inputs, result), args.out)
    return EXIT_OK


def _cmd_converge(args) -> int:
    r, inputs = _load(load_bivariate, args, "r")
    ns = _parse_ints(args.ns)
    seeds = _parse_seeds(args.seeds)
    if args.variant == "bracket":
        reports = [
            bracket_check(r, {"n_list": ns, "seed": s}, args.beta, args.x1, args.x2,
                          _mode(args), args.tolerance).to_dict()
            for s in seeds
        ]
        result = {"variant": "bracket", "reports": reports}
    else:
        rep = uniform_convergence_check(r, args.beta, (args.a, args.b), ns, seeds)
        result = {"variant": "uniform", "report": rep.to_dict()}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_json_text(result))
    _emit(_report("converge", inputs, result))
    return EXIT_OK


#: each fixture's function and the grid options it takes, by the parameter each sets
_FIXTURES = {
    "gauss-pair": (gaussian_pair, {"lo": "lo", "hi": "hi", "step": "step"}),
    "gamma-pair": (gamma_pair, {"lo": "lo", "hi": "hi", "step": "step"}),
    "odc-counterexample": (odc_counterexample, {"points": "n"}),
    "unif-delta-kernel": (unif_delta_kernel, {"size": "n"}),
    "diag-uniform": (diag_uniform, {"size": "k"}),
    "antidiag": (antidiag, {}),
}


def _cmd_fixture(args) -> int:
    build, params = _FIXTURES[args.name]
    given = {opt: getattr(args, opt) for opt in ("lo", "hi", "step", "points", "size")
             if getattr(args, opt) is not None}
    unused = sorted(given.keys() - params.keys())
    if unused:
        raise DomainError(f"fixture {args.name} takes no " + ", ".join(f"--{o}" for o in unused))
    made = build(**{params[opt]: value for opt, value in given.items()})
    os.makedirs(args.dir, exist_ok=True)
    written: list[str] = []
    if isinstance(made, tuple):
        for q, part in zip(made, ("q1", "q2")):
            written.append(os.path.join(args.dir, f"{args.name}-{part}.csv"))
            write_univariate_csv(q, written[-1])
    else:
        written.append(os.path.join(args.dir, f"{args.name}.csv"))
        write_bivariate_csv(made, written[-1])
    _emit(_report("fixture", {}, {"name": args.name, "files": written,
                                  "digests": {p: _digest(p) for p in written}}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--exact", action="store_true",
                        help="integer-weight mode: exact cross products, no slack")
    parser.add_argument("--tolerance", type=_tolerance, default=PRODUCT_RTOL,
                        help="relative slack for float product comparisons")
    parser.add_argument("--out", default=None, help="file artifact / report copy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stochorder", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check-st", help="usual stochastic order verdict")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_check_order)

    p = sub.add_parser("check-lr", help="likelihood ratio order verdict")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", required=True)
    p.add_argument("--method", default="ratio", choices=LR_METHODS)
    _add_common(p)
    p.set_defaults(func=_cmd_check_order)

    p = sub.add_parser("roc", help="ROC points and concavity verdict")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", required=True)
    p.add_argument("--verdict", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_roc)

    p = sub.add_parser("odc", help="ordinal dominance curve and convexity verdict")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", required=True)
    p.add_argument("--verdict", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_odc)

    p = sub.add_parser("tp2", help="TP2 checks and projection")
    tp2_sub = p.add_subparsers(dest="tp2_cmd", required=True)
    pc = tp2_sub.add_parser("check")
    pc.add_argument("--r", required=True)
    pc.add_argument("--method", default="pmf-allpairs", choices=TP2_METHODS)
    _add_common(pc)
    pc.set_defaults(func=_cmd_tp2_check)
    pp = tp2_sub.add_parser("project")
    pp.add_argument("--r", required=True)
    pp.add_argument("--seed", type=int, required=True)
    pp.add_argument("--restarts", type=int, default=8)
    _add_common(pp)
    pp.set_defaults(func=_cmd_tp2_project)

    p = sub.add_parser("kernel", help="conditional kernel rows")
    p.add_argument("--r", required=True)
    p.add_argument("--flavor", required=True, choices=["w", "e", "new"])
    p.add_argument("--rule", default="midpoint", choices=SELECTION_RULES)
    p.add_argument("--x", default=None, help="comma-separated evaluation points")
    _add_common(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("boundaries", help="support boundaries per evaluation point")
    p.add_argument("--r", required=True)
    p.add_argument("--x", default=None, help="comma-separated evaluation points")
    _add_common(p)
    p.set_defaults(func=_cmd_boundaries)

    p = sub.add_parser("kuiper", help="Kuiper distances")
    k_sub = p.add_subparsers(dest="kuiper_cmd", required=True)
    kd = k_sub.add_parser("dist")
    kd.add_argument("--a", required=True)
    kd.add_argument("--b", required=True)
    kd.add_argument("--method", default="kadane", choices=KUIPER_METHODS)
    _add_common(kd)
    kd.set_defaults(func=_cmd_kuiper_dist)

    p = sub.add_parser("sample", help="seeded i.i.d. draws")
    p.add_argument("--r", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("quantiles", help="conditional quantile curve")
    p.add_argument("--r", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--flavor", required=True, choices=["w", "e", "emp"])
    p.add_argument("--x", default=None, help="comma-separated evaluation points")
    _add_common(p)
    p.set_defaults(func=_cmd_quantiles)

    p = sub.add_parser("converge", help="convergence diagnostics")
    c_sub = p.add_subparsers(dest="variant", required=True)
    cb = c_sub.add_parser("bracket")
    cb.add_argument("--r", required=True)
    cb.add_argument("--beta", type=float, required=True)
    cb.add_argument("--ns", required=True, help="comma-separated sample sizes")
    cb.add_argument("--seeds", required=True, help="comma list or lo..hi range")
    cb.add_argument("--x1", type=float, required=True)
    cb.add_argument("--x2", type=float, required=True)
    _add_common(cb)
    cb.set_defaults(func=_cmd_converge)
    cu = c_sub.add_parser("uniform")
    cu.add_argument("--r", required=True)
    cu.add_argument("--beta", type=float, required=True)
    cu.add_argument("--ns", required=True)
    cu.add_argument("--seeds", required=True)
    cu.add_argument("--a", type=float, required=True)
    cu.add_argument("--b", type=float, required=True)
    _add_common(cu)
    cu.set_defaults(func=_cmd_converge)

    p = sub.add_parser("fixture", help="write a named fixture to CSV files")
    p.add_argument("name", choices=list(_FIXTURES))
    p.add_argument("--dir", default=".")
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(func=_cmd_fixture)

    return parser


_parser = functools.cache(build_parser)  # main reuses one parser: parse_args leaves no state in it


def main(argv=None) -> int:
    """Run one command, return its exit code; may be called repeatedly in one process.
    Writes to the current sys.stdout / sys.stderr; a command that exits 2 prints no report."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except PreconditionError as exc:
        sys.stderr.write(f"precondition error: {exc}\n")
        return EXIT_PRECONDITION
    except (DomainError, InvalidDistributionError, OSError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
