"""The loaders' input contract at the CLI, as hypothesis properties.

Malformed JSON and CSV inputs to ``check-st`` and ``tp2 check`` (nested,
ragged or empty supports, entries that are not numbers or are NaN, supports
and masses of different lengths, broken CSV rows) exit 2 with a message on
stderr, print no report and raise nothing out of ``main``.  Well-formed
inputs whose atoms or cells are duplicated and unsorted give the same report
as their merged form.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochorder import kuiper
from stochorder.cli import main
from stochorder.fixtures import antidiag

DATA = pathlib.Path(__file__).parent / "data"
NAN = float("nan")

#: Entries that are not numbers: text, containers, NaN and null.
NOT_NUMBERS = st.sampled_from(["abc", "", None, [], [1.0], {}, {"a": 1}, NAN])
#: Support entries add an integer beyond the float range.
BAD_VALUES = st.one_of(NOT_NUMBERS, st.just(10**400))
#: Masses add booleans, negative and infinite numbers.  An integer beyond the
#: float range is a bad float mass, but exact mode reads it as a decimal.
BAD_MASSES = st.one_of(NOT_NUMBERS, st.sampled_from([True, -0.5, float("inf")]))
#: Integer weights add fractions, negative integers and numeric text.
BAD_WEIGHTS = st.one_of(BAD_MASSES, st.sampled_from([1.5, -1, "1"]))
#: CSV fields that do not parse as finite numbers; exact mode reads "1e400"
#: as a decimal, so it is a bad mass in float mode only.
BAD_FIELDS = st.sampled_from(["abc", "", "nan", "NaN", "inf", "-inf", "[1]", "0x10"])


def bad_masses(key: str, exact: bool):
    if key == "weights":
        return BAD_WEIGHTS
    return BAD_MASSES if exact else st.one_of(BAD_MASSES, st.just(10**400))


def run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_on(name: str, text: str, argv) -> tuple[int, str, str]:
    """Run the CLI on one input file; ``argv`` names the file as ``{}``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return run_main([path if a == "{}" else a for a in argv])


def check_st_argv(exact: bool) -> list:
    return ["check-st", "--q1", "{}", "--q2", str(DATA / "q_low.csv")] + ["--exact"] * exact


def tp2_argv(exact: bool) -> list:
    return ["tp2", "check", "--r", "{}"] + ["--exact"] * exact


def assert_input_error(code: int, out: str, err: str) -> None:
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and len(err) > len("input error: \n")
    assert "Traceback" not in err


def report_of(code: int, out: str, err: str) -> tuple:
    """The exit code and the report without its input digests."""
    assert err == "" and code in (0, 3)
    payload = json.loads(out)
    del payload["inputs"]
    return code, payload


# ---------------------------------------------------------------------------
# malformed inputs
# ---------------------------------------------------------------------------


def _replace_one(draw, seq: list, bad) -> list:
    seq = list(seq)
    seq[draw(st.integers(0, len(seq) - 1))] = draw(bad)
    return seq


def _bad_length(draw, seq: list) -> list:
    """``seq`` with one entry dropped or one appended."""
    if len(seq) > 1 and draw(st.booleans()):
        return seq[:-1]
    return seq + [seq[-1]]


@st.composite
def bad_univariate_json(draw, exact: bool):
    n = draw(st.integers(1, 5))
    support = draw(st.lists(st.integers(-9, 9).map(float), min_size=n, max_size=n))
    key = draw(st.sampled_from(["probs", "weights"]))
    masses = [1 / n] * n if key == "probs" else [1] * n
    defect = draw(st.sampled_from(["nested", "nested-pairs", "ragged", "empty", "bad-value",
                                   "length", "bad-mass", "nested-masses"]))
    if defect == "nested":
        support = [support]
    elif defect == "nested-pairs":
        support = [[v, v + 1.0] for v in support]
        masses = masses * 2 if draw(st.booleans()) else masses
    elif defect == "ragged":
        support = [support, support[:-1]] if n > 1 else [[support[0], 0.0], [support[0]]]
    elif defect == "empty":
        support, masses = [], []
    elif defect == "bad-value":
        support = _replace_one(draw, support, BAD_VALUES)
    elif defect == "length":
        masses = _bad_length(draw, masses)
    elif defect == "bad-mass":
        masses = _replace_one(draw, masses, bad_masses(key, exact))
    else:
        masses = [[m] for m in masses]
    return json.dumps({"support": support, key: masses})


@st.composite
def bad_bivariate_json(draw, exact: bool):
    l, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    xs = [float(i) for i in range(l)]
    ys = [float(j) for j in range(m)]
    key = draw(st.sampled_from(["pmf", "weights"]))
    rows = [[1 / (l * m)] * m for _ in range(l)] if key == "pmf" else [[1] * m for _ in range(l)]
    axis = draw(st.sampled_from(["x_support", "y_support"]))
    defect = draw(st.sampled_from(["nested", "ragged", "empty", "bad-value", "length",
                                   "bad-mass", "ragged-rows", "row-count"]))
    payload = {"x_support": xs, "y_support": ys, key: rows}
    if defect == "nested":
        payload[axis] = [[v] for v in payload[axis]]
    elif defect == "ragged":
        payload[axis] = [payload[axis], []]
    elif defect == "empty":
        payload[axis] = []
    elif defect == "bad-value":
        payload[axis] = _replace_one(draw, payload[axis], BAD_VALUES)
    elif defect == "length":
        payload[axis] = _bad_length(draw, payload[axis])
    elif defect == "bad-mass":
        i = draw(st.integers(0, l - 1))
        rows[i] = _replace_one(draw, rows[i], bad_masses(key, exact))
    elif defect == "ragged-rows":
        rows.append(rows[0][:-1] if m > 1 else rows[0] * 2)
    else:
        payload[key] = _bad_length(draw, rows)
    return json.dumps(payload)


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(r) + "\n" for r in rows)


@st.composite
def bad_csv(draw, header: str, exact: bool):
    """A CSV for ``header`` with one broken field or row, or no rows."""
    width = header.count(",") + 1
    n = draw(st.integers(1, 5))
    rows = [[str(float(i + k)) for k in range(width - 1)] + [repr(1 / n)] for i in range(n)]
    defect = draw(st.sampled_from(["bad-field", "short-row", "long-row", "empty"]))
    i = draw(st.integers(0, n - 1))
    if defect == "bad-field":
        j = draw(st.integers(0, width - 1))
        bad = BAD_FIELDS
        if j < width - 1 or not exact:
            bad = st.one_of(bad, st.just("1e400"))
        rows[i][j] = draw(bad if j < width - 1 else st.one_of(bad, st.just("-0.5")))
    elif defect == "short-row":
        rows[i] = rows[i][:-1]
    elif defect == "long-row":
        rows[i] = rows[i] + ["1"]
    else:
        rows = []
    return _csv(header, rows)


class TestMalformedInputsExitTwo:
    @given(st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_check_st_json(self, exact, data):
        text = data.draw(bad_univariate_json(exact))
        assert_input_error(*run_on("q.json", text, check_st_argv(exact)))

    @given(st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_check_st_csv(self, exact, data):
        text = data.draw(bad_csv("value,prob", exact))
        assert_input_error(*run_on("q.csv", text, check_st_argv(exact)))

    @given(st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_tp2_check_json(self, exact, data):
        text = data.draw(bad_bivariate_json(exact))
        assert_input_error(*run_on("r.json", text, tp2_argv(exact)))

    @given(st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_tp2_check_csv(self, exact, data):
        text = data.draw(bad_csv("x,y,prob", exact))
        assert_input_error(*run_on("r.csv", text, tp2_argv(exact)))


# ---------------------------------------------------------------------------
# duplicated and unsorted well-formed inputs
# ---------------------------------------------------------------------------


@st.composite
def split_masses(draw, cells: int):
    """Integer weights for ``cells`` cells, each split into 1-3 parts, as
    (cell, part) pairs in a shuffled order; every weight is a multiple of
    1/1000 of the total 1000."""
    weights = draw(st.lists(st.integers(0, 9), min_size=cells, max_size=cells).filter(any))
    total = sum(weights)
    units = [1000 * w // total for w in weights]
    units[max(range(cells), key=weights.__getitem__)] += 1000 - sum(units)
    parts = []
    for c, u in enumerate(units):
        k = draw(st.integers(1, 3))
        cuts = sorted(draw(st.lists(st.integers(0, u), min_size=k - 1, max_size=k - 1)))
        parts += [(c, b - a) for a, b in zip([0, *cuts], [*cuts, u])]
    return draw(st.permutations(parts))


def _merged(parts, cells: int, exact: bool) -> list:
    """Per-cell mass text of the split parts: exact decimal sums, or float
    sums in input order (the order in which the grid adds them)."""
    sums = [Decimal(0) if exact else 0.0 for _ in range(cells)]
    for c, u in parts:
        sums[c] += Decimal(u) / 1000 if exact else u / 1000
    return [str(s) if exact else repr(s) for s in sums]


def _mass_text(u: int, exact: bool) -> str:
    return str(Decimal(u) / 1000) if exact else repr(u / 1000)


class TestDuplicatesReportAsMerged:
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True),
           st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_check_st_csv(self, atoms, data, exact):
        parts = data.draw(split_masses(len(atoms)))
        dup = _csv("value,prob", ([repr(atoms[c] / 2), _mass_text(u, exact)] for c, u in parts))
        merged = _csv("value,prob", ([repr(a / 2), s] for a, s in
                                     zip(atoms, _merged(parts, len(atoms), exact))))
        argv = check_st_argv(exact)
        assert (report_of(*run_on("q.csv", dup, argv))
                == report_of(*run_on("q.csv", merged, argv)))

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_check_st_json_weights(self, atoms, data):
        parts = data.draw(split_masses(len(atoms)))
        sums = [0] * len(atoms)
        for c, u in parts:
            sums[c] += u
        dup = {"support": [atoms[c] for c, _ in parts], "weights": [u for _, u in parts]}
        merged = {"support": atoms, "weights": sums}
        argv = check_st_argv(True)
        assert (report_of(*run_on("q.json", json.dumps(dup), argv))
                == report_of(*run_on("q.json", json.dumps(merged), argv)))

    @given(st.integers(1, 4), st.integers(1, 4), st.data(), st.booleans(),
           st.sampled_from(["pmf-adjacent", "pmf-allpairs", "intervals"]))
    @settings(max_examples=150, deadline=None)
    def test_tp2_check_csv(self, l, m, data, exact, method):
        parts = data.draw(split_masses(l * m))
        cell = [(repr(i / 4), repr(j - 1.5)) for i in range(l) for j in range(m)]
        dup = _csv("x,y,prob", ([*cell[c], _mass_text(u, exact)] for c, u in parts))
        merged = _csv("x,y,prob", ([*xy, s] for xy, s in zip(cell, _merged(parts, l * m, exact))))
        argv = tp2_argv(exact) + ["--method", method]
        assert (report_of(*run_on("r.csv", dup, argv))
                == report_of(*run_on("r.csv", merged, argv)))


# ---------------------------------------------------------------------------
# fixture options
# ---------------------------------------------------------------------------

INF = float("inf")
MAX_POINTS = 10**6  # fixtures.MAX_FIXTURE_POINTS

#: grid bounds: modest finite values, and values that are not finite or
#: whose grid overflows or carries no mass
BOUNDS = st.one_of(st.floats(-40, 40),
                   st.sampled_from([NAN, INF, -INF, 1e308, -1e308, 1e300, -0.0, 5e-324]))
STEPS = st.one_of(st.floats(0.05, 10),
                  st.sampled_from([0.0, -0.1, NAN, INF, -INF, 5e-324, 1e-300, 1e-9]))
#: counts: small ones (zero and negative included) and ones beyond the limit
COUNTS = st.one_of(st.integers(-5, 40), st.sampled_from([MAX_POINTS + 1, 3000, 10**30]))


def run_fixture(argv) -> tuple[int, str, str, list]:
    with tempfile.TemporaryDirectory() as tmp:
        return (*run_main(["fixture", *argv, "--dir", tmp]), sorted(os.listdir(tmp)))


#: the grid options each fixture takes; any other one is an input error
TAKES = {"gauss-pair": {"lo", "hi", "step"}, "gamma-pair": {"lo", "hi", "step"},
         "odc-counterexample": {"points"}, "unif-delta-kernel": {"size"},
         "diag-uniform": {"size"}, "antidiag": set()}


class TestFixtureOptions:
    @given(st.sampled_from(sorted(TAKES)),
           st.fixed_dictionaries({}, optional={"lo": BOUNDS, "hi": BOUNDS, "step": STEPS,
                                               "points": COUNTS, "size": COUNTS}))
    @settings(max_examples=300, deadline=None)
    def test_every_option_value_writes_or_exits_two(self, name, options):
        argv = [name] + [f"--{k}={v!r}" for k, v in options.items()]
        code, out, err, files = run_fixture(argv)
        unused = sorted(options.keys() - TAKES[name])
        if unused:
            assert code == 2 and f"takes no {', '.join('--' + o for o in unused)}" in err
        if code == 0:
            assert err == "" and files == sorted(os.path.basename(f)
                                                 for f in json.loads(out)["result"]["files"])
        else:
            assert_input_error(code, out, err)
            assert files == []

    def test_reported_bad_values_are_named(self):
        cases = [
            (["gauss-pair", "--hi=inf"], "hi must be finite, got inf"),
            (["gauss-pair", "--lo=nan"], "lo must be finite, got nan"),
            (["gauss-pair", "--lo=5", "--hi=1"], "hi=1.0 lies below lo=5.0"),
            (["gauss-pair", "--step=1e-300"], "in steps of 1e-300 exceeds"),
            (["gauss-pair", "--lo=1000", "--hi=1001"], "from 1000.0 to 1001.0 carries no mass"),
            (["gamma-pair", "--lo=0", "--hi=0"], "from 0.0 to 0.0 carries no mass"),
            (["odc-counterexample", "--points=0"], "got 0"),
            (["odc-counterexample", "--points=-3"], "got -3"),
            (["unif-delta-kernel", "--size=3003"], "got 3003"),
            (["diag-uniform", "--size=-2"], "got -2"),
            (["odc-counterexample", "--step=nan"], "odc-counterexample takes no --step"),
            (["antidiag", "--size=-5", "--lo=nan"], "antidiag takes no --lo, --size"),
        ]
        for argv, message in cases:
            code, out, err, files = run_fixture(argv)
            assert_input_error(code, out, err)
            assert message in err, (argv, err)


# ---------------------------------------------------------------------------
# sample sizes, seeds and evaluation points
# ---------------------------------------------------------------------------

MAX_DRAWS = 10**7  # estimation.MAX_SAMPLE_SIZE
MAX_SEEDS = 10**4  # cli.MAX_SEEDS

#: list entries that are not integers, or name nothing
NOT_INTS = st.sampled_from(["", " ", "abc", "1e3", "1.5", "nan", "0x10", "[1]"])
#: sample sizes: small ones (zero and negative included) and ones beyond the cap
SIZES = st.one_of(st.integers(-3, 300), st.sampled_from([MAX_DRAWS + 1, 10**13, 10**30]))
NS = st.lists(st.one_of(SIZES.map(str), NOT_INTS), min_size=1, max_size=3).map(",".join)
#: seed lists, short ranges (empty and negative included), ranges beyond the
#: cap, and malformed ranges
SEEDS = st.one_of(
    st.lists(st.one_of(st.integers(-2, 10**30).map(str), NOT_INTS), min_size=1,
             max_size=4).map(",".join),
    st.tuples(st.integers(-3, 6), st.integers(-3, 8)).map(lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from([f"1..{MAX_SEEDS + 1}", f"0..{MAX_SEEDS}", "1..1000000000", f"0..{10**30}",
                     "1..2..3", "..3", "1..", "a..b"]),
)
#: evaluation points: finite, huge, tiny, infinite, NaN and not numbers
XS = st.lists(st.one_of(st.floats(-10, 10).map(repr),
                        st.sampled_from(["1e308", "-1e308", "1e400", "5e-324", "inf", "-inf",
                                         "nan", "abc", ""])),
              min_size=1, max_size=4).map(",".join)

R_BAND = str(DATA / "r_band5.csv")
R_ANTIDIAG = str(DATA / "r_antidiag.csv")
MAX_RESTARTS = 10**3  # kuiper.MAX_RESTARTS

#: float options: ordinary and boundary values, huge, tiny, infinite, NaN
#: and text that is no number
NUMBERS = st.one_of(st.floats(-10, 10).map(repr),
                    st.sampled_from(["0", "1", "0.5", "-0.0", "1e308", "-1e308", "1e400",
                                     "5e-324", "inf", "-inf", "nan", "abc", ""]))
#: seeds: small ones (negative included), huge ones and text that is no integer
SEED_VALUES = st.one_of(st.integers(-3, 10**30).map(str), NOT_INTS)
#: restarts: few (negative included), beyond the cap, and text; never many
#: below the cap, since each one runs a search
RESTARTS = st.one_of(st.integers(-3, 2).map(str),
                     st.sampled_from([str(MAX_RESTARTS + 1), str(10**30)]), NOT_INTS)


def assert_report_or_input_error(code: int, out: str, err: str) -> None:
    if code == 0:
        assert err == "" and json.loads(out)["result"] is not None
    else:
        assert_input_error(code, out, err)


def assert_exit_documented(code: int, out: str, err: str) -> None:
    """A report and exit 0, or exit 2 (input) or 4 (precondition) with a
    message and no report; never a traceback."""
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and json.loads(out)["result"] is not None
    else:
        assert code in (2, 4) and out == "" and err.strip()


class TestCommandOptions:
    @given(st.sampled_from(["bracket", "uniform"]), NS, SEEDS)
    @settings(max_examples=150, deadline=None)
    def test_converge_sizes_and_seeds(self, variant, ns, seeds):
        where = ["--x1=2", "--x2=4"] if variant == "bracket" else ["--a=2", "--b=4"]
        assert_report_or_input_error(*run_main(
            ["converge", variant, "--r", R_BAND, "--beta=0.5", f"--ns={ns}", f"--seeds={seeds}",
             *where]))

    @given(SIZES)
    @settings(max_examples=50, deadline=None)
    def test_sample_size(self, n):
        assert_report_or_input_error(*run_main(["sample", "--r", R_BAND, f"--n={n}", "--seed=1"]))

    @given(st.sampled_from([["kernel", "--flavor=w"], ["kernel", "--flavor=e"],
                            ["kernel", "--flavor=new"], ["boundaries"],
                            ["quantiles", "--beta=0.5", "--flavor=emp"]]), XS)
    @settings(max_examples=150, deadline=None)
    # a sorted pair whose difference overflows once printed a numpy RuntimeWarning
    @example(["kernel", "--flavor=w"], "1e308,-1e308")
    def test_evaluation_points(self, command, xs):
        assert_report_or_input_error(*run_main([*command, "--r", R_BAND, f"--x={xs}"]))

    @given(st.sampled_from(["quantiles", "bracket", "uniform"]), NUMBERS)
    @settings(max_examples=100, deadline=None)
    def test_beta(self, command, beta):
        argv = {"quantiles": ["quantiles", "--flavor=w"],
                "bracket": ["converge", "bracket", "--ns=50", "--seeds=1", "--x1=2", "--x2=4"],
                "uniform": ["converge", "uniform", "--ns=50", "--seeds=1", "--a=2", "--b=4"]}
        assert_exit_documented(*run_main([*argv[command], "--r", R_BAND, f"--beta={beta}"]))

    @given(NUMBERS, NUMBERS)
    @settings(max_examples=100, deadline=None)
    def test_bracket_points(self, x1, x2):
        assert_exit_documented(*run_main(
            ["converge", "bracket", "--r", R_BAND, "--beta=0.5", "--ns=50", "--seeds=1",
             f"--x1={x1}", f"--x2={x2}"]))

    @given(NUMBERS, NUMBERS)
    @settings(max_examples=100, deadline=None)
    def test_uniform_window(self, a, b):
        assert_exit_documented(*run_main(
            ["converge", "uniform", "--r", R_BAND, "--beta=0.5", "--ns=50", "--seeds=1",
             f"--a={a}", f"--b={b}"]))

    @given(RESTARTS, SEED_VALUES)
    @settings(max_examples=40, deadline=None)
    def test_project_restarts_and_seed(self, restarts, seed):
        assert_exit_documented(*run_main(
            ["tp2", "project", "--r", R_ANTIDIAG, f"--restarts={restarts}", f"--seed={seed}"]))

    @given(SEED_VALUES)
    @settings(max_examples=50, deadline=None)
    def test_sample_seed(self, seed):
        assert_exit_documented(*run_main(["sample", "--r", R_BAND, "--n=5", f"--seed={seed}"]))

    def test_restarts_capped_before_any_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the pattern search ran")

        monkeypatch.setattr(kuiper, "_pattern_search", forbidden)
        code, out, err = run_main(["tp2", "project", "--r", R_ANTIDIAG, "--seed=1",
                                   f"--restarts={MAX_RESTARTS + 1}"])
        assert_input_error(code, out, err)
        assert f"restarts must be at most {MAX_RESTARTS}, got {MAX_RESTARTS + 1}" in err
        with pytest.raises(AssertionError, match="the pattern search ran"):  # the cap itself runs
            kuiper.tp2_project(antidiag(), seed=1, restarts=MAX_RESTARTS)

    def test_caps_are_named(self):
        cases = [
            (["sample", "--r", R_BAND, "--n=10000000000000", "--seed=1"],
             "sample size must lie in 1..10000000, got 10000000000000"),
            (["converge", "bracket", "--r", R_BAND, "--beta=0.5", "--ns=10000000000000",
              "--seeds=1", "--x1=2", "--x2=4"], "got 10000000000000"),
            (["converge", "uniform", "--r", R_BAND, "--beta=0.5", "--ns=10",
              "--seeds=1..1000000000", "--a=2", "--b=4"], "must name 1 to 10000 seeds"),
            (["sample", "--r", R_BAND, "--n=5", "--seed=-1"], "seed must be nonnegative, got -1"),
            (["converge", "bracket", "--r", R_BAND, "--beta=0.5", "--ns=10", "--seeds=-3",
              "--x1=2", "--x2=4"], "seed must be nonnegative, got -3"),
            (["converge", "bracket", "--r", R_BAND, "--beta=0.5", "--ns=10", "--seeds=-3..-1",
              "--x1=2", "--x2=4"], "seed must be nonnegative, got -3"),
            (["converge", "uniform", "--r", R_BAND, "--beta=0.5", "--ns=10", "--seeds=1,-2",
              "--a=2", "--b=4"], "seed must be nonnegative, got -2"),
            (["tp2", "project", "--r", R_ANTIDIAG, "--seed=-1"], "seed must be nonnegative, got -1"),
        ]
        for argv, message in cases:
            code, out, err = run_main(argv)
            assert_input_error(code, out, err)
            assert message in err, (argv, err)
