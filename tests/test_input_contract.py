"""The loaders' input contract at the CLI, as hypothesis properties.

Malformed JSON and CSV inputs to ``check-st`` and ``tp2 check`` (nested,
ragged or empty supports, entries that are not numbers or are NaN, supports
and masses of different lengths, broken CSV rows) exit 2 with a message on
stderr, print no report and raise nothing out of ``main``.  Well-formed
inputs whose atoms or cells are duplicated and unsorted give the same report
as their merged form.  The CSV readers, numpy path and ``csv`` path alike,
give what the row-loop reader they replaced gave on every file.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import tempfile
import warnings
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import read_csv_by_rows, streamed_text, weight_list
from stochorder import BivariateDist, InvalidDistributionError, UnivariateDist, distributions, kuiper
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
# the CSV readers against the row-loop reader they replaced
# ---------------------------------------------------------------------------

#: per reader: its class, header, CLI call and two atoms' coordinate fields;
#: ``p`` puts a field in the last coordinate column (after a first one)
READERS = {
    "univariate": (UnivariateDist, "value,prob", check_st_argv, {"a": "1", "b": "2", "p": ""}),
    "bivariate": (BivariateDist, "x,y,prob", tp2_argv, {"a": "1,0", "b": "2,1", "p": "0,"}),
}

#: (case, file template, whether numpy parses it in float mode).  ``{h}`` is
#: the header, ``{a}`` and ``{b}`` are two atoms; bytes are written as they are.
CSV_CASES = [
    ("plain", "{h}\n{a},0.5\n{b},0.5\n", True),
    ("no final line end", "{h}\n{a},0.5\n{b},0.5", True),
    ("crlf", "{h}\r\n{a},0.5\r\n{b},0.5\r\n", True),
    ("cr only", "{h}\r{a},0.5\r{b},0.5\r", False),
    ("lone cr in the body", "{h}\n{a},0.5\r{b},0.5\n", False),
    ("cr at the end", "{h}\n{a},0.5\n{b},0.5\r", True),
    ("blank lines", "{h}\n\n{a},0.5\n\n\n{b},0.5\n\n", True),
    ("crlf blank line", "{h}\r\n{a},0.5\r\n\r\n{b},0.5\r\n", True),
    ("whitespace-only line", "{h}\n{a},0.5\n \n{b},0.5\n", False),
    ("tab-only line", "{h}\n{a},0.5\n\t\n{b},0.5\n", False),
    ("leading blank line", "\n{h}\n{a},0.5\n{b},0.5\n", False),
    ("spaced header", " {spaced} \n{a},0.5\n{b},0.5\n", False),
    ("quoted header", "{quoted}\n{a},0.5\n{b},0.5\n", False),
    ("byte order mark", "\ufeff{h}\n{a},0.5\n{b},0.5\n", False),
    ("comment line", "{h}\n# atoms\n{a},0.5\n{b},0.5\n", False),
    ("comment after a mass", "{h}\n{a},0.5 # half\n{b},0.5\n", False),
    ("quoted mass", '{h}\n{a},"0.5"\n{b},0.5\n', False),
    ("quoted comma", '{h}\n{a},"0,5"\n{b},0.5\n', False),
    ("quoted line end", '{h}\n{a},"0.5\n"\n{b},0.5\n', False),
    ("underscore in a mass", "{h}\n{a},0.2_5\n{b},0.75\n", False),
    ("underscore in a coordinate", "{h}\n{p}1_0,0.5\n{b},0.5\n", False),
    ("arabic-indic digit in a mass", "{h}\n{a},\u0660.5\n{b},0.5\n", False),
    ("arabic-indic digit in a coordinate", "{h}\n{p}\u0661\u0660,0.5\n{b},0.5\n", False),
    ("no-break spaces", "{h}\n{a},\u00a00.5\n{b},0.5\u00a0\n", True),
    ("em spaces", "{h}\n{a},\u20030.5\u2003\n{p}\u20032,0.5\n", True),
    ("ascii spaces", "{h}\n{a}, 0.5 \n{b},\t0.5\x0b\n", True),
    ("information separator", "{h}\n{a},0.5\x1c\n{b},0.5\n", False),
    ("spelled numbers", "{h}\n{p}+1.,5e-1\n{b},.50\n", True),
    ("many digits", "{h}\n{a},0.50000000000000000000000001\n{b},0.49999999999999999999999999\n", True),
    ("decimal masses", "{h}\n{a},0.1\n{b},0.9\n", True),
    ("duplicate atoms", "{h}\n{a},0.25\n{b},0.5\n{a},0.25\n", True),
    ("inf mass", "{h}\n{a},inf\n{b},0.5\n", True),
    ("nan mass", "{h}\n{a},nan\n{b},0.5\n", True),
    ("1e400 mass", "{h}\n{a},1e400\n{b},0.5\n", True),
    ("negative mass", "{h}\n{a},-0.5\n{b},1.5\n", True),
    ("masses off one", "{h}\n{a},0.5\n{b},0.6\n", True),
    ("inf coordinate", "{h}\n{p}-inf,0.5\n{b},0.5\n", True),
    ("nan coordinate", "{h}\n{p}nan,0.5\n{b},0.5\n", True),
    ("1e400 coordinate", "{h}\n{p}1e400,0.5\n{b},0.5\n", True),
    ("text coordinate", "{h}\n{p}abc,0.5\n{b},0.5\n", False),
    ("hex coordinate", "{h}\n{p}0x10,0.5\n{b},0.5\n", False),
    ("empty coordinate", "{h}\n{p},0.5\n{b},0.5\n", False),
    ("trailing comma", "{h}\n{a},0.5,\n{b},0.5,\n", False),
    ("rows one field short", "{h}\n{p}0.5\n{p}0.5\n", False),
    ("rows one field long", "{h}\n{a},0.5,1\n{b},0.5,1\n", False),
    ("mixed row lengths", "{h}\n{a},0.5\n{p}0.5\n", False),
    ("header only", "{h}\n", False),
    ("header only, no line end", "{h}", False),
    ("header and line ends", "{h}\n\r\n\n", False),
    ("header and a blank line", "{h}\n\n \r\n", False),
    ("empty file", "", False),
    ("NUL after a mass", "{h}\n{a},0.5\x00\n{b},0.5\n", False),
    ("NUL line", "{h}\n{a},0.5\n\x00\n{b},0.5\n", False),
    ("non-UTF-8 byte", b"{h}\n{a},0.5\n{b},0.5\xff\n", False),
]


def _case_bytes(template, header: str, atoms: dict) -> bytes:
    fields = {"h": header, "spaced": header.replace(",", " , "),
              "quoted": ",".join(f'"{f}"' for f in header.split(",")), **atoms}
    if isinstance(template, bytes):
        return template.decode("latin-1").format(**fields).encode("latin-1")
    return template.format(**fields).encode("utf-8")


def read_outcome(read, path) -> tuple:
    """What ``read`` gives on ``path``: the distribution's support, mass and
    weight bytes or the error's type and message, and the digest of the
    bytes read."""
    digest = hashlib.sha256()
    try:
        d = read(path, digest=digest)
    except Exception as exc:  # noqa: BLE001 -- the error itself is compared
        got = (type(exc).__name__, str(exc))
    else:
        arrays = ((d.support, d.probs) if isinstance(d, UnivariateDist)
                  else (d.x_support, d.y_support, d.pmf))
        got = (*(a.tobytes() for a in arrays), weight_list(d))
    return got, digest.hexdigest()


def oracle_reader(cls, exact: bool):
    return lambda path, exact=exact, digest=None: read_csv_by_rows(cls, path, exact=exact, digest=digest)


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case, template, numpy_path", CSV_CASES, ids=[c[0] for c in CSV_CASES])
def test_csv_reader_matches_the_row_loop_reader(tmp_path, monkeypatch, reader, case, template,
                                                numpy_path):
    """Result, digest, exit code and stderr of each reader, in both modes,
    equal the row-loop reader's; an accepted file writes nothing to stderr
    and no warning is raised."""
    cls, header, argv, atoms = READERS[reader]
    data = _case_bytes(template, header, atoms)
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    if not isinstance(template, bytes):
        columns = distributions._float_columns(data.decode("utf-8"), tuple(header.split(",")))
        assert (columns is not None) == numpy_path
    load = getattr(distributions, f"read_{reader}_csv")
    for exact in (False, True):
        cli_argv = [str(path) if a == "{}" else a for a in argv(exact)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = read_outcome(lambda p, digest: load(p, exact=exact, digest=digest), path)
            code, out, err = run_main(cli_argv)
        assert caught == []
        oracle = oracle_reader(cls, exact)
        assert got == read_outcome(oracle, path)
        with monkeypatch.context() as m:
            m.setattr(distributions, f"read_{reader}_csv", oracle)
            assert (code, out, err) == run_main(cli_argv)
        if code in (0, 3):
            assert err == ""


#: spellings of a number that numpy and ``float()`` both read as ``v``
NUMPY_SPELLINGS = [repr, "{:.17e}".format, lambda v: f"+{v!r}".replace("+-", "-"),
                   lambda v: f" {v!r}\t", lambda v: f"\u00a0{v!r}\u2003"]
#: spellings that ``float()`` or the ``csv`` module reads as ``v`` and numpy
#: does not: an underscore and quotes
CSV_SPELLINGS = [lambda v: repr(v).replace(repr(abs(v)), "0_" + repr(abs(v)), 1),
                 lambda v: f'"{v!r}"']


@st.composite
def float_csv(draw, header: str) -> tuple[str, bool]:
    """A well-formed CSV of a random grid, rows shuffled and some repeated,
    line ends ``\\n`` or ``\\r\\n`` with blank lines between rows, and each
    field spelled one of the ``NUMPY_SPELLINGS`` ways or, in some files, of
    the ``CSV_SPELLINGS`` ways too; and whether numpy reads every field."""
    width = header.count(",")
    atoms = draw(st.lists(st.tuples(*[st.integers(-6, 6).map(lambda i: i / 4)] * width),
                          min_size=1, max_size=8))
    weights = draw(st.lists(st.integers(0, 9), min_size=len(atoms), max_size=len(atoms)).filter(any))
    rows = [(*a, w / sum(weights)) for a, w in zip(atoms, weights)]
    rows = draw(st.permutations(rows + rows[: draw(st.integers(0, 2))]))
    spellings = st.sampled_from(NUMPY_SPELLINGS + CSV_SPELLINGS * draw(st.booleans()))
    ends = st.sampled_from(["\n", "\r\n", "\n\n", "\r\n\r\n"])
    fields = [[draw(spellings) for _ in row] for row in rows]
    text = header + draw(ends) + "".join(
        ",".join(spell(v) for spell, v in zip(spelled, row)) + draw(ends)
        for spelled, row in zip(fields, rows))
    return text, not {f for row in fields for f in row} & set(CSV_SPELLINGS)


@pytest.mark.parametrize("reader", sorted(READERS))
@given(st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_random_float_csv_reads_as_by_rows(reader, data, exact):
    cls, header, _, _ = READERS[reader]
    text, numpy_path = data.draw(float_csv(header))
    assert (distributions._float_columns(text, tuple(header.split(","))) is not None) == numpy_path
    load = getattr(distributions, f"read_{reader}_csv")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert (read_outcome(lambda p, digest: load(p, exact=exact, digest=digest), path)
                == read_outcome(oracle_reader(cls, exact), path))


def test_field_beyond_the_csv_size_limit_exits_two():
    """The ``csv`` module raises its own error on a field longer than its
    limit; it is an input error.  numpy reads the same number unquoted."""
    digits = "0" * csv.field_size_limit() + "1"
    for exact, field in ((True, digits), (False, f'"{digits}"')):
        code, out, err = run_on("q.csv", f"value,prob\n{field},1\n", check_st_argv(exact))
        assert_input_error(code, out, err)
        assert "field larger than field limit" in err
    code, out, err = run_on("q.csv", f"value,prob\n{digits},1\n", check_st_argv(False))
    assert code == 0 and err == ""


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case", ["quoted mass", "quoted comma", "quoted line end"])
def test_quoted_float_csv_is_parsed_once(monkeypatch, reader, case):
    """numpy runs without a quote character, so it never reads a file with a
    ``"``; such a file goes to the ``csv`` module without a numpy attempt."""
    _, header, _, atoms = READERS[reader]
    template = next(t for c, t, _ in CSV_CASES if c == case)
    calls = []
    loadtxt = distributions.np.loadtxt
    monkeypatch.setattr(distributions.np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
    text = _case_bytes(template, header, atoms).decode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with contextlib.suppress(InvalidDistributionError):  # a quoted comma is no number
            getattr(distributions, f"read_{reader}_csv")(path)
    assert calls == []


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("bad", ["abc", "0x10", "", "1_0_", "[1]"])
def test_bad_coordinate_reads_as_in_json(bad, exact):
    """A coordinate that is no number gets the message its JSON entry gets."""
    argv = {"q": check_st_argv(exact), "r": tp2_argv(exact)}
    pairs = [
        ("q", f"value,prob\n{bad},0.5\n2,0.5\n", {"support": [bad, 2.0], "probs": [0.5, 0.5]}),
        ("r", f"x,y,prob\n{bad},0,0.5\n2,0,0.5\n",
         {"x_support": [bad, 2.0], "y_support": [0.0], "pmf": [[0.5], [0.5]]}),
        ("r", f"x,y,prob\n0,{bad},0.5\n0,2,0.5\n",
         {"x_support": [0.0], "y_support": [bad, 2.0], "pmf": [[0.5, 0.5]]}),
    ]
    for name, text, payload in pairs:
        from_csv = run_on(f"{name}.csv", text, argv[name])
        assert_input_error(*from_csv)
        assert from_csv == run_on(f"{name}.json", json.dumps(payload), argv[name])
        assert "values must be numbers" in from_csv[2]


# ---------------------------------------------------------------------------
# one read per input
# ---------------------------------------------------------------------------

#: where the text wrapper of a streamed read splits its chunks
CHUNK = 8192


def _padded(fmt: str, at: int, middle: bytes, tail: bytes = b"") -> bytes:
    """A univariate file of format ``fmt`` whose bytes ``middle`` start at
    offset ``at``: a CSV pads zero-mass rows and a row's trailing spaces
    before it, a JSON file an extra string key; ``tail`` follows it, before
    the end of the row or string."""
    if fmt == "csv":
        head = b"value,prob\n2,0.5\n" + b"1,0\n" * ((at - 40) // 4)
        return head + b"1,0.5" + b" " * (at - len(head) - 5) + middle + tail + b"\n"
    head = b'{"support": [1, 2], "probs": [0.5, 0.5], "pad": "'
    return head + b"x" * (at - len(head)) + middle + tail + b'"}\n'


#: (case, file bytes per format): each parses or fails as a streamed read of
#: its text does
READ_CASES = [
    ("byte order mark", lambda fmt: b"\xef\xbb\xbf" + _padded(fmt, 60, b"")),
    ("cr line ends, later syntax error",
     lambda fmt: (b"value,prob\r1,0.5\r2,0.5\r3,0.5,\r" if fmt == "csv"
                  else b'{\r"support": [1, 2],\r"probs": [0.5,\r0.5],\r}\r')),
    ("crlf line ends, later syntax error",
     lambda fmt: (b"value,prob\r\n1,0.5\r\n2,0.5\r\n3,0.5,\r\n" if fmt == "csv"
                  else b'{\r\n"support": [1, 2],\r\n"probs": [0.5,\r\n0.5],\r\n}\r\n')),
    ("two-byte character across the chunk end", lambda fmt: _padded(fmt, CHUNK - 1, "\u00a0".encode())),
    ("three-byte character across the chunk end", lambda fmt: _padded(fmt, CHUNK - 2, "\u2003".encode())),
    ("undecodable byte in the first chunk", lambda fmt: _padded(fmt, 100, b"\xff")),
    ("undecodable byte ending the first chunk", lambda fmt: _padded(fmt, CHUNK - 1, b"\xff")),
    ("undecodable byte starting the second chunk", lambda fmt: _padded(fmt, CHUNK, b"\xff")),
    ("truncated character across the chunk end", lambda fmt: _padded(fmt, CHUNK - 1, b"\xe2\x80")),
    ("undecodable byte past the first chunk", lambda fmt: _padded(fmt, CHUNK + 1000, b"\xff")),
]


def read_text_streamed(path, digest, newline):
    """The loaders' text as a streamed read gave it: a CSV joined line by
    line, a JSON file read whole, both decoded by the text wrapper."""
    with streamed_text(path, digest, newline) as fh:
        return "".join(fh) if newline == "" else fh.read()


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case, make", READ_CASES, ids=[c[0] for c in READ_CASES])
def test_one_read_keeps_what_a_streamed_read_gave(tmp_path, monkeypatch, case, make, fmt, exact):
    """Each input is read in one binary read, hashed whole and decoded in
    memory: the report's digest is the sha256 of the file's bytes, and the
    exit code, report and message equal a streamed read's."""
    data = make(fmt)
    path = tmp_path / f"q.{fmt}"
    path.write_bytes(data)
    argv = [str(path) if a == "{}" else a for a in check_st_argv(exact)]
    got = run_main(argv)
    digest = hashlib.sha256()
    with contextlib.suppress(Exception):  # noqa: BLE001 -- only the digest is read
        distributions.load_univariate(path, exact=exact, digest=digest)
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
    if got[0] in (0, 3):
        assert json.loads(got[1])["inputs"]["q1"] == "sha256:" + hashlib.sha256(data).hexdigest()
    monkeypatch.setattr(distributions, "_read_text", read_text_streamed)
    assert got == run_main(argv)
    assert (got[0] == 2) == (case.startswith(("byte order", "cr", "undecodable", "truncated")))


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
