"""The one missing-cell rule (``rarebayes.dataio``) in every pass, scorer
and baseline: ``?`` and empty cells are MISSING, and so is a continuous
cell that does not parse to a finite float."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rarebayes import MISSING, parse_schema, symbolize, train
from rarebayes.dataio import MISSING_CELLS, PassStats, parse_float_column
from rarebayes.baselines import fit_from_csv
from rarebayes.cli import run
from rarebayes.outcomes import OutcomeTable, VariableOutcomes
from rarebayes.structure import Encoder, NetworkModel

SCHEMA_TEXT = "class y\nvar c categorical\nvar x continuous\nvar z continuous\n"
NON_FINITE = ("inf", "-inf", "nan", "+Infinity", "-NaN", "1e999")


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "c", "x", "z"])
        writer.writerows(rows)


def is_number(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def blank_inf_rows(n=400, seed=11):
    """``n`` rows with blank class, categorical and continuous cells, ``?``
    cells, and ``inf``/``-inf``/``nan`` cells in the continuous columns."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        y = "bad" if rng.random() < 0.2 else "good"
        c = rng.choice(["a", "b"], p=[0.7, 0.3] if y == "good" else [0.3, 0.7])
        x = repr(float(rng.normal(3.0 if y == "bad" else 0.0)))
        z = repr(float(rng.normal()))
        if i % 23 == 0:
            y = ""
        elif i % 29 == 0:
            y = MISSING
        if i % 7 == 0:
            c = ""
        elif i % 11 == 0:
            c = MISSING
        if i % 13 == 0:
            x = ""
        elif i % 17 == 0:
            x = ("inf", "-inf", "nan")[i % 3]
        elif i % 19 == 0:
            x = MISSING
        if i % 31 == 0:
            z = "inf"
        rows.append([y, c, x, z])
    return rows


def test_blank_and_infinite_cells_are_missing(tmp_path):
    rows = blank_inf_rows()
    data = tmp_path / "data.csv"
    write_csv(data, rows)
    schema = parse_schema(SCHEMA_TEXT)
    model = train(schema, data, seed=1)
    assert model.class_symbols == ("bad", "good")
    assert model.rare_class() == "bad"
    assert model.outcomes.symbols("c") == ("a", "b", MISSING)
    assert all(math.isfinite(e) for var in "xz" for e in model.outcomes.edges(var))
    for cell in ("", "inf", "-inf", "nan", MISSING):
        assert symbolize(model, {"c": cell, "x": cell, "z": cell}) == {
            "c": MISSING, "x": MISSING, "z": MISSING}

    # a complete row has a class and finite x and z (the baseline ignores c)
    complete = [r for r in rows if r[0] in ("bad", "good") and all(map(is_number, r[2:]))]
    assert fit_from_csv(schema, data, "quadratic").dropped_rows == len(rows) - len(complete)

    # sweep and evaluate drop a blank actual as they drop ``?``
    labelled = sum(r[0] in ("bad", "good") for r in rows)
    reports = {}
    for name, blank in (("blank", ""), ("token", MISSING)):
        spelled = tmp_path / f"{name}.csv"
        write_csv(spelled, [[blank if r[0] == "" else r[0]] + r[1:] for r in rows])
        out = tmp_path / name
        out.mkdir()
        model.save(out / "model.json")
        for argv in (
            ["sweep", "--model", str(out / "model.json"), "--out", str(out / "sweep.json")],
            ["classify", "--model", str(out / "model.json"), "--out", str(out / "pred.csv")],
            ["evaluate", "--pred", str(out / "pred.csv"), "--positive", "bad",
             "--class-var", "y", "--out", str(out / "eval.json")],
        ):
            assert run(argv + ["--data", str(spelled)]) == 0
        reports[name] = [json.loads((out / f).read_text(encoding="utf-8"))
                         for f in ("sweep.json", "eval.json")]
    for blank_report, token_report in zip(reports["blank"], reports["token"]):
        assert blank_report["metadata"]["records"] == labelled
        assert blank_report["rows"] == token_report["rows"]


def test_encoder_codes_blank_as_missing_in_an_old_alphabet():
    """A model saved before the rule may hold ``""`` as an outcome; a blank
    cell still codes as MISSING, and the ``""`` code is never produced."""
    schema = parse_schema("class y\nvar c categorical\n")
    outcomes = OutcomeTable(class_var="y", class_symbols=("bad", "good"),
                            variables={"c": VariableOutcomes(symbols=("", "a", MISSING))})
    enc = Encoder(schema, outcomes)
    assert enc.encode_var("c", ["", "a", MISSING, "new"]).tolist() == [2, 1, 2, 2]
    assert enc.sizes["c"] == 3


# Categorical symbols: one ASCII character, longer, non-ASCII single
# characters and the old blank outcome.
SYMBOLS = ("a", "b", "Y", "0", "ab", "\u00e9", "\u2028", "")
CELLS = st.one_of(st.sampled_from(SYMBOLS + (MISSING, "N", "ba")), st.text(max_size=2))
NOT_STR = st.one_of(st.none(), st.integers(0, 9), st.just(b"a"), st.just(1.5))


@settings(max_examples=400, deadline=None)
@given(
    symbols=st.lists(st.sampled_from(SYMBOLS), unique=True),
    padding=st.sampled_from([0, 300]),
    col=st.one_of(st.lists(st.sampled_from(["a", "b", "Y", "N", MISSING])), st.lists(CELLS)),
    other=st.tuples(st.integers(0, 30), NOT_STR),
)
def test_encode_var_matches_dict_lookup(symbols, padding, col, other):
    """Both categorical coding paths, the byte table for columns of one
    ASCII character per cell and the dict for the rest, give the dict
    rule's codes in its dtype, for alphabets on both sides of the
    ``uint8``/``uint16`` boundary; a cell that is not a ``str`` codes
    MISSING, in a column and through :func:`symbolize`."""
    schema = parse_schema("class y\nvar c categorical\n")
    alphabet = (*symbols, *(f"s{i}" for i in range(padding)), MISSING)
    outcomes = OutcomeTable(class_var="y", class_symbols=("bad", "good"),
                            variables={"c": VariableOutcomes(symbols=alphabet)})
    enc = Encoder(schema, outcomes)
    miss = len(alphabet) - 1
    dtype = np.uint8 if miss < 256 else np.uint16

    def expect(cells):
        return [alphabet.index(cell) if isinstance(cell, str) and cell in alphabet
                and cell not in MISSING_CELLS else miss for cell in cells]

    at, cell = other
    for cells in (col, col[:at] + [cell] + col[at:]):
        got = enc.encode_var("c", cells)
        assert got.dtype == dtype and got.shape == (len(cells),)
        assert got.tolist() == expect(cells)
    model = NetworkModel(
        schema=schema, seed=0, class_symbols=("bad", "good"), prior=np.array([0.5, 0.5]),
        outcomes=outcomes, ranked_fields=[], parents={}, cpts={}, fallbacks={},
        pass_stats=PassStats(),
    )
    assert symbolize(model, {"c": cell}) == {"c": MISSING}


# a continuous cell: a finite number 4 times in 5, else ``?`` or non-finite text
CONTINUOUS = st.tuples(
    st.integers(0, 4), st.floats(-50, 50).map(repr), st.sampled_from((MISSING,) + NON_FINITE),
).map(lambda drawn: drawn[1] if drawn[0] else drawn[2])
# rows whose MISSING cells are spelled ``?``, or as non-finite text
TOKEN_SPELLED_ROWS = st.lists(
    st.tuples(st.sampled_from(["good", "good", "good", "bad", "bad", MISSING]),
              st.sampled_from(["a", "b", "c", MISSING]), CONTINUOUS, CONTINUOUS),
    min_size=12, max_size=50,
)


def respell(rows):
    """``?`` becomes an empty cell, non-finite text becomes ``?``."""
    def cell(value):
        return "" if value == MISSING else MISSING if value in NON_FINITE else value
    return [[cell(v) for v in row] for row in rows]


def pipeline_outputs(root: Path, rows):
    """Exit codes, stderr and output bytes of train, classify, sweep,
    evaluate and a QDA baseline, run through ``cli.run`` in ``root``."""
    for old in root.iterdir():
        old.unlink()
    data, schema = root / "data.csv", root / "schema.txt"
    write_csv(data, rows)
    schema.write_text(SCHEMA_TEXT, encoding="utf-8")
    commands = [
        ["train", "--schema", str(schema), "--out", str(root / "model.json"), "--seed", "1"],
        ["classify", "--model", str(root / "model.json"), "--out", str(root / "pred.csv")],
        ["sweep", "--model", str(root / "model.json"), "--out", str(root / "sweep.json"),
         "--csv", str(root / "sweep.csv")],
        ["evaluate", "--pred", str(root / "pred.csv"), "--positive", "bad",
         "--class-var", "y", "--out", str(root / "eval.json")],
        ["baseline", "--kind", "quadratic", "--schema", str(schema), "--ridge", "1",
         "--out", str(root / "qda.csv")],
    ]
    results = []
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv + ["--data", str(data)])
        results.append((code, err.getvalue()))
    files = {p.name: p.read_bytes() for p in root.iterdir() if p.name != "data.csv"}
    return results, files


@given(rows=TOKEN_SPELLED_ROWS)
@settings(max_examples=40, deadline=None)
def test_missing_spellings_give_identical_outputs(rows):
    """Respelling MISSING cells changes no output byte of any command."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        expect = pipeline_outputs(root, rows)
        assert pipeline_outputs(root, respell(rows)) == expect
    assert expect[0][0][0] in (0, 1)


def float_or_nan(cell):
    """Per-cell oracle: ``float()``, with MISSING cells, garbage and
    non-finite numbers all NaN."""
    if cell in MISSING_CELLS:
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(
        r"[-+]?[0-9]{1,20}(\.[0-9]{0,25})?([eE][-+]?[0-9]{1,3})?", fullmatch=True
    ),
    st.sampled_from(("-0.0", "0", "nan", "inf", "-inf", "1e400", " 1.5 ", "1_000")),
)
MISSING_CELL = st.sampled_from(sorted(MISSING_CELLS))
GARBAGE_CELLS = st.one_of(
    st.sampled_from(("abc", "1,5", "0x1p3", "nan(1)", "  ")), st.text(max_size=4)
)


@st.composite
def float_columns(draw):
    """Numbers only, numbers with MISSING cells, or also garbage: one mode
    per parse path of :func:`parse_float_column`."""
    mode = draw(st.sampled_from(("numbers", "missing", "garbage")))
    cell = NUMBER_CELLS
    if mode != "numbers":
        cell |= MISSING_CELL
    if mode == "garbage":
        cell |= GARBAGE_CELLS
    return draw(st.lists(cell, min_size=1, max_size=30))


@given(float_columns())
@settings(max_examples=300, deadline=None)
def test_parse_float_column_matches_per_cell_oracle(col):
    values = parse_float_column(col)
    expected = np.array([float_or_nan(cell) for cell in col], dtype=np.float64)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(values), nan)
    # bit for bit, so the sign of -0.0 counts
    assert np.array_equal(values[~nan].view(np.uint64), expected[~nan].view(np.uint64))
