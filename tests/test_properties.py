"""Whole-pipeline properties: metamorphic relations and hostile input.

Metamorphic relations check the classifier without an expected output by
relating the outputs of related inputs (Xie et al., *Testing and
Validating Machine Learning Classifiers by Metamorphic Testing*, JSS 2011).
Hostile input is byte-level mutations of small valid files driven through
``cli.run``: whatever the bytes, a command exits 0, 1 or 2, never with a
traceback, and a failure is one ``error:`` line.
"""

import csv
import io
import random
import tempfile
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rarebayes import classify_file, generate, parse_schema, train
from rarebayes.cli import run
from rarebayes.outcomes import RESERVOIR_CAPACITY

from fixture_configs import gen_configs, indep_config


def read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_csv(path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def with_first(rows: list[list[str]], col: int, label: str, rng: random.Random):
    """``rows``, header first, with the body shuffled and then a row of class
    ``label`` moved on top."""
    body = rows[1:]
    rng.shuffle(body)
    top = next(i for i, row in enumerate(body) if row[col] == label)
    body.insert(0, body.pop(top))
    return [rows[0], *body]


@given(cfg=gen_configs(sizes=st.integers(20, 1500)), data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_row_and_column_order_change_no_output_byte(tmp_path_factory, cfg, data):
    """Below the reservoir's capacity, an ungrouped file trains to the same
    model bytes as generated, with its rows shuffled so a row of the first
    class in sort order is on top, shuffled again so another class is on
    top, and with its columns reversed; and a column-reversed held-out file
    classifies to the same prediction bytes."""
    assert cfg.n < RESERVOIR_CAPACITY
    cfg = replace(cfg, group=None, positive_rate=data.draw(st.floats(0.2, 0.8)))
    root = tmp_path_factory.mktemp("metamorphic")
    result = generate(cfg, root / "fixture")
    schema = parse_schema(result.schema_path.read_text(encoding="utf-8"))
    rows = read_csv(result.data_path)
    col = rows[0].index(cfg.class_var)
    classes = sorted({row[col] for row in rows[1:]})
    assume(len(classes) == 2)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    variants = {
        "first class on top": with_first(rows, col, classes[0], rng),
        "other class on top": with_first(rows, col, classes[1], rng),
        "columns reversed": [row[::-1] for row in rows],
    }
    seed = data.draw(st.integers(0, 2**31))
    model = train(schema, result.data_path, seed=seed)
    for name, variant in variants.items():
        path = root / f"{name}.csv"
        write_csv(path, variant)
        assert train(schema, path, seed=seed).to_json_text() == model.to_json_text(), name

    held_out = generate(replace(cfg, n=200, seed=cfg.seed ^ 1), root / "held-out")
    reversed_path = root / "held-out-reversed.csv"
    write_csv(reversed_path, [row[::-1] for row in read_csv(held_out.data_path)])
    for path, out in ((held_out.data_path, "pred.csv"), (reversed_path, "pred-reversed.csv")):
        classify_file(model, path, root / out, threshold=0.5)
    assert (root / "pred.csv").read_bytes() == (root / "pred-reversed.csv").read_bytes()


# Bytes a mutation inserts: CSV structure, MISSING and non-finite cells, a
# number past float64, and invalid or truncated UTF-8.
HOSTILE = [b",", b'"', b"\r", b"\n", b"\r\n", b"?", b"nan", b"1e400", b"\xff", b"\xc3",
           b"\xe2\x82"]


@st.composite
def mutations(draw, original: bytes) -> bytes:
    """``original`` with 1-4 hostile tokens inserted or spans deleted."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        if draw(st.booleans()):
            data[at:at] = draw(st.sampled_from(HOSTILE))
        else:
            del data[at:at + draw(st.integers(1, 60))]
    return bytes(data)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory) -> dict[str, Path]:
    """A small generated data file, its schema, and the prediction file of a
    model trained on it."""
    root = tmp_path_factory.mktemp("hostile")
    result = generate(indep_config(n=60, seed=11), root / "fixture")
    model = train(parse_schema(result.schema_path.read_text(encoding="utf-8")), result.data_path)
    classify_file(model, result.data_path, root / "pred.csv", threshold=0.5)
    return {"schema": result.schema_path, "data": result.data_path, "pred": root / "pred.csv"}


@given(data=st.data())
@settings(max_examples=600, deadline=None)
def test_mutated_files_exit_cleanly(valid_files, data):
    """``train`` on a mutated data file, and ``evaluate`` with a mutated
    prediction or data file, exit 0, 1 or 2 and never raise; an exit of 1
    prints exactly one ``error:`` line."""
    command, target = data.draw(st.sampled_from(
        [("train", "data"), ("evaluate", "pred"), ("evaluate", "data")]))
    with tempfile.TemporaryDirectory() as tmp:
        files = dict(valid_files)
        files[target] = Path(tmp) / valid_files[target].name
        files[target].write_bytes(data.draw(mutations(valid_files[target].read_bytes())))
        argv = {
            "train": ["train", "--schema", str(files["schema"]), "--data", str(files["data"]),
                      "--out", str(Path(tmp) / "model.json")],
            "evaluate": ["evaluate", "--pred", str(files["pred"]), "--data", str(files["data"]),
                         "--positive", "bad", "--out", str(Path(tmp) / "report.json")],
        }[command]
        with redirect_stderr(io.StringIO()) as err:
            code = run(argv)  # an exception here is a traceback at the command line
    text = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in text
    if code == 1:
        assert text.startswith("error:") and text.count("\n") == 1, text
