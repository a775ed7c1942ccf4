import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from itertools import cycle
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import rarebayes
from rarebayes import DatasetError, parse_schema, structure
from rarebayes.cli import build_parser, run
from rarebayes.inference import count_scores
from rarebayes.synthgen import config_to_doc

from fixture_configs import gen_configs, messy_config, number_paths


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One full CLI pipeline: gen -> train -> classify -> evaluate -> sweep."""
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "gen.json"
    config_path.write_text(json.dumps(config_to_doc(messy_config(n=3000, seed=77))),
                           encoding="utf-8")
    assert run(["gen", "--config", str(config_path), "--out", str(root / "fixture")]) == 0
    assert run([
        "train",
        "--schema", str(root / "fixture" / "schema.txt"),
        "--data", str(root / "fixture" / "data.csv"),
        "--out", str(root / "model.json"),
        "--seed", "9",
    ]) == 0
    return root


def test_gen_writes_three_files(workdir):
    for name in ("data.csv", "schema.txt", "truth.json"):
        assert (workdir / "fixture" / name).exists()


def test_train_summary_reports_pass_count(workdir, capsys):
    code = run([
        "train",
        "--schema", str(workdir / "fixture" / "schema.txt"),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--out", str(workdir / "model2.json"),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "passes=4" in err


def test_classify_then_evaluate(workdir, capsys):
    pred = workdir / "pred70.csv"
    assert run([
        "classify", "--model", str(workdir / "model.json"),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--threshold", "0.7", "--out", str(pred),
    ]) == 0
    report = workdir / "eval70.json"
    assert run([
        "evaluate", "--pred", str(pred),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--positive", "bad", "--threshold", "0.7",
        "--out", str(report),
    ]) == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    row = doc["rows"][0]
    assert row["threshold"] == 0.7
    assert row["TP"] + row["FP"] + row["TN"] + row["FN"] == doc["metadata"]["records"]
    assert "V" in row and row["V"].endswith(":1")


@given(cfg=gen_configs(sizes=st.integers(20, 200)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_sweep_equals_classify_plus_evaluate(tmp_path_factory, cfg, data):
    """On a random generated dataset, classify + evaluate at any threshold of
    the default grid gives sweep's row for it, and every written posterior
    lies strictly inside (0, 1)."""
    # a rate near 0 or 1 leaves most 20-200 row datasets with one class
    cfg = replace(cfg, positive_rate=data.draw(st.floats(0.2, 0.8)))
    root = tmp_path_factory.mktemp("sweep-vs-classify")
    config_path = root / "gen.json"
    config_path.write_text(json.dumps(config_to_doc(cfg)), encoding="utf-8")
    assert run(["gen", "--config", str(config_path), "--out", str(root / "fixture")]) == 0
    data_path = str(root / "fixture" / "data.csv")
    with open(data_path, newline="", encoding="utf-8") as fh:
        assume(len({row[cfg.class_var] for row in csv.DictReader(fh)}) == 2)
    assert run(["train", "--schema", str(root / "fixture" / "schema.txt"),
                "--data", data_path, "--out", str(root / "model.json")]) == 0
    positive = data.draw(st.sampled_from(cfg.class_labels))
    assert run(["sweep", "--model", str(root / "model.json"), "--data", data_path,
                "--positive", positive, "--out", str(root / "sweep.json")]) == 0
    sweep = json.loads((root / "sweep.json").read_text(encoding="utf-8"))
    row = data.draw(st.sampled_from(sweep["rows"]))
    pred = root / "pred.csv"
    assert run(["classify", "--model", str(root / "model.json"), "--data", data_path,
                "--positive", positive, "--threshold", repr(row["threshold"]),
                "--out", str(pred)]) == 0
    assert run(["evaluate", "--pred", str(pred), "--data", data_path,
                "--positive", positive, "--class-var", cfg.class_var,
                "--threshold", repr(row["threshold"]), "--out", str(root / "eval.json")]) == 0
    report = json.loads((root / "eval.json").read_text(encoding="utf-8"))
    assert report["metadata"]["records"] == sweep["metadata"]["records"] == cfg.n
    single = report["rows"][0]
    for key in ("threshold", "TP", "FP", "TN", "FN", "F_pct", "C_pct", "V"):
        assert single[key] == row[key], key
    with open(pred, newline="", encoding="utf-8") as fh:
        probs = [float(v) for r in csv.DictReader(fh) for k, v in r.items()
                 if k.startswith("p_")]
    assert len(probs) == 2 * cfg.n
    assert all(0.0 < v < 1.0 for v in probs)


@pytest.mark.parametrize("cell", ["", "?"])
def test_sweep_drops_blank_actuals_when_the_positive_class_is_blank(
        workdir, tmp_path, capsys, cell):
    """A model whose rarer class is a MISSING cell, as one saved before blank
    cells were missing may be, still drops the rows whose class cell is
    MISSING.  They used to count as positives; dropped, no actual is
    positive, so the rates are undefined."""
    doc = json.loads((workdir / "model.json").read_text(encoding="utf-8"))
    rare = min(zip(doc["prior"], doc["class_symbols"]))[1]
    doc["class_symbols"] = [cell if c == rare else c for c in doc["class_symbols"]]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    with open(workdir / "fixture" / "data.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    y = header.index(doc["schema"]["class_var"])
    for row in rows[::20]:
        row[y] = cell
    data = tmp_path / "data.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    labelled = len(rows) - len(rows[::20])
    # the rare class by default, and by name: --positive "" names a "" class
    for positive in ([], ["--positive", cell]):
        assert run(["sweep", "--model", str(model), "--data", str(data),
                    "--out", str(tmp_path / "sweep.json"), *positive]) == 1
        assert capsys.readouterr().err == (
            f"error: rates undefined: 0 actual positives, {labelled} actual negatives\n")


def test_sweep_of_a_label_per_row_keeps_the_codebook(workdir, tmp_path, capsys):
    """``sweep`` on 40,000 rows, each with a label of its own and none a
    class symbol, counts every row a negative, so it exits 1 with one error
    line; coding the labels adds no entry to the model's codebook of k+2."""
    with open(workdir / "fixture" / "data.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    model = structure.load_model(workdir / "model.json")
    y = header.index(model.schema.class_var)
    n = 40_000
    data = tmp_path / "labels.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *([*row[:y], f"L{i}", *row[y + 1:]]
                                            for i, row in zip(range(n), cycle(rows)))])
    assert run(["sweep", "--model", str(workdir / "model.json"), "--data", str(data),
                "--out", str(tmp_path / "sweep.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: rates undefined: 0 actual positives, {n} actual negatives\n")
    codebook = dict(model.encoder.class_codes)
    assert len(codebook) == len(model.class_symbols) + 2
    table = count_scores(model, data, [0.5])
    assert table[:, 1].sum() == 0 and table.sum() == n
    assert model.encoder.class_codes == codebook


@pytest.mark.parametrize("trained, odd", [("", "bda"), ("ugly", "ugly")],
                         ids=["unknown-label", "three-class"])
def test_sweep_counts_other_labels_negative_and_evaluate_refuses_them(
        tmp_path, capsys, trained, odd):
    """With ``bad`` positive, ``sweep`` counts every other label a negative:
    one the model never saw (``bda``) or a third class.  ``evaluate``
    refuses paired rows that hold more than one non-positive label."""
    def write(name, labels):
        rows = [["class", "a"], *([label, label[0]] for label in labels)]
        with open(tmp_path / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        return str(tmp_path / name)

    labels = ["good"] * 12 + ["bad"] * 4
    train_path = write("train.csv", labels + [trained] * 6 if trained else labels)
    scored = labels + [odd] * 6
    data_path = write("data.csv", scored)
    (tmp_path / "schema.txt").write_text("class class\nvar a categorical\n", encoding="utf-8")
    assert run(["train", "--schema", str(tmp_path / "schema.txt"), "--data", train_path,
                "--out", str(tmp_path / "model.json")]) == 0
    assert run(["sweep", "--model", str(tmp_path / "model.json"), "--data", data_path,
                "--positive", "bad", "--out", str(tmp_path / "sweep.json")]) == 0
    sweep = json.loads((tmp_path / "sweep.json").read_text(encoding="utf-8"))
    assert sweep["metadata"]["records"] == 22
    assert {(r["TP"] + r["FN"], r["FP"] + r["TN"]) for r in sweep["rows"]} == {(4, 18)}

    with open(tmp_path / "pred.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["record_id", "label"], *(
            [i, "bad" if label == "bad" else "good"] for i, label in enumerate(scored))])
    capsys.readouterr()
    assert run(["evaluate", "--pred", str(tmp_path / "pred.csv"), "--data", data_path,
                "--positive", "bad", "--out", str(tmp_path / "eval.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: ambiguous negative label among {sorted(['good', odd])}\n")
    assert not (tmp_path / "eval.json").exists()


def test_sweep_csv_column_layout(workdir):
    assert run([
        "sweep", "--model", str(workdir / "model.json"),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--grid", "0.30:0.70:0.20",
        "--out", str(workdir / "sweep.json"),
        "--csv", str(workdir / "sweep.csv"),
    ]) == 0
    doc = json.loads((workdir / "sweep.json").read_text(encoding="utf-8"))
    assert [r["threshold"] for r in doc["rows"]] == [0.3, 0.5, 0.7]
    with open(workdir / "sweep.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header == ["threshold", "F_pct", "C_pct", "V", "TP", "FP", "TN", "FN", "accuracy"]


def test_baseline_command(workdir, capsys):
    out = workdir / "baseline.csv"
    code = run([
        "baseline", "--kind", "quadratic",
        "--schema", str(workdir / "fixture" / "schema.txt"),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--out", str(out),
    ])
    assert code == 0
    assert "kind=quadratic" in capsys.readouterr().err
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3000
    assert set(rows[0]) == {"record_id", "p_bad", "p_good", "label", "skipped_nodes"}


def test_byte_identical_reruns(workdir, tmp_path):
    first = (workdir / "fixture" / "data.csv").read_bytes()
    config_path = workdir / "gen.json"
    assert run(["gen", "--config", str(config_path), "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "data.csv").read_bytes() == first
    assert run([
        "train",
        "--schema", str(workdir / "fixture" / "schema.txt"),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--out", str(tmp_path / "model_again.json"),
        "--seed", "9",
    ]) == 0
    assert (tmp_path / "model_again.json").read_bytes() == (workdir / "model.json").read_bytes()


@pytest.mark.parametrize("preplaced", [False, True])
def test_sweep_refuses_one_file_for_both_outputs(tmp_path, monkeypatch, capsys, preplaced):
    """``--csv`` naming the ``--out`` file, here through another spelling of
    its path, is refused before the model or the data is read (neither
    exists): exit 1, one error line naming both flags, and the path is as
    it was, absent or with its bytes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    if preplaced:
        (tmp_path / "both.json").write_bytes(b"previous")
    code = run(["sweep", "--model", str(tmp_path / "no-model.json"),
                "--data", str(tmp_path / "no-data.csv"),
                "--out", "both.json", "--csv", str(tmp_path / "sub" / ".." / "both.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: --csv ") and "--out both.json" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["both.json", "sub"][not preplaced:]
    assert not preplaced or (tmp_path / "both.json").read_bytes() == b"previous"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_every_option():
    """Each subcommand option of the parser is named in README."""
    text = README.read_text(encoding="utf-8")
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    missing = [
        f"{command} {option}"
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
        and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)
    ]
    assert missing == []


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert run(["train", "--bogus", "x"]) == 2
    capsys.readouterr()


def test_missing_schema_path_is_runtime_error(workdir, capsys):
    code = run([
        "train", "--schema", "/no/such/schema.txt",
        "--data", str(workdir / "fixture" / "data.csv"),
        "--out", str(workdir / "nope.json"),
    ])
    assert code == 1
    assert "/no/such/schema.txt" in capsys.readouterr().err


def test_schema_parse_failure_is_runtime_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("class y\nvar x categorical\nwindow 0\n", encoding="utf-8")
    code = run([
        "train", "--schema", str(bad),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--out", str(tmp_path / "m.json"),
    ])
    assert code == 1
    assert "window" in capsys.readouterr().err


def test_at_sign_in_variable_name_is_runtime_error(tmp_path, capsys):
    schema = tmp_path / "schema.txt"
    schema.write_text("class y\nvar x@1 categorical\n", encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("y,x@1\ngood,a\nbad,b\n", encoding="utf-8")
    code = run(["train", "--schema", str(schema), "--data", str(data),
                "--out", str(tmp_path / "m.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err and "'x@1'" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_bad_grid_is_runtime_error(workdir, capsys):
    code = run([
        "sweep", "--model", str(workdir / "model.json"),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--grid", "nope", "--out", str(workdir / "x.json"),
    ])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("grid", ["0:1:nan", "0:inf:0.1", "nan:1:0.1"])
def test_non_finite_grid_is_runtime_error(workdir, capsys, grid):
    # a non-finite bound or step used to append thresholds without end
    code = run([
        "sweep", "--model", str(workdir / "model.json"),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--grid", grid, "--out", str(workdir / "x.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("grid, message", [
    ("0:0.9:0.1", "grid thresholds must lie strictly inside (0, 1)"),
    ("0.1:0.1000000002:6e-11", "grid thresholds must be strictly increasing"),
    # these used to append thresholds until memory ran out
    ("0.1:0.9:1e-11",
     "grid step 1e-11 is too small: consecutive thresholds round to the same 10 decimals"),
    ("0:1:1e-300",
     "grid step 1e-300 is too small: consecutive thresholds round to the same 10 decimals"),
    ("0.1:0.9:1e-6", "grid 0.1:0.9:1e-06 holds more than 100000 thresholds"),
])
def test_invalid_grid_fails_before_reading_data(workdir, tmp_path, capsys, grid, message):
    # the grid used to be checked only once the whole file was scored, so a
    # missing data file hid the grid error
    code = run([
        "sweep", "--model", str(workdir / "model.json"),
        "--data", str(tmp_path / "absent.csv"),
        "--grid", grid, "--out", str(tmp_path / "x.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.json").exists()


def test_empty_grid_is_runtime_error(workdir, tmp_path, capsys):
    # a start past the stop used to write a report with no rows
    code = run([
        "sweep", "--model", str(workdir / "model.json"),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--grid", "0.5:0.4:0.1", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: grid '0.5:0.4:0.1' holds no threshold: start is past stop\n")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command", ["classify", "sweep", "baseline"])
def test_blank_positive_is_an_unknown_class(workdir, tmp_path, capsys, command):
    # classify and sweep used to read an empty --positive as "the rare class"
    data = str(workdir / "fixture" / "data.csv")
    out = str(tmp_path / "out")
    argv = {
        "classify": ["classify", "--model", str(workdir / "model.json"), "--data", data,
                     "--out", out],
        "sweep": ["sweep", "--model", str(workdir / "model.json"), "--data", data,
                  "--out", out],
        "baseline": ["baseline", "--kind", "linear", "--data", data, "--out", out,
                     "--schema", str(workdir / "fixture" / "schema.txt")],
    }[command]
    assert run(argv + ["--positive", ""]) == 1
    assert capsys.readouterr().err == "error: unknown positive class ''\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ridge", ["-1", "nan", "inf"])
def test_bad_ridge_is_runtime_error(workdir, tmp_path, capsys, ridge):
    # a negative or NaN ridge used to run as if it were 0
    code = run([
        "baseline", "--kind", "quadratic",
        "--schema", str(workdir / "fixture" / "schema.txt"),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--ridge", ridge, "--out", str(tmp_path / "b.csv"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: ridge must be a finite number >= 0, got {float(ridge)}\n")
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.5"])
def test_evaluate_threshold_outside_unit_interval_is_runtime_error(tmp_path, capsys,
                                                                   threshold):
    # NaN used to reach the report as the invalid JSON token NaN; the other
    # values were recorded as given, though classify rejects them all.  The
    # files do not exist: the threshold is checked before either is read.
    code = run([
        "evaluate", "--pred", str(tmp_path / "pred.csv"),
        "--data", str(tmp_path / "data.csv"), "--positive", "bad",
        "--threshold", threshold, "--out", str(tmp_path / "e.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: threshold must lie in [0, 1], got {float(threshold)}\n")
    assert not (tmp_path / "e.json").exists()


def test_classify_machine_output_stays_out_of_stderr(workdir, capsys):
    pred = workdir / "pred_clean.csv"
    run([
        "classify", "--model", str(workdir / "model.json"),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--threshold", "0.5", "--out", str(pred),
    ])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("classify:")


@pytest.mark.parametrize("corrupt", ["truncated", "no-schema", "class-row-dropped",
                                     "one-entry-prior", "unknown-var"])
def test_corrupt_model_file_is_runtime_error(workdir, tmp_path, capsys, corrupt):
    text = (workdir / "model.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    if corrupt == "truncated":
        text = text[: len(text) // 2]
    elif corrupt == "no-schema":
        text = '{"format": "rarebayes-model-v1"}'
    else:
        # numpy would broadcast the first two, and the third raised KeyError
        node = doc["ranked_fields"][0]["node"]
        if corrupt == "class-row-dropped":
            doc["cpts"][node]["probs"].pop()
        elif corrupt == "one-entry-prior":
            doc["prior"] = [1.0]
        else:
            doc["ranked_fields"][0]["var"] = "nosuch"
        text = json.dumps(doc)
    bad = tmp_path / "model.json"
    bad.write_text(text, encoding="utf-8")
    code = run([
        "classify", "--model", str(bad),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--out", str(tmp_path / "pred.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "pred.csv").exists()


def test_classify_requires_unselected_field_columns(workdir, tmp_path, capsys):
    # scoring reads only the model's nodes, but the header check covers
    # every schema column
    doc = json.loads((workdir / "model.json").read_text(encoding="utf-8"))
    assert doc["ranked_fields"][-1]["node"] == "addon"
    doc["ranked_fields"].pop()
    for key in ("parents", "cpts", "fallbacks"):
        del doc[key]["addon"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    with open(workdir / "fixture" / "data.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("addon")
    data = tmp_path / "data.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(row[:drop] + row[drop + 1:] for row in rows)
    code = run(["classify", "--model", str(model), "--data", str(data),
                "--out", str(tmp_path / "pred.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "addon" in err and "Traceback" not in err


def _evaluate_ids(workdir, tmp_path, ids):
    pred = tmp_path / "pred.csv"
    pred.write_text("record_id,label\n" + "".join(f"{i},bad\n" for i in ids),
                    encoding="utf-8")
    report = tmp_path / "eval.json"
    code = run([
        "evaluate", "--pred", str(pred),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--positive", "bad", "--out", str(report),
    ])
    return code, report


@pytest.mark.parametrize("bad_id", ["abc", "1.5", "", "-1"])
def test_evaluate_rejects_bad_record_id(workdir, tmp_path, capsys, bad_id):
    code, _ = _evaluate_ids(workdir, tmp_path, ["0", bad_id])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "record_id" in err


@pytest.mark.parametrize("bad_id", ["x7", "-3", "1e3"])
def test_bad_record_id_message_names_its_row(workdir, tmp_path, capsys, bad_id):
    code, _ = _evaluate_ids(workdir, tmp_path, ["0", "1", bad_id, "-4"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'pred.csv'} row 3: record_id {bad_id!r} "
        "is not a non-negative integer\n"
    )


def test_bad_record_id_past_the_first_chunk_names_its_row(workdir, tmp_path, capsys):
    """The reader decodes 128 KiB blocks and counts 65,536-row chunks; a
    bad id in a later block of a later chunk still names its row."""
    ids = [str(i) for i in range(70_000)]
    ids[66_000] = "x66"
    code, _ = _evaluate_ids(workdir, tmp_path, ids)
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'pred.csv'} row 66001: record_id 'x66' "
        "is not a non-negative integer\n"
    )


def test_record_id_past_int64_pairs_with_missing(workdir, tmp_path, capsys):
    """An id numpy's int64 cannot hold is still an id past the data."""
    ids = [str(i) for i in range(500)]
    code, report = _evaluate_ids(workdir, tmp_path, ids)
    assert code == 0
    plain = json.loads(report.read_text(encoding="utf-8"))
    code, report = _evaluate_ids(workdir, tmp_path, ids + [str(2 ** 70)])
    assert code == 0
    assert json.loads(report.read_text(encoding="utf-8"))["rows"] == plain["rows"]
    capsys.readouterr()


def test_evaluate_skips_ids_past_the_data(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    assert run([
        "classify", "--model", str(workdir / "model.json"),
        "--data", str(workdir / "fixture" / "data.csv"), "--out", str(pred),
    ]) == 0
    reports = []
    for extra in ("", "3000,,,bad,\n99999,,,good,\n"):
        with open(pred, "a", encoding="utf-8") as fh:
            fh.write(extra)
        reports.append(tmp_path / f"eval{len(reports)}.json")
        assert run([
            "evaluate", "--pred", str(pred),
            "--data", str(workdir / "fixture" / "data.csv"),
            "--positive", "bad", "--out", str(reports[-1]),
        ]) == 0
    first, second = (json.loads(r.read_text(encoding="utf-8")) for r in reports)
    assert second["rows"] == first["rows"]
    assert second["metadata"]["records"] == first["metadata"]["records"]
    capsys.readouterr()


def test_file_changed_after_pass_one_is_runtime_error(workdir, tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.csv"
    data.write_bytes((workdir / "fixture" / "data.csv").read_bytes())
    real = structure.collect_outcomes

    def collect_then_append(schema, dataset, **kwargs):
        table = real(schema, dataset, **kwargs)
        with open(data, "a", encoding="utf-8") as fh:
            fh.write(data.read_text(encoding="utf-8").splitlines()[1] + "\n")
        return table

    monkeypatch.setattr(structure, "collect_outcomes", collect_then_append)
    schema = parse_schema((workdir / "fixture" / "schema.txt").read_text(encoding="utf-8"))
    with pytest.raises(DatasetError, match="changed between passes"):
        structure.train(schema, data)
    code = run([
        "train", "--schema", str(workdir / "fixture" / "schema.txt"),
        "--data", str(data), "--out", str(tmp_path / "m.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "changed between passes" in err
    assert "Traceback" not in err


def test_evaluate_rejects_file_without_record_id(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("id,label\n0,bad\n", encoding="utf-8")
    code = run([
        "evaluate", "--pred", str(pred),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--positive", "bad", "--out", str(tmp_path / "eval.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "record_id" in err and "Traceback" not in err


def test_evaluate_reports_prediction_header_before_data(workdir, tmp_path, capsys):
    """With both files bad, the predictions header is reported, as when the
    predictions were read first."""
    pred = tmp_path / "pred.csv"
    pred.write_text("id,label\n0,bad\n", encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("a,b\n1,2\n", encoding="utf-8")
    code = run([
        "evaluate", "--pred", str(pred), "--data", str(data),
        "--positive", "bad", "--out", str(tmp_path / "eval.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {pred} header lacks required column(s): record_id\n"
    )


def test_evaluate_rejects_short_prediction_row(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("record_id,label\n0,bad\n1\n", encoding="utf-8")
    code = run([
        "evaluate", "--pred", str(pred),
        "--data", str(workdir / "fixture" / "data.csv"),
        "--positive", "bad", "--out", str(tmp_path / "eval.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pred.csv" in err and "1 row(s) rejected" in err
    assert "Traceback" not in err
    assert not (tmp_path / "eval.json").exists()


def test_non_utf8_data_is_runtime_error(workdir, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_bytes((workdir / "fixture" / "data.csv").read_bytes() + b"\xff\n")
    code = run([
        "train", "--schema", str(workdir / "fixture" / "schema.txt"),
        "--data", str(data), "--out", str(tmp_path / "m.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "data.csv is not UTF-8" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "baseline"])
def test_non_utf8_schema_is_runtime_error(workdir, tmp_path, capsys, command):
    schema = tmp_path / "schema.txt"
    schema.write_bytes(b"\xff\xfe")
    data = str(workdir / "fixture" / "data.csv")
    args = ["--kind", "linear"] if command == "baseline" else []
    code = run([command, *args, "--schema", str(schema), "--data", data,
                "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {schema} is not UTF-8 text")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, text, message", [
    ("gen", "nope", "is not valid JSON"),
    ("gen", "[]", "must be a JSON object, got list"),
    ("gen", '{"n": "x"}', "malformed value"),
    ("gen", '{"n": 2.5}', "n must be an integer >= 1, got 2.5"),
    ("gen", '{"n": true}', "n must be an integer >= 1, got True"),
    ("gen", '{"n": 10, "seed": "x"}', "seed must be an integer >= 0, got 'x'"),
    ("gen", '{"n": 10, "seed": -1}', "seed must be an integer >= 0, got -1"),
    ("gen", '{"n": 10, "group": {"records_per_group": 1.5}}',
     "records_per_group must be an integer >= 1, got 1.5"),
    ("gen", '{"n": 10, "noise": [{"name": "z", "mean": 0, "sd": 1, "missing_rate": 2}]}',
     "z: missing_rate must lie in [0, 1], got 2"),
    ("gen", '{"n": 10, "noise": [{"name": "z", "mean": 0, "sd": 1, "missing_rate": -1}]}',
     "z: missing_rate must lie in [0, 1], got -1"),
    ("gen", '{"n": 10, "class_var": "my class", "noise": [{"name": "z", "mean": 0, "sd": 1}]}',
     "class name 'my class' must be one token without whitespace"),
    ("gen", '{"n": 10, "noise": [{"name": "z 1", "mean": 0, "sd": 1}]}',
     "variable name 'z 1' must be one token without whitespace"),
    ("gen", '{"n": 10, "postive_rate": 0.4}', "unexpected keyword argument 'postive_rate'"),
    ("gen", '{"n": 10, "noise": [{"name": "a#b", "mean": 0, "sd": 1}]}',
     "variable name 'a#b' contains '#'"),
    ("gen", '{"n": 10, "noise": [{"name": "a", "mean": 0, "sd": 1}], "group": {"name": "a"}}',
     "group column 'a' is also a field variable"),
    ("gen", '{"n": 10, "noise": [{"name": "z", "outcomes": ["a", "a"], "dist": [0.5, 0.5]}]}',
     "z: outcomes must be a list of distinct names, none of them '' or '?', got ('a', 'a')"),
    ("gen", '{"n": 10, "noise": [{"name": "z", "outcomes": ["", "b"], "dist": [0.5, 0.5]}]}',
     "z: outcomes must be a list of distinct names, none of them '' or '?', got ('', 'b')"),
    ("gen", '{"n": 10, "categorical": [{"name": "x", "outcomes": ["a", "?"], '
            '"dist": {"good": [0.5, 0.5], "bad": [0.5, 0.5]}}]}',
     "x: outcomes must be a list of distinct names"),
    ("gen", '{"n": 10, "categorical": [{"name": "x", "outcomes": ["a", "b", "a"], '
            '"dist": {"good": [0.2, 0.3, 0.5], "bad": [0.5, 0.3, 0.2]}}]}',
     "x: outcomes must be a list of distinct names"),
    ("gen", '{"n": 10, "noise": [{"name": "z", "outcomes": ["a"], "dist": "1"}]}',
     "z: pmf must be a list of probabilities, got '1'"),
    ("gen", '{"n": 10, "noise": [{"name": "z", "sd": 1}]}',
     "z: mean and sd must be finite numbers"),
    ("baseline", "y,a\n", "exactly 2 class values, got []"),
    ("baseline", "y,a\ngood,1\ngood,2\ngood,3\nbad,4\n", "at least 2 complete rows"),
])
def test_malformed_input_is_runtime_error(tmp_path, capsys, command, text, message):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    if command == "gen":
        argv = ["gen", "--config", str(path), "--out", str(tmp_path / "out")]
    else:
        schema = tmp_path / "schema.txt"
        schema.write_text("class y\nvar a continuous\n", encoding="utf-8")
        argv = ["baseline", "--kind", "linear", "--schema", str(schema),
                "--data", str(path), "--out", str(tmp_path / "out.csv")]
    assert run(argv) == 1
    assert not (tmp_path / "out").exists()  # gen fails before it writes a file
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["evaluate", "baseline", "classify"])
def test_label_error_names_at_most_five_labels(workdir, tmp_path, capsys, command):
    """A class label per row, or a model document with 2,000 class symbols
    of which two repeat, fails in one short ``error:`` line that names five
    labels and counts the rest."""
    labels = [f"label{i}" for i in range(2000)]
    data, out = tmp_path / "data.csv", tmp_path / "out"
    if command == "evaluate":
        data.write_text("class\n" + "".join(f"{label}\n" for label in labels), encoding="utf-8")
        pred = tmp_path / "pred.csv"
        pred.write_text("record_id,label\n" + "".join(f"{i},bad\n" for i in range(2000)),
                        encoding="utf-8")
        argv = ["evaluate", "--pred", str(pred), "--data", str(data), "--positive", "bad"]
    elif command == "baseline":
        data.write_text("y,a\n" + "".join(f"{label},{i}\n" for i, label in enumerate(labels)),
                        encoding="utf-8")
        schema = tmp_path / "schema.txt"
        schema.write_text("class y\nvar a continuous\n", encoding="utf-8")
        argv = ["baseline", "--kind", "linear", "--schema", str(schema), "--data", str(data)]
    else:
        doc = json.loads((workdir / "model.json").read_text(encoding="utf-8"))
        doc["class_symbols"] = [*labels[:-1], labels[0]]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["classify", "--model", str(model),
                "--data", str(workdir / "fixture" / "data.csv")]
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 1000, err[:200]
    assert "', ... 1995 more]" in err


@given(cfg=gen_configs(sizes=st.integers(1, 50)), data=st.data())
@settings(max_examples=100, deadline=None)
def test_gen_rejects_a_non_finite_or_negative_number(tmp_path_factory, cfg, data):
    """One number of a valid config made NaN, infinite or, unless it is a
    mean, negative: gen exits 1 with one error line and writes nothing."""
    doc = json.loads(json.dumps(config_to_doc(cfg)))
    path = data.draw(st.sampled_from(list(number_paths(doc))))
    bad = st.sampled_from([math.nan, math.inf, -math.inf])
    if "mean" not in path:
        bad |= st.floats(max_value=-1e-9, allow_infinity=False)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(bad)
    root = tmp_path_factory.mktemp("bad-number")
    (root / "gen.json").write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["gen", "--config", str(root / "gen.json"), "--out", str(root / "out")])
    assert code == 1
    assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    assert not (root / "out").exists()


@pytest.mark.parametrize("label", ["?", ""])
def test_gen_rejects_a_missing_class_label(tmp_path, capsys, label):
    """A class label the reader takes for a missing cell would leave train
    one observed class: gen exits 1 with one error line naming
    class_labels, and writes nothing."""
    doc = {"n": 50, "class_labels": [label, "bad"],
           "noise": [{"name": "z", "mean": 0.0, "sd": 1.0}]}
    (tmp_path / "gen.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run(["gen", "--config", str(tmp_path / "gen.json"),
                "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "class_labels" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [
    {"class_labels": ["\ud800", "b"], "noise": [{"name": "z", "mean": 0.0, "sd": 1.0}]},
    {"noise": [{"name": "z\ud800", "mean": 0.0, "sd": 1.0}]},
    {"noise": [{"name": "z", "outcomes": ["o\ud800", "p"], "dist": [0.5, 0.5]}]},
], ids=["class-label", "variable-name", "outcome"])
def test_gen_rejects_a_name_utf8_cannot_hold(tmp_path, capsys, doc):
    """A lone surrogate, which a JSON ``\\u`` escape can make, cannot be
    written to the data file: gen exits 1 with one error line and writes
    nothing."""
    (tmp_path / "gen.json").write_text(json.dumps({"n": 50, **doc}), encoding="utf-8")
    assert run(["gen", "--config", str(tmp_path / "gen.json"),
                "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "UTF-8" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, message", [
    ({"noise": [{"name": "z", "mean": 0.0, "sd": 1.0}] * 2},
     "error: duplicate variable name 'z'\n"),
    ({"class_var": "z", "noise": [{"name": "z", "mean": 0.0, "sd": 1.0}]},
     "error: class variable 'z' also declared as a field\n"),
], ids=["repeated-variable", "class-variable"])
def test_gen_names_a_name_the_schema_rejects(tmp_path, capsys, doc, message):
    """The schema's own rules judge a config's names, so gen's one error
    line names the offending one, and nothing is written."""
    (tmp_path / "gen.json").write_text(json.dumps({"n": 50, **doc}), encoding="utf-8")
    assert run(["gen", "--config", str(tmp_path / "gen.json"),
                "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def test_model_symbol_utf8_cannot_hold_is_rejected(workdir, tmp_path, capsys):
    """A model whose class symbol holds a lone surrogate fails to load:
    classify exits 1 with one error line and writes nothing."""
    doc = json.loads((workdir / "model.json").read_text(encoding="utf-8"))
    doc["class_symbols"][0] = "go\ud800od"
    (tmp_path / "model.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run(["classify", "--model", str(tmp_path / "model.json"),
                "--data", str(workdir / "fixture" / "data.csv"),
                "--out", str(tmp_path / "pred.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "UTF-8" in err
    assert not (tmp_path / "pred.csv").exists()


def test_module_entry_point_runs_the_cli(tmp_path):
    """``python -m rarebayes.cli`` runs the CLI: gen without its flags is a
    usage error."""
    src = str(Path(rarebayes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rarebayes.cli", "gen"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "--config" in proc.stderr


@pytest.mark.parametrize("text, message", [
    # a header-only file: pass 1 reads no chunk, so none is left to release
    ("class,a\n", "error: class column 'class' needs >= 2 observed outcomes, got 0\n"),
    # a required column named twice is ambiguous, so neither copy is used
    ("class,a,a\ng,x,y\nb,y,x\n", "header repeats required column(s): a\n"),
], ids=["header-only", "repeated-column"])
def test_train_rejects_a_file_it_cannot_learn_from(tmp_path, capsys, text, message):
    (tmp_path / "data.csv").write_text(text, encoding="utf-8")
    (tmp_path / "schema.txt").write_text("class class\nvar a categorical\n", encoding="utf-8")
    assert run(["train", "--schema", str(tmp_path / "schema.txt"),
                "--data", str(tmp_path / "data.csv"), "--out", str(tmp_path / "m.json")]) == 1
    assert not (tmp_path / "m.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.endswith(message)
    assert err.count("\n") == 1 and "Traceback" not in err


# --- the file boundary: every output whole, every file error typed ----------


def _outputs(command, root):
    """The argv tail naming ``command``'s outputs under ``root``, and their paths."""
    if command == "sweep --csv":
        paths = [root / "sweep.json", root / "sweep.csv"]
        return ["--out", str(paths[0]), "--csv", str(paths[1])], paths
    return ["--out", str(root / "out.csv")], [root / "out.csv"]


def _command_argv(command, workdir, data):
    """``command`` reading ``data``; ``baseline`` fits on the clean fixture."""
    fixture = workdir / "fixture"
    if command == "baseline":
        return ["baseline", "--kind", "quadratic", "--schema", str(fixture / "schema.txt"),
                "--train", str(fixture / "data.csv"), "--data", str(data)]
    return [command.split()[0], "--model", str(workdir / "model.json"), "--data", str(data)]


@given(command=st.sampled_from(["classify", "baseline", "sweep --csv"]),
       row=st.integers(1, 300), preplaced=st.booleans())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_run_that_fails_mid_pass_leaves_its_outputs_as_they_were(
        workdir, tmp_path_factory, sizes, command, row, preplaced):
    """One ``\\xff`` byte at a drawn row of a 300-row file, read in one-line
    blocks and 7-row chunks so rows before it are scored first: the run
    exits 1 with one error line, every output path is as it was before
    the run, absent or still holding the same bytes, and no ``.tmp``
    sibling is left."""
    sizes(chunk_rows=7, block_bytes=1)
    root = tmp_path_factory.mktemp("mid-pass")
    lines = (workdir / "fixture" / "data.csv").read_bytes().split(b"\r\n")[:301]
    lines[row] = b"\xff" + lines[row]
    data = root / "data.csv"
    data.write_bytes(b"\r\n".join(lines) + b"\r\n")
    tail, paths = _outputs(command, root)
    for path in paths if preplaced else ():
        path.write_bytes(b"previous " + path.name.encode())
    before = {path: path.read_bytes() if preplaced else None for path in paths}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(_command_argv(command, workdir, data) + tail)
    assert code == 1
    assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    assert "is not UTF-8 text" in err.getvalue()
    assert {path: path.read_bytes() if path.exists() else None for path in paths} == before
    assert list(root.glob(".*.tmp")) == []


@pytest.mark.parametrize("command", ["classify", "baseline"])
def test_output_named_as_its_own_input_replaces_it_after_the_read(workdir, tmp_path, command):
    """``--out`` naming ``--data``: the whole input is read, then replaced by
    the predictions the same run writes to a separate path."""
    data = tmp_path / "data.csv"
    data.write_bytes((workdir / "fixture" / "data.csv").read_bytes())
    if command == "baseline":
        argv = ["baseline", "--kind", "linear",
                "--schema", str(workdir / "fixture" / "schema.txt"), "--data", str(data)]
    else:
        argv = ["classify", "--model", str(workdir / "model.json"), "--data", str(data)]
    assert run(argv + ["--out", str(tmp_path / "pred.csv")]) == 0
    assert run(argv + ["--out", str(data)]) == 0
    assert data.read_bytes() == (tmp_path / "pred.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "pred.csv"]


def _file_error_argv(workdir, root, case):
    """The argv of ``case``, with ``root / "bad"`` as the file it cannot use."""
    fixture = workdir / "fixture"
    bad = str(root / "bad")
    model = str(workdir / "model.json")
    data = str(fixture / "data.csv")
    schema = str(fixture / "schema.txt")
    out = str(root / "out")
    missing_dir = str(root / "no-such-dir" / "out")
    return {
        "classify --model": ["classify", "--model", bad, "--data", data, "--out", out],
        "sweep --model": ["sweep", "--model", bad, "--data", data, "--out", out],
        "gen --config": ["gen", "--config", bad, "--out", out],
        "train --schema": ["train", "--schema", bad, "--data", data, "--out", out],
        "gen --out": ["gen", "--config", str(workdir / "gen.json"), "--out", bad],
        "train --out dir": ["train", "--schema", schema, "--data", data, "--out", bad],
        "sweep --out dir": ["sweep", "--model", model, "--data", data, "--out", bad,
                            "--csv", out],
        "train --out": ["train", "--schema", schema, "--data", data, "--out", missing_dir],
        "classify --out": ["classify", "--model", model, "--data", data, "--out", missing_dir],
        "evaluate --out": ["evaluate", "--pred", str(root / "pred.csv"), "--data", data,
                           "--positive", "bad", "--out", missing_dir],
        "sweep --out": ["sweep", "--model", model, "--data", data, "--out", missing_dir],
        "sweep --csv": ["sweep", "--model", model, "--data", data, "--out", out,
                        "--csv", missing_dir],
        "baseline --out": ["baseline", "--kind", "linear", "--schema", schema, "--data", data,
                           "--out", missing_dir],
    }[case]


@pytest.mark.parametrize("case, bad, message", [
    *((case, bad, "cannot read")
      for case in ["classify --model", "sweep --model", "gen --config", "train --schema"]
      for bad in ["missing", "directory"]),
    ("gen --out", "file", "cannot write"),
    ("train --out dir", "directory", "cannot write"),
    ("sweep --out dir", "directory", "cannot write"),
    *((case, None, "cannot write")
      for case in ["train --out", "classify --out", "evaluate --out", "sweep --out",
                   "sweep --csv", "baseline --out"]),
])
def test_a_file_that_cannot_be_used_is_one_error_line(
        workdir, tmp_path, capsys, case, bad, message):
    """A missing path, a directory or a file where the other must go, and an
    output inside a missing directory: exit 1 with one ``error: cannot read``
    or ``error: cannot write`` line naming the path, and no output left, not
    even ``sweep``'s CSV when its report path is a directory."""
    if bad == "directory":
        (tmp_path / "bad").mkdir()
    elif bad == "file":
        (tmp_path / "bad").write_text("a file\n", encoding="utf-8")
    if case == "evaluate --out":
        assert run(["classify", "--model", str(workdir / "model.json"),
                    "--data", str(workdir / "fixture" / "data.csv"),
                    "--out", str(tmp_path / "pred.csv")]) == 0
        capsys.readouterr()
    argv = _file_error_argv(workdir, tmp_path, case)
    path = tmp_path / ("no-such-dir/out" if bad is None else "bad")
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message} {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists() and list(tmp_path.glob("**/.*.tmp")) == []
