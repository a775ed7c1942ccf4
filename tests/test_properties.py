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
import json
import random
import shutil
import tempfile
from contextlib import redirect_stderr
from dataclasses import replace
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, assume, example, given, settings
from hypothesis import strategies as st

from rarebayes import classify_file, dataio, generate, parse_schema, train
from rarebayes.cli import run
from rarebayes.outcomes import RESERVOIR_CAPACITY
from rarebayes.schema import format_schema
from rarebayes.synthgen import CategoricalSpec, GenConfig, GroupSpec, NoiseSpec, config_to_doc

from fixture_configs import (
    gen_configs, indep_config, messy_config, number_paths, recovery_config,
)


# Every phase but shrinking, for the relations that generate and train whole
# files per example: shrinking one of their failures takes minutes and ends
# at a file no smaller than a pinned one, so a failure is reported as drawn.
# The pinned examples, the database replay and generation all still run.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


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


def assert_same_bytes(root: Path, cfg, schema, variants: dict, seed: int) -> None:
    """Each of ``variants`` (name -> rows) of the file ``cfg`` generates in
    ``root / "fixture"`` trains under ``schema`` to the generated file's model
    bytes, and a held-out file with its columns reversed classifies to the
    same prediction bytes."""
    model = train(schema, root / "fixture" / "data.csv", seed=seed)
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


@given(cfg=gen_configs(sizes=st.integers(20, 1500)), data=st.data())
@settings(max_examples=40, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.too_slow])
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
    assert_same_bytes(root, cfg, schema, variants, data.draw(st.integers(0, 2**31)))


def with_third_class(rows: list[list[str]], col: int, label: str,
                     rng: random.Random) -> list[str]:
    """Relabel a seeded share of the rows of class ``label`` (column ``col``)
    to ``third``, in place; return the sorted classes of the body."""
    share = rng.uniform(0.2, 0.8)
    for row in rows[1:]:
        if row[col] == label and rng.random() < share:
            row[col] = "third"
    return sorted({row[col] for row in rows[1:]})


# Two categoricals that are always MISSING and a mostly MISSING noise field:
# 1,024 rows on which first-seen class codes in pass 1 move an entropy edge.
THREE_CLASS_EXAMPLE = GenConfig(
    n=1024, seed=0, class_var="class", class_labels=("good", "bad"), positive_rate=0.5,
    categorical=tuple(CategoricalSpec(name, ("o0",), {"good": (1.0,), "bad": (1.0,)}, 1.0)
                      for name in ("v0", "v1")),
    noise=(NoiseSpec("v2", mean=0.0, sd=1.0, missing_rate=0.75),))


@given(cfg=gen_configs(sizes=st.integers(20, 1500)), rate=st.floats(0.2, 0.8),
       source=st.integers(0, 1), shuffle=st.integers(0, 2**32), seed=st.integers(0, 2**31))
@example(cfg=THREE_CLASS_EXAMPLE, rate=0.78515625, source=1, shuffle=8188447, seed=0)
@settings(max_examples=150, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.too_slow])
def test_three_class_row_order_changes_no_output_byte(tmp_path_factory, cfg, rate, source,
                                                      shuffle, seed):
    """The order relation above on three classes: a seeded share of one
    class's rows is relabelled to a third class, and the file trains to the
    same model bytes with each class's row on top in turn and with its
    columns reversed.  With three classes the order of an entropy sum can
    reach the bin edges' bits, so first-seen class codes would show."""
    assert cfg.n < RESERVOIR_CAPACITY
    cfg = replace(cfg, group=None, positive_rate=rate)
    root = tmp_path_factory.mktemp("metamorphic-three")
    result = generate(cfg, root / "fixture")
    schema = parse_schema(result.schema_path.read_text(encoding="utf-8"))
    rows = read_csv(result.data_path)
    col = rows[0].index(cfg.class_var)
    rng = random.Random(shuffle)
    classes = with_third_class(rows, col, cfg.class_labels[source], rng)
    assume(len(classes) == 3)
    write_csv(result.data_path, rows)
    variants = {f"{label} on top": with_first(rows, col, label, rng) for label in classes}
    variants["columns reversed"] = [row[::-1] for row in rows]
    assert_same_bytes(root, cfg, schema, variants, seed)


def with_groups_shuffled(rows: list[list[str]], col: int, rng: random.Random):
    """``rows``, header first, with the body's groups (runs of one key in
    column ``col``) shuffled whole, each group's rows kept in order."""
    groups = [list(run) for _, run in groupby(rows[1:], key=itemgetter(col))]
    rng.shuffle(groups)
    return [rows[0], *chain.from_iterable(groups)]


@given(cfg=gen_configs(sizes=st.integers(20, 1500)), window=st.integers(2, 3),
       group=st.builds(GroupSpec, st.sampled_from(["grp", "acct"]), st.integers(1, 50)),
       data=st.data())
@settings(max_examples=40, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.too_slow])
def test_group_and_column_order_change_no_output_byte(tmp_path_factory, cfg, window, group,
                                                      data):
    """Below the reservoir's capacity, a grouped file trains under ``window``
    2-3 to the same model bytes as generated, with its groups shuffled whole,
    each group's rows kept in order, and with its columns reversed; and a
    column-reversed held-out file classifies to the same prediction bytes."""
    assert cfg.n < RESERVOIR_CAPACITY
    cfg = replace(cfg, group=group, positive_rate=data.draw(st.floats(0.2, 0.8)))
    root = tmp_path_factory.mktemp("metamorphic-grouped")
    result = generate(cfg, root / "fixture")
    schema = replace(parse_schema(result.schema_path.read_text(encoding="utf-8")),
                     window=window)
    rows = read_csv(result.data_path)
    col = rows[0].index(cfg.class_var)
    assume(len({row[col] for row in rows[1:]}) == 2)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    variants = {
        "groups shuffled": with_groups_shuffled(rows, rows[0].index(group.name), rng),
        "columns reversed": [row[::-1] for row in rows],
    }
    assert_same_bytes(root, cfg, schema, variants, data.draw(st.integers(0, 2**31)))


@given(cfg=gen_configs(sizes=st.integers(20, 1500)), window=st.integers(2, 3),
       group=st.builds(GroupSpec, st.sampled_from(["grp", "acct"]), st.integers(1, 50)),
       rate=st.floats(0.2, 0.8), source=st.integers(0, 1), shuffle=st.integers(0, 2**32),
       seed=st.integers(0, 2**31))
@example(cfg=THREE_CLASS_EXAMPLE, window=3, group=GroupSpec("grp", 8), rate=0.38671875,
         source=0, shuffle=6, seed=0)
@settings(max_examples=150, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.too_slow])
def test_three_class_group_order_changes_no_output_byte(tmp_path_factory, cfg, window, group,
                                                        rate, source, shuffle, seed):
    """The grouped relation above on three classes: a seeded share of one
    class's rows is relabelled to a third class, and the file trains under
    ``window`` 2-3 to the same model bytes with its groups shuffled whole
    and with its columns reversed."""
    assert cfg.n < RESERVOIR_CAPACITY
    cfg = replace(cfg, group=group, positive_rate=rate)
    root = tmp_path_factory.mktemp("metamorphic-grouped-three")
    result = generate(cfg, root / "fixture")
    schema = replace(parse_schema(result.schema_path.read_text(encoding="utf-8")),
                     window=window)
    rows = read_csv(result.data_path)
    col = rows[0].index(cfg.class_var)
    rng = random.Random(shuffle)
    assume(len(with_third_class(rows, col, cfg.class_labels[source], rng)) == 3)
    write_csv(result.data_path, rows)
    variants = {
        "groups shuffled": with_groups_shuffled(rows, rows[0].index(group.name), rng),
        "columns reversed": [row[::-1] for row in rows],
    }
    assert_same_bytes(root, cfg, schema, variants, seed)


def cli_model(root: Path, schema_text: str, rows: list[list[str]]) -> dict:
    """The model document ``train`` writes in a new directory ``root`` for
    ``rows`` under ``schema_text``."""
    root.mkdir()
    (root / "schema.txt").write_text(schema_text, encoding="utf-8")
    write_csv(root / "data.csv", rows)
    assert run(["train", "--schema", str(root / "schema.txt"), "--data",
                str(root / "data.csv"), "--out", str(root / "model.json")]) == 0
    return json.loads((root / "model.json").read_text(encoding="utf-8"))


def selection(doc: dict) -> tuple[list, dict]:
    """The ranked nodes and the parent map: the selection, not its MI floats."""
    return [rf["node"] for rf in doc["ranked_fields"]], doc["parents"]


UNGROUPED = [replace(messy_config(n=3000), group=None), indep_config(n=4000, seed=3)]


@pytest.mark.parametrize("cfg", UNGROUPED, ids=["messy", "indep"])
def test_every_row_twice_keeps_the_selection_and_bins(tmp_path, cfg):
    """Writing every row of an ungrouped ``window 1`` file twice, within the
    reservoir's capacity, keeps the ranked fields, the parents and every
    bin edge; the MI floats may differ."""
    assert 2 * cfg.n < RESERVOIR_CAPACITY
    result = generate(cfg, tmp_path / "fixture")
    schema_text = result.schema_path.read_text(encoding="utf-8")
    rows = read_csv(result.data_path)
    once = cli_model(tmp_path / "once", schema_text, rows)
    twice = cli_model(tmp_path / "twice", schema_text, [*rows, *rows[1:]])
    assert selection(twice) == selection(once)
    assert twice["outcomes"] == once["outcomes"]


@pytest.mark.parametrize("cfg", UNGROUPED, ids=["messy", "indep"])
def test_constant_column_keeps_the_selection_and_cpts(tmp_path, cfg):
    """A categorical column holding one value throughout tells nothing of
    the class: the ranked fields, the parents and every CPT stay."""
    result = generate(cfg, tmp_path / "fixture")
    schema_text = result.schema_path.read_text(encoding="utf-8")
    rows = read_csv(result.data_path)
    plain = cli_model(tmp_path / "plain", schema_text, rows)
    constant = cli_model(tmp_path / "constant", schema_text + "var constant categorical\n",
                         [[*rows[0], "constant"], *([*row, "k"] for row in rows[1:])])
    assert selection(constant) == selection(plain)
    assert constant["cpts"] == plain["cpts"] and constant["fallbacks"] == plain["fallbacks"]


# the reader's sizes as the program sets them
DEFAULT_SIZES = {"chunk_rows": dataio._CHUNK_ROWS, "block_bytes": dataio._BLOCK_BYTES,
                 "csv_rows": dataio._CSV_ROWS}


def quote_first_field(text: str, line: int) -> str:
    """``text`` with the first field of line ``line`` quoted, which keeps its
    value but sends the reader to ``csv.reader`` from that line on."""
    lines = text.split("\r\n")
    first, comma, rest = lines[line].partition(",")
    if not first.startswith('"'):
        lines[line] = f'"{first}"{comma}{rest}'
    return "\r\n".join(lines)


def command_results(root: Path, cfg) -> list[tuple[int, str, list]]:
    """Each command's exit code, stderr and output bytes (None for an output
    it did not write) on ``root``'s ``schema.txt`` and ``data.csv``, each
    output written anew under ``root / "out"``."""
    files = {name: str(root / name) for name in ("schema.txt", "data.csv")}
    out = root / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    o = {name: str(out / name) for name in ("model.json", "pred.csv", "report.json",
                                            "sweep.json", "sweep.csv", "baseline.csv")}
    commands = [
        ["train", "--schema", files["schema.txt"], "--out", o["model.json"]],
        ["classify", "--model", o["model.json"], "--out", o["pred.csv"]],
        ["evaluate", "--pred", o["pred.csv"], "--positive", cfg.class_labels[1],
         "--class-var", cfg.class_var, "--out", o["report.json"]],
        ["sweep", "--model", o["model.json"], "--out", o["sweep.json"], "--csv", o["sweep.csv"]],
        ["baseline", "--kind", "quadratic", "--schema", files["schema.txt"],
         "--out", o["baseline.csv"]],
    ]
    results = []
    for argv in commands:
        with redirect_stderr(io.StringIO()) as err:
            code = run(argv + ["--data", files["data.csv"]])
        written = [Path(o[name]) for name in o if o[name] in argv]
        results.append((code, err.getvalue(),
                        [p.read_bytes() if p.exists() else None for p in written]))
    return results


@given(cfg=gen_configs(sizes=st.integers(40, 300)), rate=st.floats(0.2, 0.8),
       group=st.integers(0, 12), window=st.integers(2, 3),
       small=st.fixed_dictionaries({"chunk_rows": st.integers(1, 40),
                                    "block_bytes": st.integers(1, 300),
                                    "csv_rows": st.integers(1, 5)}),
       quoted=st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
def test_reader_sizes_change_no_output_byte(tmp_path_factory, sizes, cfg, rate, group, window,
                                            small, quoted):
    """``train``, ``classify``, ``evaluate``, ``sweep --csv`` and ``baseline
    --kind quadratic`` give the same exit code, stderr and output bytes at
    the default chunk, block and ``csv.reader`` sizes and at small ones, on
    a file with one field quoted, so ``csv.reader`` reads its rest.  A
    config grouped ``group`` records at a time (0: none) is trained with
    ``window`` 2 or 3.  Each example sets every size it runs with, so the
    function-scoped ``sizes`` fixture carries nothing from one example to
    the next."""
    # most files train, and the baseline has a feature
    cfg = replace(cfg, positive_rate=rate, group=GroupSpec("grp", group) if group else None,
                  noise=(*cfg.noise, NoiseSpec("z", mean=0.0, sd=1.0, missing_rate=0.1)))
    root = tmp_path_factory.mktemp("sizes")
    result = generate(cfg, root / "fixture")
    schema = parse_schema(result.schema_path.read_text(encoding="utf-8"))
    if cfg.group is not None:
        schema = replace(schema, window=window)
    (root / "schema.txt").write_text(format_schema(schema), encoding="utf-8")
    text = quote_first_field(result.data_path.read_bytes().decode(), 1 + int(quoted * (cfg.n - 1)))
    (root / "data.csv").write_bytes(text.encode())
    sizes(**DEFAULT_SIZES)
    expected = command_results(root, cfg)
    sizes(**small)
    assert command_results(root, cfg) == expected


@given(cfg=gen_configs(sizes=st.integers(40, 300)), rate=st.floats(0.2, 0.8),
       block_bytes=st.integers(1, 300), blanks=st.lists(st.integers(0, 300), max_size=8))
@settings(max_examples=40, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
def test_line_ends_change_no_output_byte(tmp_path_factory, sizes, cfg, rate, block_bytes,
                                         blanks):
    r"""``train``, ``classify``, ``evaluate``, ``sweep --csv`` and ``baseline
    --kind quadratic`` give the same exit code, stderr and output bytes on a
    generated file (``\r\n`` line ends) and on its ``\n`` and lone-``\r``
    copies, at the default block size and at one of 1-300 bytes, at which
    ``\r\n`` pairs straddle reads.  At that size each line end also has a
    copy with blank lines, which ``csv`` skips, after drawn rows and two at
    the end of the file."""
    cfg = replace(cfg, positive_rate=rate,
                  noise=(*cfg.noise, NoiseSpec("z", mean=0.0, sd=1.0, missing_rate=0.1)))
    root = tmp_path_factory.mktemp("line-ends")
    result = generate(cfg, root / "fixture")
    shutil.copy(result.schema_path, root / "schema.txt")
    original = result.data_path.read_bytes()
    (root / "data.csv").write_bytes(original)
    sizes(**DEFAULT_SIZES)
    expected = command_results(root, cfg)
    lines = original.split(b"\r\n")  # the header, the rows and the empty rest
    for at in blanks:
        lines.insert(1 + at % cfg.n, b"")
    blank = b"\r\n".join(lines) + b"\r\n\r\n"
    copies = [(DEFAULT_SIZES["block_bytes"], end, original) for end in (b"\n", b"\r")]
    copies += [(block_bytes, end, body) for body in (original, blank)
               for end in (b"\r\n", b"\n", b"\r")]
    for size, end, body in copies:
        sizes(block_bytes=size)
        (root / "data.csv").write_bytes(body.replace(b"\r\n", end))
        assert command_results(root, cfg) == expected, (size, end, body is blank)


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
    """A small generated data file, its schema, a model trained on it and
    that model's prediction file."""
    root = tmp_path_factory.mktemp("hostile")
    result = generate(indep_config(n=60, seed=11), root / "fixture")
    model = train(parse_schema(result.schema_path.read_text(encoding="utf-8")), result.data_path)
    model.save(root / "model.json")
    classify_file(model, result.data_path, root / "pred.csv", threshold=0.5)
    return {"schema": result.schema_path, "data": result.data_path,
            "model": root / "model.json", "pred": root / "pred.csv"}


# (command, the input file that is mutated)
TARGETS = [("train", "data"), ("evaluate", "pred"), ("evaluate", "data"),
           ("baseline", "data"), ("baseline", "schema"), ("classify", "data"),
           ("classify", "model"), ("sweep", "data"), ("sweep", "model")]


def exit_cleanly(argv: list[str]) -> int:
    """Run ``argv`` through ``cli.run`` and check it exits 0, 1 or 2 with no
    traceback, an exit of 1 printing exactly one ``error:`` line, under
    2,000 bytes; return the exit code."""
    with redirect_stderr(io.StringIO()) as err:
        code = run(argv)  # an exception here is a traceback at the command line
    text = err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in text
    if code == 1:
        assert text.startswith("error:") and text.count("\n") == 1, text
        assert len(text.encode()) < 2000, text[:200]
    return code


@given(data=st.data())
@settings(max_examples=1800, deadline=None)
def test_mutated_files_exit_cleanly(valid_files, data):
    """``train``, ``evaluate``, ``baseline``, ``classify`` and ``sweep`` on a
    mutated input file exit 0, 1 or 2 and never raise; an exit of 1 prints
    exactly one ``error:`` line, under 2,000 bytes."""
    command, target = data.draw(st.sampled_from(TARGETS))
    with tempfile.TemporaryDirectory() as tmp:
        files = dict(valid_files)
        files[target] = Path(tmp) / valid_files[target].name
        files[target].write_bytes(data.draw(mutations(valid_files[target].read_bytes())))
        out = str(Path(tmp) / "out")
        argv = {
            "train": ["train", "--schema", str(files["schema"])],
            "evaluate": ["evaluate", "--pred", str(files["pred"]), "--positive", "bad"],
            "baseline": ["baseline", "--kind", "quadratic", "--schema", str(files["schema"])],
            "classify": ["classify", "--model", str(files["model"])],
            "sweep": ["sweep", "--model", str(files["model"])],
        }[command] + ["--data", str(files["data"]), "--out", out]
        exit_cleanly(argv)


# Hostile numbers, as a flag value and as JSON text: NaN, the infinities, a
# negative, an empty value, a float past float64 and an integer past int64.
HOSTILE_NUMBERS = ["nan", "inf", "-inf", "-1", "", "1e400", str(10**30)]
HOSTILE_JSON = ["NaN", "Infinity", "-Infinity", "-1", '""', "1e400", str(10**30)]

# (target, argv before ``--data``) with the hostile value in place of "{}"
FLAG_TARGETS = {
    "train --seed": ["train", "--schema", "{schema}", "--seed={}"],
    "classify --threshold": ["classify", "--model", "{model}", "--threshold={}"],
    "evaluate --threshold": ["evaluate", "--pred", "{pred}", "--positive", "bad",
                             "--threshold={}"],
    "baseline --ridge": ["baseline", "--kind", "quadratic", "--schema", "{schema}",
                         "--ridge={}"],
    "sweep --grid start": ["sweep", "--model", "{model}", "--grid={}:0.9:0.05"],
    "sweep --grid stop": ["sweep", "--model", "{model}", "--grid=0.1:{}:0.05"],
    "sweep --grid step": ["sweep", "--model", "{model}", "--grid=0.1:0.9:{}"],
}


@pytest.mark.parametrize("target", FLAG_TARGETS)
def test_hostile_flag_values_exit_cleanly(valid_files, tmp_path, target):
    """Every numeric flag given each hostile number exits 0, 1 or 2, with no
    traceback and one ``error:`` line on an exit of 1."""
    files = {name: str(path) for name, path in valid_files.items()}
    for value in HOSTILE_NUMBERS:
        argv = [arg.replace("{}", value).format(**files) for arg in FLAG_TARGETS[target]]
        exit_cleanly(argv + ["--data", files["data"], "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("cfg", [messy_config(n=30), recovery_config(n=30)],
                         ids=["messy", "recovery"])
def test_hostile_gen_config_numbers_exit_cleanly(tmp_path, cfg):
    """Each number of a valid gen config, one at a time, made each hostile
    number: gen exits 0, 1 or 2, with no traceback and one ``error:`` line
    on an exit of 1."""
    text = json.dumps(config_to_doc(cfg))
    for i, path in enumerate(number_paths(json.loads(text))):
        for j, value in enumerate(HOSTILE_JSON):
            doc = json.loads(text)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = "@hostile@"
            config = tmp_path / f"gen-{i}-{j}.json"
            config.write_text(json.dumps(doc).replace('"@hostile@"', value), encoding="utf-8")
            exit_cleanly(["gen", "--config", str(config), "--out", str(tmp_path / f"out-{i}-{j}")])
