"""JSON documents: pinned bytes, round trips, and malformed documents.

Every document the package writes is its dataclasses' fields
(``asdict``) and reads back through ``Spec(**doc)``.  The digests pin
``truth.json`` and ``data.csv`` for each fixture config, one trained
model file, and that model's classification file, sweep rows and sweep
CSV on its own training data, and both baseline files on that data, byte
for byte.
"""

import hashlib
import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from rarebayes import ConfigError, TrainingError, dataio, generate, parse_schema, train
from rarebayes.cli import run
from rarebayes.structure import NetworkModel
from rarebayes.synthgen import (
    GenConfig,
    GroupSpec,
    NoiseSpec,
    config_from_doc,
    config_to_doc,
    load_config,
    load_truth,
)

from fixture_configs import (
    big_config,
    gen_configs,
    indep_config,
    messy_config,
    recovery_config,
)

README = Path(__file__).resolve().parents[1] / "README.md"

TRUTH_SHA256 = {
    recovery_config: "178a4ede65eee8d580f1ac1da61b5ff56a77317e4583425e9a08a8a0bea28151",
    indep_config: "c2c547091d1b490120efb158c2b2bc76de312c56584bbcea4f5ec18867fe2dda",
    messy_config: "38e6aa95e443bf0210ed211cfd50df5572738661c7b468e7d30e1106bf69a6f5",
    big_config: "b8a98fa502fd3ae0929edf580e2b0debf72bb303e25122f3333f81eea22ebba5",
}
DATA_SHA256 = {
    recovery_config: "ad9cdf2d68de227393544acf336ea747a660cc92f671ce0703bffe05014e9dbc",
    indep_config: "a762844aa5b7df3183d3526d38cab664eef43a6b7d3807eea5fcbdcdc001c21d",
    messy_config: "9f2d3e21864efde4df63cb4168fb5a8bbf90af63e28529dcddf3f5c5761c3b4a",
    big_config: "b25e763df1b26c5d395c1c99a776f5f20b13e7e323e089ac8663023a7650fde0",
}
# messy_config at n = 10,000 spans three of write_rows' 4,096-row blocks.
BLOCKS_DATA_SHA256 = "dac536088dd9b560137b879ed5ef2b7ad177f483eac3fd697bc2f93504498300"
# Also pins the MI scores, which come from numpy's log.
MODEL_SHA256 = "7c72eaaff84dc7fc49d4015bf1cbc00d6771f54312110187e8179da1c5f024e4"
# classify and sweep at their default threshold and grid, with the model above;
# the sweep digest is of the report's rows, since its metadata holds paths.
PRED_SHA256 = "11f8fd66f0747ca220c9ecfbb8c958f951abc02acedc1b06145bac49ec479a30"
SWEEP_ROWS_SHA256 = "d5df7fc58b96a91d9a0d307c52ccfceb0f26e348b40015b7d0357beba78238af"
# sweep --csv, and each baseline kind fitted and scored on the model's
# training data; both kinds leave rows unscored there.
SWEEP_CSV_SHA256 = "8aaa0115619645932f0d2596169f6af84dd814b01b7415f08523e1adfc09a39e"
BASELINE_SHA256 = {
    "quadratic": "c6ae9f05dfff34379f86dae13c027cbd1612e68830cb95dce446b9f09efa3d60",
    "linear": "0c70a134900af966366504c67ee3b539ebe7e951afde916156ca70462ad1e592",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def model_path(tmp_path_factory) -> Path:
    """A trained model with one field-to-field edge (plan -> addon), next to
    its training data in ``fixture/data.csv``."""
    root = tmp_path_factory.mktemp("doc-model")
    fixture = generate(messy_config(n=1500, seed=31), root / "fixture")
    schema = parse_schema(fixture.schema_path.read_text(encoding="utf-8"))
    path = root / "model.json"
    train(schema, fixture.data_path, seed=3).save(path)
    return path


class TestPinnedBytes:
    @pytest.mark.parametrize("config", list(TRUTH_SHA256), ids=lambda f: f.__name__)
    def test_truth_file(self, tmp_path, config):
        assert sha256(generate(config(n=200), tmp_path).truth_path) == TRUTH_SHA256[config]

    @pytest.mark.parametrize("config", list(DATA_SHA256), ids=lambda f: f.__name__)
    def test_data_file(self, tmp_path, config):
        assert sha256(generate(config(n=200), tmp_path).data_path) == DATA_SHA256[config]

    def test_data_file_across_write_blocks(self, tmp_path):
        assert 10_000 > 2 * dataio._WRITE_ROWS
        data_path = generate(messy_config(n=10_000), tmp_path).data_path
        assert sha256(data_path) == BLOCKS_DATA_SHA256

    def test_model_file(self, model_path):
        assert sha256(model_path) == MODEL_SHA256

    def test_prediction_file(self, model_path, tmp_path):
        pred = tmp_path / "pred.csv"
        assert run(["classify", "--model", str(model_path),
                    "--data", str(model_path.parent / "fixture" / "data.csv"),
                    "--out", str(pred)]) == 0
        assert sha256(pred) == PRED_SHA256

    def test_sweep_rows(self, model_path, tmp_path):
        report = tmp_path / "sweep.json"
        assert run(["sweep", "--model", str(model_path),
                    "--data", str(model_path.parent / "fixture" / "data.csv"),
                    "--out", str(report)]) == 0
        rows = json.loads(report.read_text(encoding="utf-8"))["rows"]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SWEEP_ROWS_SHA256

    def test_sweep_csv_file(self, model_path, tmp_path):
        table = tmp_path / "sweep.csv"
        assert run(["sweep", "--model", str(model_path),
                    "--data", str(model_path.parent / "fixture" / "data.csv"),
                    "--out", str(tmp_path / "sweep.json"), "--csv", str(table)]) == 0
        assert sha256(table) == SWEEP_CSV_SHA256

    @pytest.mark.parametrize("kind", list(BASELINE_SHA256))
    def test_baseline_file(self, model_path, tmp_path, kind):
        fixture = model_path.parent / "fixture"
        pred = tmp_path / "baseline.csv"
        assert run(["baseline", "--kind", kind, "--schema", str(fixture / "schema.txt"),
                    "--data", str(fixture / "data.csv"), "--out", str(pred)]) == 0
        assert sha256(pred) == BASELINE_SHA256[kind]


# -- generator configs -------------------------------------------------------


@given(gen_configs())
@settings(max_examples=150, deadline=None)
def test_config_json_round_trip(cfg):
    assert config_from_doc(json.loads(json.dumps(config_to_doc(cfg)))) == cfg


def test_absent_keys_take_the_dataclass_defaults():
    doc = {"n": 5, "noise": [{"name": "z", "mean": 0.0, "sd": 1.0}], "group": {}}
    assert config_from_doc(doc) == GenConfig(
        n=5, noise=(NoiseSpec("z", mean=0.0, sd=1.0),), group=GroupSpec()
    )


@pytest.mark.parametrize("where", ["top", "categorical", "continuous", "dependent",
                                   "noise", "group"])
def test_unknown_key_is_runtime_error(tmp_path, capsys, where):
    cfg = replace(messy_config(n=50), noise=(NoiseSpec("z", mean=0.0, sd=1.0),))
    doc = config_to_doc(cfg)
    target = doc if where == "top" else doc["group"] if where == "group" else doc[where][0]
    target["typo"] = 0.5
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unexpected keyword argument 'typo'" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def readme_block(after: str) -> str:
    """The body of the first fenced block in README.md after the regex ``after``."""
    block = re.search(after + r"\s*```\w*\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block, f"README lost the block after {after!r}"
    return block.group(1)


MINIMAL_CONFIG = r"A\s+minimal `gen\.json`:"


def test_readme_minimal_config_generates(tmp_path, capsys):
    path = tmp_path / "gen.json"
    path.write_text(readme_block(MINIMAL_CONFIG), encoding="utf-8")
    assert run(["gen", "--config", str(path), "--out", str(tmp_path / "fixture")]) == 0
    assert capsys.readouterr().err.startswith("gen: wrote")
    truth = load_truth(tmp_path / "fixture" / "truth.json")
    assert truth.config == load_config(path)


def test_readme_quickstart_and_library_run_as_written(tmp_path, monkeypatch, capsys):
    """In one directory holding the minimal ``gen.json``, every Quickstart
    command, ``rarebayes`` run as ``cli.run``, succeeds and ``train`` prints
    the summary line the README shows; then the Library surface's code runs
    and its case is scored on the fixture's fields, none skipped."""
    monkeypatch.chdir(tmp_path)
    Path("gen.json").write_text(readme_block(MINIMAL_CONFIG), encoding="utf-8")
    quickstart = readme_block("## Quickstart")
    commands = [line for line in re.sub(r"\\\n\s*", "", quickstart).splitlines()
                if line.startswith("rarebayes ")]
    summaries = {}
    for command in commands:
        args = shlex.split(command)[1:]
        assert run(args) == 0, command
        summaries[args[0]] = capsys.readouterr().err
    assert len(summaries) == 6
    assert summaries["train"] == re.search(r"# -> (train: .*)", quickstart).group(1) + "\n"

    exec(compile(readme_block("## Library surface"), "README.md", "exec"), {})
    scored, mi = capsys.readouterr().out.splitlines()
    assert scored.endswith(" []")  # post.skipped
    assert float(mi) > 0


@pytest.mark.parametrize("text, message", [
    ('{"format": "x"}', "unrecognized truth format 'x'"),
    ("[]", "unrecognized truth format None"),
    ("nope", "is not valid JSON"),
    ('{"format": "rarebayes-truth-v1"}', "must be a JSON object, got NoneType"),
    ('{"format": "rarebayes-truth-v1", "config": {"n": 0}}', "n must be an integer >= 1"),
])
def test_malformed_truth_file_is_config_error(tmp_path, text, message):
    path = tmp_path / "truth.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_truth(path)


# -- model files -------------------------------------------------------------


def _drop_class_row(doc):
    doc["cpts"]["hub"]["probs"].pop()


def _one_entry_prior(doc):
    doc["prior"] = [1.0]


def _unknown_var(doc):
    doc["ranked_fields"][0]["var"] = "nosuch"


def _slot_past_window(doc):
    rf = doc["ranked_fields"][0]
    for key in ("parents", "cpts", "fallbacks"):
        doc[key]["hub@1"] = doc[key].pop("hub")
    rf["node"], rf["slot"] = "hub@1", 1


def _unranked_parent(doc):
    doc["parents"]["addon"] = doc["cpts"]["addon"]["parent"] = "hub@0"


def _nodes_disagree(doc):
    del doc["fallbacks"]["plan"]


def _fallback_shape(doc):
    for row in doc["fallbacks"]["addon"]["probs"]:
        row.pop()


def _unseen_shape(doc):
    doc["cpts"]["addon"]["unseen"] = [False, False]


def _wrong_parent(doc):
    doc["fallbacks"]["addon"]["parent"] = "plan"


def _two_parents(doc):
    """``addon`` conditioned on ``plan`` and ``hub``: its one-parent CPT
    repeated along a new ``hub`` axis, parents written as a list."""
    cpt = doc["cpts"]["addon"]
    hub = len(doc["outcomes"]["hub"]["symbols"])
    for key in ("probs", "unseen"):
        cpt[key] = [[[row] * hub for row in by_class] for by_class in cpt[key]]
    doc["parents"]["addon"] = ["plan", "hub"]
    cpt["parent"] = ["plan", "hub"]


def _one_parent_list(doc):
    doc["parents"]["addon"] = doc["cpts"]["addon"]["parent"] = ["plan"]


def _repeated_parent(doc):
    doc["parents"]["addon"] = doc["cpts"]["addon"]["parent"] = ["plan", "plan"]


def _self_parent(doc):
    doc["parents"]["addon"] = doc["cpts"]["addon"]["parent"] = ["plan", "addon"]


def _unranked_listed_parent(doc):
    doc["parents"]["addon"] = doc["cpts"]["addon"]["parent"] = ["plan", "hub@0"]


def _cpt_parents_disagree(doc):
    _two_parents(doc)
    doc["cpts"]["addon"]["parent"] = ["hub", "plan"]


def _fallback_names_parents(doc):
    _two_parents(doc)
    doc["fallbacks"]["addon"]["parent"] = ["plan", "hub"]


def test_two_parent_document_round_trips(model_path):
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    _two_parents(doc)
    model = NetworkModel.from_doc(json.loads(json.dumps(doc)))
    assert model.parents["addon"] == ("plan", "hub")
    assert json.loads(model.to_json_text()) == doc


def _probability_above_one(doc):
    doc["cpts"]["addon"]["probs"][0][0][0] = 1.5


def _nan_probability(doc):
    doc["fallbacks"]["bill"]["probs"][1][0] = float("nan")


def _certain_prior(doc):
    doc["prior"] = [1.0, 0.0]


def _prior_past_one(doc):
    doc["prior"] = [0.5, 0.9]


def _lost_alphabet(doc):
    del doc["outcomes"]["bill"]


def _unknown_ranked_key(doc):
    doc["ranked_fields"][1]["score"] = 0.0


def _unknown_outcomes_key(doc):
    doc["outcomes"]["plan"]["bins"] = None


def _text_edges(doc):
    doc["outcomes"]["bill"]["edges"] = ["a"]


def _integer_symbol(doc):
    doc["outcomes"]["hub"]["symbols"][0] = 3


def _repeated_class_symbol(doc):
    doc["class_symbols"] = ["bad", "bad"]


def _integer_class_symbol(doc):
    doc["class_symbols"][0] = 5


def _nan_edge(doc):
    doc["outcomes"]["bill"] = {"symbols": ["bin0", "bin1", "?"], "edges": [float("nan")]}


def _edges_short_of_symbols(doc):
    doc["outcomes"]["bill"]["edges"] = [1.0]


@pytest.mark.parametrize("corrupt, message", [
    (_drop_class_row, "CPT for node 'hub' does not have shape (2, 4)"),
    (_one_entry_prior, "prior has shape (1,), expected (2,)"),
    (_unknown_var, "ranked node 'hub' is not a schema variable at a valid slot"),
    (_slot_past_window, "ranked node 'hub@1' is not a schema variable at a valid slot"),
    (_unranked_parent, "parent 'hub@0' of node 'addon' is not a ranked node"),
    (_nodes_disagree, "must cover exactly the ranked nodes"),
    (_fallback_shape, "fallback for node 'addon' does not have shape (2, 3)"),
    (_unseen_shape, "CPT for node 'addon' does not have shape (2, 3, 3)"),
    (_wrong_parent, "fallback for node 'addon' names the wrong parent"),
    (_one_parent_list, "parents of node 'addon' must be null, a name, or a list of two or more"),
    (_repeated_parent, "node 'addon' names itself or one node twice as a parent"),
    (_self_parent, "node 'addon' names itself or one node twice as a parent"),
    (_unranked_listed_parent, "parent 'hub@0' of node 'addon' is not a ranked node"),
    (_cpt_parents_disagree, "CPT for node 'addon' names the wrong parent"),
    (_fallback_names_parents, "fallback for node 'addon' names the wrong parent"),
    (_probability_above_one, "finite and lie in [0, 1]"),
    (_nan_probability, "finite and lie in [0, 1]"),
    (_certain_prior, "prior entries must lie strictly inside (0, 1) and sum to 1"),
    (_prior_past_one, "prior entries must lie strictly inside (0, 1) and sum to 1"),
    (_lost_alphabet, "alphabets do not match the schema"),
    (_unknown_ranked_key, "unexpected keyword argument 'score'"),
    (_unknown_outcomes_key, "unexpected keyword argument 'bins'"),
    (_text_edges, "variable 'bill' needs numeric, non-NaN bin edges"),
    (_integer_symbol, "model outcome symbols must be strings"),
    (_repeated_class_symbol, "class symbols ['bad', 'bad'] are not distinct"),
    (_integer_class_symbol, "model outcome symbols must be strings"),
    (_nan_edge, "variable 'bill' needs numeric, non-NaN bin edges, two fewer than its 3"),
    (_edges_short_of_symbols, "two fewer than its 17 symbols"),
])
def test_malformed_model_is_training_error(model_path, corrupt, message):
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    NetworkModel.from_doc(json.loads(json.dumps(doc)))  # the intact document loads
    corrupt(doc)
    with pytest.raises(TrainingError, match=re.escape(message)):
        NetworkModel.from_doc(doc)
