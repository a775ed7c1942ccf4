import bisect
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rarebayes import (
    MIScore,
    ModelSizeError,
    TrainingError,
    classify_file,
    default_grid,
    estimate_cpts,
    generate,
    load_model,
    parse_schema,
    select_dependencies,
    train,
)
from rarebayes.baselines import fit_from_csv, score_to_csv
from rarebayes.cli import run
from rarebayes.dataio import MISSING, CsvDataset
from rarebayes.inference import count_scores, iter_scored
from rarebayes.outcomes import OutcomeTable, VariableOutcomes, collect_outcomes
from rarebayes import structure
from rarebayes.structure import Encoder, _count_pass
from rarebayes.synthgen import CategoricalSpec, ContinuousSpec, GenConfig, GroupSpec
from rarebayes.windows import node_id, node_order, node_var_slot

from fixture_configs import gen_configs
from window_oracle import window_expand


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


TWO_CAT = parse_schema("class y\nvar a categorical\nvar b categorical\nt_prime 1.0\n")


def small_csv(tmp_path, n=400, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["y,a,b"]
    for _ in range(n):
        bad = rng.random() < 0.2
        a = "a1" if rng.random() < (0.8 if bad else 0.3) else "a0"
        b = "b1" if rng.random() < (0.6 if bad else 0.4) else "b0"
        lines.append(f"{'bad' if bad else 'good'},{a},{b}")
    return write(tmp_path, "\n".join(lines) + "\n")


class TestTrain:
    def test_exactly_four_passes(self, tmp_path):
        ds = CsvDataset(small_csv(tmp_path))
        train(TWO_CAT, ds)
        assert ds.stats.passes == 4

    def test_four_passes_even_with_zero_parent_budget(self, tmp_path):
        ds = CsvDataset(small_csv(tmp_path))
        train(replace(TWO_CAT, max_parents=0), ds)
        assert ds.stats.passes == 4

    def test_ranking_non_increasing(self, recovery_model):
        mis = [rf.mi for rf in recovery_model.ranked_fields]
        assert all(x >= y for x, y in zip(mis, mis[1:]))

    def test_informative_fields_selected_noise_excluded(self, recovery_model):
        selected = {rf.node for rf in recovery_model.ranked_fields}
        assert selected == {"f1", "f2", "f3", "f4", "dep_parent", "dep_child"}

    def test_planted_edge_recovered(self, recovery_model):
        assert recovery_model.parents["dep_child"] == ("dep_parent",)

    def test_every_accepted_edge_is_kept(self, recovery_bundle):
        """With room for three parents, each node keeps every parent
        select_dependencies accepted for it, in accepted order."""
        accepted = []
        real_select = structure.select_dependencies

        def recording_select(*args):
            accepted.extend(real_select(*args))
            return accepted

        schema = replace(recovery_bundle.schema, max_parents=3, t_field=1.0)
        with mock.patch.object(structure, "select_dependencies", recording_select):
            model = train(schema, recovery_bundle.dataset(), seed=1)
        assert len(accepted) == 12
        assert model.parents == {
            node: tuple(p for p, child in accepted if child == node) for node in model.parents
        }
        assert model.parents["dep_child"][0] == "dep_parent"

    def test_t_prime_zero_keeps_single_best_field(self, tmp_path):
        ds = CsvDataset(small_csv(tmp_path))
        model = train(replace(TWO_CAT, t_prime=0.0), ds)
        assert len(model.ranked_fields) == 1
        assert model.ranked_fields[0].node == "a"

    def test_constant_class_rejected(self, tmp_path):
        path = write(tmp_path, "y,a,b\ng,1,2\ng,3,4\ng,5,6\n")
        with pytest.raises(TrainingError, match="class"):
            train(TWO_CAT, CsvDataset(path))

    def test_cpt_rows_normalized_or_unseen(self, messy_model):
        for table in list(messy_model.cpts.values()) + list(messy_model.fallbacks.values()):
            sums = table.probs.sum(axis=-1)
            ok = np.abs(sums - 1.0) <= 1e-9
            assert np.all(ok | table.unseen)

    def test_training_is_deterministic(self, tmp_path):
        path = small_csv(tmp_path)
        m1 = train(TWO_CAT, CsvDataset(path), seed=11)
        m2 = train(TWO_CAT, CsvDataset(path), seed=11)
        assert m1.to_json_text() == m2.to_json_text()

    def test_model_size_guard_names_pair(self, tmp_path):
        ds = CsvDataset(small_csv(tmp_path))
        # 12 admits pass 2's 2 x (3 + 3) cells but not the 2 x 3 x 3 pair table
        with pytest.raises(ModelSizeError, match=r"\(a, b\)|\(b, a\)"):
            train(replace(TWO_CAT, max_model_cells=12), ds)

    def test_unlabeled_rows_excluded_from_counts_but_visited(self, tmp_path):
        path = write(
            tmp_path,
            "y,a,b\nbad,a1,b1\ngood,a0,b0\n?,a1,b1\ngood,a0,b1\nbad,a1,b0\n"
            "good,a0,b0\n?,a0,b0\ngood,a1,b0\n",
        )
        ds = CsvDataset(path)
        model = train(TWO_CAT, ds)
        assert ds.stats.rows == 8          # unlabeled rows still count as read
        assert model.prior.tolist() == [2 / 6, 4 / 6]  # but not as evidence

    def test_prior_is_empirical_class_frequency(self, tmp_path):
        path = small_csv(tmp_path)
        model = train(TWO_CAT, CsvDataset(path))
        counts = Counter(
            line.split(",")[0] for line in path.read_text().splitlines()[1:]
        )
        total = sum(counts.values())
        for sym, p in zip(model.class_symbols, model.prior):
            assert p == counts[sym] / total


THREE_CAT = parse_schema(
    "class y\nvar a categorical\nvar b categorical\nvar c categorical\n"
    "t_prime 1.0\nmax_parents 1\n"
)


def three_csv(tmp_path, n=400, seed=1):
    rng = np.random.default_rng(seed)
    lines = ["y,a,b,c"]
    for _ in range(n):
        bad = rng.random() < 0.25
        a = "a1" if rng.random() < (0.7 if bad else 0.3) else "a0"
        b = "b1" if rng.random() < (0.8 if a == "a1" else 0.35) else "b0"
        c = "c1" if rng.random() < (0.6 if bad else 0.45) else "c0"
        lines.append(f"{'bad' if bad else 'good'},{a},{b},{c}")
    return write(tmp_path, "\n".join(lines) + "\n")


def budget_totals(model):
    """Cells the budget counts before pass 3 (pair tables) and pass 4
    (fallback tables plus CPTs with field parents; not the class vector)."""
    k = len(model.class_symbols)
    size = {rf.node: len(model.outcomes.symbols(rf.var)) for rf in model.ranked_fields}
    nodes = [rf.node for rf in model.ranked_fields]
    pair_cells = sum(k * size[a] * size[b] for i, a in enumerate(nodes) for b in nodes[i + 1:])
    cpt_cells = sum(k * size[n] for n in nodes) + sum(
        k * math.prod(size[p] for p in ps) * size[n] for n, ps in model.parents.items() if ps
    )
    return pair_cells, cpt_cells


class TestModelSizeBudget:
    def test_pass2_budget_boundary(self, tmp_path):
        path = small_csv(tmp_path)
        pass2_cells = 2 * (3 + 3)  # classes x (a0, a1, MISSING) + (b0, b1, MISSING)
        ds = CsvDataset(path)
        with pytest.raises(ModelSizeError, match=r"\(a, b\)"):  # past pass 2
            train(replace(TWO_CAT, max_model_cells=pass2_cells), ds)
        assert ds.stats.passes == 2
        ds = CsvDataset(path)
        with pytest.raises(ModelSizeError, match=rf"pass-2 .*window 1 .*={pass2_cells - 1}"):
            train(replace(TWO_CAT, max_model_cells=pass2_cells - 1), ds)
        assert ds.stats.passes == 1

    def test_huge_window_fails_before_naming_nodes(self, tmp_path):
        # window x fields nodes would not fit in memory; the budget is
        # arithmetic on the alphabet sizes, so training fails after pass 1
        ds = CsvDataset(small_csv(tmp_path, n=20))
        tracemalloc.start()
        try:
            with pytest.raises(ModelSizeError, match="window 1000000000 .*max_model_cells"):
                train(replace(TWO_CAT, window=1_000_000_000), ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.stats.passes == 1
        assert peak < 16 * 2**20

    def test_pass3_budget_boundary(self, tmp_path):
        path = three_csv(tmp_path)
        model = train(THREE_CAT, CsvDataset(path))
        pair_cells, cpt_cells = budget_totals(model)
        assert pair_cells == 3 * 2 * 3 * 3
        assert cpt_cells <= pair_cells     # so the pass-3 limit also admits pass 4
        ds = CsvDataset(path)
        train(replace(THREE_CAT, max_model_cells=pair_cells), ds)
        assert ds.stats.passes == 4
        ds = CsvDataset(path)
        last = tuple(rf.node for rf in model.ranked_fields[-2:])
        with pytest.raises(ModelSizeError, match=rf"\({last[0]}, {last[1]}\).*={pair_cells - 1}"):
            train(replace(THREE_CAT, max_model_cells=pair_cells - 1), ds)
        assert ds.stats.passes == 2

    def test_pass4_budget_boundary(self, tmp_path):
        path = small_csv(tmp_path)
        model = train(TWO_CAT, CsvDataset(path))
        child = [n for n, ps in model.parents.items() if ps]
        assert len(child) == 1
        pair_cells, cpt_cells = budget_totals(model)
        assert (pair_cells, cpt_cells) == (18, 2 * 3 + 2 * 3 + 18)
        ds = CsvDataset(path)
        train(replace(TWO_CAT, max_model_cells=cpt_cells), ds)
        assert ds.stats.passes == 4
        ds = CsvDataset(path)
        with pytest.raises(ModelSizeError, match=rf"node '{child[0]}'.*={cpt_cells - 1}"):
            train(replace(TWO_CAT, max_model_cells=cpt_cells - 1), ds)
        assert ds.stats.passes == 3


def wide_config(group=None):
    """20,000 rows of 10 categorical and 10 continuous variables, 2 % missing."""
    return GenConfig(
        n=20_000, seed=7,
        categorical=tuple(
            CategoricalSpec(f"c{i}", ("x", "y", "z"),
                            {"good": (0.5, 0.3, 0.2), "bad": (0.2, 0.3, 0.5)},
                            missing_rate=0.02)
            for i in range(10)),
        continuous=tuple(
            ContinuousSpec(f"v{i}", {"good": 0.0, "bad": 1.0},
                           {"good": 1.0, "bad": 1.0}, missing_rate=0.02)
            for i in range(10)),
        group=group,
    )


def wide_csv(tmp_path, group=None):
    config = wide_config(group)
    return config.to_schema(), generate(config, tmp_path / "wide").data_path


def traced_peak(fn, *args):
    """``fn(*args)`` and its ``tracemalloc`` peak in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_pass_working_set(tmp_path):
    """A pass keeps decoded columns, not a chunk of ``str`` cells: on this
    2.4 MB file pass 1 peaks at about 3.7 MiB and pass 2, on one-byte
    codes, at about 2 MiB, where holding the chunk's raw cells took 20
    and 19 MiB.  Pass 1 took 6.3 MiB while it kept ``int64`` reservoir
    labels and held its last chunk through binning."""
    schema, path = wide_csv(tmp_path)
    ds = CsvDataset(path)
    outcomes, pass1 = traced_peak(collect_outcomes, schema, ds)
    tables = [("class", node_id(v.name, 0)) for v in schema.field_vars]
    _, pass2 = traced_peak(_count_pass, ds, Encoder(schema, outcomes), tables)
    assert ds.stats.passes == 2
    assert pass1 < 5 * 2**20
    assert pass2 < 12 * 2**20


def test_window_pass_working_set(tmp_path):
    """Pass 2 of a ``window 3`` schema over 8-record groups counts 60
    candidate nodes from one-byte codes: about 4 MiB on the file above,
    where ``int64`` codes, lag columns and carries, with the decoded blocks
    held while the chunk was joined, took 18 MiB."""
    schema, path = wide_csv(tmp_path, GroupSpec("g", 8))
    schema = replace(schema, window=3)
    ds = CsvDataset(path)
    enc = Encoder(schema, collect_outcomes(schema, ds))
    tables = [("class", node_id(v, s)) for v, s in node_order(schema)]
    assert len(tables) == 60
    assert set(enc.dtypes.values()) == {np.dtype(np.uint8)}
    _, peak = traced_peak(_count_pass, ds, enc, tables)
    assert peak < 8 * 2**20


def test_generate_working_set(tmp_path):
    """``generate`` formats and writes a block of rows at a time: about
    9 MiB for the 20,000-row file above, where formatting the whole table
    before writing took 21 MiB."""
    _, peak = traced_peak(generate, wide_config(GroupSpec("g", 8)), tmp_path / "gen")
    assert peak < 13 * 2**20


@pytest.fixture(scope="module")
def wide_run(tmp_path_factory):
    """The file above, a model trained on it and its classification file."""
    tmp_path = tmp_path_factory.mktemp("wide_run")
    schema, path = wide_csv(tmp_path)
    model = train(schema, CsvDataset(path), seed=1)
    model.save(tmp_path / "model.json")
    assert run(["classify", "--model", str(tmp_path / "model.json"), "--data", str(path),
                "--out", str(tmp_path / "pred.csv")]) == 0
    return schema, path, model, tmp_path


def test_evaluate_working_set(wide_run, capsys):
    """``evaluate`` holds one class code per data row and counts the
    predictions chunk by chunk: about 1.5 MiB here, where lists of every
    id and label, paired per row, took 4.3 MiB."""
    _, path, _, tmp_path = wide_run
    code, peak = traced_peak(run, [
        "evaluate", "--pred", str(tmp_path / "pred.csv"), "--data", str(path),
        "--positive", "bad", "--out", str(tmp_path / "eval.json")])
    assert code == 0
    assert peak < 2.5 * 2**20
    capsys.readouterr()


def test_sweep_working_set(wide_run, sizes):
    """A sweep counts each chunk's rows into its table: about 1.7 MiB in
    chunks of at least 2,048 rows, where a score and a label ``str`` kept
    per record for one sort took 2.8 MiB."""
    _, path, model, _ = wide_run
    grid = default_grid()
    sizes(chunk_rows=2048)
    table, peak = traced_peak(lambda: count_scores(model, path, grid))
    assert int(table.sum()) == 20_000
    assert peak < 2.2 * 2**20


def test_baseline_working_set(wide_run):
    """The QDA fit takes each class's own copy of its rows and centres it
    in place, about 3.9 MiB here, where the full matrix, both class copies
    and their centred copies took 4.8 MiB.  Scoring drops each block's
    feature matrix once the block is scored: 1.6 MiB, where a chunk's
    matrix took 7.0 MiB."""
    schema, path, _, tmp_path = wide_run
    qda, fit_peak = traced_peak(fit_from_csv, schema, path, "quadratic")
    _, score_peak = traced_peak(score_to_csv, qda, schema, path, tmp_path / "qda.csv")
    assert fit_peak < 4 * 2**20
    assert score_peak < 3.5 * 2**20


def test_baseline_fit_working_set_across_chunks(wide_run, sizes):
    """Read in chunks of at least 2,048 rows, the fit appends each class's
    rows to one buffer per class: about 1.8 MiB here, where each class's
    parts and their concatenation, alive together, took 2.6 MiB."""
    schema, path, _, _ = wide_run
    sizes(chunk_rows=2048, block_bytes=4096)
    qda, peak = traced_peak(fit_from_csv, schema, path, "quadratic")
    assert qda.n1 + qda.n2 + qda.dropped_rows == 20_000
    assert peak < 2.25 * 2**20


# Categoricals whose alphabets, MISSING included, hold 255, 256 and 257
# symbols, and a continuous variable cut into max_bins = 255 bins.
BOUNDARY = parse_schema(
    "class y\ngroup g\nvar a categorical\nvar b categorical\nvar c categorical\n"
    "var v continuous quantile\nmax_bins 255\nwindow 2\n"
)
BOUNDARY_OBSERVED = {"a": 254, "b": 255, "c": 256}


def boundary_records(n=3000, seed=5):
    """Rows of 37 interleaved groups; every symbol occurs, 2 % of the field
    cells are ``?`` or empty and 2 % of the class cells ``?``."""
    rng = np.random.default_rng(seed)
    columns = {"y": rng.choice(["good", "bad"], n, p=[0.8, 0.2]).astype(object),
               "g": np.array([f"g{i % 37}" for i in range(n)], dtype=object)}
    for var, k in BOUNDARY_OBSERVED.items():
        symbols = np.array([f"{var}{i:03d}" for i in range(k)], dtype=object)
        columns[var] = symbols[rng.permutation(n) % k]
    columns["v"] = np.array([f"{x:.6f}" for x in rng.normal(size=n)], dtype=object)
    columns["y"][rng.random(n) < 0.02] = MISSING
    for var in ("a", "b", "c", "v"):
        columns[var][rng.random(n) < 0.02] = rng.choice([MISSING, ""])
    return [{name: str(col[i]) for name, col in columns.items()} for i in range(n)]


def test_codes_at_dtype_boundaries(tmp_path, sizes):
    """Codes and lag columns at the ``uint8``/``uint16`` boundaries equal a
    dict oracle and the record-at-a-time window oracle, and pass counts a
    per-row count: no code wraps in the narrow dtypes."""
    records = boundary_records()
    names = list(records[0])
    path = write(tmp_path, "".join(
        ",".join(row) + "\n" for row in [names] + [[r[c] for c in names] for r in records]))
    ds = CsvDataset(path)
    outcomes = collect_outcomes(BOUNDARY, ds)
    enc = Encoder(BOUNDARY, outcomes)
    assert enc.sizes == {"a": 255, "b": 256, "c": 257, "v": 256}
    assert enc.dtypes == {"a": np.uint8, "b": np.uint8, "c": np.uint16, "v": np.uint8}

    lut = {var: {sym: i for i, sym in enumerate(outcomes.symbols(var))} for var in enc.sizes}
    edges = outcomes.edges("v")

    def oracle(var, cell):
        if cell in (MISSING, ""):
            return enc.sizes[var] - 1
        return bisect.bisect_right(edges, float(cell)) if var == "v" else lut[var][cell]

    for var in enc.sizes:
        col = [r[var] for r in records]
        codes = enc.encode_var(var, col)
        assert codes.dtype == enc.dtypes[var]
        assert codes.tolist() == [oracle(var, cell) for cell in col]

    nodes = [node_id(var, slot) for var, slot in node_order(BOUNDARY)]
    cases = list(window_expand(records, BOUNDARY))
    want = {node: [oracle(node_var_slot(node)[0], case.values[node]) for case in cases]
            for node in nodes}
    assert max(want["b@1"]) == 255 and max(want["c@1"]) == 256
    for chunk_rows in (700, 65536):
        got = {node: [] for node in nodes}
        sizes(chunk_rows=chunk_rows, block_bytes=1)
        for _, codes, _ in enc.node_chunks(ds, nodes):
            for node in nodes:
                assert codes[node].dtype == enc.dtypes[node_var_slot(node)[0]]
                got[node] += codes[node].tolist()
        assert got == want

    tables = [("class", node) for node in nodes]
    tables += [("class", "c", "c@1"), ("class", "b@1", "v"), ("class", "c@1", "a", "b")]
    sizes(chunk_rows=700)
    counts = _count_pass(ds, enc, tables)
    for table in tables:
        expected = np.zeros_like(counts[table])
        for i, case in enumerate(cases):
            if case.label is not None:
                cell = (enc.class_symbols.index(case.label),) + tuple(want[n][i] for n in table[1:])
                expected[cell] += 1
        assert (counts[table] == expected).all(), table


def class_encoder(symbols: tuple[str, ...]) -> Encoder:
    return Encoder(TWO_CAT, OutcomeTable(
        class_var="y", class_symbols=symbols,
        variables={v: VariableOutcomes(symbols=("x", MISSING)) for v in ("a", "b")}))


@pytest.mark.parametrize("symbols", [("bad", "good"), ("", "bad", "good")],
                         ids=["plain", "blank-symbol"])
def test_class_codebook(symbols):
    """A class symbol codes as its index, any other label as k, and both
    MISSING cells as k+1, even in a legacy model whose class alphabet holds
    ``""``; coding a column adds no entry to the codebook."""
    k = len(symbols)
    enc = class_encoder(symbols)
    codebook = dict(enc.class_codes)
    codes = enc.encode_class(["good", "bad", "weird", "Good", MISSING, ""])
    assert codes.dtype == np.uint8
    assert codes.tolist() == [symbols.index("good"), symbols.index("bad"), k, k, k + 1, k + 1]
    assert enc.class_codes == codebook and len(codebook) <= k + 2


@pytest.mark.parametrize("k, dtype", [(254, np.uint8), (255, np.uint16)])
def test_class_codes_at_dtype_boundary(k, dtype):
    """Class codes take the narrowest unsigned dtype that holds k+1."""
    symbols = tuple(f"c{i:03d}" for i in range(k))
    codes = class_encoder(symbols).encode_class([symbols[-1], "other", MISSING])
    assert codes.dtype == dtype and codes.tolist() == [k - 1, k, k + 1]


class TestModelFile:
    def test_round_trip_is_lossless(self, messy_model, tmp_path):
        path = tmp_path / "model.json"
        messy_model.save(path)
        reloaded = load_model(path)
        assert reloaded.to_json_text() == messy_model.to_json_text()

    def test_document_is_self_describing(self, messy_model):
        doc = json.loads(messy_model.to_json_text())
        for key in ("format", "schema", "prior", "outcomes", "ranked_fields",
                    "parents", "cpts", "fallbacks", "pass_stats"):
            assert key in doc
        assert doc["pass_stats"]["passes"] == 4

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(TrainingError):
            load_model(path)


class TestSelectDependencies:
    def test_single_pair_oriented_down_ranking(self):
        edges = select_dependencies(
            [MIScore(("A", "B"), 0.4)], 1.0, ["A", "B"], max_parents=1
        )
        assert edges == [("A", "B")]

    def test_zero_parent_budget(self):
        edges = select_dependencies(
            [MIScore(("A", "B"), 0.4)], 1.0, ["A", "B"], max_parents=0
        )
        assert edges == []

    def test_greedy_budget_trace(self):
        # hand trace: AB accepted, AC accepted, cumulative 0.9/1.0 >= 0.9 -> stop
        cmi = [
            MIScore(("A", "B"), 0.6),
            MIScore(("A", "C"), 0.3),
            MIScore(("B", "C"), 0.1),
        ]
        edges = select_dependencies(cmi, 0.9, ["A", "B", "C"], max_parents=1)
        assert edges == [("A", "B"), ("A", "C")]

    def test_budget_blocked_pair_skipped_without_accumulating(self):
        # BC would make C a second-parent child; it is skipped and DC accepted
        cmi = [
            MIScore(("A", "C"), 0.5),
            MIScore(("B", "C"), 0.4),
            MIScore(("A", "D"), 0.1),
        ]
        edges = select_dependencies(cmi, 0.6, ["A", "B", "C", "D"], max_parents=1)
        assert edges == [("A", "C"), ("A", "D")]

    def test_orientation_follows_rank_not_pair_order(self):
        edges = select_dependencies(
            [MIScore(("B", "A"), 0.4)], 1.0, ["A", "B"], max_parents=1
        )
        assert edges == [("A", "B")]

    def test_unselected_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unselected"):
            select_dependencies([MIScore(("A", "Z"), 0.4)], 1.0, ["A", "B"], 1)

    def test_acyclic_by_construction(self):
        rng = np.random.default_rng(0)
        nodes = [f"n{i}" for i in range(8)]
        cmi = [
            MIScore((nodes[i], nodes[j]), float(rng.random()))
            for i in range(8)
            for j in range(i + 1, 8)
        ]
        edges = select_dependencies(cmi, 1.0, nodes, max_parents=2)
        rank = {n: i for i, n in enumerate(nodes)}
        assert all(rank[p] < rank[c] for p, c in edges)


class TestEstimateCpts:
    def test_prior_matches_rare_sample(self):
        counts = {"x": np.array([[1, 1], [1, 1]])}
        _, _, prior = estimate_cpts(counts, counts, np.array([90, 10]), {"x": ()})
        assert prior.tolist() == [0.9, 0.1]

    def test_unseen_row_flagged(self):
        counts = {"x": np.array([[4, 6], [0, 0]])}
        cpts, _, _ = estimate_cpts(counts, counts, np.array([10, 5]), {"x": ()})
        assert cpts["x"].unseen.tolist() == [False, True]
        assert cpts["x"].probs[0].tolist() == [0.4, 0.6]
        assert cpts["x"].probs[1].tolist() == [0.0, 0.0]

    def test_additive_smoothing(self):
        counts = {"x": np.array([[3, 0]])}
        cpts, _, _ = estimate_cpts(counts, counts, np.array([3]), {"x": ()}, smoothing=1.0)
        assert cpts["x"].probs[0] == pytest.approx([0.8, 0.2], abs=1e-15)

    def test_unseen_flag_independent_of_smoothing(self):
        counts = {"x": np.array([[0, 0]])}
        cpts, _, _ = estimate_cpts(counts, counts, np.array([4]), {"x": ()}, smoothing=1.0)
        assert cpts["x"].unseen.tolist() == [True]
        assert cpts["x"].probs[0] == pytest.approx([0.5, 0.5])


class TestNaiveBayesOracle:
    """u = 0, alpha = 0: posteriors equal direct empirical-Bayes computation."""

    def oracle(self, path, record):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        classes = sorted({r[0] for r in rows})
        n = len(rows)
        weights = {}
        for c in classes:
            crows = [r for r in rows if r[0] == c]
            w = len(crows) / n
            w *= sum(1 for r in crows if r[1] == record["a"]) / len(crows)
            w *= sum(1 for r in crows if r[2] == record["b"]) / len(crows)
            weights[c] = w
        z = sum(weights.values())
        return {c: w / z for c, w in weights.items()}

    def test_posteriors_match_raw_count_oracle(self, tmp_path):
        path = small_csv(tmp_path, n=600, seed=4)
        schema = replace(TWO_CAT, max_parents=0)
        model = train(schema, CsvDataset(path))
        scored = next(iter_scored(model, path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        for i in (0, 1, 5, 77, 311, 599):
            expect = self.oracle(path, {"a": rows[i][1], "b": rows[i][2]})
            got = dict(zip(model.class_symbols, scored.probabilities[i]))
            for c in expect:
                assert got[c] == pytest.approx(expect[c], abs=1e-12)


class TestWindowedTraining:
    def test_lagged_nodes_created_and_usable(self, tmp_path):
        rng = np.random.default_rng(2)
        lines = ["cust,y,a"]
        for g in range(150):
            sticky = "a1" if rng.random() < 0.5 else "a0"
            for _ in range(3):
                bad = rng.random() < 0.3
                a = sticky if rng.random() < 0.9 else ("a0" if sticky == "a1" else "a1")
                lines.append(f"g{g:03d},{'bad' if bad else 'good'},{a}")
        path = write(tmp_path, "\n".join(lines) + "\n")
        schema = parse_schema(
            "class y\ngroup cust\nvar a categorical\nwindow 2\nt_prime 1.0\n"
        )
        ds = CsvDataset(path)
        model = train(schema, ds)
        assert ds.stats.passes == 4
        nodes = {rf.node for rf in model.ranked_fields}
        assert nodes == {"a", node_id("a", 1)}

    def test_chunk_size_does_not_change_model(self, tmp_path, sizes):
        """The model, classification and sweep are the same whatever the
        chunk size, with a reservoir that overflows, so that pass 1's
        replacement draws span chunk ends."""
        rng = np.random.default_rng(5)
        lines = ["cust,y,a,b,x"]
        last_a = {}
        labelled_x = 0
        for _ in range(300):
            g = f"g{rng.integers(6)}"
            bad = rng.random() < (0.6 if last_a.get(g) == "a1" else 0.2)
            a = "a1" if rng.random() < (0.7 if bad else 0.3) else rng.choice(["a0", "a2"])
            last_a[g] = a
            if rng.random() < 0.1:
                a = "?"
            b = "b1" if rng.random() < (0.8 if a == "a1" else 0.3) else "b0"
            x = "?" if rng.random() < 0.1 else f"{rng.normal(1.0 if bad else 0.0):.4f}"
            y = "?" if rng.random() < 0.1 else ("bad" if bad else "good")
            lines.append(f"{g},{y},{a},{b},{x}")
            labelled_x += x != "?" and y != "?"
        path = write(tmp_path, "\n".join(lines) + "\n")
        schema = parse_schema(
            "class y\ngroup cust\nvar a categorical\nvar b categorical\n"
            "var x continuous\nwindow 3\nt_prime 1.0\nmax_parents 2\n"
        )
        sizes(reservoir_capacity=100)
        assert labelled_x > 2 * 100
        texts, scored = [], []
        for chunk_rows in (1, 2, 7, 65536):
            sizes(chunk_rows=chunk_rows, block_bytes=1)
            ds = CsvDataset(path)
            trained = train(schema, ds, seed=1)
            texts.append(trained.to_json_text())
            assert ds.stats.passes == 4
            pred = tmp_path / f"pred{chunk_rows}.csv"
            classify_file(trained, path, pred, 0.5)
            scored.append((pred.read_bytes(),
                           count_scores(trained, path, default_grid()).tolist()))
        assert texts[1:] == texts[:1] * 3
        assert scored[1:] == scored[:1] * 3
        model = json.loads(texts[0])
        assert any("@" in node for node in model["parents"])
        # a node's parents are null, a name, or a list of two or more names
        edges = [(parent, child) for child, named in model["parents"].items()
                 for parent in ([named] if isinstance(named, str) else named or [])]
        assert any("@" in parent + child for parent, child in edges)


@settings(max_examples=40, deadline=None)
@given(cfg=gen_configs(sizes=st.integers(30, 400)), rate=st.floats(0.2, 0.8),
       window=st.integers(1, 3), max_parents=st.integers(0, 2))
def test_pass4_tables_repeat_earlier_passes(tmp_path_factory, cfg, rate, window, max_parents):
    """Pass-4 tables that an earlier pass already counted come out bit for
    bit the same: each fallback (and parentless CPT) is its pass-2
    ``("class", node)`` table, each one-parent CPT its pass-3 pair table,
    and the prior any pass-2 table summed over its node axis.  A CPT with
    k >= 2 parents has no earlier table, so for it the property holds only
    for the prior and the fallbacks."""
    root = tmp_path_factory.mktemp("pass4")
    # a rate off the extremes, so that most draws observe both classes
    fixture = generate(replace(cfg, positive_rate=rate), root)
    schema = replace(parse_schema(fixture.schema_path.read_text(encoding="utf-8")),
                     window=window, max_parents=max_parents)
    passes = []
    real_count_pass = structure._count_pass

    def recording_count_pass(*args):
        passes.append(real_count_pass(*args))
        return passes[-1]

    with mock.patch.object(structure, "_count_pass", recording_count_pass):
        try:
            train(schema, fixture.data_path, seed=cfg.seed % 1000)
        except TrainingError:
            assume(False)  # fewer than two classes observed
    pass2, pass3, pass4 = passes
    for table, counts in pass4.items():
        if len(table) == 1:
            wants = [c.sum(axis=1) for c in pass2.values()]
        elif len(table) <= 3:
            wants = [(pass2 if len(table) == 2 else pass3)[table]]
        else:
            continue
        for want in wants:
            assert counts.dtype == want.dtype and np.array_equal(counts, want), table
