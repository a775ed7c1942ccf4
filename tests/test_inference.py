import csv
import math
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarebayes import (
    EvidenceError,
    ConfigError,
    MISSING,
    classify,
    classify_file,
    parse_schema,
    posterior,
    symbolize,
    train,
)
from rarebayes import dataio
from rarebayes.dataio import CsvDataset, PassStats
from rarebayes.inference import SKIP_REASONS, _dense_ids, iter_scored, score_codes
from rarebayes.outcomes import OutcomeTable, VariableOutcomes, bin_symbol
from rarebayes.structure import CPT, Encoder, NetworkModel, RankedField
from rarebayes.windows import CaseRecord, node_id, node_order, node_var_slot

from skip_oracle import skip_strings
from window_oracle import WindowCase, window_expand


def toy_model(tables, prior=(0.1, 0.9), classes=("bad", "good"), parents=None,
              fallback_tables=None, unseen=None, edges=None):
    """Hand-built model; tables[var] has shape (classes, *parent alphabets,
    alphabet) for the tuple of field parents ``parents`` gives ``var``.

    A variable's fallback defaults to its table averaged over the parent
    axes.  A variable named in ``edges`` is continuous, cut at its edges.
    """
    variables = {}
    cpts = {}
    fallbacks = {}
    ranked = []
    parents = parents or {}
    edges = edges or {}
    for i, (var, rows) in enumerate(tables.items()):
        rows = np.asarray(rows, dtype=np.float64)
        labels = bin_symbol if var in edges else str
        symbols = tuple(labels(s) for s in range(rows.shape[-1] - 1)) + (MISSING,)
        variables[var] = VariableOutcomes(symbols=symbols, edges=edges.get(var))
        flags = np.asarray(
            unseen.get(var) if unseen and var in unseen
            else np.zeros(rows.shape[:-1], dtype=bool)
        )
        cpts[var] = CPT(probs=rows, unseen=flags)
        fb_rows = np.asarray(
            (fallback_tables or {}).get(var, rows.mean(axis=tuple(range(1, rows.ndim - 1)))),
            dtype=np.float64,
        )
        fallbacks[var] = CPT(probs=fb_rows, unseen=np.zeros(fb_rows.shape[:-1], dtype=bool))
        ranked.append(RankedField(node=var, var=var, slot=0, mi=1.0 - 0.1 * i))
    schema = parse_schema("class y\n" + "".join(
        f"var {v} {'continuous' if v in edges else 'categorical'}\n" for v in tables
    ))
    return NetworkModel(
        schema=schema,
        seed=0,
        class_symbols=classes,
        prior=np.asarray(prior, dtype=np.float64),
        outcomes=OutcomeTable(class_var="y", class_symbols=classes, variables=variables),
        ranked_fields=ranked,
        parents={var: parents.get(var, ()) for var in tables},
        cpts=cpts,
        fallbacks=fallbacks,
        pass_stats=PassStats(passes=4),
    )


def oracle_code(model, var, symbol):
    """A symbol's code, read off the alphabet: its index, MISSING last."""
    return model.outcomes.symbols(var).index(symbol)


def oracle_missing(model, var):
    return len(model.outcomes.symbols(var)) - 1


def oracle_symbol(model, var, raw):
    """Reference raw cell -> symbol rule, written apart from the Encoder.

    A categorical cell outside the alphabet is MISSING.  A continuous cell
    goes through ``float()`` and ``bisect_right`` over the edges (bin j iff
    e_j <= v < e_{j+1}); ``?``, None, NaN, infinities and unparsable text
    are MISSING.
    """
    symbols = model.outcomes.symbols(var)
    if model.schema.variable(var).kind == "categorical":
        return raw if raw in symbols else MISSING
    if raw is None or raw == MISSING:
        return MISSING
    try:
        v = float(raw)
    except ValueError:
        return MISSING
    if not math.isfinite(v):
        return MISSING
    return bin_symbol(bisect_right(model.outcomes.edges(var), v))


def oracle_symbols(model, row):
    return {
        var: oracle_symbol(model, var, row.get(var, MISSING))
        for var in model.schema.var_names
    }


def oracle_posterior(model, case):
    """Reference update rule: one case, one node at a time, plain floats.

    Written independently of the scoring kernel; returns the probabilities,
    the ``(node, reason)`` skip log and the incorporated nodes, in rank order.
    """
    p = model.prior.copy()
    skipped = []
    order = []
    for rf in model.ranked_fields:
        code = oracle_code(model, rf.var, case.get(rf.node))
        if code == oracle_missing(model, rf.var):
            skipped.append((rf.node, "missing"))
            continue
        pcodes = []
        for parent in model.parents[rf.node]:
            pvar = node_var_slot(parent)[0]
            pcodes.append(oracle_code(model, pvar, case.get(parent)))
            if pcodes[-1] == oracle_missing(model, pvar):
                table = model.fallbacks[rf.node]
                likelihood, row_unseen = table.probs[:, code], bool(table.unseen.any())
                break
        else:
            table = model.cpts[rf.node]
            likelihood = table.probs[(slice(None), *pcodes, code)]
            row_unseen = bool(table.unseen[(slice(None), *pcodes)].any())
        if row_unseen:
            skipped.append((rf.node, "unseen-config"))
            continue
        nxt = p * likelihood
        total = nxt.sum()
        # prune unless every class stays strictly inside (0, 1) after renormalizing
        if total == 0.0 or not all(0.0 < float(x) / float(total) < 1.0 for x in nxt):
            skipped.append((rf.node, "pruned"))
            continue
        p = nxt / total
        order.append(rf.node)
    return p, skipped, order


def skip_log(model, skip_row):
    """The (node, reason) log of one row of the kernel's skip matrix."""
    return [(rf.node, SKIP_REASONS[c]) for rf, c in zip(model.ranked_fields, skip_row) if c]


def assert_batch_matches_oracle(model, path):
    """Every record of ``path`` scores bit for bit as the oracle scores its
    window case, with the same skip log."""
    schema = model.schema
    scored = list(iter_scored(model, path))
    batch = np.vstack([s.probabilities for s in scored])
    skips = np.vstack([s.skipped for s in scored])
    with open(path, newline="", encoding="utf-8") as fh:
        records = [
            {**oracle_symbols(model, row), schema.class_var: row[schema.class_var],
             **({schema.group_key: row[schema.group_key]} if schema.group_key else {})}
            for row in csv.DictReader(fh)
        ]
    cases = list(window_expand(records, schema))
    assert len(cases) == batch.shape[0]
    for i, case in enumerate(cases):
        probs, skipped, _ = oracle_posterior(model, case)
        assert np.array_equal(batch[i], probs), f"row {i}"
        assert skip_log(model, skips[i]) == skipped, f"row {i}"


# P(x=1|good)=0.2, P(x=1|bad)=0.8 over symbols ("0","1",MISSING)
X_TABLE = [[0.2, 0.8, 0.0], [0.8, 0.2, 0.0]]
# P(y*=1|good)=0.0, P(y*=1|bad)=0.5: observing y*=1 forces P(bad)=1
DEGENERATE_TABLE = [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]


class TestPosterior:
    def test_all_missing_returns_prior_exactly(self):
        model = toy_model({"x": X_TABLE})
        post = posterior(model, CaseRecord(values={}))
        assert post.probabilities.tolist() == [0.1, 0.9]
        assert post.skipped == [("x", "missing")]
        assert post.order == []

    def test_hand_bayes_single_field(self):
        model = toy_model({"x": X_TABLE})
        post = posterior(model, CaseRecord(values={"x": "1"}))
        assert post.prob("bad") == pytest.approx(0.08 / 0.26, abs=1e-12)
        assert post.prob("bad") == pytest.approx(0.307692, abs=1e-6)

    def test_degenerate_node_pruned(self):
        model = toy_model({"x": X_TABLE, "z": DEGENERATE_TABLE})
        post = posterior(model, CaseRecord(values={"x": "1", "z": "1"}))
        assert post.prob("bad") == pytest.approx(0.08 / 0.26, abs=1e-12)
        assert ("z", "pruned") in post.skipped
        assert post.order == ["x"]

    def test_pruned_equals_missing(self):
        model = toy_model({"x": X_TABLE, "z": DEGENERATE_TABLE})
        pruned = posterior(model, CaseRecord(values={"x": "1", "z": "1"}))
        missing = posterior(model, CaseRecord(values={"x": "1", "z": MISSING}))
        assert pruned.probabilities.tolist() == missing.probabilities.tolist()

    def test_posterior_sums_to_one(self):
        model = toy_model({"x": X_TABLE, "z": DEGENERATE_TABLE})
        for case in ({"x": "0"}, {"x": "1", "z": "0"}, {"z": "1"}):
            post = posterior(model, CaseRecord(values=case))
            assert post.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unknown_symbol_names_variable(self):
        model = toy_model({"x": X_TABLE})
        with pytest.raises(EvidenceError, match="'x'"):
            posterior(model, CaseRecord(values={"x": "purple"}))
        # the first unknown symbol in rank order is the one reported
        model = toy_model({"w": X_TABLE, "x": X_TABLE})
        with pytest.raises(EvidenceError, match="'w'"):
            posterior(model, CaseRecord(values={"x": "purple", "w": "red"}))

    def test_unseen_config_skipped(self):
        model = toy_model({"x": X_TABLE}, unseen={"x": [False, True]})
        post = posterior(model, CaseRecord(values={"x": "1"}))
        assert post.skipped == [("x", "unseen-config")]
        assert post.probabilities.tolist() == [0.1, 0.9]

    def test_incorporation_follows_rank_not_case_layout(self):
        model = toy_model({"x": X_TABLE, "w": [[0.3, 0.7, 0.0], [0.6, 0.4, 0.0]]})
        a = posterior(model, CaseRecord(values={"x": "1", "w": "0"}))
        b = posterior(model, CaseRecord(values={"w": "0", "x": "1"}))
        assert a.probabilities.tolist() == b.probabilities.tolist()
        assert a.order == b.order == ["x", "w"]

    def test_fallback_used_when_parent_missing(self):
        parent_table = np.asarray([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        # child CPT: (class, parent outcome, child outcome)
        child_cpt = np.zeros((2, 3, 3))
        child_cpt[:, 0] = [0.9, 0.1, 0.0]
        child_cpt[:, 1] = [0.1, 0.9, 0.0]
        child_cpt[:, 2] = [0.5, 0.5, 0.0]
        child_fb = [[0.3, 0.7, 0.0], [0.7, 0.3, 0.0]]
        model = toy_model(
            {"p": parent_table, "c": child_cpt},
            parents={"c": ("p",)},
            fallback_tables={"c": child_fb},
        )
        post = posterior(model, CaseRecord(values={"p": MISSING, "c": "1"}))
        # parent missing: prior odds times the fallback column for c=1
        expect_bad = 0.1 * 0.7 / (0.1 * 0.7 + 0.9 * 0.3)
        assert post.prob("bad") == pytest.approx(expect_bad, abs=1e-12)
        assert ("p", "missing") in post.skipped

    def test_parent_value_feeds_child_cpt(self):
        parent_table = np.asarray([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        child_cpt = np.zeros((2, 3, 3))
        child_cpt[0, 0] = [0.2, 0.8, 0.0]   # bad, p=0
        child_cpt[1, 0] = [0.8, 0.2, 0.0]   # good, p=0
        child_cpt[0, 1] = [0.6, 0.4, 0.0]
        child_cpt[1, 1] = [0.4, 0.6, 0.0]
        child_cpt[:, 2] = [0.5, 0.5, 0.0]
        model = toy_model(
            {"p": parent_table, "c": child_cpt}, parents={"c": ("p",)}
        )
        post = posterior(model, CaseRecord(values={"p": "0", "c": "1"}))
        # parent is uninformative; child likelihood (0.8, 0.2) as in hand Bayes
        assert post.prob("bad") == pytest.approx(0.08 / 0.26, abs=1e-12)


class TestClassify:
    def test_threshold_rules(self):
        model = toy_model({"x": X_TABLE}, prior=(0.51, 0.49))
        label, post = classify(model, CaseRecord(values={}), 0.5, positive="bad")
        assert post.prob("bad") == pytest.approx(0.51)
        assert label == "bad"                      # 0.51 >= 0.5
        label, _ = classify(model, CaseRecord(values={}), 0.7, positive="bad")
        assert label == "good"                     # 0.51 < 0.7
        model70 = toy_model({"x": X_TABLE}, prior=(0.70, 0.30))
        label, _ = classify(model70, CaseRecord(values={}), 0.7, positive="bad")
        assert label == "bad"                      # boundary inclusive

    def test_positive_defaults_to_rare_class(self):
        model = toy_model({"x": X_TABLE})
        label, _ = classify(model, CaseRecord(values={}), 0.05)
        assert label == "bad"

    def test_unknown_positive_class(self):
        model = toy_model({"x": X_TABLE})
        with pytest.raises(ConfigError, match="positive"):
            classify(model, CaseRecord(values={}), 0.5, positive="fraudulent")
        with pytest.raises(ConfigError, match="unknown positive class ''"):
            classify(model, CaseRecord(values={}), 0.5, positive="")

    def test_blank_positive_names_a_blank_class(self):
        # an empty positive is a class name, not "the rare class"
        model = toy_model({"x": X_TABLE}, prior=(0.9, 0.1), classes=("", "good"))
        assert model.rare_class() == "good"
        label, _ = classify(model, CaseRecord(values={}), 0.05, positive="")
        assert label == ""

    def test_threshold_range_checked(self):
        model = toy_model({"x": X_TABLE})
        with pytest.raises(ConfigError):
            classify(model, CaseRecord(values={}), 1.5)


def expansions(records, schema, tmp_path):
    """The window cases of ``records`` from each implementation, by name.

    ``oracle`` is :func:`window_expand`; ``node_chunks@<rows>`` decodes the
    code columns :meth:`Encoder.node_chunks` yields for every candidate
    node when the same records are read from a CSV ``<rows>`` at a time
    (one row per block).
    """
    columns = [schema.class_var] + ([schema.group_key] if schema.group_key else [])
    columns += schema.var_names
    path = tmp_path / "records.csv"
    path.write_text(
        "".join(",".join(row) + "\n"
                for row in [columns] + [[r[c] for c in columns] for r in records]),
        encoding="utf-8",
    )

    def alphabet(var):
        return tuple(sorted({r[var] for r in records} - {MISSING}))

    outcomes = OutcomeTable(
        class_var=schema.class_var,
        class_symbols=alphabet(schema.class_var),
        variables={v: VariableOutcomes(symbols=alphabet(v) + (MISSING,))
                   for v in schema.var_names},
    )
    nodes = [node_id(var, slot) for var, slot in node_order(schema)]
    out = {"oracle": list(window_expand(records, schema))}
    enc = Encoder(schema, outcomes)
    for chunk_rows in (1, 65536):
        cases = []
        with (mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows),
              mock.patch.object(dataio, "_BLOCK_BYTES", 1)):
            chunks = list(enc.node_chunks(CsvDataset(path), nodes, labels=True))
        k = len(outcomes.class_symbols)
        for n, codes, class_codes in chunks:
            for i in range(n):
                values = {node: outcomes.symbols(node_var_slot(node)[0])[codes[node][i]]
                          for node in nodes}
                label = outcomes.class_symbols[class_codes[i]] if class_codes[i] < k else None
                cases.append(WindowCase(values=values, label=label))
        out[f"node_chunks@{chunk_rows}"] = cases
    return out


class TestWindowExpand:
    """Window spec cases, checked on the oracle and on the chunked feed."""

    SCHEMA = parse_schema("class y\ngroup g\nvar a categorical\nwindow 2\n")

    def test_window_one_is_identity(self, tmp_path):
        schema = parse_schema("class y\nvar a categorical\n")
        records = [{"y": "g", "a": "1"}, {"y": "b", "a": "2"}]
        for impl, cases in expansions(records, schema, tmp_path).items():
            assert [c.values for c in cases] == [{"a": "1"}, {"a": "2"}], impl
            assert [c.label for c in cases] == ["g", "b"], impl

    def test_three_record_group_padding(self, tmp_path):
        records = [
            {"g": "c1", "y": "g", "a": "r1"},
            {"g": "c1", "y": "g", "a": "r2"},
            {"g": "c1", "y": "b", "a": "r3"},
        ]
        for impl, cases in expansions(records, self.SCHEMA, tmp_path).items():
            assert [c.values for c in cases] == [
                {"a": "r1", "a@1": MISSING},
                {"a": "r2", "a@1": "r1"},
                {"a": "r3", "a@1": "r2"},
            ], impl

    def test_no_cross_group_leakage(self, tmp_path):
        records = [
            {"g": "c1", "y": "g", "a": "r1"},
            {"g": "c2", "y": "g", "a": "r2"},
        ]
        for impl, cases in expansions(records, self.SCHEMA, tmp_path).items():
            assert cases[1].values["a@1"] == MISSING, impl

    def test_interleaved_groups_use_group_predecessor(self, tmp_path):
        records = [
            {"g": "c1", "y": "g", "a": "r1"},
            {"g": "c2", "y": "g", "a": "s1"},
            {"g": "c1", "y": "g", "a": "r2"},
        ]
        for impl, cases in expansions(records, self.SCHEMA, tmp_path).items():
            assert cases[2].values["a@1"] == "r1", impl

    def test_missing_class_label_is_none(self, tmp_path):
        schema = parse_schema("class y\nvar a categorical\n")
        for impl, cases in expansions([{"y": "?", "a": "1"}], schema, tmp_path).items():
            assert cases[0].label is None, impl


class TestBatchEquivalence:
    """The scoring kernel must match the test oracle bit for bit."""

    def test_batch_matches_single_case(self, messy_bundle, messy_model):
        assert_batch_matches_oracle(messy_model, messy_bundle.data_path)

    def test_batch_matches_single_case_windowed(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = ["cust,y,a,v"]
        for g in range(120):
            for _ in range(rng.integers(1, 4)):
                bad = rng.random() < 0.25
                a = "a1" if rng.random() < (0.8 if bad else 0.3) else "a0"
                v = rng.normal(1.0 if bad else 0.0, 1.0)
                miss = rng.random() < 0.15
                lines.append(
                    f"g{g:03d},{'bad' if bad else 'good'},"
                    f"{'?' if miss else a},{v:.4f}"
                )
        path = tmp_path / "w.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        schema = parse_schema(
            "class y\ngroup cust\nvar a categorical\nvar v continuous\n"
            "window 2\nt_prime 1.0\n"
        )
        model = train(schema, CsvDataset(path))
        assert_batch_matches_oracle(model, path)

    def test_lagged_node_without_its_slot_zero(self, tmp_path, sizes):
        # y depends on the group's previous a, and on the current b only
        rng = np.random.default_rng(21)
        lines = ["cust,y,a,b"]
        prev = {}
        for _ in range(1500):
            g = int(rng.integers(0, 200))
            bad = rng.random() < (0.7 if prev.get(g) == "a1" else 0.1)
            a = "a1" if rng.random() < 0.5 else "a0"
            b = "b1" if rng.random() < (0.8 if bad else 0.3) else "b0"
            prev[g] = a
            lines.append(f"g{g:03d},{'bad' if bad else 'good'},"
                         f"{'?' if rng.random() < 0.1 else a},{b}")
        path = tmp_path / "lag.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        schema = parse_schema(
            "class y\ngroup cust\nvar a categorical\nvar b categorical\n"
            "window 3\nt_prime 0.9\n"
        )
        model = train(schema, CsvDataset(path))
        nodes = [rf.node for rf in model.ranked_fields]
        assert "a@1" in nodes and "a" not in nodes
        outputs = []
        for chunk_rows in (1, 7, 65536):
            out = tmp_path / f"pred{chunk_rows}.csv"
            sizes(chunk_rows=chunk_rows, block_bytes=1)
            classify_file(model, path, out, 0.5)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert_batch_matches_oracle(model, path)


EDGE_VALUES = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([-1.5, 0.0, 0.5, 2.0])


@st.composite
def random_models(draw, continuous=False):
    """A toy model with random CPTs (exact zeros and extreme ratios
    included), up to two distinct random field parents per variable down
    the ranking, and cases over it.
    With ``continuous``, each variable may be continuous with random edges.
    Up to 10 classes: numpy sums 8 or more terms of a row pairwise, so the
    class-sum order the kernel and the oracle must share only shows there."""
    k = draw(st.integers(2, 10))
    classes = tuple(f"c{i}" for i in range(k))
    prior = np.asarray(draw(st.lists(st.integers(1, 10**6), min_size=k, max_size=k)),
                       dtype=np.float64)
    weights = st.sampled_from([0, 0, 1, 3, 1000, 10**9])

    def rows(shape):
        counts = np.asarray(
            draw(st.lists(weights, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
            dtype=np.float64,
        ).reshape(shape)
        totals = counts.sum(axis=-1)
        with np.errstate(invalid="ignore"):
            probs = np.where(totals[..., None] > 0, counts / totals[..., None], 0.0)
        return probs, totals == 0

    tables, fallbacks, unseen, parents, sizes, edges = {}, {}, {}, {}, {}, {}
    for j in range(draw(st.integers(1, 4))):
        var = f"x{j}"
        if continuous and draw(st.booleans()):
            cuts = draw(st.lists(EDGE_VALUES, max_size=4, unique=True))
            edges[var] = tuple(sorted(cuts))
            sizes[var] = len(cuts) + 2
        else:
            sizes[var] = draw(st.integers(2, 4))
        parents[var] = tuple(draw(st.lists(st.sampled_from(list(tables)), max_size=2,
                                           unique=True))) if tables else ()
        tables[var], unseen[var] = rows((k, *(sizes[p] for p in parents[var]), sizes[var]))
        if parents[var]:
            fallbacks[var] = rows((k, sizes[var]))[0]
    model = toy_model(tables, prior=prior / prior.sum(), classes=classes, parents=parents,
                      fallback_tables=fallbacks, unseen=unseen, edges=edges)
    symbols = {var: model.outcomes.variables[var].symbols for var in tables}
    cases = draw(st.lists(
        st.fixed_dictionaries({var: st.sampled_from(sym) for var, sym in symbols.items()}),
        min_size=1, max_size=12,
    ))
    return model, [CaseRecord(values=case) for case in cases]


GARBAGE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                  max_size=4)


def raw_cells(model, var):
    """Raw cells for ``var``: its own symbols or numbers, bin boundaries,
    MISSING spellings, infinities, padded numbers, unseen categories,
    garbage, and a float ``0.0`` cell, which is a number, not a blank."""
    edges = model.outcomes.edges(var)
    if edges is None:
        return st.one_of(st.sampled_from(model.outcomes.symbols(var)),
                         st.sampled_from(["", " 0", "new", "bin0"]), GARBAGE)
    numbers = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        edges or (0.0,))
    return st.one_of(
        numbers.map(repr),
        numbers.map(lambda x: f" {x!r}\t"),
        st.sampled_from(["?", "", " ", "nan", "-NaN", "inf", "-inf", "+Infinity",
                         "1_000", "0x10", "bin0"]),
        st.just(0.0),
        GARBAGE,
    )


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("symbolize")


@settings(max_examples=150, deadline=None)
@given(drawn=random_models(continuous=True), data=st.data())
def test_symbolize_matches_oracle_and_batch_scoring(case_dir, drawn, data):
    """symbolize bins like the scalar oracle, and the posterior of its
    symbols equals iter_scored's row for the same raw cells, bit for bit."""
    model, _ = drawn
    names = model.schema.var_names
    rows = data.draw(st.lists(
        st.fixed_dictionaries({var: raw_cells(model, var) for var in names}),
        min_size=1, max_size=8,
    ))
    path = case_dir / "raw.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + names)
        writer.writerows(["?"] + [row[var] for var in names] for row in rows)
    scored = list(iter_scored(model, path))
    batch = np.vstack([s.probabilities for s in scored])
    skips = np.vstack([s.skipped for s in scored])
    assert batch.shape[0] == len(rows)
    for i, row in enumerate(rows):
        symbols = symbolize(model, row)
        assert symbols == oracle_symbols(model, row)
        post = posterior(model, CaseRecord(values=symbols))
        assert np.array_equal(post.probabilities, batch[i])
        assert post.skipped == skip_log(model, skips[i])


@pytest.fixture(scope="module")
def dup_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("duplicates")


def write_cases(path, model, cases):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + model.schema.var_names)
        writer.writerows(["?"] + [case.get(var) for var in model.schema.var_names]
                         for case in cases)


def line_tails(path):
    """Each output line without its record id."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [line.split(",", 1)[1] for line in lines]


@settings(max_examples=100, deadline=None)
@given(drawn=random_models(), data=st.data())
def test_duplicated_rows_score_as_a_batch_of_one(dup_dir, drawn, data):
    """In a batch of duplicated and permuted cases, every row's posterior
    and skip row equal ``posterior`` on its case alone, bit for bit, and
    every written line equals that case's line in a file without
    duplicates, whatever the chunk size."""
    model, cases = drawn
    distinct = list({tuple(c.values.items()): c for c in cases}.values())
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1),
                               min_size=1, max_size=40))
    chunk_rows = data.draw(st.sampled_from([1, 3, 65536]))
    batch = [distinct[k] for k in picks]
    once, many = dup_dir / "once.csv", dup_dir / "many.csv"
    write_cases(once, model, distinct)
    write_cases(many, model, batch)
    with (mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows),
          mock.patch.object(dataio, "_BLOCK_BYTES", 1)):
        scored = list(iter_scored(model, many))
        summary = classify_file(model, many, dup_dir / "many.out", 0.5)
    probs = np.vstack([s.probabilities for s in scored])
    skips = np.vstack([s.skipped for s in scored])
    assert len(probs) == len(batch)
    for i, case in enumerate(batch):
        post = posterior(model, case)
        assert np.array_equal(probs[i], post.probabilities), f"row {i}"
        assert skip_log(model, skips[i]) == post.skipped, f"row {i}"
    classify_file(model, once, dup_dir / "once.out", 0.5)
    expected = line_tails(dup_dir / "once.out")
    got = line_tails(dup_dir / "many.out")
    assert got == [expected[k] for k in picks]
    labels = [tail.split(",")[len(model.class_symbols)] for tail in got]
    assert summary["flagged"] == labels.count(model.rare_class())


def assert_same_partition(ids, oracle):
    """``ids`` and ``oracle`` group the rows alike: the pairs of labels
    they give each row form a one-to-one map."""
    pairs = set(zip(ids.tolist(), oracle.tolist()))
    assert len(pairs) == len(set(ids.tolist())) == len(set(oracle.tolist()))


@st.composite
def code_matrices(draw):
    """Rows over random radices (wide ones included, so the radix product
    can pass 2**63), repeating a few base rows with one entry changed, so
    rows that agree on a prefix of columns can differ later."""
    radices = draw(st.lists(
        st.sampled_from([1, 2, 3, 4, 17, 10_001, 2**31, 2**40]), min_size=1, max_size=40))
    entry = [st.integers(0, r - 1) for r in radices]
    bases = draw(st.lists(st.tuples(*entry), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 50))):
        row = list(draw(st.sampled_from(bases)))
        if draw(st.booleans()):
            j = draw(st.integers(0, len(radices) - 1))
            row[j] = draw(entry[j])
        rows.append(row)
    return np.array(rows, dtype=np.int64), radices


class TestDenseIds:
    @given(code_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_wise_unique(self, drawn):
        matrix, radices = drawn
        first, ids = _dense_ids(len(matrix), matrix.T, radices)
        _, oracle = np.unique(matrix, axis=0, return_inverse=True)
        assert_same_partition(ids, oracle.reshape(-1))
        # first[k] is the earliest row with id k
        assert [int(np.flatnonzero(ids == k)[0]) for k in range(len(first))] == first.tolist()

    def test_radix_product_past_int64(self):
        # 2**40 * 2**40 passes 2**63: the rows differ only after the fold renumbers
        matrix = np.array([[5, 2**40 - 1, 0], [5, 2**40 - 1, 1], [5, 2**40 - 1, 0],
                           [5, 0, 1]], dtype=np.int64)
        radices = [2**40, 2**40, 2]
        first, ids = _dense_ids(len(matrix), matrix.T, radices)
        assert math.prod(radices) > 2**63
        assert_same_partition(ids, np.array([0, 1, 0, 2]))
        assert sorted(first.tolist()) == [0, 1, 3]

    def test_no_columns_is_one_configuration(self):
        first, ids = _dense_ids(3, [], [])
        assert first.tolist() == [0] and ids.tolist() == [0, 0, 0]


class TestPruningIsFloatSafe:
    def test_saturated_factor_pruned(self, tmp_path):
        # 20,000 good rows see each x*=b once; 20,000 bad rows are all b.
        # The fourth b factor rounds P(bad) to exactly 1.0, so it is pruned.
        table = [[0.0, 1.0, 0.0], [19_999 / 20_000, 1 / 20_000, 0.0]]
        model = toy_model({f"x{i}": table for i in range(1, 5)}, prior=(0.5, 0.5))
        case = CaseRecord(values={f"x{i}": "1" for i in range(1, 5)})
        post = posterior(model, case)
        assert post.skipped == [("x4", "pruned")]
        assert post.order == ["x1", "x2", "x3"]
        assert 0.0 < post.prob("good") < post.prob("bad") < 1.0
        path = tmp_path / "b.csv"
        path.write_text("y,x1,x2,x3,x4\n?,1,1,1,1\n", encoding="utf-8")
        scored = next(iter_scored(model, path))
        assert np.array_equal(scored.probabilities[0], post.probabilities)
        assert skip_log(model, scored.skipped[0]) == [("x4", "pruned")]

    def test_nine_classes_sum_pairwise(self):
        # numpy sums a row of 8 or more classes pairwise; here that order
        # and one class after another round the class sum differently.  A
        # batch of one would hide the difference: its one column is contiguous.
        table = [[1.0, 0.0, 0.0]] + [[1e-16, 1.0 - 1e-16, 0.0]] * 8
        model = toy_model({"x": table}, prior=[1 / 9] * 9,
                          classes=tuple(f"c{i}" for i in range(9)))
        case = CaseRecord(values={"x": "0"})
        expect, skipped, _ = oracle_posterior(model, case)
        assert skipped == []
        probs, _ = score_codes(model, {"x": np.array([0, 0])}, 2)
        assert np.array_equal(probs, [expect, expect])
        assert np.array_equal(posterior(model, case).probabilities, expect)

    @given(random_models())
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_oracle_and_stays_inside(self, drawn):
        model, cases = drawn
        codes = {
            rf.node: np.array([oracle_code(model, rf.var, c.get(rf.node)) for c in cases])
            for rf in model.ranked_fields
        }
        probs, skip = score_codes(model, codes, len(cases))
        for i, case in enumerate(cases):
            expect, skipped, order = oracle_posterior(model, case)
            assert np.array_equal(probs[i], expect)
            assert skip_log(model, skip[i]) == skipped
            assert np.all((probs[i] > 0.0) & (probs[i] < 1.0))
            post = posterior(model, case)
            assert np.array_equal(post.probabilities, expect)
            assert (post.skipped, post.order) == (skipped, order)


class TestClassifyFile:
    def test_output_format_and_ids(self, messy_bundle, messy_model, tmp_path):
        out = tmp_path / "pred.csv"
        summary = classify_file(messy_model, messy_bundle.data_path, out, 0.5)
        with open(out, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "record_id", "p_bad", "p_good", "label", "skipped_nodes"
            ]
            rows = list(reader)
        assert len(rows) == summary["rows"]
        assert [int(r["record_id"]) for r in rows[:5]] == [0, 1, 2, 3, 4]
        for row in rows[:200]:
            total = float(row["p_bad"]) + float(row["p_good"])
            assert total == pytest.approx(1.0, abs=1e-9)
            assert row["label"] in ("bad", "good")
            for entry in filter(None, row["skipped_nodes"].split(";")):
                node, reason = entry.split(":")
                assert reason in ("missing", "pruned", "unseen-config")

    def test_unknown_scoring_value_treated_as_missing(self, tmp_path):
        rng = np.random.default_rng(8)
        lines = ["y,a,b"]
        for _ in range(120):
            bad = rng.random() < 0.3
            a = "a1" if rng.random() < (0.9 if bad else 0.2) else "a0"
            b = "b1" if rng.random() < (0.7 if bad else 0.3) else "b0"
            lines.append(f"{'bad' if bad else 'good'},{a},{b}")
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        schema = parse_schema("class y\nvar a categorical\nvar b categorical\nt_prime 1.0\n")
        model = train(schema, CsvDataset(path))
        assert {rf.node for rf in model.ranked_fields} == {"a", "b"}
        novel = tmp_path / "novel.csv"
        novel.write_text("y,a,b\ngood,NEW_VALUE,b0\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        classify_file(model, novel, out, 0.5)
        with open(out, newline="", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        assert "a:missing" in row["skipped_nodes"]

    @given(
        st.integers(1, 40).flatmap(lambda width: st.lists(
            st.lists(st.integers(0, len(SKIP_REASONS) - 1), min_size=width, max_size=width),
            min_size=1,
            max_size=50,
        )),
    )
    @settings(max_examples=150, deadline=None)
    def test_skip_strings_match_row_wise_unique(self, rows):
        skipped = np.array(rows, dtype=np.int8)
        nodes = [f"n{j}" for j in range(skipped.shape[1])]
        # reference: group rows by a row-wise unique, render each pattern
        patterns, pattern_of = np.unique(skipped, axis=0, return_inverse=True)
        rendered = [
            ";".join(f"{node}:{SKIP_REASONS[c]}" for node, c in zip(nodes, row) if c)
            for row in patterns
        ]
        expected = [rendered[i] for i in pattern_of.reshape(-1)]
        assert skip_strings(nodes, skipped).tolist() == expected

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_skip_strings_beyond_one_key_block(self, data):
        # wider than the 31 base-4 digits of one int64 key; rows repeat a few
        # base patterns, some with one entry changed, so that rows that agree
        # on the first key block can differ in a later one
        width = data.draw(st.integers(31, 100))
        digit = st.integers(0, len(SKIP_REASONS) - 1)
        bases = data.draw(st.lists(
            st.lists(digit, min_size=width, max_size=width), min_size=1, max_size=4))
        rows = []
        for _ in range(data.draw(st.integers(1, 50))):
            row = list(data.draw(st.sampled_from(bases)))
            if data.draw(st.booleans()):
                row[data.draw(st.integers(0, width - 1))] = data.draw(digit)
            rows.append(row)
        skipped = np.array(rows, dtype=np.int8)
        nodes = [f"n{j}" for j in range(width)]
        patterns, pattern_of = np.unique(skipped, axis=0, return_inverse=True)
        rendered = [
            ";".join(f"{node}:{SKIP_REASONS[c]}" for node, c in zip(nodes, row) if c)
            for row in patterns
        ]
        expected = [rendered[i] for i in pattern_of.reshape(-1)]
        assert skip_strings(nodes, skipped).tolist() == expected
