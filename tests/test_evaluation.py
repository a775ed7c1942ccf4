import csv
import tempfile
from collections import Counter
from itertools import compress
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarebayes import ConfusionCounts, EvaluationError, confusion, default_grid, fcv, sweep
from rarebayes import dataio
from rarebayes.dataio import CsvDataset
from rarebayes.evaluation import evaluate_files, format_pct, rows_to_csv_lines, sweep_rows
from rarebayes.evaluation import volume_ratio, write_predictions
from rarebayes.inference import count_scores, iter_scored

from evaluation_oracle import confusion_oracle, evaluate_oracle, missing_mask, sweep_oracle
from evaluation_oracle import write_predictions_oracle


class TestConfusion:
    def test_do_nothing_strategy(self):
        counts = confusion(["g"] * 6, ["g", "g", "b", "g", "b", "g"], positive="b")
        assert (counts.tp, counts.fp) == (0, 0)
        assert (counts.tn, counts.fn) == (4, 2)

    def test_perfect_classifier(self):
        actuals = ["b", "g", "g", "b"]
        counts = confusion(actuals, actuals, positive="b")
        assert (counts.fp, counts.fn) == (0, 0)

    def test_hand_counted_cells(self):
        # 10 records, 3 positives; first 5 predicted positive, 2 of them true
        actuals = ["b", "b", "g", "g", "g", "b", "g", "g", "g", "g"]
        predictions = ["b"] * 5 + ["g"] * 5
        counts = confusion(predictions, actuals, positive="b")
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (2, 3, 1, 4)

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError, match="vs"):
            confusion(["b"], ["b", "g"], positive="b")

    def test_unknown_label(self):
        with pytest.raises(EvaluationError, match="unknown label"):
            confusion(["b", "weird"], ["b", "g"], positive="b", negative="g")

    def test_ambiguous_negative(self):
        with pytest.raises(EvaluationError, match="ambiguous"):
            confusion(["b", "x"], ["b", "z"], positive="b")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("bg"), st.sampled_from("bg")), max_size=60),
           st.sampled_from([None, "g"]))
    def test_matches_pairwise_loop(self, pairs, negative):
        predictions = [p for p, _ in pairs]
        actuals = [a for _, a in pairs]
        counts = confusion(predictions, actuals, positive="b", negative=negative)
        assert counts == loop_confusion(predictions, actuals, positive="b")


def loop_confusion(predictions, actuals, positive):
    """Per-pair reference count for ``confusion`` on validated labels."""
    tp = fp = tn = fn = 0
    for pred, act in zip(predictions, actuals):
        if act == positive:
            if pred == positive:
                tp += 1
            else:
                fn += 1
        else:
            if pred == positive:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


class TestFcv:
    def test_capture_rate_from_published_counts(self):
        counts = ConfusionCounts(tp=134_131, fp=134_305,
                                 tn=4_716_223 - 134_305, fn=635_611 - 134_131)
        row = fcv(counts, 0.7)
        assert row.c_pct_str() == "21.10"
        assert row.f_pct_str() == "2.85"
        assert row.volume == "1.0:1"

    def test_volume_ratio_published_pair(self):
        assert volume_ratio(309_784, 202_500) == "1.5:1"

    def test_ideal_row_volume(self):
        assert volume_ratio(0, 10_481) == "0:1"
        assert volume_ratio(0, 0) == "0:1"

    def test_infinite_volume(self):
        assert volume_ratio(17, 0) == "∞:1"

    def test_accuracy_and_raw_counts_exact(self):
        row = fcv(ConfusionCounts(tp=3, fp=2, tn=90, fn=5), 0.5)
        assert (row.tp, row.fp, row.tn, row.fn) == (3, 2, 90, 5)
        assert row.accuracy == (3 + 90) / 100
        assert row.f_pct == 100.0 * 2 / 92
        assert row.c_pct == 100.0 * 3 / 8

    def test_undefined_rates_rejected(self):
        with pytest.raises(EvaluationError, match="undefined"):
            fcv(ConfusionCounts(tp=0, fp=0, tn=5, fn=0), 0.5)
        with pytest.raises(EvaluationError, match="undefined"):
            fcv(ConfusionCounts(tp=2, fp=0, tn=0, fn=1), 0.5)

    def test_half_up_formatting(self):
        assert format_pct(21.1027) == "21.10"
        assert format_pct(2.845) == "2.85"
        assert format_pct(6.89) == "6.89"
        assert volume_ratio(15, 10) == "1.5:1"
        assert volume_ratio(151, 100) == "1.5:1"
        assert volume_ratio(155, 100) == "1.6:1"   # half-up


class TestSweep:
    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 17
        assert grid[0] == 0.10 and grid[-1] == 0.90
        assert grid[1] == pytest.approx(0.15)

    def test_threshold_crossing_single_record_needs_both_classes(self):
        rows = sweep([0.6, 0.1], ["b", "g"], positive="b", grid=[0.5, 0.7])
        assert [r.tp for r in rows] == [1, 0]
        assert [r.fn for r in rows] == [0, 1]

    def test_identical_posteriors_step_function(self):
        rows = sweep([0.4] * 8, ["b", "g"] * 4, positive="b", grid=[0.3, 0.5])
        assert (rows[0].tp, rows[0].fp) == (4, 4)
        assert (rows[1].tp, rows[1].fp) == (0, 0)

    def test_monotone_counts_over_grid(self):
        rng = np.random.default_rng(11)
        scores = rng.random(2000)
        actuals = np.where(rng.random(2000) < 0.2, "b", "g").tolist()
        rows = sweep(scores.tolist(), actuals, positive="b")
        fps = [r.fp for r in rows]
        tps = [r.tp for r in rows]
        assert all(x >= y for x, y in zip(fps, fps[1:]))
        assert all(x >= y for x, y in zip(tps, tps[1:]))

    def test_counts_sum_to_total_at_every_threshold(self):
        rng = np.random.default_rng(12)
        scores = rng.random(500)
        actuals = np.where(rng.random(500) < 0.3, "b", "g").tolist()
        for row in sweep(scores.tolist(), actuals, positive="b"):
            assert row.tp + row.fp + row.tn + row.fn == 500

    def test_grid_validation(self):
        with pytest.raises(EvaluationError, match="strictly increasing"):
            sweep([0.5], ["b"], "b", grid=[0.5, 0.4])  # also single-class, but grid first
        with pytest.raises(EvaluationError, match="inside"):
            sweep([0.5, 0.2], ["b", "g"], "b", grid=[0.0, 0.5])

    def test_empty_inputs_rejected(self):
        with pytest.raises(EvaluationError):
            sweep([], [], "b")

    @given(
        st.lists(
            st.tuples(st.floats(0.001, 0.999), st.sampled_from(["b", "g"])),
            min_size=2,
            max_size=120,
        ).filter(lambda pairs: len({c for _, c in pairs}) == 2)
    )
    @settings(max_examples=80, deadline=None)
    def test_monotonicity_property(self, pairs):
        scores = [s for s, _ in pairs]
        actuals = [c for _, c in pairs]
        rows = sweep(scores, actuals, positive="b", grid=[0.2, 0.4, 0.6, 0.8])
        for a, b in zip(rows, rows[1:]):
            assert a.fp >= b.fp and a.tp >= b.tp
            assert a.tp + a.fp + a.tn + a.fn == len(pairs)

    @staticmethod
    def naive_sweep(scores, actuals, positive, grid):
        """Reference: count every record against every threshold."""
        rows = []
        for t in grid:
            tp = fp = tn = fn = 0
            for score, actual in zip(scores, actuals):
                if score >= t:
                    if actual == positive:
                        tp += 1
                    else:
                        fp += 1
                elif actual == positive:
                    fn += 1
                else:
                    tn += 1
            rows.append(fcv(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn), t))
        return rows

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.2, 0.5, 0.8, float("nan")])),
                st.sampled_from(["b", "g", "x"]),
            ),
            min_size=2,
            max_size=150,
        ).filter(lambda pairs: {"b"} < {c for _, c in pairs}),
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6, unique=True),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_loop(self, pairs, grid):
        scores = [s for s, _ in pairs]
        actuals = [c for _, c in pairs]
        grid = sorted(grid + [0.2, 0.5, 0.8])
        grid = [t for i, t in enumerate(grid) if i == 0 or t > grid[i - 1]]
        assert sweep(scores, actuals, "b", grid) == self.naive_sweep(scores, actuals, "b", grid)


def test_csv_lines_layout():
    rows = sweep([0.6, 0.2], ["b", "g"], positive="b", grid=[0.5])
    lines = rows_to_csv_lines(rows)
    assert lines[0] == ["threshold", "F_pct", "C_pct", "V",
                       "TP", "FP", "TN", "FN", "accuracy"]
    assert lines[1][0] == "0.50"
    assert lines[1][4] == "1"


def test_fine_grid_csv_keeps_every_threshold_apart():
    grid = default_grid(0.1, 0.2, 0.005)
    rows = sweep([0.6, 0.2], ["b", "g"], positive="b", grid=grid)
    labels = [line[0] for line in rows_to_csv_lines(rows)[1:]]
    assert len(labels) == len(set(labels)) == 21
    assert [float(label) for label in labels] == grid
    assert labels[:4] == ["0.10", "0.105", "0.11", "0.115"]


def test_default_grid_csv_lines_pinned():
    rows = sweep([0.6, 0.2, 0.95, 0.4], ["b", "g", "b", "g"], positive="b")
    lines = rows_to_csv_lines(rows)
    assert [line[0] for line in lines[1:]] == [
        "0.10", "0.15", "0.20", "0.25", "0.30", "0.35", "0.40", "0.45", "0.50",
        "0.55", "0.60", "0.65", "0.70", "0.75", "0.80", "0.85", "0.90",
    ]
    assert lines[1] == [
        "0.10", "100.00", "100.00", "1.0:1", "2", "2", "0", "0", "0.500000"]
    assert lines[-1] == [
        "0.90", "0.00", "50.00", "0:1", "1", "0", "2", "1", "0.750000"]


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


# -- the count table against the list-based oracles ---------------------------

# labels a file may hold: the positive "b", negatives, and both MISSING cells
LABELS = ["b", "g", "x", "?", ""]


def outcome(fn, *args):
    """``fn(*args)``, or the message of the EvaluationError it raises."""
    try:
        return fn(*args)
    except EvaluationError as exc:
        return f"EvaluationError: {exc}"


def label_pool():
    """A few of LABELS, so that many draws are two-valued."""
    return st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([None, "g", "x"]), st.booleans())
def test_confusion_matches_list_oracle(data, negative, short):
    pool = data.draw(label_pool())
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                               max_size=40))
    predictions = [p for p, _ in pairs]
    actuals = [a for _, a in pairs][: len(pairs) - short]
    assert outcome(confusion, predictions, actuals, "b", negative) == outcome(
        confusion_oracle, predictions, actuals, "b", negative)


GRID_POINTS = [0.2, 0.5, 0.8]
SCORES = st.one_of(st.floats(0.0, 1.0), st.sampled_from(GRID_POINTS + [0.0, 1.0, float("nan")]))
GRIDS = st.one_of(
    st.none(),
    st.lists(st.one_of(st.floats(0.01, 0.99), st.sampled_from(GRID_POINTS)),
             max_size=6, unique=True).map(sorted),
    st.lists(st.sampled_from(GRID_POINTS + [0.0, 1.0]), max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(SCORES, st.sampled_from(LABELS)), max_size=80), GRIDS, st.booleans())
def test_sweep_matches_list_oracle(pairs, grid, short):
    """NaN scores, scores tied with a grid point, labels that are neither
    positive nor one negative, and invalid grids."""
    scores = [p for p, _ in pairs]
    actuals = [a for _, a in pairs][: len(pairs) - short]
    assert outcome(sweep, scores, actuals, "b", grid) == outcome(
        sweep_oracle, scores, actuals, "b", grid)


ID_CELLS = st.one_of(
    st.integers(0, 30).map(str),
    st.sampled_from([str(2**63 - 1), str(2**63), str(2**63 + 5), str(2**70), " 4", "+2"]),
)
BAD_ID_CELLS = st.sampled_from(["abc", "-1", "1.5", "", "-" + "9" * 25])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([8, 1 << 17]))
def test_evaluate_files_matches_list_oracle(data, block_chars):
    """Ids past the data and past 2**63, MISSING actuals, labels unseen in
    training, bad ids in any block, and every label error."""
    pool = data.draw(label_pool())
    class_cells = data.draw(st.lists(st.sampled_from(LABELS), max_size=30))
    preds = data.draw(st.lists(st.tuples(ID_CELLS, st.sampled_from(pool)), max_size=40))
    bad = data.draw(st.none() | st.tuples(st.integers(0, 40), BAD_ID_CELLS))
    if bad is not None:
        preds.insert(bad[0], (bad[1], pool[0]))
    positive = data.draw(st.sampled_from(["b", "g"]))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataio, "_BLOCK_BYTES", block_chars):
        pred_path, data_path = Path(tmp) / "pred.csv", Path(tmp) / "data.csv"
        data_path.write_text("n,class\n" + "".join(
            f"{i},{cell}\n" for i, cell in enumerate(class_cells)), encoding="utf-8")
        pred_path.write_text("record_id,label\n" + "".join(
            f"{rid},{label}\n" for rid, label in preds), encoding="utf-8")
        got = outcome(evaluate_files, str(pred_path), str(data_path), positive, "class")
        want = outcome(evaluate_oracle, str(pred_path), [rid for rid, _ in preds],
                       [label for _, label in preds], class_cells, positive)
    assert got == want


# -- the one prediction writer against a row-at-a-time csv.writer --------------

# cells csv.writer quotes (a comma, a quote, a leading space, a line end) among plain ones
CELLS = st.one_of(
    st.sampled_from(["good", "bad", "a,b", 'say "hi"', " lead", "x:missing;y:pruned"]),
    st.text(st.sampled_from(["a", ",", '"', " ", "\r", "\n", ":", ";"]), max_size=5),
)
PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308]),
)


@st.composite
def prediction_chunks(draw, k):
    """One ``write_predictions`` chunk over ``k`` classes: up to 5 endings,
    and up to 12 rows that may repeat an ending."""
    n = draw(st.integers(0, 5))

    def indices(bound, size):
        return np.array(draw(st.lists(st.integers(0, bound - 1), min_size=size, max_size=size))
                        if bound else [], dtype=np.intp)

    probs = draw(st.lists(st.lists(PROBABILITIES, min_size=k, max_size=k),
                          min_size=n, max_size=n))
    skips = draw(st.lists(CELLS, min_size=1, max_size=4, unique=True))
    endings = indices(n, draw(st.integers(0, 12 if n else 0)))
    return (np.array(probs, dtype=np.float64).reshape(n, k), indices(k, n), skips,
            indices(len(skips), n), endings)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([1, 3, 4096]))
def test_write_predictions_matches_row_oracle(data, batch):
    """Quoted class names and skip texts, 0.0, 1.0 and subnormal
    probabilities, repeated endings, empty chunks and no chunk at all, with
    write batches that split chunks."""
    classes = data.draw(st.lists(CELLS, min_size=1, max_size=4, unique=True))
    chunks = data.draw(st.lists(prediction_chunks(len(classes)), max_size=4))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataio, "_WRITE_ROWS", batch):
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        counts = write_predictions(got, classes, chunks)
        write_predictions_oracle(want, classes, chunks)
        assert got.read_bytes() == want.read_bytes()
    written = Counter(classes[labels[e]] for _, labels, _, _, endings in chunks
                      for e in endings.tolist())
    assert dict(zip(classes, counts.tolist())) == {c: written[c] for c in classes}


@pytest.mark.parametrize("chunk_rows", [7, 65536])
def test_count_scores_matches_list_oracle(messy_bundle, messy_model, tmp_path, sizes,
                                         chunk_rows):
    """The sweep's per-chunk table over configurations equals the sorted
    per-record sweep, with MISSING actuals and a label unseen in training,
    on a grid that holds an exact posterior."""
    with open(messy_bundle.data_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(messy_bundle.schema.class_var)
    for i, row in enumerate(rows[1:]):
        row[col] = {0: "?", 1: "", 2: "churned"}.get(i % 9, row[col])
    path = tmp_path / "data.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    positive = messy_model.rare_class()
    pos = messy_model.class_symbols.index(positive)
    probs = np.concatenate([s.probabilities[:, pos] for s in iter_scored(messy_model, path)])
    cells = [row[col] for row in rows[1:]]
    keep = ~missing_mask(cells)
    grid = sorted({0.1, 0.5, 0.9, float(probs[keep][0])})
    want = sweep_oracle(probs[keep], list(compress(cells, keep)), positive, grid)
    sizes(chunk_rows=chunk_rows, block_bytes=1)
    table = count_scores(messy_model, CsvDataset(path), grid)
    assert sweep_rows(table, grid) == want
    assert int(table.sum()) == int(keep.sum())
