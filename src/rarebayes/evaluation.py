"""Imbalanced-classification reporting: F/C/V rows and threshold sweeps.

F is the percentage of actual-negative records falsely flagged positive
(100*FP/N), C the percentage of actual positives captured (100*TP/P),
and V the volume ratio of false to true positives formatted ``x.x:1``.
Counts are exact integers; only the presentation rounds, half-up.

Every count comes from the package's one counting engine,
:func:`~rarebayes.infometrics.count_table`: a small integer
table of records per (bucket, actual is positive), from which
:func:`table_counts` reads the confusion counts at each cut as prefix
sums.  A threshold sweep's buckets are how many grid thresholds a
record's score reaches (:func:`grid_buckets`); a confusion's two buckets
are "predicted negative" and "predicted positive".  The ``evaluate``
command (:func:`evaluate_files`) and the ``sweep`` command
(:func:`~rarebayes.inference.count_scores`) fill the table a chunk at a
time from small integer class codes, so neither holds an object per
record; :func:`confusion` and :func:`sweep` fill it from label lists.

The two commands judge labels differently.  ``sweep`` counts every label
but the positive as a negative, one the model never saw or each other
class of a three-class model, and drops a MISSING one.  ``evaluate``
drops a pair whose actual label is MISSING, and refuses paired rows
whose predicted and actual labels hold more than one label besides the
positive (:func:`_check_labels`).
The prediction file's row format lives here too: :func:`write_predictions`
is its one writer, for ``classify`` and ``baseline`` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import repeat
from operator import eq
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataio import Chunk, ClassCodes, CsvDataset, csv_cell, csv_output, write_rows
from .errors import EvaluationError, few
from .infometrics import count_table


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def positives(self) -> int:
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        return self.fp + self.tn

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class FCVRow:
    """One evaluation row at a fixed decision threshold."""

    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int
    f_pct: float
    c_pct: float
    volume: str
    accuracy: float

    def f_pct_str(self) -> str:
        return format_pct(self.f_pct)

    def c_pct_str(self) -> str:
        return format_pct(self.c_pct)


def format_pct(value: float) -> str:
    """Half-up percentage formatting with two decimals, e.g. 21.10."""
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def volume_ratio(fp: int, tp: int) -> str:
    """FP per TP as ``x.x:1`` (half-up, one decimal); 0:1 and inf:1 edge cases."""
    if fp == 0:
        return "0:1"
    if tp == 0:
        return "∞:1"
    ratio = Decimal(fp) / Decimal(tp)
    return f"{ratio.quantize(Decimal('0.1'), rounding=ROUND_HALF_UP)}:1"


def _check_labels(seen: set[str], positive: str, negative: str | None = None) -> None:
    """Raise unless ``seen`` holds at most ``positive`` and one negative label,
    ``negative`` when given, else the single non-positive label present."""
    others = seen - {positive}
    if negative is None:
        if len(others) > 1:
            raise EvaluationError(f"ambiguous negative label among {few(sorted(others))}")
        negative = next(iter(others), None)
    unknown = seen - {positive, negative}
    if unknown:
        raise EvaluationError(f"unknown label(s): {few(sorted(unknown))}")


def table_counts(table: np.ndarray) -> list[ConfusionCounts]:
    """Confusion counts at each cut ``j`` in ``1 .. levels - 1`` of a count
    table, flagging the rows whose bucket is at least ``j``: TN and FN are
    prefix sums of the table, TP and FP what the totals leave."""
    below = np.cumsum(table, axis=0).tolist()
    negatives, positives = below[-1]
    return [ConfusionCounts(tp=positives - fn, fp=negatives - tn, tn=tn, fn=fn)
            for tn, fn in below[:-1]]


def confusion(
    predictions: Sequence[str],
    actuals: Sequence[str],
    positive: str,
    negative: str | None = None,
) -> ConfusionCounts:
    """Standard cell counts with an explicit positive class.

    Labels must be two-valued; when ``negative`` is omitted it is
    inferred as the single non-positive label present.  The counts are a
    two-bucket count table, bucket 1 holding the predicted positives.
    """
    if len(predictions) != len(actuals):
        raise EvaluationError(
            f"{len(predictions)} predictions vs {len(actuals)} actuals"
        )
    _check_labels(set(predictions) | set(actuals), positive, negative)
    table = count_table(
        [_is_positive(predictions, positive), _is_positive(actuals, positive)], (2, 2)
    )
    return table_counts(table)[0]


def _is_positive(labels: Sequence[str], positive: str) -> np.ndarray:
    return np.fromiter(map(eq, labels, repeat(positive)), dtype=bool, count=len(labels))


def fcv(counts: ConfusionCounts, threshold: float) -> FCVRow:
    """F/C/V row from exact counts; needs both positives and negatives."""
    p, n = counts.positives, counts.negatives
    if p == 0 or n == 0:
        raise EvaluationError(
            f"rates undefined: {p} actual positives, {n} actual negatives"
        )
    return FCVRow(
        threshold=threshold,
        tp=counts.tp,
        fp=counts.fp,
        tn=counts.tn,
        fn=counts.fn,
        f_pct=100.0 * counts.fp / n,
        c_pct=100.0 * counts.tp / p,
        volume=volume_ratio(counts.fp, counts.tp),
        accuracy=(counts.tp + counts.tn) / (p + n),
    )


# Decimals every grid threshold is rounded to, and the most thresholds a
# grid may hold.
GRID_DECIMALS = 10
MAX_GRID_THRESHOLDS = 100_000


def default_grid(start: float = 0.10, stop: float = 0.90, step: float = 0.05) -> list[float]:
    """Threshold grid built by integer stepping to dodge float drift.

    Before any threshold is built, :class:`EvaluationError` is raised when
    the first two would round to the same ``GRID_DECIMALS`` decimals, or
    when the grid would hold more than ``MAX_GRID_THRESHOLDS``.
    """
    if not all(map(math.isfinite, (start, stop, step))):
        raise EvaluationError(
            f"grid start, stop and step must be finite, got {start}:{stop}:{step}"
        )
    if step <= 0:
        raise EvaluationError(f"grid step must be positive, got {step}")
    first = round(start, GRID_DECIMALS)
    if first <= stop + 1e-9 and round(start + step, GRID_DECIMALS) == first:
        raise EvaluationError(
            f"grid step {step} is too small: consecutive thresholds round to "
            f"the same {GRID_DECIMALS} decimals"
        )
    # (stop + 1e-9 - start) / step is the last threshold's index, give or
    # take the rounding
    if (stop + 1e-9 - start) / step >= MAX_GRID_THRESHOLDS:
        raise EvaluationError(
            f"grid {start}:{stop}:{step} holds more than {MAX_GRID_THRESHOLDS} thresholds"
        )
    grid = []
    i = 0
    while True:
        t = round(start + i * step, GRID_DECIMALS)
        if t > stop + 1e-9:
            break
        grid.append(t)
        i += 1
    return grid


def check_grid(grid: Sequence[float]) -> None:
    """Raise :class:`EvaluationError` unless the thresholds of ``grid`` lie
    strictly inside (0, 1) and strictly increase."""
    if any(not 0.0 < t < 1.0 for t in grid):
        raise EvaluationError("grid thresholds must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise EvaluationError("grid thresholds must be strictly increasing")


def grid_buckets(scores: np.ndarray, grid: Sequence[float]) -> np.ndarray:
    """How many thresholds of the increasing ``grid`` each score reaches
    (score >= threshold).  A NaN score ranks below every threshold."""
    scores = np.where(np.isnan(scores), -np.inf, scores)
    return np.searchsorted(np.asarray(grid, dtype=np.float64), scores, side="right")


def sweep_rows(table: np.ndarray, grid: Sequence[float]) -> list[FCVRow]:
    """One FCVRow per threshold from a ``(len(grid) + 1, 2)`` count table of
    :func:`grid_buckets`.  The table must count at least one record, and
    the grid must be strictly increasing inside (0, 1)."""
    if not table.any():
        raise EvaluationError("sweep needs at least one scored record")
    check_grid(grid)
    return [fcv(counts, t) for counts, t in zip(table_counts(table), grid)]


def sweep(
    posteriors: Sequence[float],
    actuals: Sequence[str],
    positive: str,
    grid: Sequence[float] | None = None,
) -> list[FCVRow]:
    """One FCVRow per threshold using the >=-threshold rule, ordered by threshold.

    The grid must be strictly increasing inside (0, 1); the default is
    0.10 to 0.90 in steps of 0.05.  The rows come from one count table
    over the records' :func:`grid_buckets`.
    """
    if len(posteriors) == 0 or len(actuals) == 0:
        raise EvaluationError("sweep needs at least one scored record")
    if len(posteriors) != len(actuals):
        raise EvaluationError(
            f"{len(posteriors)} posteriors vs {len(actuals)} actuals"
        )
    grid = list(grid) if grid is not None else default_grid()
    buckets = grid_buckets(np.asarray(posteriors, dtype=np.float64), grid)
    table = count_table([buckets, _is_positive(actuals, positive)], (len(grid) + 1, 2))
    return sweep_rows(table, grid)


def write_predictions(out_path: str | Path, classes: Sequence[str],
                      chunks: Iterable[tuple]) -> np.ndarray:
    """Write the prediction file of ``classify`` and ``baseline``, which
    :func:`evaluate_files` reads, and return the rows written per label.

    A chunk is the ``(endings, classes)`` probabilities of its distinct row
    endings, each ending's label as a class index, the distinct skip texts,
    each ending's skip text as an index into them, and each row's ending.
    Each ending, class symbol and skip text is rendered once, each
    probability as its ``repr``; record ids count from 0 in file order.
    """
    symbols = [csv_cell(c) for c in classes]
    counts = np.zeros(len(classes), dtype=np.int64)
    with csv_output(out_path, ["record_id", *(f"p_{c}" for c in classes),
                               "label", "skipped_nodes"]) as fh:
        for probs, labels, skips, skip_index, endings in chunks:
            quoted = [csv_cell(text) for text in skips]
            tails = np.array(list(map(",".join, zip(
                *(map(repr, col) for col in probs.T.tolist()),
                map(symbols.__getitem__, labels.tolist()),
                map(quoted.__getitem__, skip_index.tolist()),
            ))), dtype=object)
            start = int(counts.sum())  # the rows written so far
            write_rows(fh, [map(str, range(start, start + len(endings))),
                            tails[endings].tolist()])
            counts += np.bincount(labels[endings], minlength=len(classes))
    return counts


def evaluate_files(
    pred_path: str, data_path: str, positive: str, class_var: str = "class"
) -> tuple[ConfusionCounts, int]:
    """Confusion counts of a classification file against a dataset's class
    column, and how many records they pair.

    The prediction with record id i pairs with data row i; one whose id is
    past the data, or whose actual label is MISSING, is dropped.  The class
    column is read once into one small code per data row, with a MISSING
    code appended for ids past the data; the predictions are then counted
    chunk by chunk into a two-bucket count table, so no per-record
    object is held.
    """
    dataset = CsvDataset(pred_path)
    # a predictions header that cannot be evaluated is reported before the
    # data file is read
    dataset.require_columns(["record_id", "label"])
    act_coder = ClassCodes()

    def decode_class(block: Chunk) -> dict:
        return {"codes": act_coder(block.columns[class_var])}

    chunks = CsvDataset(data_path).iter_chunks([class_var], decode=decode_class)
    actual = np.concatenate([chunk.columns["codes"] for chunk in chunks]
                            + [np.array([-1], dtype=act_coder.dtype)])
    # a predicted label is a label, never MISSING
    pred_coder = ClassCodes(missing=())
    decoded = 0  # rows decoded so far, which number a bad id's row

    def decode(block: Chunk) -> dict:
        nonlocal decoded
        rows = _id_rows(block.columns["record_id"], len(actual) - 1, pred_path, decoded)
        decoded += block.size
        return {"rows": rows, "labels": pred_coder(block.columns["label"])}

    table = np.zeros((2, 2), dtype=np.int64)
    seen_pred: set[int] = set()
    seen_act: set[int] = set()
    for chunk in dataset.iter_chunks(["record_id", "label"], decode=decode):
        rows = chunk.columns["rows"]
        act = actual[rows]
        keep = act >= 0
        pred, act = chunk.columns["labels"][keep], act[keep]
        seen_pred.update(np.flatnonzero(np.bincount(pred)).tolist())
        seen_act.update(np.flatnonzero(np.bincount(act)).tolist())
        table += count_table([pred == pred_coder.index.get(positive, -2),
                              act == act_coder.index.get(positive, -2)], (2, 2))
    if dataset.stats.rejected:
        raise EvaluationError(
            f"{pred_path}: {dataset.stats.rejected} row(s) rejected, "
            "their field count differs from the header"
        )
    records = int(table.sum())
    if not records:
        raise EvaluationError("no prediction/actual pairs to evaluate")
    _check_labels({pred_coder.labels[c] for c in seen_pred}
                 | {act_coder.labels[c] for c in seen_act}, positive)
    return table_counts(table)[0], records


def _id_rows(col: list[str], n: int, path: str, before: int) -> np.ndarray:
    """The class-code row of each record id: the id, or ``n`` for an id past
    the data.  A cell that is not a non-negative integer raises
    :class:`EvaluationError` naming its row of ``path``, ``before`` rows
    having been decoded ahead of ``col``."""
    try:
        ids = np.array(col, dtype=np.int64)
    except (ValueError, OverflowError):
        ids = None
    if ids is not None and (ids >= 0).all():
        return np.minimum(ids, n)
    # per cell, int() takes ids past int64
    rows = np.empty(len(col), dtype=np.int64)
    for i, text in enumerate(col):
        try:
            rid = int(text)
        except ValueError:
            rid = -1
        if rid < 0:  # tested before min(), which would hand -10**30 to int64
            raise EvaluationError(
                f"{path} row {before + i + 1}: record_id {text!r} "
                "is not a non-negative integer"
            )
        rows[i] = min(rid, n)
    return rows


def rows_to_report(
    rows: Sequence[FCVRow], metadata: dict | None = None
) -> dict:
    """JSON-ready report document for one or more FCV rows."""
    return {
        "metadata": metadata or {},
        "rows": [
            {
                "threshold": r.threshold,
                "TP": r.tp,
                "FP": r.fp,
                "TN": r.tn,
                "FN": r.fn,
                "F_pct": r.f_pct,
                "C_pct": r.c_pct,
                "F_pct_str": r.f_pct_str(),
                "C_pct_str": r.c_pct_str(),
                "V": r.volume,
                "accuracy": r.accuracy,
            }
            for r in rows
        ],
    }


SWEEP_CSV_HEADER = ["threshold", "F_pct", "C_pct", "V", "TP", "FP", "TN", "FN", "accuracy"]


def threshold_label(t: float) -> str:
    """Two decimals (``0.10``) when they read back as ``t``, else ``repr(t)``,
    so distinct thresholds of a fine grid keep distinct labels."""
    label = f"{t:.2f}"
    return label if float(label) == t else repr(t)


def rows_to_csv_lines(rows: Sequence[FCVRow]) -> list[list[str]]:
    """Sweep rows as CSV cells (formatted percentages, exact counts)."""
    return [list(SWEEP_CSV_HEADER)] + [
        [threshold_label(r.threshold), r.f_pct_str(), r.c_pct_str(), r.volume,
         *map(str, (r.tp, r.fp, r.tn, r.fn)), f"{r.accuracy:.6f}"]
        for r in rows
    ]
