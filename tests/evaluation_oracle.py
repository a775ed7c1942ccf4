"""List-based reference evaluation, as ``evaluate`` and ``sweep`` counted
before they shared one count table: per-record lists, a per-row pairing,
and a full sort of the scores.

``evaluate_oracle`` pairs raw record-id and label cells with the data's
raw class cells the way the ``evaluate`` command did; ``confusion_oracle``
and ``sweep_oracle`` are the list-based bodies of ``evaluation.confusion``
and ``evaluation.sweep``.  ``write_predictions_oracle`` writes a
prediction file a row at a time through ``csv.writer``.  ``missing_mask``
marks the raw cells that are MISSING.
"""

import csv
from itertools import compress, repeat
from operator import eq

import numpy as np

from rarebayes import ConfusionCounts, EvaluationError, default_grid, fcv
from rarebayes.dataio import MISSING, MISSING_CELLS


def missing_mask(col):
    """True where a raw class or field cell is MISSING."""
    return np.fromiter(map(MISSING_CELLS.__contains__, col), dtype=bool, count=len(col))


def confusion_oracle(predictions, actuals, positive, negative=None):
    if len(predictions) != len(actuals):
        raise EvaluationError(
            f"{len(predictions)} predictions vs {len(actuals)} actuals"
        )
    seen = set(predictions) | set(actuals)
    others = seen - {positive}
    if negative is None:
        if len(others) > 1:
            raise EvaluationError(f"ambiguous negative label among {sorted(others)}")
        negative = next(iter(others), None)
    unknown = seen - {positive, negative}
    if unknown:
        raise EvaluationError(f"unknown label(s): {sorted(unknown)}")
    n = len(actuals)
    pred_pos = np.fromiter(map(eq, predictions, repeat(positive)), dtype=bool, count=n)
    act_pos = np.fromiter(map(eq, actuals, repeat(positive)), dtype=bool, count=n)
    tp = int(np.count_nonzero(pred_pos & act_pos))
    fn = int(np.count_nonzero(act_pos)) - tp
    fp = int(np.count_nonzero(pred_pos)) - tp
    tn = n - tp - fn - fp
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def sweep_oracle(posteriors, actuals, positive, grid=None):
    if len(posteriors) == 0 or len(actuals) == 0:
        raise EvaluationError("sweep needs at least one scored record")
    if len(posteriors) != len(actuals):
        raise EvaluationError(
            f"{len(posteriors)} posteriors vs {len(actuals)} actuals"
        )
    grid = list(grid) if grid is not None else default_grid()
    if any(not 0.0 < t < 1.0 for t in grid):
        raise EvaluationError("grid thresholds must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise EvaluationError("grid thresholds must be strictly increasing")
    # A NaN score is never >= t, so it ranks below every threshold.
    scores = np.asarray(posteriors, dtype=np.float64)
    scores = np.where(np.isnan(scores), -np.inf, scores)
    order = np.argsort(scores)
    # pos_below[i]: actual positives among the i lowest scores
    pos_below = np.cumsum(np.array(actuals, dtype=object)[order] == positive)
    pos_below = np.concatenate(([0], pos_below))
    rows = []
    for t, below in zip(grid, np.searchsorted(scores[order], grid).tolist()):
        fn = int(pos_below[below])
        tp = int(pos_below[-1]) - fn
        counts = ConfusionCounts(tp=tp, fp=len(scores) - below - tp, tn=below - fn, fn=fn)
        rows.append(fcv(counts, t))
    return rows


def evaluate_oracle(pred_path, id_cells, label_cells, class_cells, positive):
    """``(counts, records)`` for prediction cells against the data's class cells."""
    ids = []
    for text in id_cells:
        try:
            rid = int(text)
        except ValueError:
            rid = -1
        if rid < 0:
            raise EvaluationError(
                f"{pred_path} row {len(ids) + 1}: record_id {text!r} "
                "is not a non-negative integer"
            )
        ids.append(rid)
    # an id past the data pairs with the MISSING cell appended last
    actuals = list(class_cells) + [MISSING]
    paired = list(map(actuals.__getitem__, map(min, ids, repeat(len(actuals) - 1))))
    keep = ~missing_mask(paired)
    if not keep.any():
        raise EvaluationError("no prediction/actual pairs to evaluate")
    acts = list(compress(paired, keep))
    preds = list(compress(label_cells, keep))
    return confusion_oracle(preds, acts, positive), len(acts)


def write_predictions_oracle(out_path, classes, chunks):
    """``evaluation.write_predictions``'s file, one ``csv.writer`` row per
    record: its id, ``repr`` of each probability, its label and its skip
    text, each looked up through the record's ending."""
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record_id", *(f"p_{c}" for c in classes), "label", "skipped_nodes"])
        record = 0
        for probs, labels, skips, skip_index, endings in chunks:
            for e in endings.tolist():
                writer.writerow([str(record), *map(repr, probs[e].tolist()),
                                 classes[labels[e]], skips[skip_index[e]]])
                record += 1
