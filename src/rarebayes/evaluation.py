"""Imbalanced-classification reporting: F/C/V rows and threshold sweeps.

F is the percentage of actual-negative records falsely flagged positive
(100*FP/N), C the percentage of actual positives captured (100*TP/P),
and V the volume ratio of false to true positives formatted ``x.x:1``.
Counts are exact integers; only the presentation rounds, half-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import repeat
from operator import eq
from typing import Sequence

import numpy as np

from .errors import EvaluationError


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


def confusion(
    predictions: Sequence[str],
    actuals: Sequence[str],
    positive: str,
    negative: str | None = None,
) -> ConfusionCounts:
    """Standard cell counts with an explicit positive class.

    Labels must be two-valued; when ``negative`` is omitted it is
    inferred as the single non-positive label present.
    """
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


def default_grid(start: float = 0.10, stop: float = 0.90, step: float = 0.05) -> list[float]:
    """Threshold grid built by integer stepping to dodge float drift."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise EvaluationError(
            f"grid start, stop and step must be finite, got {start}:{stop}:{step}"
        )
    if step <= 0:
        raise EvaluationError(f"grid step must be positive, got {step}")
    grid = []
    i = 0
    while True:
        t = round(start + i * step, 10)
        if t > stop + 1e-9:
            break
        grid.append(t)
        i += 1
    return grid


def sweep(
    posteriors: Sequence[float],
    actuals: Sequence[str],
    positive: str,
    grid: Sequence[float] | None = None,
) -> list[FCVRow]:
    """One FCVRow per threshold using the >=-threshold rule, ordered by threshold.

    The grid must be strictly increasing inside (0, 1); the default is
    0.10 to 0.90 in steps of 0.05.
    """
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
    out = [list(SWEEP_CSV_HEADER)]
    for r in rows:
        out.append(
            [
                threshold_label(r.threshold),
                r.f_pct_str(),
                r.c_pct_str(),
                r.volume,
                str(r.tp),
                str(r.fp),
                str(r.tn),
                str(r.fn),
                f"{r.accuracy:.6f}",
            ]
        )
    return out
