"""The counting engine, dense row ids, entropy, MI, conditional MI, and
cumulative selection.

:func:`count_table` counts rows per cell and :func:`_dense_ids` numbers
distinct rows: they are the package's two mixed-radix folds of integer
code columns.  Batch scoring and the prediction writer dedupe rows by
the second.

All quantities are computed from empirical (maximum-likelihood) cell
frequencies in bits (log base 2).  Selection depends only on score order
and ratios of sums, so it is invariant to the logarithm base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_SUM_TOL = 1e-9


def count_table(columns: Sequence[np.ndarray], shape: Sequence[int]) -> np.ndarray:
    """The package's one counting engine: rows per cell of ``shape``, column j
    holding integer codes in ``range(shape[j])``.  The columns fold mixed-radix,
    axis 0 most significant, from an ``intp`` operand, so ``uint8``, ``uint16``
    and ``bool`` codes cannot wrap; one ``np.bincount`` counts every cell."""
    flat = np.asarray(columns[0], dtype=np.intp)
    for col, size in zip(columns[1:], shape[1:], strict=True):
        flat = flat * size + col
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)


def _dense_ids(
    n: int, columns: Iterable[np.ndarray], radices: Iterable[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for ``n`` rows given as integer ``columns``, column j holding
    values in ``range(radices[j])``; each radix times ``n`` must fit in 2**63.

    Returns ``(first, inverse)``: the first row of each distinct row and
    each row's id, equal rows sharing an id.  The columns fold into one
    ``int64`` key as mixed-radix digits; whenever the next digit could push
    the key past 2**63, one ``np.unique`` renumbers the keys densely, so no
    row-wise sort is needed however wide the rows are.  The final key takes
    one unstable sort, and each id's first row is the least row index
    carrying it, by ``np.minimum.at``.
    """
    key = np.zeros(n, dtype=np.int64)
    bound = 1                           # key < bound, in Python ints
    for col, radix in zip(columns, radices, strict=True):
        if bound * radix > 2 ** 63:
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct)
        key = key * radix + col
        bound *= radix
    distinct, inverse = np.unique(key, return_inverse=True)
    first = np.full(len(distinct), n, dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(n))
    return first, inverse


@dataclass(frozen=True)
class MIScore:
    """A mutual-information score attached to a variable or variable pair."""

    subject: str | tuple[str, str]
    value: float


def entropy(dist: Sequence[float]) -> float:
    """Shannon entropy of a probability vector, with 0*log(0) == 0.

    Entries must be nonnegative and sum to 1 within 1e-9.
    """
    p = np.asarray(dist, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("probability entries must be nonnegative")
    if abs(p.sum() - 1.0) > _SUM_TOL:
        raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
    nz = p[p > 0]
    return float(-(nz * (np.log(nz) / np.log(2.0))).sum())


def _mi_from_array(counts: np.ndarray) -> float:
    n = counts.sum()
    p = counts / n
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    ratio = p[mask] / (px @ py)[mask]
    return float((p[mask] * (np.log(ratio) / np.log(2.0))).sum())


def _checked_counts(counts: np.ndarray, ndim: int, what: str) -> np.ndarray:
    """``counts`` as float64, raising unless it is an ``ndim``-way table of
    nonnegative counts holding at least one count."""
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{what} expects a {ndim}-way table, got {arr.ndim} axes")
    if np.any(arr < 0):
        raise ValueError("counts must be nonnegative")
    if arr.sum() == 0:
        raise ValueError(f"{what} of an empty table is undefined")
    return arr


def mutual_information(counts: np.ndarray) -> float:
    """MI between the two axes of a 2-way count table, from empirical frequencies.

    Zero-count cells contribute nothing.  Raises on an empty table.
    """
    return _mi_from_array(_checked_counts(counts, 2, "mutual_information"))


def conditional_mutual_information(counts: np.ndarray) -> float:
    """MI between axes 1 and 2 of a 3-way count table averaged over the
    conditioning axis 0 (the class).

    CMI = sum_c p(c) * MI(axis1; axis2 | c), each inner MI from the
    conditional slice.  Raises on an empty table.
    """
    counts = _checked_counts(counts, 3, "conditional_mutual_information")
    total = counts.sum()
    cmi = 0.0
    for slice_ in counts:
        slice_total = slice_.sum()
        if slice_total == 0:
            continue
        cmi += (slice_total / total) * _mi_from_array(slice_)
    return float(cmi)


def select_by_cumulative(scores: Sequence[MIScore], t: float) -> list[MIScore]:
    """Greedy cumulative-fraction selection of fields (the ``t_prime`` threshold).

    Sorts scores descending (stable, so ties keep their input order),
    then accumulates until cumulative/total >= ``t``.  Zero or negative
    scores are never selected; an all-zero list selects nothing.  Edge
    selection (``t_field``) keeps its own loop,
    :func:`structure.select_dependencies`, because it also skips pairs
    whose child has no parent slot left.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {t}")
    total = sum(s.value for s in scores)
    if total <= 0:
        return []
    ranked = sorted(scores, key=lambda s: s.value, reverse=True)
    selected: list[MIScore] = []
    cum = 0.0
    for score in ranked:
        if score.value <= 0:
            break
        selected.append(score)
        cum += score.value
        if cum / total >= t:
            break
    return selected
