"""Leaf-at-a-time entropy binning, the reference for the prefix-count table.

:func:`entropy_bins` keeps a list of leaf objects, rebuilds a float
one-hot matrix and its cumulative sum for each leaf it tries to split,
and counts both halves of a split with ``np.bincount``.  It shares no
code with ``rarebayes.outcomes.entropy_bins``, which reads every count
from one integer prefix-count table; the suite checks one against the
other, edge for edge.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _class_entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


class _Leaf:
    __slots__ = ("lo", "hi", "entropy", "splittable")

    def __init__(self, lo: int, hi: int, entropy: float):
        self.lo = lo
        self.hi = hi
        self.entropy = entropy
        self.splittable = True


def _best_split(values: np.ndarray, codes: np.ndarray, k: int, lo: int, hi: int):
    """Best information-gain cut inside values[lo:hi] (sorted ascending).

    Returns (gain, edge, split_index) or None when no cut exists.  Ties
    in gain resolve to the leftmost candidate cut.
    """
    seg_vals = values[lo:hi]
    n = hi - lo
    boundaries = np.nonzero(seg_vals[1:] != seg_vals[:-1])[0]  # cut after index b
    if boundaries.size == 0:
        return None
    onehot = np.zeros((n, k), dtype=np.float64)
    onehot[np.arange(n), codes[lo:hi]] = 1.0
    prefix = np.cumsum(onehot, axis=0)
    total = prefix[-1]
    left = prefix[boundaries]
    right = total - left
    n_left = boundaries + 1
    n_right = n - n_left

    def h(rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            p = rows / sizes[:, None]
            t = np.where(p > 0, p * np.log2(p), 0.0)
        return -t.sum(axis=1)

    parent = _class_entropy(total)
    gain = parent - (n_left / n) * h(left, n_left) - (n_right / n) * h(right, n_right)
    best = int(np.argmax(gain))
    b = int(boundaries[best])
    low, high = float(seg_vals[b]), float(seg_vals[b + 1])
    edge = (low + high) / 2.0
    if math.isinf(edge):
        edge = low / 2.0 + high / 2.0
    # a midpoint that rounds to the lower value (adjacent floats) cuts at the upper
    edge = edge if edge > low else high
    return float(gain[best]), edge, lo + b + 1


def entropy_bins(
    values: Sequence[float] | np.ndarray,
    labels: Sequence | np.ndarray,
    max_bins: int,
) -> tuple[float, ...]:
    """Greedy recursive information-gain binning, one leaf object at a time.

    Splits the splittable leaf with the highest class entropy (the
    leftmost on ties) at its leftmost best cut, until ``max_bins`` leaves
    or no cut has positive gain.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        _, labels = np.unique(labels, return_inverse=True)
    present = np.bincount(labels) > 0
    codes = (np.cumsum(present) - 1)[labels]
    order = np.argsort(values, kind="stable")
    values = values[order]
    codes = codes[order]
    k = int(present.sum())

    counts_all = np.bincount(codes, minlength=k).astype(np.float64)
    leaves = [_Leaf(0, len(values), _class_entropy(counts_all))]
    edges: list[float] = []
    while len(leaves) < max_bins:
        candidates = [lf for lf in leaves if lf.splittable]
        if not candidates:
            break
        leaf = max(candidates, key=lambda lf: (lf.entropy, -lf.lo))
        split = _best_split(values, codes, k, leaf.lo, leaf.hi)
        if split is None or split[0] <= 0:
            leaf.splittable = False
            continue
        _, edge, mid = split
        left_counts = np.bincount(codes[leaf.lo:mid], minlength=k).astype(np.float64)
        right_counts = np.bincount(codes[mid:leaf.hi], minlength=k).astype(np.float64)
        leaves.remove(leaf)
        leaves.append(_Leaf(leaf.lo, mid, _class_entropy(left_counts)))
        leaves.append(_Leaf(mid, leaf.hi, _class_entropy(right_counts)))
        edges.append(edge)
    return tuple(sorted(edges))
