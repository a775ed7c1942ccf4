"""Outcome alphabets (training pass 1) and supervised discretization.

Every variable gets a discrete outcome alphabet.  Categorical variables
use their observed values; continuous variables are cut into bins by
class-information gain (or equal-frequency quantiles).  Every alphabet
ends with the MISSING symbol.  Which raw cells are MISSING is decided by
the one rule in :mod:`rarebayes.dataio`: no alphabet, class or reservoir
holds a missing cell.

Pass 1 decodes each block of rows as the reader splits it: it grows the
categorical alphabets, parses the continuous cells, and codes the class
column in first-seen order with MISSING as -1; a categorical alphabet
or the class alphabet past ``MAX_CATEGORIES`` outcomes raises.  Per chunk
it then feeds each continuous variable's non-missing values from
labelled rows, with those codes, to an array-backed reservoir of
``RESERVOIR_CAPACITY`` entries: a float64 value array and an integer
code array.  The reservoir makes one draw per arrival, so its sample
does not depend on where the chunks end.  After the pass the codes
are renumbered to sorted class-symbol order, so entropy binning counts
its classes in the same columns, and so gives the same edges, as binning
on the symbols themselves.

Entropy binning sorts a variable's sample once and builds one integer
prefix-count table over it: row ``i`` holds the class counts of the
first ``i`` sorted samples.  Every leaf's class counts, and every
candidate cut's left-side counts, are differences of two of its rows.
The candidate cuts are the boundary points only (Fayyad & Irani, *On the
Handling of Continuous-Valued Attributes in Decision Tree Generation*,
Machine Learning 1992): a cut between two runs of tied values that are
both pure in the same class can never be the leftmost best cut, so it is
dropped once, before the first split.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dataio import MISSING, MISSING_CELLS, Chunk, ClassCodes, CsvDataset, parse_float_column
from .errors import CardinalityError
from .schema import Schema

# Pass 1's sizes: labelled values kept per continuous variable, and the
# most distinct outcomes a categorical variable or the class may have.
RESERVOIR_CAPACITY = 100_000
MAX_CATEGORIES = 10_000


@dataclass(frozen=True)
class VariableOutcomes:
    """Alphabet of one variable; continuous variables also carry bin edges."""

    symbols: tuple[str, ...]
    edges: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("outcome symbols must be unique")
        if MISSING not in self.symbols:
            raise ValueError("every alphabet must contain the MISSING symbol")
        if self.edges is not None and list(self.edges) != sorted(set(self.edges)):
            raise ValueError("bin edges must be strictly increasing")


@dataclass(frozen=True)
class OutcomeTable:
    """Per-variable alphabets plus the observed class alphabet."""

    class_var: str
    class_symbols: tuple[str, ...]
    variables: dict[str, VariableOutcomes] = field(default_factory=dict)

    def symbols(self, var: str) -> tuple[str, ...]:
        return self.variables[var].symbols

    def edges(self, var: str) -> tuple[float, ...] | None:
        return self.variables[var].edges


class ReservoirSample:
    """Fixed-capacity uniform sample of (value, class-code) pairs.

    Classic algorithm-R replacement (Vitter, *Random Sampling with a
    Reservoir*, ACM TOMS 1985), applied a chunk at a time: ``values`` is a
    float64 array and ``labels`` the matching integer class codes.  Each
    :meth:`extend` fills free room by slice, then makes one
    ``integers(0, arrivals)`` draw for the remaining items and applies the
    hits as one masked assignment.  That is one draw per arrival, taken
    in turn from the generator's stream, so the sample depends on the
    seed and the input order but not on how the input is split into
    :meth:`extend` calls, and the resulting bin edges do not depend on
    where the reader's chunks end.
    """

    def __init__(self, capacity: int, seed: int):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.values = np.empty(0, dtype=np.float64)
        self.labels = np.empty(0, dtype=np.int64)
        self.seen = 0

    def extend(self, values: np.ndarray, labels: np.ndarray) -> None:
        n = len(values)
        if n == 0:
            return
        take = min(self.capacity - len(self.values), n)
        if take > 0:
            self.values = np.concatenate([self.values, values[:take]])
            self.labels = np.concatenate([self.labels, labels[:take]])
        if take < n:
            # arrival index of each remaining item, 1-based over the whole stream
            arrivals = np.arange(self.seen + take + 1, self.seen + n + 1)
            slots = self._rng.integers(0, arrivals)
            hits = np.flatnonzero(slots < self.capacity)[::-1]
            # a slot drawn twice keeps the later arrival, as the one-at-a-time
            # algorithm would; fancy assignment promises no order for repeats
            slots, last = np.unique(slots[hits], return_index=True)
            src = take + hits[last]
            self.values[slots] = values[src]
            self.labels[slots] = labels[src]
        self.seen += n


def _entropy(counts: np.ndarray) -> np.ndarray:
    """Class entropy in bits of each row of a class-count matrix."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / counts.sum(axis=1, keepdims=True)
        t = np.where(p > 0, p * np.log2(p), 0.0)
    return -t.sum(axis=1)


def entropy_bins(
    values: Sequence[float] | np.ndarray,
    labels: Sequence | np.ndarray,
    max_bins: int,
) -> tuple[float, ...]:
    """Supervised binning by greedy recursive information-gain splitting.

    ``values`` and ``labels`` are parallel: a number and its class per
    sample.  Labels are integer class codes or class symbols; symbols are
    coded in sorted order, so codes that follow the sorted symbols give
    the same edges.  Repeatedly splits the leaf interval with the highest
    remaining class entropy at the candidate cut (midpoint between
    adjacent distinct sorted values) that maximizes gain (Fayyad & Irani,
    *Multi-Interval Discretization of Continuous-Valued Attributes*,
    IJCAI 1993); stops at ``max_bins`` bins or when no split has positive
    gain.  Returns strictly increasing edges.

    Both choices compare computed floats: the largest computed entropy
    or gain wins, and the leftmost wins among bit-equal ones.  Two cuts
    whose gains tie in real arithmetic can differ by rounding, and then
    the class order of the entropy sums picks the winner, so the edges
    can depend on the order of the class codes.  Pass 1 codes classes in
    sorted-symbol order, so its edges never depend on the order in which
    classes are first seen.

    Counts come from one integer prefix-count table over the sorted
    sample: leaf ``[lo, hi)`` counts ``prefix[hi] - prefix[lo]``, and a
    cut at row ``c`` (a row where the sorted value changes) leaves
    ``prefix[c] - prefix[lo]`` on its left.  One row-wise entropy scores
    leaves and cuts alike.  Rows are read only where the value changes,
    so the order of tied values, and with it the sort's stability, never
    shows.

    Only boundary points are scored: cuts whose two adjacent groups of
    tied values are not both pure in the same class.  Moving a cut
    through a run of same-class groups shifts samples of one class from
    one side to the other, and along that line the weighted child
    entropy is strictly concave (unless the whole leaf is one class, when
    no cut gains).  So in real arithmetic a cut inside the run gains
    strictly less than the better end of the run, an end that is a
    boundary point or the leaf's own edge, and the best cut is always a
    boundary point (Fayyad & Irani, Machine Learning 1992).  Leaves split
    only at group boundaries, so one filter over the whole sample serves
    every leaf.
    """
    if max_bins < 1:
        raise ValueError("max_bins must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.size == 0:
        raise ValueError("entropy_bins requires at least one sample")
    if labels.shape != values.shape:
        raise ValueError("entropy_bins needs one label per value")
    if labels.dtype.kind not in "iu":
        _, labels = np.unique(labels, return_inverse=True)
    # count columns for the labels present only, in code order
    present = np.bincount(labels) > 0
    codes = (np.cumsum(present) - 1)[labels]
    order = np.argsort(values)
    values = values[order]
    codes = codes[order]
    n, k = len(values), int(present.sum())
    prefix = np.zeros((n + 1, k), dtype=np.int64)
    np.cumsum(codes[:, None] == np.arange(k), axis=0, out=prefix[1:])
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    # keep the boundary points: drop a cut between two groups pure in one class
    low = np.minimum.reduceat(codes, starts)
    high = np.maximum.reduceat(codes, starts)
    pure = low == high
    same_pure = pure[:-1] & pure[1:] & (low[:-1] == low[1:])
    cuts = starts[1:][~same_pure]

    # splittable leaves (lo, hi) -> class entropy
    leaves = {(0, n): _entropy(prefix[n:])[0]}
    edges: list[float] = []
    while leaves and len(edges) + 1 < max_bins:
        # highest remaining entropy first; ties go to the leftmost leaf
        lo, hi = max(leaves, key=lambda leaf: (leaves[leaf], -leaf[0]))
        parent = leaves.pop((lo, hi))
        first, stop = np.searchsorted(cuts, (lo + 1, hi))
        inner = cuts[first:stop]
        if inner.size == 0:
            continue
        h_left = _entropy(prefix[inner] - prefix[lo])
        h_right = _entropy(prefix[hi] - prefix[inner])
        size = hi - lo
        gain = parent - (inner - lo) / size * h_left - (hi - inner) / size * h_right
        best = int(np.argmax(gain))
        if gain[best] <= 0:
            continue
        mid = int(inner[best])
        edges.append(_cut(float(values[mid - 1]), float(values[mid])))
        leaves[(lo, mid)] = h_left[best]
        leaves[(mid, hi)] = h_right[best]
    return tuple(sorted(edges))


def _cut(a: float, b: float) -> float:
    """The edge between adjacent distinct sample values ``a < b``: their
    midpoint (halves summed when ``a + b`` overflows), or ``b`` when the
    midpoint rounds to ``a``, as it does between adjacent floats.  So
    ``a < edge <= b``, and each value bins on its own side of the cut."""
    mid = (a + b) / 2.0
    if math.isinf(mid):
        mid = a / 2.0 + b / 2.0
    return mid if mid > a else b


def quantile_bins(
    values: Iterable[float] | np.ndarray, max_bins: int
) -> tuple[float, ...]:
    """Equal-frequency edges at the i/max_bins quantiles, duplicates dropped."""
    if max_bins < 1:
        raise ValueError("max_bins must be >= 1")
    if not isinstance(values, np.ndarray):
        values = list(values)
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise ValueError("quantile_bins requires at least one sample")
    if max_bins == 1:
        return ()
    qs = np.quantile(arr, np.arange(1, max_bins) / max_bins)
    edges = sorted(set(float(q) for q in qs))
    # an edge at or below the minimum would create a permanently empty first bin
    lo = float(arr.min())
    return tuple(e for e in edges if e > lo)


def bin_symbol(index: int) -> str:
    return f"bin{index}"


def variable_seed(base_seed: int, name: str) -> int:
    """Stable per-variable RNG seed derived from the training seed."""
    digest = hashlib.sha256(f"{base_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def collect_outcomes(
    schema: Schema,
    dataset: CsvDataset,
    *,
    seed: int = 0,
) -> OutcomeTable:
    """Build every variable's outcome alphabet in exactly one dataset pass.

    Categorical alphabets are the observed values plus MISSING, capped at
    ``MAX_CATEGORIES``; so is the class alphabet, checked per block before
    any reservoir or binning table is sized by it.  Continuous variables
    keep a class-labeled reservoir (per-variable, capacity
    ``RESERVOIR_CAPACITY``) and are cut by their declared discretizer
    afterwards.  Records whose class value is missing still contribute
    categorical outcomes but are excluded from the supervised reservoirs.
    """
    cat_vars = [v.name for v in schema.categorical_vars]
    cont_vars = [v.name for v in schema.continuous_vars]
    observed: dict[str, set[str]] = {name: set() for name in cat_vars}
    class_coder = ClassCodes()
    reservoirs = {
        name: ReservoirSample(RESERVOIR_CAPACITY, variable_seed(seed, name))
        for name in cont_vars
    }

    def decode(block: Chunk) -> dict[str, np.ndarray]:
        """Class codes and continuous values of a block; alphabets grow here."""
        # codes in first-seen order, stable across blocks; MISSING is -1
        class_codes = class_coder(block.columns[schema.class_var])
        if len(class_coder.labels) > MAX_CATEGORIES:
            raise CardinalityError(
                f"class variable {schema.class_var!r} exceeds "
                f"{MAX_CATEGORIES} distinct outcomes"
            )
        for name in cat_vars:
            observed[name].update(block.columns[name])
            observed[name].difference_update(MISSING_CELLS)
            if len(observed[name]) > MAX_CATEGORIES:
                raise CardinalityError(
                    f"variable {name!r} exceeds {MAX_CATEGORIES} distinct outcomes"
                )
        decoded = {name: parse_float_column(block.columns[name]) for name in cont_vars}
        decoded[schema.class_var] = class_codes
        return decoded

    # the group key is not decoded here, so it is not read either
    wanted = [*schema.var_names, schema.class_var]
    for chunk in dataset.iter_chunks(wanted, decode=decode):
        class_codes = chunk.columns[schema.class_var]
        class_ok = class_codes >= 0
        for name in cont_vars:
            values = chunk.columns[name]
            labeled = ~np.isnan(values) & class_ok
            if labeled.any():
                reservoirs[name].extend(values[labeled], class_codes[labeled])

    first_seen = class_coder.labels
    class_symbols = tuple(sorted(first_seen))
    # reservoir labels carry first-seen codes; binning wants sorted-symbol codes
    rank = {sym: i for i, sym in enumerate(class_symbols)}
    to_sorted = np.array([rank[sym] for sym in first_seen], dtype=np.int64)
    variables: dict[str, VariableOutcomes] = {}
    for spec in schema.field_vars:
        if spec.kind == "categorical":
            variables[spec.name] = VariableOutcomes(
                symbols=tuple(sorted(observed[spec.name])) + (MISSING,)
            )
        else:
            res = reservoirs[spec.name]
            if res.seen == 0:
                edges: tuple[float, ...] = ()
            elif spec.discretizer == "quantile":
                edges = quantile_bins(res.values, schema.max_bins)
            else:
                edges = entropy_bins(res.values, to_sorted[res.labels], schema.max_bins)
            symbols = tuple(bin_symbol(i) for i in range(len(edges) + 1)) + (MISSING,)
            variables[spec.name] = VariableOutcomes(symbols=symbols, edges=edges)

    return OutcomeTable(
        class_var=schema.class_var,
        class_symbols=class_symbols,
        variables=variables,
    )

