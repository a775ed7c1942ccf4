"""Class posteriors by direct factor multiplication, with degeneracy pruning.

One kernel, :func:`score_codes`, applies the update rule to a block of
rows at once; :func:`posterior` is a batch of one.  Batch scoring gives
each row of a chunk a dense id over its ranked nodes' codes
(:func:`_dense_ids`) and scores each distinct configuration once, which
``classify`` writes as one row ending that the rows' ids pick
(:func:`~rarebayes.evaluation.write_predictions`).  Evidence is
incorporated in descending rank order.  A node reads its CPT row for its
field parents' codes, or its class-only fallback table wherever any of
those parents is MISSING.  A node is skipped when its value
is MISSING, when its parent configuration row carries no training data
(``unseen-config``), or when the renormalized candidate posterior would
leave some class probability outside the open interval (0, 1)
(``pruned``) -- that covers exact zeros and a class that floating point
rounds to exactly 1.  A pruned node behaves exactly as if
the observation were missing, so every posterior stays strictly inside
(0, 1).  The posterior is renormalized after every accepted node.

The update is masked rather than gathered: for each ranked node the
kernel forms the renormalized candidate ``p * likelihood`` for every row,
sets the node's skip column from the missing, unseen and pruning masks,
and keeps the candidate only where that column is 0.  The kernel holds
``p`` class-major, one contiguous row per class, so the class sum and the
pruning test run along whole rows; it returns the transposed view.  Each
row's classes are summed in the order numpy sums one row of
``(rows, classes)`` -- one after another below 8 classes, pairwise from 8
on -- so each row goes through the same arithmetic as when scored alone,
and posteriors and skip codes do not depend on the batch.

The kernel also returns an ``int8`` skip matrix, one column per ranked
node, holding the index of the node's reason in :data:`SKIP_REASONS`
(0 = incorporated).  Every code comes from the model's one codebook,
``model.encoder`` (:class:`~rarebayes.structure.Encoder`): symbols for
:func:`posterior`, raw cells for :func:`symbolize` and batch scoring,
and the actual labels a threshold sweep counts.  Batch scoring reads,
encodes and lags only the variables the model's nodes name.  One
batch-only leniency: a categorical value never seen in training maps to MISSING instead of
raising, since streams routinely grow new outcomes after training.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dataio import MISSING, CsvDataset, as_dataset
from .errors import ConfigError, EvidenceError
from .evaluation import grid_buckets, write_predictions
from .infometrics import count_table
from .structure import NetworkModel
from .windows import CaseRecord, node_var_slot

SKIP_MISSING = "missing"
SKIP_PRUNED = "pruned"
SKIP_UNSEEN = "unseen-config"
# Skip-matrix code -> reason; code 0 marks an incorporated node.
SKIP_REASONS = ("", SKIP_MISSING, SKIP_UNSEEN, SKIP_PRUNED)
_MISSING_CODE, _UNSEEN_CODE, _PRUNED_CODE = map(
    SKIP_REASONS.index, (SKIP_MISSING, SKIP_UNSEEN, SKIP_PRUNED)
)


@dataclass
class ClassPosterior:
    """Normalized class probabilities plus the skipped-node log."""

    classes: tuple[str, ...]
    probabilities: np.ndarray
    skipped: list[tuple[str, str]]
    order: list[str]

    def prob(self, label: str) -> float:
        return float(self.probabilities[self.classes.index(label)])

    def as_dict(self) -> dict[str, float]:
        return {c: float(p) for c, p in zip(self.classes, self.probabilities)}


def _symbol_code(model: NetworkModel, var: str, symbol: str) -> int:
    try:
        return model.encoder.codes[var][symbol]
    except KeyError:
        raise EvidenceError(
            f"value {symbol!r} is not in the alphabet of variable {var!r}"
        ) from None


def symbolize(model: NetworkModel, record: dict[str, str]) -> dict[str, str]:
    """Map a raw record to outcome symbols through ``model.encoder``.

    Continuous values are binned by the trained edges; categorical values
    never seen in training become MISSING, as in batch scoring.
    """
    out: dict[str, str] = {}
    for spec in model.schema.field_vars:
        code = model.encoder.encode_var(spec.name, [record.get(spec.name, MISSING)])[0]
        out[spec.name] = model.outcomes.symbols(spec.name)[code]
    return out


def _class_sum(p: np.ndarray) -> np.ndarray:
    """Column sums of a class-major ``(classes, n)`` array, each added in the
    order numpy sums one row of ``p.T``: one class after another below 8
    classes, pairwise from 8 on."""
    if len(p) < 8:
        return p.sum(axis=0)
    return np.ascontiguousarray(p.T).sum(axis=1)


def score_codes(
    model: NetworkModel, codes: dict[str, np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The update rule for ``n`` rows given a code column per ranked node.

    Returns the ``(n, classes)`` posteriors and the ``(n, ranked nodes)``
    ``int8`` skip matrix whose entries index :data:`SKIP_REASONS`.
    """
    missing = model.encoder.missing
    p = np.repeat(model.prior[:, None], n, axis=1)
    skip = np.zeros((n, len(model.ranked_fields)), dtype=np.int8)
    for j, rf in enumerate(model.ranked_fields):
        child = codes[rf.node]
        cpt, fb = model.cpts[rf.node], model.fallbacks[rf.node]
        # a column per (parent configuration, child), configurations mixed-radix;
        # the fallback's columns come last, read where any parent is MISSING
        k, *radices, size = cpt.probs.shape
        table = np.concatenate([cpt.probs.reshape(k, -1), fb.probs], axis=1)
        unseen = np.append(cpt.unseen.any(axis=0), fb.unseen.any())
        config, fallback = np.intp(0), False
        for parent, radix in zip(model.parents[rf.node], radices):
            pcode = codes[parent]
            config = config * radix + pcode
            fallback = fallback | (pcode == missing[node_var_slot(parent)[0]])
        config = np.where(fallback, len(unseen) - 1, config)
        unseen = unseen[config]
        cand = p * np.take(table, config * size + child, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand /= _class_sum(cand)
        inside = np.logical_and.reduce((cand > 0.0) & (cand < 1.0), axis=0)
        skip[:, j] = np.where(
            child == missing[rf.var], _MISSING_CODE,
            np.where(unseen, _UNSEEN_CODE, np.where(inside, 0, _PRUNED_CODE)),
        )
        p = np.where(skip[:, j] == 0, cand, p)
    return p.T, skip


def posterior(model: NetworkModel, case: CaseRecord) -> ClassPosterior:
    """Single-case posterior: :func:`score_codes` on a batch of one.

    Raises :class:`EvidenceError` for the first ranked node, in rank order,
    whose symbol is not in its variable's alphabet.
    """
    codes = {
        rf.node: np.array([_symbol_code(model, rf.var, case.get(rf.node))])
        for rf in model.ranked_fields
    }
    probs, skip = score_codes(model, codes, 1)
    nodes = [rf.node for rf in model.ranked_fields]
    return ClassPosterior(
        classes=model.class_symbols,
        probabilities=probs[0],
        skipped=[(node, SKIP_REASONS[c]) for node, c in zip(nodes, skip[0]) if c],
        order=[node for node, c in zip(nodes, skip[0]) if not c],
    )


def positive_index(model: NetworkModel, positive: str | None) -> tuple[str, int]:
    """The positive class (default: the rare class) and its column."""
    if positive is None:
        positive = model.rare_class()
    if positive not in model.class_symbols:
        raise ConfigError(f"unknown positive class {positive!r}")
    return positive, model.class_symbols.index(positive)


def check_threshold(threshold: float) -> None:
    """Raise unless ``0 <= threshold <= 1``, which NaN fails."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold}")


def _label_columns(probs: np.ndarray, pos_idx: int, threshold: float) -> np.ndarray:
    """Class column per row: the positive class when its probability reaches
    ``threshold``, else the likeliest other class (the first one on ties)."""
    rest = probs.copy()
    rest[:, pos_idx] = -np.inf
    return np.where(probs[:, pos_idx] >= threshold, pos_idx, rest.argmax(axis=1))


def classify(
    model: NetworkModel,
    case: CaseRecord,
    threshold: float,
    positive: str | None = None,
) -> tuple[str, ClassPosterior]:
    """Label a case: positive iff P(positive | case) >= threshold."""
    check_threshold(threshold)
    _, pos_idx = positive_index(model, positive)
    post = posterior(model, case)
    label = _label_columns(post.probabilities[None], pos_idx, threshold)[0]
    return model.class_symbols[label], post


# -- batch scoring -----------------------------------------------------------


@dataclass
class ScoredChunk:
    """Scores for one block of records, in file order.

    The kernel ran once per distinct node configuration; ``inverse``
    gives each row its configuration, and the per-row views expand
    through it.
    """

    config_probabilities: np.ndarray    # (configurations, classes)
    config_skipped: np.ndarray          # (configurations, ranked nodes) int8 skip matrix
    inverse: np.ndarray                 # (rows,) configuration of each row
    actuals: np.ndarray | None          # (rows,) model.encoder class codes, or None

    @property
    def probabilities(self) -> np.ndarray:
        """(rows, classes) posteriors."""
        return self.config_probabilities[self.inverse]

    @property
    def skipped(self) -> np.ndarray:
        """(rows, ranked nodes) ``int8`` skip matrix."""
        return self.config_skipped[self.inverse]


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


def iter_scored(
    model: NetworkModel,
    data: str | Path | CsvDataset,
    *,
    labels: bool = False,
) -> Iterator[ScoredChunk]:
    """Score every well-formed record of a CSV in file order.

    The header must hold every schema column, but only the model's nodes
    are read, and the class column only with ``labels``: then each
    chunk's ``actuals`` holds its records' class codes
    (:meth:`~rarebayes.structure.Encoder.encode_class`).  Each chunk's
    distinct node configurations are scored once; the kernel's rows do
    not depend on their batch, so this changes no result.
    """
    ds = as_dataset(data)
    ds.require_columns(model.schema.columns(require_class=labels))
    nodes = [rf.node for rf in model.ranked_fields]
    radices = [model.encoder.sizes[rf.var] for rf in model.ranked_fields]
    for n, codes, actuals in model.encoder.node_chunks(ds, nodes, labels):
        first, inverse = _dense_ids(n, [codes[node] for node in nodes], radices)
        probs, skip = score_codes(
            model, {node: codes[node][first] for node in nodes}, len(first)
        )
        yield ScoredChunk(config_probabilities=probs, config_skipped=skip,
                          inverse=inverse, actuals=actuals)


def _skip_patterns(nodes: Sequence[str], skipped: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct rows of an ``int8`` skip matrix, each rendered once as
    semicolon-joined ``node:reason`` for its non-zero entries, and the
    index of each row's pattern."""
    n, width = skipped.shape
    first, ids = _dense_ids(n, skipped.T, [len(SKIP_REASONS)] * width)
    rendered = [
        ";".join(f"{node}:{SKIP_REASONS[c]}" for node, c in zip(nodes, row) if c)
        for row in skipped[first].tolist()
    ]
    return rendered, ids


def classify_file(
    model: NetworkModel,
    data: str | Path | CsvDataset,
    out_path: str | Path,
    threshold: float,
    positive: str | None = None,
) -> dict:
    """Score a CSV and write its prediction file; return a summary dict with
    row and label counts.  A skipped_nodes cell joins ``name:reason`` by ``;``.
    """
    check_threshold(threshold)
    positive, pos_idx = positive_index(model, positive)
    nodes = [rf.node for rf in model.ranked_fields]
    counts = write_predictions(out_path, model.class_symbols, (
        (scored.config_probabilities,
         _label_columns(scored.config_probabilities, pos_idx, threshold),
         *_skip_patterns(nodes, scored.config_skipped), scored.inverse)
        for scored in iter_scored(model, data)))
    return {"rows": int(counts.sum()), "positive": positive,
            "flagged": int(counts[pos_idx]), "threshold": threshold}


def count_scores(
    model: NetworkModel,
    data: str | Path | CsvDataset,
    grid: Sequence[float],
    positive: str | None = None,
) -> np.ndarray:
    """A threshold sweep's count table: records per (grid bucket, actual is
    positive), ``(len(grid) + 1, 2)``, for :func:`~rarebayes.evaluation.sweep_rows`.

    Requires the class column; a label never seen in training counts as
    negative, and records whose actual label is MISSING are not counted.
    Each chunk's distinct configurations are bucketed once by their
    P(positive) (:func:`~rarebayes.evaluation.grid_buckets`) and the
    chunk's rows counted through their configuration, so no per-record
    object is held.
    """
    _, pos_idx = positive_index(model, positive)
    table = np.zeros((len(grid) + 1, 2), dtype=np.int64)
    for scored in iter_scored(model, data, labels=True):
        buckets = grid_buckets(scored.config_probabilities[:, pos_idx], grid)
        keep = scored.actuals <= len(model.class_symbols)  # MISSING codes k+1
        actual = scored.actuals[keep] == pos_idx
        table += count_table([buckets[scored.inverse[keep]], actual], table.shape)
    return table
