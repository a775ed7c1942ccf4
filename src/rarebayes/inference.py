"""Class posteriors by direct factor multiplication, with degeneracy pruning.

One kernel, :func:`score_codes`, applies the update rule to a block of
rows at once; :func:`posterior` is a batch of one and batch scoring runs
it per chunk.  Evidence is incorporated in descending rank order.  A node
is skipped when its value is MISSING, when its parent configuration row
carries no training data (``unseen-config``), or when the renormalized
candidate posterior would leave some class probability outside the open
interval (0, 1) (``pruned``) -- that covers exact zeros and a class that
floating point rounds to exactly 1.  A pruned node behaves exactly as if
the observation were missing, so every posterior stays strictly inside
(0, 1).  The posterior is renormalized after every accepted node.

The update is masked rather than gathered: for each ranked node the
kernel forms the renormalized candidate ``p * likelihood`` for every row,
sets the node's skip column from the missing, unseen and pruning masks,
and keeps the candidate only where that column is 0.  Each row goes
through the same arithmetic as when scored alone, so posteriors and skip
codes do not depend on the batch.

The kernel also returns an ``int8`` skip matrix, one column per ranked
node, holding the index of the node's reason in :data:`SKIP_REASONS`
(0 = incorporated).  Every code comes from the model's one codebook,
``model.encoder`` (:class:`~rarebayes.structure.Encoder`): symbols for
:func:`posterior`, raw cells for :func:`symbolize` and batch scoring.
Batch scoring reads, encodes and lags only the variables the model's
nodes name.  One batch-only leniency: a
categorical value never seen in training maps to MISSING instead of
raising, since streams routinely grow new outcomes after training.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .dataio import MISSING, CsvDataset, as_dataset, csv_cell, missing_mask, write_rows
from .errors import ConfigError, EvidenceError
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


def score_codes(
    model: NetworkModel, codes: dict[str, np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The update rule for ``n`` rows given a code column per ranked node.

    Returns the ``(n, classes)`` posteriors and the ``(n, ranked nodes)``
    ``int8`` skip matrix whose entries index :data:`SKIP_REASONS`.
    """
    missing = model.encoder.missing
    p = np.tile(model.prior, (n, 1))
    skip = np.zeros((n, len(model.ranked_fields)), dtype=np.int8)
    for j, rf in enumerate(model.ranked_fields):
        child = codes[rf.node]
        parent = model.parents[rf.node]
        cpt = model.cpts[rf.node]
        if parent is None:
            likelihood = cpt.probs.T[child]
            unseen = bool(cpt.unseen.any())
        else:
            pcode = codes[parent]
            pmiss = pcode == missing[node_var_slot(parent)[0]]
            fb = model.fallbacks[rf.node]
            likelihood = np.where(
                pmiss[:, None], fb.probs.T[child], cpt.probs.T[child, pcode]
            )
            unseen = np.where(pmiss, bool(fb.unseen.any()), cpt.unseen.any(axis=0)[pcode])
        cand = p * likelihood
        with np.errstate(divide="ignore", invalid="ignore"):
            cand /= cand.sum(axis=1, keepdims=True)
        inside = ((cand > 0.0) & (cand < 1.0)).all(axis=1)
        skip[:, j] = np.where(
            child == missing[rf.var], _MISSING_CODE,
            np.where(unseen, _UNSEEN_CODE, np.where(inside, 0, _PRUNED_CODE)),
        )
        p = np.where((skip[:, j] == 0)[:, None], cand, p)
    return p, skip


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


def _positive_index(model: NetworkModel, positive: str | None) -> tuple[str, int]:
    """The positive class (default: the rare class) and its column."""
    positive = positive or model.rare_class()
    if positive not in model.class_symbols:
        raise ConfigError(f"unknown positive class {positive!r}")
    return positive, model.class_symbols.index(positive)


def _check_threshold(threshold: float) -> None:
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
    _check_threshold(threshold)
    _, pos_idx = _positive_index(model, positive)
    post = posterior(model, case)
    label = _label_columns(post.probabilities[None], pos_idx, threshold)[0]
    return model.class_symbols[label], post


# -- batch scoring -----------------------------------------------------------


@dataclass
class ScoredChunk:
    """Scores for one block of records, ids starting at ``offset``."""

    offset: int
    probabilities: np.ndarray           # (rows, classes)
    skipped: np.ndarray                 # (rows, ranked nodes) int8 skip matrix
    actuals: list[str] | None           # raw class column when present


def iter_scored(
    model: NetworkModel,
    data: str | Path | CsvDataset,
    *,
    chunk_rows: int = 65536,
) -> Iterator[ScoredChunk]:
    """Score every well-formed record of a CSV in file order.

    The header must hold every schema column, but only the model's nodes
    are read.  The class column is optional here; when present its raw
    values ride along so evaluation can line up with record ids.
    """
    ds = as_dataset(data)
    schema = model.schema
    ds.require_columns(ds.schema_columns(schema, require_class=False))
    nodes = [rf.node for rf in model.ranked_fields]
    offset = 0
    for chunk, codes, _ in model.encoder.node_chunks(ds, nodes, chunk_rows):
        probs, skip = score_codes(model, codes, chunk.size)
        yield ScoredChunk(offset=offset, probabilities=probs, skipped=skip,
                          actuals=chunk.columns.get(schema.class_var))
        offset += chunk.size


def _skip_patterns(nodes: Sequence[str], skipped: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct rows of an ``int8`` skip matrix, each rendered once as
    semicolon-joined ``node:reason`` for its non-zero entries, and the
    index of each row's pattern.

    Each row gets a dense pattern id, folded in over blocks of columns:
    the previous id and the block's entries as base-4 digits make one
    ``int64`` key, so one ``np.unique`` per block of up to 31 columns
    replaces any row-wise sort.
    """
    n, width = skipped.shape
    ids = np.zeros(n, dtype=np.int64)
    first = np.zeros(min(n, 1), dtype=np.intp)
    col = 0
    while col < width:
        # ids < len(first) <= 2**bits, so ids * 4**w + digits < 2**63
        bits = (len(first) - 1).bit_length()
        w = min(width - col, (63 - bits) // 2)
        digits = skipped[:, col:col + w].astype(np.int64) @ (4 ** np.arange(w, dtype=np.int64))
        _, first, ids = np.unique(
            ids * 4 ** w + digits, return_index=True, return_inverse=True
        )
        col += w
    rendered = [
        ";".join(f"{node}:{SKIP_REASONS[c]}" for node, c in zip(nodes, row) if c)
        for row in skipped[first].tolist()
    ]
    return rendered, ids


def skip_strings(nodes: Sequence[str], skipped: np.ndarray) -> np.ndarray:
    """The ``skipped_nodes`` cell of each row of an ``int8`` skip matrix:
    semicolon-joined ``node:reason`` for its non-zero entries."""
    rendered, ids = _skip_patterns(nodes, skipped)
    return np.array(rendered, dtype=object)[ids]


def classify_file(
    model: NetworkModel,
    data: str | Path | CsvDataset,
    out_path: str | Path,
    threshold: float,
    positive: str | None = None,
    *,
    chunk_rows: int = 65536,
) -> dict:
    """Score a CSV and write the classification file.

    Output columns: record_id, one ``p_<class>`` per class (full float
    precision), label, skipped_nodes (semicolon-joined ``name:reason``).
    Returns a summary dict with row and label counts.
    """
    _check_threshold(threshold)
    positive, pos_idx = _positive_index(model, positive)
    nodes = [rf.node for rf in model.ranked_fields]
    symbols = np.array(list(map(csv_cell, model.class_symbols)), dtype=object)
    rows = 0
    flagged = 0
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(
            ["record_id"]
            + [f"p_{c}" for c in model.class_symbols]
            + ["label", "skipped_nodes"]
        )
        for scored in iter_scored(model, data, chunk_rows=chunk_rows):
            labels = _label_columns(scored.probabilities, pos_idx, threshold)
            rendered, pattern = _skip_patterns(nodes, scored.skipped)
            write_rows(fh, [
                map(str, range(scored.offset, scored.offset + len(labels))),
                *(map(repr, col) for col in scored.probabilities.T.tolist()),
                symbols[labels].tolist(),
                np.array(list(map(csv_cell, rendered)), dtype=object)[pattern].tolist(),
            ])
            rows += len(labels)
            flagged += int((labels == pos_idx).sum())
    return {"rows": rows, "positive": positive, "flagged": flagged,
            "threshold": threshold}


def collect_scores(
    model: NetworkModel,
    data: str | Path | CsvDataset,
    positive: str | None = None,
    *,
    chunk_rows: int = 65536,
) -> tuple[np.ndarray, list[str]]:
    """P(positive) per record plus the actual labels, for threshold sweeps.

    Requires the class column; records whose actual label is missing are
    dropped from both outputs.
    """
    _, pos_idx = _positive_index(model, positive)
    ds = as_dataset(data)
    ds.require_columns([model.schema.class_var])
    scores: list[np.ndarray] = []
    actuals: list[str] = []
    for scored in iter_scored(model, ds, chunk_rows=chunk_rows):
        assert scored.actuals is not None
        keep = ~missing_mask(scored.actuals)
        scores.append(scored.probabilities[keep, pos_idx])
        actuals.extend(compress(scored.actuals, keep))
    if not scores:
        return np.empty(0), []
    return np.concatenate(scores), actuals
