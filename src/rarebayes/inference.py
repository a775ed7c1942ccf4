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

The kernel also returns an ``int8`` skip matrix, one column per ranked
node, holding the index of the node's reason in :data:`SKIP_REASONS`
(0 = incorporated).  Batch scoring reads, encodes and lags only the
variables the model's nodes name.  One batch-only leniency: a
categorical value never seen in training maps to MISSING instead of
raising, since streams routinely grow new outcomes after training.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .dataio import MISSING, CsvDataset, as_dataset
from .errors import ConfigError, EvidenceError
from .structure import Encoder, NetworkModel
from .windows import CaseRecord, node_var_slot

SKIP_MISSING = "missing"
SKIP_PRUNED = "pruned"
SKIP_UNSEEN = "unseen-config"
# Skip-matrix code -> reason; code 0 marks an incorporated node.
SKIP_REASONS = ("", SKIP_MISSING, SKIP_UNSEEN, SKIP_PRUNED)


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
        return model.symbol_index[var][symbol]
    except KeyError:
        raise EvidenceError(
            f"value {symbol!r} is not in the alphabet of variable {var!r}"
        ) from None


def symbolize(model: NetworkModel, record: dict[str, str]) -> dict[str, str]:
    """Map a raw record to outcome symbols using the model's alphabets.

    Continuous values are binned by the trained edges; categorical values
    never seen in training become MISSING, mirroring the batch scorer.
    """
    from .outcomes import discretize

    out: dict[str, str] = {}
    for spec in model.schema.field_vars:
        raw = record.get(spec.name, MISSING)
        if spec.kind == "continuous":
            edges = model.outcomes.edges(spec.name) or ()
            try:
                out[spec.name] = discretize(raw, edges)
            except ValueError:
                out[spec.name] = MISSING
        else:
            out[spec.name] = raw if raw in model.symbol_index[spec.name] else MISSING
    return out


def score_codes(
    model: NetworkModel, codes: dict[str, np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The update rule for ``n`` rows given a code column per ranked node.

    Returns the ``(n, classes)`` posteriors and the ``(n, ranked nodes)``
    ``int8`` skip matrix whose entries index :data:`SKIP_REASONS`.
    """
    p = np.tile(model.prior, (n, 1))
    skip = np.zeros((n, len(model.ranked_fields)), dtype=np.int8)
    for j, rf in enumerate(model.ranked_fields):
        child = codes[rf.node]
        parent = model.parents[rf.node]
        cpt = model.cpts[rf.node]
        if parent is None:
            likelihood = cpt.probs[:, child].T
            unseen = np.full(n, bool(cpt.unseen.any()))
        else:
            pcode = codes[parent]
            pmiss = pcode == model.missing_code(node_var_slot(parent)[0])
            fb = model.fallbacks[rf.node]
            likelihood = np.where(
                pmiss[:, None], fb.probs[:, child].T, cpt.probs[:, pcode, child].T
            )
            unseen = np.where(pmiss, bool(fb.unseen.any()), cpt.unseen[:, pcode].any(axis=0))
        skip[unseen, j] = SKIP_REASONS.index(SKIP_UNSEEN)
        skip[child == model.missing_code(rf.var), j] = SKIP_REASONS.index(SKIP_MISSING)
        active = np.flatnonzero(skip[:, j] == 0)
        cand = p[active] * likelihood[active]
        with np.errstate(invalid="ignore"):
            cand /= cand.sum(axis=1, keepdims=True)
        inside = ((cand > 0.0) & (cand < 1.0)).all(axis=1)
        skip[active[~inside], j] = SKIP_REASONS.index(SKIP_PRUNED)
        p[active[inside]] = cand[inside]
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
    enc = Encoder(schema, model.outcomes)
    nodes = [rf.node for rf in model.ranked_fields]
    offset = 0
    for chunk, codes, _ in enc.node_chunks(ds, nodes, chunk_rows):
        probs, skip = score_codes(model, codes, chunk.size)
        yield ScoredChunk(offset=offset, probabilities=probs, skipped=skip,
                          actuals=chunk.columns.get(schema.class_var))
        offset += chunk.size


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
    symbols = np.array(model.class_symbols, dtype=object)
    rows = 0
    flagged = 0
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["record_id"]
            + [f"p_{c}" for c in model.class_symbols]
            + ["label", "skipped_nodes"]
        )
        for scored in iter_scored(model, data, chunk_rows=chunk_rows):
            labels = _label_columns(scored.probabilities, pos_idx, threshold)
            patterns, pattern_of = np.unique(scored.skipped, axis=0, return_inverse=True)
            rendered = np.array([
                ";".join(f"{node}:{SKIP_REASONS[c]}" for node, c in zip(nodes, row) if c)
                for row in patterns
            ], dtype=object)
            writer.writerows(zip(
                range(scored.offset, scored.offset + len(labels)),
                *(map(repr, col) for col in scored.probabilities.T.tolist()),
                symbols[labels],
                rendered[pattern_of],
            ))
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
        keep = np.array([a != MISSING for a in scored.actuals], dtype=bool)
        scores.append(scored.probabilities[keep, pos_idx])
        actuals.extend(a for a in scored.actuals if a != MISSING)
    if not scores:
        return np.empty(0), []
    return np.concatenate(scores), actuals
