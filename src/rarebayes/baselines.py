"""Linear and quadratic discriminant analysis baselines.

Population 1 is the common (negative) class and population 2 the rare
(positive) one.  The linear score is
``L(Y) = {Y - (Ybar1 + Ybar2)/2}' S^-1 (Ybar1 - Ybar2)`` with the pooled
covariance S; Y is assigned to population 2 when L(Y) < c with
c = ln(n2/n1).  The quadratic score is
``(Y-Ybar2)' S2^-1 (Y-Ybar2) - (Y-Ybar1)' S1^-1 (Y-Ybar1) + ln(|S1|/|S2|)``
and Y goes to population 1 when it exceeds 2*ln(n2/n1).  Both boundary
rules follow the inequalities literally: LDA keeps the boundary in
population 1, QDA in population 2.

Only continuous variables participate by default; an optional one-hot
expansion of categorical variables exists but is off, since large
alphabets produce mostly-empty indicator columns.  The fit keeps the
complete rows of each class in one growing buffer per class, appended as
each chunk is read: rows with no feature or class cell MISSING by the
one rule in :mod:`rarebayes.dataio`.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataio import MISSING_CELLS, Chunk, ClassCodes, CsvDataset, as_dataset, csv_cell
from .dataio import missing_mask, parse_float_column, write_rows
from .errors import ConfigError, SingularCovarianceError
from .schema import Schema

LINEAR = "linear"
QUADRATIC = "quadratic"


@dataclass
class DiscriminantModel:
    kind: str
    feature_names: list[str]
    label1: str                      # common / negative population
    label2: str                      # rare / positive population
    mean1: np.ndarray
    mean2: np.ndarray
    n1: int
    n2: int
    cov: np.ndarray | None = None    # pooled (linear)
    cov1: np.ndarray | None = None   # per-class (quadratic)
    cov2: np.ndarray | None = None
    dropped_rows: int = 0
    one_hot_levels: dict[str, list[str]] = field(default_factory=dict)

    @property
    def cutoff(self) -> float:
        return math.log(self.n2 / self.n1)


def _class_cov(rows: np.ndarray, ridge: float) -> np.ndarray:
    """The covariance of ``rows``, which it centres in place: callers pass
    their own per-class copy and take its mean first."""
    rows -= rows.mean(axis=0)
    cov = rows.T @ rows / (rows.shape[0] - 1)
    if ridge > 0:
        cov = cov + ridge * np.eye(cov.shape[0])
    return cov


def _check_spd(cov: np.ndarray, what: str) -> None:
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise SingularCovarianceError(
            f"{what} covariance matrix is singular; pass a ridge to regularize"
        ) from None


def _check_args(kind: str, ridge: float) -> None:
    if kind not in (LINEAR, QUADRATIC):
        raise ConfigError(f"kind must be '{LINEAR}' or '{QUADRATIC}', got {kind!r}")
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ConfigError(f"ridge must be a finite number >= 0, got {ridge}")


def fit_discriminant(
    features: np.ndarray,
    labels: Sequence[str],
    kind: str,
    *,
    classes: tuple[str, str] | None = None,
    ridge: float = 0.0,
    feature_names: list[str] | None = None,
) -> DiscriminantModel:
    """Fit means and covariances with per-class denominator n-1.

    ``classes`` gives (population 1, population 2); when omitted,
    population 2 is the rarer label.  Requires at least two samples per
    class; raises :class:`SingularCovarianceError` on a singular
    covariance unless a positive ``ridge`` is supplied.
    """
    _check_args(kind, ridge)
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if X.shape[0] != len(labels):
        raise ValueError("features and labels must have the same length")
    coder = ClassCodes(missing=())
    codes = coder(labels)
    uniq = sorted(coder.labels)
    if len(uniq) != 2:
        raise ValueError(f"need exactly 2 label values, got {uniq}")
    if classes is None:
        counts = dict(zip(coder.labels, np.bincount(codes).tolist()))
        label2 = min(uniq, key=counts.get)
        label1 = next(u for u in uniq if u != label2)
    else:
        label1, label2 = classes
        if set(classes) != set(uniq):
            raise ValueError(f"classes {classes} do not match labels {uniq}")
    rows1 = X[codes == coder.index[label1]]
    rows2 = X[codes == coder.index[label2]]
    if rows1.shape[0] < 2 or rows2.shape[0] < 2:
        raise ValueError("need at least 2 samples per class")
    return _fit_classes(rows1, rows2, (label1, label2), kind, ridge,
                        feature_names or [f"f{i}" for i in range(X.shape[1])])


def _fit_classes(
    rows1: np.ndarray,
    rows2: np.ndarray,
    classes: tuple[str, str],
    kind: str,
    ridge: float,
    feature_names: list[str],
) -> DiscriminantModel:
    """Fit from each population's own copy of its rows, which the
    covariances centre in place."""
    model = DiscriminantModel(
        kind=kind,
        feature_names=feature_names,
        label1=classes[0],
        label2=classes[1],
        mean1=rows1.mean(axis=0),
        mean2=rows2.mean(axis=0),
        n1=rows1.shape[0],
        n2=rows2.shape[0],
    )
    if kind == LINEAR:
        s1 = _class_cov(rows1, 0.0)
        s2 = _class_cov(rows2, 0.0)
        pooled = ((model.n1 - 1) * s1 + (model.n2 - 1) * s2) / (
            model.n1 + model.n2 - 2
        )
        if ridge > 0:
            pooled = pooled + ridge * np.eye(pooled.shape[0])
        _check_spd(pooled, "pooled")
        model.cov = pooled
    else:
        model.cov1 = _class_cov(rows1, ridge)
        model.cov2 = _class_cov(rows2, ridge)
        _check_spd(model.cov1, "population-1")
        _check_spd(model.cov2, "population-2")
    return model


def _check_query(model: DiscriminantModel, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != model.mean1.shape[0]:
        raise ValueError(
            f"feature vector has {y.shape[0]} dims, model expects {model.mean1.shape[0]}"
        )
    return y


def _scores(model: DiscriminantModel, X: np.ndarray) -> np.ndarray:
    """The model's discriminant score for every row of the (rows, dims) ``X``."""
    if model.kind == LINEAR:
        centered = X - 0.5 * (model.mean1 + model.mean2)
        return centered @ np.linalg.inv(model.cov) @ (model.mean1 - model.mean2)
    d1 = X - model.mean1
    d2 = X - model.mean2
    logdet_ratio = (np.linalg.slogdet(model.cov1).logabsdet
                    - np.linalg.slogdet(model.cov2).logabsdet)
    return (((d2 @ np.linalg.inv(model.cov2)) * d2).sum(axis=1)
            - ((d1 @ np.linalg.inv(model.cov1)) * d1).sum(axis=1) + logdet_ratio)


def _check_kind(model: DiscriminantModel, kind: str, what: str) -> None:
    if model.kind != kind:
        raise ConfigError(f"{what} requires a {kind} model")


def lda_score(model: DiscriminantModel, y: np.ndarray) -> float:
    """L(Y) for a linear model; classify into population 2 iff L(Y) < cutoff."""
    _check_kind(model, LINEAR, "lda_score")
    return float(_scores(model, _check_query(model, y)[None])[0])


def lda_label(model: DiscriminantModel, y: np.ndarray) -> str:
    _check_kind(model, LINEAR, "lda_label")
    return str(score_label(model, _check_query(model, y)[None])[0])


def qda_score(model: DiscriminantModel, y: np.ndarray) -> float:
    """Quadratic score; classify into population 1 iff it exceeds 2*cutoff."""
    _check_kind(model, QUADRATIC, "qda_score")
    return float(_scores(model, _check_query(model, y)[None])[0])


def qda_label(model: DiscriminantModel, y: np.ndarray) -> str:
    _check_kind(model, QUADRATIC, "qda_label")
    return str(score_label(model, _check_query(model, y)[None])[0])


def score_label(model: DiscriminantModel, X: np.ndarray) -> np.ndarray:
    """The label of every row of the (rows, dims) matrix ``X``, by the
    boundary rules in the module docstring."""
    scores = _scores(model, X)
    if model.kind == LINEAR:
        to_population2 = scores < model.cutoff
    else:
        to_population2 = ~(scores > 2.0 * model.cutoff)
    return np.where(to_population2, model.label2, model.label1)


# -- CSV plumbing ------------------------------------------------------------


def _used_columns(schema: Schema, one_hot_levels: dict[str, list[str]]) -> list[str]:
    """The field columns a baseline reads: continuous and one-hot categorical."""
    return [spec.name for spec in schema.field_vars
            if spec.kind == "continuous" or spec.name in one_hot_levels]


def _feature_columns(
    schema: Schema,
    block: Chunk,
    one_hot_levels: dict[str, list[str]],
) -> tuple[np.ndarray, np.ndarray]:
    """Build a block's (rows, dims) matrix and a per-row any-missing mask."""
    blocks: list[np.ndarray] = []
    missing = np.zeros(block.size, dtype=bool)
    for name in _used_columns(schema, one_hot_levels):
        col = block.columns[name]
        if name in one_hot_levels:
            missing |= missing_mask(col)
            for level in one_hot_levels[name]:
                blocks.append(
                    np.array([1.0 if v == level else 0.0 for v in col])[:, None]
                )
        else:
            vals = parse_float_column(col)
            missing |= np.isnan(vals)
            blocks.append(vals[:, None])
    if not blocks:
        raise ConfigError("no continuous variables available for the baseline")
    return np.hstack(blocks), missing


def _one_hot_training_levels(schema: Schema, data: CsvDataset) -> dict[str, list[str]]:
    """Observed levels per categorical variable, most common level dropped.

    Dropping one level per variable keeps the indicator block from being
    perfectly collinear.
    """
    if not schema.categorical_vars:
        return {}
    counters: dict[str, Counter] = {v.name: Counter() for v in schema.categorical_vars}

    def count(block: Chunk) -> dict:
        for name, counter in counters.items():
            counter.update(block.columns[name])
        return {}

    for _ in data.iter_chunks(list(counters), decode=count):
        pass
    levels = {}
    for name, counter in counters.items():
        ordered = sorted(counter.keys() - MISSING_CELLS)
        if len(ordered) >= 2:
            drop = max(ordered, key=lambda v: (counter[v], v))
            levels[name] = [v for v in ordered if v != drop]
    return levels


def _class_rows(
    schema: Schema, ds: CsvDataset, one_hot_levels: dict[str, list[str]]
) -> tuple[dict[str, np.ndarray], int]:
    """Each class label's complete rows (no MISSING feature or class cell),
    in file order, and how many rows were dropped.

    Each class code keeps one buffer.  Its first part, a mask gather that
    owns its data, becomes the buffer, so a class read in one chunk is
    never copied again; each later part is appended after growing the
    buffer by half in place with ``resize``, which a realloc may do without
    copying.  The buffers are trimmed to their rows at the end.  No view of
    a buffer is taken before its last resize, which would leave the view
    dangling; every buffer is an array of its own, since the fit centres it
    in place."""
    buffers: dict[int, np.ndarray] = {}
    filled: dict[int, int] = {}
    coder = ClassCodes()
    dropped = 0

    def decode(block: Chunk) -> dict:
        X, miss = _feature_columns(schema, block, one_hot_levels)
        cls = coder(block.columns[schema.class_var])
        cls[miss] = -1
        return {"X": X, "codes": cls}

    names = [schema.class_var] + _used_columns(schema, one_hot_levels)
    for chunk in ds.iter_chunks(names, decode=decode):
        X, codes = chunk.columns["X"], chunk.columns["codes"]
        dropped += int((codes < 0).sum())
        for c in np.unique(codes[codes >= 0]).tolist():
            part = X[codes == c]
            if c not in buffers:
                buffers[c], filled[c] = part, len(part)
                continue
            buf, n = buffers[c], filled[c]
            if n + len(part) > len(buf):
                buf.resize((max(n + len(part), len(buf) * 3 // 2), X.shape[1]),
                           refcheck=False)
            buf[n:n + len(part)] = part
            filled[c] = n + len(part)
    for c, buf in buffers.items():
        buf.resize((filled[c], buf.shape[1]), refcheck=False)
    return {coder.labels[c]: buf for c, buf in buffers.items()}, dropped


def fit_from_csv(
    schema: Schema,
    data: str | Path | CsvDataset,
    kind: str,
    *,
    positive: str | None = None,
    ridge: float = 0.0,
    one_hot: bool = False,
) -> DiscriminantModel:
    """Fit a discriminant baseline from a labeled CSV.

    Rows with any missing feature or a missing class label are dropped
    (the count is reported on the model).  Population 2 is the positive
    class, defaulting to the rarer label.  Each of the two classes needs
    two kept rows, or :class:`ConfigError` is raised.  Rows are gathered
    by class as they are read; no matrix of both classes is built.
    """
    _check_args(kind, ridge)
    ds = as_dataset(data)
    ds.require_columns(ds.schema_columns(schema, require_class=True))
    one_hot_levels = _one_hot_training_levels(schema, ds) if one_hot else {}
    rows, dropped = _class_rows(schema, ds, one_hot_levels)
    uniq = sorted(rows)
    if len(uniq) != 2:
        raise ConfigError(f"baseline needs exactly 2 class values, got {uniq}")
    counts = {u: len(rows[u]) for u in uniq}
    if min(counts.values()) < 2:
        raise ConfigError(f"baseline needs at least 2 complete rows per class, got {counts}")
    if positive is None:
        positive = min(uniq, key=counts.get)
    elif positive not in uniq:
        raise ConfigError(f"unknown positive class {positive!r}")
    negative = next(u for u in uniq if u != positive)
    feature_names = [
        feature
        for name in _used_columns(schema, one_hot_levels)
        for feature in ([f"{name}={level}" for level in one_hot_levels[name]]
                        if name in one_hot_levels else [name])
    ]
    model = _fit_classes(rows[negative], rows[positive], (negative, positive), kind, ridge,
                         feature_names)
    model.dropped_rows = dropped
    model.one_hot_levels = one_hot_levels
    return model


def score_to_csv(
    model: DiscriminantModel,
    schema: Schema,
    data: str | Path | CsvDataset,
    out_path: str | Path,
) -> dict:
    """Score a CSV with a fitted baseline; same output format as the network.

    Unscorable rows (any missing feature) default to population 1 and are
    noted in the skipped_nodes column.  Probability columns are hard 1/0
    indicators since discriminant rules emit labels, not probabilities.
    """
    ds = as_dataset(data)
    ds.require_columns(schema.var_names)
    classes = sorted([model.label1, model.label2])
    rows = flagged = unscored = 0
    # every cell but the record id is one of a few strings, quoted once
    # and shared by all rows
    label_cells = np.array([csv_cell(model.label1), csv_cell(model.label2)], dtype=object)
    indicator = np.array(["0.0", "1.0"], dtype=object)
    skip_cells = np.array(["", csv_cell("features:missing")], dtype=object)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(
            ["record_id"] + [f"p_{c}" for c in classes] + ["label", "skipped_nodes"]
        )
        def decode(block: Chunk) -> dict:
            # scored per block, so a block's feature matrix goes with it
            X, miss = _feature_columns(schema, block, model.one_hot_levels)
            to2 = np.zeros(block.size, dtype=np.intp)
            to2[~miss] = score_label(model, X[~miss]) == model.label2
            return {"to2": to2, "missing": miss}

        used = _used_columns(schema, model.one_hot_levels)
        for chunk in ds.iter_chunks(used, decode=decode):
            to2, miss = chunk.columns["to2"], chunk.columns["missing"]
            is_class = {model.label1: 1 - to2, model.label2: to2}
            write_rows(fh, [
                map(str, range(rows, rows + chunk.size)),
                *(indicator[is_class[c]].tolist() for c in classes),
                label_cells[to2].tolist(),
                skip_cells[miss.astype(np.intp)].tolist(),
            ])
            rows += chunk.size
            flagged += int(to2.sum())
            unscored += int(miss.sum())
    return {"rows": rows, "flagged": flagged, "unscored": unscored,
            "positive": model.label2}
