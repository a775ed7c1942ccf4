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
alphabets produce mostly-empty indicator columns.  A row is complete when
no feature cell and no class cell is MISSING by the one rule in
:mod:`rarebayes.dataio`.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataio import MISSING_CELLS, CsvDataset, as_dataset, csv_cell, missing_mask
from .dataio import parse_float_column, write_rows
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
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / (rows.shape[0] - 1)
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
    if kind not in (LINEAR, QUADRATIC):
        raise ConfigError(f"kind must be '{LINEAR}' or '{QUADRATIC}', got {kind!r}")
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if X.shape[0] != len(labels):
        raise ValueError("features and labels must have the same length")
    uniq = sorted(set(labels))
    if len(uniq) != 2:
        raise ValueError(f"need exactly 2 label values, got {uniq}")
    if classes is None:
        counts = {u: sum(1 for l in labels if l == u) for u in uniq}
        label2 = min(uniq, key=lambda u: (counts[u], uniq.index(u)))
        label1 = next(u for u in uniq if u != label2)
    else:
        label1, label2 = classes
        if set(classes) != set(uniq):
            raise ValueError(f"classes {classes} do not match labels {uniq}")
    lab = np.asarray(labels, dtype=object)
    rows1 = X[lab == label1]
    rows2 = X[lab == label2]
    if rows1.shape[0] < 2 or rows2.shape[0] < 2:
        raise ValueError("need at least 2 samples per class")
    names = feature_names or [f"f{i}" for i in range(X.shape[1])]
    model = DiscriminantModel(
        kind=kind,
        feature_names=names,
        label1=label1,
        label2=label2,
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


def lda_score(model: DiscriminantModel, y: np.ndarray) -> float:
    """L(Y) for a linear model; classify into population 2 iff L(Y) < cutoff."""
    if model.kind != LINEAR:
        raise ConfigError("lda_score requires a linear model")
    return float(_scores(model, _check_query(model, y)[None])[0])


def lda_label(model: DiscriminantModel, y: np.ndarray) -> str:
    return model.label2 if lda_score(model, y) < model.cutoff else model.label1


def qda_score(model: DiscriminantModel, y: np.ndarray) -> float:
    """Quadratic score; classify into population 1 iff it exceeds 2*cutoff."""
    if model.kind != QUADRATIC:
        raise ConfigError("qda_score requires a quadratic model")
    return float(_scores(model, _check_query(model, y)[None])[0])


def qda_label(model: DiscriminantModel, y: np.ndarray) -> str:
    return model.label1 if qda_score(model, y) > 2.0 * model.cutoff else model.label2


def score_label(model: DiscriminantModel, X: np.ndarray) -> np.ndarray:
    """The label of every row of the (rows, dims) matrix ``X``."""
    scores = _scores(model, X)
    if model.kind == LINEAR:
        to_population2 = scores < model.cutoff
    else:
        to_population2 = ~(scores > 2.0 * model.cutoff)
    return np.where(to_population2, model.label2, model.label1)


# -- CSV plumbing ------------------------------------------------------------


def _feature_columns(
    schema: Schema,
    columns: dict[str, list[str]],
    one_hot_levels: dict[str, list[str]],
) -> tuple[np.ndarray, np.ndarray]:
    """Build the (rows, dims) matrix and a per-row any-missing mask."""
    blocks: list[np.ndarray] = []
    missing = np.zeros(len(next(iter(columns.values()))), dtype=bool)
    for spec in schema.field_vars:
        if spec.kind == "continuous":
            vals = parse_float_column(columns[spec.name])
            missing |= np.isnan(vals)
            blocks.append(vals[:, None])
        elif spec.name in one_hot_levels:
            col = columns[spec.name]
            missing |= missing_mask(col)
            for level in one_hot_levels[spec.name]:
                blocks.append(
                    np.array([1.0 if v == level else 0.0 for v in col])[:, None]
                )
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
    for chunk in data.iter_chunks([v.name for v in schema.categorical_vars]):
        for name, counter in counters.items():
            counter.update(chunk.columns[name])
    levels = {}
    for name, counter in counters.items():
        ordered = sorted(counter.keys() - MISSING_CELLS)
        if len(ordered) >= 2:
            drop = max(ordered, key=lambda v: (counter[v], v))
            levels[name] = [v for v in ordered if v != drop]
    return levels


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
    two kept rows, or :class:`ConfigError` is raised.
    """
    ds = as_dataset(data)
    ds.require_columns(ds.schema_columns(schema, require_class=True))
    one_hot_levels = _one_hot_training_levels(schema, ds) if one_hot else {}

    feature_rows: list[np.ndarray] = []
    labels: list[str] = []
    dropped = 0
    names = [schema.class_var] + schema.var_names
    for chunk in ds.iter_chunks(names):
        X, miss = _feature_columns(schema, chunk.columns, one_hot_levels)
        cls = chunk.columns[schema.class_var]
        miss = miss | missing_mask(cls)
        dropped += int(miss.sum())
        feature_rows.append(X[~miss])
        labels.extend(compress(cls, ~miss))
    uniq = sorted(set(labels))
    if len(uniq) != 2:
        raise ConfigError(f"baseline needs exactly 2 class values, got {uniq}")
    counts = {u: labels.count(u) for u in uniq}
    if min(counts.values()) < 2:
        raise ConfigError(f"baseline needs at least 2 complete rows per class, got {counts}")
    X = np.vstack(feature_rows)
    if positive is None:
        positive = min(uniq, key=lambda u: (counts[u], uniq.index(u)))
    elif positive not in uniq:
        raise ConfigError(f"unknown positive class {positive!r}")
    negative = next(u for u in uniq if u != positive)
    feature_names = []
    for spec in schema.field_vars:
        if spec.kind == "continuous":
            feature_names.append(spec.name)
        elif spec.name in one_hot_levels:
            feature_names.extend(
                f"{spec.name}={level}" for level in one_hot_levels[spec.name]
            )
    model = fit_discriminant(
        X, labels, kind, classes=(negative, positive), ridge=ridge,
        feature_names=feature_names,
    )
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
        for chunk in ds.iter_chunks(schema.var_names):
            X, miss = _feature_columns(schema, chunk.columns, model.one_hot_levels)
            to2 = np.zeros(chunk.size, dtype=np.intp)
            to2[~miss] = score_label(model, X[~miss]) == model.label2
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
