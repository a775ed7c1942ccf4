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

Only the schema's continuous variables take part, in schema order; scoring
reads the columns the model was fit on.  The fit keeps the complete rows (no
feature or class cell MISSING, the one rule in :mod:`rarebayes.dataio`) of
two classes at most, each in a growing buffer, and only codes the rest.
Scoring writes the network's prediction format through
:func:`~rarebayes.evaluation.write_predictions`, four fixed row endings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataio import Chunk, ClassCodes, CsvDataset, as_dataset, parse_float_column
from .errors import ConfigError, SingularCovarianceError, few
from .evaluation import write_predictions
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

    @property
    def cutoff(self) -> float:
        return math.log(self.n2 / self.n1)

    @cached_property
    def inverses(self) -> tuple[np.ndarray, ...]:
        """Each covariance's inverse, taken once per model: (S^-1,) or (S1^-1, S2^-1)."""
        if self.kind == LINEAR:
            return (_inverse(self.cov, "pooled"),)
        return _inverse(self.cov1, "population-1"), _inverse(self.cov2, "population-2")

    @cached_property
    def logdet_ratio(self) -> float:
        """ln(|S1|/|S2|) of a quadratic model, taken once per model."""
        return np.linalg.slogdet(self.cov1).logabsdet - np.linalg.slogdet(self.cov2).logabsdet


def _class_cov(rows: np.ndarray, ridge: float) -> np.ndarray:
    """The covariance of ``rows``, which it centres in place: callers pass
    their own per-class copy and take its mean first."""
    rows -= rows.mean(axis=0)
    cov = rows.T @ rows / (rows.shape[0] - 1)
    if ridge > 0:
        cov = cov + ridge * np.eye(cov.shape[0])
    return cov


def _inverse(cov: np.ndarray, what: str) -> np.ndarray:
    """``cov``'s inverse, once it passes Cholesky; a rank-deficient one can pass."""
    try:
        np.linalg.cholesky(cov)
        return np.linalg.inv(cov)
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
    positive: str | None = None,
    ridge: float = 0.0,
    feature_names: list[str] | None = None,
) -> DiscriminantModel:
    """Fit means and covariances with per-class denominator n-1, by the
    population rule of :func:`fit_from_csv`.  Raises
    :class:`SingularCovarianceError` on a singular covariance unless a
    positive ``ridge`` is supplied.
    """
    _check_args(kind, ridge)
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if X.shape[0] != len(labels):
        raise ValueError("features and labels must have the same length")
    coder = ClassCodes(missing=())
    return _fit(_class_rows([(X, coder(labels))], coder.labels), kind, positive, ridge,
                feature_names or [f"f{i}" for i in range(X.shape[1])])


def _class_rows(parts: Iterable[tuple[np.ndarray, np.ndarray]], labels: list[str]) -> dict:
    """The one gather of both fits: each class's rows from ``parts`` of rows
    and class codes, in order, keyed by ``labels``, read after the last part.

    A dropped row codes -1, and codes go in first-seen order to the classes
    with a kept row, so a code of 2 is a third class and the fit must fail:
    the buffers are dropped, the rest of ``parts`` is run through only to
    code its labels, and each label comes back with no rows.

    A class's first part, a mask gather that owns its data, becomes its
    buffer; each later part is appended after growing the buffer by half in
    place with ``resize``, which a realloc may do without copying.  No view
    of a buffer is taken before its last resize; each is an array of its
    own, since the fit centres it in place."""
    buffers: dict[int, np.ndarray] | None = {}
    filled: dict[int, int] = {}
    for X, codes in parts:
        if buffers is None or codes.max(initial=-1) > 1:
            buffers = None
            continue
        for c in np.flatnonzero(np.bincount(codes[codes >= 0])).tolist():
            part = X[codes == c]
            if c not in buffers:
                buffers[c], filled[c] = part, len(part)
                continue
            buf, n = buffers[c], filled[c]
            if n + len(part) > len(buf):
                buf.resize((max(n + len(part), len(buf) * 3 // 2), X.shape[1]), refcheck=False)
            buf[n:n + len(part)] = part
            filled[c] = n + len(part)
    if buffers is None:
        return dict.fromkeys(labels)
    for c, buf in buffers.items():
        buf.resize((filled[c], buf.shape[1]), refcheck=False)
    return {labels[c]: buf for c, buf in buffers.items()}


def _fit(rows: dict[str, np.ndarray], kind: str, positive: str | None, ridge: float,
         feature_names: list[str]) -> DiscriminantModel:
    """Fit from each class label's own copy of its rows, which the
    covariances centre in place, by the one population rule: two labels
    with two rows each, population 2 being ``positive`` or else the rarer
    label (the first in sorted order on a tie); :class:`ConfigError`
    otherwise."""
    uniq = sorted(rows)
    if len(uniq) != 2:
        raise ConfigError(f"baseline needs exactly 2 class values, got {few(uniq)}")
    counts = {u: len(rows[u]) for u in uniq}
    if min(counts.values()) < 2:
        raise ConfigError(f"baseline needs at least 2 complete rows per class, got {counts}")
    if positive is None:
        positive = min(uniq, key=counts.get)
    elif positive not in uniq:
        raise ConfigError(f"unknown positive class {positive!r}")
    negative = next(u for u in uniq if u != positive)
    rows1, rows2 = rows[negative], rows[positive]
    model = DiscriminantModel(
        kind=kind,
        feature_names=feature_names,
        label1=negative,
        label2=positive,
        mean1=rows1.mean(axis=0),
        mean2=rows2.mean(axis=0),
        n1=rows1.shape[0],
        n2=rows2.shape[0],
    )
    if kind == LINEAR:
        s1, s2 = _class_cov(rows1, 0.0), _class_cov(rows2, 0.0)
        pooled = ((model.n1 - 1) * s1 + (model.n2 - 1) * s2) / (model.n1 + model.n2 - 2)
        model.cov = pooled + ridge * np.eye(len(pooled)) if ridge > 0 else pooled
    else:
        model.cov1 = _class_cov(rows1, ridge)
        model.cov2 = _class_cov(rows2, ridge)
    model.inverses  # the singularity check, on the inverses the scorer uses
    return model


def _query(model: DiscriminantModel, y: np.ndarray, kind: str, what: str) -> np.ndarray:
    """``y`` as a one-row matrix, once ``model`` is a ``kind`` model and ``y``
    has its dims; ``what`` names the caller."""
    if model.kind != kind:
        raise ConfigError(f"{what} requires a {kind} model")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != model.mean1.shape[0]:
        raise ValueError(
            f"feature vector has {y.shape[0]} dims, model expects {model.mean1.shape[0]}"
        )
    return y[None]


def _scores(model: DiscriminantModel, X: np.ndarray) -> np.ndarray:
    """The model's discriminant score for every row of the (rows, dims) ``X``."""
    if model.kind == LINEAR:
        centered = X - 0.5 * (model.mean1 + model.mean2)
        return centered @ model.inverses[0] @ (model.mean1 - model.mean2)
    inv1, inv2 = model.inverses
    d1 = X - model.mean1
    d2 = X - model.mean2
    return (((d2 @ inv2) * d2).sum(axis=1)
            - ((d1 @ inv1) * d1).sum(axis=1) + model.logdet_ratio)


def lda_score(model: DiscriminantModel, y: np.ndarray) -> float:
    """L(Y) for a linear model; classify into population 2 iff L(Y) < cutoff."""
    return float(_scores(model, _query(model, y, LINEAR, "lda_score"))[0])


def lda_label(model: DiscriminantModel, y: np.ndarray) -> str:
    return str(score_label(model, _query(model, y, LINEAR, "lda_label"))[0])


def qda_score(model: DiscriminantModel, y: np.ndarray) -> float:
    """Quadratic score; classify into population 1 iff it exceeds 2*cutoff."""
    return float(_scores(model, _query(model, y, QUADRATIC, "qda_score"))[0])


def qda_label(model: DiscriminantModel, y: np.ndarray) -> str:
    return str(score_label(model, _query(model, y, QUADRATIC, "qda_label"))[0])


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


def _features(schema: Schema) -> list[str]:
    """A baseline's features: the continuous variables, in schema order.
    The fit asks before it reads any row, so a schema without one fails
    at once."""
    names = [spec.name for spec in schema.continuous_vars]
    if not names:
        raise ConfigError("no continuous variables available for the baseline")
    return names


def _feature_columns(names: list[str], block: Chunk) -> tuple[np.ndarray, np.ndarray]:
    """Build a block's (rows, ``names``) matrix and a per-row any-missing mask."""
    X = np.column_stack([parse_float_column(block.columns[name]) for name in names])
    return X, np.isnan(X).any(axis=1)


def fit_from_csv(
    schema: Schema,
    data: str | Path | CsvDataset,
    kind: str,
    *,
    positive: str | None = None,
    ridge: float = 0.0,
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
    ds.require_columns(schema.columns())
    names = _features(schema)
    coder = ClassCodes()
    dropped = 0

    def decode(block: Chunk) -> dict:
        nonlocal dropped
        X, miss = _feature_columns(names, block)
        # only rows with every feature are coded, so the labels are the classes with a kept row
        codes = np.full(block.size, -1, dtype=np.intp)
        codes[~miss] = coder(list(compress(block.columns[schema.class_var], ~miss)))
        dropped += int((codes < 0).sum())
        return {"X": X, "codes": codes}

    chunks = ds.iter_chunks([schema.class_var, *names], decode=decode)
    rows = _class_rows(((c.columns["X"], c.columns["codes"]) for c in chunks), coder.labels)
    model = _fit(rows, kind, positive, ridge, names)
    model.dropped_rows = dropped
    return model


def score_to_csv(
    model: DiscriminantModel,
    schema: Schema,
    data: str | Path | CsvDataset,
    out_path: str | Path,
) -> dict:
    """Score a CSV with a fitted baseline; same output format as the network.

    Scores the columns the model was fit on (``feature_names``).  Unscorable
    rows (any missing feature) default to population 1 and are noted in the
    skipped_nodes column.  Probability columns are hard 1/0 indicators since
    discriminant rules emit labels, not probabilities.
    """
    ds = as_dataset(data)
    ds.require_columns(schema.var_names)
    classes = sorted([model.label1, model.label2])
    # the four row endings, picked by to2 + 2 * missing: one-hot
    # probabilities, labels, skip texts and each ending's skip text
    labels = np.array([classes.index(model.label1), classes.index(model.label2)] * 2)
    endings = (np.eye(2)[labels], labels, ["", "features:missing"], np.array([0, 0, 1, 1]))
    unscored = 0

    def decode(block: Chunk) -> dict:
        nonlocal unscored
        # scored per block, so a block's feature matrix goes with it
        X, miss = _feature_columns(model.feature_names, block)
        to2 = np.zeros(block.size, dtype=np.intp)
        to2[~miss] = score_label(model, X[~miss]) == model.label2
        unscored += int(miss.sum())
        return {"ending": to2 + 2 * miss}

    counts = write_predictions(out_path, classes, (
        (*endings, chunk.columns["ending"])
        for chunk in ds.iter_chunks(model.feature_names, decode=decode)))
    return {"rows": int(counts.sum()), "flagged": int(counts[classes.index(model.label2)]),
            "unscored": unscored, "positive": model.label2}
