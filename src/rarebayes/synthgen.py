"""Seeded synthetic data from a known generative network, plus an exact oracle.

The generator samples ancestrally: class first, then each variable given
the class (and, for planted dependencies, a categorical parent).  The
exact network is returned as a :class:`TruthModel` so tests can compare
learned posteriors against :func:`analytic_posterior`, which uses the
true densities rather than bins.

Output is byte-identical for identical (config, seed): the dataset CSV,
a matching schema file, and the truth document.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import dataio
from .dataio import MISSING, csv_cell, write_rows
from .errors import ConfigError, EvidenceError
from .schema import Schema, VariableSpec, format_schema, from_json

TRUTH_FORMAT = "rarebayes-truth-v1"
_PMF_TOL = 1e-9


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_pmf(pmf: Sequence[float], what: str) -> tuple[float, ...]:
    pmf = tuple(float(x) for x in pmf)
    if any(x < 0 for x in pmf):
        raise ConfigError(f"{what}: probabilities must be nonnegative")
    if abs(sum(pmf) - 1.0) > _PMF_TOL:
        raise ConfigError(f"{what}: probabilities sum to {sum(pmf)}, expected 1")
    return pmf


@dataclass(frozen=True)
class CategoricalSpec:
    """Class-conditioned categorical variable."""

    name: str
    outcomes: tuple[str, ...]
    dist: Mapping[str, Sequence[float]]      # class label -> pmf over outcomes
    missing_rate: float = 0.0


@dataclass(frozen=True)
class ContinuousSpec:
    """Class-conditioned normal variable."""

    name: str
    mean: Mapping[str, float]
    sd: Mapping[str, float]
    missing_rate: float = 0.0


@dataclass(frozen=True)
class DependentSpec:
    """Categorical child conditioned on the class and one categorical parent."""

    name: str
    parent: str
    outcomes: tuple[str, ...]
    dist: Mapping[str, Mapping[str, Sequence[float]]]  # class -> parent outcome -> pmf
    missing_rate: float = 0.0


@dataclass(frozen=True)
class NoiseSpec:
    """Class-independent variable: categorical (outcomes+dist) or normal (mean+sd)."""

    name: str
    outcomes: tuple[str, ...] | None = None
    dist: Sequence[float] | None = None
    mean: float | None = None
    sd: float | None = None
    missing_rate: float = 0.0

    @property
    def is_categorical(self) -> bool:
        return self.outcomes is not None


@dataclass(frozen=True)
class GroupSpec:
    name: str = "grp"
    records_per_group: int = 1


@dataclass(frozen=True)
class GenConfig:
    n: int
    seed: int = 0
    class_var: str = "class"
    class_labels: tuple[str, str] = ("good", "bad")
    positive_rate: float = 0.1               # probability of class_labels[1]
    categorical: tuple[CategoricalSpec, ...] = ()
    continuous: tuple[ContinuousSpec, ...] = ()
    dependent: tuple[DependentSpec, ...] = ()
    noise: tuple[NoiseSpec, ...] = ()
    group: GroupSpec | None = None

    def __post_init__(self):
        _check_count("n", self.n, 1)
        _check_count("seed", self.seed, 0)
        if self.group is not None:
            _check_count("records_per_group", self.group.records_per_group, 1)
        if not 0.0 < self.positive_rate < 1.0:
            raise ConfigError(f"positive_rate must lie in (0, 1), got {self.positive_rate}")
        if len(self.class_labels) != 2 or len(set(self.class_labels)) != 2:
            raise ConfigError("class_labels must be two distinct labels")
        names = [s.name for s in self.all_vars]
        if len(set(names)) != len(names):
            raise ConfigError("variable names must be unique")
        if self.class_var in names:
            raise ConfigError("class_var collides with a variable name")
        for spec in self.all_vars:
            if not 0.0 <= spec.missing_rate <= 1.0:
                raise ConfigError(
                    f"{spec.name}: missing_rate must lie in [0, 1], got {spec.missing_rate}"
                )
        cat_names = {s.name for s in self.categorical}
        for spec in self.categorical:
            for label in self.class_labels:
                pmf = _check_pmf(spec.dist[label], f"{spec.name}/{label}")
                if len(pmf) != len(spec.outcomes):
                    raise ConfigError(f"{spec.name}/{label}: pmf length mismatch")
        for spec in self.continuous:
            for label in self.class_labels:
                if spec.sd[label] <= 0:
                    raise ConfigError(f"{spec.name}/{label}: sd must be positive")
        for spec in self.dependent:
            if spec.parent not in cat_names:
                raise ConfigError(
                    f"{spec.name}: parent {spec.parent!r} is not a categorical variable"
                )
            parent = next(s for s in self.categorical if s.name == spec.parent)
            for label in self.class_labels:
                for po in parent.outcomes:
                    pmf = _check_pmf(spec.dist[label][po], f"{spec.name}/{label}/{po}")
                    if len(pmf) != len(spec.outcomes):
                        raise ConfigError(f"{spec.name}/{label}/{po}: pmf length mismatch")
        for spec in self.noise:
            cat = spec.outcomes is not None or spec.dist is not None
            cont = spec.mean is not None or spec.sd is not None
            if cat == cont:
                raise ConfigError(
                    f"{spec.name}: declare either outcomes+dist or mean+sd"
                )
            if cat:
                pmf = _check_pmf(spec.dist, spec.name)  # type: ignore[arg-type]
                if len(pmf) != len(spec.outcomes):     # type: ignore[arg-type]
                    raise ConfigError(f"{spec.name}: pmf length mismatch")
            elif spec.sd is None or spec.sd <= 0:
                raise ConfigError(f"{spec.name}: sd must be positive")
        self.to_schema()  # a name the schema file cannot hold raises SchemaError

    @property
    def all_vars(self) -> list:
        return list(self.categorical) + list(self.continuous) + \
            list(self.dependent) + list(self.noise)

    @property
    def prior(self) -> dict[str, float]:
        neg, pos = self.class_labels
        return {neg: 1.0 - self.positive_rate, pos: self.positive_rate}

    def to_schema(self) -> Schema:
        fields = []
        for spec in self.all_vars:
            if isinstance(spec, (CategoricalSpec, DependentSpec)):
                fields.append(VariableSpec(spec.name, "categorical"))
            elif isinstance(spec, ContinuousSpec):
                fields.append(VariableSpec(spec.name, "continuous", "entropy"))
            else:
                if spec.is_categorical:
                    fields.append(VariableSpec(spec.name, "categorical"))
                else:
                    fields.append(VariableSpec(spec.name, "continuous", "entropy"))
        return Schema(
            class_var=self.class_var,
            field_vars=tuple(fields),
            group_key=self.group.name if self.group else None,
        )


@dataclass(frozen=True)
class TruthModel:
    """The exact generative network behind a dataset."""

    config: GenConfig

    @property
    def prior(self) -> dict[str, float]:
        return self.config.prior

    def to_doc(self) -> dict:
        return {"format": TRUTH_FORMAT, "config": config_to_doc(self.config)}

    @staticmethod
    def from_doc(doc: dict) -> "TruthModel":
        """Rebuild a truth model; a malformed document raises :class:`ConfigError`."""
        fmt = doc.get("format") if isinstance(doc, dict) else None
        if fmt != TRUTH_FORMAT:
            raise ConfigError(f"unrecognized truth format {fmt!r}")
        return TruthModel(config=config_from_doc(doc.get("config")))


@dataclass(frozen=True)
class GenResult:
    data_path: Path
    schema_path: Path
    truth_path: Path
    truth: TruthModel


def _normal_pdf(x: float, mean: float, sd: float) -> float:
    z = (x - mean) / sd
    return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def analytic_posterior(truth: TruthModel, record: Mapping[str, object]) -> dict[str, float]:
    """Exact Bayes posterior under the generative network.

    Continuous evidence uses the true normal densities.  A dependent
    child whose parent is missing is marginalized over the parent's
    class-conditional distribution.  Missing values contribute nothing.
    """
    cfg = truth.config
    labels = cfg.class_labels
    weights = {label: cfg.prior[label] for label in labels}

    def is_missing(value) -> bool:
        if value is None or value == MISSING:
            return True
        if isinstance(value, float) and math.isnan(value):
            return True
        return False

    def as_float(value) -> float:
        return float(value)

    cat_specs = {s.name: s for s in cfg.categorical}
    for spec in cfg.categorical:
        value = record.get(spec.name)
        if is_missing(value):
            continue
        if value not in spec.outcomes:
            raise EvidenceError(f"{spec.name}: unknown outcome {value!r}")
        idx = spec.outcomes.index(value)
        for label in labels:
            weights[label] *= spec.dist[label][idx]
    for spec in cfg.continuous:
        value = record.get(spec.name)
        if is_missing(value):
            continue
        x = as_float(value)
        for label in labels:
            weights[label] *= _normal_pdf(x, spec.mean[label], spec.sd[label])
    for spec in cfg.dependent:
        value = record.get(spec.name)
        if is_missing(value):
            continue
        if value not in spec.outcomes:
            raise EvidenceError(f"{spec.name}: unknown outcome {value!r}")
        idx = spec.outcomes.index(value)
        parent = cat_specs[spec.parent]
        pvalue = record.get(spec.parent)
        for label in labels:
            if is_missing(pvalue):
                lk = sum(
                    parent.dist[label][pi] * spec.dist[label][po][idx]
                    for pi, po in enumerate(parent.outcomes)
                )
            else:
                if pvalue not in parent.outcomes:
                    raise EvidenceError(f"{spec.parent}: unknown outcome {pvalue!r}")
                lk = spec.dist[label][pvalue][idx]
            weights[label] *= lk
    for spec in cfg.noise:
        value = record.get(spec.name)
        if is_missing(value):
            continue
        if spec.is_categorical:
            if value not in spec.outcomes:
                raise EvidenceError(f"{spec.name}: unknown outcome {value!r}")
            idx = spec.outcomes.index(value)
            for label in labels:
                weights[label] *= spec.dist[idx]
        else:
            x = as_float(value)
            for label in labels:
                weights[label] *= _normal_pdf(x, spec.mean, spec.sd)

    total = sum(weights.values())
    if total == 0:
        return dict(cfg.prior)
    return {label: weights[label] / total for label in labels}


# -- sampling ---------------------------------------------------------------


def _sample_columns(cfg: GenConfig, rng: np.random.Generator):
    """Draw every column vectorized; draw order is fixed by config order.

    Categorical columns and the class column hold outcome codes.
    """
    n = cfg.n
    is_pos = rng.random(n) < cfg.positive_rate
    class_codes = is_pos.astype(np.int64)

    columns: dict[str, np.ndarray] = {}
    for spec in cfg.categorical:
        codes = np.zeros(n, dtype=np.int64)
        k = len(spec.outcomes)
        for ci, label in enumerate(cfg.class_labels):
            mask = class_codes == ci
            m = int(mask.sum())
            if m:
                codes[mask] = rng.choice(k, size=m, p=np.asarray(spec.dist[label]))
        columns[spec.name] = codes
    for spec in cfg.continuous:
        vals = np.zeros(n, dtype=np.float64)
        for ci, label in enumerate(cfg.class_labels):
            mask = class_codes == ci
            m = int(mask.sum())
            if m:
                vals[mask] = rng.normal(spec.mean[label], spec.sd[label], size=m)
        columns[spec.name] = vals
    for spec in cfg.dependent:
        parent = next(s for s in cfg.categorical if s.name == spec.parent)
        pcodes = columns[spec.parent]
        codes = np.zeros(n, dtype=np.int64)
        k = len(spec.outcomes)
        for ci, label in enumerate(cfg.class_labels):
            for pi, po in enumerate(parent.outcomes):
                mask = (class_codes == ci) & (pcodes == pi)
                m = int(mask.sum())
                if m:
                    codes[mask] = rng.choice(
                        k, size=m, p=np.asarray(spec.dist[label][po])
                    )
        columns[spec.name] = codes
    for spec in cfg.noise:
        if spec.is_categorical:
            columns[spec.name] = rng.choice(
                len(spec.outcomes), size=n, p=np.asarray(spec.dist)
            )
        else:
            columns[spec.name] = rng.normal(spec.mean, spec.sd, size=n)

    missing_masks = {
        spec.name: (rng.random(n) < spec.missing_rate) if spec.missing_rate > 0
        else np.zeros(n, dtype=bool)
        for spec in cfg.all_vars
    }
    return class_codes, columns, missing_masks


def _outcome_cells(outcomes: Sequence) -> np.ndarray:
    """Each outcome's CSV cell, quoted once and shared by every row."""
    return np.array([csv_cell(str(o)) for o in outcomes], dtype=object)


def _format_column(spec, values: np.ndarray, missing: np.ndarray) -> list[str]:
    continuous = isinstance(spec, ContinuousSpec) or (
        isinstance(spec, NoiseSpec) and not spec.is_categorical
    )
    if continuous:
        # one %-format over the whole column; the trailing "" is dropped
        text = ("%.6f\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]
        out = np.array(text, dtype=object)
    else:
        out = _outcome_cells(spec.outcomes)[values]
    out[missing] = MISSING
    return out.tolist()


def generate(config: GenConfig, out_dir: str | Path) -> GenResult:
    """Write data.csv, schema.txt, and truth.json under ``out_dir``.

    Every column is drawn first, in one fixed order; the cells are then
    formatted and written ``dataio._WRITE_ROWS`` rows at a time, so the
    text of only one block of rows is held at once.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    class_codes, columns, missing_masks = _sample_columns(config, rng)

    header = [config.class_var] + [spec.name for spec in config.all_vars]
    if config.group is not None:
        header.insert(0, config.group.name)
    class_cells = _outcome_cells(config.class_labels)
    data_path = out / "data.csv"
    with open(data_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, config.n, dataio._WRITE_ROWS):
            hi = min(lo + dataio._WRITE_ROWS, config.n)
            cells = [class_cells[class_codes[lo:hi]].tolist()]
            if config.group is not None:
                rpg = config.group.records_per_group
                cells.insert(0, [f"g{i // rpg:06d}" for i in range(lo, hi)])
            cells += [
                _format_column(spec, columns[spec.name][lo:hi], missing_masks[spec.name][lo:hi])
                for spec in config.all_vars
            ]
            write_rows(fh, cells)

    schema_path = out / "schema.txt"
    schema_path.write_text(format_schema(config.to_schema()), encoding="utf-8")

    truth = TruthModel(config=config)
    truth_path = out / "truth.json"
    truth_path.write_text(
        json.dumps(truth.to_doc(), indent=2) + "\n", encoding="utf-8"
    )
    return GenResult(
        data_path=data_path, schema_path=schema_path, truth_path=truth_path,
        truth=truth,
    )


# -- config (de)serialization ------------------------------------------------

# A config document is ``asdict(cfg)``: each dataclass's fields, in order.
_SPEC_LISTS = {
    "categorical": CategoricalSpec,
    "continuous": ContinuousSpec,
    "dependent": DependentSpec,
    "noise": NoiseSpec,
}


def config_to_doc(cfg: GenConfig) -> dict:
    return asdict(cfg)


def config_from_doc(doc: dict) -> GenConfig:
    """Build a GenConfig from its JSON document; a malformed one raises ConfigError.

    Absent keys take the dataclasses' defaults; an unknown key is an error.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"generator config must be a JSON object, got {type(doc).__name__}")
    try:
        kwargs = from_json(doc)
        for key, spec in _SPEC_LISTS.items():
            kwargs[key] = tuple(spec(**s) for s in kwargs.get(key, ()))
        if kwargs.get("group") is not None:
            kwargs["group"] = GroupSpec(**kwargs["group"])
        return GenConfig(**kwargs)
    except KeyError as exc:
        raise ConfigError(f"generator config is missing key {exc}") from None
    except (AttributeError, TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"generator config holds a malformed value: {exc}") from None


def _load_json(path: str | Path, what: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None


def load_config(path: str | Path) -> GenConfig:
    return config_from_doc(_load_json(path, "generator config"))


def load_truth(path: str | Path) -> TruthModel:
    return TruthModel.from_doc(_load_json(path, "truth file"))
