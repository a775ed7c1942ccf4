"""Seeded synthetic data from a known generative network, plus an exact oracle.

The generator samples ancestrally: class first, then each variable given
the class (and, for planted dependencies, a categorical parent).  The
exact network is returned as a :class:`TruthModel` so tests can compare
learned posteriors against :func:`analytic_posterior`, which uses the
true densities rather than bins.

Each variable spec answers three questions, and validation, sampling,
the schema, the CSV cells and the oracle ask nothing else of it:

- ``continuous``: whether its values are normal draws (written as
  numbers) or outcome codes (written as names).  It is a class attribute
  or property, never a field, so the config document is unchanged.
- ``laws(cfg)``: its conditional laws in draw order, each
  ``(what, cell, law)``.  ``law`` is a pmf over ``outcomes`` or a
  ``(mean, sd)`` pair; ``cell`` is the rows it draws, as
  ``(column, code)`` conditions; ``what`` names it in error messages.
  :class:`CategoricalSpec` and :class:`ContinuousSpec` have one law per
  class, :class:`DependentSpec` one per class and parent outcome (class
  outer), and :class:`NoiseSpec` one over all rows.
- ``likelihood(cfg, value, record, label)``: the probability or density
  of an observed ``value`` given the class ``label``.  A dependent child
  whose parent is missing from ``record`` sums over the parent's outcomes.

Output is byte-identical for identical (config, seed): the dataset CSV,
a matching schema file, and the truth document.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import dataio
from .dataio import MISSING, csv_cell, csv_output, json_text, output, output_dir, read_text, write_rows
from .errors import ConfigError, EvidenceError
from .schema import Schema, VariableSpec, format_schema, from_json

TRUTH_FORMAT = "rarebayes-truth-v1"
_PMF_TOL = 1e-9


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_law(spec, what: str, law) -> None:
    """Raise ConfigError unless ``law`` is a valid law for ``spec``."""
    if spec.continuous:
        mean, sd = law
        if sd is None or sd <= 0:
            raise ConfigError(f"{what}: sd must be positive")
        if not (isinstance(mean, (int, float)) and math.isfinite(mean) and math.isfinite(sd)):
            raise ConfigError(f"{what}: mean and sd must be finite numbers")
        return
    outcomes = spec.outcomes
    if not isinstance(outcomes, (list, tuple)) or not all(isinstance(o, str) for o in outcomes) \
            or len(set(outcomes)) != len(outcomes) \
            or any(o in dataio.MISSING_CELLS for o in outcomes):
        raise ConfigError(f"{spec.name}: outcomes must be a list of distinct names, "
                          f"none of them '' or {MISSING!r}, got {outcomes!r}")
    if not isinstance(law, (list, tuple)):
        raise ConfigError(f"{what}: pmf must be a list of probabilities, got {law!r}")
    pmf = tuple(float(x) for x in law)
    if any(x < 0 for x in pmf):
        raise ConfigError(f"{what}: probabilities must be nonnegative")
    if not abs(sum(pmf) - 1.0) <= _PMF_TOL:  # a NaN fails this too
        raise ConfigError(f"{what}: probabilities sum to {sum(pmf)}, expected 1")
    if len(pmf) != len(outcomes):
        raise ConfigError(f"{what}: pmf length mismatch")


def _outcome_index(spec, value) -> int:
    if value not in spec.outcomes:
        raise EvidenceError(f"{spec.name}: unknown outcome {value!r}")
    return spec.outcomes.index(value)


def _normal_pdf(x: float, mean: float, sd: float) -> float:
    z = (x - mean) / sd
    return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def _is_missing(spec, value) -> bool:
    """The reader's missing rule for an oracle value of ``spec``: None, a
    float NaN, a MISSING cell, or, for a continuous spec, a value that
    :func:`~rarebayes.dataio.parse_float_column` reads as NaN."""
    if value is None or isinstance(value, str) and value in dataio.MISSING_CELLS:
        return True
    if spec.continuous:
        value = dataio.parse_float_column([value])[0]
    return isinstance(value, float) and math.isnan(value)


@dataclass(frozen=True)
class CategoricalSpec:
    """Class-conditioned categorical variable."""

    name: str
    outcomes: tuple[str, ...]
    dist: Mapping[str, Sequence[float]]      # class label -> pmf over outcomes
    missing_rate: float = 0.0

    continuous = False

    def laws(self, cfg: GenConfig):
        for ci, label in enumerate(cfg.class_labels):
            yield f"{self.name}/{label}", ((cfg.class_var, ci),), self.dist[label]

    def likelihood(self, cfg: GenConfig, value, record, label: str) -> float:
        return self.dist[label][_outcome_index(self, value)]


@dataclass(frozen=True)
class ContinuousSpec:
    """Class-conditioned normal variable."""

    name: str
    mean: Mapping[str, float]
    sd: Mapping[str, float]
    missing_rate: float = 0.0

    continuous = True

    def laws(self, cfg: GenConfig):
        for ci, label in enumerate(cfg.class_labels):
            yield f"{self.name}/{label}", ((cfg.class_var, ci),), \
                (self.mean[label], self.sd[label])

    def likelihood(self, cfg: GenConfig, value, record, label: str) -> float:
        return _normal_pdf(float(value), self.mean[label], self.sd[label])


@dataclass(frozen=True)
class DependentSpec:
    """Categorical child conditioned on the class and one categorical parent."""

    name: str
    parent: str
    outcomes: tuple[str, ...]
    dist: Mapping[str, Mapping[str, Sequence[float]]]  # class -> parent outcome -> pmf
    missing_rate: float = 0.0

    continuous = False

    def _parent_spec(self, cfg: GenConfig) -> CategoricalSpec:
        for spec in cfg.categorical:
            if spec.name == self.parent:
                return spec
        raise ConfigError(f"{self.name}: parent {self.parent!r} is not a categorical variable")

    def laws(self, cfg: GenConfig):
        parent = self._parent_spec(cfg)
        for ci, label in enumerate(cfg.class_labels):
            for pi, po in enumerate(parent.outcomes):
                yield f"{self.name}/{label}/{po}", \
                    ((cfg.class_var, ci), (self.parent, pi)), self.dist[label][po]

    def likelihood(self, cfg: GenConfig, value, record, label: str) -> float:
        idx = _outcome_index(self, value)
        parent = self._parent_spec(cfg)
        pvalue = record.get(self.parent)
        if _is_missing(parent, pvalue):
            return sum(parent.likelihood(cfg, po, record, label) * self.dist[label][po][idx]
                       for po in parent.outcomes)
        _outcome_index(parent, pvalue)
        return self.dist[label][pvalue][idx]


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
    def continuous(self) -> bool:
        return self.mean is not None or self.sd is not None

    def laws(self, cfg: GenConfig):
        if self.continuous == (self.outcomes is not None or self.dist is not None):
            raise ConfigError(f"{self.name}: declare either outcomes+dist or mean+sd")
        yield self.name, (), (self.mean, self.sd) if self.continuous else self.dist

    def likelihood(self, cfg: GenConfig, value, record, label: str) -> float:
        if self.continuous:
            return _normal_pdf(float(value), self.mean, self.sd)
        return self.dist[_outcome_index(self, value)]


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
        for spec in self.all_vars:
            for what, _, law in spec.laws(self):
                _check_law(spec, what, law)
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
        return Schema(
            class_var=self.class_var,
            field_vars=tuple(
                VariableSpec(s.name, "continuous", "entropy") if s.continuous
                else VariableSpec(s.name, "categorical")
                for s in self.all_vars
            ),
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


def analytic_posterior(truth: TruthModel, record: Mapping[str, object]) -> dict[str, float]:
    """Exact Bayes posterior under the generative network.

    Continuous evidence uses the true normal densities.  A dependent
    child whose parent is missing is marginalized over the parent's
    class-conditional distribution.  A value missing by the reader's rule
    (:func:`_is_missing`) contributes nothing.
    """
    cfg = truth.config
    labels = cfg.class_labels
    weights = {label: cfg.prior[label] for label in labels}
    for spec in cfg.all_vars:
        value = record.get(spec.name)
        if _is_missing(spec, value):
            continue
        for label in labels:
            weights[label] *= spec.likelihood(cfg, value, record, label)

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

    columns: dict[str, np.ndarray] = {cfg.class_var: class_codes}
    for spec in cfg.all_vars:
        column = np.zeros(n, dtype=np.float64 if spec.continuous else np.int64)
        for _, cell, law in spec.laws(cfg):
            mask = np.ones(n, dtype=bool)
            for var, code in cell:
                mask &= columns[var] == code
            m = int(mask.sum())
            if m:
                column[mask] = rng.normal(*law, size=m) if spec.continuous \
                    else rng.choice(len(law), size=m, p=np.asarray(law))
        columns[spec.name] = column

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
    if spec.continuous:
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
    out = output_dir(out_dir)
    rng = np.random.default_rng(config.seed)
    class_codes, columns, missing_masks = _sample_columns(config, rng)

    header = [config.class_var] + [spec.name for spec in config.all_vars]
    if config.group is not None:
        header.insert(0, config.group.name)
    class_cells = _outcome_cells(config.class_labels)
    truth = TruthModel(config=config)
    result = GenResult(data_path=out / "data.csv", schema_path=out / "schema.txt",
                       truth_path=out / "truth.json", truth=truth)
    # all three are written in full before any of them replaces its path
    with (output(result.schema_path) as schema_fh, output(result.truth_path) as truth_fh,
          csv_output(result.data_path, header) as fh):
        schema_fh.write(format_schema(config.to_schema()))
        truth_fh.write(json_text(truth.to_doc()))
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
    return result


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
    try:
        return json.loads(read_text(path))
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None


def load_config(path: str | Path) -> GenConfig:
    return config_from_doc(_load_json(path, "generator config"))


def load_truth(path: str | Path) -> TruthModel:
    return TruthModel.from_doc(_load_json(path, "truth file"))
