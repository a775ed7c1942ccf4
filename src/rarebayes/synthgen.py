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
a matching schema file, and the truth document.  The CSV is rendered a
block of rows at a time into one byte matrix, with no Python string per
cell.  A continuous value's digits come from integer arithmetic on
rint(|x| * 1e6), which gives ``'%.6f'``'s bytes unless the value lies
near a rounding tie, has an integer part of 2**32 or more, or is not
finite; a block's column holding such a value goes through ``'%.6f'``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import dataio
from .dataio import MISSING, csv_cell, csv_output, json_text, output, output_dir, read_text
from .errors import ConfigError, EvidenceError, few
from .schema import Schema, VariableSpec, format_schema, from_json, is_utf8

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
    if bad := [o for o in outcomes if not is_utf8(o)]:
        raise ConfigError(f"{spec.name}: outcomes {few(bad)} cannot be written as UTF-8")
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
        if self.n > np.iinfo(np.intp).max:  # numpy cannot size an array past it
            raise ConfigError(f"n must be at most {np.iinfo(np.intp).max}, got {self.n}")
        _check_count("seed", self.seed, 0)
        if self.group is not None:
            _check_count("records_per_group", self.group.records_per_group, 1)
        if not 0.0 < self.positive_rate < 1.0:
            raise ConfigError(f"positive_rate must lie in (0, 1), got {self.positive_rate}")
        if len(self.class_labels) != 2 or len(set(self.class_labels)) != 2:
            raise ConfigError("class_labels must be two distinct labels")
        if any(label in dataio.MISSING_CELLS for label in self.class_labels):
            raise ConfigError(f"class_labels may not include '' or {MISSING!r}, which the "
                              f"reader takes for a missing cell, got {list(self.class_labels)!r}")
        if bad := [label for label in self.class_labels if not is_utf8(label)]:
            raise ConfigError(f"class labels {few(bad)} cannot be written as UTF-8")
        self.to_schema()  # the schema's rules judge every name, before any law
        for spec in self.all_vars:
            if not 0.0 <= spec.missing_rate <= 1.0:
                raise ConfigError(
                    f"{spec.name}: missing_rate must lie in [0, 1], got {spec.missing_rate}"
                )
        for spec in self.all_vars:
            for what, _, law in spec.laws(self):
                _check_law(spec, what, law)

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


# -- writing ----------------------------------------------------------------
#
# A block of rows is rendered as one (width, rows) uint8 matrix and a keep
# mask of the same shape: each column owns a band of matrix rows, and the
# mask marks the bytes each data row writes.

# y = |x| * 1e6 is the exact |x| * 10**6 rounded once, so the two differ by
# less than y * 2**-52: farther than that from a tie, both round alike.
_TIE_MARGIN = 2.0 ** -52


def _byte_table(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """``cells`` UTF-8 encoded, cell ``i`` left-aligned in column ``i`` of a
    ``(width, len(cells))`` byte matrix, and the mask of its bytes."""
    data = [cell.encode() for cell in cells]
    lengths = np.array([len(b) for b in data])
    width = max(1, int(lengths.max()))
    table = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width).T
    return table, np.arange(width)[:, None] < lengths


def _outcome_tables(config: GenConfig) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each categorical variable's and the class's :func:`_byte_table` of
    its outcomes' CSV cells, with MISSING as the last column (code -1)."""
    return {name: _byte_table([csv_cell(str(o)) for o in outcomes] + [MISSING])
            for name, outcomes in [(config.class_var, config.class_labels)] + [
                (spec.name, spec.outcomes) for spec in config.all_vars
                if not spec.continuous]}


def _decimal(values: np.ndarray, least: int, lead: int,
             marked: np.ndarray | bool) -> tuple[np.ndarray, np.ndarray]:
    """Non-negative integers in decimal, zero-padded to ``least`` digits and
    right-aligned in a byte matrix with one spare row in front, and the
    mask of each number's digits.  Where ``marked``, the byte ``lead`` just
    before a number's first digit is kept too."""
    places = max(least, len(str(values.max())))
    cells = np.empty((places + 1, len(values)), np.uint8)
    rest = values
    for row in range(places, 0, -1):
        quotient = rest // 10
        cells[row] = rest - quotient * 10
        rest = quotient
    cells += ord("0")
    # rows 1..top hold the digits past the ``least`` padded ones: each shows
    # from its number's first digit on, and the lead goes in rows 0..top
    top = places - least
    keep = np.ones(cells.shape, bool)
    keep[0] = False
    keep[1:top + 1] = values >= 10 ** np.arange(places - 1, least - 1, -1,
                                                dtype=values.dtype)[:, None]
    at = keep[1:top + 2] & ~keep[:top + 1] & marked
    cells[:top + 1][at] = lead
    keep[:top + 1] |= at
    return cells, keep


def _number_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%.6f'`` of each of ``values`` as a byte matrix and keep mask: the
    digits of rint(|x| * 1e6), or ``'%.6f'`` itself when some value lies
    near a tie, has an integer part of 2**32 or more, or is not finite."""
    magnitude = np.abs(values)
    if (magnitude < 2.0 ** 32).all():
        scaled = magnitude * 1e6
        rounded = np.rint(scaled)
        if not (np.abs(np.abs(scaled - rounded) - 0.5) <= scaled * _TIE_MARGIN).any():
            rounded = rounded.astype(np.uint64)
            whole = rounded // 10 ** 6
            frac = rounded - whole * 10 ** 6
            head, head_keep = _decimal(whole.astype(np.uint32), 1, ord("-"), np.signbit(values))
            tail, tail_keep = _decimal(frac.astype(np.uint32), 6, ord("."), True)
            return np.concatenate([head, tail]), np.concatenate([head_keep, tail_keep])
    return _byte_table(("%.6f\n" * len(values) % tuple(values.tolist())).split("\n")[:-1])


def _render_block(config: GenConfig, tables: Mapping[str, tuple[np.ndarray, np.ndarray]],
                  lo: int, class_codes: np.ndarray, columns: Mapping[str, np.ndarray],
                  missing_masks: Mapping[str, np.ndarray]) -> str:
    """The CSV lines of one block of rows, the first of them row ``lo``.

    ``class_codes``, ``columns`` and ``missing_masks`` hold just the
    block's rows; ``tables`` is :func:`_outcome_tables` of ``config``.
    """
    rows = len(class_codes)
    cells = []
    if config.group is not None:
        # a group of more rows than these holds all of them: the int64
        # division takes no larger divisor
        rpg = min(config.group.records_per_group, lo + rows)
        ids = np.arange(lo, lo + rows, dtype=np.int64) // rpg
        cells.append(_decimal(ids, 6, ord("g"), True))
    table, keep = tables[config.class_var]
    cells.append((table.take(class_codes, axis=1), keep.take(class_codes, axis=1)))
    for spec in config.all_vars:
        missing = missing_masks[spec.name]
        if spec.continuous:
            text, keep = _number_cells(columns[spec.name])
            keep &= ~missing
            keep[-1] |= missing
            text[-1] = np.where(missing, ord(MISSING), text[-1])
        else:
            codes = np.where(missing, -1, columns[spec.name])
            table, keep = tables[spec.name]
            text, keep = table.take(codes, axis=1), keep.take(codes, axis=1)
        cells.append((text, keep))
    comma = (np.full((1, rows), ord(","), np.uint8), np.ones((1, rows), bool))
    end = (np.tile(np.array([[ord("\r")], [ord("\n")]], np.uint8), rows),
           np.ones((2, rows), bool))
    pieces = [piece for cell in cells for piece in (cell, comma)]
    pieces[-1] = end
    text = np.concatenate([t for t, _ in pieces])
    keep = np.concatenate([k for _, k in pieces])
    return text.T[keep.T].tobytes().decode()


def generate(config: GenConfig, out_dir: str | Path) -> GenResult:
    """Write data.csv, schema.txt, and truth.json under ``out_dir``.

    Every column is drawn first, in one fixed order; the cells are then
    rendered and written ``dataio._WRITE_ROWS`` rows at a time, so the
    text of only one block of rows is held at once.  Each block is one
    ``(width, rows)`` byte matrix and a keep mask (:func:`_render_block`).
    Outcome and class cells are gathered by code from byte tables built
    once per call.  A continuous value x is written from the integer
    R = rint(|x| * 1e6): its integer part, ``.``, six decimals, and ``-``
    where x has its sign bit set.  R is ``'%.6f'``'s half-even rounding of
    the exact |x| * 10**6 unless y = |x| * 1e6 lies within y * 2**-52 of a
    tie, so a block's column goes through ``'%.6f'`` when any of its
    values lies that close, has an integer part of 2**32 or more, or is
    not finite.  Either way the bytes are ``'%.6f'``'s.
    """
    out = output_dir(out_dir)
    rng = np.random.default_rng(config.seed)
    class_codes, columns, missing_masks = _sample_columns(config, rng)

    header = [config.class_var] + [spec.name for spec in config.all_vars]
    if config.group is not None:
        header.insert(0, config.group.name)
    tables = _outcome_tables(config)
    truth = TruthModel(config=config)
    result = GenResult(data_path=out / "data.csv", schema_path=out / "schema.txt",
                       truth_path=out / "truth.json", truth=truth)
    # all three are written in full before any of them replaces its path
    with (output(result.schema_path) as schema_fh, output(result.truth_path) as truth_fh,
          csv_output(result.data_path, header) as fh):
        schema_fh.write(format_schema(config.to_schema()))
        truth_fh.write(json_text(truth.to_doc()))
        for lo in range(0, config.n, dataio._WRITE_ROWS):
            block = slice(lo, lo + dataio._WRITE_ROWS)
            fh.write(_render_block(
                config, tables, lo, class_codes[block],
                {name: column[block] for name, column in columns.items()},
                {name: mask[block] for name, mask in missing_masks.items()}))
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
