"""Four-pass network training.

Pass 1 collects outcome alphabets.  Pass 2 counts class-by-field joints
and keeps the fields whose cumulative MI share reaches ``t_prime``.
Pass 3 counts class-conditional joints over selected-field pairs and
keeps the dependencies whose cumulative conditional-MI share reaches
``t_field``.  Pass 4 estimates the class prior, one CPT per selected
node, and a per-node fallback table conditioned on the class alone.

:class:`Encoder` is the one codebook: training, batch scoring and the
single-case path (through ``NetworkModel.encoder``) turn every raw cell
and every outcome symbol into its integer code there.

Passes 2-4 share one counting engine, :func:`_count_pass`.  Each pass
only declares its count tables as axis tuples: ``("class", node)`` per
candidate node in pass 2; ``("class", a, b)`` per rank-ordered pair of
selected nodes in pass 3 (none when ``max_parents`` is 0); and in pass 4
``("class",)`` for the prior, ``("class", node)`` per selected node for
the fallbacks and ``("class", parent, node)`` per edge for the CPTs.
The engine reads through :meth:`Encoder.node_chunks`, the feed batch
scoring shares: it encodes only the variables the tables name and lags
only those named at a slot >= 1.
Before pass 3 and pass 4 read any data, :func:`_check_budget` holds the
pair tables, then the fallback and CPT tables, to ``max_model_cells``.

The dataset is read exactly four times regardless of variable count or
alphabet sizes; the model carries its :class:`PassStats` as proof.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dataio import MISSING_CELLS, Chunk, CsvDataset, PassStats, as_dataset
from .dataio import parse_float_column
from .errors import ModelSizeError, TrainingError
from .infometrics import (
    JointCounts,
    MIScore,
    conditional_mutual_information,
    mutual_information,
    select_by_cumulative,
)
from .outcomes import OutcomeTable, VariableOutcomes, collect_outcomes
from .schema import Schema, VariableSpec
from .windows import WindowState, node_id, node_order, node_var_slot

MODEL_FORMAT = "rarebayes-model-v1"


@dataclass
class CPT:
    """P{child | class (, field parent)}: one probability row per parent config.

    ``probs`` has shape (k, A_child) without a field parent or
    (k, A_parent, A_child) with one.  ``unseen`` flags rows whose raw
    count total was zero; such rows carry no evidence.
    """

    child: str
    parent: str | None
    probs: np.ndarray
    unseen: np.ndarray


@dataclass(frozen=True)
class RankedField:
    """A selected node with its MI against the class, in rank order."""

    node: str
    var: str
    slot: int
    mi: float


@dataclass
class NetworkModel:
    """Trained classifier: prior, ranked fields, parent map, CPTs, fallbacks."""

    schema: Schema
    seed: int
    class_symbols: tuple[str, ...]
    prior: np.ndarray
    outcomes: OutcomeTable
    ranked_fields: list[RankedField]
    parents: dict[str, str | None]
    cpts: dict[str, CPT]
    fallbacks: dict[str, CPT]
    pass_stats: PassStats

    @cached_property
    def encoder(self) -> Encoder:
        """The model's one codebook, built on first use."""
        return Encoder(self.schema, self.outcomes)

    def rare_class(self) -> str:
        """The least-frequent class by prior; ties go to alphabet order."""
        return self.class_symbols[int(np.argmin(self.prior))]

    # -- persistence ------------------------------------------------------

    def to_json_text(self) -> str:
        return json.dumps(self._to_doc(), indent=2) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json_text(), encoding="utf-8")

    def _to_doc(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "schema": asdict(self.schema),
            "seed": self.seed,
            "class_symbols": list(self.class_symbols),
            "prior": self.prior.tolist(),
            "outcomes": {
                var: {
                    "symbols": list(vo.symbols),
                    "edges": list(vo.edges) if vo.edges is not None else None,
                }
                for var, vo in self.outcomes.variables.items()
            },
            "ranked_fields": [
                {"node": rf.node, "var": rf.var, "slot": rf.slot, "mi": rf.mi}
                for rf in self.ranked_fields
            ],
            "parents": {node: self.parents[node] for node in self.parents},
            "cpts": {
                node: _cpt_to_doc(cpt) for node, cpt in self.cpts.items()
            },
            "fallbacks": {
                node: _cpt_to_doc(cpt) for node, cpt in self.fallbacks.items()
            },
            "pass_stats": asdict(self.pass_stats),
        }

    @staticmethod
    def from_doc(doc: dict) -> "NetworkModel":
        """Rebuild a model; a malformed document raises :class:`TrainingError`."""
        fmt = doc.get("format") if isinstance(doc, dict) else None
        if fmt != MODEL_FORMAT:
            raise TrainingError(f"unrecognized model format {fmt!r}")
        try:
            return NetworkModel._from_v1_doc(doc)
        except KeyError as exc:
            raise TrainingError(f"model document lacks field {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise TrainingError(f"malformed model document: {exc}") from exc

    @staticmethod
    def _from_v1_doc(doc: dict) -> "NetworkModel":
        s = doc["schema"]
        kwargs = {f.name: s[f.name] for f in fields(Schema)}
        kwargs["field_vars"] = tuple(VariableSpec(**v) for v in kwargs["field_vars"])
        schema = Schema(**kwargs)
        outcomes = OutcomeTable(
            class_var=schema.class_var,
            class_symbols=tuple(doc["class_symbols"]),
            variables={
                var: VariableOutcomes(
                    symbols=tuple(o["symbols"]),
                    edges=tuple(o["edges"]) if o["edges"] is not None else None,
                )
                for var, o in doc["outcomes"].items()
            },
        )
        stats = PassStats(**doc["pass_stats"])
        return NetworkModel(
            schema=schema,
            seed=doc["seed"],
            class_symbols=tuple(doc["class_symbols"]),
            prior=np.array(doc["prior"], dtype=np.float64),
            outcomes=outcomes,
            ranked_fields=[
                RankedField(rf["node"], rf["var"], rf["slot"], rf["mi"])
                for rf in doc["ranked_fields"]
            ],
            parents=dict(doc["parents"]),
            cpts={n: _cpt_from_doc(n, d) for n, d in doc["cpts"].items()},
            fallbacks={n: _cpt_from_doc(n, d) for n, d in doc["fallbacks"].items()},
            pass_stats=stats,
        )


def _cpt_to_doc(cpt: CPT) -> dict:
    return {
        "parent": cpt.parent,
        "probs": cpt.probs.tolist(),
        "unseen": cpt.unseen.tolist(),
    }


def _cpt_from_doc(node: str, doc: dict) -> CPT:
    return CPT(
        child=node,
        parent=doc["parent"],
        probs=np.array(doc["probs"], dtype=np.float64),
        unseen=np.array(doc["unseen"], dtype=bool),
    )


def load_model(path: str | Path) -> NetworkModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise TrainingError(f"{path} is not a model file: {exc}") from exc
    return NetworkModel.from_doc(doc)


# -- chunk encoding --------------------------------------------------------


class Encoder:
    """The model's one codebook: raw cells and outcome symbols to integer codes.

    ``codes`` holds one ``{symbol: code}`` dict per field variable, the
    bins of continuous variables included, with MISSING the last code.
    Every cell that :mod:`rarebayes.dataio`'s missing-cell rule calls
    MISSING codes as MISSING, even in a model whose alphabet holds ``""``.
    A raw categorical cell outside the alphabet codes as MISSING too.  A
    raw continuous cell is binned left-closed by ``edges`` (bin j iff
    e_j <= v < e_{j+1}).
    """

    def __init__(self, schema: Schema, outcomes: OutcomeTable):
        self.schema = schema
        self.class_lut = {sym: i for i, sym in enumerate(outcomes.class_symbols)}
        self.sizes = {var: len(vo.symbols) for var, vo in outcomes.variables.items()}
        self.missing = {var: size - 1 for var, size in self.sizes.items()}
        self.codes = {
            var: {sym: i for i, sym in enumerate(vo.symbols)}
            | dict.fromkeys(MISSING_CELLS, self.missing[var])
            for var, vo in outcomes.variables.items()
        }
        self.edges = {
            spec.name: np.asarray(outcomes.edges(spec.name) or (), dtype=np.float64)
            for spec in schema.continuous_vars
        }

    def encode_var(self, name: str, col: list[str]) -> np.ndarray:
        """Codes of one variable's raw cells."""
        if name not in self.edges:
            lut = self.codes[name]
            miss = self.missing[name]
            return np.fromiter(
                map(lut.get, col, repeat(miss)), dtype=np.int64, count=len(col)
            )
        values = parse_float_column(col)
        codes = np.searchsorted(self.edges[name], values, side="right").astype(np.int64)
        codes[np.isnan(values)] = self.missing[name]
        return codes

    def encode_class(self, col: list[str]) -> np.ndarray:
        return np.fromiter(
            map(self.class_lut.get, col, repeat(-1)), dtype=np.int64, count=len(col)
        )

    def encode_chunk(self, chunk: Chunk, names: Sequence[str] | None = None):
        """Codes for the field variables ``names`` (default: all) and the class."""
        if names is None:
            names = [v.name for v in self.schema.field_vars]
        var_codes = {name: self.encode_var(name, chunk.columns[name]) for name in names}
        class_codes = None
        if self.schema.class_var in chunk.columns:
            class_codes = self.encode_class(chunk.columns[self.schema.class_var])
        groups = (
            chunk.columns.get(self.schema.group_key)
            if self.schema.group_key
            else None
        )
        return var_codes, class_codes, groups

    def node_chunks(
        self, ds: CsvDataset, nodes: Iterable[str], chunk_rows: int
    ) -> Iterator[tuple[Chunk, dict[str, np.ndarray], np.ndarray | None]]:
        """One pass over ``ds``, yielding ``(chunk, codes, class_codes)`` per chunk.

        ``codes`` holds a code column for every node in ``nodes``.  Only the
        nodes' base variables are read and encoded, and only the variables
        named at a slot >= 1 are lagged, so a model without lagged nodes
        builds no lag columns.  The chunk carries the raw class column
        whenever the file has one.
        """
        slots = [node_var_slot(node) for node in nodes]
        base = {var for var, _ in slots}
        lagged_base = {var for var, slot in slots if slot > 0}
        names = [v.name for v in self.schema.field_vars if v.name in base]
        lagged = [name for name in names if name in lagged_base]
        state = WindowState(self.schema, lagged, dict(self.missing))
        wanted = list(names)
        if lagged and self.schema.group_key:
            wanted.append(self.schema.group_key)
        if self.schema.class_var in ds.header():
            wanted.append(self.schema.class_var)
        for chunk in ds.iter_chunks(wanted, chunk_rows):
            codes, class_codes, groups = self.encode_chunk(chunk, names)
            if lagged:
                codes.update(state.lag_columns(codes, groups))
            yield chunk, codes, class_codes


# -- training passes -------------------------------------------------------


def _table_shape(enc: Encoder, table: tuple[str, ...]) -> tuple[int, ...]:
    """Axis sizes of a count table: the class alphabet, then each node's."""
    return (len(enc.class_lut),) + tuple(
        enc.sizes[node_var_slot(node)[0]] for node in table[1:]
    )


def _count_pass(
    ds: CsvDataset,
    enc: Encoder,
    tables: list[tuple[str, ...]],
    chunk_rows: int,
) -> dict[tuple[str, ...], np.ndarray]:
    """One dataset pass filling a count table for each axis tuple in ``tables``.

    Each table is ``("class", node, ...)`` and comes back keyed by that
    tuple, shaped by its axes' alphabet sizes.  Rows with an unknown class
    are read but not counted.  Only the columns the tables name are read
    (:meth:`Encoder.node_chunks`).  A pass with no tables still reads every
    chunk, so each call is exactly one pass.
    """
    counts = {table: np.zeros(_table_shape(enc, table), dtype=np.int64) for table in tables}
    nodes = {node for table in tables for node in table[1:]}
    for _, codes, class_codes in enc.node_chunks(ds, nodes, chunk_rows):
        labelled = class_codes >= 0
        for table, table_counts in counts.items():
            flat = class_codes
            for node, size in zip(table[1:], table_counts.shape[1:]):
                flat = flat * size + codes[node]
            table_counts += np.bincount(
                flat[labelled], minlength=table_counts.size
            ).reshape(table_counts.shape)
    return counts


def _check_budget(
    schema: Schema,
    enc: Encoder,
    named_tables: dict[str, tuple[str, ...]],
    counted_first: Sequence[tuple[str, ...]] = (),
) -> None:
    """Raise :class:`ModelSizeError` naming the first of ``named_tables`` that
    takes the running cell total past ``max_model_cells``.  The cells of
    ``counted_first`` open the total but cannot raise on their own."""
    cells = sum(math.prod(_table_shape(enc, table)) for table in counted_first)
    for name, table in named_tables.items():
        cells += math.prod(_table_shape(enc, table))
        if cells > schema.max_model_cells:
            raise ModelSizeError(
                f"{name} would exceed max_model_cells={schema.max_model_cells}"
            )


def select_dependencies(
    cmi: Sequence[MIScore],
    t_field: float,
    ranking: Sequence[str],
    max_parents: int,
) -> list[tuple[str, str]]:
    """Greedy field-to-field edge selection.

    Visits pairs in descending CMI (ties keep input order, which the
    trainer supplies in rank order), orients each accepted edge from the
    higher-ranked endpoint to the lower-ranked one, and skips any pair
    whose child already has ``max_parents`` field parents.  Skipped pairs
    contribute nothing to the cumulative total; accumulation stops once
    accepted CMI reaches ``t_field`` of the grand total.  Edges always
    point down the ranking, so the result is acyclic.
    """
    if not 0.0 <= t_field <= 1.0:
        raise ValueError(f"t_field must lie in [0, 1], got {t_field}")
    rank = {node: i for i, node in enumerate(ranking)}
    for score in cmi:
        a, b = score.subject
        if a not in rank or b not in rank:
            raise ValueError(f"pair ({a}, {b}) has an unselected endpoint")
    total = sum(s.value for s in cmi)
    if total <= 0 or max_parents == 0:
        return []
    parent_count: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    cum = 0.0
    for score in sorted(cmi, key=lambda s: s.value, reverse=True):
        if score.value <= 0:
            break
        a, b = score.subject
        parent, child = (a, b) if rank[a] < rank[b] else (b, a)
        if parent_count.get(child, 0) >= max_parents:
            continue
        edges.append((parent, child))
        parent_count[child] = parent_count.get(child, 0) + 1
        cum += score.value
        if cum / total >= t_field:
            break
    return edges


def _normalize_rows(child: str, parent: str | None, counts: np.ndarray, alpha: float) -> CPT:
    totals = counts.sum(axis=-1)
    unseen = totals == 0
    a = counts.shape[-1]
    denom = totals + alpha * a
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = (counts + alpha) / denom[..., None]
    probs = np.where(np.isfinite(probs), probs, 0.0)
    return CPT(child=child, parent=parent, probs=probs, unseen=unseen)


def estimate_cpts(
    cpt_counts: dict[str, np.ndarray],
    fallback_counts: dict[str, np.ndarray],
    class_counts: np.ndarray,
    parents: dict[str, str | None],
    smoothing: float = 0.0,
) -> tuple[dict[str, CPT], dict[str, CPT], np.ndarray]:
    """Turn pass-4 counts into CPTs, fallback tables, and the class prior.

    Each row is (count + alpha) / (rowTotal + alpha * |alphabet|); rows
    whose raw total is zero are flagged unseen regardless of smoothing.
    The prior is the unsmoothed empirical class frequency.
    """
    cpts: dict[str, CPT] = {}
    for node, parent in parents.items():
        counts = cpt_counts[node] if parent is not None else fallback_counts[node]
        cpts[node] = _normalize_rows(node, parent, counts, smoothing)
    fallbacks = {
        node: _normalize_rows(node, None, fallback_counts[node], smoothing)
        for node in parents
    }
    total = class_counts.sum()
    if total == 0:
        raise TrainingError("no labeled records to estimate the class prior")
    prior = class_counts.astype(np.float64) / total
    return cpts, fallbacks, prior


def train(
    schema: Schema,
    data: str | Path | CsvDataset,
    *,
    seed: int = 0,
    reservoir_capacity: int = 100_000,
    max_categories: int = 10_000,
    chunk_rows: int = 65536,
) -> NetworkModel:
    """Train a network in exactly four dataset passes.

    Raises :class:`TrainingError` when the class column has fewer than
    two observed outcomes and :class:`ModelSizeError` when planned count
    tables would blow the cell budget.
    """
    ds = as_dataset(data)
    ds.require_columns(ds.schema_columns(schema, require_class=True))

    outcomes = collect_outcomes(
        schema,
        ds,
        seed=seed,
        reservoir_capacity=reservoir_capacity,
        max_categories=max_categories,
    )
    if len(outcomes.class_symbols) < 2:
        raise TrainingError(
            f"class column {schema.class_var!r} needs >= 2 observed outcomes, "
            f"got {len(outcomes.class_symbols)}"
        )
    enc = Encoder(schema, outcomes)

    counts = _count_pass(
        ds, enc, [("class", node_id(v, s)) for v, s in node_order(schema)], chunk_rows
    )
    scores = [
        MIScore(subject=table[1], value=mutual_information(JointCounts(table, c)))
        for table, c in counts.items()
    ]
    selected = select_by_cumulative(scores, schema.t_prime)
    ranked = [
        RankedField(node=s.subject, var=node_var_slot(s.subject)[0],
                    slot=node_var_slot(s.subject)[1], mi=s.value)
        for s in selected
    ]
    nodes = [rf.node for rf in ranked]

    pairs = {
        f"pairwise counts for ({a}, {b})": ("class", a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1:]
    } if schema.max_parents > 0 else {}
    _check_budget(schema, enc, pairs)
    counts = _count_pass(ds, enc, list(pairs.values()), chunk_rows)
    pair_scores = [
        MIScore(subject=table[1:], value=conditional_mutual_information(JointCounts(table, c)))
        for table, c in counts.items()
    ]
    edges = select_dependencies(pair_scores, schema.t_field, nodes, schema.max_parents)
    parents: dict[str, str | None] = {node: None for node in nodes}
    for parent, child in edges:
        parents[child] = parent

    fallback_tables = [("class", node) for node in nodes]
    cpt_tables = {
        f"CPT for node {node!r}": ("class", parent, node)
        for node, parent in parents.items()
        if parent is not None
    }
    _check_budget(schema, enc, cpt_tables, counted_first=fallback_tables)
    counts = _count_pass(
        ds, enc, [("class",), *fallback_tables, *cpt_tables.values()], chunk_rows
    )
    cpts, fallbacks, prior = estimate_cpts(
        {table[2]: counts[table] for table in cpt_tables.values()},
        {table[1]: counts[table] for table in fallback_tables},
        counts[("class",)],
        parents,
        schema.smoothing,
    )

    return NetworkModel(
        schema=schema,
        seed=seed,
        class_symbols=outcomes.class_symbols,
        prior=prior,
        outcomes=outcomes,
        ranked_fields=ranked,
        parents=parents,
        cpts=cpts,
        fallbacks=fallbacks,
        pass_stats=PassStats(
            passes=ds.stats.passes, rows=ds.stats.rows, rejected=ds.stats.rejected
        ),
    )
