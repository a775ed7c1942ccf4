"""Four-pass network training.

Pass 1 collects outcome alphabets.  Pass 2 counts class-by-field joints
and keeps the fields whose cumulative MI share reaches ``t_prime``.
Pass 3 counts class-conditional joints over selected-field pairs and
keeps the dependencies whose cumulative conditional-MI share reaches
``t_field``.  Pass 4 estimates the class prior, one CPT per selected
node, and a per-node fallback table conditioned on the class alone.

:class:`Encoder` is the one codebook: after pass 1, training, batch
scoring and the single-case path (through ``NetworkModel.encoder``) turn
every raw cell, class cells included, and every outcome symbol into its
integer code there.

Passes 2-4 count through :func:`_count_pass` and the one counting engine,
:func:`~rarebayes.infometrics.count_table`.  Each pass only declares its
count tables as axis tuples: ``("class", node)`` per candidate node in
pass 2; ``("class", a, b)`` per rank-ordered pair of selected nodes in
pass 3 (none when ``max_parents`` is 0); and in pass 4 ``("class",)``
for the prior, ``("class", node)`` per selected node for the fallbacks
and ``("class", *parents, node)`` per selected node for the CPTs (for a
parentless node, the same table).  A row of unknown or MISSING class is
counted in one of two discard rows past the last class, then cut off.
A pass reads through :meth:`Encoder.node_chunks`, the feed batch scoring
shares: it encodes only the variables the tables name and lags only
those named at a slot >= 1.
Each of passes 2-4 is held to ``max_model_cells`` before it reads any
data: pass 2's class × field tables (classes × ``window`` × the summed
alphabet sizes), then through :func:`_check_budget` the pair tables, then
the fallback and CPT tables.

The dataset is read exactly four times regardless of variable count or
alphabet sizes; the model carries its :class:`PassStats` as proof.

The model document holds the schema as ``asdict`` writes it, and
:meth:`~rarebayes.schema.Schema.from_doc` reads it back; training
requires the columns :meth:`~rarebayes.schema.Schema.columns` names.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .dataio import MISSING_CELLS, Chunk, ClassCodes, CsvDataset, PassStats, as_dataset
from .dataio import json_text, output, parse_float_column, read_text
from .errors import ModelSizeError, TrainingError, few
from .infometrics import (
    _SUM_TOL,
    MIScore,
    conditional_mutual_information,
    count_table,
    mutual_information,
    select_by_cumulative,
)
from .outcomes import OutcomeTable, VariableOutcomes, collect_outcomes
from .schema import Schema, from_json, is_utf8
from .windows import WindowState, node_id, node_order, node_var_slot

MODEL_FORMAT = "rarebayes-model-v1"


@dataclass
class CPT:
    """P{child | class, field parents}: one probability row per parent config.

    ``probs`` has shape (k, A_parent_1, ..., A_parent_m, A_child) for a
    node's m field parents (``NetworkModel.parents``), so (k, A_child)
    for a fallback or a parentless node.  ``unseen`` flags rows whose raw
    count total was zero; such rows carry no evidence.
    """

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
    """Trained classifier: prior, ranked fields, parent tuples, CPTs, fallbacks."""

    schema: Schema
    seed: int
    class_symbols: tuple[str, ...]
    prior: np.ndarray
    outcomes: OutcomeTable
    ranked_fields: list[RankedField]
    parents: dict[str, tuple[str, ...]]
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
        return json_text(self._to_doc())

    def save(self, path: str | Path) -> None:
        with output(path) as fh:
            fh.write(self.to_json_text())

    def _to_doc(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "schema": asdict(self.schema),
            "seed": self.seed,
            "class_symbols": list(self.class_symbols),
            "prior": self.prior.tolist(),
            "outcomes": {
                var: asdict(vo) for var, vo in self.outcomes.variables.items()
            },
            "ranked_fields": [asdict(rf) for rf in self.ranked_fields],
            "parents": {node: _parents_to_doc(ps) for node, ps in self.parents.items()},
            "cpts": {
                node: _cpt_to_doc(cpt, self.parents[node]) for node, cpt in self.cpts.items()
            },
            "fallbacks": {
                node: _cpt_to_doc(cpt, ()) for node, cpt in self.fallbacks.items()
            },
            "pass_stats": asdict(self.pass_stats),
        }

    @staticmethod
    def from_doc(doc: dict) -> "NetworkModel":
        """Rebuild a model; a malformed document raises :class:`TrainingError`,
        and so does one whose tables or alphabets the codebook cannot hold."""
        fmt = doc.get("format") if isinstance(doc, dict) else None
        if fmt != MODEL_FORMAT:
            raise TrainingError(f"unrecognized model format {fmt!r}")
        try:
            schema = Schema.from_doc(doc["schema"])
            outcomes = OutcomeTable(
                class_var=schema.class_var,
                class_symbols=tuple(doc["class_symbols"]),
                variables={
                    var: VariableOutcomes(**from_json(o)) for var, o in doc["outcomes"].items()
                },
            )
            model = NetworkModel(
                schema=schema,
                seed=doc["seed"],
                class_symbols=outcomes.class_symbols,
                prior=np.array(doc["prior"], dtype=np.float64),
                outcomes=outcomes,
                ranked_fields=[RankedField(**rf) for rf in doc["ranked_fields"]],
                parents={n: _parents_from_doc(n, ps) for n, ps in doc["parents"].items()},
                cpts={n: _cpt_from_doc(d) for n, d in doc["cpts"].items()},
                fallbacks={n: _cpt_from_doc(d) for n, d in doc["fallbacks"].items()},
                pass_stats=PassStats(**doc["pass_stats"]),
            )
            _check_tables(model)
            for node, parents in model.parents.items():
                for what, table, named in (("CPT", doc["cpts"], _parents_to_doc(parents)),
                                           ("fallback", doc["fallbacks"], None)):
                    if table[node]["parent"] != named:
                        raise TrainingError(f"{what} for node {node!r} names the wrong parent")
            model.encoder  # built now, so a codebook it cannot hold fails here
        except KeyError as exc:
            raise TrainingError(f"model document lacks field {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise TrainingError(f"malformed model document: {exc}") from exc
        return model


def _check_tables(model: NetworkModel) -> None:
    """Raise :class:`TrainingError` unless the codebook can hold the
    alphabets, every table fits the alphabets and nodes it is read with,
    and the prior is a distribution strictly inside (0, 1): scoring would
    otherwise code cells wrongly, broadcast a wrong shape, or write a
    posterior of 0 or 1."""
    k = len(model.class_symbols)
    sizes = {var: len(vo.symbols) for var, vo in model.outcomes.variables.items()}
    if set(sizes) != set(model.schema.var_names):
        raise TrainingError("model alphabets do not match the schema's field variables")
    alphabets = [model.class_symbols, *(vo.symbols for vo in model.outcomes.variables.values())]
    if not all(isinstance(sym, str) for symbols in alphabets for sym in symbols):
        raise TrainingError("model outcome symbols must be strings")
    if bad := [sym for symbols in alphabets for sym in symbols if not is_utf8(sym)]:
        raise TrainingError(f"model outcome symbols {few(bad)} cannot be written as UTF-8")
    if len(set(model.class_symbols)) != k:
        raise TrainingError(f"class symbols {few(list(model.class_symbols))} are not distinct")
    for spec in model.schema.continuous_vars:
        vo = model.outcomes.variables[spec.name]
        # an infinite cut is allowed: a legacy model may hold one
        if (not all(type(e) in (int, float) and not math.isnan(e) for e in vo.edges)
                or len(vo.symbols) != len(vo.edges) + 2):
            raise TrainingError(
                f"variable {spec.name!r} needs numeric, non-NaN bin edges, "
                f"two fewer than its {len(vo.symbols)} symbols"
            )
    if model.prior.shape != (k,):
        raise TrainingError(f"prior has shape {model.prior.shape}, expected ({k},)")
    var_of = {}
    for rf in model.ranked_fields:
        var, slot = node_var_slot(rf.node)
        if (var not in sizes or slot not in range(model.schema.window)
                or node_id(var, slot) != rf.node or (rf.var, rf.slot) != (var, slot)):
            raise TrainingError(
                f"ranked node {rf.node!r} is not a schema variable at a valid slot"
            )
        var_of[rf.node] = rf.var
    if not set(model.parents) == set(model.cpts) == set(model.fallbacks) == set(var_of):
        raise TrainingError("parents, CPTs and fallbacks must cover exactly the ranked nodes")
    for node, parents in model.parents.items():
        for parent in parents:
            if parent not in var_of:
                raise TrainingError(f"parent {parent!r} of node {node!r} is not a ranked node")
        if len({node, *parents}) != len(parents) + 1:
            raise TrainingError(f"node {node!r} names itself or one node twice as a parent")
        axes = tuple(sizes[var_of[n]] for n in (*parents, node))
        for what, cpt, shape in (
            ("CPT", model.cpts[node], (k, *axes)),
            ("fallback", model.fallbacks[node], (k, axes[-1])),
        ):
            if cpt.probs.shape != shape or cpt.unseen.shape != shape[:-1]:
                raise TrainingError(f"{what} for node {node!r} does not have shape {shape}")
    tables = [model.prior, *(c.probs for c in (*model.cpts.values(), *model.fallbacks.values()))]
    if not all(((t >= 0.0) & (t <= 1.0)).all() for t in tables):
        raise TrainingError("model probabilities must be finite and lie in [0, 1]")
    # a prior entry of 0 or 1 would leave a posterior at 0 or 1 before any evidence
    prior = model.prior
    if not (((prior > 0.0) & (prior < 1.0)).all() and abs(prior.sum() - 1.0) <= _SUM_TOL):
        raise TrainingError("prior entries must lie strictly inside (0, 1) and sum to 1")


def _parents_to_doc(parents: tuple[str, ...]) -> str | list[str] | None:
    """A node's parents as the model file spells them: null, a name, or a
    list of two or more names, so a k <= 1 model keeps its bytes."""
    return parents[0] if len(parents) == 1 else list(parents) or None


def _parents_from_doc(node: str, value) -> tuple[str, ...]:
    if value is None or isinstance(value, str):
        return () if value is None else (value,)
    if not isinstance(value, list) or len(value) < 2:
        raise TrainingError(f"parents of node {node!r} must be null, a name, "
                            "or a list of two or more names")
    return tuple(value)


def _cpt_to_doc(cpt: CPT, parents: tuple[str, ...]) -> dict:
    return {
        "parent": _parents_to_doc(parents),
        "probs": cpt.probs.tolist(),
        "unseen": cpt.unseen.tolist(),
    }


def _cpt_from_doc(doc: dict) -> CPT:
    return CPT(
        probs=np.array(doc["probs"], dtype=np.float64),
        unseen=np.array(doc["unseen"], dtype=bool),
    )


def load_model(path: str | Path) -> NetworkModel:
    try:
        doc = json.loads(read_text(path))
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

    A variable's codes come in ``dtypes[var]``, the narrowest unsigned
    dtype that holds its alphabet, MISSING included (``uint8`` up to 256
    symbols, ``uint16`` up to 65,536), as column stores keep dictionary
    codes (Abadi, Madden & Ferreira, SIGMOD 2006).  ``ascii_tables``
    holds, per categorical variable, a 128-entry table of the code of each
    ASCII character read as a one-character cell.  Arithmetic on field
    codes must start from an ``int64`` operand: a Python int does not
    widen a ``uint8`` array, so ``codes * k`` would wrap.  ``class_symbols``
    sizes the class axis of every count table, and ``class_codes`` is the
    one class codebook: a class symbol codes as its index, any other label
    as k and a MISSING cell as k+1 (even where ``""`` is a symbol), so it
    holds at most k+2 entries however many labels a file has.
    """

    def __init__(self, schema: Schema, outcomes: OutcomeTable):
        self.schema = schema
        self.class_symbols = outcomes.class_symbols
        self.sizes = {var: len(vo.symbols) for var, vo in outcomes.variables.items()}
        self.missing = {var: size - 1 for var, size in self.sizes.items()}
        self.dtypes = {var: np.min_scalar_type(miss) for var, miss in self.missing.items()}
        self.class_codes = {sym: i for i, sym in enumerate(self.class_symbols)}
        self.class_codes |= dict.fromkeys(MISSING_CELLS, len(self.class_symbols) + 1)
        self.class_dtype = np.min_scalar_type(len(self.class_symbols) + 1)
        self.codes = {
            var: {sym: i for i, sym in enumerate(vo.symbols)}
            | dict.fromkeys(MISSING_CELLS, self.missing[var])
            for var, vo in outcomes.variables.items()
        }
        self.edges = {
            spec.name: np.asarray(outcomes.edges(spec.name) or (), dtype=np.float64)
            for spec in schema.continuous_vars
        }
        self.ascii_tables: dict[str, np.ndarray] = {}
        for var, codes in self.codes.items():
            if var not in self.edges:
                table = np.full(128, self.missing[var], dtype=self.dtypes[var])
                for sym, code in codes.items():
                    if len(sym) == 1 and sym.isascii():
                        table[ord(sym)] = code
                self.ascii_tables[var] = table

    def encode_var(self, name: str, col: list[str]) -> np.ndarray:
        """Codes of one variable's raw cells.

        A categorical column whose cells are all one ASCII character, as
        Y/N flags are, is coded from its raw bytes through a 128-entry
        table (every other character codes MISSING); any other column
        looks each cell up in the codes dict.  Both give the same codes.
        """
        if name not in self.edges:
            try:
                text = "".join(col)
            except TypeError:  # a non-str cell: the length test sends it to the dict
                text = ""
            if len(text) == len(col) and text.isascii() and all(col):
                return self.ascii_tables[name][np.frombuffer(text.encode("ascii"), np.uint8)]
            lut = self.codes[name]
            miss = self.missing[name]
            return np.fromiter(
                map(lut.get, col, repeat(miss)), dtype=self.dtypes[name], count=len(col)
            )
        values = parse_float_column(col)
        codes = np.searchsorted(self.edges[name], values, side="right").astype(
            self.dtypes[name]
        )
        codes[np.isnan(values)] = self.missing[name]
        return codes

    def encode_class(self, col: list[str]) -> np.ndarray:
        """Codes of raw class cells by ``class_codes``."""
        return np.fromiter(map(self.class_codes.get, col, repeat(len(self.class_symbols))),
                           dtype=self.class_dtype, count=len(col))

    def encode_chunk(
        self,
        chunk: Chunk,
        names: Sequence[str],
        labels: bool,
        groups: Callable[[list[str]], np.ndarray] | None,
    ):
        """Codes for the field variables ``names``, the class column's codes
        when ``labels`` is set and the group keys' ids by ``groups`` (each
        None when not asked for)."""
        var_codes = {name: self.encode_var(name, chunk.columns[name]) for name in names}
        class_codes = self.encode_class(chunk.columns[self.schema.class_var]) if labels else None
        group_ids = None if groups is None else groups(chunk.columns[self.schema.group_key])
        return var_codes, class_codes, group_ids

    def node_chunks(
        self,
        ds: CsvDataset,
        nodes: Iterable[str],
        labels: bool = False,
    ) -> Iterator[tuple[int, dict[str, np.ndarray], np.ndarray | None]]:
        """One pass over ``ds``, yielding ``(rows, codes, class codes)`` per chunk.

        ``codes`` holds a code column for every node in ``nodes``.  Only the
        nodes' base variables are read and encoded, and only the variables
        named at a slot >= 1 are lagged, so a model without lagged nodes
        builds no lag columns and reads no group key.  The reader hands each
        block to :meth:`encode_chunk` as soon as it is split, so no raw cell
        outlives its block; lags are built per chunk.  Group keys become ids
        from one :class:`~rarebayes.dataio.ClassCodes` per pass with no
        missing cell.  The class column is read only when ``labels`` is
        set, and coded by :meth:`encode_class`; otherwise the class codes are
        None.
        """
        slots = [node_var_slot(node) for node in nodes]
        base = {var for var, _ in slots}
        lagged_base = {var for var, slot in slots if slot > 0}
        names = [v.name for v in self.schema.field_vars if v.name in base]
        lagged = [name for name in names if name in lagged_base]
        state = WindowState(self.schema, lagged, dict(self.missing))
        wanted = list(names)
        groups = ClassCodes(missing=()) if lagged and self.schema.group_key else None
        if groups is not None:
            wanted.append(self.schema.group_key)
        if labels:
            wanted.append(self.schema.class_var)

        def decode(block: Chunk) -> dict:
            codes, class_codes, group_ids = self.encode_chunk(block, names, labels, groups)
            return {"codes": codes, "labels": class_codes, "groups": group_ids}

        for chunk in ds.iter_chunks(wanted, decode):
            decoded = chunk.columns
            codes = decoded["codes"]
            if lagged:
                codes.update(state.lag_columns(codes, decoded["groups"]))
            yield chunk.size, codes, decoded["labels"]


# -- training passes -------------------------------------------------------


def _table_shape(enc: Encoder, table: tuple[str, ...]) -> tuple[int, ...]:
    """Axis sizes of a count table: the class alphabet, then each node's."""
    return (len(enc.class_symbols),) + tuple(
        enc.sizes[node_var_slot(node)[0]] for node in table[1:]
    )


def _count_pass(
    ds: CsvDataset,
    enc: Encoder,
    tables: list[tuple[str, ...]],
) -> dict[tuple[str, ...], np.ndarray]:
    """One dataset pass filling a count table for each axis tuple in ``tables``.

    Each table is ``("class", node, ...)`` and comes back keyed by that
    tuple, shaped by its axes' alphabet sizes; each chunk adds one
    :func:`~rarebayes.infometrics.count_table` to it.  The class axis
    counts all k+2 codes of the encoder's class codebook and keeps the
    first k, so rows of unknown (k) or MISSING (k+1) class are read but
    not counted.  Only the columns the tables name are read
    (:meth:`Encoder.node_chunks`).  A pass with no tables still reads
    every chunk, so each call is exactly one pass.
    """
    k = len(enc.class_symbols)
    counts = {t: np.zeros((k + 2, *_table_shape(enc, t)[1:]), dtype=np.int64) for t in tables}
    nodes = {node for table in tables for node in table[1:]}
    for _, codes, class_codes in enc.node_chunks(ds, nodes, labels=True):
        # widened once here, so count_table does not widen it per table
        class_codes = class_codes.astype(np.intp)
        for table, table_counts in counts.items():
            columns = [class_codes, *(codes[node] for node in table[1:])]
            table_counts += count_table(columns, table_counts.shape)
    return {table: table_counts[:k] for table, table_counts in counts.items()}


def _check_budget(schema: Schema, enc: Encoder, named_tables: dict[tuple[str, ...], str]):
    """Raise :class:`ModelSizeError` naming the first of ``named_tables``
    (table -> name) that takes the running cell total past
    ``max_model_cells``."""
    cells = 0
    for table, name in named_tables.items():
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


def _normalize_rows(counts: np.ndarray, alpha: float) -> CPT:
    totals = counts.sum(axis=-1)
    unseen = totals == 0
    a = counts.shape[-1]
    denom = totals + alpha * a
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = (counts + alpha) / denom[..., None]
    probs = np.where(np.isfinite(probs), probs, 0.0)
    return CPT(probs=probs, unseen=unseen)


def estimate_cpts(
    cpt_counts: dict[str, np.ndarray],
    fallback_counts: dict[str, np.ndarray],
    class_counts: np.ndarray,
    parents: dict[str, tuple[str, ...]],
    smoothing: float = 0.0,
) -> tuple[dict[str, CPT], dict[str, CPT], np.ndarray]:
    """Turn pass-4 counts into CPTs, fallback tables, and the class prior.

    ``parents`` names the nodes; each has a table in both count dicts.  Each
    row is (count + alpha) / (rowTotal + alpha * |alphabet|); rows whose raw
    total is zero are flagged unseen regardless of smoothing.  The prior is
    the unsmoothed empirical class frequency.
    """
    fallbacks = {node: _normalize_rows(fallback_counts[node], smoothing) for node in parents}
    cpts = {node: _normalize_rows(cpt_counts[node], smoothing) for node in parents}
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
) -> NetworkModel:
    """Train a network in exactly four dataset passes.

    Raises :class:`TrainingError` when the class column has fewer than
    two observed outcomes and :class:`ModelSizeError` when planned count
    tables would blow the cell budget.
    """
    ds = as_dataset(data)
    ds.require_columns(schema.columns())

    outcomes = collect_outcomes(schema, ds, seed=seed)
    if len(outcomes.class_symbols) < 2:
        raise TrainingError(
            f"class column {schema.class_var!r} needs >= 2 observed outcomes, "
            f"got {len(outcomes.class_symbols)}"
        )
    enc = Encoder(schema, outcomes)
    # pass 2 counts every field at every window slot; sized before any node is named
    pass2_cells = len(enc.class_symbols) * schema.window * sum(enc.sizes.values())
    if pass2_cells > schema.max_model_cells:
        raise ModelSizeError(
            f"pass-2 class × field tables over window {schema.window} "
            f"({pass2_cells} cells) would exceed max_model_cells={schema.max_model_cells}"
        )

    counts = _count_pass(ds, enc, [("class", node_id(v, s)) for v, s in node_order(schema)])
    scores = [
        MIScore(subject=table[1], value=mutual_information(c))
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
        ("class", a, b): f"pairwise counts for ({a}, {b})"
        for i, a in enumerate(nodes)
        for b in nodes[i + 1:]
    } if schema.max_parents > 0 else {}
    _check_budget(schema, enc, pairs)
    counts = _count_pass(ds, enc, list(pairs))
    pair_scores = [
        MIScore(subject=table[1:], value=conditional_mutual_information(c))
        for table, c in counts.items()
    ]
    edges = select_dependencies(pair_scores, schema.t_field, nodes, schema.max_parents)
    parents = {node: tuple(p for p, child in edges if child == node) for node in nodes}

    # the fallbacks' cells sum to at most pass 2's, so only a CPT can raise;
    # a parentless node's CPT table is its fallback table, budgeted and counted once
    tables = {("class", node): f"fallback for node {node!r}" for node in nodes}
    for node, ps in parents.items():
        tables.setdefault(("class", *ps, node), f"CPT for node {node!r}")
    _check_budget(schema, enc, tables)
    counts = _count_pass(ds, enc, [("class",), *tables])
    cpts, fallbacks, prior = estimate_cpts(
        {node: counts[("class", *ps, node)] for node, ps in parents.items()},
        {node: counts[("class", node)] for node in nodes},
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
