"""Moving-window case construction.

With window size w, each record becomes a case over w slots: slot 0 is
the record itself and slot s is its s-th predecessor within the same
group.  Predecessors past a group boundary (or the start of the data)
are MISSING.  The class label always comes from the current record.

A slot-0 node keeps the bare variable name; a lagged node is named
``<var>@<s>``.  :class:`WindowState` builds the lagged code columns one
chunk at a time, carrying each group's last w-1 codes across chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import MISSING
from .schema import Schema


def node_id(var: str, slot: int) -> str:
    return var if slot == 0 else f"{var}@{slot}"


def node_var_slot(node: str) -> tuple[str, int]:
    if "@" in node:
        var, slot = node.rsplit("@", 1)
        return var, int(slot)
    return node, 0


def node_order(schema: Schema) -> list[tuple[str, int]]:
    """Candidate (var, slot) pairs in declaration order, slot-major."""
    return [
        (v.name, slot)
        for slot in range(schema.window)
        for v in schema.field_vars
    ]


@dataclass
class CaseRecord:
    """One classification case: node id -> outcome symbol (absent = MISSING)."""

    values: dict[str, str]

    def get(self, node: str) -> str:
        return self.values.get(node, MISSING)


@dataclass
class WindowState:
    """Lagged code columns for a file read chunk by chunk, in file order.

    Each group key gets an integer id in the first chunk that holds it.
    For each lagged variable, ``_carry`` holds one row per group id with
    the codes of the group's last w-1 records, oldest first; a new
    group's row starts as MISSING codes, since slots before a group's
    start are MISSING.  Carry rows, fresh rows and lag columns keep the
    dtype of the variable's code column, so narrow codes stay narrow.
    """

    schema: Schema
    var_names: list[str]
    missing_codes: dict[str, int]
    _ids: dict[str, int] = field(default_factory=dict)
    _carry: dict[str, np.ndarray] = field(default_factory=dict)

    def lag_columns(
        self, var_codes: dict[str, np.ndarray], groups: list[str] | None
    ) -> dict[str, np.ndarray]:
        """Return code columns for every lagged node of this chunk.

        Each present group's carry row is laid out ahead of the chunk and
        the whole sequence is stable-sorted by group id, so slot s of a
        chunk row is the element s places before it in that order.
        """
        lags = self.schema.window - 1
        if lags == 0:
            return {}
        n = len(next(iter(var_codes.values())))
        keys, inverse = np.unique(
            np.asarray([""] * n if groups is None else groups), return_inverse=True
        )
        ids = self._ids
        present = np.array([ids.setdefault(k, len(ids)) for k in keys.tolist()],
                           dtype=np.int64)
        seq_ids = np.concatenate([np.repeat(present, lags), present[inverse]])
        order = np.argsort(seq_ids, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        rows = position[len(present) * lags:]
        ends = np.searchsorted(seq_ids[order], present, side="right")
        tails = ends[:, None] + np.arange(-lags, 0)
        out = {}
        for name in self.var_names:
            codes = var_codes[name]
            carry = self._carry.get(name, np.empty((0, lags), dtype=codes.dtype))
            if len(carry) < len(ids):
                fresh = np.full((len(ids) - len(carry), lags), self.missing_codes[name],
                                dtype=codes.dtype)
                carry = np.concatenate([carry, fresh])
            seq = np.concatenate([carry[present].ravel(), codes])[order]
            for s in range(1, lags + 1):
                out[node_id(name, s)] = seq[rows - s]
            carry[present] = seq[tails]
            self._carry[name] = carry
        return out
