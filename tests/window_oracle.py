"""Record-at-a-time window expansion, the reference for the chunked lags.

:func:`window_expand` walks dict records in file order and keeps each
group's last w-1 records in a deque.  It shares no code with
``rarebayes.windows.WindowState``, which builds the same lags a chunk at
a time; the suite checks one against the other.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from rarebayes.dataio import MISSING
from rarebayes.schema import Schema
from rarebayes.windows import node_id


@dataclass
class WindowCase:
    """A window case: node id -> outcome symbol for every node, plus its
    record's class label (None when MISSING)."""

    values: dict[str, str]
    label: str | None = None


def window_expand(
    records: Iterable[dict[str, str]], schema: Schema
) -> Iterator[WindowCase]:
    """Expand records (in file order) into window cases, one per record.

    ``records`` must be sorted in temporal order within each group key.
    Produces node values for every (field variable, slot) pair; slots
    that reach past the group start are MISSING.
    """
    w = schema.window
    names = [v.name for v in schema.field_vars]
    history: dict[str, deque] = defaultdict(lambda: deque(maxlen=max(w - 1, 1)))
    for record in records:
        group = record.get(schema.group_key, "") if schema.group_key else ""
        values = {name: record.get(name, MISSING) for name in names}
        past = history[group] if w > 1 else None
        if past is not None:
            for s, prev in enumerate(reversed(past), start=1):
                for name in names:
                    values[node_id(name, s)] = prev[name]
            for s in range(len(past) + 1, w):
                for name in names:
                    values[node_id(name, s)] = MISSING
            past.append({name: values[name] for name in names})
        label = record.get(schema.class_var)
        if label == MISSING:
            label = None
        yield WindowCase(values=values, label=label)
