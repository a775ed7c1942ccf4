"""Item-at-a-time algorithm-R reservoir, the reference for the array reservoir.

:class:`ListReservoir` keeps plain Python lists and applies each
replacement in arrival order, so a slot drawn twice in one chunk simply
ends with the later arrival.  It makes the same single
``integers(0, arrivals)`` draw per :meth:`extend` as
``rarebayes.outcomes.ReservoirSample``, which applies the replacements as
one masked assignment; the suite checks one against the other.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class ListReservoir:
    def __init__(self, capacity: int, seed: int):
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self.values: list[float] = []
        self.labels: list = []
        self.seen = 0

    def extend(self, values: Sequence[float], labels: Sequence) -> None:
        n = len(values)
        if n == 0:
            return
        start = 0
        room = self.capacity - len(self.values)
        if room > 0:
            take = min(room, n)
            self.values.extend(float(v) for v in values[:take])
            self.labels.extend(labels[:take])
            start = take
        if start < n:
            # arrival index of each remaining item, 1-based over the whole stream
            arrivals = np.arange(self.seen + start + 1, self.seen + n + 1)
            slots = self._rng.integers(0, arrivals)
            for offset, slot in zip(range(start, n), slots):
                if slot < self.capacity:
                    self.values[slot] = float(values[offset])
                    self.labels[slot] = labels[offset]
        self.seen += n
