"""Each row's ``skipped_nodes`` cell, expanded from the distinct patterns.

``evaluation.write_predictions`` renders each distinct skip pattern once
and writes it through the pattern index; :func:`skip_strings` does the
expansion the same way so the suite can hold the result against a
row-wise ``np.unique``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from rarebayes.evaluation import _skip_patterns


def skip_strings(nodes: Sequence[str], skipped: np.ndarray) -> np.ndarray:
    """The ``skipped_nodes`` cell of each row of an ``int8`` skip matrix:
    semicolon-joined ``node:reason`` for its non-zero entries."""
    rendered, ids = _skip_patterns(nodes, skipped)
    return np.array(rendered, dtype=object)[ids]
