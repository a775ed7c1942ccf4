"""Cell-at-a-time text of one block of ``gen``'s data file, the reference
for ``synthgen._render_block``.

Every cell becomes a Python ``str``: a continuous value goes through
``'%.6f'``, an outcome code through its outcome's :func:`csv_cell`, a
group id through ``f"g{id:06d}"``, and :func:`write_rows` joins the rows.
It shares no formatting code with the byte-matrix renderer; the suite
checks one against the other.
"""

from __future__ import annotations

import io
from typing import Mapping, Sequence

import numpy as np

from rarebayes.dataio import MISSING, csv_cell, write_rows
from rarebayes.synthgen import GenConfig


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


def block_text(config: GenConfig, lo: int, class_codes: np.ndarray,
               columns: Mapping[str, np.ndarray],
               missing_masks: Mapping[str, np.ndarray]) -> str:
    """The CSV lines of the block of rows starting at row ``lo``, whose
    class codes, columns and missing masks are given."""
    cells = [_outcome_cells(config.class_labels)[class_codes].tolist()]
    if config.group is not None:
        rpg = config.group.records_per_group
        cells.insert(0, [f"g{i // rpg:06d}" for i in range(lo, lo + len(class_codes))])
    cells += [_format_column(spec, columns[spec.name], missing_masks[spec.name])
              for spec in config.all_vars]
    buf = io.StringIO()
    write_rows(buf, cells)
    return buf.getvalue()
