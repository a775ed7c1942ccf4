"""A planted two-parent fixture with its own analytic posterior.

The class is ``good`` or ``bad``.  Two categorical fields ``p1`` and
``p2`` depend on the class alone; the child ``c`` depends on the class
and on both parents jointly.  The child's class MI is the lowest of the
three, and given the class it shares more information with ``p1`` than
with ``p2``, so a ``max_parents 2`` network should give ``c`` the parents
``(p1, p2)`` in that order.  This sampler is written apart from
``rarebayes.synthgen``, whose dependent variables take one parent.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

CLASSES = ("good", "bad")
PRIOR = (0.7, 0.3)
P1 = {"good": (0.5, 0.3, 0.2), "bad": (0.2, 0.3, 0.5)}            # a0, a1, a2
P2 = {"good": (0.7, 0.3), "bad": (0.35, 0.65)}                     # b0, b1
C1 = {                                                             # P(c1 | class, p1, p2)
    "good": ((0.1, 0.7), (0.6, 0.2), (0.85, 0.4)),
    "bad": ((0.2, 0.8), (0.7, 0.3), (0.9, 0.5)),
}
SCHEMA_TEXT = (
    "class class\nvar p1 categorical\nvar p2 categorical\nvar c categorical\n"
    "t_prime 1.0\nt_field 1.0\nmax_parents 2\n"
)


def _pick(rng: np.random.Generator, pmfs: np.ndarray) -> np.ndarray:
    """One index per row of ``pmfs``, drawn from that row."""
    u = rng.random(len(pmfs))
    return (u[:, None] >= np.cumsum(pmfs, axis=1)[:, :-1]).sum(axis=1)


def write_csv(path: Path, n: int, seed: int, missing_rate: float = 0.0) -> Path:
    """``n`` rows of ``class,p1,p2,c``; with ``missing_rate``, each field
    cell is ``?`` with that probability."""
    rng = np.random.default_rng(seed)
    bad = rng.random(n) < PRIOR[1]
    labels = np.where(bad, "bad", "good")
    p1 = _pick(rng, np.array([P1[c] for c in labels]))
    p2 = _pick(rng, np.array([P2[c] for c in labels]))
    c = (rng.random(n) < [C1[lab][i][j] for lab, i, j in zip(labels, p1, p2)]).astype(int)
    cells = np.array([[f"a{i}" for i in p1], [f"b{j}" for j in p2], [f"c{k}" for k in c]])
    cells[rng.random(cells.shape) < missing_rate] = "?"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "p1", "p2", "c"])
        writer.writerows(zip(labels, *cells))
    return path


def posterior_bad(p1: str, p2: str, c: str) -> float:
    """P(bad | p1, p2, c) under the sampler's own law."""
    i, j, k = int(p1[1:]), int(p2[1:]), int(c[1:])
    joint = [
        prior * P1[label][i] * P2[label][j] * (C1[label][i][j] if k else 1.0 - C1[label][i][j])
        for label, prior in zip(CLASSES, PRIOR)
    ]
    return joint[1] / sum(joint)
