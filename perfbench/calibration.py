"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one CPU swings by up to 2x over seconds
to minutes as neighbours come and go, which swamps the differences the
benchmark exists to show.  So each timed step is bracketed by a fixed
probe that does the same mix of work as the program (dict lookups over
strings, string splitting, ``np.bincount`` and ``np.sort``) but shares no
code with it.  A step's time is then reported at reference speed:

    scaled = wall * REFERENCE_S / mean(probe before, probe after)

that is, in seconds on a machine where one probe takes ``REFERENCE_S``.
A change to the program cannot move the probe, so it moves the scaled
time exactly as it moves the wall time.  Raw wall times and probe times
are kept in the result record.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.030

_WORDS = [f"w{i % 997}" for i in range(120_000)]
_LOOKUP = {f"w{i}": i for i in range(997)}
_INTS = np.random.default_rng(0).integers(0, 4096, 800_000)


def probe() -> float:
    """Seconds one fixed unit of Python and numpy work takes right now."""
    t0 = perf_counter()
    codes = np.fromiter((_LOOKUP.get(w, -1) for w in _WORDS), np.int64, len(_WORDS))
    parts = ",".join(_WORDS[:40_000]).split(",")
    np.bincount(_INTS, minlength=4096)
    np.sort(_INTS)
    codes.sum() + len(parts)
    return perf_counter() - t0


def timed(fn, *args):
    """Run ``fn(*args)`` between two probes: (result, wall s, scaled s, probes)."""
    before = probe()
    t0 = perf_counter()
    result = fn(*args)
    wall = perf_counter() - t0
    after = probe()
    return result, wall, wall * REFERENCE_S * 2 / (before + after), (before, after)
