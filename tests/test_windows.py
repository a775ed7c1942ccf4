"""Chunk-level lag columns against the record-at-a-time oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rarebayes import MISSING, parse_schema
from rarebayes.dataio import ClassCodes
from rarebayes.windows import WindowState, node_id

from window_oracle import window_expand

# A symbol's code is its index, so MISSING gets the last code.
SYMBOLS = ("0", "1", "2", MISSING)
LAGGED = ("a", "b")


@st.composite
def chunked_streams(draw):
    """A window size, grouped or ungrouped records, and a split into chunks."""
    window = draw(st.integers(2, 4))
    grouped = draw(st.booleans())
    # a blank or "?" key is a group like any other
    groups = ["g0", "", MISSING, "g1", "g2"][:draw(st.integers(1, 5))]
    records = draw(st.lists(
        st.fixed_dictionaries({
            "y": st.just("c"),
            "g": st.sampled_from(groups),
            "a": st.sampled_from(SYMBOLS),          # MISSING among its values
            "b": st.sampled_from(SYMBOLS[:-1]),
        }),
        min_size=1, max_size=40,
    ))
    cuts = sorted(draw(st.sets(st.integers(1, len(records) - 1))) if len(records) > 1 else [])
    schema = parse_schema(
        "class y\n" + ("group g\n" if grouped else "")
        + "".join(f"var {v} categorical\n" for v in LAGGED) + f"window {window}\n"
    )
    return schema, records, [0] + cuts + [len(records)]


@settings(max_examples=300, deadline=None)
@given(chunked_streams())
def test_lag_columns_match_oracle(stream):
    schema, records, bounds = stream
    codes = {v: np.array([SYMBOLS.index(r[v]) for r in records]) for v in LAGGED}
    state = WindowState(schema, list(LAGGED), {v: SYMBOLS.index(MISSING) for v in LAGGED})
    group_ids = ClassCodes(missing=())  # as the reader's decoder codes group keys
    chunks = []
    for lo, hi in zip(bounds, bounds[1:]):
        groups = group_ids([r["g"] for r in records[lo:hi]]) if schema.group_key else None
        chunks.append(state.lag_columns({v: codes[v][lo:hi] for v in LAGGED}, groups))
    lagged = [node_id(v, s) for v in LAGGED for s in range(1, schema.window)]
    assert all(sorted(out) == sorted(lagged) for out in chunks)
    got = {node: np.concatenate([out[node] for out in chunks]).tolist() for node in lagged}
    cases = list(window_expand(records, schema))
    want = {node: [SYMBOLS.index(c.values[node]) for c in cases] for node in lagged}
    assert got == want
