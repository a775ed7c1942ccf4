import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rarebayes import (
    CardinalityError,
    MISSING,
    collect_outcomes,
    entropy_bins,
    parse_schema,
    quantile_bins,
    symbolize,
    train,
)
from rarebayes import outcomes
from rarebayes.dataio import CsvDataset, PassStats, parse_float_column
from rarebayes.outcomes import OutcomeTable, ReservoirSample, VariableOutcomes, bin_symbol
from rarebayes.structure import Encoder, NetworkModel

import binning_oracle
from reservoir_oracle import ListReservoir


def write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return CsvDataset(path)


MIXED = parse_schema("class y\nvar color categorical\nvar amount continuous entropy\n")
BINNED = parse_schema("class y\nvar v continuous\n")


def binned_outcomes(edges):
    """Outcomes of :data:`BINNED`: ``v`` cut at ``edges``."""
    symbols = tuple(bin_symbol(i) for i in range(len(edges) + 1)) + (MISSING,)
    return OutcomeTable(
        class_var="y", class_symbols=("b", "g"),
        variables={"v": VariableOutcomes(symbols=symbols, edges=tuple(edges))},
    )


def binned_model(edges):
    """A model of :data:`BINNED` with no ranked fields: enough to symbolize."""
    return NetworkModel(
        schema=BINNED, seed=0, class_symbols=("b", "g"), prior=np.array([0.5, 0.5]),
        outcomes=binned_outcomes(edges), ranked_fields=[], parents={}, cpts={},
        fallbacks={}, pass_stats=PassStats(),
    )


def bin_of(raw, edges):
    return symbolize(binned_model(edges), {"v": raw})["v"]


class TestCollectOutcomes:
    def test_categorical_alphabet_is_observed_plus_missing(self, tmp_path):
        ds = write(tmp_path, "y,color,amount\ng,a,1\ng,b,2\nb,a,3\ng,c,4\n")
        table = collect_outcomes(MIXED, ds)
        assert table.symbols("color") == ("a", "b", "c", MISSING)

    def test_missing_token_not_a_category(self, tmp_path):
        ds = write(tmp_path, "y,color,amount\ng,a,1\ng,?,2\nb,b,3\n")
        table = collect_outcomes(MIXED, ds)
        assert table.symbols("color") == ("a", "b", MISSING)

    def test_constant_continuous_column_single_bin(self, tmp_path):
        ds = write(tmp_path, "y,color,amount\ng,a,5\nb,a,5\ng,a,5\n")
        table = collect_outcomes(MIXED, ds)
        assert table.edges("amount") == ()
        assert table.symbols("amount") == ("bin0", MISSING)

    def test_exactly_one_pass_consumed(self, tmp_path):
        ds = write(tmp_path, "y,color,amount\ng,a,1\nb,b,2\n")
        collect_outcomes(MIXED, ds)
        assert ds.stats.passes == 1

    def test_class_alphabet_excludes_missing(self, tmp_path):
        ds = write(tmp_path, "y,color,amount\ng,a,1\n?,b,2\nb,a,3\n")
        table = collect_outcomes(MIXED, ds)
        assert table.class_symbols == ("b", "g")

    def test_cardinality_cap(self, tmp_path, sizes):
        rows = "".join(f"g,v{i},1\n" for i in range(30))
        ds = write(tmp_path, "y,color,amount\n" + rows)
        sizes(max_categories=10)
        with pytest.raises(CardinalityError, match="color"):
            collect_outcomes(MIXED, ds)

    @pytest.mark.parametrize("schema_text", [
        "class y\nvar color categorical\n",
        "class y\nvar color categorical\nvar amount continuous entropy\n",
    ], ids=["categorical-only", "with-continuous"])
    def test_class_alphabet_capped(self, tmp_path, sizes, schema_text):
        rows = "".join(f"c{i % 5},a,{i}\n" for i in range(50))
        ds = write(tmp_path, "y,color,amount\n" + rows)
        sizes(max_categories=3)
        with pytest.raises(CardinalityError, match="class variable 'y'"):
            train(parse_schema(schema_text), ds)

    def test_all_missing_continuous_column(self, tmp_path):
        ds = write(tmp_path, "y,color,amount\ng,a,?\nb,b,?\n")
        table = collect_outcomes(MIXED, ds)
        assert table.edges("amount") == ()

    def test_supervised_bins_deterministic_for_seed(self, tmp_path, sizes):
        rng = np.random.default_rng(0)
        rows = "".join(
            f"{'g' if rng.random() < 0.8 else 'b'},a,{rng.normal():.4f}\n"
            for _ in range(500)
        )
        ds1 = write(tmp_path, "y,color,amount\n" + rows)
        t1 = collect_outcomes(MIXED, ds1, seed=42)
        t2 = collect_outcomes(MIXED, ds1, seed=42)
        sizes(reservoir_capacity=100)
        t3 = collect_outcomes(MIXED, ds1, seed=43)
        t4 = collect_outcomes(MIXED, ds1, seed=43)
        assert t1.edges("amount") == t2.edges("amount")
        assert t3.edges("amount") == t4.edges("amount")

    def test_class_codes_renumbered_to_sorted_symbols(self, tmp_path, sizes):
        # "z" and "m" open the file (reverse-sorted) and "a" is first seen in
        # a later block, so pass 1's first-seen codes are z=0, m=1, a=2.  On
        # this sample the two best cuts (1.5 and 4.5) tie in exact arithmetic,
        # so rounding, and with it the class order of the entropy sums, picks
        # one; the last assert keeps the sample one where the order shows.
        rows = [("z", 1), ("m", 1), ("z", 7), ("m", 1), ("z", 2), ("m", 0),
                ("z", 5), ("z", 7), ("z", 7), ("z", 5)]
        rows += [("a", v) for v in (4, 2, 6, 4, 0, 4, 0)]
        values = [float(v) for _, v in rows]
        symbols = [y for y, _ in rows]
        ds = write(tmp_path, "y,v\n" + "".join(f"{y},{v}\n" for y, v in rows))
        schema = parse_schema("class y\nmax_bins 2\nvar v continuous entropy\n")
        sizes(block_bytes=32, reservoir_capacity=len(rows))
        table = collect_outcomes(schema, ds)
        assert table.class_symbols == ("a", "m", "z")
        expected = entropy_bins(values, symbols, schema.max_bins)
        assert table.edges("v") == expected
        first_seen = ["z", "m", "a"]
        assert entropy_bins(values, [first_seen.index(y) for y in symbols],
                            schema.max_bins) != expected

    def test_class_codes_past_127_keep_their_labels(self, tmp_path, sizes):
        """The first chunks hold 20 classes, so their codes come as ``int8``;
        300 more follow once the reservoir is full.  A code past 127 that
        replaces a reservoir entry must keep its class, so the edges equal
        those of a one-chunk read, whose codes are wide from the start."""
        rng = np.random.default_rng(3)
        labels = [f"c{i:02d}" for i in rng.integers(0, 20, 200)]
        labels += [f"d{i:03d}" for i in range(300)]
        values = [int(y[1:]) + 0.5 * rng.random() for y in labels]
        ds = write(tmp_path, "y,v\n" + "".join(f"{y},{v!r}\n" for y, v in zip(labels, values)))
        schema = parse_schema("class y\nmax_bins 12\nvar v continuous entropy\n")
        sizes(reservoir_capacity=150)
        whole = collect_outcomes(schema, ds).edges("v")
        sizes(chunk_rows=64, block_bytes=1)
        assert collect_outcomes(schema, ds).edges("v") == whole
        assert len(whole) == 11


class TestEntropyBins:
    def test_single_best_cut(self):
        # exhaustive check over the three candidate cuts, then the frozen edge
        samples = [(1, "g"), (2, "g"), (3, "b"), (4, "b")]

        def gain_at(cut):
            left = [c for v, c in samples if v < cut]
            right = [c for v, c in samples if v >= cut]

            def h(labels):
                total = len(labels)
                if total == 0:
                    return 0.0
                out = 0.0
                for lab in set(labels):
                    p = labels.count(lab) / total
                    out -= p * math.log2(p)
                return out

            n = len(samples)
            return h([c for _, c in samples]) - (
                len(left) / n * h(left) + len(right) / n * h(right)
            )

        gains = {cut: gain_at(cut) for cut in (1.5, 2.5, 3.5)}
        assert max(gains, key=gains.get) == 2.5
        values, labels = zip(*samples)
        assert entropy_bins(values, labels, max_bins=2) == (2.5,)

    def test_bin_budget_one_yields_no_edges(self):
        assert entropy_bins([1, 2], ["g", "b"], max_bins=1) == ()

    def test_single_class_yields_no_edges(self):
        assert entropy_bins([1, 2, 3], ["g", "g", "g"], max_bins=4) == ()

    def test_constant_values_yield_no_edges(self):
        assert entropy_bins([5, 5], ["g", "b"], max_bins=4) == ()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            entropy_bins([], [], max_bins=2)

    def test_perfect_separation_zero_conditional_entropy(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.uniform(0, 1, 50), rng.uniform(2, 3, 50)])
        labels = ["g"] * 50 + ["b"] * 50
        edges = entropy_bins(values, labels, max_bins=2)
        assert len(edges) == 1
        # conditional class entropy after the split must be exactly 0
        for side in (lambda v: v < edges[0], lambda v: v >= edges[0]):
            kinds = {lab for v, lab in zip(values, labels) if side(v)}
            assert len(kinds) == 1

    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.sampled_from(["g", "b", "c"])),
            min_size=1,
            max_size=60,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=120, deadline=None)
    def test_edges_strictly_increasing_within_budget(self, pairs, max_bins):
        edges = entropy_bins([float(v) for v, _ in pairs], [c for _, c in pairs], max_bins)
        assert list(edges) == sorted(set(edges))
        assert len(edges) <= max_bins - 1
        # totality: the Encoder puts every sample value in a bin, never MISSING
        codes = Encoder(BINNED, binned_outcomes(edges)).encode_var(
            "v", [repr(float(v)) for v, _ in pairs]
        )
        assert ((codes >= 0) & (codes <= len(edges))).all()

    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.sampled_from(["g", "b", "c", "a"])),
            min_size=1,
            max_size=60,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=120, deadline=None)
    def test_sorted_codes_give_the_symbols_edges(self, pairs, max_bins):
        # codes index the sorted full alphabet, so absent labels leave gaps
        alphabet = ["a", "b", "c", "g"]
        values = [float(v) for v, _ in pairs]
        labels = [c for _, c in pairs]
        codes = np.array([alphabet.index(c) for c in labels], dtype=np.int64)
        assert entropy_bins(values, codes, max_bins) == entropy_bins(
            values, labels, max_bins
        )


@st.composite
def binning_samples(draw):
    """Values with tied and constant runs, and labels from 1-4 classes.

    Half the samples are class-correlated: long single-class runs of up to
    400 sorted samples, some values tied and a few labels flipped, so most
    cuts lie between groups pure in one class and are no boundary points.
    """
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return draw(class_runs(k))
    spread = draw(st.integers(0, 8))  # 0: every value the same
    value = st.integers(0, spread).map(float)
    if spread and draw(st.booleans()):
        value |= st.floats(-1e6, 1e6, allow_nan=False)
    pairs = draw(st.lists(st.tuples(value, st.integers(0, k - 1)), min_size=1, max_size=80))
    values = [v for v, _ in pairs]
    codes = np.array([c for _, c in pairs], dtype=np.int64)
    return values, codes


@st.composite
def class_runs(draw, k):
    """Sorted values in single-class runs, with ties and a few flipped labels."""
    runs = draw(st.lists(
        st.tuples(st.integers(1, 400), st.integers(0, k - 1)), min_size=1, max_size=6
    ))
    codes = np.concatenate([np.full(size, c, dtype=np.int64) for size, c in runs])
    n = len(codes)
    flips = draw(st.lists(st.integers(0, n - 1), max_size=5))
    codes[flips] = draw(st.integers(0, k - 1))
    tie = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3, 7.25]))
    values = [(i // tie) * scale for i in range(n)]
    return values, codes


@given(binning_samples(), st.booleans(), st.integers(1, 20))
# two cuts tie in gain: the leftmost (0.5) wins
@example(([0.0, 1.0, 2.0], np.array([0, 1, 0])), False, 2)
# both halves tie in entropy: the leftmost leaf is split first
@example(([float(v) for v in range(8)], np.array([0, 1, 0, 0, 1, 1, 0, 1])), True, 3)
@settings(max_examples=400, deadline=None)
def test_prefix_table_bins_match_leaf_oracle(sample, as_symbols, max_bins):
    """The prefix-count table gives the leaf-at-a-time oracle's edges, bit
    for bit: same leaf order, same leftmost tie-breaks, same midpoints."""
    values, codes = sample
    labels = np.array(["a", "b", "c", "d"])[codes] if as_symbols else codes
    edges = entropy_bins(values, labels, max_bins)
    assert edges == binning_oracle.entropy_bins(values, labels, max_bins)
    assert all(type(e) is float for e in edges)


@given(binning_samples(), st.integers(1, 20), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_bins_do_not_depend_on_sample_order(sample, max_bins, rnd):
    """Shuffled (value, label) pairs give the same edges: the order in which
    the unstable sort leaves tied values never shows."""
    values, codes = sample
    order = list(range(len(values)))
    rnd.shuffle(order)
    shuffled_values = [values[i] for i in order]
    shuffled_codes = codes[order]
    assert entropy_bins(shuffled_values, shuffled_codes, max_bins) == entropy_bins(
        values, codes, max_bins
    )


@pytest.mark.parametrize("values", [
    [-5e-324, 0.0, 5e-324],  # subnormal midpoints round to 0.0
    [1.0, math.nextafter(1.0, 2.0)],  # adjacent floats: the midpoint rounds down
    [1.6e308, 1.7e308],  # the sum overflows
    [-1.7e308, 1.7e308],
])
def test_edges_separate_adjacent_values(values):
    """Every cut between alternating classes is an edge strictly above the
    lower value and at most the upper one, so each value bins alone."""
    edges = entropy_bins(values, np.arange(len(values)) % 2, len(values))
    assert len(edges) == len(values) - 1
    assert all(math.isfinite(e) for e in edges)
    assert np.searchsorted(edges, values, side="right").tolist() == list(range(len(values)))
    assert edges == binning_oracle.entropy_bins(values, np.arange(len(values)) % 2, len(values))


def test_only_boundary_points_are_scored(monkeypatch):
    """Two pure class halves have one boundary point: a handful of count
    rows reach the entropy, not one per distinct value."""
    scored = []
    entropy_rows = outcomes._entropy

    def counting_entropy(counts):
        scored.append(len(counts))
        return entropy_rows(counts)

    monkeypatch.setattr(outcomes, "_entropy", counting_entropy)
    values = np.arange(10_000, dtype=np.float64)
    labels = (values >= 5_000).astype(np.int64)
    assert entropy_bins(values, labels, max_bins=8) == (4999.5,)
    assert sum(scored) <= 5


class TestQuantileBins:
    def test_equal_frequency_edges(self):
        edges = quantile_bins(range(100), 4)
        assert len(edges) == 3
        assert list(edges) == sorted(edges)

    def test_duplicates_dropped(self):
        edges = quantile_bins([1.0] * 90 + [2.0] * 10, 10)
        assert len(edges) <= 1

    def test_single_bin(self):
        assert quantile_bins([1.0, 2.0], 1) == ()

    def test_array_and_iterables_give_the_same_edges(self):
        values = np.random.default_rng(4).normal(size=200)
        edges = quantile_bins(values, 5)
        assert quantile_bins(values.tolist(), 5) == edges
        assert quantile_bins(iter(values.tolist()), 5) == edges


class TestDiscretize:
    """Binning of raw continuous cells, through :func:`symbolize`."""

    def test_below_only_edge(self):
        assert bin_of("1.0", (2.5,)) == "bin0"

    def test_left_closed_boundary(self):
        assert bin_of("2.5", (2.5,)) == "bin1"

    def test_no_edges_single_bin(self):
        assert bin_of("123.0", ()) == "bin0"

    def test_missing_and_nan(self):
        assert bin_of(MISSING, (1.0,)) == MISSING
        assert bin_of(None, (1.0,)) == MISSING
        assert bin_of("nan", (1.0,)) == MISSING
        assert symbolize(binned_model((1.0,)), {}) == {"v": MISSING}

    def test_numeric_strings_accepted(self):
        assert bin_of("3.5", (2.5,)) == "bin1"
        assert bin_of(" 3.5\t", (2.5,)) == "bin1"
        assert bin_of("-1e3", (2.5,)) == "bin0"


class TestReservoir:
    def test_capacity_bound(self):
        res = ReservoirSample(capacity=10, seed=0)
        res.extend(np.arange(100, dtype=float), np.zeros(100, dtype=np.int64))
        assert len(res.values) == 10
        assert res.seen == 100

    def test_deterministic_for_seed_and_order(self):
        def fill(seed):
            res = ReservoirSample(capacity=5, seed=seed)
            res.extend(np.arange(50, dtype=float), np.arange(50) % 2)
            return list(zip(res.values.tolist(), res.labels.tolist()))

        assert fill(9) == fill(9)
        assert fill(9) != fill(10)

    def test_chunked_equals_single_shot(self):
        a = ReservoirSample(capacity=7, seed=3)
        a.extend(np.arange(40, dtype=float), np.zeros(40, dtype=np.int64))
        b = ReservoirSample(capacity=7, seed=3)
        for lo in range(0, 40, 9):
            chunk = np.arange(lo, min(lo + 9, 40), dtype=float)
            b.extend(chunk, np.zeros(len(chunk), dtype=np.int64))
        assert a.values.tolist() == b.values.tolist()
        assert a.labels.tolist() == b.labels.tolist()

    @staticmethod
    def _assert_matches(res, oracle):
        assert res.values.tolist() == oracle.values
        assert res.labels.tolist() == oracle.labels
        assert res.seen == oracle.seen

    @given(
        capacity=st.integers(1, 40),
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_item_at_a_time_oracle(self, capacity, sizes, seed):
        data_rng = np.random.default_rng(seed)
        res = ReservoirSample(capacity, seed)
        oracle = ListReservoir(capacity, seed)
        for size in sizes:
            values = data_rng.normal(size=size)
            labels = data_rng.integers(0, 3, size=size)
            res.extend(values, labels)
            oracle.extend(values, labels.tolist())
            self._assert_matches(res, oracle)

    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_sample_does_not_depend_on_the_split(self, n, seed, data):
        """Any split of the input into ``extend`` calls, empty ones and cuts
        at the fill boundary included, gives the sample of one ``extend``:
        algorithm R makes one draw per arrival, in turn from the generator's
        stream.  So the reader may end its chunks anywhere."""
        capacity = data.draw(st.integers(1, n + 1), label="capacity")
        near_fill = st.sampled_from([capacity - 1, capacity, capacity + 1])
        cuts = data.draw(st.lists(near_fill | st.integers(0, n), max_size=8), label="cuts")
        data_rng = np.random.default_rng(seed)
        values = data_rng.normal(size=n)
        labels = data_rng.integers(0, 3, size=n)
        whole = ReservoirSample(capacity, seed)
        whole.extend(values, labels)
        split = ReservoirSample(capacity, seed)
        bounds = [0, *sorted(min(cut, n) for cut in cuts), n]
        for lo, hi in zip(bounds, bounds[1:]):
            split.extend(values[lo:hi], labels[lo:hi])
        assert split.values.tolist() == whole.values.tolist()
        assert split.labels.tolist() == whole.labels.tolist()
        assert split.seen == whole.seen == n

    def test_slot_drawn_twice_keeps_later_arrival(self):
        capacity, seed, n = 3, 5, 60
        slots = np.random.default_rng(seed).integers(0, np.arange(capacity + 1, n + 1))
        hit = slots[slots < capacity]
        assert len(set(hit.tolist())) < len(hit)  # one extend repeats a slot
        res = ReservoirSample(capacity, seed)
        oracle = ListReservoir(capacity, seed)
        values = np.arange(n, dtype=float)
        res.extend(values[:capacity], np.arange(capacity))
        oracle.extend(values[:capacity], list(range(capacity)))
        res.extend(values[capacity:], np.arange(capacity, n))
        oracle.extend(values[capacity:], list(range(capacity, n)))
        self._assert_matches(res, oracle)


def test_parse_float_column_garbage_to_nan():
    out = parse_float_column(["1.5", "?", "", "abc", "2", "inf", "-inf", "nan"])
    assert out[0] == 1.5 and out[4] == 2.0
    assert np.isnan(out[[1, 2, 3, 5, 6, 7]]).all()
