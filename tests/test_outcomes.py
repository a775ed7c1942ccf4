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

    def test_cardinality_cap(self, tmp_path):
        rows = "".join(f"g,v{i},1\n" for i in range(30))
        ds = write(tmp_path, "y,color,amount\n" + rows)
        with pytest.raises(CardinalityError, match="color"):
            collect_outcomes(MIXED, ds, max_categories=10)

    @pytest.mark.parametrize("schema_text", [
        "class y\nvar color categorical\n",
        "class y\nvar color categorical\nvar amount continuous entropy\n",
    ], ids=["categorical-only", "with-continuous"])
    def test_class_alphabet_capped(self, tmp_path, schema_text):
        rows = "".join(f"c{i % 5},a,{i}\n" for i in range(50))
        ds = write(tmp_path, "y,color,amount\n" + rows)
        with pytest.raises(CardinalityError, match="class variable 'y'"):
            train(parse_schema(schema_text), ds, max_categories=3)

    def test_all_missing_continuous_column(self, tmp_path):
        ds = write(tmp_path, "y,color,amount\ng,a,?\nb,b,?\n")
        table = collect_outcomes(MIXED, ds)
        assert table.edges("amount") == ()

    def test_supervised_bins_deterministic_for_seed(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = "".join(
            f"{'g' if rng.random() < 0.8 else 'b'},a,{rng.normal():.4f}\n"
            for _ in range(500)
        )
        ds1 = write(tmp_path, "y,color,amount\n" + rows)
        t1 = collect_outcomes(MIXED, ds1, seed=42)
        t2 = collect_outcomes(MIXED, ds1, seed=42)
        t3 = collect_outcomes(MIXED, ds1, seed=43, reservoir_capacity=100)
        t4 = collect_outcomes(MIXED, ds1, seed=43, reservoir_capacity=100)
        assert t1.edges("amount") == t2.edges("amount")
        assert t3.edges("amount") == t4.edges("amount")


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
    """Values with tied and constant runs, and labels from 1-4 classes."""
    k = draw(st.integers(1, 4))
    spread = draw(st.integers(0, 8))  # 0: every value the same
    value = st.integers(0, spread).map(float)
    if spread and draw(st.booleans()):
        value |= st.floats(-1e6, 1e6, allow_nan=False)
    pairs = draw(st.lists(st.tuples(value, st.integers(0, k - 1)), min_size=1, max_size=80))
    values = [v for v, _ in pairs]
    codes = np.array([c for _, c in pairs], dtype=np.int64)
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
