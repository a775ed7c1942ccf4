import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rarebayes import (
    ConfigError,
    EvidenceError,
    MISSING,
    SchemaError,
    analytic_posterior,
    generate,
    mutual_information,
)
from rarebayes import dataio, synthgen
from rarebayes.synthgen import (
    CategoricalSpec,
    ContinuousSpec,
    DependentSpec,
    GenConfig,
    GroupSpec,
    NoiseSpec,
    TruthModel,
    config_from_doc,
    config_to_doc,
    load_truth,
)

import gen_oracle
from fixture_configs import gen_configs, indep_config, messy_config, recovery_config


def tiny_config(**overrides):
    base = dict(
        n=50,
        seed=1,
        categorical=(
            CategoricalSpec("x", ("0", "1"), {"good": (0.8, 0.2), "bad": (0.2, 0.8)}),
        ),
    )
    base.update(overrides)
    return GenConfig(**base)


class TestGenerate:
    def test_byte_identical_for_same_seed(self, tmp_path):
        a = generate(tiny_config(n=500), tmp_path / "a")
        b = generate(tiny_config(n=500), tmp_path / "b")
        assert a.data_path.read_bytes() == b.data_path.read_bytes()
        assert a.schema_path.read_bytes() == b.schema_path.read_bytes()
        assert a.truth_path.read_bytes() == b.truth_path.read_bytes()

    def test_different_seed_different_data(self, tmp_path):
        a = generate(tiny_config(n=500), tmp_path / "a")
        b = generate(tiny_config(n=500, seed=2), tmp_path / "b")
        assert a.data_path.read_bytes() != b.data_path.read_bytes()

    def test_positive_fraction_within_three_sigma(self, indep_bundle):
        with open(indep_bundle.data_path, newline="", encoding="utf-8") as fh:
            labels = [row["class"] for row in csv.DictReader(fh)]
        n = len(labels)
        rate = labels.count("bad") / n
        sigma = math.sqrt(0.1 * 0.9 / n)
        assert abs(rate - 0.1) < 3 * sigma

    def test_noise_mi_negligible_at_100k(self, tmp_path):
        cfg = tiny_config(
            n=100_000,
            noise=(NoiseSpec("z", outcomes=("u", "v", "w"), dist=(0.5, 0.3, 0.2)),),
        )
        result = generate(cfg, tmp_path / "noise")
        cells = {}
        with open(result.data_path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["class"], row["z"])
                cells[key] = cells.get(key, 0) + 1
        counts = [[cells.get((c, z), 0) for z in ("u", "v", "w")]
                  for c in ("good", "bad")]
        mi = mutual_information(counts)
        assert mi < 0.005

    def test_schema_file_matches_columns(self, tmp_path):
        result = generate(messy_config(n=60), tmp_path / "m")
        header = result.data_path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "cust,class,plan,hub,bill,addon"
        schema_text = result.schema_path.read_text(encoding="utf-8")
        assert "group cust" in schema_text
        assert "var bill continuous entropy" in schema_text

    def test_group_column_blocks(self, tmp_path):
        cfg = tiny_config(n=9, group=GroupSpec(name="cust", records_per_group=3))
        result = generate(cfg, tmp_path / "g")
        with open(result.data_path, newline="", encoding="utf-8") as fh:
            groups = [row["cust"] for row in csv.DictReader(fh)]
        assert groups == ["g000000"] * 3 + ["g000001"] * 3 + ["g000002"] * 3

    def test_missingness_applied(self, tmp_path):
        cfg = tiny_config(
            n=4000,
            categorical=(
                CategoricalSpec("x", ("0", "1"),
                                {"good": (0.8, 0.2), "bad": (0.2, 0.8)},
                                missing_rate=0.25),
            ),
        )
        result = generate(cfg, tmp_path / "miss")
        with open(result.data_path, newline="", encoding="utf-8") as fh:
            misses = sum(1 for row in csv.DictReader(fh) if row["x"] == MISSING)
        assert 0.2 < misses / 4000 < 0.3

    def test_unnormalized_pmf_rejected(self):
        with pytest.raises(ConfigError, match="sum"):
            tiny_config(
                categorical=(
                    CategoricalSpec("x", ("0", "1"),
                                    {"good": (0.8, 0.3), "bad": (0.2, 0.8)}),
                )
            )

    def test_noise_spec_shape_validated(self):
        with pytest.raises(ConfigError, match="outcomes\\+dist or mean\\+sd"):
            tiny_config(noise=(NoiseSpec("z", outcomes=("u",), dist=(1.0,), mean=0.0, sd=1.0),))

    @pytest.mark.parametrize("overrides, message", [
        # parse_schema would cut the schema.txt line at the '#'
        ({"noise": (NoiseSpec("a#b", mean=0.0, sd=1.0),)}, "'a#b' contains '#'"),
        # the data header would hold two columns named "x"
        ({"group": GroupSpec("x", 2)}, "group column 'x' is also a field variable"),
        # ... or two columns named "x" in any other way
        ({"noise": (NoiseSpec("x", mean=0.0, sd=1.0),)}, "duplicate variable name 'x'"),
        ({"class_var": "x"}, "class variable 'x' also declared as a field"),
    ])
    def test_name_the_schema_file_cannot_hold_rejected(self, overrides, message):
        with pytest.raises(SchemaError, match=message):
            tiny_config(**overrides)

    def test_dependent_parent_must_be_categorical(self):
        with pytest.raises(ConfigError, match="parent"):
            tiny_config(
                dependent=(
                    DependentSpec("d", "nope", ("p", "q"),
                                  {c: {"0": (0.5, 0.5), "1": (0.5, 0.5)}
                                   for c in ("good", "bad")}),
                )
            )


# -- the block renderer against its cell-at-a-time oracle -------------------


def _step(x: float, steps: int) -> float:
    """``x`` moved ``steps`` floats up, or down when ``steps`` is negative."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


_STEPS = st.integers(-2, 2)


def _scaled(top: int):
    """Floats m * 10**e, with |m| <= 10 and e from -9 to ``top``."""
    return st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-9, top))


# One family per column: a column of safe values takes the integer path,
# and one near a tie, past 2**32 or not finite takes '%.6f' itself.
_VALUE_FAMILIES = (
    _scaled(8),
    _scaled(12),
    # k / 2**7 with k odd is an exact tie at six decimals, and a float next
    # to one lies within a rounding of it
    st.builds(lambda k, m, s: _step(k / 2 ** m, s),
              st.integers(-2 ** 28, 2 ** 28), st.integers(1, 12), _STEPS),
    # the float nearest a decimal tie (2j + 1) / 2e6
    st.builds(lambda j, s: _step((2 * j + 1) / 2e6, s), st.integers(-10 ** 12, 10 ** 12), _STEPS),
    # around an integer part of 2**32, and where y * 2**-52 reaches 0.5
    st.builds(lambda d, sign: sign * (2.0 ** 32 + d), st.floats(-3, 3), st.sampled_from([1, -1])),
    st.builds(lambda s: _step(2.0 ** 51 / 1e6, s), st.integers(-3, 3)),
    # signed zeros and values that round to them
    st.sampled_from([0.0, -0.0, -1e-9, -4.9e-7, 4.9e-7, -5e-324, 5e-324, -1e-300]),
    st.sampled_from([math.nan, math.inf, -math.inf]) | _scaled(3),
)
# outcome and class names that need quoting, or are not ASCII
_NAMES = st.text(st.sampled_from(',"\n\r? aé€') | st.characters(codec="utf-8"),
                 min_size=1, max_size=4)


@st.composite
def _blocks(draw):
    """A config and one block of its drawn cells: (config, lo, class codes,
    columns, missing masks)."""
    rows = draw(st.integers(1, 40))
    labels = tuple(draw(st.lists(_NAMES.filter(lambda s: s not in dataio.MISSING_CELLS),
                                 min_size=2, max_size=2, unique=True)))
    names = iter(f"v{i}" for i in range(100))
    uniform = lambda k: (1.0 / k,) * k  # noqa: E731
    categorical = tuple(
        CategoricalSpec(next(names), outcomes, {c: uniform(len(outcomes)) for c in labels})
        for outcomes in draw(st.lists(st.lists(
            _NAMES.filter(lambda s: s not in dataio.MISSING_CELLS),
            min_size=1, max_size=4, unique=True).map(tuple), min_size=1, max_size=3)))
    continuous = tuple(ContinuousSpec(next(names), {c: 0.0 for c in labels},
                                      {c: 1.0 for c in labels})
                       for _ in range(draw(st.integers(0, 3))))
    # a group may outnumber any int64 row count
    group = draw(st.none() | st.builds(GroupSpec, st.just("grp"),
                                       st.integers(1, 50) | st.just(10 ** 30)))
    config = GenConfig(n=rows, class_labels=labels, categorical=categorical,
                       continuous=continuous, group=group)
    # a block where the group ids widen past 10**k, or anywhere
    rpg = group.records_per_group if group else 1
    lo = draw(st.integers(1, 12).map(lambda k: min(10 ** 15, max(0, 10 ** k * rpg - rows // 2)))
              | st.integers(0, 10 ** 12))
    columns = {spec.name: np.array(draw(st.lists(st.integers(0, len(spec.outcomes) - 1),
                                                 min_size=rows, max_size=rows)), np.int64)
               for spec in categorical}
    for spec in continuous:
        family = draw(st.sampled_from(_VALUE_FAMILIES))
        columns[spec.name] = np.array(draw(st.lists(family, min_size=rows, max_size=rows)),
                                      np.float64)
    masks = {spec.name: np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)),
                                 bool)
             for spec in config.all_vars}
    class_codes = np.array(draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)),
                           np.int64)
    return config, lo, class_codes, columns, masks


@given(block=_blocks())
@settings(max_examples=300, deadline=None)
def test_rendered_block_matches_the_oracle(block):
    """The byte-matrix renderer writes the same text as one ``'%.6f'``, one
    outcome cell and one ``g%06d`` id per cell: ties and near ties, signed
    zeros, values past 2**32, non-finite values, MISSING cells, names
    that need quoting, and group ids that change width within a block."""
    config, lo, class_codes, columns, masks = block
    tables = synthgen._outcome_tables(config)
    assert synthgen._render_block(config, tables, lo, class_codes, columns, masks) \
        == gen_oracle.block_text(config, lo, class_codes, columns, masks)


@given(cfg=gen_configs(sizes=st.integers(1, 60)))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_write_block_size_changes_no_byte(tmp_path_factory, sizes, cfg):
    """``gen`` writes the same data file in blocks of 1, 7 or 4,096 rows."""
    out = tmp_path_factory.mktemp("write-rows")
    files = []
    for rows in (4096, 7, 1):
        sizes(write_rows=rows)
        files.append(generate(cfg, out).data_path.read_bytes())
    assert files[1] == files[0] and files[2] == files[0]


class TestAnalyticPosterior:
    TRUTH = TruthModel(config=tiny_config())

    def test_fully_missing_record_returns_prior(self):
        post = analytic_posterior(self.TRUTH, {})
        assert post == {"good": 0.9, "bad": 0.1}

    def test_hand_bayes_matches_inference_module_example(self):
        post = analytic_posterior(self.TRUTH, {"x": "1"})
        assert post["bad"] == pytest.approx(0.08 / 0.26, abs=1e-12)
        assert post["bad"] == pytest.approx(0.307692, abs=1e-6)

    def test_noise_only_evidence_cancels(self):
        truth = TruthModel(
            config=tiny_config(
                noise=(NoiseSpec("z", outcomes=("u", "v"), dist=(0.3, 0.7)),)
            )
        )
        post = analytic_posterior(truth, {"z": "v"})
        assert post["bad"] == pytest.approx(0.1, abs=1e-12)
        assert post["good"] == pytest.approx(0.9, abs=1e-12)

    def test_continuous_uses_true_density(self):
        truth = TruthModel(
            config=tiny_config(
                categorical=(),
                continuous=(ContinuousSpec("y", {"good": 0.0, "bad": 2.0},
                                           {"good": 1.0, "bad": 1.0}),),
            )
        )
        post = analytic_posterior(truth, {"y": 1.0})
        # symmetric point: densities equal, posterior equals prior
        assert post["bad"] == pytest.approx(0.1, abs=1e-12)
        post_hi = analytic_posterior(truth, {"y": 4.0})
        assert post_hi["bad"] > 0.9

    def test_dependent_child_marginalized_when_parent_missing(self):
        cfg = tiny_config(
            categorical=(
                CategoricalSpec("p", ("0", "1"),
                                {"good": (0.9, 0.1), "bad": (0.2, 0.8)}),
            ),
            dependent=(
                DependentSpec("d", "p", ("q0", "q1"),
                              {c: {"0": (0.95, 0.05), "1": (0.05, 0.95)}
                               for c in ("good", "bad")}),
            ),
        )
        truth = TruthModel(config=cfg)
        # by hand: P(d=q1|good) = .9*.05+.1*.95 = .14; P(d=q1|bad) = .2*.05+.8*.95 = .77
        post = analytic_posterior(truth, {"d": "q1"})
        expect = (0.1 * 0.77) / (0.1 * 0.77 + 0.9 * 0.14)
        assert post["bad"] == pytest.approx(expect, abs=1e-12)
        # parent observed: only the conditional row applies
        post2 = analytic_posterior(truth, {"d": "q1", "p": "1"})
        expect2 = (0.1 * 0.8 * 0.95) / (0.1 * 0.8 * 0.95 + 0.9 * 0.1 * 0.95)
        assert post2["bad"] == pytest.approx(expect2, abs=1e-12)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(EvidenceError, match="x"):
            analytic_posterior(self.TRUTH, {"x": "9"})

    def test_string_and_nan_missing_forms(self):
        assert analytic_posterior(self.TRUTH, {"x": MISSING})["bad"] == pytest.approx(0.1)
        assert analytic_posterior(self.TRUTH, {"x": None})["bad"] == pytest.approx(0.1)

    @pytest.mark.parametrize("record, same_as", [
        ({"p": "", "y": 0.4}, {"y": 0.4}),            # used to raise EvidenceError
        ({"p": "1", "y": ""}, {"p": "1"}),            # used to raise ValueError
        ({"p": "1", "y": "x7"}, {"p": "1"}),          # used to raise ValueError
        ({"p": "1", "y": "nan"}, {"p": "1"}),         # used to give NaN posteriors
        ({"p": "1", "y": "inf"}, {"p": "1"}),         # used to give the prior
        ({"p": "1", "y": "-inf"}, {"p": "1"}),
        ({"p": "1", "y": math.inf}, {"p": "1"}),
        ({"d": "q1", "p": ""}, {"d": "q1"}),          # a parent missing as a blank cell
        ({"d": "q1", "p": MISSING, "y": "inf"}, {"d": "q1"}),
    ])
    def test_reader_missing_cells_contribute_nothing(self, record, same_as):
        """The oracle calls a value missing where the reader does: a blank or
        ``?`` cell, and a continuous cell that does not parse to a finite
        number; a dependent child's parent follows the same rule."""
        cfg = tiny_config(
            categorical=(CategoricalSpec("p", ("0", "1"),
                                         {"good": (0.7, 0.3), "bad": (0.2, 0.8)}),),
            continuous=(ContinuousSpec("y", {"good": 0.0, "bad": 1.3},
                                       {"good": 1.0, "bad": 0.7}),),
            dependent=(DependentSpec("d", "p", ("q0", "q1"), {
                "good": {"0": (0.9, 0.1), "1": (0.4, 0.6)},
                "bad": {"0": (0.7, 0.3), "1": (0.3, 0.7)},
            }),),
        )
        truth = TruthModel(config=cfg)
        assert analytic_posterior(truth, record) == analytic_posterior(truth, same_as)

    def test_posterior_bits_pinned(self):
        """Every spec kind, a marginalized child, and the three missing forms:
        the exact floats, so a reordering of the factors shows."""
        cfg = tiny_config(
            categorical=(CategoricalSpec("p", ("0", "1", "2"),
                                         {"good": (0.7, 0.2, 0.1), "bad": (0.15, 0.35, 0.5)}),),
            continuous=(ContinuousSpec("y", {"good": 0.0, "bad": 1.3},
                                       {"good": 1.0, "bad": 0.7}),),
            dependent=(DependentSpec("d", "p", ("q0", "q1"), {
                "good": {"0": (0.9, 0.1), "1": (0.4, 0.6), "2": (0.25, 0.75)},
                "bad": {"0": (0.7, 0.3), "1": (0.3, 0.7), "2": (0.05, 0.95)},
            }),),
            noise=(NoiseSpec("zc", outcomes=("u", "v"), dist=(0.3, 0.7)),
                   NoiseSpec("zn", mean=2.0, sd=3.0)),
        )
        truth = TruthModel(config=cfg)
        marginal = "{'good': 0.7571428571428572, 'bad': 0.24285714285714285}"
        cases = [
            ({"p": "1", "y": 0.4, "d": "q1", "zc": "v", "zn": 1.5},
             "{'good': 0.8668412437642286, 'bad': 0.13315875623577153}"),
            ({"p": "2", "y": "-0.75", "d": "q0", "zc": "u", "zn": "7.25"},
             "{'good': 0.9971213898864937, 'bad': 0.002878610113506379}"),
            ({"d": "q1"}, marginal),
            ({"p": None, "y": None, "d": "q0", "zc": None, "zn": None},
             "{'good': 0.9656934306569344, 'bad': 0.034306569343065696}"),
            ({"p": MISSING, "y": MISSING, "d": "q1", "zc": MISSING, "zn": MISSING}, marginal),
            ({"p": math.nan, "y": math.nan, "d": "q1", "zc": math.nan, "zn": math.nan},
             marginal),
            ({"zc": "u", "zn": -4.0},
             "{'good': 0.8999999999999999, 'bad': 0.09999999999999999}"),
            ({}, "{'good': 0.9, 'bad': 0.1}"),
        ]
        for record, expect in cases:
            assert repr(analytic_posterior(truth, record)) == expect, record


class TestLearnedVsTruthConvergence:
    def test_posterior_error_shrinks_with_sample_size(
        self, tmp_path, indep_model, indep_eval_bundle
    ):
        from rarebayes.dataio import CsvDataset
        from rarebayes.inference import iter_scored
        from rarebayes.structure import train

        held = indep_eval_bundle
        with open(held.data_path, newline="", encoding="utf-8") as fh:
            exact = np.array(
                [analytic_posterior(held.result.truth, row)["bad"] for row in csv.DictReader(fh)]
            )

        def mae(model):
            bad = model.class_symbols.index("bad")
            learned = np.concatenate(
                [s.probabilities[:, bad] for s in iter_scored(model, held.data_path)]
            )
            return float(np.abs(learned - exact).mean())

        small_fit = generate(indep_config(n=3_000, seed=202), tmp_path / "small")
        small_model = train(
            indep_model.schema, CsvDataset(small_fit.data_path), seed=5
        )
        small_err, big_err = mae(small_model), mae(indep_model)
        assert big_err < 0.02
        assert small_err > big_err


class TestConfigRoundTrip:
    def test_doc_round_trip(self):
        for cfg in (recovery_config(n=10), indep_config(n=10), messy_config(n=10)):
            assert config_from_doc(config_to_doc(cfg)) == cfg

    def test_truth_file_round_trip(self, tmp_path):
        result = generate(tiny_config(), tmp_path / "t")
        truth = load_truth(result.truth_path)
        assert truth.config == tiny_config()
