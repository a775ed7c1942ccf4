import csv
import math
import time
from unittest import mock

import numpy as np
import pytest

from rarebayes import (
    ConfigError,
    SingularCovarianceError,
    fit_discriminant,
    lda_label,
    lda_score,
    parse_schema,
    qda_label,
    qda_score,
)
from rarebayes import baselines
from rarebayes.baselines import DiscriminantModel, _class_rows, fit_from_csv, score_to_csv
from rarebayes.cli import run


def make_model(kind, mean1, mean2, cov, n1, n2):
    mean1 = np.asarray(mean1, dtype=float)
    mean2 = np.asarray(mean2, dtype=float)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    kwargs = dict(cov=cov) if kind == "linear" else dict(cov1=cov.copy(), cov2=cov.copy())
    return DiscriminantModel(
        kind=kind, feature_names=[f"f{i}" for i in range(mean1.size)],
        label1="good", label2="bad", mean1=mean1, mean2=mean2, n1=n1, n2=n2,
        **kwargs,
    )


class TestFit:
    def test_hand_computed_1d_fit(self):
        X = np.array([[1.0], [3.0], [-1.0], [1.0]])
        labels = ["g", "g", "b", "b"]
        model = fit_discriminant(X, labels, "linear", positive="b")
        assert model.mean1[0] == 2.0
        assert model.mean2[0] == 0.0
        # each class variance is 2 with denominator n-1; pooled stays 2
        assert model.cov[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_equal_sizes_zero_cutoff(self):
        X = np.array([[1.0], [3.0], [-1.0], [1.0]])
        model = fit_discriminant(X, ["g", "g", "b", "b"], "linear", positive="b")
        assert model.cutoff == 0.0

    def test_doubling_population2_raises_cutoff_by_log2(self):
        rng = np.random.default_rng(0)
        X1 = np.vstack([rng.normal(0, 1, (10, 2)), rng.normal(2, 1, (10, 2))])
        lab1 = ["g"] * 10 + ["b"] * 10
        X2 = np.vstack([X1, rng.normal(2, 1, (10, 2))])
        lab2 = lab1 + ["b"] * 10
        m1 = fit_discriminant(X1, lab1, "linear", positive="b")
        m2 = fit_discriminant(X2, lab2, "linear", positive="b")
        assert m2.cutoff - m1.cutoff == pytest.approx(math.log(2), abs=1e-12)

    def test_rarer_label_defaults_to_population2(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (30, 1))
        labels = ["common"] * 25 + ["rare"] * 5
        model = fit_discriminant(X, labels, "linear")
        assert model.label2 == "rare"
        assert model.n2 == 5

    def test_duplicate_samples_singular_without_ridge(self):
        X = np.array([[1.0, 2.0]] * 5 + [[3.0, 4.0]] * 5)
        labels = ["g"] * 5 + ["b"] * 5
        with pytest.raises(SingularCovarianceError):
            fit_discriminant(X, labels, "linear", positive="b")
        model = fit_discriminant(X, labels, "linear", positive="b", ridge=1e-6)
        assert model.cov is not None

    def test_rank_deficient_covariance_that_passes_cholesky_is_singular(self):
        """Two rows in four dims give a rank-1 covariance, which Cholesky
        passes in rounding although the scorer cannot invert it: the fit
        raises SingularCovarianceError, where scoring used to raise numpy's
        LinAlgError through ``baseline``."""
        X = np.vstack([np.random.default_rng(5).normal(size=(12, 4)),
                       [[-319.467938, -0.514902, -0.001043, 0.268417],
                        [201.537768, 0.661229, -1.4e-05, 1.04184]]])
        with pytest.raises(SingularCovarianceError, match="population-2"):
            fit_discriminant(X, ["g"] * 12 + ["b"] * 2, "quadratic")

    def test_two_samples_per_class_required(self):
        with pytest.raises(ConfigError, match="2 complete rows"):
            fit_discriminant(np.array([[1.0], [2.0], [3.0]]), ["g", "g", "b"], "linear")

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            fit_discriminant(np.zeros((4, 1)), ["g", "g", "b", "b"], "cubic")


class TestLinearScore:
    def test_hand_value_and_label(self):
        model = make_model("linear", [2.0], [0.0], [[1.0]], 10, 10)
        # (1.5 - 1.0) * 1 * (2 - 0) = 1.0 >= cutoff 0 -> population 1
        assert lda_score(model, [1.5]) == pytest.approx(1.0, abs=1e-12)
        assert lda_label(model, [1.5]) == "good"

    def test_midpoint_is_population1_boundary(self):
        model = make_model("linear", [2.0], [0.0], [[1.0]], 10, 10)
        assert lda_score(model, [1.0]) == pytest.approx(0.0, abs=1e-12)
        assert lda_label(model, [1.0]) == "good"   # L >= c keeps population 1

    def test_below_cutoff_goes_to_population2(self):
        model = make_model("linear", [2.0], [0.0], [[1.0]], 10, 10)
        assert lda_label(model, [0.2]) == "bad"

    def test_dimension_mismatch(self):
        model = make_model("linear", [2.0], [0.0], [[1.0]], 10, 10)
        with pytest.raises(ValueError, match="dims"):
            lda_score(model, [1.0, 2.0])

    def test_kind_checked(self):
        model = make_model("quadratic", [2.0], [0.0], [[1.0]], 10, 10)
        with pytest.raises(ConfigError):
            lda_score(model, [1.0])


class TestQuadraticScore:
    def test_hand_value_equals_twice_linear(self):
        linear = make_model("linear", [2.0], [0.0], [[1.0]], 10, 10)
        quad = make_model("quadratic", [2.0], [0.0], [[1.0]], 10, 10)
        # (1.5-0)^2 - (1.5-2)^2 + 0 = 2.25 - 0.25 = 2.0
        assert qda_score(quad, [1.5]) == pytest.approx(2.0, abs=1e-12)
        assert qda_score(quad, [1.5]) == pytest.approx(2 * lda_score(linear, [1.5]))
        assert qda_label(quad, [1.5]) == "good"

    def test_query_at_population1_mean(self):
        quad = make_model("quadratic", [2.0], [0.0], [[1.0]], 10, 10)
        # separation term (Ybar1-Ybar2)' S^-1 (Ybar1-Ybar2) = 4 > 0
        assert qda_score(quad, [2.0]) == pytest.approx(4.0, abs=1e-12)
        assert qda_label(quad, [2.0]) == "good"

    def test_midpoint_boundary_goes_to_population2(self):
        quad = make_model("quadratic", [2.0], [0.0], [[1.0]], 10, 10)
        assert qda_score(quad, [1.0]) == pytest.approx(0.0, abs=1e-12)
        assert qda_label(quad, [1.0]) == "bad"     # strict > keeps population 1 out

    def test_equal_covariance_identity_random_fixtures(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            mean1 = rng.normal(0, 2, d)
            mean2 = rng.normal(0, 2, d)
            base = rng.normal(0, 1, (d, d))
            cov = base @ base.T + 0.5 * np.eye(d)
            n1 = int(rng.integers(5, 200))
            n2 = int(rng.integers(5, 200))
            linear = make_model("linear", mean1, mean2, cov, n1, n2)
            quad = make_model("quadratic", mean1, mean2, cov, n1, n2)
            for _ in range(5):
                y = rng.normal(0, 2, d)
                l_score = lda_score(linear, y)
                q_score = qda_score(quad, y)
                assert abs(q_score - 2.0 * l_score) <= 1e-9
                if abs(l_score - linear.cutoff) > 1e-9:
                    assert lda_label(linear, y) == qda_label(quad, y)

    def test_affine_invariance_of_linear_score(self):
        rng = np.random.default_rng(5)
        d = 3
        X = np.vstack([rng.normal(0, 1, (40, d)), rng.normal(1.5, 1, (40, d))])
        labels = ["g"] * 40 + ["b"] * 40
        A = rng.normal(0, 1, (d, d)) + 2 * np.eye(d)
        b = rng.normal(0, 5, d)
        queries = rng.normal(0.5, 1, (10, d))
        m_raw = fit_discriminant(X, labels, "linear", positive="b")
        m_aff = fit_discriminant(X @ A.T + b, labels, "linear", positive="b")
        for y in queries:
            assert lda_score(m_raw, y) == pytest.approx(
                lda_score(m_aff, A @ y + b), abs=1e-6, rel=1e-6
            )

    def test_labels_invariant_to_feature_order(self):
        rng = np.random.default_rng(6)
        d = 4
        X = np.vstack([rng.normal(0, 1, (30, d)), rng.normal(1, 1, (30, d))])
        labels = ["g"] * 30 + ["b"] * 30
        perm = rng.permutation(d)
        queries = rng.normal(0.5, 1, (20, d))
        for kind, label_fn in (("linear", lda_label), ("quadratic", qda_label)):
            m = fit_discriminant(X, labels, kind, positive="b")
            mp = fit_discriminant(X[:, perm], labels, kind, positive="b")
            for y in queries:
                assert label_fn(m, y) == label_fn(mp, y[perm])


class TestCsvPlumbing:
    SCHEMA = parse_schema(
        "class y\nvar cat categorical\nvar u continuous\nvar v continuous\n"
    )

    def write_data(self, tmp_path, n=120, missing_every=0):
        rng = np.random.default_rng(17)
        lines = ["y,cat,u,v"]
        for i in range(n):
            bad = rng.random() < 0.25
            u = rng.normal(2.0 if bad else 0.0, 1.0)
            v = rng.normal(-1.0 if bad else 0.0, 1.0)
            u_txt = "?" if missing_every and i % missing_every == 0 else f"{u:.4f}"
            cat = "m" if rng.random() < 0.5 else "f"
            lines.append(f"{'bad' if bad else 'good'},{cat},{u_txt},{v:.4f}")
        path = tmp_path / "base.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_fit_uses_continuous_only_and_counts_drops(self, tmp_path):
        path = self.write_data(tmp_path, missing_every=10)
        model = fit_from_csv(self.SCHEMA, path, "linear")
        assert model.feature_names == ["u", "v"]
        assert model.dropped_rows == 12
        assert model.label2 == "bad"

    def test_score_csv_shares_classification_format(self, tmp_path, sizes):
        """Also with a chunk every 7 rows and a block per row, so the counts
        and record ids cross chunks, to the same bytes."""
        path = self.write_data(tmp_path, missing_every=9)
        model = fit_from_csv(self.SCHEMA, path, "quadratic")
        outs = []
        for name in ("default", "small"):
            if name == "small":
                sizes(chunk_rows=7, block_bytes=1)
            outs.append(tmp_path / f"{name}.csv")
            summary = score_to_csv(model, self.SCHEMA, path, outs[-1])
            with open(outs[-1], newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            assert summary["rows"] == len(rows) == 120
            assert list(rows[0]) == ["record_id", "p_bad", "p_good", "label", "skipped_nodes"]
            assert [r["record_id"] for r in rows] == list(map(str, range(120)))
            unscored = [r for r in rows if r["skipped_nodes"] == "features:missing"]
            assert len(unscored) == summary["unscored"] == 14
            assert all(r["label"] == "good" for r in unscored)
            flagged = sum(r["label"] == "bad" for r in rows)
            assert summary["flagged"] == flagged > 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_features_are_the_continuous_variables_in_schema_order(self, tmp_path, kind):
        """The categorical column takes no part, and the features follow the
        schema, not the header (``y,cat,u,v``)."""
        schema = parse_schema("class y\nvar v continuous\nvar cat categorical\n"
                              "var u continuous\n")
        model = fit_from_csv(schema, self.write_data(tmp_path), kind)
        assert model.feature_names == [spec.name for spec in schema.continuous_vars]
        assert model.feature_names == ["v", "u"] and model.mean1.shape == (2,)

    def test_scoring_reads_the_columns_the_model_was_fit_on(self, tmp_path):
        """A model fit with the continuous variables in schema order ``u, v``
        scores the same rows, to the same bytes, with a schema listing them
        ``v, u``."""
        path = self.write_data(tmp_path, n=400)
        model = fit_from_csv(self.SCHEMA, path, "quadratic")
        swapped = parse_schema("class y\nvar cat categorical\nvar v continuous\n"
                               "var u continuous\n")
        outs = []
        for name, schema in (("fit-order", self.SCHEMA), ("swapped", swapped)):
            outs.append(tmp_path / f"{name}.csv")
            score_to_csv(model, schema, path, outs[-1])
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_one_hot_is_not_an_option(self, tmp_path, capsys):
        """The categorical expansion is gone: ``--one-hot`` is a usage error."""
        path = self.write_data(tmp_path)
        schema = tmp_path / "schema.txt"
        schema.write_text("class y\nvar cat categorical\nvar u continuous\n",
                          encoding="utf-8")
        assert run(["baseline", "--kind", "linear", "--schema", str(schema),
                    "--data", str(path), "--out", str(tmp_path / "out.csv"),
                    "--one-hot"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rarebayes ")
        assert "unrecognized arguments: --one-hot" in err and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_no_continuous_vars_rejected(self, tmp_path):
        """Before any row is read, so a file of no rows gets this error too."""
        schema = parse_schema("class y\nvar cat categorical\n")
        path = tmp_path / "c.csv"
        for rows in ("good,m\ngood,f\nbad,m\nbad,f\n", ""):
            path.write_text("y,cat\n" + rows, encoding="utf-8")
            with pytest.raises(ConfigError, match="continuous"):
                fit_from_csv(schema, path, "linear")

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 50])
    def test_fit_does_not_depend_on_chunk_size(self, tmp_path, sizes, kind, chunk_rows):
        """Each class's rows are appended to one buffer as the chunks come,
        so a fit over many chunks has the rows, in order, and so the bits
        of the in-memory fit over the complete rows of the whole file, by
        the same population rule: the rarer label by default, or the
        common one when it is named.  Both fits gather through the one
        ``_class_rows``, but the array fit hands it the whole array at
        once, so this compares one gather with many per-chunk ones."""
        path = self.write_data(tmp_path, n=300, missing_every=10)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["u"] != "?"]
        features = np.array([[float(r["u"]), float(r["v"])] for r in rows])
        sizes(chunk_rows=chunk_rows, block_bytes=1)
        for positive in (None, "good"):
            expected = fit_discriminant(features, [r["y"] for r in rows], kind,
                                        positive=positive, feature_names=["u", "v"])
            model = fit_from_csv(self.SCHEMA, path, kind, positive=positive)
            assert model.label2 == expected.label2 == (positive or "bad")
            assert (model.n1, model.n2, model.dropped_rows) == (expected.n1, expected.n2, 30)
            for name in ("mean1", "mean2", "cov", "cov1", "cov2"):
                assert np.array_equal(getattr(model, name), getattr(expected, name)), name

    @pytest.mark.parametrize("kind, covariances", [("linear", 1), ("quadratic", 2)])
    def test_each_covariance_is_inverted_once(self, tmp_path, sizes, kind, covariances):
        """A fit and a score of one block per row invert each covariance
        once, at the fit, and take each log-determinant at most once, and
        the scores are those of one block."""
        path = self.write_data(tmp_path, n=300, missing_every=10)
        whole = tmp_path / "whole.csv"
        score_to_csv(fit_from_csv(self.SCHEMA, path, kind), self.SCHEMA, path, whole)
        sizes(block_bytes=1)
        with (mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv,
              mock.patch.object(np.linalg, "slogdet", wraps=np.linalg.slogdet) as slogdet):
            model = fit_from_csv(self.SCHEMA, path, kind)
            assert inv.call_count == covariances
            score_to_csv(model, self.SCHEMA, path, tmp_path / "blocks.csv")
        assert inv.call_count == covariances
        assert slogdet.call_count == (0 if kind == "linear" else 2)
        assert (tmp_path / "blocks.csv").read_bytes() == whole.read_bytes()

    def test_a_third_label_in_a_later_chunk_drops_the_gathered_rows(self, tmp_path, sizes,
                                                                    monkeypatch):
        """With a row per block and seven per chunk, the first complete row
        of a third label comes chunks after the other two have rows: the
        gather drops them, so the fit gets each label with no rows, and the
        error names all three labels."""
        lines = [f"{'bad' if i % 3 == 0 else 'good'},m,{i}.5,{-i}.25" for i in range(30)]
        lines.insert(20, "odd,m,1.0,2.0")
        path = tmp_path / "third.csv"
        path.write_text("y,cat,u,v\n" + "\n".join(lines) + "\n", encoding="utf-8")
        sizes(chunk_rows=7, block_bytes=1)
        given, fit = {}, baselines._fit

        def spy(rows, *args):
            given.update(rows)
            return fit(rows, *args)

        monkeypatch.setattr(baselines, "_fit", spy)
        with pytest.raises(ConfigError) as err:
            fit_from_csv(self.SCHEMA, path, "linear")
        assert str(err.value) == ("baseline needs exactly 2 class values, "
                                  "got ['bad', 'good', 'odd']")
        assert given == {"good": None, "bad": None, "odd": None}

    def test_the_gather_stops_at_a_third_class_but_reads_every_part(self):
        """Two classes' rows are kept in order; a code of 2 drops them, and
        the parts after it are still read, so their labels get coded."""
        parts = [(np.full((2, 1), float(i)), np.array(codes))
                 for i, codes in enumerate([[0, 1], [-1, 1], [2, 0], [0, 3]])]
        labels = ["good", "bad", "odd", "late"]
        read = []

        def recorded():
            for i, part in enumerate(parts):
                read.append(i)
                yield part

        assert _class_rows(recorded(), labels) == dict.fromkeys(labels)
        assert read == [0, 1, 2, 3]
        kept = _class_rows(parts[:2], labels)
        assert {k: v.ravel().tolist() for k, v in kept.items()} == {"good": [0.0],
                                                                    "bad": [0.0, 1.0]}

    def test_a_third_label_with_no_complete_row_changes_no_bit(self, tmp_path):
        """Rows of a third label that each miss a feature are dropped before
        their label is coded: the two-class fit keeps its bits, and only
        the drop count grows."""
        path = self.write_data(tmp_path, n=200, missing_every=10)
        text = path.read_text(encoding="utf-8")
        third = tmp_path / "third.csv"
        third.write_text(text + "odd,m,?,1.0\nodd,f,2.0,?\n", encoding="utf-8")
        for kind in ("linear", "quadratic"):
            plain = fit_from_csv(self.SCHEMA, path, kind)
            model = fit_from_csv(self.SCHEMA, third, kind)
            assert model.dropped_rows == plain.dropped_rows + 2
            for name in ("label1", "label2", "n1", "n2", "mean1", "mean2", "cov", "cov1", "cov2"):
                assert np.array_equal(getattr(model, name), getattr(plain, name)), name


# A label per row.  40,000 of them took 5.0 s to fail when each chunk was
# gathered with one mask per label, and take 0.05 s on a 2-vCPU VM when
# at most two classes are gathered and the rest only coded; the bound is
# 10x that.
MANY_LABELS = 40_000
MANY_LABELS_BOUND_S = 0.5
MANY_LABELS_ERROR = ("baseline needs exactly 2 class values, got "
                     "['L0', 'L1', 'L10', 'L100', 'L1000', ... 39995 more]")


def many_labels(tmp_path) -> tuple[np.ndarray, list[str], list[str]]:
    """``MANY_LABELS`` rows of two features, a label per row, written under
    ``tmp_path``; the features, the labels, and ``baseline``'s argv."""
    features = np.random.default_rng(3).normal(size=(MANY_LABELS, 2))
    labels = [f"L{i}" for i in range(MANY_LABELS)]
    data = tmp_path / "labels.csv"
    data.write_text("y,u,v\n" + "".join(f"{y},{u:.6f},{v:.6f}\n" for y, (u, v)
                                         in zip(labels, features.tolist())), encoding="utf-8")
    schema = tmp_path / "schema.txt"
    schema.write_text("class y\nvar u continuous\nvar v continuous\n", encoding="utf-8")
    return features, labels, ["baseline", "--kind", "linear", "--schema", str(schema),
                              "--data", str(data), "--out", str(tmp_path / "out.csv")]


def test_a_label_per_row_fails_in_linear_time(tmp_path, capsys):
    """``baseline --kind linear`` on a file whose every row has its own
    label exits 1 with one error line, within 10x the time one pass of
    coding takes, and writes nothing."""
    argv = many_labels(tmp_path)[2]
    t0 = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - t0
    assert code == 1 and capsys.readouterr().err == f"error: {MANY_LABELS_ERROR}\n"
    assert elapsed < MANY_LABELS_BOUND_S, elapsed
    assert not (tmp_path / "out.csv").exists()


def test_the_array_fit_names_a_label_per_row_the_same(tmp_path):
    features, labels, _ = many_labels(tmp_path)
    with pytest.raises(ConfigError) as err:
        fit_discriminant(features, labels, "linear")
    assert str(err.value) == MANY_LABELS_ERROR
