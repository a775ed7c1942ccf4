import csv
import math

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
from rarebayes.baselines import DiscriminantModel, fit_from_csv, score_to_csv


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
        model = fit_discriminant(X, labels, "linear", classes=("g", "b"))
        assert model.mean1[0] == 2.0
        assert model.mean2[0] == 0.0
        # each class variance is 2 with denominator n-1; pooled stays 2
        assert model.cov[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_equal_sizes_zero_cutoff(self):
        X = np.array([[1.0], [3.0], [-1.0], [1.0]])
        model = fit_discriminant(X, ["g", "g", "b", "b"], "linear", classes=("g", "b"))
        assert model.cutoff == 0.0

    def test_doubling_population2_raises_cutoff_by_log2(self):
        rng = np.random.default_rng(0)
        X1 = np.vstack([rng.normal(0, 1, (10, 2)), rng.normal(2, 1, (10, 2))])
        lab1 = ["g"] * 10 + ["b"] * 10
        X2 = np.vstack([X1, rng.normal(2, 1, (10, 2))])
        lab2 = lab1 + ["b"] * 10
        m1 = fit_discriminant(X1, lab1, "linear", classes=("g", "b"))
        m2 = fit_discriminant(X2, lab2, "linear", classes=("g", "b"))
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
            fit_discriminant(X, labels, "linear", classes=("g", "b"))
        model = fit_discriminant(X, labels, "linear", classes=("g", "b"), ridge=1e-6)
        assert model.cov is not None

    def test_two_samples_per_class_required(self):
        with pytest.raises(ValueError, match="2 samples"):
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
        m_raw = fit_discriminant(X, labels, "linear", classes=("g", "b"))
        m_aff = fit_discriminant(X @ A.T + b, labels, "linear", classes=("g", "b"))
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
            m = fit_discriminant(X, labels, kind, classes=("g", "b"))
            mp = fit_discriminant(X[:, perm], labels, kind, classes=("g", "b"))
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

    def test_score_csv_shares_classification_format(self, tmp_path):
        path = self.write_data(tmp_path, missing_every=9)
        model = fit_from_csv(self.SCHEMA, path, "quadratic")
        out = tmp_path / "pred.csv"
        summary = score_to_csv(model, self.SCHEMA, path, out)
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert summary["rows"] == len(rows) == 120
        assert list(rows[0]) == ["record_id", "p_bad", "p_good", "label", "skipped_nodes"]
        unscored = [r for r in rows if r["skipped_nodes"] == "features:missing"]
        assert len(unscored) == summary["unscored"] == 14
        assert all(r["label"] == "good" for r in unscored)

    def test_one_hot_expansion_off_by_default_and_available(self, tmp_path):
        path = self.write_data(tmp_path)
        plain = fit_from_csv(self.SCHEMA, path, "linear")
        assert all("cat" not in name for name in plain.feature_names)
        expanded = fit_from_csv(self.SCHEMA, path, "linear", one_hot=True, ridge=1e-9)
        assert any(name.startswith("cat=") for name in expanded.feature_names)

    def test_no_continuous_vars_rejected(self, tmp_path):
        schema = parse_schema("class y\nvar cat categorical\n")
        path = tmp_path / "c.csv"
        path.write_text("y,cat\ngood,m\ngood,f\nbad,m\nbad,f\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="continuous"):
            fit_from_csv(schema, path, "linear")

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 50])
    def test_fit_does_not_depend_on_chunk_size(self, tmp_path, sizes, kind, chunk_rows):
        """Each class's rows are appended to one buffer as the chunks come,
        so a fit over many chunks has the rows, in order, and so the bits
        of the in-memory fit over the complete rows of the whole file."""
        path = self.write_data(tmp_path, n=300, missing_every=10)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["u"] != "?"]
        features = np.array([[float(r["u"]), float(r["v"])] for r in rows])
        expected = fit_discriminant(features, [r["y"] for r in rows], kind,
                                    classes=("good", "bad"), feature_names=["u", "v"])
        sizes(chunk_rows=chunk_rows, block_bytes=1)
        model = fit_from_csv(self.SCHEMA, path, kind)
        assert (model.n1, model.n2, model.dropped_rows) == (expected.n1, expected.n2, 30)
        for name in ("mean1", "mean2", "cov", "cov1", "cov2"):
            assert np.array_equal(getattr(model, name), getattr(expected, name)), name
