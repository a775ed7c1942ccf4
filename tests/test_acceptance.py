"""Acceptance gate.

Eleven criteria, one test each, every one printing a single pass/fail
line.  Timing bounds are asserted with ``time.perf_counter`` around the
work the criterion describes (fixture generation is excluded; it is not
part of any criterion).
"""

import csv
import itertools
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from rarebayes import (
    ConfusionCounts,
    analytic_posterior,
    conditional_mutual_information,
    fcv,
    mutual_information,
    parse_schema,
    sweep,
    train,
)
from rarebayes.baselines import DiscriminantModel, lda_label, lda_score, qda_label, qda_score
from rarebayes.dataio import CsvDataset
from rarebayes.evaluation import volume_ratio
from rarebayes.inference import iter_scored, posterior
from rarebayes.structure import load_model
from rarebayes.synthgen import CategoricalSpec, GenConfig, generate

from fixture_configs import big_config, indep_config, messy_config


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {title}: FAIL", flush=True)
        raise
    print(f"[criterion {num:2d}] {title}: PASS", flush=True)


def mi_bruteforce(counts):
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    total = 0.0
    for i, j in itertools.product(*map(range, counts.shape)):
        p = counts[i, j] / n
        if p > 0:
            total += p * math.log2(
                p / ((counts[i, :].sum() / n) * (counts[:, j].sum() / n))
            )
    return total


def cmi_bruteforce(counts):
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    total = 0.0
    for c, i, j in itertools.product(*map(range, counts.shape)):
        p = counts[c, i, j] / n
        if p > 0:
            pc = counts[c].sum() / n
            pci = counts[c, i, :].sum() / n
            pcj = counts[c, :, j].sum() / n
            total += p * math.log2(p * pc / (pci * pcj))
    return total


def test_c01_four_pass_guarantee(recovery_bundle):
    with criterion(1, "four-pass training guarantee"):
        ds = CsvDataset(recovery_bundle.data_path)
        t0 = time.perf_counter()
        model = train(recovery_bundle.schema, ds, seed=7)
        elapsed = time.perf_counter() - t0
        assert ds.stats.passes == 4
        assert model.pass_stats.passes == 4
        assert elapsed < 1.0, f"50k-row training took {elapsed:.2f}s"


def test_c02_mi_cmi_oracle_equivalence():
    with criterion(2, "MI/CMI brute-force equivalence (200 random joints)"):
        rng = np.random.default_rng(20250)
        t0 = time.perf_counter()
        checked = 0
        while checked < 200:
            shape = rng.integers(2, 5, size=3)  # up to 4x4x4
            counts = rng.integers(0, 25, size=shape)
            if counts.sum() == 0:
                continue
            cmi = conditional_mutual_information(counts)
            assert abs(cmi - cmi_bruteforce(counts)) <= 1e-12
            marginal = counts.sum(axis=0)
            if marginal.sum() > 0:
                mi = mutual_information(marginal)
                assert abs(mi - mi_bruteforce(marginal)) <= 1e-12
            checked += 1
        assert time.perf_counter() - t0 < 1.0


def test_c03_table_derived_arithmetic():
    with criterion(3, "published-table arithmetic (C_pct and volume ratios)"):
        counts = ConfusionCounts(
            tp=134_131, fp=134_305, tn=4_716_223 - 134_305, fn=635_611 - 134_131
        )
        row = fcv(counts, 0.7)
        assert row.c_pct_str() == "21.10"
        assert volume_ratio(309_784, 202_500) == "1.5:1"
        assert volume_ratio(134_305, 134_131) == "1.0:1"


def test_c04_qda_lda_identity():
    with criterion(4, "QDA = 2*LDA under equal covariances (100 fixtures)"):
        rng = np.random.default_rng(40404)
        t0 = time.perf_counter()
        for _ in range(100):
            d = int(rng.integers(1, 6))
            mean1 = rng.normal(0, 2, d)
            mean2 = rng.normal(0, 2, d)
            base = rng.normal(0, 1, (d, d))
            cov = base @ base.T + 0.5 * np.eye(d)
            n1, n2 = int(rng.integers(5, 300)), int(rng.integers(5, 300))
            common = dict(feature_names=[f"f{i}" for i in range(d)],
                          label1="good", label2="bad",
                          mean1=mean1, mean2=mean2, n1=n1, n2=n2)
            lin = DiscriminantModel(kind="linear", cov=cov, **common)
            quad = DiscriminantModel(kind="quadratic", cov1=cov.copy(),
                                     cov2=cov.copy(), **common)
            for _ in range(5):
                y = rng.normal(0, 2, d)
                l_val, q_val = lda_score(lin, y), qda_score(quad, y)
                assert abs(q_val - 2.0 * l_val) <= 1e-9
                if abs(l_val - lin.cutoff) > 1e-9:
                    assert lda_label(lin, y) == qda_label(quad, y)
        assert time.perf_counter() - t0 < 1.0


def test_c05_posterior_oracle(tmp_path):
    with criterion(5, "posterior vs analytic oracle and naive-Bayes identity"):
        t0 = time.perf_counter()

        # learned vs analytic on a held-out sample, u = 0, 8 bins, n = 100k
        fit = generate(indep_config(), tmp_path / "fit")
        held = generate(indep_config(n=20_000, seed=203), tmp_path / "held")
        schema = parse_schema(fit.schema_path.read_text(encoding="utf-8"))
        schema = replace(schema, max_parents=0, t_prime=1.0, max_bins=8)
        model = train(schema, CsvDataset(fit.data_path), seed=5)
        bad_idx = model.class_symbols.index("bad")
        learned = np.concatenate(
            [s.probabilities[:, bad_idx] for s in iter_scored(model, held.data_path)]
        )
        with open(held.data_path, newline="", encoding="utf-8") as fh:
            exact = np.array(
                [analytic_posterior(fit.truth, row)["bad"] for row in csv.DictReader(fh)]
            )
        mae = float(np.abs(learned - exact).mean())
        assert mae < 0.02, f"mean absolute error {mae:.4f}"

        # naive-Bayes identity against raw counts, no zero cells
        cfg = GenConfig(
            n=2_000, seed=77,
            categorical=(
                CategoricalSpec("plan", ("a", "b"),
                                {"good": (0.7, 0.3), "bad": (0.3, 0.7)}),
                CategoricalSpec("region", ("n", "s", "e"),
                                {"good": (0.5, 0.3, 0.2), "bad": (0.2, 0.3, 0.5)}),
            ),
        )
        nb = generate(cfg, tmp_path / "nb")
        nb_schema = parse_schema(nb.schema_path.read_text(encoding="utf-8"))
        nb_model = train(replace(nb_schema, max_parents=0, t_prime=1.0),
                         CsvDataset(nb.data_path))
        with open(nb.data_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        class_counts = Counter(r["class"] for r in rows)
        cell = Counter((r["class"], var, r[var]) for r in rows for var in ("plan", "region"))
        assert min(cell.values()) > 0 and len(cell) == 10, "fixture must fill every cell"
        scored = np.vstack(
            [s.probabilities for s in iter_scored(nb_model, nb.data_path)]
        )
        n = len(rows)
        for i in range(0, n, 97):
            weights = {}
            for c in nb_model.class_symbols:
                w = class_counts[c] / n
                for var in ("plan", "region"):
                    w *= cell[(c, var, rows[i][var])] / class_counts[c]
                weights[c] = w
            z = sum(weights.values())
            for j, c in enumerate(nb_model.class_symbols):
                assert abs(scored[i, j] - weights[c] / z) <= 1e-12
        assert time.perf_counter() - t0 < 30.0


def test_c06_structure_recovery(recovery_bundle):
    with criterion(6, "noise exclusion and planted-edge recovery at n=50k"):
        t0 = time.perf_counter()
        model = train(recovery_bundle.schema, CsvDataset(recovery_bundle.data_path), seed=7)
        selected = {rf.node for rf in model.ranked_fields}
        assert selected == {"f1", "f2", "f3", "f4", "dep_parent", "dep_child"}
        assert "z1" not in selected and "z2" not in selected
        assert model.parents["dep_child"] == ("dep_parent",)

        # independent check: the planted pair tops the conditional MI of all pairs
        fields = sorted(selected)
        outcome_sets = {f: sorted({"b0", "b1"} if f == "dep_child" else
                                  {"a0", "a1"} if f == "dep_parent" else {"x", "y"})
                        for f in fields}
        joint: Counter = Counter()
        with open(recovery_bundle.data_path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                for a, b in itertools.combinations(fields, 2):
                    joint[(a, b, row["class"], row[a], row[b])] += 1
        best_pair, best_cmi = None, -1.0
        for a, b in itertools.combinations(fields, 2):
            counts = np.array(
                [[[joint[(a, b, c, va, vb)] for vb in outcome_sets[b]]
                  for va in outcome_sets[a]]
                 for c in ("good", "bad")]
            )
            cmi = conditional_mutual_information(counts)
            if cmi > best_cmi:
                best_pair, best_cmi = (a, b), cmi
        assert best_pair == ("dep_child", "dep_parent") or best_pair == ("dep_parent", "dep_child")
        assert time.perf_counter() - t0 < 30.0


def test_c07_pruning_property(tmp_path):
    with criterion(7, "pruned posteriors stay strictly inside (0, 1)"):
        t0 = time.perf_counter()
        lines = ["class,x,y"]
        lines += ["good,a,p"] * 10 + ["good,b,p"] * 5
        lines += ["bad,b,q"] * 3 + ["bad,a,q"] * 2
        path = tmp_path / "zeros.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        schema = parse_schema(
            "class class\nvar x categorical\nvar y categorical\n"
            "t_prime 1.0\nmax_parents 0\n"
        )
        model = train(schema, CsvDataset(path))  # smoothing defaults to 0
        assert model.schema.smoothing == 0.0
        # the y table carries exact zero cells in both class rows
        y_cpt = model.cpts["y"].probs
        assert (y_cpt == 0.0).any()
        saw_pruned = 0
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                post = posterior(model, {"x": row["x"], "y": row["y"]})
                assert np.all(post.probabilities > 0.0)
                assert np.all(post.probabilities < 1.0)
                pruned = [node for node, reason in post.skipped if reason == "pruned"]
                assert pruned == ["y"]
                saw_pruned += 1
        assert saw_pruned == 20
        assert time.perf_counter() - t0 < 1.0


def test_c08_sweep_monotonicity():
    with criterion(8, "FP and TP non-increasing over the default grid"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(88)
        scores = rng.random(10_000)
        actuals = np.where(rng.random(10_000) < 0.15, "bad", "good").tolist()
        rows = sweep(scores.tolist(), actuals, positive="bad")
        assert len(rows) == 17
        fps = [r.fp for r in rows]
        tps = [r.tp for r in rows]
        assert all(a >= b for a, b in zip(fps, fps[1:]))
        assert all(a >= b for a, b in zip(tps, tps[1:]))
        assert time.perf_counter() - t0 < 1.0


def test_c09_prior_fallback(messy_bundle, messy_model):
    with criterion(9, "all-missing record falls back to exact class frequencies"):
        t0 = time.perf_counter()
        with open(messy_bundle.data_path, newline="", encoding="utf-8") as fh:
            counts = Counter(row["class"] for row in csv.DictReader(fh))
        total = sum(counts.values())
        post = posterior(messy_model, {})
        for sym, p in zip(post.classes, post.probabilities):
            assert float(p) == counts[sym] / total
        assert time.perf_counter() - t0 < 1.0


def test_c10_determinism(tmp_path):
    with criterion(10, "seeded gen and train are byte-identical"):
        t0 = time.perf_counter()
        cfg = messy_config(n=10_000, seed=55)
        a = generate(cfg, tmp_path / "a")
        b = generate(cfg, tmp_path / "b")
        assert a.data_path.read_bytes() == b.data_path.read_bytes()
        assert a.truth_path.read_bytes() == b.truth_path.read_bytes()
        schema = parse_schema(a.schema_path.read_text(encoding="utf-8"))
        m1 = train(schema, CsvDataset(a.data_path), seed=3)
        m2 = train(schema, CsvDataset(a.data_path), seed=3)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        m1.save(p1)
        m2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        # and the file reloads into an identical model
        assert load_model(p1).to_json_text() == m1.to_json_text()
        assert time.perf_counter() - t0 < 30.0


def test_c11_throughput_guard(tmp_path):
    with criterion(11, "1M rows x 20 vars: train + classify under 5 minutes"):
        fixture = generate(big_config(), tmp_path / "big")  # generation untimed
        schema = parse_schema(fixture.schema_path.read_text(encoding="utf-8"))
        ds = CsvDataset(fixture.data_path)
        t0 = time.perf_counter()
        model = train(schema, ds, seed=11)
        classified = tmp_path / "pred.csv"
        from rarebayes.inference import classify_file

        summary = classify_file(model, fixture.data_path, classified, 0.5)
        elapsed = time.perf_counter() - t0
        assert ds.stats.passes == 4
        assert summary["rows"] == 1_000_000
        assert elapsed < 300.0, f"train+classify took {elapsed:.0f}s"
        print(f"  throughput: train+classify on 1M x 20 in {elapsed:.0f}s", flush=True)
