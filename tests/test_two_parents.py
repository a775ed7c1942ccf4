"""k = 2 field parents: planted recovery against the sampler's analytic
posterior, and the two-parent CPTs against a plain count of the rows."""

import csv
from collections import Counter

import numpy as np

from rarebayes import load_model, parse_schema, train
from rarebayes.inference import iter_scored

from two_parent_sampler import SCHEMA_TEXT, posterior_bad, write_csv


def test_planted_parents_are_kept_and_posteriors_match(tmp_path):
    """The child keeps both planted parents, in the order they were
    accepted; its posteriors match the analytic ones within the c05
    bound; and the model file saves, loads and saves to the same bytes."""
    model = train(parse_schema(SCHEMA_TEXT), write_csv(tmp_path / "train.csv", 20_000, seed=1))
    assert model.parents["c"] == ("p1", "p2")

    held_out = write_csv(tmp_path / "test.csv", 2_000, seed=2)
    bad = model.class_symbols.index("bad")
    got = np.concatenate([s.probabilities[:, bad] for s in iter_scored(model, held_out)])
    with open(held_out, newline="", encoding="utf-8") as fh:
        want = [posterior_bad(r["p1"], r["p2"], r["c"]) for r in csv.DictReader(fh)]
    assert np.mean(np.abs(got - want)) < 0.02

    model.save(tmp_path / "model.json")
    load_model(tmp_path / "model.json").save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()


def test_two_parent_cpts_match_a_row_count(tmp_path):
    """Each two-parent CPT (no smoothing) is the file's (class, p1, p2,
    child) symbol counts over their row totals, and flags exactly the rows
    whose total is zero."""
    path = write_csv(tmp_path / "data.csv", 400, seed=3, missing_rate=0.05)
    model = train(parse_schema(SCHEMA_TEXT), path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        column = {name: i for i, name in enumerate(next(reader))}
        rows = list(reader)
    two = {node: ps for node, ps in model.parents.items() if len(ps) == 2}
    assert two
    for node, (a, b) in two.items():
        counts = Counter(
            (row[column["class"]], row[column[a]], row[column[b]], row[column[node]])
            for row in rows
        )
        symbols = [model.class_symbols,
                   *(model.outcomes.symbols(var) for var in (a, b, node))]
        want = np.array([[[[counts[(c, sa, sb, sn)] for sn in symbols[3]]
                           for sb in symbols[2]] for sa in symbols[1]] for c in symbols[0]],
                        dtype=np.float64)
        totals = want.sum(axis=-1)
        want = np.divide(want, totals[..., None], out=np.zeros_like(want),
                         where=totals[..., None] > 0)
        cpt = model.cpts[node]
        assert np.array_equal(cpt.unseen, totals == 0), node
        assert cpt.probs.shape == want.shape
        assert np.abs(cpt.probs - want).max() <= 1e-12, node
