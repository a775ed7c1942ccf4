import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarebayes import (
    JointCounts,
    MIScore,
    conditional_mutual_information,
    entropy,
    mutual_information,
    select_by_cumulative,
)
from rarebayes.infometrics import count_table


# -- independent oracles (direct summation, no shared code paths) -----------

def mi_oracle(counts):
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    total = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            p = counts[i, j] / n
            if p == 0:
                continue
            px = counts[i, :].sum() / n
            py = counts[:, j].sum() / n
            total += p * math.log2(p / (px * py))
    return total


def cmi_oracle(counts):
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    total = 0.0
    for c in range(counts.shape[0]):
        for i in range(counts.shape[1]):
            for j in range(counts.shape[2]):
                p = counts[c, i, j] / n
                if p == 0:
                    continue
                pc = counts[c].sum() / n
                pci = counts[c, i, :].sum() / n
                pcj = counts[c, :, j].sum() / n
                total += p * math.log2(p * pc / (pci * pcj))
    return total


counts_2d = st.integers(2, 4).flatmap(
    lambda r: st.integers(2, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 40), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
).filter(lambda m: sum(sum(row) for row in m) > 0)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy((0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy((1.0, 0.0)) == 0.0

    def test_uniform_quaternary(self):
        assert entropy((0.25,) * 4) == pytest.approx(2.0, abs=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            entropy((1.1, -0.1))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            entropy((0.5, 0.6))


class TestMutualInformation:
    def test_product_distribution_is_zero(self):
        # counts proportional to an exact product: 60*(0.5,0.5) x (0.3,0.7)
        joint = JointCounts(("c", "x"), [[15, 35], [15, 35]])
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation_is_one_bit(self):
        joint = JointCounts(("c", "x"), [[30, 0], [0, 30]])
        assert mutual_information(joint) == pytest.approx(1.0, abs=1e-12)

    def test_known_joint_value(self):
        # frequencies ((0.4, 0.1), (0.1, 0.4)) scaled to counts
        joint = JointCounts(("c", "x"), [[40, 10], [10, 40]])
        expected = mi_oracle([[40, 10], [10, 40]])
        assert expected == pytest.approx(0.278072, abs=1e-6)
        assert mutual_information(joint) == pytest.approx(expected, abs=1e-12)

    def test_empty_joint_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mutual_information(JointCounts(("c", "x"), [[0, 0], [0, 0]]))

    def test_random_joints_match_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            shape = rng.integers(2, 5, size=2)
            counts = rng.integers(0, 30, size=shape)
            if counts.sum() == 0:
                continue
            got = mutual_information(JointCounts(("a", "b"), counts))
            assert got == pytest.approx(mi_oracle(counts), abs=1e-12)

    @given(counts_2d)
    @settings(max_examples=150, deadline=None)
    def test_symmetry_under_transpose(self, m):
        counts = np.asarray(m)
        a = mutual_information(JointCounts(("x", "y"), counts))
        b = mutual_information(JointCounts(("y", "x"), counts.T))
        assert abs(a - b) <= 1e-12

    @given(counts_2d)
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_and_bounded_by_marginal_entropies(self, m):
        counts = np.asarray(m, dtype=float)
        mi = mutual_information(JointCounts(("x", "y"), np.asarray(m)))
        n = counts.sum()
        hx = entropy(counts.sum(axis=1) / n)
        hy = entropy(counts.sum(axis=0) / n)
        assert mi >= -1e-12
        assert mi <= min(hx, hy) + 1e-12

    @given(counts_2d)
    @settings(max_examples=150, deadline=None)
    def test_chain_identity(self, m):
        counts = np.asarray(m, dtype=float)
        n = counts.sum()
        hx = entropy(counts.sum(axis=1) / n)
        hxy = entropy(counts.flatten() / n)
        # H(Y|X) = sum_x p(x) H(Y | X=x)
        hy_given_x = 0.0
        for row in counts:
            if row.sum() == 0:
                continue
            hy_given_x += (row.sum() / n) * entropy(row / row.sum())
        assert abs(hx + hy_given_x - hxy) <= 1e-12


class TestConditionalMutualInformation:
    def test_conditionally_independent_slices(self):
        slice_ = np.outer([6, 4], [3, 7])  # product within each class slice
        joint = JointCounts(("c", "x", "y"), np.stack([slice_, 2 * slice_]))
        assert conditional_mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_identical_uniform_within_class(self):
        diag = np.array([[10, 0], [0, 10]])
        joint = JointCounts(("c", "x", "y"), np.stack([diag, 3 * diag]))
        assert conditional_mutual_information(joint) == pytest.approx(1.0, abs=1e-12)

    def test_random_2x2x2_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(1, 20, size=(2, 2, 2))
        joint = JointCounts(("c", "x", "y"), counts)
        assert conditional_mutual_information(joint) == pytest.approx(
            cmi_oracle(counts), abs=1e-12
        )

    def test_200_random_joints_match_bruteforce(self):
        rng = np.random.default_rng(12345)
        for _ in range(200):
            shape = rng.integers(2, 5, size=3)  # up to 4x4x4
            counts = rng.integers(0, 25, size=shape)
            if counts.sum() == 0:
                continue
            got = conditional_mutual_information(JointCounts(("c", "x", "y"), counts))
            assert got == pytest.approx(cmi_oracle(counts), abs=1e-12)

    def test_empty_joint_rejected(self):
        with pytest.raises(ValueError):
            conditional_mutual_information(
                JointCounts(("c", "x", "y"), np.zeros((2, 2, 2), dtype=int))
            )


class TestSelectByCumulative:
    def scores(self, values):
        return [MIScore(f"v{i}", v) for i, v in enumerate(values)]

    def test_prefix_until_threshold(self):
        picked = select_by_cumulative(self.scores([0.5, 0.3, 0.15, 0.05]), 0.95)
        assert [s.subject for s in picked] == ["v0", "v1", "v2"]

    def test_threshold_one_selects_all_positive(self):
        picked = select_by_cumulative(self.scores([0.5, 0.3, 0.15, 0.05]), 1.0)
        assert len(picked) == 4

    def test_threshold_zero_selects_top_entry(self):
        picked = select_by_cumulative(self.scores([0.2, 0.7, 0.1]), 0.0)
        assert [s.subject for s in picked] == ["v1"]

    def test_zero_scores_never_selected(self):
        picked = select_by_cumulative(self.scores([0.6, 0.0, 0.4, 0.0]), 1.0)
        assert {s.subject for s in picked} == {"v0", "v2"}

    def test_all_zero_selects_nothing(self):
        assert select_by_cumulative(self.scores([0.0, 0.0]), 0.5) == []

    def test_ties_keep_declaration_order(self):
        picked = select_by_cumulative(self.scores([0.3, 0.3, 0.3]), 0.5)
        assert [s.subject for s in picked] == ["v0", "v1"]

    def test_threshold_range_validated(self):
        with pytest.raises(ValueError):
            select_by_cumulative(self.scores([0.5]), 1.5)

    def test_selection_invariant_to_log_base(self):
        rng = np.random.default_rng(3)
        joints = [rng.integers(1, 30, size=(2, 3)) for _ in range(12)]
        bits = [
            MIScore(f"v{i}", mutual_information(JointCounts(("c", "x"), j)))
            for i, j in enumerate(joints)
        ]
        # a change of logarithm base scales every score by one constant
        nats = [MIScore(s.subject, s.value * math.log(2.0)) for s in bits]
        for t in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
            chosen_bits = {s.subject for s in select_by_cumulative(bits, t)}
            chosen_nats = {s.subject for s in select_by_cumulative(nats, t)}
            assert chosen_bits == chosen_nats


def test_joint_counts_validation():
    with pytest.raises(ValueError):
        JointCounts(("a", "b"), [[-1, 2], [0, 1]])
    with pytest.raises(ValueError):
        JointCounts(("a",), [1, 2])
    with pytest.raises(ValueError):
        JointCounts(("a", "b", "c"), [[1, 2], [0, 1]])


# -- the counting engine -----------------------------------------------------

# bool axes hold at most two values; the others are wide enough that a fold
# kept in a uint8 or uint16 operand would wrap
CODE_DTYPES = (np.uint8, np.uint16, np.int64, np.bool_)


@st.composite
def code_columns(draw):
    """1-4 integer code columns of one drawn length (0 included) and the
    table shape they index, size-1 axes included."""
    dtypes = draw(st.lists(st.sampled_from(CODE_DTYPES), min_size=1, max_size=4))
    shape = tuple(draw(st.integers(1, 2 if dt is np.bool_ else 24)) for dt in dtypes)
    n = draw(st.integers(0, 80))
    columns = [
        np.array(draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n)), dtype=dt)
        for size, dt in zip(shape, dtypes)
    ]
    return columns, shape


@given(code_columns())
@settings(max_examples=200, deadline=None)
def test_count_table_matches_a_per_row_counter(drawn):
    columns, shape = drawn
    expected = np.zeros(shape, dtype=np.int64)
    for cell, count in Counter(zip(*(col.tolist() for col in columns))).items():
        expected[tuple(map(int, cell))] = count
    table = count_table(columns, shape)
    assert table.shape == shape
    np.testing.assert_array_equal(table, expected)
