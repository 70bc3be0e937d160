"""Deterministic strategy enumeration and the classical bound."""

import itertools

import pytest

from qorient.classical import (
    DeterministicStrategy,
    classical_maximum,
    classical_minimum,
    classical_success_bound,
    enumerate_all,
)
from qorient.scoring import N_TERMS

# brute-force golden values, frozen from the enumeration itself
GOLDEN_MAX = 7
GOLDEN_MIN = 2
GOLDEN_N_OPTIMAL = 6

# enumerate_all's 64 scores in product order, one row per Alice strategy,
# frozen from a per-term count of same-path matches and cross-path mismatches
FROZEN_SCORES = (
    (3, 4, 4, 5, 4, 5, 5, 6),
    (4, 7, 3, 6, 3, 6, 2, 5),
    (4, 3, 7, 6, 3, 2, 6, 5),
    (5, 6, 6, 7, 2, 3, 3, 4),
    (4, 3, 3, 2, 7, 6, 6, 5),
    (5, 6, 2, 3, 6, 7, 3, 4),
    (5, 2, 6, 3, 6, 3, 7, 4),
    (6, 5, 5, 4, 5, 4, 4, 3),
)

# every score of enumerate_all, keyed by (alice, bob)
SCORES = dict(((s.alice, s.bob), v) for s, v in enumerate_all())


def strat(a, b):
    return DeterministicStrategy(alice=tuple(a), bob=tuple(b))


def score(a, b) -> int:
    return SCORES[tuple(a), tuple(b)]


class TestClassicalBeta:
    def test_all_same_sign(self):
        # every same-path term hits, every cross term fails
        assert score((1, 1, 1), (1, 1, 1)) == 3

    def test_equal_mixed_strategy_is_optimal(self):
        # 3 same-path hits + 4 ordered cross pairs with differing signs
        assert score((1, 1, -1), (1, 1, -1)) == 7

    def test_hand_counted_example(self):
        # a=(+,-,+), b=(-,+,-): no same-path hits; ordered cross mismatches
        # at (1,3) and (3,1) only
        assert score((1, -1, 1), (-1, 1, -1)) == 2

    def test_integer_range(self):
        for s, value in enumerate_all():
            assert type(value) is int
            assert 0 <= value <= 9

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            strat((1, 1, 0), (1, 1, 1))
        with pytest.raises(ValueError):
            strat((1, 1), (1, 1, 1))


class TestEnumeration:
    def test_counts_64(self):
        assert len(enumerate_all()) == 64

    def test_scores_frozen(self):
        scored = enumerate_all()
        assert [(s.alice, s.bob) for s, _ in scored] == list(
            itertools.product(itertools.product((1, -1), repeat=3), repeat=2))
        assert [v for _, v in scored] == [v for row in FROZEN_SCORES for v in row]

    def test_maximum_is_exactly_seven(self):
        best, argmax = classical_maximum()
        assert best == GOLDEN_MAX
        assert len(argmax) == GOLDEN_N_OPTIMAL
        # optimal strategies have both players equal with mixed signs
        for s in argmax:
            assert s.alice == s.bob
            assert len(set(s.alice)) == 2

    def test_minimum(self):
        worst, _ = classical_minimum()
        assert worst == GOLDEN_MIN

    def test_success_bound(self):
        assert classical_success_bound() == pytest.approx(7 / 9, abs=0)

    def test_success_bound_is_the_enumerated_maximum(self):
        assert classical_success_bound() == classical_maximum()[0] / N_TERMS

    def test_quantum_optimum_exceeds_bound(self):
        assert 7.5 / 9 > classical_success_bound()


class TestSymmetries:
    def test_global_sign_flip_invariance(self):
        for a in itertools.product((1, -1), repeat=3):
            for b in itertools.product((1, -1), repeat=3):
                assert score(a, b) == score([-x for x in a], [-x for x in b])

    def test_common_path_permutation_invariance(self):
        perms = list(itertools.permutations(range(3)))
        for a in itertools.product((1, -1), repeat=3):
            for b in itertools.product((1, -1), repeat=3):
                base = score(a, b)
                for perm in perms:
                    pa = [a[k] for k in perm]
                    pb = [b[k] for k in perm]
                    assert score(pa, pb) == base
