"""Local-realistic benchmark for the orientation game.

A deterministic strategy assigns each player a fixed direction for every
path. Shared randomness only mixes these 64 extremal strategies, so the
best deterministic score is the classical bound; brute-force enumeration
verifies it rather than re-deriving it. Sign vectors a and b score
``(9 + a^T M b) / 2`` for the game matrix M: the table is one matrix product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .scoring import CLASSICAL_BOUND, GAME_MATRIX, N_TERMS

SIGNS = (+1, -1)
_SIGN_VECTORS = tuple(itertools.product(SIGNS, repeat=3))


@dataclass(frozen=True)
class DeterministicStrategy:
    """A fixed direction (+1 or -1) per path for each player."""

    alice: tuple[int, int, int]
    bob: tuple[int, int, int]

    def __post_init__(self):
        for side in (self.alice, self.bob):
            if len(side) != 3 or any(s not in SIGNS for s in side):
                raise ValueError(f"strategy entries must be +1/-1 triples, got {side!r}")


def enumerate_all() -> list[tuple[DeterministicStrategy, int]]:
    """Score all 64 deterministic strategy pairs, in product order."""
    s = np.array(_SIGN_VECTORS, dtype=np.int64)
    scores = (N_TERMS + s @ GAME_MATRIX @ s.T) // 2
    pairs = itertools.product(_SIGN_VECTORS, repeat=2)
    return [(DeterministicStrategy(alice=a, bob=b), score)
            for (a, b), score in zip(pairs, scores.ravel().tolist())]


def _extreme(pick) -> tuple[int, list[DeterministicStrategy]]:
    """The extreme score (``pick`` is max or min) and every strategy achieving it."""
    scored = enumerate_all()
    best = pick(score for _, score in scored)
    return best, [s for s, score in scored if score == best]


def classical_maximum() -> tuple[int, list[DeterministicStrategy]]:
    """Best deterministic score and every strategy achieving it."""
    return _extreme(max)


def classical_minimum() -> tuple[int, list[DeterministicStrategy]]:
    """Worst deterministic score and every strategy achieving it."""
    return _extreme(min)


def classical_success_bound() -> float:
    """Best classical success probability: the maximum deterministic score,
    CLASSICAL_BOUND (7), over the 9 terms.

    Mixed (shared-randomness) strategies are convex combinations of the
    deterministic ones, so they cannot exceed this.
    """
    return CLASSICAL_BOUND / N_TERMS
