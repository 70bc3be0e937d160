"""Monte Carlo play of the orientation game and synthetic count statistics.

Sampling uses numpy's seedable PCG64 generator, which is stable across
platforms. ``run_game`` reads raw PCG64 words and calls no ``Generator``
method, since numpy keeps a bit generator's stream fixed across versions
but lets ``Generator`` methods change their algorithms (NEP 19,
https://numpy.org/neps/nep-0019-rng-policy.html). Its words give every
path a, then every path b, then every uniform, exactly as
``default_rng(seed)`` draws ``integers(0, 3)`` twice and then
``random()`` (checked with numpy 2.4), so every estimate matches that
one-batch draw bit for bit while memory stays at about a byte per round.
``sample_trial`` and ``synth_counts`` draw from a ``Generator``. Where
work splits across setting pairs, each pair gets an independent child
stream spawned from (seed, pair index), so results do not depend on
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scoring import (
    GAME_MATRIX,
    BetaBreakdown,
    MIXED_BETA,
    N_TERMS,
    PURE_MAX_BETA,
    beta_grid,
    outcome_distribution,
)
from .states import (
    BellState,
    OneParam,
    Parametrization,
    QuantumState,
    SettingTriple,
    TwoParam,
    bell_state_density,
)

# draws per chunk in run_game; one chunk's temporaries take about 1.6 MiB
_CHUNK = 65536


@dataclass(frozen=True)
class TrialRecord:
    """One round: paths chosen, directions taken, and whether they met."""

    path_a: int
    path_b: int
    outcome_a: int
    outcome_b: int
    success: bool

    def __post_init__(self):
        if self.path_a not in (1, 2, 3) or self.path_b not in (1, 2, 3):
            raise ValueError("paths must be 1, 2 or 3")
        if self.outcome_a not in (+1, -1) or self.outcome_b not in (+1, -1):
            raise ValueError("outcomes must be +1 or -1")
        want = (self.outcome_a == self.outcome_b if self.path_a == self.path_b
                else self.outcome_a != self.outcome_b)
        if self.success != want:
            raise ValueError("success flag inconsistent with paths and outcomes")


@dataclass(frozen=True)
class GameEstimate:
    """Monte Carlo success-rate estimate with its binomial standard error."""

    success_rate: float
    stderr: float
    n_trials: int
    seed: int


def _distribution_table(state: QuantumState, settings: Parametrization) -> np.ndarray:
    """(3, 3, 4) joint outcome distributions for every ordered path pair."""
    angles = np.array(settings.settings().as_tuple())
    table = np.clip(outcome_distribution(state, angles[:, None], angles[None, :]), 0.0, None)
    # outcome probabilities sum to one up to rounding; normalize so the
    # inverse-cdf draw below cannot fall off the end
    return table / table.sum(axis=2, keepdims=True)


def _exact_count(name: str, value, minimum: int) -> int:
    """A sample size or seed: a Python or numpy integer of at least minimum, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _outcome_cdf(state: QuantumState, settings: Parametrization) -> np.ndarray:
    """(9, 4) cumulative outcome distributions, one row per pair index 3*a + b."""
    cdf = np.cumsum(_distribution_table(state, settings).reshape(9, 4), axis=1)
    return cdf / cdf[:, -1:]


def _outcomes(cdf: np.ndarray, pair: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-cdf outcome index k per round: 2*[A went -1] + [B went -1].

    k counts the cdf entries of the round's row that u reaches. Three
    compares suffice: ``_outcome_cdf`` divides each row by its own last
    entry, so that entry is exactly 1.0, and u lies in [0, 1).
    """
    k = (u >= cdf[:, 0].take(pair)).view(np.uint8)
    k += (u >= cdf[:, 1].take(pair)).view(np.uint8)
    k += (u >= cdf[:, 2].take(pair)).view(np.uint8)
    return k


def sample_trial(state: QuantumState, settings: Parametrization,
                 rng: np.random.Generator) -> TrialRecord:
    """Play one round: uniform random paths, Born-rule outcome pair.

    Draws path a, path b and one uniform from ``rng``, in that order.
    """
    path_a, path_b = (int(p) for p in rng.integers(0, 3, size=2))
    k = int(_outcomes(_outcome_cdf(state, settings), np.array([3 * path_a + path_b]),
                      rng.random(1))[0])
    sign_a, sign_b = 1 - 2 * (k >> 1), 1 - 2 * (k & 1)
    return TrialRecord(path_a=path_a + 1, path_b=path_b + 1, outcome_a=sign_a,
                       outcome_b=sign_b, success=(sign_a == sign_b) == (path_a == path_b))


def _path_pairs(bitgen: np.random.BitGenerator, n: int) -> np.ndarray:
    """Pair index 3*a + b of n rounds, one byte each, from raw 64-bit words.

    These are the paths of ``integers(0, 3, size=n)`` drawn twice, a then
    b, from a ``Generator`` on ``bitgen``. Numpy draws them with Lemire's
    method on 32-bit halves, low half of each word first: a half h gives
    floor(3h / 2**32), and is refused when 3h mod 2**32 < 1, which only
    h = 0 is. Halves are read in pieces of ``_CHUNK``, and a piece may
    hold the last paths a and the first paths b. A half left over after
    the last path b is dropped, as ``Generator.random`` drops it, so the
    next word of ``bitgen`` is the first uniform.
    """
    pair = np.empty(n, dtype=np.uint8)
    done = 0  # paths drawn; the first n are paths a, the next n paths b
    while done < 2 * n:
        words = bitgen.random_raw(-(-min(2 * n - done, _CHUNK) // 2))
        halves = words.astype("<u8", copy=False).view("<u4")
        if np.count_nonzero(halves) < halves.size:
            halves = halves[halves != 0]
        # floor(3h / 2**32) counts the bounds floor(k * 2**32 / 3), k = 1, 2, that h exceeds
        paths = (halves > 1431655765).view(np.uint8) + (halves > 2863311530).view(np.uint8)
        paths = paths[:2 * n - done]
        n_a = min(max(n - done, 0), paths.size)
        np.multiply(paths[:n_a], 3, out=pair[done:done + n_a])
        if n_a < paths.size:
            pair[done + n_a - n:done + paths.size - n] += paths[n_a:]
        done += paths.size
    return pair


def _uniform_thresholds(c: np.ndarray) -> np.ndarray:
    """The least t with t * 2**-53 >= c, for each entry c of [0, 1].

    A uniform from word w is (w >> 11) * 2**-53, so it reaches c exactly
    when w >> 11 reaches this t. c * 2**53 is exact.
    """
    return np.ceil(c * 2.0**53).astype(np.uint64)


def run_game(state: QuantumState, settings: Parametrization, n_trials: int,
             seed: int) -> GameEstimate:
    """Estimate the success probability over many independent rounds.

    Deterministic for a fixed seed. One ``PCG64(seed)`` gives raw words,
    whose stream NEP 19 keeps fixed across numpy versions: first every
    path a and then every path b (``_path_pairs``), kept as the pair index
    3*a + b, one byte per round; then one word per round, whose top 53
    bits are its uniform. That is ``default_rng(seed)`` drawing
    ``integers(0, 3)`` twice and then ``random()``. The rounds are played
    chunk by chunk into a running loss count, so a run holds n_trials
    bytes plus one chunk's temporaries. A round's directions differ when
    its uniform reaches the first cdf entry of its pair but not the
    third; both compares run on integers, against ``_uniform_thresholds``.
    """
    n_trials = _exact_count("n_trials", n_trials, 1)
    seed = _exact_count("seed", seed, 0)
    cdf = _outcome_cdf(state, settings)
    lo, hi = _uniform_thresholds(cdf[:, 0]), _uniform_thresholds(cdf[:, 2])
    bitgen = np.random.PCG64(seed)
    pair = _path_pairs(bitgen, n_trials)
    losses = 0
    for start in range(0, n_trials, _CHUNK):
        chunk = pair[start:start + _CHUNK]
        m = bitgen.random_raw(chunk.size)
        m >>= 11
        idx = chunk.astype(np.intp)
        differ = (m >= lo.take(idx, mode="clip")) ^ (m >= hi.take(idx, mode="clip"))
        # a round is lost when its directions differ exactly when its paths
        # are equal (pair index 0, 4 or 8)
        losses += int(np.count_nonzero(differ == ((chunk & 3) == 0)))
    rate = (n_trials - losses) / n_trials
    stderr = float(np.sqrt(rate * (1.0 - rate) / n_trials))
    return GameEstimate(success_rate=rate, stderr=stderr, n_trials=n_trials, seed=seed)


@dataclass(frozen=True)
class CountTable:
    """Coincidence counts per ordered setting pair.

    ``counts[i, j]`` holds (N_pp, N_pm, N_mp, N_mm) for path pair
    (i+1, j+1). Sampled tables hold integers; expected tables hold the
    exact multinomial means, so the dtype is float.
    """

    settings: SettingTriple
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.shape != (3, 3, 4):
            raise ValueError(f"counts must have shape (3, 3, 4), got {counts.shape}")
        if not np.all(np.isfinite(counts)) or np.any(counts < 0):
            raise ValueError("counts must be finite and non-negative")
        counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def total(self, i: int, j: int) -> float:
        """N_TOT for path pair (i, j), 1-based."""
        return float(self.counts[i - 1, j - 1].sum())


def synth_counts(state: QuantumState, settings: Parametrization,
                 n_tot_per_pair: int, seed: int) -> CountTable:
    """Multinomial coincidence counts for all 9 ordered setting pairs.

    Each pair draws ``n_tot_per_pair`` outcomes from its joint
    distribution on an independent substream of ``seed``, keyed by the
    pair's row-major index.
    """
    n_tot_per_pair = _exact_count("n_tot_per_pair", n_tot_per_pair, 1)
    seed = _exact_count("seed", seed, 0)
    table = _distribution_table(state, settings)
    streams = np.random.SeedSequence(seed).spawn(9)
    counts = np.empty((3, 3, 4), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            rng = np.random.default_rng(streams[i * 3 + j])
            counts[i, j] = rng.multinomial(n_tot_per_pair, table[i, j])
    return CountTable(settings=settings.settings(), counts=counts)


def expected_counts(state: QuantumState, settings: Parametrization,
                    n_tot_per_pair: float) -> CountTable:
    """Exact expected counts (no sampling): N_TOT times each probability.

    ``n_tot_per_pair`` may be any finite positive real number, never a bool.
    """
    if (isinstance(n_tot_per_pair, (bool, np.bool_))
            or not 0 < n_tot_per_pair < math.inf):
        raise ValueError(f"n_tot_per_pair must be a finite number > 0, got {n_tot_per_pair!r}")
    table = _distribution_table(state, settings)
    return CountTable(settings=settings.settings(), counts=table * float(n_tot_per_pair))


def beta_from_counts(counts: CountTable) -> BetaBreakdown:
    """Reconstruct the score from coincidence counts.

    The win probability of pair (i, j) is (N_pp + N_mm)/N_TOT where the
    game matrix is +1 (equal paths) and (N_pm + N_mp)/N_TOT where it is
    -1. The first pair in row-major order with no counts is refused.
    """
    c = counts.counts
    totals = c.sum(axis=2)
    empty = np.argwhere(totals <= 0)
    if empty.size:
        i, j = empty[0] + 1
        raise ValueError(f"empty count total for setting pair ({i}, {j})")
    wins = np.where(GAME_MATRIX > 0, c[..., 0] + c[..., 3], c[..., 1] + c[..., 2]) / totals
    return BetaBreakdown.from_wins(wins)


@dataclass(frozen=True)
class NoiseFit:
    """Estimated white-noise mixing parameter of the source."""

    p_hat: float
    residual: float
    method: str


def fit_noise_max_point(beta_max: float) -> NoiseFit:
    """Invert a single maximal score through the white-noise model.

    The model beta(p) = p * beta_pure + (1 - p) * beta_mixed at the
    optimal settings has beta_pure = 7.5 and beta_mixed = 4.5, so
    p = (beta_max - 4.5) / 3, clamped to [0, 1]. A beta_max outside
    [0, 9] is impossible for any data (beta is a sum of 9 probabilities)
    and raises ValueError.
    """
    beta_max = float(beta_max)
    if not math.isfinite(beta_max):
        raise ValueError(f"beta_max must be finite, got {beta_max}")
    if not 0.0 <= beta_max <= N_TERMS:
        raise ValueError(f"beta_max must lie in [0, {N_TERMS}], since beta is a sum of "
                         f"{N_TERMS} probabilities; got {beta_max}")
    p = (beta_max - MIXED_BETA) / (PURE_MAX_BETA - MIXED_BETA)
    p_hat = min(1.0, max(0.0, p))
    model = MIXED_BETA + (PURE_MAX_BETA - MIXED_BETA) * p_hat
    return NoiseFit(p_hat=p_hat, residual=abs(beta_max - model), method="max-point")


def fit_noise(observed, method: str = "curve-fit") -> NoiseFit:
    """Fit the white-noise parameter to observed (settings, beta) pairs.

    ``observed`` is a sequence of (parametrization point, beta) pairs;
    points may be SettingTriple, TwoParam or OneParam. The model is
    beta(x; p) = p * beta_pure(x) + (1 - p) * 4.5, linear in p, solved
    by least squares in closed form. ``method="max-point"`` instead
    inverts only the largest observed beta. The residual is the RMS
    misfit of the clamped estimate.
    """
    observed = list(observed)
    if not observed:
        raise ValueError("fit_noise requires at least one observation")
    betas = np.array([float(beta) for _, beta in observed])
    if not np.all(np.isfinite(betas)):
        raise ValueError("observed beta values must be finite")
    if method == "max-point":
        return fit_noise_max_point(betas.max())
    if method != "curve-fit":
        raise ValueError(f"unknown fit method {method!r}")

    angles = np.array([_as_settings(x).as_tuple() for x, _ in observed])
    pure_betas = beta_grid(bell_state_density(BellState.PHI_PLUS), angles)

    slope = pure_betas - MIXED_BETA
    if float(np.max(np.abs(slope))) < 1e-9:
        raise ValueError("observations do not constrain the noise parameter "
                         "(pure and mixed scores coincide at every point)")
    p = float(slope @ (betas - MIXED_BETA)) / float(slope @ slope)
    p_hat = min(1.0, max(0.0, p))
    model = MIXED_BETA + p_hat * slope
    residual = float(np.sqrt(np.mean((betas - model) ** 2)))
    return NoiseFit(p_hat=p_hat, residual=residual, method="curve-fit")


def _as_settings(point: Parametrization) -> SettingTriple:
    if isinstance(point, (SettingTriple, TwoParam, OneParam)):
        return point.settings()
    raise ValueError(f"cannot interpret {point!r} as measurement settings")
