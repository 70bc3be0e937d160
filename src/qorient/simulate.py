"""Monte Carlo play of the orientation game and synthetic count statistics.

Sampling uses numpy's seedable PCG64 generator, which is stable across
platforms. ``run_game`` plays its rounds in fixed chunks from one
generator, drawn in the same order as one batch of every path a, every
path b and every uniform, so memory stays at about a byte per round
while every estimate matches the one-batch draw bit for bit. Where work
splits across setting pairs, each pair gets an independent child stream
spawned from (seed, pair index), so results do not depend on evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scoring import (
    BetaBreakdown,
    MIXED_BETA,
    N_TERMS,
    OPP_PAIRS,
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

# draws per chunk in run_game; one chunk's temporaries take about 3.3 MiB
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
    """Inverse-cdf outcome index k per round: 2*[A went -1] + [B went -1]."""
    return (u[:, None] >= cdf[pair]).sum(axis=1)


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


def run_game(state: QuantumState, settings: Parametrization, n_trials: int,
             seed: int) -> GameEstimate:
    """Estimate the success probability over many independent rounds.

    Deterministic for a fixed seed. One generator draws every path a,
    then every path b, then every uniform, each in chunks of ``_CHUNK``;
    numpy gives the same stream in chunks as in one call. Between the
    path loops only the pair index 3*a + b is kept, one byte per round,
    and the rounds are then played chunk by chunk into a running win
    count, so a run holds n_trials bytes plus one chunk's temporaries.
    """
    n_trials = _exact_count("n_trials", n_trials, 1)
    seed = _exact_count("seed", seed, 0)
    cdf = _outcome_cdf(state, settings)
    rng = np.random.default_rng(seed)
    pair = np.empty(n_trials, dtype=np.uint8)
    chunks = [pair[start:start + _CHUNK] for start in range(0, n_trials, _CHUNK)]
    for chunk in chunks:
        chunk[:] = 3 * rng.integers(0, 3, size=chunk.size)
    for chunk in chunks:
        chunk[:] = chunk + rng.integers(0, 3, size=chunk.size)
    wins = 0
    for chunk in chunks:
        k = _outcomes(cdf, chunk, rng.random(chunk.size))
        # a round is won with equal directions (k = 0 or 3) exactly when
        # the paths are equal (pair index 0, 4 or 8)
        wins += int(np.count_nonzero(((k == 0) | (k == 3)) == (chunk % 4 == 0)))
    rate = wins / n_trials
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
    """Exact expected counts (no sampling): N_TOT times each probability."""
    if n_tot_per_pair <= 0:
        raise ValueError(f"n_tot_per_pair must be positive, got {n_tot_per_pair}")
    table = _distribution_table(state, settings)
    return CountTable(settings=settings.settings(), counts=table * float(n_tot_per_pair))


def beta_from_counts(counts: CountTable) -> BetaBreakdown:
    """Reconstruct the score from coincidence counts.

    Empirical same-direction probability at pair (i, i) is
    (N_pp + N_mm)/N_TOT; opposite-direction at (i, j) is
    (N_pm + N_mp)/N_TOT.
    """
    c = counts.counts
    for i in range(3):
        if c[i, i].sum() <= 0:
            raise ValueError(f"empty count total for setting pair ({i + 1}, {i + 1})")
    for i, j in OPP_PAIRS:
        if c[i, j].sum() <= 0:
            raise ValueError(f"empty count total for setting pair ({i + 1}, {j + 1})")
    p_same = [(c[i, i, 0] + c[i, i, 3]) / c[i, i].sum() for i in range(3)]
    p_opp = [(c[i, j, 1] + c[i, j, 2]) / c[i, j].sum() for i, j in OPP_PAIRS]
    return BetaBreakdown.from_terms(p_same, p_opp)


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
