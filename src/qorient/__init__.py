"""qorient: numerical laboratory for the entanglement-assisted orientation game.

Two players on opposite poles each pick one of three paths and a
direction; they win a round by matching directions on the same path and
opposing them on different paths. The package scores strategies both
ways: exhaustive enumeration of local-deterministic ones (bound 7 out
of 9 terms) and quantum ones through the spectrum of the game operator
(bound 7.5, reached by the phi+ Bell state at measurement angles
(0, 120, -120) degrees), plus Monte Carlo play, synthetic coincidence
counts, and white-noise fitting for imperfect sources.
"""

from .classical import (
    DeterministicStrategy,
    classical_maximum,
    classical_minimum,
    classical_success_bound,
    enumerate_all,
)
from .linalg import (
    IDENTITY_2,
    IDENTITY_4,
    PAULI_X,
    PAULI_Z,
    Spectrum,
)
from .scoring import (
    BetaBreakdown,
    CLASSICAL_BOUND,
    MIXED_BETA,
    OPP_PAIRS,
    PURE_MAX_BETA,
    beta_grid,
    beta_value,
    correlators,
    game_operator,
    game_operators,
    outcome_distribution,
)
from .simulate import (
    CountTable,
    GameEstimate,
    NoiseFit,
    TrialRecord,
    beta_from_counts,
    expected_counts,
    fit_noise,
    fit_noise_max_point,
    run_game,
    sample_trial,
    synth_counts,
)
from .spectra import (
    BellDecomposition,
    ClosedFormSpectrum,
    Optimum,
    SweepDataset,
    bell_content_label,
    bell_decompose,
    closed_form_one_param,
    closed_form_two_param,
    find_optimum,
    numeric_spectrum,
    sweep_surface,
)
from .states import (
    BELL_BASIS_ORDER,
    BellState,
    OneParam,
    Parametrization,
    QuantumState,
    SettingTriple,
    TwoParam,
    bell_state_density,
    maximally_mixed,
    noisy_phi_plus,
    pure_state,
    superpose,
)

__version__ = "0.1.0"

OPTIMAL_SETTINGS = SettingTriple.from_degrees(0.0, 120.0, -120.0)

__all__ = [
    "BELL_BASIS_ORDER",
    "BellDecomposition",
    "BellState",
    "BetaBreakdown",
    "CLASSICAL_BOUND",
    "ClosedFormSpectrum",
    "CountTable",
    "DeterministicStrategy",
    "GameEstimate",
    "IDENTITY_2",
    "IDENTITY_4",
    "MIXED_BETA",
    "NoiseFit",
    "OPP_PAIRS",
    "OPTIMAL_SETTINGS",
    "OneParam",
    "Optimum",
    "PAULI_X",
    "PAULI_Z",
    "PURE_MAX_BETA",
    "Parametrization",
    "QuantumState",
    "SettingTriple",
    "Spectrum",
    "SweepDataset",
    "TrialRecord",
    "TwoParam",
    "bell_content_label",
    "bell_decompose",
    "bell_state_density",
    "beta_from_counts",
    "beta_grid",
    "beta_value",
    "classical_maximum",
    "classical_minimum",
    "classical_success_bound",
    "closed_form_one_param",
    "closed_form_two_param",
    "correlators",
    "enumerate_all",
    "expected_counts",
    "find_optimum",
    "fit_noise",
    "fit_noise_max_point",
    "game_operator",
    "game_operators",
    "maximally_mixed",
    "noisy_phi_plus",
    "numeric_spectrum",
    "outcome_distribution",
    "pure_state",
    "run_game",
    "sample_trial",
    "superpose",
    "sweep_surface",
    "synth_counts",
]
