"""Eigenvalue bounds of the game operator and searches over angle space.

The min-max principle turns "how large can the score get" into an
eigenvalue problem: over all states, beta at fixed settings ranges
exactly over [lambda_min, lambda_max] of the game operator. For the two
measurement families used throughout (angles (0, 2*phi, 2*theta) and
(0, 2*theta, -2*theta)) the full spectrum has closed trigonometric
forms, cross-checked against the numeric spectrum, for which the game
operator, exactly Hermitian as built, goes straight to LAPACK's
Hermitian eigensolver through ``numpy.linalg.eigh``. The square root
in the two-parameter middle pair is taken as the modulus of one
complex number whose square is exactly the paper's radicand, so plain
float64 stays accurate at the degeneracies. Both forms take whole
angle grids, so a sweep evaluates its grid in one call. Eigenvectors
are classified by their content in the Bell basis rather than by
index, which stays meaningful under degeneracies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .scoring import beta_grid, game_operator, game_operators
from .states import (
    BELL_BASIS_ORDER,
    BellState,
    OneParam,
    Parametrization,
    QuantumState,
    SettingTriple,
    TwoParam,
    _unit_vector,
)

# sweep_surface refuses larger grids before allocating anything: at the
# cap, the largest dataset, eigs with numeric columns (eigs --grid 400),
# peaks at 144.5 MiB RSS as CSV and 155.0 MiB as JSON (getrusage, Python
# 3.11, numpy 2.4, x86-64 Linux)
MAX_GRID_POINTS = 160_000

SEARCH_GRID_STEP_DEG = 0.5
SEARCH_REFINE_TOL_RAD = 1e-8
SEARCH_REFINE_ROUNDS = 3

# fixed eigenvalue-to-eigenvector pairing in the one-parameter family
ONE_PARAM_EIGENVECTORS = (BellState.PHI_PLUS, BellState.PSI_PLUS,
                          BellState.PHI_MINUS, BellState.PSI_MINUS)

_TWO_PARAM_LABELS = ("phi+", "psi-", "span{psi+,phi-}", "span{psi+,phi-}")


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """The four eigenvalues in formula order (not sorted).

    Each lambda has the broadcast shape of the family parameters it was
    evaluated at (0-d at a single point).
    """

    lambda1: np.ndarray
    lambda2: np.ndarray
    lambda3: np.ndarray
    lambda4: np.ndarray
    parametrization: TwoParam | OneParam

    def as_array(self) -> np.ndarray:
        """The lambdas stacked on a last axis of length 4; shape (4,) at a point."""
        return np.stack((self.lambda1, self.lambda2, self.lambda3, self.lambda4), axis=-1)

    def sorted_descending(self) -> np.ndarray:
        return np.sort(self.as_array(), axis=-1)[..., ::-1]

    @property
    def eigenvector_labels(self) -> tuple[str, str, str, str]:
        """Bell content of each eigenvector, index-matched to the lambdas."""
        if isinstance(self.parametrization, OneParam):
            return tuple(s.value for s in ONE_PARAM_EIGENVECTORS)
        return _TWO_PARAM_LABELS


def _require_finite(value, name: str) -> None:
    """Refuse a family parameter (float or array) holding nan or inf."""
    finite = np.isfinite(value)
    # at a point, finite is a numpy bool, and its .all() would cost about 3 us
    if not (finite.all() if finite.ndim else finite):
        bad = np.asarray(value)[~np.isfinite(value)].flat[0]
        raise ValueError(f"{name} must be finite, got {bad}")


def closed_form_two_param(phi, theta) -> ClosedFormSpectrum:
    """Closed-form spectrum for measurement angles (0, 2*phi, 2*theta).

    ``phi`` and ``theta`` are finite floats or numpy arrays that
    broadcast against each other; each lambda has their broadcast shape,
    and a nan or inf parameter raises ValueError. lambda3/lambda4 are
    (9 -/+ sqrt(R))/2, where the paper's radicand

        R = 15 + 2cos4t - 4cos2(t-2p) - 4cos2(2t-p) + 2cos4(t-p)
            + 2cos4p - 4cos2(t+p)

    equals |4uv - (u+v-1)^2|^2 with u = exp(2ip), v = exp(2it). Taking
    sqrt(R) as that modulus leaves no square root of a cancelling sum:
    near the degenerate points, where R -> 0, the seven-cosine sum loses
    its digits and its square root turns a rounding error eps into
    sqrt(eps), while the modulus keeps an absolute error of a few eps.
    So float64 is enough.
    """
    _require_finite(phi, "phi")
    _require_finite(theta, "theta")
    c1, c2, c3 = np.cos(2 * theta), np.cos(2 * (theta - phi)), np.cos(2 * phi)
    l1 = 6.0 - c1 - c2 - c3
    l2 = 3.0 + c1 + c2 + c3
    u, v = np.exp(2j * phi), np.exp(2j * theta)
    root = np.abs(4 * u * v - (u + v - 1) ** 2)
    return ClosedFormSpectrum(l1, l2, 0.5 * (9.0 - root), 0.5 * (9.0 + root),
                              TwoParam(phi, theta))


def closed_form_one_param(theta) -> ClosedFormSpectrum:
    """Closed-form spectrum for measurement angles (0, 2*theta, -2*theta).

    ``theta`` is a finite float or a numpy array, and each lambda has its
    shape; a nan or inf raises ValueError. Here every eigenvalue belongs
    to a fixed Bell state, see ``ClosedFormSpectrum.eigenvector_labels``.
    """
    _require_finite(theta, "theta")
    c2 = np.cos(2 * theta)
    c4 = np.cos(4 * theta)
    return ClosedFormSpectrum(6.0 - 2 * c2 - c4, 5.0 + 2 * c2 - c4, 4.0 - 2 * c2 + c4,
                              3.0 + 2 * c2 + c4, OneParam(theta))


def numeric_spectrum(settings: Parametrization) -> linalg.Spectrum:
    """Spectrum of the game operator by the numeric eigensolver (LAPACK).

    The operator goes to ``eigh`` unchecked: ``game_operators`` builds it
    exactly Hermitian, with zero imaginary part, at any finite settings.
    """
    return linalg._eigh_descending(game_operator(settings))


@dataclass(frozen=True)
class BellDecomposition:
    """Amplitudes of a 4-vector in the Bell basis (order BELL_BASIS_ORDER).

    ``residual`` is the norm of whatever falls outside the Bell span;
    the basis is complete, so it only measures numerical error.
    """

    amplitudes: np.ndarray
    residual: float

    def magnitude(self, label: BellState) -> float:
        return float(abs(self.amplitudes[BELL_BASIS_ORDER.index(label)]))


def bell_decompose(vector) -> BellDecomposition:
    """Expand a unit 4-vector over the four Bell states."""
    v = _unit_vector(vector)
    amps = np.array([np.vdot(b.vector, v) for b in BELL_BASIS_ORDER])
    recon = sum(a * b.vector for a, b in zip(amps, BELL_BASIS_ORDER))
    return BellDecomposition(amplitudes=amps, residual=float(np.linalg.norm(v - recon)))


def bell_content_label(vector, tol: float = 1e-6) -> str:
    """Short description of which Bell states a vector lives on."""
    dec = bell_decompose(vector)
    names = [b.value for b, a in zip(BELL_BASIS_ORDER, dec.amplitudes) if abs(a) > tol]
    if len(names) == 1:
        return names[0]
    return "span{" + ",".join(names) + "}"


@dataclass(frozen=True)
class Optimum:
    """An extremum of the spectrum over a measurement family."""

    settings: SettingTriple
    beta: float
    state_label: str
    parametrization: TwoParam | OneParam
    # family parameters (degrees) of every grid point tying the extremum
    grid_candidates_deg: tuple[tuple[float, ...], ...] = field(default=())


def _golden_section_min(f, lo: float, hi: float, tol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _family(family) -> tuple:
    """The closed form and the dataset parameter columns of a family class."""
    if family is TwoParam:
        return closed_form_two_param, ("phi_deg", "theta_deg")
    if family is OneParam:
        return closed_form_one_param, ("theta_deg",)
    raise ValueError("family must be the TwoParam or OneParam class")


def _search_grid(extremal, n_params: int) -> tuple[np.ndarray, np.ndarray]:
    """The search axis in degrees and ``extremal`` over its open n-D grid.

    Only the rows whose first parameter is <= 0 are evaluated; every
    other row is the point reflection of one of them, since the closed
    forms are even under negating all family parameters, bit for bit
    (see ``find_optimum``).
    """
    steps = int(round(180.0 / SEARCH_GRID_STEP_DEG)) + 1
    axis_deg = np.linspace(-90.0, 90.0, steps)
    axis = np.radians(axis_deg)
    # open axes: each per-axis cosine is taken on the axis, not on the grid
    low = extremal(*np.meshgrid(axis[:steps // 2 + 1], *[axis] * (n_params - 1),
                                indexing="ij", sparse=True))
    return axis_deg, np.concatenate((low, np.flip(low[:-1])))


def find_optimum(family, objective: str = "max") -> Optimum:
    """Search a measurement family for the extremal eigenvalue.

    ``family`` is the TwoParam or OneParam class. A 0.5-degree grid over
    [-90, 90] degrees per parameter locates the extremum; golden-section
    coordinate descent then refines it to ~1e-8 rad. Grid points tying
    the extremum (symmetry partners) are all reported; the canonical one
    minimizes the sum of absolute parameters, ties broken
    lexicographically.

    The grid is evaluated only where the first parameter is <= 0, and
    the other half is filled by reflecting it through the origin. That
    is exact, not approximate: the axis holds multiples of 0.5 degrees,
    so radians(-x) == -radians(x); cosine is even; exp(-ix) is the exact
    conjugate of exp(ix), and IEEE rounding is symmetric in sign, so
    conjugate inputs give the conjugate of 4uv - (u+v-1)^2 and the same
    modulus. Every lambda at -p is the float at p, bit for bit.
    """
    if objective not in ("max", "min"):
        raise ValueError(f"objective must be 'max' or 'min', got {objective!r}")
    closed_form, lead = _family(family)
    pick = np.maximum if objective == "max" else np.minimum
    sign = -1.0 if objective == "max" else 1.0

    def extremal(*params):
        cf = closed_form(*params)
        return pick(pick(cf.lambda1, cf.lambda2), pick(cf.lambda3, cf.lambda4))

    axis_deg, values = _search_grid(extremal, len(lead))
    best = pick.reduce(values, axis=None)
    tie = np.argwhere(np.abs(values - best) <= 1e-9)
    candidates_deg = tuple(tuple(float(axis_deg[k]) for k in idx) for idx in tie)
    canonical = min(candidates_deg, key=lambda c: (sum(abs(x) for x in c), c))

    params = [math.radians(x) for x in canonical]
    half = math.radians(SEARCH_GRID_STEP_DEG)
    for _ in range(SEARCH_REFINE_ROUNDS):
        for k in range(len(lead)):
            def along(x, k=k):
                probe = list(params)
                probe[k] = x
                return sign * float(extremal(*probe))
            params[k] = _golden_section_min(along, params[k] - half, params[k] + half,
                                            SEARCH_REFINE_TOL_RAD)

    point = family(*params)
    settings = point.settings()
    beta = float(extremal(*params))
    spec = numeric_spectrum(settings)
    vec = spec.eigenvectors[:, 0 if objective == "max" else -1]
    return Optimum(settings=settings, beta=beta, state_label=bell_content_label(vec),
                   parametrization=point, grid_candidates_deg=candidates_deg)


@dataclass(frozen=True)
class SweepDataset:
    """A tabulated sweep, column-major: ``data[k]`` is the numpy array of
    column ``columns[k]``, with one entry per grid point in row order."""

    columns: tuple[str, ...]
    data: tuple[np.ndarray, ...]

    def column(self, name: str) -> np.ndarray:
        return self.data[self.columns.index(name)]

    @property
    def rows(self) -> list[tuple]:
        """Row tuples of plain Python values, built from the columns on each access."""
        return list(zip(*(c.tolist() for c in self.data)))


def _family_axis(grid_resolution: int, n_params: int) -> np.ndarray:
    """The per-parameter axis in degrees, once the grid is known to fit the cap."""
    grid_resolution = int(grid_resolution)
    if grid_resolution < 2:
        raise ValueError(f"grid resolution must be >= 2, got {grid_resolution}")
    if grid_resolution ** n_params > MAX_GRID_POINTS:
        raise ValueError(f"grid resolution {grid_resolution} gives {grid_resolution ** n_params} "
                         f"grid points, above the cap of {MAX_GRID_POINTS}")
    return np.linspace(-90.0, 90.0, grid_resolution)


def sweep_surface(family, grid_resolution: int, state: QuantumState | None = None,
                  include_numeric: bool = False) -> SweepDataset:
    """Tabulate eigenvalue bounds or a state's score over a family grid.

    With ``state=None`` the columns are the closed-form eigenvalues
    (plus, for the one-parameter family, their fixed Bell labels); with
    a state they are its beta. ``include_numeric`` appends the numeric
    eigenvalues in descending order for cross-validation. Angles in the
    dataset are degrees. The whole grid is evaluated at once: one
    closed-form call, one correlator contraction or one batched
    eigensolve, never a call per point. A grid of fewer than 2 points
    per axis or more than MAX_GRID_POINTS points in all raises
    ValueError.
    """
    closed_form, lead = _family(family)
    axis_deg = _family_axis(grid_resolution, len(lead))
    params_deg = [m.ravel() for m in np.meshgrid(*[axis_deg] * len(lead), indexing="ij")]
    params = [np.radians(p) for p in params_deg]
    angles = family.angles(*params)

    if state is not None:
        columns = lead + ("beta",)
        return SweepDataset(columns=columns, data=(*params_deg, beta_grid(state, angles)))

    columns = lead + ("lambda1", "lambda2", "lambda3", "lambda4")
    cf = closed_form(*params)
    values = params_deg + [cf.lambda1, cf.lambda2, cf.lambda3, cf.lambda4]
    if family is OneParam:
        columns += ("state1", "state2", "state3", "state4")
        values += [np.full(len(angles), s.value) for s in ONE_PARAM_EIGENVECTORS]
    if include_numeric:
        columns += ("lambda1_numeric", "lambda2_numeric",
                    "lambda3_numeric", "lambda4_numeric")
        values += list(linalg._eigh_descending(game_operators(angles)).eigenvalues.T)
    return SweepDataset(columns=columns, data=tuple(values))
