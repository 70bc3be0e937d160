"""Property tests of the correlator core over random settings and mixed states.

Outcome distributions of pure states, Bell states included, are checked
against the Born rule with polarizer kets built here, whose outer
products are the spin projectors (the half-angle convention). The game
operator is checked against its definition, the sum of 18
Kronecker products of spin projectors built here with ``np.kron``, and
bit for bit against its first complex-table construction, eigenvalues
included;
the score is ``4.5 + <M, E> / 2`` with ``M = 2I - J`` and correlators
built here, and its per-term breakdown follows ``OPP_PAIRS``;
every score, distribution and sweep row is checked against that
operator or against the single-point functions; the two-parameter
closed form is checked against that operator's spectrum right next to
its degenerate points, and its modulus form against the paper's
seven-cosine radicand; both closed forms are even in their parameters,
bit for bit. The sampler's three-compare outcome index is checked
against the four-entry count, tie draws included. Random mixtures of
the 64 deterministic strategies check the classical bound.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qorient import (
    CLASSICAL_BOUND,
    OPP_PAIRS,
    BellState,
    OneParam,
    QuantumState,
    SettingTriple,
    TwoParam,
    bell_state_density,
    beta_from_counts,
    beta_value,
    closed_form_one_param,
    closed_form_two_param,
    enumerate_all,
    expected_counts,
    game_operator,
    game_operators,
    noisy_phi_plus,
    numeric_spectrum,
    outcome_distribution,
    pure_state,
    sweep_surface,
)
from qorient.simulate import _distribution_table, _outcome_cdf, _outcomes

TOL = 1e-12
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

CLASSICAL_SCORES = np.array([score for _, score in enumerate_all()], dtype=float)

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
triples = st.builds(SettingTriple, angles, angles, angles)


@st.composite
def mixed_states(draw):
    """rho = A A^dagger / tr for a random complex 4x4 A."""
    parts = draw(arrays(np.float64, (2, 4, 4), elements=st.floats(-1, 1)))
    a = parts[0] + 1j * parts[1]
    rho = a @ a.conj().T
    norm = np.trace(rho).real
    assume(norm > 1e-3)
    rho = rho / norm
    return QuantumState((rho + rho.conj().T) / 2)


@st.composite
def pure_vectors(draw):
    """A random unit complex 4-vector."""
    parts = draw(arrays(np.float64, (2, 4), elements=st.floats(-1, 1)))
    v = parts[0] + 1j * parts[1]
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    return v / norm


def projector(sign, theta):
    """Spin projector (I + sign n(theta).sigma) / 2 in the x-z plane."""
    return (np.eye(2) + sign * (np.sin(theta) * SIGMA_X + np.cos(theta) * SIGMA_Z)) / 2


def polarizer_ket(sign, two_theta):
    """A polarizer's output at setting angle 2t: cos t|H> + sin t|V> for +,
    the orthogonal sin t|H> - cos t|V> for -."""
    t = two_theta / 2
    return np.array([np.cos(t), np.sin(t)] if sign > 0 else [np.sin(t), -np.cos(t)])


@settings(deadline=None)
@given(angles)
def test_polarizer_kets_give_spin_projectors(theta):
    for sign in (+1, -1):
        ket = polarizer_ket(sign, theta)
        assert np.abs(np.outer(ket, ket.conj()) - projector(sign, theta)).max() <= TOL


@settings(deadline=None)
@given(pure_vectors(), triples)
def test_outcome_distribution_is_born_rule(vector, triple):
    """outcome_distribution over every path pair equals |<k_a (x) k_b|v>|^2,
    in outcome order (++, +-, -+, --), for a random pure state and the
    four Bell states."""
    t = np.array(triple.as_tuple())
    # product kets[i, j, k]: Alice at t[i], Bob at t[j], outcome pair k
    kets = np.array([[[np.kron(polarizer_ket(sa, ta), polarizer_ket(sb, tb))
                       for sa in (+1, -1) for sb in (+1, -1)] for tb in t] for ta in t])
    for v in (vector, *(b.vector for b in BellState)):
        got = outcome_distribution(pure_state(v), t[:, None], t[None, :])
        assert np.abs(got - np.abs(kets.conj() @ v) ** 2).max() <= TOL


def reference_operator(triple: SettingTriple) -> np.ndarray:
    """The 18-term definition: equal signs on equal paths, unequal signs on
    the 6 ordered unequal path pairs."""
    t = triple.as_tuple()
    op = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        for s in (+1, -1):
            op += np.kron(projector(s, t[i]), projector(s, t[i]))
    for i, j in OPP_PAIRS:
        for s in (+1, -1):
            op += np.kron(projector(s, t[i]), projector(-s, t[j]))
    return op


@settings(deadline=None)
@given(triples)
def test_operator_matches_kron_definition(triple):
    assert np.abs(game_operator(triple) - reference_operator(triple)).max() <= TOL


def complex_table_operators(angles) -> np.ndarray:
    """The game operators as ``game_operators`` first built them: K contracted
    with a complex (4, 16) table of sigma_k (x) sigma_l, then
    ``4.5 I + pairs / 2`` in complex arithmetic."""
    angles = np.asarray(angles, dtype=float)
    n = np.stack([np.sin(angles), np.cos(angles)], axis=-1)
    total = n.sum(axis=-2)
    k = 2.0 * (np.swapaxes(n, -1, -2) @ n) - total[..., :, None] * total[..., None, :]
    table = np.array([np.kron(p, q) for p in (SIGMA_X, SIGMA_Z)
                      for q in (SIGMA_X, SIGMA_Z)]).reshape(4, 16)
    pairs = k.reshape(k.shape[:-2] + (4,)) @ table
    return 4.5 * np.eye(4, dtype=complex) + pairs.reshape(pairs.shape[:-1] + (4, 4)) / 2.0


@settings(deadline=None)
@given(st.lists(st.tuples(angles, angles, angles), min_size=1, max_size=40))
def test_operator_bits_match_complex_table(stack):
    got = game_operators(np.array(stack))
    assert got.dtype == complex and np.array_equal(got.imag, np.zeros_like(got.imag))
    assert np.array_equal(got, complex_table_operators(np.array(stack)))
    for triple in stack:
        point = SettingTriple(*triple)
        want = complex_table_operators(triple)
        assert np.array_equal(game_operator(point), want)
        assert np.array_equal(numeric_spectrum(point).eigenvalues,
                              np.linalg.eigh(want)[0][::-1])


@settings(deadline=None)
@given(triples)
def test_operator_trace_is_18(triple):
    assert abs(np.trace(game_operator(triple)) - 18.0) <= TOL


@settings(deadline=None)
@given(mixed_states(), triples)
def test_beta_is_expectation_and_within_spectrum(state, triple):
    op = game_operator(triple)
    beta = beta_value(state, triple).beta
    assert abs(beta - np.trace(state.rho @ op).real) <= TOL
    spectrum = np.linalg.eigvalsh(op)
    assert spectrum[0] - TOL <= beta <= spectrum[-1] + TOL


@settings(deadline=None)
@given(mixed_states(), triples)
def test_distribution_rows_are_probabilities(state, triple):
    table = _distribution_table(state, triple)
    assert table.shape == (3, 3, 4)
    assert np.all(table >= 0.0)
    assert np.abs(table.sum(axis=2) - 1.0).max() <= TOL


# the game matrix M = 2I - J, built here
GAME = 2 * np.eye(3) - np.ones((3, 3))


def xz_observable(theta):
    return np.sin(theta) * SIGMA_X + np.cos(theta) * SIGMA_Z


@settings(deadline=None)
@given(mixed_states(), triples)
def test_beta_is_game_matrix_form(state, triple):
    """beta = 4.5 + <M, E> / 2 with E_ij = tr(rho A_i (x) A_j)."""
    t = triple.as_tuple()
    e = np.array([[np.trace(state.rho @ np.kron(xz_observable(a), xz_observable(b))).real
                   for b in t] for a in t])
    assert abs(4.5 + np.sum(GAME * e) / 2 - beta_value(state, triple).beta) <= TOL


@settings(deadline=None)
@given(mixed_states(), triples)
def test_breakdown_follows_opp_pairs(state, triple):
    """p_same[i] is the win probability of path pair (i, i) and p_opp[k] that
    of OPP_PAIRS[k], read off outcome_distribution, for beta_value and for
    the counts reconstruction."""
    t = triple.as_tuple()
    dist = outcome_distribution(state, np.array(t)[:, None], np.array(t)[None, :])
    same = [dist[i, i, 0] + dist[i, i, 3] for i in range(3)]
    opp = [dist[i, j, 1] + dist[i, j, 2] for i, j in OPP_PAIRS]
    for b in (beta_value(state, triple), beta_from_counts(expected_counts(state, triple, 1.0))):
        assert np.abs(np.array(b.p_same) - same).max() <= TOL
        assert np.abs(np.array(b.p_opp) - opp).max() <= TOL


@settings(deadline=None)
@given(mixed_states(), triples, st.floats(1.0, 1e6))
def test_expected_counts_reproduce_beta(state, triple, n_per_pair):
    recon = beta_from_counts(expected_counts(state, triple, n_per_pair))
    assert abs(recon.beta - beta_value(state, triple).beta) <= TOL


@st.composite
def game_states(draw):
    """A Bell state, a random pure state, noisy phi+ or a random mixture."""
    kind = draw(st.sampled_from(("bell", "pure", "noisy", "mixed")))
    if kind == "bell":
        return bell_state_density(draw(st.sampled_from(BellState)))
    if kind == "pure":
        return pure_state(draw(pure_vectors()))
    if kind == "noisy":
        return noisy_phi_plus(draw(st.floats(0, 1)))
    return draw(mixed_states())


@st.composite
def tied_triples(draw):
    """Setting triples whose angles often coincide, so that some outcome
    probabilities vanish and cdf rows hold equal entries."""
    first = draw(angles)
    rest = (draw(st.one_of(st.just(first), angles)) for _ in range(2))
    return SettingTriple(first, *rest)


# one round: pair index, a uniform draw, and a cdf column whose entry
# replaces the uniform when the flag is set
rounds = st.tuples(st.integers(0, 8), st.floats(0, 1, exclude_max=True),
                   st.integers(0, 2), st.booleans())


@settings(deadline=None)
@given(game_states(), tied_triples(), st.lists(rounds, min_size=1, max_size=50))
def test_outcomes_match_full_compare(state, triple, draws):
    """The three-compare outcome index equals the count of all four cdf
    entries that u reaches, for uniform draws and for draws that hit a
    cdf entry exactly; the last cdf entry is exactly 1.0."""
    cdf = _outcome_cdf(state, triple)
    assert np.all(cdf[:, -1] == 1.0)
    pair = np.array([p for p, *_ in draws], dtype=np.uint8)
    u = np.array([cdf[p, col] if tie else x for p, x, col, tie in draws])
    u = np.where(u < 1.0, u, 0.5)  # a cdf entry may be 1.0; draws lie in [0, 1)
    want = (u[:, None] >= cdf[pair]).sum(axis=1)
    assert np.array_equal(_outcomes(cdf, pair, u).astype(int), want)


# the only points of [-90, 90]^2 degrees where lambda3 == lambda4
DEGENERATE_POINTS = ((np.pi / 3, -np.pi / 3), (-np.pi / 3, np.pi / 3))


@settings(deadline=None)
@given(st.sampled_from(DEGENERATE_POINTS), st.floats(-10, -3), st.floats(0, 2 * np.pi))
def test_two_param_closed_form_exact_near_degeneracy(centre, log10_distance, direction):
    distance = 10.0 ** log10_distance
    phi = centre[0] + distance * np.cos(direction)
    theta = centre[1] + distance * np.sin(direction)
    closed = np.sort(closed_form_two_param(phi, theta).as_array())
    reference = np.linalg.eigvalsh(reference_operator(TwoParam(phi, theta).settings()))
    assert np.abs(closed - reference).max() <= TOL


@settings(deadline=None)
@given(angles, angles)
def test_modulus_equals_seven_cosine_radicand(p, t):
    u, v = np.exp(2j * p), np.exp(2j * t)
    radicand = (15 + 2 * np.cos(4 * t) - 4 * np.cos(2 * (t - 2 * p)) - 4 * np.cos(2 * (2 * t - p))
                + 2 * np.cos(4 * (t - p)) + 2 * np.cos(4 * p) - 4 * np.cos(2 * (t + p)))
    assert abs(abs(4 * u * v - (u + v - 1) ** 2) ** 2 - radicand) <= TOL


# find_optimum's 0.5-degree search points, in radians, and random finite angles
reflected_angles = (st.integers(-180, 180).map(lambda k: np.radians(0.5 * k))
                    | st.floats(-1e6, 1e6))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(reflected_angles, reflected_angles), min_size=1, max_size=20))
def test_closed_forms_even_bit_for_bit(points):
    """Negating every family parameter gives the same lambdas, as int64 bits,
    at a point and over an array: find_optimum reflects half its grid on this."""
    p, t = np.array(points).T

    def bits(cf):
        return cf.as_array().view(np.int64)

    assert np.array_equal(bits(closed_form_two_param(-p, -t)), bits(closed_form_two_param(p, t)))
    assert np.array_equal(bits(closed_form_one_param(-t)), bits(closed_form_one_param(t)))
    assert np.array_equal(bits(closed_form_two_param(-float(p[0]), -float(t[0]))),
                          bits(closed_form_two_param(float(p[0]), float(t[0]))))
    assert np.array_equal(bits(closed_form_one_param(-float(t[0]))),
                          bits(closed_form_one_param(float(t[0]))))


@settings(deadline=None, max_examples=25)
@given(mixed_states(), st.integers(2, 7))
def test_sweep_rows_match_single_point_calls(state, grid):
    for family, closed_form in ((TwoParam, closed_form_two_param),
                                (OneParam, closed_form_one_param)):
        n_lead = 2 if family is TwoParam else 1
        for row in sweep_surface(family, grid, state=state).rows:
            point = family(*np.radians(row[:n_lead]))
            assert abs(row[-1] - beta_value(state, point).beta) <= TOL
        for row in sweep_surface(family, grid, include_numeric=True).rows:
            params = np.radians(row[:n_lead])
            assert row[n_lead:n_lead + 4] == pytest.approx(
                closed_form(*params).as_array(), abs=TOL)
            if family is TwoParam:
                assert row[-4:] == pytest.approx(
                    numeric_spectrum(family(*params)).eigenvalues, abs=TOL)


@settings(deadline=None)
@given(arrays(np.float64, 64, elements=st.floats(0, 1)), st.booleans())
def test_classical_mixture_score_at_most_seven(weights, maximizers_only):
    is_max = CLASSICAL_SCORES == CLASSICAL_BOUND
    if maximizers_only:
        weights = np.where(is_max, weights, 0.0)
    assume(weights.sum() > 1e-6)
    w = weights / weights.sum()
    score = w @ CLASSICAL_SCORES
    # other strategies score integers below 7: weight off the maximizers costs >= 1 per unit
    assert score <= CLASSICAL_BOUND - w[~is_max].sum() + TOL
    if maximizers_only:
        assert abs(score - CLASSICAL_BOUND) <= TOL
