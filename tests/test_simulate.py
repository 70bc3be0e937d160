"""Monte Carlo game play, synthetic counts and noise fitting."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorient import (
    OPTIMAL_SETTINGS,
    BellState,
    CountTable,
    OneParam,
    SettingTriple,
    TrialRecord,
    bell_state_density,
    beta_from_counts,
    beta_value,
    expected_counts,
    fit_noise,
    fit_noise_max_point,
    maximally_mixed,
    noisy_phi_plus,
    run_game,
    sample_trial,
    superpose,
    synth_counts,
)
from qorient.simulate import (
    _CHUNK,
    GameEstimate,
    _distribution_table,
    _outcome_cdf,
    _path_pairs,
    _uniform_thresholds,
)

PHI_PLUS = bell_state_density(BellState.PHI_PLUS)
MIXED = maximally_mixed()

STREAM_STATES = {
    "psi-": bell_state_density(BellState.PSI_MINUS),
    "noisy:0.9": noisy_phi_plus(0.9),
    "superpose:psi+,phi-,0.6": superpose(BellState.PSI_PLUS, BellState.PHI_MINUS, 0.6, 0.8),
}
STREAM_SETTINGS = SettingTriple(0.3, -1.1, 2.0)


def one_shot_rounds(state, settings, n, rng):
    """Reference play: every path a, then every path b, then every uniform, in one batch each."""
    cdf = np.cumsum(_distribution_table(state, settings).reshape(9, 4), axis=1)
    cdf /= cdf[:, -1:]
    paths_a = rng.integers(0, 3, size=n)
    paths_b = rng.integers(0, 3, size=n)
    u = rng.random(n)
    k = (u[:, None] >= cdf[paths_a * 3 + paths_b]).sum(axis=1)
    sign_a = 1 - 2 * (k >> 1)
    sign_b = 1 - 2 * (k & 1)
    success = np.where(paths_a == paths_b, sign_a == sign_b, sign_a != sign_b)
    return paths_a, paths_b, sign_a, sign_b, success


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_before(word: int) -> np.random.PCG64:
    """A PCG64 whose next raw word is ``word``, with no half word pending.

    PCG64 steps its 128-bit state s to s * multiplier + inc (mod 2**128)
    and outputs XSL-RR of the new state: (high ^ low) rotated right by
    the top 6 bits of high. Pick high, solve for low, then step back.
    """
    bitgen = np.random.PCG64(11)
    state = bitgen.state
    inc = state["state"]["inc"]
    high = 0x9E3779B97F4A7C15
    rot = high >> 58
    low = high ^ (((word << rot) | (word >> (64 - rot))) & (2**64 - 1))
    after = (high << 64) | low
    state["state"]["state"] = (after - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    state["has_uint32"], state["uinteger"] = 0, 0
    bitgen.state = state
    return bitgen


class TestTrialRecord:
    def test_validates_success_flag(self):
        with pytest.raises(ValueError, match="success"):
            TrialRecord(path_a=1, path_b=1, outcome_a=1, outcome_b=1, success=False)
        with pytest.raises(ValueError, match="paths"):
            TrialRecord(path_a=0, path_b=1, outcome_a=1, outcome_b=1, success=True)

    def test_same_path_needs_same_outcome(self):
        r = TrialRecord(path_a=2, path_b=2, outcome_a=-1, outcome_b=-1, success=True)
        assert r.success


class TestSampleTrial:
    def test_phi_plus_equal_paths_always_succeed(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            r = sample_trial(PHI_PLUS, OPTIMAL_SETTINGS, rng)
            if r.path_a == r.path_b:
                assert r.outcome_a == r.outcome_b and r.success

    def test_deterministic_given_seed(self):
        a = [sample_trial(PHI_PLUS, OPTIMAL_SETTINGS, np.random.default_rng(42))
             for _ in range(1)]
        b = [sample_trial(PHI_PLUS, OPTIMAL_SETTINGS, np.random.default_rng(42))
             for _ in range(1)]
        assert a == b

    def test_paths_cover_all_pairs(self):
        rng = np.random.default_rng(1)
        seen = {(sample_trial(MIXED, OPTIMAL_SETTINGS, rng).path_a,
                 sample_trial(MIXED, OPTIMAL_SETTINGS, rng).path_b)
                for _ in range(200)}
        assert seen == {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}

    @pytest.mark.parametrize("name", list(STREAM_STATES))
    def test_records_match_one_shot_reference(self, name):
        state = STREAM_STATES[name]
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            a, b, sa, sb, won = (int(x[0]) for x in
                                 one_shot_rounds(state, STREAM_SETTINGS, 1, ref_rng))
            assert sample_trial(state, STREAM_SETTINGS, rng) == TrialRecord(
                path_a=a + 1, path_b=b + 1, outcome_a=sa, outcome_b=sb, success=bool(won))

    def test_long_run_success_rate_mixed(self):
        rng = np.random.default_rng(2)
        wins = sum(sample_trial(MIXED, OPTIMAL_SETTINGS, rng).success for _ in range(4000))
        assert abs(wins / 4000 - 0.5) < 0.04


class TestRunGame:
    def test_phi_plus_at_optimum(self):
        est = run_game(PHI_PLUS, OPTIMAL_SETTINGS, 10**5, 0)
        assert abs(est.success_rate - 5 / 6) <= 4 * est.stderr

    def test_mixed_state(self):
        est = run_game(MIXED, OPTIMAL_SETTINGS, 10**5, 0)
        assert abs(est.success_rate - 0.5) <= 4 * est.stderr

    def test_noisy_state_tracks_noise_line(self):
        est = run_game(noisy_phi_plus(0.98), OPTIMAL_SETTINGS, 10**5, 3)
        assert abs(est.success_rate - (4.5 + 3 * 0.98) / 9) <= 4 * est.stderr

    def test_deterministic(self):
        a = run_game(PHI_PLUS, OPTIMAL_SETTINGS, 10**4, 7)
        b = run_game(PHI_PLUS, OPTIMAL_SETTINGS, 10**4, 7)
        assert a == b

    def test_estimator_consistency_over_seeds(self):
        # success rate within 4 sigma of beta/9 in >= 99% of seeded runs
        expected = beta_value(PHI_PLUS, OPTIMAL_SETTINGS).success_probability
        hits = 0
        for seed in range(100):
            est = run_game(PHI_PLUS, OPTIMAL_SETTINGS, 10**5, seed)
            hits += abs(est.success_rate - expected) <= 4 * est.stderr
        assert hits >= 99

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError):
            run_game(PHI_PLUS, OPTIMAL_SETTINGS, 0, 0)

    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    @pytest.mark.parametrize("name", list(STREAM_STATES))
    def test_chunks_match_one_shot_reference(self, name, n):
        state = STREAM_STATES[name]
        for seed in (0, 7, 123):
            success = one_shot_rounds(state, STREAM_SETTINGS, n, np.random.default_rng(seed))[-1]
            rate = float(success.mean())
            want = GameEstimate(success_rate=rate, stderr=float(np.sqrt(rate * (1 - rate) / n)),
                                n_trials=n, seed=seed)
            assert run_game(state, STREAM_SETTINGS, n, seed) == want

    @settings(deadline=None)
    @given(st.sampled_from(list(STREAM_STATES)), st.integers(1, 3 * _CHUNK + 7),
           st.integers(0, 2**63))
    def test_any_size_matches_one_shot_reference(self, name, n, seed):
        state = STREAM_STATES[name]
        a, b, _, _, success = one_shot_rounds(state, STREAM_SETTINGS, n,
                                              np.random.default_rng(seed))
        assert np.array_equal(_path_pairs(np.random.PCG64(seed), n), 3 * a + b)
        rate = float(success.mean())
        want = GameEstimate(success_rate=rate, stderr=float(np.sqrt(rate * (1 - rate) / n)),
                            n_trials=n, seed=seed)
        assert run_game(state, STREAM_SETTINGS, n, seed) == want

    # a refused half (h = 0) in either place, a refused word, and halves
    # on each side of both path thresholds
    @pytest.mark.parametrize("word", [0xDEADBEEF00000000, 0x00000000DEADBEEF, 0,
                                      1431655766 << 32 | 1431655765,
                                      2863311531 << 32 | 2863311530])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_crafted_words_match_numpy(self, word, n):
        assert pcg64_before(word).random_raw() == word
        bitgen, rng = pcg64_before(word), np.random.Generator(pcg64_before(word))
        a, b = rng.integers(0, 3, size=n), rng.integers(0, 3, size=n)
        assert np.array_equal(_path_pairs(bitgen, n), 3 * a + b)
        # the uniforms start at the next whole word, as Generator.random's do
        assert np.array_equal((bitgen.random_raw(n) >> 11) * 2.0**-53, rng.random(n))

    @pytest.mark.parametrize("c", [0.0, 1.0, float(
        _outcome_cdf(STREAM_STATES["noisy:0.9"], STREAM_SETTINGS)[5, 0])])
    def test_uniform_thresholds_at_exact_ties(self, c):
        t = int(_uniform_thresholds(np.array([c]))[0])
        assert c in (0.0, 1.0) or t != c * 2.0**53  # the cdf entry is no multiple of 2**-53
        m = np.array([t, t - 1] if t else [t], dtype=np.uint64)
        assert np.array_equal(m >= np.uint64(t), m * 2.0**-53 >= c)

    def test_calls_no_generator_method(self, monkeypatch):
        # Generator is an immutable type, so a subclass whose draws raise
        # stands in for it wherever the np.random namespace hands one out
        class NoDraws(np.random.Generator):
            def integers(self, *args, **kwargs):
                raise AssertionError("Generator.integers called")

            def random(self, *args, **kwargs):
                raise AssertionError("Generator.random called")

        want = run_game(PHI_PLUS, OPTIMAL_SETTINGS, 1000, 5)
        monkeypatch.setattr(np.random, "Generator", NoDraws)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: NoDraws(np.random.PCG64(seed)))
        with pytest.raises(AssertionError, match="integers"):
            np.random.default_rng(5).integers(0, 3)
        assert run_game(PHI_PLUS, OPTIMAL_SETTINGS, 1000, 5) == want

    def test_peak_memory_is_about_a_byte_per_round(self):
        # a one-batch draw peaks near 61 MiB here
        tracemalloc.start()
        try:
            run_game(PHI_PLUS, OPTIMAL_SETTINGS, 1_000_003, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_numpy_integers_accepted(self):
        assert (run_game(PHI_PLUS, OPTIMAL_SETTINGS, np.int64(500), np.uint32(3))
                == run_game(PHI_PLUS, OPTIMAL_SETTINGS, 500, 3))

    @pytest.mark.parametrize("n", [2.7, True, float("nan"), 100.0, "100", -5])
    def test_rejects_inexact_trial_counts(self, n):
        message = f"n_trials must be an integer >= 1, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_game(PHI_PLUS, OPTIMAL_SETTINGS, n, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, False, None])
    def test_rejects_bad_seed(self, seed):
        message = f"seed must be an integer >= 0, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_game(PHI_PLUS, OPTIMAL_SETTINGS, 100, seed)


class TestSynthCounts:
    def test_totals_per_pair(self):
        table = synth_counts(MIXED, OPTIMAL_SETTINGS, 1000, 0)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert table.total(i, j) == 1000

    def test_phi_plus_equal_settings_never_disagree(self):
        table = synth_counts(PHI_PLUS, OPTIMAL_SETTINGS, 5000, 1)
        for i in range(3):
            assert table.counts[i, i, 1] == 0  # N_pm
            assert table.counts[i, i, 2] == 0  # N_mp

    def test_mixed_state_cells_near_uniform(self):
        n = 10**6
        table = synth_counts(MIXED, OPTIMAL_SETTINGS, n, 2)
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.abs(table.counts - n / 4).max() <= 3 * sigma

    def test_deterministic(self):
        a = synth_counts(PHI_PLUS, OPTIMAL_SETTINGS, 1000, 9)
        b = synth_counts(PHI_PLUS, OPTIMAL_SETTINGS, 1000, 9)
        assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("n", [100.9, True, float("nan"), 0])
    def test_rejects_inexact_pair_totals(self, n):
        message = f"n_tot_per_pair must be an integer >= 1, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            synth_counts(PHI_PLUS, OPTIMAL_SETTINGS, n, 0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
            synth_counts(PHI_PLUS, OPTIMAL_SETTINGS, 100, -1)

    def test_expected_counts_take_a_float_total(self):
        assert expected_counts(MIXED, OPTIMAL_SETTINGS, 100.5).total(1, 2) == pytest.approx(100.5)
        table = expected_counts(MIXED, OPTIMAL_SETTINGS, np.float64(1000.0))
        assert table.total(2, 3) == pytest.approx(1000.0)

    @pytest.mark.parametrize("n", [float("nan"), float("inf"), float("-inf"),
                                   True, np.True_, 0, -1])
    def test_expected_counts_reject_bad_totals(self, n):
        message = f"n_tot_per_pair must be a finite number > 0, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            expected_counts(MIXED, OPTIMAL_SETTINGS, n)

    def test_count_table_validation(self):
        with pytest.raises(ValueError, match="shape"):
            CountTable(settings=OPTIMAL_SETTINGS, counts=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="non-negative"):
            CountTable(settings=OPTIMAL_SETTINGS, counts=-np.ones((3, 3, 4)))


class TestBetaFromCounts:
    def test_exact_expected_counts_reproduce_beta(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = noisy_phi_plus(rng.uniform())
            settings = SettingTriple(*rng.uniform(-np.pi, np.pi, size=3))
            table = expected_counts(state, settings, 54321)
            assert abs(beta_from_counts(table).beta
                       - beta_value(state, settings).beta) < 1e-12

    def test_uniform_counts_give_baseline(self):
        table = CountTable(settings=OPTIMAL_SETTINGS, counts=np.full((3, 3, 4), 250))
        b = beta_from_counts(table)
        assert abs(b.beta - 4.5) < 1e-12

    def test_sampled_counts_close_to_beta(self):
        table = synth_counts(PHI_PLUS, OPTIMAL_SETTINGS, 10**6, 4)
        assert abs(beta_from_counts(table).beta - 7.5) < 0.01

    def test_empty_pair_rejected(self):
        counts = np.full((3, 3, 4), 10.0)
        counts[1, 2] = 0.0
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            beta_from_counts(CountTable(settings=OPTIMAL_SETTINGS, counts=counts))

    def test_first_empty_pair_in_row_major_order_named(self):
        counts = np.full((3, 3, 4), 10.0)
        counts[0, 1] = counts[1, 1] = 0.0
        with pytest.raises(ValueError, match=r"setting pair \(1, 2\)$"):
            beta_from_counts(CountTable(settings=OPTIMAL_SETTINGS, counts=counts))


class TestFitNoise:
    def test_max_point_perfect_source(self):
        assert fit_noise_max_point(7.5).p_hat == pytest.approx(1.0, abs=1e-12)

    def test_max_point_headline_inversion(self):
        fit = fit_noise_max_point(7.41)
        assert abs(fit.p_hat - 0.97) < 1e-12
        assert fit.method == "max-point"

    def test_max_point_clamps(self):
        assert fit_noise_max_point(8.0).p_hat == 1.0
        assert fit_noise_max_point(0.0).p_hat == 0.0
        assert fit_noise_max_point(8.0).residual > 0

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9, 0.98, 1.0])
    def test_noiseless_curve_fit_round_trip(self, p):
        state = noisy_phi_plus(p)
        points = [OneParam(t) for t in np.radians(np.linspace(-90, 90, 13))]
        observed = [(x, beta_value(state, x.settings()).beta) for x in points]
        fit = fit_noise(observed, method="curve-fit")
        assert abs(fit.p_hat - p) < 1e-9
        assert fit.residual < 1e-9

    def test_sampled_round_trip_small(self):
        # compact version; the 100-seed sweep runs in the acceptance suite
        state = noisy_phi_plus(0.98)
        good = 0
        for seed in range(10):
            observed = []
            for k, t in enumerate(np.radians(np.linspace(-90, 90, 13))):
                fam = OneParam(float(t))
                table = synth_counts(state, fam.settings(), 10**5, seed * 1000 + k)
                observed.append((fam, beta_from_counts(table).beta))
            fit = fit_noise(observed)
            good += abs(fit.p_hat - 0.98) <= 0.01
        assert good >= 9

    def test_max_point_method_via_fit_noise(self):
        observed = [(OneParam(np.radians(60)), 7.41)]
        fit = fit_noise(observed, method="max-point")
        assert abs(fit.p_hat - 0.97) < 1e-12

    @pytest.mark.parametrize("method", ["curve-fit", "max-point"])
    def test_non_finite_observations_rejected(self, method):
        observed = [(OneParam(0.1), 7.0), (OneParam(0.2), float("nan"))]
        with pytest.raises(ValueError, match="finite"):
            fit_noise(observed, method=method)
        with pytest.raises(ValueError, match="finite"):
            fit_noise_max_point(float("inf"))

    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fit_noise([])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            fit_noise([(OneParam(0.1), 5.0)], method="banana")

    def test_unconstraining_observations_rejected(self):
        # settings chosen so the pure score equals the mixed baseline 4.5:
        # cross-path terms sum to 1.5 when sin^2(delta/2) = 3/8 twice
        theta = 2 * np.arcsin(np.sqrt(0.375))
        settings = SettingTriple(0.0, theta, theta)
        state = noisy_phi_plus(0.5)
        observed = [(settings, beta_value(state, settings).beta)]
        with pytest.raises(ValueError, match="constrain"):
            fit_noise(observed)
