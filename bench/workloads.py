"""The benchmark's three workloads: seeded job cycles and their checks.

A workload is a sequence of cycles. Cycle ``k`` of seed ``s`` is built
from its own generator, ``default_rng([s, k, workload id])``, so the
same seed gives the same jobs however many cycles a run reaches. Every
cycle holds the same job types in nearly the same sizes, so a run of
whole cycles has a fixed mix and its throughput and latency percentiles
do not depend on which cycles it reached. The seed chooses states,
settings, RNG seeds and a small size jitter. CLI cycles run their few
large jobs in a fixed order, so that what runs before a job, which can
change its cost, is the same for every seed; pointwise cycles shuffle
their thousand-odd calls.

A job's ``call`` is the only timed part. CLI jobs call
``qorient.cli.main`` in-process and write their dataset to a file of
their own within the cycle; pointwise jobs call one library function
(two for the counts round trip). Each ``check`` compares the output
with the numpy reference in :mod:`oracle` and raises ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
import qorient
import qorient.cli
from oracle import close, close_summary, expect


@dataclass
class Outcome:
    """What one job produced: return value, captured stdout, dataset bytes."""

    value: object = None
    text: str = ""
    data: bytes = b""
    error: str | None = None
    # known program defects seen in the output, one entry per instance;
    # reported beside the result rather than counted as failed jobs
    defects: list[str] = field(default_factory=list)


@dataclass
class Job:
    kind: str
    items: int  # grid points, API calls, or trials plus coincidences
    call: Callable[[], object]
    check: Callable[[Outcome], None]
    output: Path | None = None  # dataset file a CLI job writes


def cycle_rng(seed: int, workload: str, k: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, k, zlib.crc32(workload.encode())])


def _state_spec(rng) -> str:
    kind = rng.integers(3)
    labels = list(oracle.BELL_ORDER)
    if kind == 0:
        return str(rng.choice(labels))
    if kind == 1:
        return f"noisy:{rng.uniform(0.5, 1.0):.4f}"
    a, b = rng.choice(labels, size=2, replace=False)
    return f"superpose:{a},{b},{rng.uniform(-1.0, 1.0):.4f}"


def _settings_deg(rng) -> list[float]:
    if rng.random() < 0.5:
        return [0.0, 120.0, -120.0]
    return [round(float(x), 2) for x in rng.uniform(-180.0, 180.0, size=3)]


# ---------------------------------------------------------------- CLI jobs

def _cli_job(kind: str, items: int, argv: list[str], output: Path, check) -> Job:
    argv = argv + ["-o", str(output)]
    return Job(kind=kind, items=items, call=lambda: qorient.cli.main(argv),
               check=check, output=output)


def read_table(outcome: Outcome, fmt: str, command: str) -> tuple[list[str], dict]:
    """Columns and column-major values of a CSV or JSON dataset."""
    expect(outcome.value == 0, f"exit code {outcome.value}: {outcome.error or ''}".strip())
    if fmt == "json":
        payload = json.loads(outcome.data)
        expect(payload["metadata"]["command"] == command, "JSON metadata names another command")
        columns = payload["columns"]
        return columns, {c: payload["data"][c] for c in columns}
    text = outcome.data.decode("utf-8")
    expect(text.endswith("\n"), "CSV does not end with a newline")
    columns, *cells = csv.reader(text[:-1].split("\n"))
    for k, row in enumerate(cells):
        if len(row) == len(columns):
            continue
        # Known defect: simulate writes its state spec unquoted, so a
        # superpose:A,B,AMP spec spreads over three cells. Such a row is
        # counted as a ragged CSV row and read back, so that its values
        # are still checked; any other ragged row fails the job.
        expect(columns[0] == "state" and len(row) == len(columns) + 2
               and row[0].startswith("superpose:"), f"CSV row {k + 1} has {len(row)} cells "
               f"under {len(columns)} columns")
        outcome.defects.append("ragged_csv_rows")
        cells[k] = [",".join(row[:3])] + row[3:]
    return columns, {c: [row[k] for row in cells] for k, c in enumerate(columns)}


def _floats(table, *names) -> np.ndarray:
    return np.stack([np.asarray(table[n], dtype=float) for n in names], axis=-1)


def _summary(text: str, pattern: str) -> list[float]:
    match = re.search(pattern, text)
    expect(match is not None, f"summary lacks {pattern!r}")
    return [float(g) for g in match.groups()]


def _sample(rng_seed, n_rows: int, limit: int = 256) -> np.ndarray:
    if n_rows <= limit:
        return np.arange(n_rows)
    return np.sort(np.random.default_rng(rng_seed).choice(n_rows, size=limit, replace=False))


def _check_axes(table, lead: tuple[str, ...], grid: int) -> None:
    axis = np.linspace(-90.0, 90.0, grid)
    got = _floats(table, *lead)
    want = (np.stack([np.repeat(axis, grid), np.tile(axis, grid)], axis=-1)
            if len(lead) == 2 else axis[:, None])
    close(got, want, "grid angles")


def _figure_check(command: str, family: str, grid: int, spec: str | None, fmt: str,
                  sample_seed: int):
    lead = ("phi_deg", "theta_deg") if family == "two" else ("theta_deg",)
    n_rows = grid * grid if family == "two" else grid
    lam_cols = ("lambda1", "lambda2", "lambda3", "lambda4")

    def check(outcome: Outcome) -> None:
        columns, table = read_table(outcome, fmt, command)
        expect(len(table[columns[0]]) == n_rows, f"{len(table[columns[0]])} rows, want {n_rows}")
        _check_axes(table, lead, grid)
        params = np.radians(_floats(table, *lead))
        rows = _sample(sample_seed, n_rows)
        angles = oracle.family_angles(family, *params[rows].T)
        if spec is None:
            lam = _floats(table, *lam_cols)
            close(lam.sum(axis=1), np.full(n_rows, oracle.OPERATOR_TRACE), "operator trace")
            oracle.check_spectrum(lam[rows], angles, "closed-form eigenvalues")
            if family == "one":
                labels = [tuple(table[f"state{k}"][r] for k in range(1, 5)) for r in range(n_rows)]
                expect(set(labels) == {oracle.ONE_PARAM_LABELS}, "one-parameter Bell labels")
                oracle.check_bell_eigenpairs(lam[rows], oracle.ONE_PARAM_LABELS, angles,
                                             "one-parameter eigenpair")
            else:
                numeric = _floats(table, *(c + "_numeric" for c in lam_cols))
                close(numeric, -np.sort(-lam, axis=1), "numeric vs closed-form eigenvalues")
            low, top = _summary(outcome.text, r"range over grid: \[(\S+), (\S+)\]")
            close_summary(low, lam.min(), "eigenvalue minimum")
            close_summary(top, lam.max(), "eigenvalue maximum")
            return
        beta = np.asarray(table["beta"], dtype=float)
        close(beta[rows], oracle.score(oracle.state(spec), angles), "beta")
        expect(np.all(beta >= oracle.SPECTRUM_MIN - oracle.TOL)
               and np.all(beta <= oracle.SPECTRUM_MAX + oracle.TOL), "beta outside [1.5, 7.5]")
        if family == "two":
            (top,) = _summary(outcome.text, r"beta max over grid = (\S+) ")
            (low,) = _summary(outcome.text, r"beta min over grid = (\S+);")
            close_summary(low, beta.min(), "beta minimum")
        else:
            (top,) = _summary(outcome.text, r"beta max over sweep = (\S+) ")
        close_summary(top, beta.max(), "beta maximum")

    return check


# (command, family, grid per axis). One-parameter grids get a seeded
# jitter of up to 2 points; two-parameter grids stay fixed, since their
# n^2 cost would carry any jitter into the latency percentiles.
FIGURE_JOBS = (
    ("eigs", "one", 31), ("eigs", "one", 91),
    ("sweep-1d", "one", 21), ("sweep-1d", "one", 91),
    ("beta-surface", "two", 25), ("eigs", "two", 21),
    ("beta-surface", "two", 49), ("eigs", "two", 41),
    ("beta-surface", "two", 81),
)


def figures_cycle(seed: int, k: int, workdir: Path) -> list[Job]:
    rng = cycle_rng(seed, "figures", k)
    jobs = []
    for t, (command, family, base) in enumerate(FIGURE_JOBS):
        grid = base if family == "two" else base + int(rng.integers(-2, 3))
        fmt = "json" if t % 2 else "csv"
        argv = [command, "--grid", str(grid), "--format", fmt]
        spec = None
        if command == "eigs":
            if family == "one":
                argv.append("--one-param")
        else:
            spec = _state_spec(rng)
            argv += ["--state", spec]
        check = _figure_check(command, family, grid, spec, fmt, int(rng.integers(2**31)))
        items = grid * grid if family == "two" else grid
        kind = f"{command}{'-1p' if command == 'eigs' and family == 'one' else ''}"
        jobs.append(_cli_job(kind, items, argv, workdir / f"out{t}.{fmt}", check))
    return jobs


# ----------------------------------------------------------- sampling jobs

def _simulate_check(spec, settings, trials, seed, fmt):
    def check(outcome: Outcome) -> None:
        columns, table = read_table(outcome, fmt, "simulate")
        expect(len(table["state"]) == 1 and table["state"][0] == spec, "state column")
        expect(int(table["trials"][0]) == trials and int(table["seed"][0]) == seed,
               "trials/seed columns")
        close(_floats(table, "t1_deg", "t2_deg", "t3_deg")[0], settings, "settings columns")
        p = float(oracle.score(oracle.state(spec), np.radians(settings))) / 9.0
        rate, stderr, expected = _floats(table, "success_rate", "stderr", "expected_success")[0]
        close(expected, p, "Born-rule success probability")
        close(stderr, math.sqrt(rate * (1.0 - rate) / trials), "binomial standard error")
        sigma = math.sqrt(p * (1.0 - p) / trials)
        expect(abs(rate - p) <= 5.0 * sigma,
               f"success rate {rate} is {abs(rate - p) / sigma:.1f} standard errors from {p}")
        (printed, _) = _summary(outcome.text, r"success rate = (\S+) \+- (\S+)")
        expect(abs(printed - rate) <= 5e-7, "summary success rate")

    return check


def _counts_check(spec, settings, n_per_pair, fmt):
    def check(outcome: Outcome) -> None:
        columns, table = read_table(outcome, fmt, "counts")
        expect(len(table["i"]) == 9, "counts needs 9 setting pairs")
        cells = _floats(table, "n_pp", "n_pm", "n_mp", "n_mm").reshape(3, 3, 4)
        expect(np.all(_floats(table, "n_tot") == n_per_pair), "n_tot column")
        pairs = _floats(table, "i", "j").astype(int).reshape(3, 3, 2)
        expect(np.array_equal(pairs, np.indices((3, 3)).transpose(1, 2, 0) + 1), "pair order")
        close(_floats(table, "theta_i_deg", "theta_j_deg").reshape(3, 3, 2),
              np.stack(np.meshgrid(settings, settings, indexing="ij"), axis=-1), "pair angles")
        beta_hat = oracle.check_counts(cells, n_per_pair, oracle.state(spec),
                                       np.radians(settings), "counts")
        (printed,) = _summary(outcome.text, r"beta reconstructed from counts = (\S+) ")
        expect(abs(printed - beta_hat) <= 5e-7, "summary beta from counts")

    return check


def _fit_check(method, p_true, fmt):
    def check(outcome: Outcome) -> None:
        columns, table = read_table(outcome, fmt, "fit")
        expect(list(table["method"]) == [method], f"fit methods {table['method']}")
        p_hat, residual = _floats(table, "p_hat", "residual")[0]
        close(p_hat, p_true, f"{method} noise parameter")
        expect(abs(residual) <= oracle.TOL, f"{method} residual {residual}")

    return check


# (command, base size); sizes shrink by a seeded 0-3%. A job's format
# is set by its position, so every cycle writes the same datasets as
# CSV and the same as JSON.
SAMPLING_JOBS = (
    ("simulate", 100_000), ("simulate", 250_000), ("simulate", 500_000),
    ("simulate", 1_000_000), ("simulate", 2_000_000),
    ("counts", 10_000), ("counts", 100_000), ("counts", 1_000_000),
    ("fit-max", 0), ("fit-max", 0), ("fit-input", 0),
)
SWEEP_GRID = 361


def sampling_sweep(seed: int, workdir: Path) -> tuple[Path, float]:
    """The sweep-1d CSV that ``fit --input`` reads, and its generating p."""
    rng = cycle_rng(seed, "sampling-setup", 0)
    return workdir / "sweep.csv", round(float(rng.uniform(0.5, 0.99)), 4)


def prepare_sampling(seed: int, workdir: Path) -> None:
    path, p = sampling_sweep(seed, workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        code = qorient.cli.main(["sweep-1d", "--state", f"noisy:{p}",
                                 "--grid", str(SWEEP_GRID), "-o", str(path)])
    if code != 0:
        raise RuntimeError(f"sweep-1d set-up failed with exit code {code}")


def sampling_cycle(seed: int, k: int, workdir: Path) -> list[Job]:
    rng = cycle_rng(seed, "sampling", k)
    sweep, sweep_p = sampling_sweep(seed, workdir)
    jobs = []
    for t, (command, base) in enumerate(SAMPLING_JOBS):
        fmt = "json" if t % 2 else "csv"
        size = int(base * rng.uniform(0.97, 1.0))
        out = workdir / f"out{t}.{fmt}"
        if command in ("simulate", "counts"):
            spec, settings, run_seed = _state_spec(rng), _settings_deg(rng), int(rng.integers(2**31))
            size_flag = "--trials" if command == "simulate" else "--n-per-pair"
            argv = [command, "--state", spec, "--settings", *map(str, settings),
                    size_flag, str(size), "--seed", str(run_seed), "--format", fmt]
            if command == "simulate":
                jobs.append(_cli_job(command, size, argv, out,
                                     _simulate_check(spec, settings, size, run_seed, fmt)))
            else:
                jobs.append(_cli_job(command, 9 * size, argv, out,
                                     _counts_check(spec, settings, size, fmt)))
        elif command == "fit-max":
            p = float(rng.uniform(0.5, 1.0))
            argv = ["fit", "--beta-max", repr(4.5 + 3.0 * p), "--format", fmt]
            jobs.append(_cli_job(command, 0, argv, out, _fit_check("max-point", p, fmt)))
        else:
            argv = ["fit", "--input", str(sweep), "--format", fmt]
            jobs.append(_cli_job(command, 0, argv, out, _fit_check("curve-fit", sweep_p, fmt)))
    return jobs


# ---------------------------------------------------------- pointwise jobs

def _two_param_point(rng):
    phi, theta = (float(x) for x in rng.uniform(-math.pi / 2, math.pi / 2, size=2))
    return qorient.TwoParam(phi, theta), oracle.family_angles("two", phi, theta)


def _random_point(rng):
    """A seeded measurement point as (qorient parametrization, angles in radians)."""
    kind = rng.integers(3)
    if kind == 0:
        deg = rng.uniform(-180.0, 180.0, size=3)
        return qorient.SettingTriple.from_degrees(*deg), np.radians(deg)
    if kind == 1:
        return _two_param_point(rng)
    theta = rng.uniform(-math.pi / 2, math.pi / 2)
    return qorient.OneParam(theta), oracle.family_angles("one", theta)


def _state_input(rng):
    """A seeded state as (qorient QuantumState, reference density matrix)."""
    spec = _state_spec(rng)
    return qorient.cli.parse_state(spec), oracle.state(spec)


def _eigenvector(rng):
    _, angles = _random_point(rng)
    return np.linalg.eigh(oracle.operator(angles))[1][:, int(rng.integers(4))]


def _beta_value_job(rng) -> Job:
    (state, rho), (point, angles) = _state_input(rng), _random_point(rng)

    def check(outcome: Outcome) -> None:
        got = outcome.value
        same, opp = oracle.terms(rho, angles)
        close(got.p_same, same, "p_same")
        close(got.p_opp, opp, "p_opp")
        close(got.beta, oracle.score(rho, angles), "beta")
        close(got.success_probability, got.beta / 9.0, "success probability")

    return Job("beta_value", 1, lambda: qorient.beta_value(state, point), check)


def _game_operator_job(rng) -> Job:
    point, angles = _random_point(rng)

    def check(outcome: Outcome) -> None:
        close(outcome.value, oracle.operator(angles), "game operator")
        close(np.trace(outcome.value), oracle.OPERATOR_TRACE, "operator trace")

    return Job("game_operator", 1, lambda: qorient.game_operator(point), check)


def _numeric_spectrum_job(rng) -> Job:
    point, angles = _two_param_point(rng)

    def check(outcome: Outcome) -> None:
        vals, vecs = outcome.value.eigenvalues, outcome.value.eigenvectors
        close(vals, np.linalg.eigvalsh(oracle.operator(angles))[::-1], "numeric spectrum")
        close(oracle.operator(angles) @ vecs, vecs * vals, "eigenvector residual")
        close(np.linalg.norm(vecs, axis=0), np.ones(4), "eigenvector norms")

    return Job("numeric_spectrum", 1, lambda: qorient.numeric_spectrum(point), check)


def _closed_form_two_job(rng) -> Job:
    phi, theta = (float(x) for x in rng.uniform(-math.pi / 2, math.pi / 2, size=2))
    angles = oracle.family_angles("two", phi, theta)

    def check(outcome: Outcome) -> None:
        oracle.check_spectrum(outcome.value.as_array(), angles, "two-parameter closed form")

    return Job("closed_form_two_param", 1, lambda: qorient.closed_form_two_param(phi, theta),
               check)


def _closed_form_one_job(rng) -> Job:
    theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
    angles = oracle.family_angles("one", theta)

    def check(outcome: Outcome) -> None:
        lam = outcome.value.as_array()
        oracle.check_spectrum(lam, angles, "one-parameter closed form")
        oracle.check_bell_eigenpairs(lam, oracle.ONE_PARAM_LABELS, angles,
                                     "one-parameter closed form")

    return Job("closed_form_one_param", 1, lambda: qorient.closed_form_one_param(theta), check)


def _bell_decompose_job(rng) -> Job:
    vector = _eigenvector(rng)

    def check(outcome: Outcome) -> None:
        want = [np.vdot(oracle.BELL[b], vector) for b in oracle.BELL_ORDER]
        close(outcome.value.amplitudes, want, "Bell amplitudes")
        expect(outcome.value.residual <= oracle.TOL, "Bell residual")

    return Job("bell_decompose", 1, lambda: qorient.bell_decompose(vector), check)


def _bell_content_job(rng) -> Job:
    vector = _eigenvector(rng)

    def check(outcome: Outcome) -> None:
        want = oracle.bell_label(vector)
        expect(outcome.value == want, f"Bell content {outcome.value!r}, want {want!r}")

    return Job("bell_content_label", 1, lambda: qorient.bell_content_label(vector, tol=1e-6),
               check)


def _state_job(kind: str, call, want) -> Job:
    def check(outcome: Outcome) -> None:
        close(outcome.value.rho, want, f"{kind} density matrix")

    return Job(kind, 1, call, check)


def _noisy_job(rng) -> Job:
    p = float(rng.uniform(0.0, 1.0))
    return _state_job("noisy_phi_plus", lambda: qorient.noisy_phi_plus(p), oracle.noisy(p))


def _bell_state_job(rng) -> Job:
    label = str(rng.choice(oracle.BELL_ORDER))
    bell = qorient.BellState.from_label(label)
    return _state_job("bell_state_density", lambda: qorient.bell_state_density(bell),
                      oracle.pure(oracle.BELL[label]))


def _mixed_job(rng) -> Job:
    return _state_job("maximally_mixed", qorient.maximally_mixed, np.eye(4) / 4.0)


def _parse_state_job(rng) -> Job:
    spec = _state_spec(rng)
    return _state_job("parse_state", lambda: qorient.cli.parse_state(spec), oracle.state(spec))


def _superpose_job(rng) -> Job:
    a, b = rng.choice(list(oracle.BELL_ORDER), size=2, replace=False)
    angle = float(rng.uniform(0.0, 2 * math.pi))
    amp_a, amp_b = math.cos(angle), math.sin(angle)
    bell_a, bell_b = qorient.BellState.from_label(str(a)), qorient.BellState.from_label(str(b))
    return _state_job("superpose", lambda: qorient.superpose(bell_a, bell_b, amp_a, amp_b),
                      oracle.pure(amp_a * oracle.BELL[a] + amp_b * oracle.BELL[b]))


def _counts_round_trip_job(rng) -> Job:
    (state, rho), (point, angles) = _state_input(rng), _random_point(rng)
    n_per_pair = float(rng.integers(1_000, 1_000_000))

    def call():
        table = qorient.expected_counts(state, point, n_per_pair)
        return table, qorient.beta_from_counts(table)

    def check(outcome: Outcome) -> None:
        table, breakdown = outcome.value
        want = np.array([[[oracle.born(rho, sa, angles[i], sb, angles[j])
                           for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
                          for j in range(3)] for i in range(3)])
        close(table.counts / n_per_pair, want, "expected counts per coincidence")
        close(breakdown.beta, oracle.score(rho, angles), "beta from expected counts")

    return Job("expected_counts+beta_from_counts", 2, call, check)


def _synth_counts_job(rng) -> Job:
    (state, rho), (point, angles) = _state_input(rng), _random_point(rng)
    n_per_pair, seed = 100_000, int(rng.integers(2**31))

    def call():
        table = qorient.synth_counts(state, point, n_per_pair, seed=seed)
        return table, qorient.beta_from_counts(table)

    def check(outcome: Outcome) -> None:
        table, breakdown = outcome.value
        beta_hat = oracle.check_counts(table.counts, n_per_pair, rho, angles, "synthetic counts")
        close(breakdown.beta, beta_hat, "beta from synthetic counts")

    return Job("synth_counts+beta_from_counts", 2, call, check)


def _sample_trial_job(rng) -> Job:
    (state, rho), (point, angles) = _state_input(rng), _random_point(rng)
    seed = int(rng.integers(2**31))

    def check(outcome: Outcome) -> None:
        r = outcome.value
        expect(r.path_a in (1, 2, 3) and r.path_b in (1, 2, 3), "trial paths")
        prob = oracle.born(rho, r.outcome_a, angles[r.path_a - 1],
                           r.outcome_b, angles[r.path_b - 1])
        expect(prob > 1e-12, f"trial outcome has Born probability {prob:.3e}")
        want = (r.outcome_a == r.outcome_b) if r.path_a == r.path_b else r.outcome_a != r.outcome_b
        expect(r.success == want, "trial success flag")

    return Job("sample_trial", 1,
               lambda: qorient.sample_trial(state, point, np.random.default_rng(seed)), check)


def _fit_max_point_job(rng) -> Job:
    p = float(rng.uniform(0.5, 1.0))

    def check(outcome: Outcome) -> None:
        close(outcome.value.p_hat, p, "max-point noise parameter")
        expect(outcome.value.residual <= oracle.TOL, "max-point residual")

    return Job("fit_noise_max_point", 1, lambda: qorient.fit_noise_max_point(4.5 + 3.0 * p),
               check)


def _fit_curve_job(rng) -> Job:
    """A curve fit to exact scores of a noisy source on 13 one-parameter points."""
    p = float(rng.uniform(0.5, 1.0))
    thetas = np.radians(np.linspace(-90.0, 90.0, 13))
    betas = oracle.score(oracle.noisy(p), oracle.family_angles("one", thetas))
    observed = [(qorient.OneParam(float(t)), float(b)) for t, b in zip(thetas, betas)]

    def check(outcome: Outcome) -> None:
        close(outcome.value.p_hat, p, "curve-fit noise parameter")
        expect(outcome.value.residual <= oracle.TOL, "curve-fit residual")

    return Job("fit_noise", 1, lambda: qorient.fit_noise(observed, method="curve-fit"), check)


def _classical_job(name: str) -> Job:
    scores = oracle.classical_scores()
    best, worst = max(scores.values()), min(scores.values())

    def check(outcome: Outcome) -> None:
        got = outcome.value
        if name == "enumerate_all":
            expect([((s.alice, s.bob), v) for s, v in got] == list(scores.items()),
                   "scores of the 64 deterministic strategies")
        elif name == "classical_success_bound":
            close(got, oracle.CLASSICAL_MAX / 9.0, "classical success bound")
        else:
            want = best if name == "classical_maximum" else worst
            expect(got[0] == want, f"{name} {got[0]}, want {want}")
            optimal = {k for k, v in scores.items() if v == want}
            expect({(s.alice, s.bob) for s in got[1]} == optimal, f"{name} strategies")
        expect(best == oracle.CLASSICAL_MAX, f"reference classical maximum {best}")

    return Job(name, 1, getattr(qorient, name), check)


def _optimum_job(family_name: str, objective: str) -> Job:
    family = qorient.TwoParam if family_name == "two" else qorient.OneParam

    def check(outcome: Outcome) -> None:
        got = outcome.value
        want = oracle.SPECTRUM_MAX if objective == "max" else oracle.SPECTRUM_MIN
        close(got.beta, want, f"{objective} over the {family_name}-parameter family")
        vals, vecs = np.linalg.eigh(oracle.operator(np.array(got.settings.as_tuple())))
        k = -1 if objective == "max" else 0
        close(got.beta, vals[k], "optimum vs reference spectrum")
        expect(got.state_label == oracle.bell_label(vecs[:, k]),
               f"optimum state {got.state_label}")

    return Job(f"find_optimum-{family_name}-{objective}", 1,
               lambda: qorient.find_optimum(family, objective), check)


# (builder, jobs per cycle): the single-point library calls that demos
# 01-05 make directly, counted by tracing one run of each demo with the
# spans of spans.py (calls made with no span open). Their grid sweeps
# and run_game calls belong to the figures and sampling workloads.
# game_operator, bell_decompose, superpose and expected_counts, which
# the demos reach only through other functions, run once per cycle so
# that their entry points are timed and checked as well.
POINTWISE_JOBS = (
    (_closed_form_two_job, 501), (_numeric_spectrum_job, 501),
    (_closed_form_one_job, 4), (_bell_content_job, 4),
    (_beta_value_job, 16), (_bell_state_job, 11), (_noisy_job, 9), (_mixed_job, 1),
    (_parse_state_job, 1), (_synth_counts_job, 14), (_sample_trial_job, 10),
    (_fit_max_point_job, 2), (_fit_curve_job, 1),
    (_game_operator_job, 1), (_bell_decompose_job, 1), (_superpose_job, 1),
    (_counts_round_trip_job, 1),
)
# demos/01 searches both families for both extremes; demos/02 calls each
# classical function once
OPTIMA = (("two", "max"), ("two", "min"), ("one", "max"), ("one", "min"))
CLASSICAL_CALLS = ("enumerate_all", "classical_maximum", "classical_minimum",
                   "classical_success_bound")


def pointwise_cycle(seed: int, k: int, workdir: Path) -> list[Job]:
    rng = cycle_rng(seed, "pointwise", k)
    jobs = [build(rng) for build, count in POINTWISE_JOBS for _ in range(count)]
    jobs += [_optimum_job(*optimum) for optimum in OPTIMA]
    jobs += [_classical_job(name) for name in CLASSICAL_CALLS]
    return [jobs[i] for i in rng.permutation(len(jobs))]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[int, int, Path], list[Job]]
    item: str  # what items_per_s counts
    trace_cycles: int  # fixed work of a traced run, so its counts repeat exactly
    prepare: Callable[[int, Path], None] = lambda seed, workdir: None


WORKLOADS = {
    "figures": Workload("figures", figures_cycle, "grid points", trace_cycles=1),
    "pointwise": Workload("pointwise", pointwise_cycle, "API calls", trace_cycles=3),
    "sampling": Workload("sampling", sampling_cycle, "trials + coincidences", trace_cycles=2,
                         prepare=prepare_sampling),
}
