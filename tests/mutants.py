"""Mutation checks: a standing list of mutants that the suite must kill.

Run as ``python tests/mutants.py``, or name mutants to run only those.
pytest does not collect this file, since its name has no ``test_``
prefix.

Each mutant is one text replacement in one file of ``src/qorient``. For
each, the script copies ``src/`` to a temporary directory, replaces the
old text (which must occur exactly once, so a stale mutant is an error,
never silently dropped), and runs the mutant's tests against the copy
with a fixed hypothesis seed and the ``mutants`` profile of
``tests/conftest.py``, which skips shrinking. The mutant is killed when
at least one of those tests fails. The script exits nonzero unless every
mutant is killed.

Removing or weakening a mutant loosens the suite. A change that rewrites
a mutated line updates its mutant in the same change, and a new property
test comes with the mutant it was written to kill.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/qorient
    old: str
    new: str
    tests: tuple[str, ...]  # files under tests/, optionally with ::node ids
    breaks: str


MUTANTS = (
    Mutant("real-game-operator", "scoring.py",
           "    return g.astype(complex)\n", "    return g\n",
           ("test_properties.py::test_operator_bits_match_complex_table",),
           "eigh of a real G runs another LAPACK routine: eigenvalue bits change"),
    Mutant("defect-greater-than-tol", "linalg.py",
           "    if not defect <= HERMITICITY_TOL:\n", "    if defect > HERMITICITY_TOL:\n",
           ("test_linalg.py", "test_states.py"),
           "a nan or inf defect compares false, so a non-finite matrix passes"),
    Mutant("no-errstate", "linalg.py",
           '    with np.errstate(invalid="ignore"):', "    if True:",
           ("test_linalg.py", "test_states.py"),
           "an inf entry raises a RuntimeWarning on its way to the refusal"),
    Mutant("dropped-finite-test", "linalg.py",
           "        if not np.isfinite(m).all():\n", "        if False:\n",
           ("test_linalg.py", "test_states.py"),
           "a nan or inf matrix is refused as non-Hermitian, not as non-finite"),
    Mutant("dropped-state-shape-check", "states.py",
           "        if rho.shape != (4, 4):\n", "        if False:\n",
           ("test_states.py",),
           "a 2x2 matrix or a stack is taken for a two-qubit state"),
    Mutant("norm-greater-than-tol", "states.py",
           "    if not abs(norm - 1.0) <= AMPLITUDE_NORM_TOL:\n",
           "    if abs(norm - 1.0) > AMPLITUDE_NORM_TOL:\n",
           ("test_states.py",),
           "a nan vector passes the unit-norm check"),
    Mutant("unconverted-setting-storage", "states.py",
           "                object.__setattr__(self, name, angle)\n", "                pass\n",
           ("test_states.py",),
           "a SettingTriple keeps a str, an int or a numpy scalar instead of a float"),
    Mutant("swapped-outcome-signs", "scoring.py",
           "_SIGN_A * local_a + _SIGN_B * local_b", "_SIGN_B * local_a + _SIGN_A * local_b",
           ("test_properties.py::test_outcome_distribution_is_born_rule",),
           "Alice's local term takes Bob's outcome sign and the other way round"),
    Mutant("scalar-finite-check-passes", "spectra.py",
           "    if not (finite.all() if finite.ndim else finite):\n",
           "    if not (finite.all() if finite.ndim else True):\n",
           ("test_spectra.py",),
           "a nan or inf scalar family parameter reaches the closed form"),
    Mutant("full-search-grid", "spectra.py",
           "    low = extremal(*np.meshgrid(axis[:steps // 2 + 1], *[axis] * (n_params - 1),\n"
           '                                indexing="ij", sparse=True))\n'
           "    return axis_deg, np.concatenate((low, np.flip(low[:-1])))\n",
           '    return axis_deg, extremal(*np.meshgrid(*[axis] * n_params, indexing="ij",\n'
           "                                           sparse=True))\n",
           ("test_spectra.py",),
           "find_optimum evaluates its whole grid instead of reflecting half of it"),
    Mutant("flip-first-axis-only", "spectra.py",
           "np.flip(low[:-1])", "np.flip(low[:-1], axis=0)",
           ("test_spectra.py",),
           "the reflected rows are mirrored in the first parameter only"),
    Mutant("csv-without-quoting", "cli.py",
           "    return buffer.getvalue()[:-2]\n", "    return text\n",
           ("test_cli.py",),
           "a cell holding a comma or a quote is written unquoted"),
    Mutant("no-lone-empty-cell-rule", "cli.py",
           "        lines = [line or '\"\"' for line in lines]\n", "        pass\n",
           ("test_cli.py",),
           "a one-column row holding an empty cell is written as a blank line"),
    Mutant("string-cells-unquoted", "cli.py",
           "        if isinstance(v, (float, int)):  # a bool is an int\n", "        if True:\n",
           ("test_cli.py",),
           "a string cell skips quoting"),
    Mutant("every-array-numeric", "cli.py",
           '    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":\n',
           "    if isinstance(values, np.ndarray):\n",
           ("test_cli.py",),
           "a numpy string column skips quoting"),
    Mutant("last-partial-chunk-dropped", "simulate.py",
           "range(0, n_trials, _CHUNK):", "range(0, n_trials - n_trials % _CHUNK, _CHUNK):",
           ("test_simulate.py::TestRunGame",),
           "run_game plays only whole chunks and divides by the full count"),
    Mutant("equal-paths-mod-3", "simulate.py",
           "((chunk & 3) == 0)", "((chunk % 3) == 0)",
           ("test_simulate.py::TestRunGame",),
           "pair indices 3 and 6 count as equal paths, and 4 and 8 do not"),
    Mutant("interleaved-path-draws", "simulate.py",
           "        n_a = min(max(n - done, 0), paths.size)\n"
           "        np.multiply(paths[:n_a], 3, out=pair[done:done + n_a])\n"
           "        if n_a < paths.size:\n"
           "            pair[done + n_a - n:done + paths.size - n] += paths[n_a:]\n",
           "        pair[done // 2:(done + paths.size) // 2] = 3 * paths[0::2] + paths[1::2]\n",
           ("test_simulate.py::TestRunGame",),
           "each word gives one round's path a and path b, so the stream differs "
           "from numpy's order of every path a, then every path b"),
    Mutant("low-third-bound-off-by-one", "simulate.py",
           "(halves > 1431655765)", "(halves > 1431655766)",
           ("test_simulate.py::TestRunGame",),
           "the half 1431655766 gives path 0 where Lemire's method gives path 1"),
    Mutant("halves-high-first", "simulate.py",
           'words.astype("<u8", copy=False).view("<u4")',
           'words.astype(">u8", copy=False).view(">u4")',
           ("test_simulate.py::TestRunGame",),
           "each word's high half is read before its low half"),
    Mutant("zero-half-kept", "simulate.py",
           "        if np.count_nonzero(halves) < halves.size:\n"
           "            halves = halves[halves != 0]\n", "",
           ("test_simulate.py::TestRunGame",),
           "a zero half, which Lemire's method refuses, is played as path 0"),
    Mutant("floor-thresholds", "simulate.py",
           "np.ceil(c * 2.0**53)", "np.floor(c * 2.0**53)",
           ("test_simulate.py::TestRunGame",),
           "a uniform one step of 2**-53 below a cdf entry counts as reaching it"),
    Mutant("boundary-piece-all-a", "simulate.py",
           "        n_a = min(max(n - done, 0), paths.size)\n",
           "        n_a = paths.size if done < n else 0\n",
           ("test_simulate.py::TestRunGame",),
           "the piece holding the last paths a and the first paths b is read as paths a"),
    Mutant("truncated-trial-count", "simulate.py",
           '    n_trials = _exact_count("n_trials", n_trials, 1)\n',
           "    n_trials = int(n_trials)\n",
           ("test_simulate.py::TestRunGame",),
           "2.7 trials play 2 rounds, and True plays 1"),
    Mutant("swapped-trial-paths", "simulate.py",
           "    path_a, path_b = (int(p) for p in rng.integers(0, 3, size=2))\n",
           "    path_b, path_a = (int(p) for p in rng.integers(0, 3, size=2))\n",
           ("test_simulate.py::TestSampleTrial",),
           "sample_trial gives Alice the second path draw"),
    Mutant("third-compare-reads-second-column", "simulate.py",
           "cdf[:, 2].take(pair)", "cdf[:, 1].take(pair)",
           ("test_properties.py::test_outcomes_match_full_compare",),
           "a draw between the second and third cdf entries gives -- instead of -+"),
    Mutant("first-compare-strict", "simulate.py",
           "(u >= cdf[:, 0].take(pair))", "(u > cdf[:, 0].take(pair))",
           ("test_properties.py::test_outcomes_match_full_compare",),
           "a draw equal to the first cdf entry stays in outcome ++"),
    Mutant("third-compare-dropped", "simulate.py",
           "    k += (u >= cdf[:, 2].take(pair)).view(np.uint8)\n", "",
           ("test_properties.py::test_outcomes_match_full_compare",),
           "outcome -- is never drawn"),
    Mutant("game-matrix-diagonal-one", "scoring.py",
           "GAME_MATRIX = 2 * np.eye(3, dtype=np.int64) - 1\n",
           "GAME_MATRIX = np.eye(3, dtype=np.int64) - 1\n",
           ("test_properties.py::test_beta_is_game_matrix_form", "test_classical.py"),
           "same-path terms get weight 0 instead of +1, in every quantum, counted "
           "and classical score"),
    Mutant("count-branches-swapped", "simulate.py",
           "np.where(GAME_MATRIX > 0, c[..., 0] + c[..., 3], c[..., 1] + c[..., 2])",
           "np.where(GAME_MATRIX > 0, c[..., 1] + c[..., 2], c[..., 0] + c[..., 3])",
           ("test_simulate.py::TestBetaFromCounts",),
           "counts credit opposite directions on equal paths and equal ones on "
           "different paths"),
    Mutant("opp-wins-transposed", "scoring.py",
           "        p_opp = tuple(wins[GAME_MATRIX < 0].tolist())\n",
           "        p_opp = tuple(wins.T[GAME_MATRIX < 0].tolist())\n",
           ("test_properties.py::test_breakdown_follows_opp_pairs",),
           "p_opp[k] holds the win probability of the reversed pair of OPP_PAIRS[k]"),
    Mutant("sample-size-minimum-refused", "cli.py",
           "    if value < MIN_STATISTICAL_SAMPLES:\n",
           "    if value <= MIN_STATISTICAL_SAMPLES:\n",
           ("test_cli.py::TestErrorPaths",),
           "--trials 100 and --n-per-pair 100, the documented minimum, are refused"),
    Mutant("sample-size-cap-refused", "cli.py",
           "    if value > cap:\n", "    if value >= cap:\n",
           ("test_cli.py::TestErrorPaths",),
           "--trials and --n-per-pair at their caps are refused"),
    Mutant("summary-stream-swapped", "cli.py",
           "    stream = sys.stderr if args.output is None else sys.stdout\n",
           "    stream = sys.stdout if args.output is None else sys.stderr\n",
           ("test_cli.py::TestBetaSurface::test_stdout_when_no_output",),
           "without --output the summary lines run into the dataset on stdout"),
    Mutant("empty-option-value-kept", "cli.py",
           "        if value == []:", "        if False:",
           ("test_cli.py::test_every_argv_ends_in_a_dataset_or_one_error_line",),
           "--grid=-- reaches the handler as [] and ends in a TypeError traceback"),
)


def check(mutant: Mutant, workdir: Path) -> tuple[str, float]:
    """Apply ``mutant`` to a copy of src/ in ``workdir`` and run its tests.

    Returns ``("killed" | "survived" | "error: ...", seconds)``.
    """
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = src / "qorient" / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"error: old text occurs {count} times in {mutant.path}", 0.0
    target.write_text(text.replace(mutant.old, mutant.new))
    # pytest puts its ini pythonpath (the unmutated src/) ahead of
    # PYTHONPATH, so point it at the copy as well
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", "--hypothesis-profile=mutants", "-o", f"pythonpath={src}",
           *(str(ROOT / "tests" / t) for t in mutant.tests)]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode == 1:
        return "killed", seconds
    if proc.returncode == 0:
        return "survived", seconds
    return f"error: pytest exit {proc.returncode}: {proc.stdout.strip()[-300:]}", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation checks.")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    failed = 0
    for m in chosen:
        with tempfile.TemporaryDirectory(prefix="qorient-mutant-") as tmp:
            verdict, seconds = check(m, Path(tmp))
        failed += verdict != "killed"
        print(f"{verdict:8s} {seconds:5.1f}s  {m.name} ({m.path}): {m.breaks}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
