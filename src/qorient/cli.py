"""Command-line front end emitting figure datasets and headline summaries.

Each subcommand is a handler that only computes: it returns the columns
and column-major data of its dataset, the dataset's metadata and its
summary lines. ``main`` is the one place that parses the arguments,
calls the handler, writes the dataset and prints the summary. Datasets
are CSV (header row, floats at 12 significant digits, angles in degrees)
or JSON (the same columns as arrays plus a metadata block). Output goes
to --output when given, otherwise to stdout with the summary moved to
stderr. Identical configurations, seed included, produce byte-identical
files; nothing is read from the environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .classical import enumerate_all
from .scoring import CLASSICAL_BOUND, MIXED_BETA, N_TERMS, PURE_MAX_BETA, beta_value
from .simulate import (
    beta_from_counts,
    fit_noise,
    fit_noise_max_point,
    run_game,
    synth_counts,
)
from .spectra import MAX_GRID_POINTS, sweep_surface
from .states import (
    BellState,
    OneParam,
    QuantumState,
    SettingTriple,
    TwoParam,
    bell_state_density,
    noisy_phi_plus,
    superpose,
)

MIN_STATISTICAL_SAMPLES = 100
# run_game holds one byte per trial plus a fixed ~1.6 MiB chunk, so this cap
# bounds run time, not memory: about 9-10 ns per trial on a 2-vCPU host,
# so about 0.03 s at the cap
MAX_TRIALS = 3_000_000
# below 2**53, so every count of a CountTable is an exact float
MAX_N_PER_PAIR = 10**15
DEFAULT_SETTINGS_DEG = (0.0, 120.0, -120.0)
GRID_HELP_2D = (f"points per axis over [-90, 90] degrees (default: 181; at least 2, and "
                f"at most {MAX_GRID_POINTS} grid points in all, so {math.isqrt(MAX_GRID_POINTS)} "
                "per axis for the two-parameter family)")


def parse_state(spec: str) -> QuantumState:
    """Parse a state spec: bell label | noisy:P | superpose:A,B,AMP."""
    text = spec.strip().lower()
    if text.startswith("noisy:"):
        try:
            p = float(text.removeprefix("noisy:"))
        except ValueError:
            raise ValueError(f"bad noise parameter in state spec {spec!r}") from None
        return noisy_phi_plus(p)
    if text.startswith("superpose:"):
        parts = text.removeprefix("superpose:").split(",")
        if len(parts) != 3:
            raise ValueError(f"state spec {spec!r} needs superpose:LABEL,LABEL,AMPLITUDE")
        a = BellState.from_label(parts[0])
        b = BellState.from_label(parts[1])
        try:
            amp = float(parts[2])
        except ValueError:
            raise ValueError(f"bad amplitude in state spec {spec!r}") from None
        if not -1.0 <= amp <= 1.0:
            raise ValueError(f"superpose amplitude must lie in [-1, 1], got {amp}")
        return superpose(a, b, amp, math.sqrt(1.0 - amp * amp))
    return bell_state_density(BellState.from_label(text))


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v + 0.0:.12g}"
    return str(v)


def _csv_quoted(text: str) -> str:
    """``text`` as csv.writer spells it as one of several cells in a row:
    quoted, with ``"`` doubled, when it holds a ``,``, a ``"`` or a line
    break (QUOTE_MINIMAL), such as a superpose:A,B,AMP spec."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


def _csv_cells(values) -> list[str]:
    """One column's cells as csv.writer spells them. No spelling of a float,
    an int or a bool holds a ``,``, a ``"`` or a line break, so those go
    unquoted; every other distinct spelling is quoted once."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        return _cells(values, _format_value)
    quoted = {}

    def spell(v) -> str:
        text = _format_value(v)
        if isinstance(v, (float, int)):  # a bool is an int
            return text
        if text not in quoted:
            quoted[text] = _csv_quoted(text)
        return quoted[text]

    return _cells(values, spell)


def _json_value(v) -> str:
    """``v`` as json.dumps spells it; float.__repr__ is that spelling for a finite float."""
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    return json.dumps(v)


def _cells(values, spell) -> list[str]:
    """Spell each value of one column as text.

    A float64 array is spelled one distinct value at a time: sweep grids
    repeat most of their values. Values are told apart by bit pattern, so
    -0.0 and 0.0 keep their own spellings.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        spelled = np.array([spell(v) for v in distinct.view(np.float64).tolist()], dtype=object)
        return spelled[inverse].tolist()
    return [spell(v) for v in (values.tolist() if isinstance(values, np.ndarray) else values)]


def dataset_text(columns, data, fmt: str, metadata) -> str:
    """A column-major dataset as CSV or JSON text.

    ``data[k]`` holds the values of ``columns[k]`` in row order, as a
    numpy array or a sequence of plain Python values; every dataset has
    at least one column and one row. CSV has a header row and floats at
    12 significant digits. JSON is what ``json.dumps(payload,
    sort_keys=True, indent=1)`` writes for ``{"columns": [...], "data":
    {column: [values]}, "metadata": metadata}``, with the data lists
    spelled by ``_cells`` rather than by the pure-Python encoder.
    """
    if fmt == "json":
        shell = json.dumps({"columns": list(columns), "data": {}, "metadata": metadata},
                           sort_keys=True, indent=1)
        # a newline inside a JSON string is escaped, so this is the top-level key
        head, tail = shell.split('\n "data": {}', 1)
        lists = [f"  {json.dumps(name)}: [\n   " + ",\n   ".join(_cells(values, _json_value))
                 + "\n  ]" for name, values in sorted(zip(columns, data), key=lambda c: c[0])]
        return head + '\n "data": {\n' + ",\n".join(lists) + "\n }" + tail + "\n"
    # the cells are csv.writer's, so a row is the cells joined by commas
    lines = [",".join(map(_csv_quoted, columns)),
             *map(",".join, zip(*map(_csv_cells, data)))]
    if len(columns) == 1:
        # csv.writer quotes a lone empty cell, so that no row is a blank line
        lines = [line or '""' for line in lines]
    return "\n".join(lines) + "\n"


def write_dataset(columns, data, args, metadata) -> None:
    """Serialize a column-major dataset (see ``dataset_text``) as --format
    to --output, or to stdout."""
    text = dataset_text(columns, data, args.format,
                        dict(metadata, command=args.command, version=__version__))
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _sample_size(args, flag: str, value: int, cap: int, purpose: str) -> None:
    """Refuse a sample size below MIN_STATISTICAL_SAMPLES or above ``cap``,
    and a negative --seed, before any sampling."""
    if value < MIN_STATISTICAL_SAMPLES:
        raise ValueError(f"{flag} must be >= {MIN_STATISTICAL_SAMPLES} for a "
                         f"meaningful {purpose}")
    if value > cap:
        raise ValueError(f"{flag} must be <= {cap}, got {value}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")


def cmd_eigs(args):
    family = OneParam if args.one_param else TwoParam
    dataset = sweep_surface(family, args.grid, include_numeric=not args.one_param)
    lam = np.stack([dataset.column(c) for c in ("lambda1", "lambda2", "lambda3", "lambda4")])
    return (dataset.columns, dataset.data,
            {"grid": args.grid, "family": "one-param" if args.one_param else "two-param"},
            [f"eigenvalue range over grid: [{lam.min():.9g}, {lam.max():.9g}] "
             f"(classical bound {CLASSICAL_BOUND:g})"])


def _extreme_rows(dataset, pick) -> tuple[float, np.ndarray]:
    """The extreme beta of a sweep (``pick`` is np.max or np.min) and the
    indices of the rows within 1e-9 of it, in row order."""
    beta = dataset.column("beta")
    best = pick(beta)
    return best, np.flatnonzero(np.abs(beta - best) <= 1e-9)


def cmd_beta_surface(args):
    dataset = sweep_surface(TwoParam, args.grid, state=parse_state(args.state))
    best, at = _extreme_rows(dataset, np.max)
    low, _ = _extreme_rows(dataset, np.min)
    phi, theta = (dataset.column(c)[at[:4]].tolist() for c in ("phi_deg", "theta_deg"))
    spots = ", ".join(f"({p:g}, {t:g})" for p, t in zip(phi, theta))
    return (dataset.columns, dataset.data, {"grid": args.grid, "state": args.state},
            [f"beta max over grid = {best:.9g} at (phi_deg, theta_deg): {spots}"
             + (" ..." if len(at) > 4 else ""),
             f"beta min over grid = {low:.9g}; classical bound {CLASSICAL_BOUND:g}; "
             f"success bound {CLASSICAL_BOUND / N_TERMS:.6f}"])


def cmd_sweep_1d(args):
    dataset = sweep_surface(OneParam, args.grid, state=parse_state(args.state))
    best, at = _extreme_rows(dataset, np.max)
    spots = ", ".join(f"{t:g}" for t in dataset.column("theta_deg")[at[:4]].tolist())
    return (dataset.columns, dataset.data, {"grid": args.grid, "state": args.state},
            [f"beta max over sweep = {best:.9g} at theta_deg: {spots}"
             + (" ..." if len(at) > 4 else "")])


def cmd_classical(args):
    scored = enumerate_all()
    columns = ("a1", "a2", "a3", "b1", "b2", "b3", "beta")
    rows = [s.alice + s.bob + (score,) for s, score in scored]
    scores = [score for _, score in scored]
    best, worst = max(scores), min(scores)
    return (columns, list(zip(*rows)), {"strategies": len(rows)},
            [f"{len(rows)} deterministic strategies; max beta = {best} "
             f"({scores.count(best)} strategies), min beta = {worst}",
             f"classical success bound = {best}/{N_TERMS} = {best / N_TERMS:.6f}"])


def cmd_simulate(args):
    _sample_size(args, "--trials", args.trials, MAX_TRIALS, "estimate")
    state = parse_state(args.state)
    settings = SettingTriple.from_degrees(*args.settings)
    estimate = run_game(state, settings, args.trials, args.seed)
    expected = beta_value(state, settings).success_probability
    columns = ("state", "t1_deg", "t2_deg", "t3_deg", "trials", "seed",
               "success_rate", "stderr", "expected_success")
    rows = [(args.state, *args.settings, args.trials, args.seed,
             estimate.success_rate, estimate.stderr, expected)]
    return (columns, list(zip(*rows)),
            {"state": args.state, "seed": args.seed, "trials": args.trials},
            [f"success rate = {estimate.success_rate:.6f} +- {estimate.stderr:.6f} "
             f"({args.trials} trials, seed {args.seed})",
             f"Born-rule expectation = {expected:.6f}; classical bound "
             f"{CLASSICAL_BOUND:g}/{N_TERMS} = {CLASSICAL_BOUND / N_TERMS:.6f}"])


def cmd_counts(args):
    _sample_size(args, "--n-per-pair", args.n_per_pair, MAX_N_PER_PAIR, "reconstruction")
    state = parse_state(args.state)
    settings = SettingTriple.from_degrees(*args.settings)
    table = synth_counts(state, settings, args.n_per_pair, args.seed)
    degrees = settings.as_degrees()
    columns = ("i", "j", "theta_i_deg", "theta_j_deg",
               "n_pp", "n_pm", "n_mp", "n_mm", "n_tot")
    rows = []
    for i in range(3):
        for j in range(3):
            cell = table.counts[i, j]
            rows.append((i + 1, j + 1, degrees[i], degrees[j],
                         int(cell[0]), int(cell[1]), int(cell[2]), int(cell[3]),
                         int(cell.sum())))
    recon = beta_from_counts(table)
    return (columns, list(zip(*rows)),
            {"state": args.state, "seed": args.seed, "n_per_pair": args.n_per_pair},
            [f"beta reconstructed from counts = {recon.beta:.6f} "
             f"(success {recon.success_probability:.6f}, seed {args.seed})"])


def cmd_fit(args):
    if args.beta_max is None and args.input is None:
        raise ValueError("fit needs --beta-max and/or --input")
    fits = []
    if args.beta_max is not None:
        fits.append(fit_noise_max_point(args.beta_max))
    if args.input is not None:
        observed = _read_sweep_observations(args.input)
        fits.append(fit_noise(observed, method="curve-fit"))
    columns = ("method", "p_hat", "residual")
    rows = [(f.method, f.p_hat, f.residual) for f in fits]
    summary = []
    for f in fits:
        note = ""
        if f.method == "max-point" and not MIXED_BETA <= args.beta_max <= PURE_MAX_BETA:
            note = (f"; clamped, since beta_max {args.beta_max:g} lies outside [{MIXED_BETA:g}, "
                    f"{PURE_MAX_BETA:g}], from white noise to the quantum maximum")
        summary.append(f"{f.method}: p = {f.p_hat:.6f} (residual {f.residual:.3g}){note}")
    if len(fits) == 1 and fits[0].method == "max-point":
        summary.append("note: a single maximum pins p through the noise line only; "
                       "compare with a full-curve fit (--input) when sweep data exist")
    return (columns, list(zip(*rows)), {"beta_max": args.beta_max, "input": args.input},
            summary)


def _read_sweep_observations(path: str) -> list[tuple[OneParam, float]]:
    """Read (theta_deg, beta) rows from a sweep-1d CSV file.

    A short row, an unparsable cell, a non-finite value or a row that the
    csv module refuses (a cell above its field size limit) is an error
    naming the file and line; text that is not UTF-8 is an error naming
    the file.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(reader.line_num, [cell.strip() for cell in row])
                    for row in reader if any(cell.strip() for cell in row)]
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"no data in {path}")
    header = rows[0][1]
    try:
        k_theta = header.index("theta_deg")
        k_beta = header.index("beta")
    except ValueError:
        raise ValueError(f"{path} must have theta_deg and beta columns") from None
    observed = []
    for line, row in rows[1:]:
        if len(row) < len(header):
            raise ValueError(f"{path}, line {line}: expected {len(header)} cells, "
                             f"got {len(row)}")
        try:
            theta_deg, beta = float(row[k_theta]), float(row[k_beta])
        except ValueError:
            raise ValueError(f"{path}, line {line}: theta_deg and beta must be "
                             f"numbers, got {row[k_theta]!r}, {row[k_beta]!r}") from None
        if not (math.isfinite(theta_deg) and math.isfinite(beta)):
            raise ValueError(f"{path}, line {line}: theta_deg and beta must be finite")
        observed.append((OneParam(math.radians(theta_deg)), beta))
    if not observed:
        raise ValueError(f"no observation rows in {path}")
    return observed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qorient",
        description="Datasets and summaries for the entanglement-assisted "
                    "orientation game.")
    sub = parser.add_subparsers(dest="command", required=True)
    # (flags, add_argument keywords) per option
    state = (("--state",), dict(
        default="phi+", metavar="SPEC",
        help="bell label (phi+, phi-, psi+, psi-), noisy:P, or superpose:A,B,AMP with AMP "
             "the first amplitude (default: phi+)"))
    settings = (("--settings",), dict(
        nargs=3, type=float, metavar=("D1", "D2", "D3"), default=list(DEFAULT_SETTINGS_DEG),
        help="measurement angles in degrees (default: 0 120 -120, the quantum optimum)"))
    seed = (("--seed",), dict(type=int, default=0, help="RNG seed (default: 0)"))
    grid = (("--grid",), dict(type=int, default=181, help=GRID_HELP_2D))
    output = ((("--output", "-o"), dict(default=None, metavar="PATH",
                                        help="write the dataset here (default: stdout)")),
              (("--format",), dict(choices=("csv", "json"), default="csv",
                                   help="dataset format (default: csv)")))
    # built per call, not at import, so that a cmd_* name rebound in this
    # module (as a tracer does) is the handler the parser calls
    commands = (
        ("eigs", cmd_eigs, "eigenvalue bounds over a measurement family grid", (
            grid,
            (("--one-param",), dict(action="store_true", help="sweep the single-parameter "
                                    "family (0, 2t, -2t) instead")))),
        ("beta-surface", cmd_beta_surface,
         "score surface of a state over the two-parameter family", (state, grid)),
        ("sweep-1d", cmd_sweep_1d, "score of a state along the one-parameter family", (
            state,
            (("--grid",), dict(type=int, default=361,
                               help=f"points over [-90, 90] degrees (default: 361; at least "
                                    f"2, at most {MAX_GRID_POINTS})")))),
        ("classical", cmd_classical, "enumerate all 64 deterministic strategies", ()),
        ("simulate", cmd_simulate, "Monte Carlo rounds of the game", (
            state, settings,
            (("--trials",), dict(type=int, default=100000,
                                 help=f"number of rounds (default: 100000, minimum 100, "
                                      f"maximum {MAX_TRIALS}, which bounds run time; memory "
                                      "stays near one byte per round)")),
            seed)),
        ("counts", cmd_counts, "synthetic coincidence counts per setting pair", (
            state, settings,
            (("--n-per-pair",), dict(type=int, default=10000,
                                     help=f"coincidences per setting pair (default: 10000, "
                                          f"minimum 100, maximum {MAX_N_PER_PAIR})")),
            seed)),
        ("fit", cmd_fit, "fit the white-noise parameter of the source", (
            (("--beta-max",), dict(type=float, default=None,
                                   help="invert a single maximal score through the noise "
                                        "line")),
            (("--input",), dict(default=None, metavar="PATH",
                                help="sweep-1d CSV (theta_deg, beta) for a full-curve fit")))),
    )
    for name, handler, help_text, options in commands:
        p = sub.add_parser(name, help=help_text)
        for flags, keywords in (*options, *output):
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Parse ``argv``, compute the command's dataset, write it, then print
    its summary: to stdout when the dataset goes to --output, else to stderr."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if value == []:  # argparse of Python 3.11 strips the "--" of "--flag=--" and stores []
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        columns, data, metadata, summary = args.func(args)
        write_dataset(columns, data, args, metadata)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    stream = sys.stderr if args.output is None else sys.stdout
    for line in summary:
        print(line, file=stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
