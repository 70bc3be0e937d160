"""End-to-end checks of the command-line interface."""

import argparse
import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from qorient import __version__
from qorient.cli import MAX_N_PER_PAIR, MAX_TRIALS, _format_value, main, parse_state, write_dataset
from qorient.spectra import MAX_GRID_POINTS
from qorient.states import BellState, bell_state_density, noisy_phi_plus


def run(args):
    return main(list(args))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestParseState:
    def test_bell_labels(self):
        for label in ("phi+", "PHI-", " psi+ ", "psi-"):
            parse_state(label)

    def test_noisy(self):
        got = parse_state("noisy:0.98")
        assert np.allclose(got.rho, noisy_phi_plus(0.98).rho, atol=0)

    def test_superpose(self):
        got = parse_state("superpose:psi+,phi-,1.0")
        assert np.allclose(got.rho, bell_state_density(BellState.PSI_PLUS).rho, atol=1e-12)

    def test_bad_specs(self):
        for bad in ("banana", "noisy:x", "noisy:1.5", "superpose:psi+,phi-",
                    "superpose:psi+,phi-,2.0"):
            with pytest.raises(ValueError):
                parse_state(bad)


class TestEigs:
    def test_grid_row_count_and_header(self, tmp_path, capsys):
        out = tmp_path / "eigs.csv"
        assert run(["eigs", "--grid", "21", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:6] == ["phi_deg", "theta_deg", "lambda1", "lambda2",
                              "lambda3", "lambda4"]
        assert len(rows) == 21 * 21

    def test_optimum_row_value(self, tmp_path):
        out = tmp_path / "eigs.csv"
        run(["eigs", "--grid", "7", "-o", str(out)])  # grid step 30 deg includes 60/-60
        header, rows = read_csv(out)
        k = header.index("lambda1")
        hit = [r for r in rows if r[0] == "60" and r[1] == "-60"]
        assert len(hit) == 1
        assert abs(float(hit[0][k]) - 7.5) < 1e-9

    def test_one_param_has_bell_labels(self, tmp_path):
        out = tmp_path / "eigs1d.csv"
        run(["eigs", "--one-param", "--grid", "13", "-o", str(out)])
        header, rows = read_csv(out)
        assert header == ["theta_deg", "lambda1", "lambda2", "lambda3", "lambda4",
                          "state1", "state2", "state3", "state4"]
        assert len(rows) == 13
        assert rows[0][5:] == ["phi+", "psi+", "phi-", "psi-"]

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["eigs", "--grid", "9", "-o", str(a)])
        run(["eigs", "--grid", "9", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestBetaSurface:
    def test_phi_plus_summary_max(self, tmp_path, capsys):
        out = tmp_path / "surf.csv"
        assert run(["beta-surface", "--state", "phi+", "--grid", "61",
                    "-o", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "beta max over grid = 7.5" in summary

    def test_json_format(self, tmp_path):
        out = tmp_path / "surf.json"
        run(["beta-surface", "--state", "psi-", "--grid", "5", "--format", "json",
             "-o", str(out)])
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["phi_deg", "theta_deg", "beta"]
        assert payload["metadata"]["command"] == "beta-surface"
        assert payload["metadata"]["state"] == "psi-"
        assert len(payload["data"]["beta"]) == 25

    def test_stdout_when_no_output(self, capsys):
        assert run(["beta-surface", "--grid", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("phi_deg,theta_deg,beta")
        assert "beta max" in captured.err


class TestSweep1d:
    def test_dataset_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["sweep-1d", "--state", "phi+", "--grid", "181", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["theta_deg", "beta"]
        assert len(rows) == 181
        best = max(float(r[1]) for r in rows)
        assert abs(best - 7.5) < 1e-9
        assert "7.5" in capsys.readouterr().out


class TestClassical:
    def test_strategies_table(self, tmp_path, capsys):
        out = tmp_path / "classical.csv"
        assert run(["classical", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 64
        scores = [int(r[-1]) for r in rows]
        assert max(scores) == 7
        summary = capsys.readouterr().out
        assert "max beta = 7" in summary
        assert "7/9" in summary


class TestSimulate:
    def test_summary_and_dataset(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--trials", "20000", "--seed", "5", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        rate = float(rows[0][header.index("success_rate")])
        assert abs(rate - 5 / 6) < 0.02
        assert "success rate" in capsys.readouterr().out

    def test_refuses_small_trials(self, capsys):
        assert run(["simulate", "--trials", "50"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_superpose_spec_stays_one_cell(self, tmp_path):
        out = tmp_path / "sim.csv"
        spec = "superpose:psi+,phi-,0.6"
        assert run(["simulate", "--state", spec, "--trials", "1000", "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(header) == 9
        assert [len(r) for r in rows] == [9]
        assert rows[0][0] == spec

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["simulate", "--trials", "1000", "--seed", "3", "-o", str(a)])
        run(["simulate", "--trials", "1000", "--seed", "3", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestCounts:
    def test_schema_and_totals(self, tmp_path):
        out = tmp_path / "counts.csv"
        assert run(["counts", "--n-per-pair", "2000", "--seed", "1", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["i", "j", "theta_i_deg", "theta_j_deg",
                          "n_pp", "n_pm", "n_mp", "n_mm", "n_tot"]
        assert len(rows) == 9
        for r in rows:
            assert int(r[4]) + int(r[5]) + int(r[6]) + int(r[7]) == int(r[8]) == 2000

    def test_refuses_small_counts(self, capsys):
        assert run(["counts", "--n-per-pair", "10"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_summary_reconstructs_beta(self, capsys):
        assert run(["counts", "--n-per-pair", "100000", "--seed", "0"]) == 0
        captured = capsys.readouterr()
        line = [ln for ln in captured.err.split("\n") if "beta reconstructed" in ln][0]
        value = float(line.split("=")[1].split("(")[0])
        assert abs(value - 7.5) < 0.05


class TestFit:
    def test_beta_max_inversion(self, tmp_path, capsys):
        out = tmp_path / "fit.csv"
        assert run(["fit", "--beta-max", "7.41", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert rows[0][header.index("method")] == "max-point"
        assert abs(float(rows[0][header.index("p_hat")]) - 0.97) < 1e-12
        summary = capsys.readouterr().out
        assert "compare" in summary  # points at the curve-fit alternative
        assert "clamped" not in summary

    def test_curve_fit_from_sweep_file(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        run(["sweep-1d", "--state", "noisy:0.9", "--grid", "37", "-o", str(sweep)])
        out = tmp_path / "fit.csv"
        assert run(["fit", "--input", str(sweep), "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert rows[0][header.index("method")] == "curve-fit"
        # CSV stores 12 significant digits, so the round trip is near-exact
        assert abs(float(rows[0][header.index("p_hat")]) - 0.9) < 1e-9

    def test_both_methods_together(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        run(["sweep-1d", "--state", "noisy:0.97", "--grid", "19", "-o", str(sweep)])
        out = tmp_path / "fit.csv"
        run(["fit", "--beta-max", "7.41", "--input", str(sweep), "-o", str(out)])
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["max-point", "curve-fit"]

    def test_requires_some_input(self, capsys):
        assert run(["fit"]) == 2
        assert "needs" in capsys.readouterr().err

    def test_rejects_malformed_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run(["fit", "--input", str(bad)]) == 2

    @pytest.mark.parametrize("body, line", [
        ("theta_deg,beta\n10,7\n20\n", 3),
        ("theta_deg,beta\n10,7\n20,abc\n", 3),
        ("theta_deg,beta\n\n10,7\n20,nan\n", 4),  # blank lines still count
        ("theta_deg,beta\ninf,7\n", 2),
    ], ids=["short-row", "unparsable-cell", "nan-beta", "inf-theta"])
    def test_bad_input_row_names_file_and_line(self, tmp_path, capsys, body, line):
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        assert run(["fit", "--input", str(bad)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"{bad}, line {line}:" in err[0]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_beta_max(self, capsys, value):
        assert run(["fit", f"--beta-max={value}"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value, code, message", [
        ("99", 2, "error: beta_max must lie in [0, 9]"),  # beta sums 9 probabilities
        ("-1", 2, "error: beta_max must lie in [0, 9]"),
        ("7.6", 0, "max-point: p = 1.000000 (residual 0.1); clamped, since beta_max 7.6"),
    ])
    def test_impossible_beta_max_refused_and_clamping_said(self, capsys, value, code, message):
        assert run(["fit", f"--beta-max={value}"]) == code
        assert message in capsys.readouterr().err.split("\n")[0]


class TestGridBounds:
    @pytest.mark.parametrize("command, grid, message", [
        (["eigs"], 1, ">= 2"), (["beta-surface"], 0, ">= 2"), (["sweep-1d"], -3, ">= 2"),
        (["eigs"], math.isqrt(MAX_GRID_POINTS) + 1, "cap"),
        (["beta-surface"], math.isqrt(MAX_GRID_POINTS) + 1, "cap"),
        (["eigs", "--one-param"], MAX_GRID_POINTS + 1, "cap"),
        (["sweep-1d"], MAX_GRID_POINTS + 1, "cap"),
    ])
    def test_rejects_grid_before_allocating(self, capsys, command, grid, message):
        tracemalloc.start()
        try:
            code = run(command + [f"--grid={grid}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 2 and len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert peak < 2**20  # not even the parameter axis was built


class TestWriteDataset:
    """The column-major writer, byte for byte against the row-by-row
    formulas it replaced."""

    SPEC = "superpose:psi+,phi-,0.6"

    @staticmethod
    def row_formula_text(columns, rows, fmt, metadata):
        if fmt == "json":
            payload = {"metadata": metadata, "columns": list(columns),
                       "data": {c: [row[k] for row in rows] for k, c in enumerate(columns)}}
            return json.dumps(payload, sort_keys=True, indent=1) + "\n"
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_format_value(v) for v in row] for row in rows)
        return buffer.getvalue()

    def check(self, tmp_path, fmt, columns, data):
        rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in data)))
        metadata = {"grid": len(rows), "state": self.SPEC}
        out = tmp_path / f"dataset.{fmt}"
        write_dataset(columns, data, argparse.Namespace(format=fmt, output=str(out),
                                                        command="eigs"), metadata)
        want = self.row_formula_text(columns, rows, fmt,
                                     dict(metadata, command="eigs", version=__version__))
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_special_and_repeated_values(self, tmp_path, fmt):
        special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1 + 0.2,
                            7.5, -0.0, 7.5, 1e-300, -2.5e17, 0.0])
        n = len(special)
        columns = ("special", "repeated", "strided", "count", "flag", "int_array",
                   "bool_array", "state", "label")
        data = (special, np.repeat([60.0, -60.0, 0.5], n // 3),
                np.arange(2.0 * n)[::2] / 3,  # a non-contiguous view
                list(range(n)), [k % 2 == 0 for k in range(n)],
                np.arange(n) - 6, np.arange(n) % 3 == 0, [self.SPEC] * n, np.full(n, "phi+"))
        self.check(tmp_path, fmt, columns, data)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_strings_that_need_quoting(self, tmp_path, fmt):
        text = np.array([self.SPEC, 'say "hi"', "", "line\nbreak", "cr\rlf", "plain", ""])
        n = len(text)
        columns = ("label", "quoted, header", "beta", "count", "flag", "empty", 'q"uote')
        data = (list(text), text, np.linspace(-1.0, 1.0, n), np.arange(n) - 3,
                np.arange(n) % 2 == 0, [""] * n, [True, 1, 1.0, -0.0, 0, None, "x"])
        self.check(tmp_path, fmt, columns, data)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column, values", [
        ("label", ["", "a,b", ""]), ("", [0.5, -0.0, 2.0]), ("n", np.array([3, -1, 7])),
    ])
    def test_single_column(self, tmp_path, fmt, column, values):
        # csv.writer quotes a row holding one empty cell
        self.check(tmp_path, fmt, (column,), (values,))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_row(self, tmp_path, fmt):
        columns = ("state", "t1_deg", "trials", "seed", "success_rate", "zero")
        self.check(tmp_path, fmt, columns,
                   ([self.SPEC], [120.0], [1000], [3], [0.491], np.array([-0.0])))


class TestErrorPaths:
    @pytest.mark.parametrize("command, seed", [
        (["simulate", "--trials", "1000"], "-1"),
        (["counts", "--n-per-pair", "1000"], "-5"),
    ])
    def test_negative_seed_names_the_flag(self, capsys, command, seed):
        assert run(command + ["--seed", seed]) == 2
        assert capsys.readouterr().err == (f"error: --seed must be a non-negative integer, "
                                           f"got {seed}\n")

    @pytest.mark.parametrize("command, flag, value", [
        (["simulate"], "--trials", MAX_TRIALS + 1),
        (["simulate"], "--trials", 2**63),
        (["simulate"], "--trials", 99999999999999999999),
        (["counts"], "--n-per-pair", MAX_N_PER_PAIR + 1),
        (["counts"], "--n-per-pair", 2**63),
        (["counts"], "--n-per-pair", 99999999999999999999),
    ])
    def test_sample_size_above_cap_names_the_flag(self, capsys, command, flag, value):
        tracemalloc.start()
        try:
            code = run(command + [flag, str(value)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cap = MAX_TRIALS if flag == "--trials" else MAX_N_PER_PAIR
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag} must be <= {cap}, got {value}\n"
        assert peak < 2**20  # refused before any sampling

    def test_unwritable_output(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run(["classical", "-o", str(missing_dir)]) == 1
        assert "i/o error" in capsys.readouterr().err

    def test_unknown_state(self, capsys):
        assert run(["beta-surface", "--state", "banana", "--grid", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code != 0
