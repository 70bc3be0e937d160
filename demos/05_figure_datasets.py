"""Emit the figure datasets: eigenvalue bounds, score surfaces, 1D sweep.

Writes CSV files into ./data (or the directory given on the command
line). The same datasets are available from the command line:

    qorient eigs --grid 181 -o data/eigenvalue_bounds.csv
    qorient beta-surface --state phi+ -o data/beta_surface_phi+.csv
    qorient sweep-1d --state noisy:0.98 -o data/sweep_noisy.csv
"""

import pathlib
import sys

from qorient import (
    BellState,
    OneParam,
    TwoParam,
    bell_state_density,
    noisy_phi_plus,
    sweep_surface,
)
from qorient.cli import dataset_text, parse_state


def write_csv(path, dataset):
    path.write_text(dataset_text(dataset.columns, dataset.data, "csv", {}))
    print(f"  wrote {path} ({len(dataset.data[0])} rows)")


def main():
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "data")
    out.mkdir(parents=True, exist_ok=True)
    grid = 91  # 2-degree steps keep this demo quick; the CLI defaults to 181

    print("eigenvalue bounds over the two-parameter family (closed + numeric):")
    write_csv(out / "eigenvalue_bounds.csv",
              sweep_surface(TwoParam, grid, include_numeric=True))

    print("score surfaces for the four Bell states:")
    for label in BellState:
        ds = sweep_surface(TwoParam, grid, state=bell_state_density(label))
        name = label.value.replace("+", "_plus").replace("-", "_minus")
        write_csv(out / f"beta_surface_{name}.csv", ds)

    print("one-parameter sweeps: ideal and 2%-noise sources:")
    write_csv(out / "sweep_phi_plus.csv",
              sweep_surface(OneParam, 361, state=parse_state("phi+")))
    write_csv(out / "sweep_noisy_098.csv",
              sweep_surface(OneParam, 361, state=noisy_phi_plus(0.98)))

    print("done; the surfaces contour directly (phi_deg, theta_deg, value).")


if __name__ == "__main__":
    main()
