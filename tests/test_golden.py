"""Golden bytes: small versions of the README commands, pinned by hash.

Each command runs as CSV and as JSON. The sha256 of every dataset and
the summary lines were recorded from the row-by-row writer, before
datasets became column-major, so any change to a dataset byte or a
summary line fails here. ``fit --input`` reads ``sw.csv``, written first
by the README's sweep; it runs in its own directory, since the JSON
metadata records the input path. The stdout of demos 01 and 02 is
pinned the same way, recorded before ``find_optimum`` (which demo 01
calls for both families and both objectives) began to reflect half its
search grid. Demos 03 and 04 were recorded before ``run_game`` streamed
its rounds in chunks; demo 03 plays 1e6 rounds per state, 16 chunks.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

from qorient.cli import main

COMMANDS = {
    "eigs": ["eigs", "--grid", "5"],
    "eigs-1p": ["eigs", "--one-param", "--grid", "21"],
    "beta-surface": ["beta-surface", "--state", "phi+", "--grid", "5"],
    "beta-surface-superpose": ["beta-surface", "--state", "superpose:psi+,phi-,0.6",
                               "--grid", "5"],
    "sweep-1d": ["sweep-1d", "--state", "noisy:0.98", "--grid", "21"],
    "classical": ["classical"],
    "simulate": ["simulate", "--state", "phi+", "--trials", "1000", "--seed", "0"],
    "simulate-superpose": ["simulate", "--state", "superpose:psi+,phi-,0.6",
                           "--trials", "1000", "--seed", "3"],
    "counts": ["counts", "--state", "noisy:0.98", "--n-per-pair", "1000", "--seed", "0"],
    "fit-max": ["fit", "--beta-max", "7.41"],
    "fit-input": ["fit", "--input", "sw.csv"],
}

DATASET_SHA256 = {
    "eigs.csv": "bdaf51304eb95a01c47c8134d07de171bcd11d64bc226d9c9659aa2da2a83835",
    "eigs.json": "7871297c6bc6703e93a1d736cdd8c0b72ba074c679743b01ebee767785d89af6",
    "eigs-1p.csv": "34435e2072161cb85ae5cb8d1393469eb3003461158f1be685f29745ca751808",
    "eigs-1p.json": "0a83a14f4b2d390beb772d62f1d29ec46bc4f25c5a5fa093e183ade27dd0365c",
    "beta-surface.csv": "d74a9df59c1d25d4728bbf27edcc2eaef498fb40016595cf52c6ad731d594ca6",
    "beta-surface.json": "46c5bf99112bfe40638ddd422735421c60c50052735168df3481cca209f003fb",
    "beta-surface-superpose.csv":
        "df08984c14828b66c7e52560fc5589594baeae327238ed0e8f26d145f1022fe3",
    "beta-surface-superpose.json":
        "2bbc2a809aec6c48877050bc279f7a4fb8915f6f9a84cf5cfe7545788b8e0c00",
    "sweep-1d.csv": "47c4a6d3306138fafb6b5fe7810aff4516a9a413d71d1dbc75a200a0dd5dadfe",
    "sweep-1d.json": "a5ff8d31b40ba36375bd82fba72b3e2f0d1538d6e12d414421b2471085c1df50",
    "classical.csv": "9e49433c6f04be5a1a0536dab3a637b67708b8802457ad5fd50f29baab42c2a9",
    "classical.json": "0b346b3c1128698dba82e1c286ee8af4cb2648d2e52e4a4573b55d57a8ec4d53",
    "simulate.csv": "1acc48f6f34142ec451e5a53d34f6d2bb760fd4e214758ae1d94b23b893fd401",
    "simulate.json": "c3d7ffc5d9b9b35c348f87eee57ad254761f5ed521d3a30f9de0a11b4516dc68",
    "simulate-superpose.csv": "f654fecf4223087ea75489f49adeceaa653d2cc67acaaf03a872f37919ff93e0",
    "simulate-superpose.json": "bb4e907067bde22520b0ed2af4e495862b34f759eda5c670a12ca823676d0cb7",
    "counts.csv": "1a5576ea04bb111526229fa2108357684305fd83a0fbc07f9a0228df4f33e4a2",
    "counts.json": "2b875fb8f905fce63065c525980b37b628e6d17dd135991967a6f2eaf81965e5",
    "fit-max.csv": "fe30454e036d70957ee692baf8965bc30a9292c9bf115a2c723ce253a4daeebe",
    "fit-max.json": "1763e86eecfb9c1e0cf25b09fd543c9de2bd15a48600f619582f7ba5c061a088",
    "fit-input.csv": "6e58e161acd7d5ae49f20fa584d6b289cb902437b43818d6df9b4911743066a5",
    "fit-input.json": "22776ba623b4fd4c1947881195b27e6f307c2f87fb65a3ee33164f61300ae9f3",
}

SUMMARIES = {
    "eigs": "eigenvalue range over grid: [2, 7] (classical bound 7)\n",
    "eigs-1p": "eigenvalue range over grid: [1.5154125, 7.4845875] (classical bound 7)\n",
    "beta-surface": "beta max over grid = 7 at (phi_deg, theta_deg): (-90, -90), (-90, -45), "
                    "(-90, 0), (-90, 45) ...\n"
                    "beta min over grid = 3; classical bound 7; success bound 0.777778\n",
    "beta-surface-superpose": "beta max over grid = 6.56 at (phi_deg, theta_deg): (-45, -45)\n"
                              "beta min over grid = 2.44; classical bound 7; "
                              "success bound 0.777778\n",
    "sweep-1d": "beta max over sweep = 7.42489575 at theta_deg: -63, 63\n",
    "classical": "64 deterministic strategies; max beta = 7 (6 strategies), min beta = 2\n"
                 "classical success bound = 7/9 = 0.777778\n",
    "simulate": "success rate = 0.820000 +- 0.012149 (1000 trials, seed 0)\n"
                "Born-rule expectation = 0.833333; classical bound 7/9 = 0.777778\n",
    "simulate-superpose": "success rate = 0.491000 +- 0.015809 (1000 trials, seed 3)\n"
                          "Born-rule expectation = 0.500000; classical bound 7/9 = 0.777778\n",
    "counts": "beta reconstructed from counts = 7.459000 (success 0.828778, seed 0)\n",
    "fit-max": "max-point: p = 0.970000 (residual 0)\n"
               "note: a single maximum pins p through the noise line only; compare with a "
               "full-curve fit (--input) when sweep data exist\n",
    "fit-input": "curve-fit: p = 0.980000 (residual 2.36e-12)\n",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_dataset_bytes_and_summary(tmp_path, monkeypatch, capsys, name, fmt):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep-1d", "--state", "noisy:0.98", "--grid", "21", "-o", "sw.csv"]) == 0
    capsys.readouterr()
    assert main(COMMANDS[name] + ["--format", fmt, "-o", f"out.{fmt}"]) == 0
    digest = hashlib.sha256((tmp_path / f"out.{fmt}").read_bytes()).hexdigest()
    assert digest == DATASET_SHA256[f"{name}.{fmt}"]
    assert capsys.readouterr().out == SUMMARIES[name]


DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_STDOUT_SHA256 = {
    "01_spectral_bounds.py": "ef5d784c5cd710422ede9a59aea9d6b992f099785aafd342a0710b51593481e4",
    "02_classical_vs_quantum.py":
        "f11a39cd14a9bbad55eda42e07aef3210407fdec728b04ec0b71c3d1b5098bb8",
    "03_play_the_game.py": "1ab53848046987c1da1a70098e32ed1eac93409a6c04a54f1980b7dc4f7f5eea",
    "04_noisy_source_fit.py": "7a555974dcfdf2e39a9edaefd2163ab84932f518d7085a0940d837628ed54a77",
}


@pytest.mark.parametrize("demo", list(DEMO_STDOUT_SHA256))
def test_demo_stdout(capsys, demo):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == DEMO_STDOUT_SHA256[demo]
