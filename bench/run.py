"""qorient benchmark: seeded workloads timed end to end, or traced per layer.

    python3 bench/run.py --workload figures --seed 1 --seconds 10 --trace 0

Run from anywhere; the checkout root is found from this file and the
package is imported from its ``src``. Workloads (see ``workloads.py``):

* ``figures``   - CLI dataset jobs: eigs (two-parameter with Jacobi
  columns, one-parameter), beta-surface, sweep-1d; CSV and JSON.
* ``pointwise`` - single-point library calls, as the demos make them.
* ``sampling``  - simulate, counts and fit through the CLI.

The load is a closed loop with one caller: each job starts when the
previous one has ended. Jobs come in cycles with a fixed mix; a cycle's
outputs are checked after its last job, and a run executes whole cycles
until its jobs have taken ``--seconds``.

``--trace 0`` reports the end-to-end metrics: ``items_per_s`` (items
over job time), ``job_ms_p50`` and ``job_ms_p90`` (nearest-rank), each
the median of its values over the run's cycles; ``peak_rss_mb`` (peak
RSS of a fresh worker process running cycle 0); and ``setup_s`` (median
wall time of fresh interpreters that import qorient and build the CLI
parser). The three job-time metrics are scaled to a reference host
speed measured by a probe in the same run (see ``SpeedProbe``); their
measured values are printed on stderr, and the probe's median goes into
the record line. The worker's outputs for cycle 0 must match this
process's byte for byte.

``--trace 1`` runs a fixed number of cycles twice, untraced and then
under the span tracer of ``spans.py``, and reports the per-layer
metrics; both passes must produce identical bytes. It also runs the
instrument self-test and measures run_game's peak allocation with
tracemalloc.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the host. A
human-readable report goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so paths inside outputs never vary
SETUP_RUNS = 7
WALL_LIMIT_S = 100.0  # stop starting cycles after this, whatever --seconds says
SUBPROCESS_TIMEOUT_S = 150.0
SELF_TEST_GRID = 5
PROBE_EVERY_S = 0.5
# host_probe's median on the reference host (Intel Xeon at 2.1 GHz, 2 vCPUs,
# numpy 2.4.6) in its faster state; job times are reported at this speed
PROBE_REFERENCE_S = 0.027
PROBE_ANGLES = np.random.default_rng(0).uniform(-math.pi, math.pi, size=(64, 3))
PROBE_CDF = np.array([0.1, 0.45, 0.8, 1.0])
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _digest(job_result) -> str:
    h = hashlib.sha256()
    _feed(h, job_result.value)
    h.update(job_result.text.encode())
    h.update(job_result.data)
    return h.hexdigest()


def _feed(h, obj) -> None:
    """Hash a job's return value exactly: floats by their bits, arrays by
    dtype, shape and bytes, dataclasses field by field."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif isinstance(obj, complex):
        h.update(f"{obj.real.hex()},{obj.imag.hex()}".encode())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, enum.Enum):
        h.update(repr(obj).encode())
    elif isinstance(obj, type):
        h.update(obj.__qualname__.encode())
    else:
        h.update(repr(obj).encode())


def host_probe() -> float:
    """Seconds taken by a fixed mix of interpreter, 4x4-matrix and
    large-array work that never touches qorient."""
    start = time.perf_counter()
    for angles in PROBE_ANGLES:
        np.linalg.eigvalsh(oracle.operator(angles))
    total = 0
    for i in range(60_000):
        total += i * i
    draws = np.random.default_rng(0).random(300_000)
    (draws[:, None] >= PROBE_CDF).sum(axis=1).mean()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples ``host_probe`` through a run: on demand, and between jobs
    once per ``PROBE_EVERY_S`` of job time.

    Shared hosts switch between speed states that differ by half and last
    from seconds to minutes, longer than a run. Job times are scaled by
    ``PROBE_REFERENCE_S`` over the run's median probe time, so runs made
    in different states agree; over ten seeds it narrowed the spread of
    items_per_s and job_ms_p50 on every workload. qorient cannot change
    the probe, so its own speed-ups and slow-downs pass through unscaled.
    ``setup_s`` is mostly process start, import and file reads, which the
    probe does not track (scaling did not narrow its spread), so it is
    reported as measured.
    """

    def __init__(self):
        self.samples = []
        self._since = 0.0

    def sample(self) -> None:
        self.samples.append(host_probe())
        self._since = 0.0

    def after_job(self, seconds: float) -> None:
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.sample()

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at reference speed."""
        return PROBE_REFERENCE_S / statistics.median(self.samples)


@dataclasses.dataclass
class JobRecord:
    kind: str
    seconds: float
    items: int
    error: str | None
    digest: str
    defects: list


def run_cycle(jobs, check: bool = True, probe=None) -> list[JobRecord]:
    """Run a cycle's jobs back to back, each one timed on its own, then
    collect, hash and (with ``check``) verify their outputs untimed. A
    ``SpeedProbe`` gets to sample the host between jobs."""
    from workloads import Outcome

    done = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        outcome = Outcome()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                outcome.value = job.call()
            except (Exception, SystemExit) as exc:  # argparse exits on bad arguments
                outcome.error = f"{type(exc).__name__}: {exc}"
            seconds = (time.perf_counter_ns() - start) / 1e9
        outcome.text = out.getvalue()
        if job.output is not None and outcome.error is None and outcome.value != 0:
            outcome.error = err.getvalue().strip() or f"exit code {outcome.value}"
        done.append((job, outcome, seconds))
        if probe is not None:
            probe.after_job(seconds)

    records = []
    for job, outcome, seconds in done:
        if job.output is not None and job.output.exists():
            outcome.data = job.output.read_bytes()
            job.output.unlink()
        error = outcome.error
        if error is None and check:
            try:
                job.check(outcome)
            except oracle.CheckFailed as exc:
                error = str(exc)
            except Exception as exc:  # malformed output the checks could not read
                error = f"unreadable output ({type(exc).__name__}: {exc})"
        records.append(JobRecord(job.kind, seconds, job.items, error, _digest(outcome),
                                 outcome.defects))
    return records


@dataclasses.dataclass
class PassResult:
    cycles: list  # one list of JobRecord per cycle

    @property
    def records(self) -> list[JobRecord]:
        return [r for cycle in self.cycles for r in cycle]

    @property
    def job_s(self) -> float:
        return sum(r.seconds for r in self.records)


def run_timed(workload, seed: int, workdir: Path, seconds: float, probe) -> PassResult:
    """Whole cycles until the jobs have taken ``seconds``. Each cycle is
    generated just before it runs, outside every timed interval."""
    cycles, k, wall_start, job_s = [], 0, time.monotonic(), 0.0
    while job_s < seconds and time.monotonic() - wall_start < WALL_LIMIT_S:
        cycles.append(run_cycle(workload.cycle(seed, k, workdir), probe=probe))
        job_s += sum(r.seconds for r in cycles[-1])
        k += 1
    return PassResult(cycles)


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def host_record() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters that import qorient and build the
    CLI parser; one unmeasured run first so bytecode caches exist."""
    cmd = [sys.executable, "-c", "import qorient, qorient.cli; qorient.cli.build_parser()"]
    times = []
    for k in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True, capture_output=True,
                       timeout=SUBPROCESS_TIMEOUT_S)
        if k:
            times.append(time.perf_counter() - start)
    return times


def run_worker_process(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(args, workload, workdir: Path) -> int:
    """Fresh process: run cycle 0 without checks, report digests and peak RSS."""
    records = run_cycle(workload.cycle(args.seed, 0, workdir), check=False)
    digests = [r.digest for r in records]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mib": peak_kib / 1024.0, "digests": digests}))
    return 0


def _failures(records, mismatched=()) -> list[str]:
    failed = [f"{r.kind}: {r.error}" for r in records if r.error is not None]
    failed += [f"{records[i].kind}: output differs between identical runs"
               for i in mismatched if records[i].error is None]
    return failed


def end_to_end(args, workload, workdir: Path) -> tuple[int, int, dict, dict]:
    setup_times = measure_setup()
    twin = run_worker_process(args)
    probe = SpeedProbe()
    probe.sample()
    timed = run_timed(workload, args.seed, workdir, args.seconds, probe)
    probe.sample()
    records = timed.records
    first = records[:len(twin["digests"])]
    mismatched = [i for i, (r, d) in enumerate(zip(first, twin["digests"])) if r.digest != d]
    failures = _failures(records, mismatched)

    n = len(records)
    items = sum(r.items for r in records)
    # Cycles share one mix, so each gives a sample of throughput and of
    # each percentile; medians over cycles ignore a cycle that a noisy
    # neighbour slowed, and do not depend on how many cycles a run reached
    # (over pooled jobs, a percentile that falls on a job type with one
    # job per cycle would be the min of 3 copies in one run, of 4 in the next).
    def over_cycles(stat):
        return statistics.median(stat(cycle) for cycle in timed.cycles)

    def percentile(q):
        return lambda cycle: nearest_rank(sorted(r.seconds * 1e3 for r in cycle), q)

    measured = {
        "items_per_s": over_cycles(lambda c: sum(r.items for r in c) / sum(r.seconds for r in c)),
        "job_ms_p50": over_cycles(percentile(0.50)),
        "job_ms_p90": over_cycles(percentile(0.90)),
    }
    scale = probe.scale
    metrics = {
        "items_per_s": (measured["items_per_s"] / scale, "1/s"),
        "job_ms_p50": (measured["job_ms_p50"] * scale, "ms"),
        "job_ms_p90": (measured["job_ms_p90"] * scale, "ms"),
        "peak_rss_mb": (twin["peak_rss_mib"], "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    lines = [f"{args.workload}: {len(timed.cycles)} cycles, {n} jobs, {timed.job_s:.3f} s of job time, "
             f"{items} {workload.item}",
             f"failed_ratio = {len(failures)}/{n} = {len(failures) / n:.4f}"]
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    per_cycle = len(timed.cycles[0])
    beyond = per_cycle - math.ceil(0.9 * per_cycle)
    if beyond < 10:
        top = ("no percentile of a cycle has ten" if per_cycle <= 10 else
               f"p{100 * (per_cycle - 10) / per_cycle:.0f} = "
               f"{over_cycles(percentile((per_cycle - 10) / per_cycle)) * scale:.6g} ms "
               f"is the highest with ten")
        lines.append(f"  note: percentiles are per cycle of {per_cycle} jobs, {beyond} of them "
                     f"beyond p90 ({'so p90 is the largest job; ' if not beyond else ''}"
                     f"{top} beyond it)")
    lines.append(f"  job times above are at probe reference speed {PROBE_REFERENCE_S * 1e3:g} ms; "
                 f"host probe median {probe.median_ms:.3f} ms over {len(probe.samples)} "
                 f"samples (min {min(probe.samples) * 1e3:.2f}, "
                 f"max {max(probe.samples) * 1e3:.2f}), "
                 f"scale {scale:.4f}")
    lines.append("  as measured: " + ", ".join(f"{k} = {v:.6g}" for k, v in measured.items()))
    lines.append(f"  setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    lines.append(f"  determinism: {len(first)} cycle-0 jobs compared with a fresh worker, "
                 f"{len(mismatched)} differ")
    lines += _defect_lines(records) + [f"  FAILED {f}" for f in failures[:20]]
    print("\n".join(lines), file=sys.stderr)
    return n, len(failures), metrics, {"host_probe_ms": probe.median_ms,
                                       "known_defects": known_defects(records)}


def known_defects(records) -> dict:
    """Instances of known program defects, by name (see ``Outcome.defects``)."""
    return dict(sorted(Counter(d for r in records for d in r.defects).items()))


def _defect_lines(records) -> list[str]:
    return [f"  known defect (not counted as failed): {name} = {count}"
            for name, count in known_defects(records).items()]


def traced_run(args, workload, workdir: Path) -> tuple[int, int, dict, dict]:
    import qorient
    import spans

    cycles = [workload.cycle(args.seed, k, workdir) for k in range(workload.trace_cycles)]
    base = PassResult([run_cycle(jobs) for jobs in cycles])
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced = PassResult([run_cycle(jobs) for jobs in cycles])
    mismatched = [i for i, (a, b) in enumerate(zip(base.records, traced.records))
                  if a.digest != b.digest]
    failures = _failures(base.records + traced.records, mismatched)

    peak_alloc = 0.0
    if tracer.largest_game is not None:
        game_args, game_kwargs, _ = tracer.largest_game
        tracemalloc.start()
        try:
            qorient.simulate.run_game(*game_args, **game_kwargs)
            peak_alloc = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    n = SELF_TEST_GRID
    out = workdir / "self_test.csv"
    argv = ["beta-surface", "--grid", str(n), "-o", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        passed, checked, mismatches = spans.self_test(lambda: qorient.cli.main(argv))
    out.unlink(missing_ok=True)
    if not passed:
        failures.append("instrument self-test: " + "; ".join(mismatches[:5]))

    metrics = spans.layer_metrics(tracer, base.job_s, traced.job_s, peak_alloc)
    attempted = len(base.records) + len(traced.records) + 1
    lines = [f"{args.workload} traced: {len(cycles)} cycles, {len(traced.records)} jobs, "
             f"{base.job_s:.3f} s untraced, {traced.job_s:.3f} s traced",
             f"  self-test beta-surface {n}x{n}: scoring.game_operator "
             f"{checked.calls['scoring.game_operator']} spans (n^2 = {n * n}), linalg.kron "
             f"{checked.calls['linalg.kron']} spans (18 n^2 = {18 * n * n}); spans match the "
             f"interpreter's call hook for all {len(checked.calls)} functions called: {passed}",
             f"  determinism: {len(mismatched)} of {len(base.records)} jobs differ between "
             f"the untraced and traced passes"]
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append("  spans by self time (calls, self s, total s, main caller):")
    callers = {}
    for (parent, child), count in tracer.edges.most_common():
        callers.setdefault(child, parent)
    busiest = sorted(tracer.self_ns, key=tracer.self_ns.get, reverse=True)[:15]
    lines += [f"    {name}: {tracer.calls[name]}, {tracer.self_ns[name] / 1e9:.4f}, "
              f"{tracer.total_ns[name] / 1e9:.4f}, {callers.get(name, '-')}" for name in busiest]
    lines += _defect_lines(traced.records) + [f"  FAILED {f}" for f in failures[:20]]
    print("\n".join(lines), file=sys.stderr)
    return attempted, len(failures), metrics, {"known_defects": known_defects(traced.records)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("figures", "pointwise", "sampling"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qorient" / "__init__.py").is_file():
        print(f"error: no qorient package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import qorient
    import workloads

    if not Path(qorient.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported qorient from {qorient.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / args.workload
    if args.worker:
        return worker(args, workload, workdir)

    host = host_record()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload.prepare(args.seed, workdir)
        run = traced_run if args.trace else end_to_end
        attempted, failed, metrics, record = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed, **record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
