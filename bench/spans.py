"""Span tracer that gives the benchmark its per-layer numbers.

``traced(tracer)`` wraps every public function of the seven qorient
modules (the layers) in a span, plus ``QuantumState`` construction, and
rebinds each wrapper in every qorient namespace that holds the function:
``spectra`` imports ``game_operator`` by name, ``simulate`` imports
``beta_value``, ``cli`` imports ``sweep_surface`` and ``run_game``, and
the package re-exports nearly everything. Internal calls are therefore
seen as well as the benchmark's own.

A traced run records millions of spans (18 Kronecker products per game
operator), so spans are aggregated as they close rather than stored:
calls, total and self time per function, calls per (parent, child)
pair, and calls made while a scope function is open. Self time is span
time minus the time of child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("linalg", "states", "scoring", "spectra", "classical", "simulate", "cli")
# calls made inside these are counted per callee: kron per operator, and
# operators per grid point
SCOPES = ("scoring.game_operator", "spectra.sweep_surface")
# as_matrix validates both factors of every Kronecker product (36 calls per
# game operator); a span on it alone made traced figures runs ~25% slower.
# Its time stays in the self time of its callers.
UNTRACED = ("linalg.as_matrix",)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.edges = Counter()  # (parent span, child span) -> calls
        self.under = Counter()  # (open scope, span) -> calls
        self.points = 0  # rows produced by sweep_surface
        self.trials = 0  # rounds played by run_game
        self.bytes_written = 0  # dataset bytes written by write_dataset
        self.largest_game = None  # (args, kwargs, n_trials) of the largest run_game call
        self._stack = []  # [name, child_ns] per open span
        self._open = Counter()

    def wrap(self, name, fn):
        stack, is_scope = self._stack, name in SCOPES
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self.calls[name] += 1
            if stack:
                self.edges[(stack[-1][0], name)] += 1
            for scope, depth in self._open.items():
                if depth:
                    self.under[(scope, name)] += 1
            frame = [name, 0]
            stack.append(frame)
            if is_scope:
                self._open[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                if is_scope:
                    self._open[name] -= 1
                stack.pop()
                self.total_ns[name] += elapsed
                self.self_ns[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return span

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(prefix)) / 1e9


# Hooks read results through getattr so that a changed return type costs
# a count, not a failed job.
def _count_points(tracer, result, args, kwargs):
    tracer.points += len(getattr(result, "rows", ()))


def _count_trials(tracer, result, args, kwargs):
    n_trials = getattr(result, "n_trials", 0)
    tracer.trials += n_trials
    best = tracer.largest_game
    if best is None or n_trials > best[2]:
        tracer.largest_game = (args, kwargs, n_trials)


def _count_bytes(tracer, result, args, kwargs):
    for value in (*args, *kwargs.values()):
        output = getattr(value, "output", None)
        if isinstance(output, str) and os.path.exists(output):
            tracer.bytes_written += os.path.getsize(output)
            return


_HOOKS = {
    "spectra.sweep_surface": _count_points,
    "simulate.run_game": _count_trials,
    "cli.write_dataset": _count_bytes,
}


def targets() -> dict:
    """Original function -> span name, for every public function of a layer,
    plus ``QuantumState.__post_init__`` (validation) as ``states.QuantumState``."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"qorient.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                found[obj] = name
    states = importlib.import_module("qorient.states")
    found[states.QuantumState.__post_init__] = "states.QuantumState"
    return found


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers for the duration of the block; yields the
    original-function -> name mapping."""
    names = targets()
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in names.items()}
    namespaces = [importlib.import_module("qorient")]
    namespaces += [importlib.import_module(f"qorient.{layer}") for layer in LAYERS]
    patched = []
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                patched.append((mod, attr, obj))
    quantum_state = importlib.import_module("qorient.states").QuantumState
    post_init = quantum_state.__post_init__
    quantum_state.__post_init__ = wrappers[post_init]
    patched.append((quantum_state, "__post_init__", post_init))
    try:
        yield names
    finally:
        for owner, attr, obj in reversed(patched):
            setattr(owner, attr, obj)


def self_test(run_job) -> tuple[bool, Tracer, list[str]]:
    """Trace ``run_job`` while the interpreter's profile hook counts calls
    of the same original functions; every span count must equal the
    hook's count. Returns (passed, tracer, mismatch descriptions)."""
    tracer = Tracer()
    hook_calls = Counter()
    with traced(tracer) as names:
        codes = {fn.__code__: name for fn, name in names.items()}

        def profile(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    hook_calls[name] += 1

        sys.setprofile(profile)
        try:
            run_job()
        finally:
            sys.setprofile(None)
    mismatches = [f"{name}: {tracer.calls[name]} spans, {hook_calls[name]} calls"
                  for name in sorted(set(tracer.calls) | set(hook_calls))
                  if tracer.calls[name] != hook_calls[name]]
    return not mismatches, tracer, mismatches


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float,
                  peak_alloc_mib: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
    calls, self_s = tracer.calls, (lambda name: tracer.self_ns[name] / 1e9)
    operators = calls["scoring.game_operator"]
    closed_forms = ("spectra.closed_form_two_param", "spectra.closed_form_one_param")
    write_s = tracer.total_ns["cli.write_dataset"] / 1e9
    m = {
        "scoring.game_operator.calls": (operators, "count"),
        "scoring.game_operator.self_s": (self_s("scoring.game_operator"), "s"),
        "linalg.kron.calls": (calls["linalg.kron"], "count"),
        "states.projector.calls": (calls["states.projector"], "count"),
        "scoring.kron_per_operator": (
            _ratio(tracer.under[("scoring.game_operator", "linalg.kron")], operators), "ratio"),
        "linalg.hermitian_eigen.calls": (calls["linalg.hermitian_eigen"], "count"),
        "linalg.hermitian_eigen.self_s": (self_s("linalg.hermitian_eigen"), "s"),
        "spectra.closed_form.calls": (sum(calls[n] for n in closed_forms), "count"),
        "spectra.closed_form.self_s": (sum(self_s(n) for n in closed_forms), "s"),
        "spectra.sweep_surface.self_s": (self_s("spectra.sweep_surface"), "s"),
        "spectra.points": (tracer.points, "count"),
        "spectra.operators_per_point": (
            _ratio(tracer.under[("spectra.sweep_surface", "scoring.game_operator")],
                   tracer.points), "ratio"),
        "spectra.find_optimum.self_s": (self_s("spectra.find_optimum"), "s"),
        "scoring.beta_value.calls": (calls["scoring.beta_value"], "count"),
        "scoring.beta_value.self_s": (self_s("scoring.beta_value"), "s"),
        "scoring.joint_probability.calls": (calls["scoring.joint_probability"], "count"),
        "states.QuantumState.calls": (calls["states.QuantumState"], "count"),
        "states.QuantumState.self_s": (self_s("states.QuantumState"), "s"),
        "simulate.run_game.self_s": (self_s("simulate.run_game"), "s"),
        "simulate.trials": (tracer.trials, "count"),
        "simulate.run_game.peak_alloc_mb": (peak_alloc_mib, "MiB"),
        "simulate.synth_counts.self_s": (self_s("simulate.synth_counts"), "s"),
        "simulate.fit_noise.self_s": (self_s("simulate.fit_noise"), "s"),
        "cli.write_dataset.self_s": (self_s("cli.write_dataset"), "s"),
        "cli.bytes_written": (tracer.bytes_written, "bytes"),
        "cli.write_mb_per_s": (_ratio(tracer.bytes_written / 2**20, write_s), "MiB/s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    m["trace.overhead_ratio"] = (_ratio(traced_s, untraced_s), "ratio")
    return m
