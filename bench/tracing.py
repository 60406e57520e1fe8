"""Layer spans recorded from outside the package.

Every public function in LAYER_PATCHES is replaced, at the name through
which hetreg looks it up, by a wrapper that records one span per call.
Spans nest on a per-thread stack, so a span's self time is its duration
minus the time of the spans it called on the same thread; busy time is the
plain duration, summed over threads.  Nothing under src/hetreg is changed
and `Tracer.restore` puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# (module, attribute, span name).  A function is patched in every module that
# looks it up by name, so each call goes through exactly one wrapper.
LAYER_PATCHES = [
    ("hetreg.cli", "main", "cli"),
    ("hetreg.cli", "estimate", "selection.estimate"),
    ("hetreg.experiments", "estimate", "selection.estimate"),
    ("hetreg.selection", "weight_family", "weights.weight_family"),
    ("hetreg.experiments", "weight_family", "weights.weight_family"),
    ("hetreg.selection", "discrete_fourier", "basis.discrete_fourier"),
    ("hetreg.theory", "discrete_fourier", "basis.discrete_fourier"),
    ("hetreg.selection", "select", "selection.select"),
    ("hetreg.experiments", "select", "selection.select"),
    ("hetreg.selection", "trig_series", "basis.trig_series"),
    ("hetreg.basis", "trig_series", "basis.trig_series"),
    ("hetreg.basis", "basis_matrix", "basis.basis_matrix"),
    ("hetreg.experiments", "basis_matrix", "basis.basis_matrix"),
    ("hetreg.lowerbound", "basis_eval_matrix", "basis.basis_eval_matrix"),
    ("hetreg.experiments", "substream", "models.substream"),
    ("hetreg.lowerbound", "substream", "models.substream"),
    ("hetreg.models", "simpson_integral", "models.simpson_integral"),
    ("hetreg.lowerbound", "simpson_integral", "models.simpson_integral"),
    ("hetreg.theory", "simpson_integral", "models.simpson_integral"),
    ("hetreg.lowerbound", "kernel_function", "lowerbound.kernel_function"),
    ("hetreg.experiments", "bayes_risk_mc", "lowerbound.bayes_risk_mc"),
    ("hetreg.experiments", "prior_van_trees_bound", "lowerbound.prior_van_trees_bound"),
    ("hetreg.experiments", "least_favorable_prior", "lowerbound.least_favorable_prior"),
    ("hetreg.experiments", "oracle_index", "theory.oracle_index"),
    ("hetreg.experiments", "pinsker_constant", "theory.pinsker_constant"),
    ("hetreg.lowerbound", "pinsker_constant", "theory.pinsker_constant"),
]


class Tracer:
    """Aggregated spans: per name, calls, busy seconds and self seconds."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._undo: list = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.table = {}
            with self._lock:
                self._tables.append(self._local.table)
        return stack

    def open(self) -> list:
        frame = [perf_counter(), 0.0]  # start, time spent in child spans
        self._stack().append(frame)
        return frame

    def close(self, name: str, frame: list) -> None:
        duration = perf_counter() - frame[0]
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][1] += duration
        rec = self._local.table.get(name)
        if rec is None:
            rec = self._local.table[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[1]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(name, frame)

        return traced

    def reset(self) -> None:
        with self._lock:
            for table in self._tables:
                table.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "busy_s", "self_s"}} summed over threads."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            for table in self._tables:
                for name, (calls, busy, self_s) in table.items():
                    agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                    agg["calls"] += calls
                    agg["busy_s"] += busy
                    agg["self_s"] += self_s
        return out

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self) -> None:
        for module, attr, name in LAYER_PATCHES:
            owner = importlib.import_module(module)
            self._set(owner, attr, self.wrap(name, getattr(owner, attr)))

        models = importlib.import_module("hetreg.models")
        self._set(models.NoiseSpec, "draw", self.wrap("models.noise_draw", models.NoiseSpec.draw))

        # the CLI dispatches studies through its own table
        cli = importlib.import_module("hetreg.cli")
        for key in list(cli._STUDIES):
            self._set(cli._STUDIES, key, self.wrap("experiments.study", cli._STUDIES[key]))

        # g2 / frechet are closures of the scale model: wrap each model as the
        # studies resolve it from the config
        experiments = importlib.import_module("hetreg.experiments")
        resolve = experiments.resolve_scale

        def traced_resolve_scale(spec):
            scale = resolve(spec)
            frechet = scale.frechet and self.wrap("models.scale_frechet", scale.frechet)
            return dataclasses.replace(
                scale, g2=self.wrap("models.scale_g2", scale.g2), frechet=frechet
            )

        self._set(experiments, "resolve_scale", traced_resolve_scale)

        # replicate blocks run on pool threads: a block span on the worker and
        # a wait span on the submitting thread keep study self time per thread
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                self._wait = tracer.open()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close("experiments.pool_wait", self._wait)

            def map(self, fn, *iterables, **kwargs):
                return super().map(tracer.wrap("experiments.block", fn), *iterables, **kwargs)

        self._set(experiments, "ThreadPoolExecutor", TracedPool)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
