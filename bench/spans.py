"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each irsec module and patches
the wrapper into every module that holds a reference to the original,
so calls made inside the package are seen as well as calls made by the
benchmark. Nothing in the package itself is edited.

Each call records one span: name, start, end, parent span and job id,
kept in flat arrays so that the few million spans of a design-grid job
fit in tens of megabytes. Self times, counts and the per-layer metrics
are derived from the spans after the job has finished.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

# Layers in dependency order, as the per-layer metric names spell them.
LAYERS = ("specfun", "channel", "eccore", "rateopt", "mcoracle", "sweeps", "cli")

# Private functions wrapped because a per-layer metric is named after them.
_EXTRA = {"cli": {"_cmd_validate": "cli.validate"}}

# Functions whose result is a SampleBatch; the span records its size.
_SAMPLERS = ("channel.sample_siso_snr", "channel.sample_miso_snr")


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


def patch(wrappers: dict, modules) -> list:
    """Replace each wrapped function in every module whose globals hold it.

    wrappers maps an original function to its wrapper; returns what
    unpatch() needs to put the originals back.
    """
    patches = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patches.append((module, attr, value))
    return patches


def unpatch(patches: list) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)
    patches.clear()


class Tracer:
    """Records one span per wrapped call; install, run, uninstall, summarize."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.slots: dict[int, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        name_ix, parent, job, start, end = (self.name_ix, self.parent, self.job,
                                            self.start, self.end)
        stack, slots, job_id = self._stack, self.slots, self.job_id
        clock = time.perf_counter_ns
        sampler = label in _SAMPLERS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(name_ix)
            name_ix.append(nid)
            parent.append(stack[-1])
            job.append(job_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if sampler:
                slots[i] = result.values.size
            return result

        return span

    def install(self, layers: dict, importers) -> None:
        """Wrap each layer's public functions wherever they are referenced.

        layers maps a layer name from LAYERS to its module; importers are
        further modules (such as a script) whose globals may hold them.
        """
        wrappers = {}
        for short, module in layers.items():
            for name, fn in _public_functions(module):
                wrappers[fn] = self._wrap(f"{short}.{name}", fn)
            for name, label in _EXTRA.get(short, {}).items():
                fn = getattr(module, name)
                wrappers[fn] = self._wrap(label, fn)
        self._patches = patch(wrappers, list(layers.values()) + list(importers))

    def uninstall(self) -> None:
        unpatch(self._patches)

    def summarize(self, job_s: float) -> dict:
        """Per-function table, coverage of job_s, and the per-layer metrics."""
        return _Spans(self).summarize(job_s)


class _Spans:
    """Array view of the recorded spans with the derivations on top."""

    def __init__(self, tracer: Tracer):
        self.labels = tracer.names
        self.ids = {label: i for i, label in enumerate(tracer.names)}
        self.name = np.frombuffer(tracer.name_ix, dtype=np.intc).astype(np.int64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.intc).astype(np.int64)
        start = np.frombuffer(tracer.start, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        self.start = start
        self.end = end
        self.dur = (end - start).astype(np.float64) * 1e-9
        n = self.dur.size
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=n)
        self.self_s = self.dur - child
        self.slots = tracer.slots

    def _mask(self, labels) -> np.ndarray:
        ids = [self.ids[label] for label in labels if label in self.ids]
        return np.isin(self.name, ids)

    def _outermost(self, mask: np.ndarray) -> np.ndarray:
        """Indices of masked spans not nested inside another masked span."""
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return idx
        ends = self.end[idx]
        reach = np.maximum.accumulate(ends)
        prev = np.concatenate(([np.iinfo(np.int64).min], reach[:-1]))
        return idx[self.start[idx] >= prev]

    def calls(self, label: str) -> int:
        return int(np.count_nonzero(self._mask([label])))

    def busy(self, labels) -> float:
        return float(self.dur[self._outermost(self._mask(labels))].sum())

    def self_time(self, label: str) -> float:
        return float(self.self_s[self._mask([label])].sum())

    def inside(self, inner: str, outer: str) -> int:
        """Number of `inner` spans that run under some `outer` span."""
        outer_ix = self._outermost(self._mask([outer]))
        inner_ix = np.flatnonzero(self._mask([inner]))
        if outer_ix.size == 0 or inner_ix.size == 0:
            return 0
        starts = self.start[outer_ix]
        k = np.searchsorted(starts, self.start[inner_ix], side="right") - 1
        ok = k >= 0
        under = self.start[inner_ix][ok] < self.end[outer_ix][k[ok]]
        return int(np.count_nonzero(under))

    def sampler(self, label: str) -> tuple[int, float, int]:
        idx = np.flatnonzero(self._mask([label]))
        slots = sum(self.slots.get(int(i), 0) for i in idx)
        return int(idx.size), float(self.dur[idx].sum()), slots

    def kappa_fits(self) -> tuple[int, int, float]:
        """(miso_snr_dist calls, calls that ran a fit, busy time of fits)."""
        dist = np.flatnonzero(self._mask(["channel.miso_snr_dist"]))
        sampler = self._mask(["channel.sample_miso_snr"])
        fitting = np.isin(dist, self.parent[sampler])
        return int(dist.size), int(np.count_nonzero(fitting)), \
            float(self.dur[dist[fitting]].sum())

    def summarize(self, job_s: float) -> dict:
        table = {}
        for label in self.labels:
            mask = self._mask([label])
            count = int(np.count_nonzero(mask))
            if count:
                table[label] = {"calls": count,
                                "self_s": float(self.self_s[mask].sum()),
                                "busy_s": self.busy([label])}
        wrapped_s = float(self.dur[self.parent < 0].sum())
        return {"spans": int(self.dur.size), "functions": table,
                "wrapped_s": wrapped_s, "unwrapped_s": job_s - wrapped_s,
                "metrics": self.metrics()}

    def metrics(self) -> dict:
        m = {}
        siso_calls, siso_s, siso_slots = self.sampler("channel.sample_siso_snr")
        _, miso_s, miso_slots = self.sampler("channel.sample_miso_snr")
        m["channel.sample_siso.calls"] = siso_calls
        m["channel.sample_siso.slots_per_s"] = siso_slots / siso_s if siso_s else 0.0
        m["channel.sample_miso.slots_per_s"] = miso_slots / miso_s if miso_s else 0.0
        dist_calls, fits, fit_s = self.kappa_fits()
        m["channel.kappa_fit.count"] = fits
        m["channel.kappa_fit.busy_s"] = fit_s
        m["channel.kappa_fit.hit_ratio"] = \
            (dist_calls - fits) / dist_calls if dist_calls else 0.0
        m["mcoracle.empirical_ec.calls"] = self.calls("mcoracle.empirical_ec")
        m["mcoracle.empirical_ec.busy_s"] = self.busy(["mcoracle.empirical_ec"])
        m["mcoracle.simulate_service.self_s"] = \
            self.self_time("mcoracle.simulate_service")
        grid_calls = self.calls("rateopt.grid_argmax_rate")
        m["rateopt.grid_argmax_rate.busy_s"] = self.busy(["rateopt.grid_argmax_rate"])
        m["rateopt.grid_argmax_rate.evals_per_solve"] = (
            self.inside("eccore.on_off_probs", "rateopt.grid_argmax_rate")
            / grid_calls if grid_calls else 0.0)
        root_calls = self.calls("rateopt.solve_rate_miso_exact")
        m["rateopt.solve_rate_miso_exact.us_per_call"] = (
            1e6 * self.busy(["rateopt.solve_rate_miso_exact"]) / root_calls
            if root_calls else 0.0)
        m["channel.snr_cdf.calls"] = self.calls("channel.snr_cdf")
        m["specfun.marcum_q_half.calls"] = self.calls("specfun.marcum_q_half")
        m["specfun.busy_s"] = self.busy(
            [label for label in self.labels if label.startswith("specfun.")])
        for branch in ("ec_siso_csi", "ec_siso_nocsi", "ec_miso_csi", "ec_miso_nocsi"):
            label = f"eccore.{branch}"
            calls = self.calls(label)
            m[f"{label}.calls"] = calls
            m[f"{label}.us_per_call"] = \
                1e6 * self.busy([label]) / calls if calls else 0.0
        m["sweeps.run_sweep.self_s"] = self.self_time("sweeps.run_sweep")
        m["sweeps.emit.busy_s"] = self.busy(["sweeps.emit_csv", "sweeps.emit_plot"])
        m["cli.validate.self_s"] = self.self_time("cli.validate")
        return m
