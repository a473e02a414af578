"""Measurement core: layer spans, the timed pass loop and its statistics.

A workload is a fixed list of items.  A pass runs every item once, in
order; the benchmark repeats passes for the requested number of seconds.
An item that raises is recorded as failed and the pass goes on.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mapstop.errors import MapstopError


class Tracer:
    """Spans around the benchmark's calls into the program, kept in memory.

    Each span is [id, parent, item, name, pass, start, end, failed]; the
    spans of one item share the item span's id.  Counts are (pass, name,
    value) records made at the same boundaries.  A disabled tracer calls
    straight through and records nothing.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans = []
        self.counts = []
        self.pass_no = 0
        self._stack = []
        self._item = None

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(layer):
            return fn(*args, **kwargs)

    def count(self, name: str, value) -> None:
        if self.enabled:
            self.counts.append((self.pass_no, name, float(value)))

    @contextmanager
    def span(self, name: str, item: bool = False):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        if item:
            self._item = sid
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, self._item, name, self.pass_no, time.perf_counter(), None, True]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
            rec[7] = False
        finally:
            rec[6] = time.perf_counter()
            self._stack.pop()
            if item:
                self._item = None

    def self_times(self):
        """Span id -> duration minus the time its child spans cover."""
        child = {}
        for sid, parent, _, _, _, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        return {s[0]: (s[6] - s[5]) - child.get(s[0], 0.0) for s in self.spans}


@dataclass
class Item:
    """One unit of workload work and the check of its outputs.

    run(tracer, outs) returns a dict of numeric outputs; outs holds the
    outputs of the items already run in this pass.  check(out, outs)
    returns (ok, detail).  anchor marks checks that the repository's own
    test suite asserts on the same kind of input; they gate `correct`.
    """

    name: str
    run: Callable
    check: Callable
    anchor: bool = False


@dataclass
class Outcome:
    """An item's times and either its outputs or its error, as `name: message`.

    `seconds` is wall time; `scaled` is wall time at the reference host
    speed (see `host_probe`).  The error is kept as text: an exception
    object would keep its frames, and their arrays, alive for the rest of
    the run.
    """

    seconds: float
    scaled: float
    outputs: dict = None
    error: str = None


# Besides the per-core spells CorePicker avoids, the host as a whole runs
# up to 2x slower for minutes at a time, and process CPU time grows with it.  A fixed probe of interpreter,
# small-array and eigenvalue work, timed right before and right after each
# timed call, measures that speed; times are scaled by CAL_REF over the
# probe's mean, i.e. reported at the speed at which the probe takes
# CAL_REF seconds (its time on a quiet core of the 2-core 2.0 GHz Xeon host
# the benchmark was tuned on).  The probe runs no program code.
CAL_REF = 2.0e-3
_CAL = np.random.default_rng(0)
_CAL_A = _CAL.standard_normal((6, 6))
_CAL_X = _CAL.random(2000)
_CAL_IDX = np.arange(0, 2000, 3)


def host_probe() -> float:
    """Seconds the fixed calibration work takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(40):
        for j in range(300):
            acc += j * 0.5
        y = np.minimum(_CAL_X, 0.5)
        acc += float(np.where(y > 0.2, y, 0.0)[_CAL_IDX].sum())
        acc += float(np.linalg.eigvals(_CAL_A + k).real.max())
    return time.perf_counter() - t0


def timed(fn):
    """Run fn(); returns (its result or exception, wall s, scaled s)."""
    before = host_probe()
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # handed back to the caller, which counts it
        result = exc
    wall = time.perf_counter() - t0
    after = host_probe()
    return result, wall, wall * CAL_REF / (0.5 * (before + after))


PICK_INTERVAL = 0.25


class CorePicker:
    """Moves this process to the allowed core that currently runs fastest.

    On a shared host another tenant's load slows one core at a time, by
    up to 2x for seconds to tens of seconds.  A short fixed loop timed on
    each core finds the quieter one; the pick is repeated at most every
    PICK_INTERVAL seconds.  Child processes inherit the pick.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._last = -float("inf")

    @staticmethod
    def _probe() -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for k in range(2000):
                acc += k * k
            best = min(best, time.perf_counter() - t0)
        return best

    def pick(self) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or now - self._last < PICK_INTERVAL:
            return
        speeds = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append((self._probe(), cpu))
        os.sched_setaffinity(0, {min(speeds)[1]})
        self._last = time.perf_counter()


def run_pass(items, tracer: Tracer, picker: CorePicker):
    """Run every item once; returns (outcomes, wall seconds)."""
    outcomes = []
    outs = {}
    t_pass = time.perf_counter()
    with tracer.span("pass"):
        for it in items:
            picker.pick()

            def call(it=it):
                with tracer.span("item", item=True):
                    return it.run(tracer, outs)

            result, wall, scaled = timed(call)
            if isinstance(result, Exception):  # a failed item is counted, never fatal
                outcomes.append(Outcome(wall, scaled, error=f"{error_name(result)}: {result}"))
            else:
                outs[it.name] = result
                outcomes.append(Outcome(wall, scaled, outputs=result))
    return outcomes, time.perf_counter() - t_pass


def measure(items, seconds: float, tracer: Tracer, picker: CorePicker,
            alternate: bool = False, between: Callable = None):
    """Passes until the next one would take the passes past `seconds`.

    At least one pass runs.  With `alternate`, passes switch between
    untraced and traced, starting untraced, and at least one of each runs.
    `between` is called after every pass; its time does not count.
    """
    passes = []
    while True:
        if alternate:
            tracer.enabled = len(passes) % 2 == 1
        passes.append(run_pass(items, tracer, picker))
        tracer.pass_no += 1
        if between is not None:
            between()
        walls = [wall for _, wall in passes]
        if len(passes) >= 1 + alternate and sum(walls) + statistics.median(walls) > seconds:
            return passes


def best_times(passes):
    """Each item's fastest scaled time over the passes.

    Scaling removes most of the host's slow spells; the fastest repeat
    discards the rest.
    """
    return [min(outcomes[i].scaled for outcomes, _ in passes)
            for i in range(len(passes[0][0]))]


def error_name(exc: BaseException) -> str:
    kind = "" if isinstance(exc, MapstopError) else "untyped "
    return f"{kind}{type(exc).__name__}"


def fingerprint(items, outcomes) -> str:
    """sha256 of the pass outputs written as canonical %.12g text."""
    h = hashlib.sha256()
    for it, oc in zip(items, outcomes):
        if oc.error is not None:
            h.update(f"{it.name} raise {oc.error.split(':')[0]}\n".encode())
            continue
        for key in sorted(oc.outputs):
            vals = np.asarray(oc.outputs[key])
            if np.iscomplexobj(vals):
                vals = np.stack([vals.real, vals.imag], axis=-1)
            text = " ".join("%.12g" % v for v in vals.astype(float).ravel())
            h.update(f"{it.name} {key} {text}\n".encode())
    return h.hexdigest()


def tail_percentile(n_items: int) -> float:
    """Highest whole percentile with at least ten of n items beyond it.

    Below 50 the sample has no tail to speak of and the maximum
    (percentile 100) is reported instead.
    """
    pct = (100 * n_items - 1000) // n_items if n_items > 10 else 0
    return float(pct) if pct >= 50 else 100.0


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct))
