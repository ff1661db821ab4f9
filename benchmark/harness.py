"""Shared pieces of the workloads: requests, the closed loop, statistics."""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass
class Request:
    """One question a caller asks and waits for.

    ``check`` verifies a normal answer against an independent route and
    returns an error message or None; it runs after the timed phase, once
    per distinct ``key`` (later answers for the same key must be equal to
    the first).  A request with ``control`` set is a negative control: its
    correct outcome is a failure, and ``control(output, error)`` says
    whether that failure happened.
    """

    kind: str
    order: int | None
    key: tuple
    call: Callable[[], object]
    check: Callable[[object], str | None] | None = None
    control: Callable[[object, BaseException | None], bool] | None = None
    exact: bool = True
    words: tuple[int, ...] = ()


def raises(exc_type):
    def caught(output, error):
        return isinstance(error, exc_type)

    caught.__name__ = f"raises {exc_type.__name__}"
    return caught


class Recorder:
    """Latencies, first answers per key, and failures of one closed loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.keys: list[tuple] = []
        self.first: dict[tuple, object] = {}
        self.requests: dict[tuple, Request] = {}
        self.failed_at: dict[int, str] = {}
        self.controls_run = 0
        self.controls_caught = 0

    def record(self, index, req, latency, output, error):
        self.latencies.append(latency)
        self.keys.append(req.key)
        if req.control is not None:
            self.controls_run += 1
            if req.control(output, error):
                self.controls_caught += 1
            else:
                outcome = f"raised {error!r}" if error is not None else "answered"
                self.failed_at[index] = f"control {req.kind} not caught ({outcome})"
            return
        if error is not None:
            self.failed_at[index] = f"{req.kind}: raised {error!r}"
            return
        if req.key not in self.first:
            self.first[req.key] = output
            self.requests[req.key] = req
        elif output != self.first[req.key]:
            self.failed_at[index] = f"{req.kind}: answer differs from an earlier identical request"


class Calibration:
    """A host-speed probe: a fixed piece of work no library change can speed up.

    A shared host can change speed by 1.4x and more, from one second to the
    next and for minutes at a time, and CPU time follows wall time there,
    so neither cancels it.  A probe is timed next to the requests it
    covers, and their times are reported as wall time * ``ref`` / (mean of
    the probe times right before and after them): seconds on a host where
    the probe takes ``ref`` seconds.  Probes next to the request track the
    host better than any average over a longer window.
    """

    def __init__(self, kernel, ref):
        self.kernel = kernel
        self.ref = ref

    def factor(self, before, after):
        return self.ref / (0.5 * (before + after))


def cpu_kernel():
    """Seconds some stdlib Fraction arithmetic and dict updates take now.

    The collector is off while it runs so that it never collects the
    library's garbage.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 60):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    d = {}
    for i in range(1200):
        d[i % 97] = d.get(i % 97, 0) + i * 0.5
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def import_kernel(root, env):
    """Seconds a child interpreter takes to start and import numpy.

    Process start and imports slow down with the host in their own way,
    which cpu_kernel does not follow; this probe does.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=root, env=env, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


# Probe times on the reference host: reported times are seconds there.
CPU = Calibration(cpu_kernel, ref=5e-4)


def imports(root, env):
    return Calibration(lambda: import_kernel(root, env), ref=0.15)


def run_loop(requests, recorder, seconds=None, epochs=None, before=None, calibration=None):
    """Repeat the epoch until ``seconds`` have passed (finishing the epoch)
    or exactly ``epochs`` times.  ``before(i)`` runs ahead of request i.
    Latencies are rescaled by ``calibration``, or raw wall time without one.
    Returns (wall seconds, epochs run)."""
    start = time.perf_counter()
    done = 0
    probe = calibration.kernel() if calibration else None
    while True:
        for req in requests:
            if before is not None:
                before(len(recorder.latencies))
            t0 = time.perf_counter()
            try:
                output, error = req.call(), None
            except Exception as exc:  # recorded as a failed request
                output, error = None, exc
            latency = time.perf_counter() - t0
            if calibration:
                after = calibration.kernel()
                latency *= calibration.factor(probe, after)
                probe = after
            recorder.record(len(recorder.latencies), req, latency, output, error)
        done += 1
        elapsed = time.perf_counter() - start
        if (epochs is not None and done >= epochs) or (epochs is None and elapsed >= seconds):
            return elapsed, done


def check_answers(recorder, tamper):
    """Check each distinct answer; then check that every check can fail.

    Returns (failed keys with messages, checker-control failures).
    """
    bad = {}
    for key, output in recorder.first.items():
        req = recorder.requests[key]
        if req.check is None:
            continue
        msg = req.check(output)
        if msg:
            bad[key] = f"{req.kind} order {req.order}: {msg}"
    uncaught = []
    seen_kinds = set()
    for key, output in recorder.first.items():
        req = recorder.requests[key]
        if req.check is None or req.kind in seen_kinds or key in bad:
            continue
        seen_kinds.add(req.kind)
        if not req.check(tamper(req, output)):
            uncaught.append(f"check for {req.kind} accepted a tampered answer")
    return bad, uncaught


def tail(latencies):
    """(value, percentile) at the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def median(values):
    return statistics.median(values)
