"""A fixed reference computation that measures how fast this machine runs now.

On a shared host the CPU speed one thread gets moves by a third or more
over minutes (other tenants on the same cores, clock changes), and CPU
time moves with it. The benchmark therefore times a reference pass next to
the operations and reports their CPU time scaled to a nominal speed:

    scaled = cpu_seconds * NOMINAL_S / reference_seconds

The in-process pass does the kinds of work hqrsim does (many small complex
numpy calls, a 64x64 Hermitian eigenproblem, adaptive quadrature with a
Python integrand, sampling over arrays larger than L1, plain Python); the
child pass starts an interpreter and imports standard modules. Neither
calls hqrsim, so a change to hqrsim cannot move them.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy import integrate

# CPU seconds of one reference pass at the nominal speed; it only fixes the
# scale, and is about what one pass takes between operations on a 2-vCPU
# x86-64 cloud host.
NOMINAL_S = 0.040
SAMPLE_EVERY_S = 0.5  # wall seconds between in-process reference passes

# Work in a fresh interpreter (start-up, finding, unmarshalling and running
# modules) tracks the in-process reference poorly, so operations that start
# one are scaled by a child that imports a fixed set of standard modules.
CHILD_IMPORTS = ("argparse, asyncio, csv, dataclasses, decimal, email.mime.multipart, "
                 "fractions, http.server, inspect, json, logging, statistics, tarfile, "
                 "typing, unittest, urllib.request, xml.dom.minidom, zipfile")
CHILD_NOMINAL_S = 0.2

_rng = np.random.default_rng(12345)
_H = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_H = _H + _H.conj().T


def _integrand(x: float) -> float:
    return math.exp(-x * x) * math.cos(3.0 * x)


def _work() -> float:
    acc = 0.0
    for rep in range(300):  # many small complex ufunc calls, as in state construction
        d = 3 + rep % 6
        j = np.arange(d)
        g = np.exp((0.5 + 0.01 * rep) * (np.exp(2j * np.pi * j / d) - 1.0))
        v = d * (np.exp(2j * np.pi * j[None, :] * j[:, None] / d) * g[None, :]).sum(axis=1)
        c = np.sqrt(np.abs(v)) / d
        acc += float(np.max(np.abs(v.imag))) + float(np.outer(c, c.conj()).real.trace())
    for _ in range(6):  # a Hermitian eigenproblem of the largest size the scans use
        acc += float(np.linalg.eigvalsh(_H)[0])
    for k in range(6):  # adaptive quadrature with a Python integrand, as in detection
        acc += integrate.quad(_integrand, -5.0 - k, 5.0)[0]
    rng = np.random.default_rng(7)
    for _ in range(2):  # sampling over arrays larger than L1, as in the Monte Carlo
        w = np.maximum(rng.geometric(0.3, size=100_000), rng.geometric(0.3, size=100_000))
        acc += float(w[rng.random(w.size) >= 0.8].sum())
    s = 0
    for i in range(20_000):  # plain interpreted Python
        s += i * i % 7
    return acc + s


def sample() -> float:
    """CPU seconds of one in-process reference pass."""
    c0 = time.process_time()
    _work()
    return time.process_time() - c0


def children_cpu() -> float:
    """User + system CPU seconds of all waited-for child processes so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def child_sample() -> float:
    """CPU seconds of a fresh isolated interpreter importing CHILD_IMPORTS."""
    c0 = children_cpu()
    subprocess.run([sys.executable, "-I", "-c", "import " + CHILD_IMPORTS],
                   capture_output=True, check=True, timeout=60)
    return children_cpu() - c0


class Speed:
    """Reference passes taken over a run: `start` at its beginning, then one
    before an operation whenever `every_s` of wall time has passed since the
    last pass. One scale for the whole run: a scale per block would add its
    own noise to every operation's time, and widen the tail."""

    def __init__(self, sample=sample, nominal_s=NOMINAL_S, start=3, every_s=SAMPLE_EVERY_S):
        self._sample, self._nominal_s, self._every_s = sample, nominal_s, every_s
        self.passes = [sample() for _ in range(start)]
        self._last = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self._last >= self._every_s:
            self.passes.append(self._sample())
            self._last = time.perf_counter()

    @property
    def scale(self) -> float:
        """Factor that turns CPU seconds measured now into nominal seconds."""
        return self._nominal_s / statistics.median(self.passes)


def child_speed(start: int = 1) -> Speed:
    """Speed of fresh interpreters: one child pass before every operation."""
    return Speed(child_sample, CHILD_NOMINAL_S, start, every_s=0.0)
