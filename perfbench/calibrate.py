"""Calibration kernels that put a run's times on one reference speed.

The shared host this benchmark was built on changes speed by up to 2x
from one minute to the next, for every process alike.  A run therefore
times a fixed kernel of the benchmark's own code between requests and
scales the times the kernel tracks by REFERENCE_MS / (median kernel
time).  The kernels never call qcamaj, so a change to qcamaj moves only
the requests, not the scale.

Each kernel resembles the requests it scales.  Over eight 12 s
processes the median sim-gate latency ranged +-13% while its ratio to
the text kernel ranged +-4% (verify: +-18% against +-7%), and the
median class-2 synth latency ranged +-27% against +-3.5% for its ratio
to the search kernel.  No kernel tracked the multi-second class-3
searches: scaling them by the search kernel spread them wider than the
raw times, so the synth-requests metrics they dominate stay as measured.
"""

import math
import statistics
from time import perf_counter

import reference
import refgen

# Median kernel times on the reference host: a 2-vCPU Intel Xeon VM at
# 2.0 GHz running CPython 3.11.7.
REFERENCE_MS = {"search": 12.0, "text": 1.4}

SAMPLE_EVERY_S = 0.2

_TEXT = "M(M(A,B,C'),M5(A',B,C,D,E),M(M(A,D,E),B',1))'"


def _search():
    """Functions-only search over two maj3 gates: dicts, sets, tuples."""
    refgen.min_gate_counts(2, 3, False)


def _text():
    """Expression evaluation, a pairwise cell-distance scan and a float
    relaxation sweep."""
    for _ in range(3):
        reference.evaluate(_TEXT, "ABCDE")
    cells = [(x, y) for x in range(12) for y in range(5)]
    near = sum(1 for i, a in enumerate(cells) for b in cells[i + 1:]
               if (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 <= 2)
    p = [0.0] * 200
    for _ in range(15):
        for i in range(1, 199):
            x = 2.5 * (p[i - 1] + p[i + 1]) + 0.1 * near
            p[i] = x / math.sqrt(1.0 + x * x)


KERNELS = {"search": _search, "text": _text}


class Calibration:
    """Kernel samples taken at most every SAMPLE_EVERY_S seconds."""

    def __init__(self, name):
        self.name = name
        self.samples = []
        self._next = 0.0

    def sample(self, force=False):
        if not force and perf_counter() < self._next:
            return
        t = perf_counter()
        KERNELS[self.name]()
        done = perf_counter()
        self.samples.append(done - t)
        self._next = done + SAMPLE_EVERY_S

    @property
    def kernel_ms(self):
        return 1000.0 * statistics.median(self.samples)

    @property
    def scale(self):
        """Factor that turns this run's times into reference-speed times."""
        return REFERENCE_MS[self.name] / self.kernel_ms
