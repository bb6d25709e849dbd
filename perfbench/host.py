"""Host-speed calibration, so times from a noisy shared host can be compared.

On the small shared virtual machine the benchmark was tuned on, the same
code runs up to twice as slow for stretches of seconds to minutes,
whenever other tenants load the host; steal time stays at zero.  So a
fixed kernel (the kinds of work a simulation step is made of) is timed
right after each timed segment (a flooding batch, one experiment), and
the segment's time is rescaled by it: to what it would have been on a
host where the kernel takes :data:`NOMINAL_S`.  The kernel is
part of the benchmark, not the library, so a faster library lowers the
normalized times as much as the wall times.  Set-up times are rescaled
the same way by a reference import (:func:`reference_import_s`).
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: Kernel time on the reference host (the 2-vCPU machine the benchmark was
#: tuned on, unloaded); normalized times read as seconds there.
NOMINAL_S = 0.0046

#: Weights of the kernel's three parts (see :meth:`HostClock._sample`).
WEIGHTS = (0.6, 0.2, 0.2)

#: Set-up is process start-up and imports, which the kernel does not
#: track, so each set-up probe is paired with a fresh process that imports
#: a fixed set of modules (numpy and stdlib only); this is its time on the
#: reference host.
IMPORT_NOMINAL_S = 0.090
_IMPORTS = (
    "import time; t = time.perf_counter()\n"
    "import argparse, ctypes, dataclasses, hashlib, inspect, json, subprocess\n"
    "import numpy\n"
    "print(time.perf_counter() - t)"
)


def reference_import_s() -> float:
    """Wall time of the fixed imports in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS], capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout)


class HostClock:
    """Times the calibration kernel; :meth:`normalize` turns wall seconds
    into normalized seconds."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._points = rng.random((32, 2000, 2))
        self._mask = rng.random((32, 2000)) < 0.3
        self._small = rng.random((64, 2))
        #: When set, each kernel run is recorded as a ``bench.calibrate`` span.
        self.tracer = None

    def sample(self) -> float:
        if self.tracer is not None:
            with self.tracer.span("bench.calibrate"):
                return self._sample()
        return self._sample()

    def _sample(self) -> float:
        """Run the kernel once; its time.

        Host load slows each kind of work by a different factor, so the
        kernel has three parts -- whole-batch numpy passes, many numpy
        calls on small arrays, and plain Python bookkeeping, the mix a
        simulation step is made of -- and its time is a weighted geometric
        mean of theirs.  On the tuning machine the batch pass alone moved
        0.7x as much as a canonical batch under load and each of the other
        two 1.4x as much; :data:`WEIGHTS` balances them to about 1x.
        """
        points, mask, small = self._points, self._mask, self._small
        t0 = time.perf_counter()
        cells = np.floor(points * 7.3).astype(np.int64)
        keys = cells[..., 0] * 64 + cells[..., 1]
        np.argsort(keys, axis=1, kind="stable")
        np.count_nonzero(mask & (keys > 900), axis=1)
        np.where(mask, points[..., 0], points[..., 1]).sum()
        t1 = time.perf_counter()
        for _ in range(400):
            scaled = small * 1.5
            hits = np.nonzero(scaled[:, 1] > 0.2)[0]
            scaled[hits] += np.count_nonzero(scaled[:, 0] > 0.5)
        t2 = time.perf_counter()
        table = {}
        total = 0
        for i in range(30000):
            table[i & 255] = table.get(i & 255, 0) + i
            total += i % 7
        t3 = time.perf_counter()
        parts = (t1 - t0, t2 - t1, t3 - t2)
        return float(np.exp(sum(w * np.log(t) for w, t in zip(WEIGHTS, parts))))

    def normalize(self, wall: float) -> float:
        """``wall`` seconds of work that just ended, in normalized seconds,
        from one kernel run right after it."""
        return wall * NOMINAL_S / self.sample()
