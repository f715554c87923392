"""Host-speed calibration: a fixed loop that does not touch fermirw.

The shared host's speed drifts by a quarter or more over a minute, and
every piece of Python code slows down with it.  This loop does the same
kinds of work as a row (Python calls, float arithmetic, ``math``, small
numpy arrays) and never changes, so its time tracks the host's speed and
not the program's: over 15-second blocks of a five-minute run its time
followed that of a fixed set of rows with a correlation of 0.95 to 0.97,
and the rows' time over the loop's time spread by 0.03 where the rows
alone spread by 0.15 (distance between quartiles over the median).
Window by window (a quarter of a second of rows) the correlation was 0.8.

The runner times the loop before the first timed row and then after
every quarter of a second of row time (after every row on the table), and
scales the rows in between by ``REFERENCE_MS`` over the mean of the two
loop times around them, so its timings are those of a host on which the
loop takes ``REFERENCE_MS``.

Import time in a fresh interpreter follows that loop poorly (correlation
0.43 over 40 samples), so set-up has its own reference: a fresh
interpreter importing a fixed set of standard-library modules, timed
before the first set-up probe and after every probe.  Its time correlated
with the probe's at 0.66, and medians of five probes so scaled spread by
0.03 where unscaled ones spread by 0.11.  Changing this file or its
constants changes every timing metric.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

# A round figure near the loop's time on the 2-core host the benchmark
# was tuned on, which switches within seconds between about 1.0 ms and
# about 1.8 ms.
REFERENCE_MS = 2.0
SAMPLES = 5
# A round figure near the reference imports' time on that host (0.09 to
# 0.15 s), and the modules they import.  They run in an interpreter of
# their own, so no change to fermirw can move their time.
IMPORT_REFERENCE_S = 0.1
IMPORT_MODULES = ("asyncio", "email.mime.multipart", "http.server",
                  "xml.dom.minidom", "unittest", "decimal", "sqlite3",
                  "difflib", "pydoc", "logging.handlers", "tarfile",
                  "zipfile", "ctypes", "multiprocessing.pool",
                  "concurrent.futures", "urllib.request", "ssl",
                  "fractions")
_IMPORT_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    f"import {', '.join(IMPORT_MODULES)}\n"
    "print(time.perf_counter() - t0)\n")

_X = np.linspace(0.1, 1.0, 15)


def _f(x: float, p: float) -> float:
    return x ** p + math.exp(-x)


def _loop() -> float:
    acc = 0.0
    for i in range(200):
        y = _X ** 0.6666 * (1.0 + i * 1e-3)
        acc += float(np.dot(y, _X)) + math.sqrt(i + 1.0)
    for i in range(3000):
        acc += _f(1.0 + i * 1e-4, 0.5)
    return acc


def loop_ms() -> float:
    """Median time of the loop over SAMPLES back-to-back runs, in ms."""
    out = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter_ns()
        _loop()
        out.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(out)


def import_s() -> float:
    """Time of the reference imports in a fresh interpreter, in s."""
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT_CODE],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout)
