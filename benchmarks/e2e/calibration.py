"""Host-speed probe: what makes wall-clock medians comparable across runs.

The benchmark runs on small shared containers whose speed drifts by tens
of percent for minutes at a time (a neighbour on the sibling hyperthread,
host overcommit).  No statistic taken inside one run removes a slowdown
that lasts the whole run, so every timed sample is bracketed by this
fixed probe — a deterministic mix of the same kinds of work the program
does: Python loops allocating ints, tuples, strings, small objects and
dict entries, number parsing, a keyed sort and a few numpy passes — and
reported as

    wall * NOMINAL_PROBE_S / mean(probe before, probe after)

i.e. seconds at the speed of a host on which the probe takes
``NOMINAL_PROBE_S``.  On a quiet reference container that is plain wall
time; on a slowed host it is what the query would have taken had the host
been quiet.  The probe shares no code with the program, so no change to
the program can move the yardstick.  Raw wall seconds and the probe
median are kept next to every normalised number in the ``--out`` document.

Measured on the reference container (README.md, "Bounds and steadiness"):
over ten runs of a workload the raw wall medians spread by 9-53 % of
their median and differ by up to 36 % from one set of runs to the next;
the normalised ones spread by 3-20 % and differ by up to 11 %.  The benchmark contract
refuses a benchmark whose spread exceeds its bound, and the widest bound
it allows is 25 %, so raw wall medians cannot be the gated numbers here.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's typical duration inside the measuring loop on the reference
# container (2 shared cores) when it is quiet — it only sets the scale of
# the reported seconds.
NOMINAL_PROBE_S = 0.035

_VALUES = np.arange(50_000, dtype=np.float64)
_NUMERALS = [f"{i * 1.37:.6f}" for i in range(12_000)]


class _Vertex:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def probe() -> float:
    """Run the fixed probe once; returns its wall seconds.

    Two halves, because a slowed host does not slow all code alike: an
    arithmetic loop filling a dict, and the allocation-heavy kind of work
    that dominates the program (small objects, number parsing, tuple lists,
    a keyed sort), which reacts more strongly to a busy neighbour.  Over
    long runs the second half tracked the queries' slowdown best, so it
    carries about two thirds of the probe's time.
    """
    start = time.perf_counter()
    total = 0
    table = {}
    words = []
    for i in range(25_000):
        total += i * i
        table[i] = (i, total)
        words.append(str(i))
    " ".join(words).split("7")
    for _ in range(20):
        (_VALUES * _VALUES + 1.0)[::3].sum()
    vertices = [_Vertex(float(i), i) for i in range(24_000)]
    table = {k: (float(text), text.split(".")) for k, text in enumerate(_NUMERALS)}
    pairs = [(vertex.x, vertex.y) for vertex in vertices]
    pairs.sort(key=lambda pair: -pair[0])
    return time.perf_counter() - start


def timed(call):
    """``(result, normalised seconds, raw wall seconds, probe seconds)``."""
    before = probe()
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    around = (before + probe()) / 2.0
    return result, wall * NOMINAL_PROBE_S / around, wall, around
