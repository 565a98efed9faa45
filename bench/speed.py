"""Machine-speed probe for the timed sessions.

The CPU of the VM the baseline was measured on changes speed by up to half
within seconds, and a whole run can sit in a slow or a fast stretch.  So a
timed session runs a probe, a fixed piece of interpreter work, next to
every statement and outside its timing.  Each time is then scaled by
``REFERENCE_NS`` over the probe's median time around it: it reads as it
would on the machine at the speed where the probe takes ``REFERENCE_NS``.
"""

from __future__ import annotations

import random
import statistics
import time
from collections.abc import Callable

_rng = random.Random(5)
# The probe scans 400 six-letter words for a substring, the kind of loop
# store.InvertedIndex.ids_matching runs over the vocabulary.
WORDS = tuple("".join(_rng.choice("bcdfghkq0123456789") for _ in range(6))
              for _ in range(400))
# About the probe's 1st-percentile time on the 2-vCPU Xeon VM of the
# baseline, so adjusted times read close to that VM's times at full speed.
REFERENCE_NS = 13500
WINDOW = 4  # probes on either side of a statement that give its speed
# callables of cnlsearch.cli that a batch runs once per statement, at its
# start, middle and end; a batch session probes before each call
PROBED = ("tokenize", "execute", "append_log")


def probe() -> int:
    """Run the fixed work once and return its time in ns."""
    t0 = time.perf_counter_ns()
    hits = 0
    for w in WORDS:
        if "q7" in w:
            hits += 1
    return time.perf_counter_ns() - t0


def factor(probes) -> float:
    """Scale that turns a time taken next to these probes into reference time."""
    return REFERENCE_NS / statistics.median(probes)


def adjust(latencies, probes) -> list[float]:
    """Each latency scaled by the probes around it; probe i ran just
    before statement i."""
    return [lat * factor(probes[max(0, i - WINDOW):i + WINDOW + 1])
            for i, lat in enumerate(latencies)]


def install(cli, probes) -> Callable[[], None]:
    """Probe before each call of the PROBED callables, appending each
    probe's time to ``probes``; returns a function that undoes it."""
    saved = [(name, getattr(cli, name)) for name in PROBED]

    def wrap(fn):
        def probed(*args, **kwargs):
            probes.append(probe())
            return fn(*args, **kwargs)
        return probed

    for name, fn in saved:
        setattr(cli, name, wrap(fn))

    def uninstall():
        for name, fn in saved:
            setattr(cli, name, fn)
    return uninstall
