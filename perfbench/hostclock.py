"""Host-speed probes, so timings measure the program and not the host.

This host's speed drifts by up to 1.7x over tens of seconds (a shared
core: CPU time equals wall time and no steal is reported, yet a fixed
loop runs 1.7x slower), so raw medians of whole runs spread by 30%.
A sample therefore runs fixed pure-Python code, the *probe*, every
50 ms of its CPU time from a ``SIGPROF`` handler, which Python runs in
the main thread between two bytecodes of the program.  The probe is an
arithmetic loop over a small dict followed by a pointer chase through
4096 objects in shuffled order.  Slow phases hurt the simulator more
than the loop alone, the more so the more processors it models; the
chase, whose working set is about that of the L2 cache, brings the
probe's own slowdown closer to the simulator's.
:func:`metrics.reference_seconds` turns the probe intervals into
reference seconds: each stretch of
program time between two probes is scaled by ``REFERENCE_PROBE_S`` over
the mean duration of those two probes, and the probes' own time is left
out.  A reference second is a host second on a host where one probe
takes ``REFERENCE_PROBE_S``.

The probe is benchmark code: a change to the program cannot speed it up
or slow it down, so the program's own cost still shows in full.
"""

from __future__ import annotations

import random
import signal
import time

#: iterations of the probe's loop
PROBE_ITERATIONS = 5000
#: objects in the probe's pointer chase, and steps through them
CHASE_NODES = 4096
CHASE_STEPS = 4000
#: probe duration that defines a reference second (about the probe's
#: duration on this host's fast phase)
REFERENCE_PROBE_S = 0.0015
#: CPU seconds between probes
PERIOD_S = 0.05


def spin(iterations: int) -> None:
    """The fixed loop: integer arithmetic and a small dict, as the
    interpreter's common case."""
    acc, table = 0, {}
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc


class _Node:
    __slots__ = ("next", "value")


class Probes:
    """Probe intervals ``(start, end)`` on ``CLOCK_MONOTONIC``."""

    def __init__(self) -> None:
        self.intervals: list[tuple[float, float]] = []
        nodes = [_Node() for _ in range(CHASE_NODES)]
        order = list(range(CHASE_NODES))
        random.Random(0).shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            nodes[a].next, nodes[a].value = nodes[b], b
        self._at = nodes[0]

    def probe(self, *_signal_args) -> None:
        start = time.monotonic()
        spin(PROBE_ITERATIONS)
        node, acc = self._at, 0
        for _ in range(CHASE_STEPS):
            node = node.next
            acc += node.value
        self._at = node
        self.intervals.append((start, time.monotonic()))

    def start(self) -> None:
        """Probe now and then every ``PERIOD_S`` of CPU time.

        ``ITIMER_PROF`` leaves ``SIGALRM``, which the sweep runner's job
        timeouts use, alone.
        """
        self.probe()
        signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.probe()
