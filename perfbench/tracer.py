"""Span tracing of the simulator's layers, installed from outside the program.

The traced run wraps each layer's public entry points at class level
(before any machine is built, so bound methods captured at construction
are the wrappers too).  Every call is a span: name, start, end and the
enclosing span.  Per-event spans are folded into per-name self times as
they close; only the coarse spans (machine builds, audits, cache writes)
are kept one by one.  A span's self time is its duration minus the time
its child spans cover; the self times of all spans under the root
therefore partition the root's duration exactly.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

#: span name -> the ``per_layer`` metric its self time is reported as.
LAYER_METRICS = {
    "bench": "trace.unattributed_s",
    "sim": "sim.self_s",
    "cache": "cache.self_s",
    "coherence": "coherence.self_s",
    "coherence.limitless": "coherence.limitless_s",
    "network": "network.self_s",
    "network.nic": "network.nic_s",
    "machine.build": "machine.build_s",
    "machine.run": "machine.run_s",
    "verify.audit": "verify.audit_s",
    "stats.collect": "stats.collect_s",
    "sweep": "sweep.self_s",
    "sweep.cache_store": "sweep.cache_store_s",
    "sweep.fingerprint": "sweep.fingerprint_s",
}

#: spans kept as individual records (they are few per run).
COARSE = frozenset(
    {"bench", "machine.build", "machine.run", "verify.audit",
     "stats.collect", "sweep", "sweep.cache_store", "sweep.fingerprint"}
)


class Tracer:
    """Nested-span recorder with exact online self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: open spans: [covered-by-children seconds, record index or -1]
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: coarse spans as (name, start, end, parent record index or -1)
        self.records: list[tuple[str, float, float, int]] = []

    def _parent_record(self) -> int:
        for frame in reversed(self._stack):
            if frame[1] >= 0:
                return frame[1]
        return -1

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        records = self.records if name in COARSE else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if records is not None:
                index = len(records)
                records.append((name, 0.0, 0.0, self._parent_record()))
            else:
                index = -1
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    records[index] = (name, start, end, records[index][3])

        return traced

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per ``per_layer`` metric (zero for unseen layers)."""
        return {
            metric: self.self_s.get(name, 0.0)
            for name, metric in LAYER_METRICS.items()
        }


def _subclasses(cls) -> list[type]:
    """``cls`` and every class below it, each once."""
    found = [cls]
    for klass in found:
        found.extend(sub for sub in klass.__subclasses__() if sub not in found)
    return found


def instrument(tracer: Tracer, on_harvest):
    """Wrap every layer entry point; returns a function that undoes it.

    ``on_harvest(machine)`` runs after each ``AlewifeMachine.harvest``,
    which is where a finished run's kernel and packet-pool counters are
    read (the sweep layer does not hand machines back).
    """
    from repro.backend import get_backend
    from repro.cache.controller import CacheController
    from repro.coherence.controller import MemoryController
    from repro.coherence.limitless import LimitLessSoftware
    from repro.machine import AlewifeConfig
    from repro.machine import machine as machine_mod
    from repro.machine.machine import AlewifeMachine
    from repro.network.fabric import Network
    from repro.network.interface import NetworkInterface
    from repro.sim.kernel import Simulator
    from repro.sweep import cache as cache_mod
    from repro.sweep import runner as runner_mod
    from repro.sweep.cache import ResultCache

    # The default backend's component classes must exist before the
    # subclass walk below, or their overrides would escape the wrapping.
    get_backend(AlewifeConfig().backend)

    methods = [
        ("sim", Simulator, ("run",)),
        # _access is the processor's miss-issue call into the cache.
        ("cache", CacheController, ("access", "hit", "_access", "receive")),
        ("coherence", MemoryController, ("receive",)),
        # The trap handler's entry points: IPI interrupt and trap completion.
        ("coherence.limitless", LimitLessSoftware,
         ("_on_ipi_interrupt", "_run_handler")),
        ("network", Network, ("send",)),
        ("network.nic", NetworkInterface, ("send",)),
        ("machine.build", AlewifeMachine, ("__init__",)),
        ("machine.run", AlewifeMachine, ("run",)),
        ("stats.collect", AlewifeMachine, ("harvest",)),
        ("sweep.cache_store", ResultCache, ("store",)),
    ]
    functions = [
        ("verify.audit", machine_mod, "audit_machine"),
        ("sweep.fingerprint", cache_mod, "compute_source_fingerprint"),
        ("sweep", runner_mod, "run_jobs"),
    ]
    undo: list[tuple[object, str, object]] = []
    for name, base, attrs in methods:
        for cls in _subclasses(base):
            for attr in attrs:
                if attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    undo.append((cls, attr, original))
                    setattr(cls, attr, tracer.wrap(name, original))
    for name, module, attr in functions:
        original = getattr(module, attr)
        undo.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original))
    harvest = AlewifeMachine.harvest

    def harvest_and_report(self, *args, **kwargs):
        result = harvest(self, *args, **kwargs)
        on_harvest(self)
        return result

    AlewifeMachine.harvest = harvest_and_report

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
