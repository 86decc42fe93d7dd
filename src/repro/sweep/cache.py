"""Content-addressed on-disk cache of experiment results.

Every simulation is deterministic — same config, same workload, same
source tree means bit-identical :class:`MachineStats` — so results can be
cached forever under a key that hashes all three (see
:func:`repro.sweep.spec.job_key`).  Entries are one JSON file per key in
``$REPRO_SWEEP_CACHE`` (default ``~/.cache/repro-sweep``); editing
anything under ``src/repro`` changes the source fingerprint and therefore
misses cleanly, no manual invalidation needed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from pathlib import Path

from ..machine import MachineStats

#: Cache format version; bump when the entry schema changes.
CACHE_VERSION = 1


def default_cache_dir() -> Path:
    """``$REPRO_SWEEP_CACHE`` or ``~/.cache/repro-sweep``."""
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-sweep"


def compute_source_fingerprint(root: Path | None = None) -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    The simulator's source *is* part of every result's identity, since
    timing-model changes alter cycle counts.  This is the uncached
    computation; :class:`SourceFingerprint` memoizes it.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


class SourceFingerprint:
    """Memoized source-tree fingerprint with an explicit invalidation hook.

    Long-running processes (the ``repro serve`` server) hold one of these
    per :class:`ResultCache` instead of a module global: the hash is
    computed on first use, reused for every subsequent key, and
    recomputed after :meth:`invalidate` — e.g. when the source tree
    changed under a live server and stale keys must not be served.
    """

    def __init__(self, root: Path | None = None):
        self._root = root
        self._value: str | None = None

    def value(self) -> str:
        if self._value is None:
            self._value = compute_source_fingerprint(self._root)
        return self._value

    def invalidate(self) -> None:
        """Drop the memoized hash; the next :meth:`value` recomputes."""
        self._value = None


class ResultCache:
    """Keyed MachineStats store with hit/miss accounting.

    ``enabled=False`` turns every operation into a no-op, so callers can
    thread one object through unconditionally (the ``--no-cache`` path).

    Every cache owns a :class:`SourceFingerprint` (injectable for tests
    and embedders); the runner keys jobs through it so there is no
    process-global sweep state — a long-lived service can invalidate or
    swap the fingerprint on its own cache without touching any other.
    """

    def __init__(
        self,
        directory: Path | str | None = None,
        *,
        enabled: bool = True,
        fingerprint: SourceFingerprint | None = None,
    ):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.enabled = enabled
        self.fingerprint = fingerprint or SourceFingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: failed store attempts (OSError: read-only/full cache dir).  The
        #: cache degrades to disabled after the first one, but the count
        #: stays visible — sweep summaries and serve /metrics surface it
        #: so the degradation is never silent.
        self.write_errors = 0

    def invalidate(self) -> None:
        """Invalidate derived state (the memoized source fingerprint).

        On-disk entries stay: they are keyed by fingerprint, so a changed
        source tree simply misses them.
        """
        self.fingerprint.invalidate()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def lookup(self, key: str) -> MachineStats | None:
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if entry.get("version") != CACHE_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return MachineStats.from_dict(entry["stats"])

    def store(self, key: str, stats: MachineStats, *, wall_seconds: float, label: str = "") -> None:
        if not self.enabled:
            return
        entry = {
            "version": CACHE_VERSION,
            "label": label,
            "created": time.time(),
            "wall_seconds": wall_seconds,
            "stats": stats.to_dict(),
        }
        path = self._path(key)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            # Write-then-rename so a crashed run never leaves a torn entry.
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(entry))
            tmp.replace(path)
        except OSError as exc:
            # A read-only or full cache directory must not kill a sweep
            # that already computed its results; degrade to cacheless —
            # but count it, so the summary/metrics make the loss visible.
            self.write_errors += 1
            self.enabled = False
            warnings.warn(
                f"result cache disabled: cannot write {path} ({exc})",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        self.stores += 1

    def clear(self) -> int:
        """Delete every entry (and any orphaned temp file from a crashed
        write); returns the number of entries removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in self.directory.glob("*.tmp"):
                path.unlink(missing_ok=True)
        return removed

    def summary(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        if self.write_errors:
            state = f"DISABLED after {self.write_errors} write error(s)"
        return (
            f"cache {state} at {self.directory} "
            f"(hits {self.hits}, misses {self.misses}, stores {self.stores}"
            f", write errors {self.write_errors})"
        )
