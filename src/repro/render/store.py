"""Content-addressed artifact store: in-memory LRU with optional disk spill.

One cache to rule the functional layer: geometry artifacts, reference
passes, CHOPIN functional preps, frame plans and full scheme results all
live here, keyed by a sha256 over a canonical JSON encoding of their
identifying fields (trace fingerprint, resolution, pipeline options).
One store means one invalidation story: ``reset()`` drops everything (or
one kind), instead of three module-level dicts with three clear
functions.

Keys are deterministic by construction — fields are JSON-encoded with
sorted keys, so insertion order, interning and process randomization
cannot leak into the address (the nondet-taint lint pass guards this).

The LRU bounds both entry count and payload bytes. With ``disk_dir``
set, entries are written through as pickles named by their key, and a
memory miss falls back to a disk load — that is how pre-warmed artifacts
survive process boundaries (engine worker subprocesses, separate CLI
invocations); ``tests/test_render_service.py`` pins that a reload is
bit-identical.

Spill files are integrity-framed: a magic line and the sha256 of the
pickle payload precede the payload, writes go through a temp file +
atomic rename, and a truncated, bit-flipped or otherwise unreadable
spill is treated as a cache *miss* (counted in
``StoreCounters.disk_corrupt``, quarantined by deletion, recomputed and
re-spilled) — never an exception. A long-running daemon sharing its
store across sessions must not die because one artifact rotted on disk.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..errors import ConfigError

#: disk-spill framing: this line, then the payload's hex sha256, then the
#: raw pickle bytes. Files without the frame (pre-v1 spills) read as corrupt
#: and are transparently recomputed.
_SPILL_MAGIC = b"repro-artifact-spill-v1\n"


def _write_spill(path: pathlib.Path, value: object) -> None:
    """Spill one entry with an integrity frame, atomically.

    The temp-file + ``os.replace`` dance means a reader never observes a
    half-written file under the final name; a crash mid-write leaves only
    a ``.tmp`` husk that ``reset()`` sweeps up.
    """
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(_SPILL_MAGIC)
        handle.write(digest)
        handle.write(b"\n")
        handle.write(payload)
    os.replace(tmp, path)


def _read_spill(path: pathlib.Path) -> Tuple[object, bool]:
    """Return ``(value, intact)``; ``intact=False`` on any corruption.

    Truncation, a flipped bit (hash mismatch), a missing frame, or a
    pickle that no longer deserializes all classify as "corrupt" — the
    caller treats them uniformly as a miss.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return None, False
    if not data.startswith(_SPILL_MAGIC):
        return None, False
    digest, sep, payload = data[len(_SPILL_MAGIC):].partition(b"\n")
    if not sep or hashlib.sha256(payload).hexdigest().encode() != digest:
        return None, False
    try:
        return pickle.loads(payload), True
    except Exception:
        # unpicklable payload that still hashed clean: a stale spill from
        # an incompatible code version — same remedy as corruption
        return None, False


def store_key(kind: str, fields: Dict[str, object]) -> str:
    """Content address for one entry: ``kind`` plus its identifying fields.

    ``fields`` values must be JSON-encodable (strings, numbers, bools,
    None, and nested lists/dicts thereof). The encoding sorts keys, so
    two call sites naming the same fields in any order produce the same
    address.
    """
    try:
        payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        raise ConfigError(
            f"artifact-store key fields for kind {kind!r} must be "
            f"JSON-encodable: {exc}")
    digest = hashlib.sha256(f"{kind}\n{payload}".encode()).hexdigest()
    return f"{kind}-{digest}"


@dataclass
class StoreCounters:
    """Hit/miss/eviction accounting, surfaced through RunStats and exports."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    disk_loads: int = 0
    disk_writes: int = 0
    #: spill files rejected by the integrity check (truncated, bit-flipped,
    #: unframed, or unpicklable) — each one degraded a would-be disk hit
    #: into a recompute
    disk_corrupt: int = 0

    def snapshot(self) -> "StoreCounters":
        return dataclasses.replace(self)

    def delta(self, before: "StoreCounters") -> "StoreCounters":
        """Counter growth since an earlier :meth:`snapshot`."""
        return StoreCounters(**{
            spec.name: getattr(self, spec.name) - getattr(before, spec.name)
            for spec in dataclasses.fields(self)})

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        if lookups == 0:
            return 0.0
        return self.hits / lookups

    def to_dict(self) -> Dict[str, object]:
        return {**dataclasses.asdict(self), "hit_rate": self.hit_rate}


class ArtifactStore:
    """Bounded LRU of content-addressed entries with optional disk spill."""

    def __init__(self, max_entries: int = 4096,
                 max_bytes: int = 512 * 1024 * 1024,
                 disk_dir: Optional[str] = None) -> None:
        if max_entries <= 0:
            raise ConfigError("artifact store needs max_entries > 0")
        if max_bytes <= 0:
            raise ConfigError("artifact store needs max_bytes > 0")
        self.max_entries = max_entries
        self.max_bytes = max_bytes          # unit: bytes
        self.current_bytes = 0              # unit: bytes
        self.counters = StoreCounters()
        self._entries: "OrderedDict[str, Tuple[object, int]]" = OrderedDict()
        self._disk_dir: Optional[pathlib.Path] = None
        if disk_dir is not None:
            self.attach_disk(disk_dir)

    # -- configuration -----------------------------------------------------

    @property
    def disk_dir(self) -> Optional[pathlib.Path]:
        return self._disk_dir

    def attach_disk(self, disk_dir: str) -> None:
        """Enable write-through spill under ``disk_dir`` (created if needed)."""
        path = pathlib.Path(disk_dir)
        path.mkdir(parents=True, exist_ok=True)
        self._disk_dir = path

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> Tuple[object, bool]:
        """Return ``(value, found)``; promotes hits to most-recently-used.

        A memory miss consults the disk tier (when attached) and, on a
        disk hit, re-admits the entry to memory. Only a miss in *both*
        tiers counts as a miss. A spill that fails its integrity check is
        deleted and counted (``disk_corrupt``) but reads as a plain miss,
        so the entry is recomputed rather than the lookup raising.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            self.counters.hits += 1
            return self._entries[key][0], True
        if self._disk_dir is not None:
            path = self._disk_dir / f"{key}.pkl"
            if path.exists():
                value, intact = _read_spill(path)
                if intact:
                    self.counters.disk_loads += 1
                    self.counters.hits += 1
                    self._admit(key, value, write_disk=False)
                    return value, True
                self.counters.disk_corrupt += 1
                path.unlink()  # quarantine; the recompute re-spills it
        self.counters.misses += 1
        return None, False

    def put(self, key: str, value: object) -> None:
        """Insert (or refresh) an entry; spills to disk when attached."""
        self.counters.puts += 1
        self._admit(key, value, write_disk=True)

    def cached(self, key: str, compute: Callable[[], object]) -> object:
        """Return the stored value for ``key``, computing it on a miss."""
        value, found = self.get(key)
        if found:
            return value
        value = compute()
        self.put(key, value)
        return value

    # -- maintenance -------------------------------------------------------

    def reset(self, kind: Optional[str] = None) -> None:
        """Drop entries (both tiers); restrict to one ``kind`` if given."""
        if kind is None:
            self._entries.clear()
            self.current_bytes = 0
        else:
            prefix = f"{kind}-"
            for key in [k for k in self._entries if k.startswith(prefix)]:
                _, entry_bytes = self._entries.pop(key)
                self.current_bytes -= entry_bytes
        if self._disk_dir is not None:
            pattern = "*.pkl" if kind is None else f"{kind}-*.pkl"
            for path in sorted(self._disk_dir.glob(pattern)):
                path.unlink()
            # crash husks from interrupted atomic writes
            for path in sorted(self._disk_dir.glob(pattern + ".tmp")):
                path.unlink()

    def drop_memory(self) -> None:
        """Flush the memory tier only (spilled entries stay on disk).

        Forces the next lookups through the disk-reload path without
        losing the warm state.
        """
        self._entries.clear()
        self.current_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # -- internals ---------------------------------------------------------

    def _admit(self, key: str, value: object, write_disk: bool) -> None:
        entry_bytes = _payload_bytes(value)
        if key in self._entries:
            _, old_bytes = self._entries.pop(key)
            self.current_bytes -= old_bytes
        self._entries[key] = (value, entry_bytes)
        self.current_bytes += entry_bytes
        if write_disk and self._disk_dir is not None:
            path = self._disk_dir / f"{key}.pkl"
            if not path.exists():
                _write_spill(path, value)
                self.counters.disk_writes += 1
        while (len(self._entries) > self.max_entries
               or (self.current_bytes > self.max_bytes
                   and len(self._entries) > 1)):
            _, (_, evicted_bytes) = self._entries.popitem(last=False)
            self.current_bytes -= evicted_bytes
            self.counters.evictions += 1


def _payload_bytes(value: object) -> int:
    """Best-effort footprint of a stored value (for the byte budget)."""
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    # Fallback: a flat floor per entry; exact accounting only matters for
    # the artifact kinds, which all expose .nbytes.
    return 1024
