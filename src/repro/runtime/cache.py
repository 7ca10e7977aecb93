"""Disk-backed, content-addressed artifact cache with an LRU front.

Layout: one pickle file per key under the cache directory (resolved
from, in order: an explicit ``directory`` argument, the
``REPRO_CACHE_DIR`` environment variable, ``$XDG_CACHE_HOME/repro``,
``~/.cache/repro``).  Writes are atomic (temp file + ``os.replace``)
so a killed process never leaves a half-written entry; loads are
corruption-tolerant -- a truncated or unreadable pickle is deleted and
treated as a miss, never propagated to the caller.

The in-memory LRU front keeps the hottest artifacts as live objects,
which also preserves identity: two ``get_or_compute`` calls for the
same key in one process return the *same* object -- concurrent cold
callers included, since each key is computed once while they wait.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_PICKLE_SUFFIX = ".pkl"

#: Outcomes of :meth:`ArtifactCache.lookup`: a hit in the memory front
#: or on disk, no entry, or an unreadable entry (discarded).
MEMORY, DISK, MISS, CORRUPT = "memory", "disk", "miss", "corrupt"


def resolve_cache_dir(directory: Optional[os.PathLike] = None) -> Path:
    """The cache directory to use (not created until first write)."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    """Hit/miss/size counters for one :class:`ArtifactCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidations: int = 0
    load_errors: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "load_errors": self.load_errors,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class CacheSnapshot:
    """Stats plus on-disk footprint, for ``repro cache stats``."""

    directory: str
    memory_entries: int
    disk_entries: int
    disk_bytes: int
    stats: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "directory": self.directory,
            "memory_entries": self.memory_entries,
            "disk_entries": self.disk_entries,
            "disk_bytes": self.disk_bytes,
            "stats": self.stats,
        }


class ArtifactCache:
    """Content-addressed artifact store: LRU memory front + disk back.

    Parameters
    ----------
    directory:
        Cache directory (see :func:`resolve_cache_dir`).
    memory_slots:
        Capacity of the in-memory LRU front (0 disables it).
    persist:
        Whether to read/write the disk layer.  ``False`` gives a
        process-local memoizer with the same interface.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        memory_slots: int = 128,
        persist: bool = True,
    ) -> None:
        self.directory = resolve_cache_dir(directory)
        self.memory_slots = max(0, int(memory_slots))
        self.persist = persist
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.RLock()
        #: ``get_or_compute`` computations in flight, by key.
        self._computing: Dict[str, "Future[Any]"] = {}

    # ------------------------------------------------------------------
    # core protocol
    # ------------------------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Any]:
        """``(found, value)`` -- a miss returns ``(False, None)``."""
        outcome, value = self.lookup(key)
        return outcome in (MEMORY, DISK), value

    def lookup(self, key: str, *, memory: bool = True) -> Tuple[str, Any]:
        """``(outcome, value)``: outcome is :data:`MEMORY` or
        :data:`DISK` on a hit, :data:`MISS` when there is no entry and
        :data:`CORRUPT` when an unreadable entry was discarded (value
        ``None`` for both).

        With ``memory=False`` the LRU front is neither read nor filled:
        for large artifacts whose live copy the caller keeps itself.
        """
        with self._lock:
            if memory and key in self._memory:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return MEMORY, self._memory[key]
            outcome, value = MISS, None
            if self.persist:
                outcome, value = self._disk_load(key)
            if outcome == DISK:
                self.stats.disk_hits += 1
                if memory:
                    self._memory_put(key, value)
            else:
                self.stats.misses += 1
            return outcome, value

    def put(self, key: str, value: Any, *, memory: bool = True) -> None:
        """Store *value* under *key* in both layers (on disk only with
        ``memory=False``)."""
        with self._lock:
            if memory:
                self._memory_put(key, value)
            if self.persist:
                self._disk_store(key, value)
            self.stats.stores += 1

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached value for *key*, computing and storing it
        on a miss.  The computation runs outside the cache lock.

        Each key is computed once: callers arriving while it computes
        wait for it (counted as memory hits) and get the same object;
        a computation that raises wakes them with its error and stores
        nothing."""
        with self._lock:
            pending = self._computing.get(key)
            owner = pending is None
            if owner:
                found, value = self.get(key)
                if found:
                    return value
                pending = self._computing[key] = Future()
            else:
                self.stats.memory_hits += 1
        if not owner:
            return pending.result()
        try:
            value = compute()
            self.put(key, value)
        except BaseException as exc:
            pending.set_exception(exc)
            raise
        else:
            pending.set_result(value)
            return value
        finally:
            with self._lock:
                del self._computing[key]

    def invalidate(self, key: str) -> bool:
        """Drop *key* from both layers; ``True`` if anything existed."""
        with self._lock:
            existed = self._memory.pop(key, _MISSING) is not _MISSING
            path = self._path(key)
            if self.persist and path.exists():
                try:
                    path.unlink()
                    existed = True
                except OSError:
                    pass
            if existed:
                self.stats.invalidations += 1
            return existed

    def clear(self) -> int:
        """Drop every entry; returns the number of disk files removed."""
        with self._lock:
            self._memory.clear()
            removed = 0
            if self.persist and self.directory.is_dir():
                for path in self.directory.glob(f"*{_PICKLE_SUFFIX}"):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
            return removed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self.persist and self._path(key).exists()

    def disk_entries(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob(f"*{_PICKLE_SUFFIX}"))

    def disk_bytes(self) -> int:
        if not self.directory.is_dir():
            return 0
        total = 0
        for path in self.directory.glob(f"*{_PICKLE_SUFFIX}"):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def snapshot(self) -> CacheSnapshot:
        return CacheSnapshot(
            directory=str(self.directory),
            memory_entries=len(self._memory),
            disk_entries=self.disk_entries(),
            disk_bytes=self.disk_bytes(),
            stats=self.stats.as_dict(),
        )

    # ------------------------------------------------------------------
    # layers
    # ------------------------------------------------------------------
    def _memory_put(self, key: str, value: Any) -> None:
        if self.memory_slots == 0:
            return
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_slots:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{_PICKLE_SUFFIX}"

    def _disk_load(self, key: str) -> Tuple[str, Any]:
        path = self._path(key)
        try:
            with path.open("rb") as stream:
                return DISK, pickle.load(stream)
        except FileNotFoundError:
            return MISS, None
        except Exception:
            # truncated/corrupt/incompatible entry: discard and recompute
            self.stats.load_errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            return CORRUPT, None

    def _disk_store(self, key: str, value: Any) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, suffix=_PICKLE_SUFFIX + ".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as stream:
                    pickle.dump(value, stream, pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            # a read-only filesystem or unpicklable artifact degrades
            # to memory-only caching, never to a crash
            pass


_MISSING = object()

_default_cache: Optional[ArtifactCache] = None
_default_lock = threading.Lock()


def default_cache() -> ArtifactCache:
    """The process-wide cache (created lazily; honours the
    ``REPRO_CACHE_DIR`` environment at creation time)."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = ArtifactCache()
        return _default_cache


def set_default_cache(cache: Optional[ArtifactCache]) -> None:
    """Replace (or with ``None``, reset) the process-wide cache --
    used by tests and by the CLI to honour late env changes."""
    global _default_cache
    with _default_lock:
        _default_cache = cache
