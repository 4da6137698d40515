"""Content-addressed result store for fleet cells.

Each cell's artifact is persisted as canonical JSON under its cache
key: ``objects/<key[:2]>/<key>.json``. The key is a SHA-256 over every
input the cell depends on (see :mod:`repro.fleet.job`), so the store
never needs invalidation logic — a changed input is a different key.

Durability model
----------------

- **Atomic writes.** Every object lands via a same-directory temp file
  and ``os.replace``, so a reader (or a concurrent writer of the same
  key) only ever sees a complete JSON document. Two writers racing on
  one key both write the same bytes (the key fixes the content), so
  last-replace-wins is harmless.
- **Objects are ground truth.** The ``manifest.json`` index (sizes +
  LRU sequence numbers) is a cache of the objects directory, rewritten
  atomically read-modify-write under a thread lock *and* an
  inter-process ``flock`` on ``manifest.lock`` — the scheduler runs N
  worker processes against one store root, and without the file lock
  concurrent rewrites would silently drop each other's hit/seq
  updates and evict against stale totals. After a crash the manifest
  is still reconciled against the directory scan on the next open, so
  a stale index can never lose stored results (and on platforms
  without ``fcntl`` the store degrades to exactly that: best-effort
  counters, objects intact).
- **LRU bound.** With ``max_bytes`` set, inserts evict the
  least-recently-used objects (lowest sequence number) until the store
  fits. Eviction only ever costs recompute, never correctness: the
  scheduler treats a missing key as a cold cell.
- **Per-key production locks.** :meth:`ResultStore.exclusive` holds
  a ``flock`` on ``locks/<key>.lock`` so one process produces an
  object while the others wait and then read it (the device RSA keys).
  It never takes ``manifest.lock``; the kernel releases it when its
  holder dies.
- **Batched read bookkeeping.** ``get`` bumps recency and counts its
  hit or miss, but records them for the enclosing :meth:`reads` block,
  which applies them in one locked manifest read-modify-write on exit.
  A bare ``get`` is a block of one. Hits, misses and sequence numbers
  end up exactly as one transaction per ``get`` would leave them.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path

try:
    import fcntl
except ImportError:  # non-POSIX: counters/bound become best-effort
    fcntl = None

__all__ = ["ResultStore"]

_MANIFEST = "manifest.json"
_MANIFEST_LOCK = "manifest.lock"
_LOCKS = "locks"
_OBJECTS = "objects"

# Unique-per-write temp suffixes: the counter disambiguates writers in
# one process (several store instances may share one root), the pid and
# thread id disambiguate across processes and threads.
_TMP_IDS = itertools.count()


@contextmanager
def _flock(path: Path):
    """Exclusive ``flock`` on *path* for the block (a no-op without
    ``fcntl``)."""
    if fcntl is None:
        yield
        return
    with open(path, "ab") as lock_file:
        fcntl.flock(lock_file, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock_file, fcntl.LOCK_UN)


class ResultStore:
    """Content-addressed, LRU-bounded JSON store keyed by cell cache key."""

    def __init__(self, root: str | Path, *, max_bytes: int | None = None):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._reads = threading.local()  # per-thread open reads() batch
        (self.root / _OBJECTS).mkdir(parents=True, exist_ok=True)
        with self._locked():
            self._reconcile_locked()

    @contextmanager
    def _locked(self):
        """Serialise manifest read-modify-write across threads *and*
        processes: a thread lock for this instance, then an exclusive
        ``flock`` on a sidecar lock file (never on ``manifest.json``
        itself — ``os.replace`` swaps that inode on every save). Other
        instances in the same process hold different fds, so the flock
        excludes them too."""
        with self._lock, _flock(self.root / _MANIFEST_LOCK):
            yield

    @contextmanager
    def exclusive(self, key: str):
        """Hold an inter-process lock on one key, for single-flight
        production of its object. Each key has its own sidecar file
        under ``locks/`` and never takes ``manifest.lock``, so a slow
        producer stalls no other store traffic. The kernel drops a
        ``flock`` when its holder dies, so a killed holder never wedges
        the next one."""
        (self.root / _LOCKS).mkdir(exist_ok=True)
        with _flock(self.root / _LOCKS / f"{key}.lock"):
            yield

    # -- paths -------------------------------------------------------------

    def _object_path(self, key: str) -> Path:
        return self.root / _OBJECTS / key[:2] / f"{key}.json"

    @property
    def _manifest_path(self) -> Path:
        return self.root / _MANIFEST

    # -- manifest ----------------------------------------------------------

    def _load_manifest_locked(self) -> dict:
        try:
            manifest = json.loads(self._manifest_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            manifest = {}
        manifest.setdefault("entries", {})
        manifest.setdefault("next_seq", 1)
        manifest.setdefault("hits", 0)
        manifest.setdefault("misses", 0)
        manifest.setdefault("evictions", 0)
        return manifest

    def _write_atomic(self, path: Path, payload: bytes) -> None:
        """Same-directory temp + ``os.replace``: readers never see a
        torn file, concurrent writers settle last-replace-wins."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f".tmp-{os.getpid()}-{threading.get_ident()}-{next(_TMP_IDS)}"
        )
        tmp.write_bytes(payload)
        os.replace(tmp, path)

    def _save_manifest_locked(self, manifest: dict) -> None:
        self._write_atomic(
            self._manifest_path,
            json.dumps(manifest, sort_keys=True).encode("utf-8"),
        )

    def _reconcile_locked(self) -> dict:
        """Make the manifest agree with the objects directory.

        Objects present on disk but unknown to the manifest (a crash
        between object write and index write, or a concurrent writer's
        lost manifest update) are adopted with fresh recency; manifest
        entries whose object vanished (eviction by another process) are
        dropped.
        """
        manifest = self._load_manifest_locked()
        entries = manifest["entries"]
        on_disk: dict[str, int] = {}
        objects_root = self.root / _OBJECTS
        for shard in sorted(objects_root.iterdir()) if objects_root.is_dir() else []:
            if not shard.is_dir():
                continue
            for obj in sorted(shard.glob("*.json")):
                try:
                    on_disk[obj.stem] = obj.stat().st_size
                except FileNotFoundError:
                    continue  # evicted mid-scan by another process
        changed = False
        for key in list(entries):
            if key not in on_disk:
                del entries[key]
                changed = True
        for key, size in on_disk.items():
            entry = entries.get(key)
            if entry is None:
                entries[key] = {"size": size, "seq": manifest["next_seq"]}
                manifest["next_seq"] += 1
                changed = True
            elif entry["size"] != size:
                entry["size"] = size
                changed = True
        if changed:
            self._save_manifest_locked(manifest)
        return manifest

    # -- public API --------------------------------------------------------

    def put(self, key: str, payload: dict) -> None:
        """Persist one cell result under its cache key, atomically."""
        blob = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        with self._locked():
            self._write_atomic(self._object_path(key), blob)
            manifest = self._load_manifest_locked()
            manifest["entries"][key] = {
                "size": len(blob),
                "seq": manifest["next_seq"],
            }
            manifest["next_seq"] += 1
            if self.max_bytes is not None:
                self._evict_locked(manifest, self.max_bytes, protect=key)
            self._save_manifest_locked(manifest)

    @contextmanager
    def reads(self):
        """Batch the bookkeeping of every ``get`` in this block.

        Each ``get`` reads its object immediately; its hit or miss and
        its recency bump are applied, in call order, in one locked
        manifest read-modify-write when the outermost block exits (even
        on an exception, so reads that happened are still counted).
        Blocks are per thread; a nested block joins the outer one. A
        ``put`` inside a block is numbered at once, before the block's
        reads.
        """
        batch = getattr(self._reads, "batch", None)
        if batch is not None:
            yield batch
            return
        batch = self._reads.batch = []
        try:
            yield batch
        finally:
            self._reads.batch = None
            if batch:
                self._record_reads(batch)

    def _record_reads(self, batch: list[tuple[str, int | None]]) -> None:
        """Apply ``(key, size)`` read records; ``size is None`` is a miss."""
        with self._locked():
            manifest = self._load_manifest_locked()
            entries = manifest["entries"]
            for key, size in batch:
                if size is None:
                    manifest["misses"] += 1
                    entries.pop(key, None)
                    continue
                manifest["hits"] += 1
                entry = entries.setdefault(key, {"size": size, "seq": 0})
                entry["seq"] = manifest["next_seq"]
                manifest["next_seq"] += 1
            self._save_manifest_locked(manifest)

    def get(self, key: str) -> dict | None:
        """Fetch one cell result; ``None`` on miss. Hits bump recency
        when the enclosing :meth:`reads` block (or this call) ends."""
        with self.reads() as batch:
            try:
                blob = self._object_path(key).read_bytes()
                payload = json.loads(blob)
            except (FileNotFoundError, json.JSONDecodeError):
                batch.append((key, None))
                return None
            batch.append((key, len(blob)))
        return payload

    def contains(self, key: str) -> bool:
        return self._object_path(key).is_file()

    def delete(self, key: str) -> bool:
        with self._locked():
            manifest = self._load_manifest_locked()
            existed = manifest["entries"].pop(key, None) is not None
            try:
                os.unlink(self._object_path(key))
                existed = True
            except FileNotFoundError:
                pass
            self._save_manifest_locked(manifest)
        return existed

    def keys(self) -> tuple[str, ...]:
        with self._locked():
            manifest = self._reconcile_locked()
        return tuple(sorted(manifest["entries"]))

    def stats(self) -> dict[str, int]:
        with self._locked():
            manifest = self._reconcile_locked()
        entries = manifest["entries"]
        return {
            "objects": len(entries),
            "bytes": sum(entry["size"] for entry in entries.values()),
            "hits": manifest["hits"],
            "misses": manifest["misses"],
            "evictions": manifest["evictions"],
        }

    def gc(self, max_bytes: int | None = None) -> int:
        """Evict LRU objects until the store fits ``max_bytes`` (defaults
        to the configured bound). Returns the number evicted."""
        bound = max_bytes if max_bytes is not None else self.max_bytes
        if bound is None:
            return 0
        with self._locked():
            manifest = self._reconcile_locked()
            evicted = self._evict_locked(manifest, bound)
            if evicted:
                self._save_manifest_locked(manifest)
        return evicted

    # -- eviction ----------------------------------------------------------

    def _evict_locked(
        self, manifest: dict, bound: int, *, protect: str | None = None
    ) -> int:
        """Drop lowest-seq objects until total size <= bound."""
        entries = manifest["entries"]
        total = sum(entry["size"] for entry in entries.values())
        evicted = 0
        for key in sorted(entries, key=lambda k: entries[k]["seq"]):
            if total <= bound:
                break
            if key == protect:
                continue
            total -= entries[key]["size"]
            del entries[key]
            try:
                os.unlink(self._object_path(key))
            except FileNotFoundError:
                pass
            manifest["evictions"] += 1
            evicted += 1
        return evicted
