"""Content-addressed result cache.

One file per completed job, named by the job's content address
(:func:`repro.farm.job.job_key`), stored as canonical JSON under a
two-character fan-out directory::

    <root>/ab/abcdef....json

A hit returns the cached result without executing anything -- that is
how re-runs and resumed sweeps skip completed points.  Because the key
hashes (function ref, config, seed, code-version salt), a cache can be
shared between serial and parallel campaigns and across processes, and
can never serve a stale result for edited code.

Two invariants carry the weight: writes are atomic (temp file +
``os.replace``), so concurrent workers racing on the same key simply
last-write-wins identical bytes; corrupt or truncated entries read as
misses, never as errors.

:func:`as_cache_tier` is the uniform coercion every campaign surface
accepts for ``cache=``: ``None``, a directory path, or a ready
:class:`ResultCache`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.core.serde import canonical_json


class ResultCache:
    """Directory-backed map from job key to cached result payload.

    - ``lookup(key) -> (hit, result)`` -- corrupt or unreadable entries
      are misses, never errors; malformed *keys* still raise.
    - ``store(key, result, meta)`` -- atomic and idempotent; storing the
      same key twice writes identical bytes.
    - manifests -- named, all-or-nothing campaign records
      (:meth:`store_manifest` / :meth:`load_manifest` /
      :meth:`manifests`) that make sweeps crash-resumable.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed cache key {key!r}")
        return os.path.join(self.root, key[:2], f"{key}.json")

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(hit, result)``; unreadable entries are misses (malformed
        keys still raise -- only on-disk damage is forgiven)."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return False, None
        if not isinstance(payload, dict) or "result" not in payload:
            return False, None
        return True, payload["result"]

    def store(self, key: str, result: Any,
              meta: Optional[Dict[str, Any]] = None) -> str:
        """Atomically persist ``result`` (plus job metadata for humans
        spelunking the cache directory); returns the entry path."""
        path = self._path(key)
        payload = {"key": key, "result": result}
        if meta:
            payload["job"] = meta
        return self._atomic_write(path, payload)

    def _atomic_write(self, path: str, payload: Dict[str, Any]) -> str:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data = canonical_json(payload)
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path),
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(data)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    # campaign manifests (crash-resumable sweeps)
    # ------------------------------------------------------------------
    def _manifest_path(self, name: str) -> str:
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()
        return os.path.join(self.root, "manifests", f"{digest}.json")

    def store_manifest(self, name: str, payload: Dict[str, Any]) -> str:
        """Atomically persist a campaign manifest under ``name``.

        The manifest is what makes a campaign *resumable*: it records
        the full job list (ref/config/seed/name) plus the executor salt,
        so :meth:`repro.farm.Campaign.resume` can rebuild the identical
        key set after a crash and let cache hits skip completed jobs.
        """
        return self._atomic_write(self._manifest_path(name),
                                  {"name": name, **payload})

    def load_manifest(self, name: str) -> Dict[str, Any]:
        """Load the manifest stored under ``name``; KeyError if absent
        or damaged (a manifest is all-or-nothing, unlike results)."""
        try:
            with open(self._manifest_path(name), "r",
                      encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            raise KeyError(f"no campaign manifest named {name!r} "
                           f"under {self.root}")
        if not isinstance(payload, dict) or payload.get("name") != name:
            raise KeyError(f"damaged campaign manifest {name!r} "
                           f"under {self.root}")
        return payload

    def manifests(self) -> Iterator[str]:
        """Names of every stored campaign manifest."""
        subdir = os.path.join(self.root, "manifests")
        try:
            entries = sorted(os.listdir(subdir))
        except OSError:
            return
        for entry in entries:
            if not entry.endswith(".json"):
                continue
            try:
                with open(os.path.join(subdir, entry), "r",
                          encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict) and "name" in payload:
                yield payload["name"]

    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        try:
            fanouts = sorted(os.listdir(self.root))
        except OSError:
            return
        for fanout in fanouts:
            subdir = os.path.join(self.root, fanout)
            # Result fan-out dirs are exactly two hex chars; skips the
            # `manifests/` directory (campaign manifests, not results).
            if len(fanout) != 2 or not os.path.isdir(subdir):
                continue
            for entry in sorted(os.listdir(subdir)):
                if entry.endswith(".json"):
                    yield entry[:-len(".json")]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.lookup(key)[0]

    def __repr__(self) -> str:
        return f"ResultCache({self.root!r}, {len(self)} entries)"


CacheLike = Union[None, str, os.PathLike, ResultCache]


def as_cache_tier(cache: CacheLike) -> Optional[ResultCache]:
    """Coerce every accepted ``cache=`` spelling to a cache (or None).

    ``None`` stays None (no caching); a path becomes a
    :class:`ResultCache`; a ready :class:`ResultCache` passes through.
    """
    if cache is None or isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, (str, os.PathLike)):
        return ResultCache(os.fspath(cache))
    raise TypeError(f"cannot interpret {cache!r} as a result cache "
                    f"(expected None, a directory path or a ResultCache)")


__all__ = ["ResultCache", "as_cache_tier"]
