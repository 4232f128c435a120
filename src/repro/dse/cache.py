"""Content-addressed result cache.

Every cache entry is one JSON file addressed by a fingerprint of
*everything that determines the run's outcome*:

``key = sha256(schema, source fingerprint, kernel fingerprint, core,
config, workload, iterations)``

The seed is not in the key: the simulation is deterministic and the
seed is only recorded on the result, so every seed of a content shares
one entry, and :meth:`ResultCache.get` stamps the asking point's own
seed onto the payload it serves.

The source fingerprint hashes the bytes of every ``repro`` module, so
editing any model invalidates exactly the runs it could have changed —
there is no mtime heuristic and no TTL. Entries are also named by their
*logical* content (``cv32e40p-SLT-yield_pingpong-i10``); when a lookup
misses but a stale file for the same content exists (old source
version, or an older schema's per-seed file), it is removed and counted
as an invalidation.

The cache is also the resume mechanism: an interrupted sweep rerun on
the same cache directory serves every content that finished from the
cache and simulates only the rest.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass

from repro.chaos.hooks import fire as _chaos_fire
from repro.chaos.model import mangle_blob

_FINGERPRINT: str | None = None

#: Version tag of the cache entry schema (bump on breaking change).
#: 3: entries carry a payload digest, verified on every read.
#: 4: entries address content only; the seed left key and file name.
CACHE_SCHEMA = 4


def payload_digest(payload: dict) -> str:
    """Canonical content digest of one run payload.

    Stored inside every cache entry and re-checked on read: a blob that
    rotted on disk (or was half-written by a crashed process) is
    *detected*, evicted and recomputed instead of being served as a
    silently wrong result.
    """
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def stamp_payload(payload: dict, point) -> dict:
    """*payload* as the result of *point*: its ``seed`` field set to
    ``point.run_seed``, in place of the seed of whichever point of the
    same content produced it. Key order is kept.
    """
    return dict(payload, seed=point.run_seed)


def source_fingerprint() -> str:
    """Digest of the ``repro`` package sources (content, not mtimes)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = pathlib.Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


def point_key(point, fingerprint: str | None = None) -> str:
    """Content hash addressing one grid point's result.

    The single key scheme shared by :class:`ResultCache` and the
    service-layer coalescer (:mod:`repro.service`). It covers the
    point's :attr:`~repro.dse.executor.GridPoint.content` — core,
    config, workload and iterations — but not its seed: two
    requests with the same key produce run payloads that are
    byte-identical apart from their ``seed`` field, so they may legally
    share one execution, each stamped with its own seed.
    """
    from repro.personalities import kernel_fingerprint_for_name

    identity = dict(point.content, schema=CACHE_SCHEMA,
                    fingerprint=fingerprint or source_fingerprint(),
                    kernel=kernel_fingerprint_for_name(point.config))
    blob = json.dumps(identity, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0         # stale fingerprint/schema reaping
    corrupt_evictions: int = 0   # failed decode or digest on read

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "invalidated": self.invalidated,
                "corrupt_evictions": self.corrupt_evictions,
                "hit_rate": self.hit_rate}


class ResultCache:
    """On-disk JSON cache of grid-point results.

    ``fingerprint`` defaults to the live source fingerprint; tests pass
    an explicit value to exercise invalidation.
    """

    SCHEMA = CACHE_SCHEMA

    def __init__(self, root, fingerprint: str | None = None):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fingerprint = fingerprint or source_fingerprint()
        self.stats = CacheStats()

    # -- addressing ----------------------------------------------------------

    def key(self, point) -> str:
        return point_key(point, self.fingerprint)

    def _logical(self, point) -> str:
        return "{core}-{config}-{workload}-i{iterations}".format_map(
            point.content)

    def _path(self, point, key: str) -> pathlib.Path:
        return self.root / f"{self._logical(point)}.{key[:16]}.json"

    def path(self, point) -> pathlib.Path:
        return self._path(point, self.key(point))

    # -- lookups -------------------------------------------------------------

    def get(self, point) -> dict | None:
        """The cached run payload, or ``None`` (miss) — with accounting.

        A hit is served only after the entry decodes, carries the
        expected key *and* its stored payload digest matches the
        payload: anything else — disk rot, a half-written file, a
        mislabelled entry — is evicted, counted as a corrupt eviction
        and reported as a miss, so the caller recomputes instead of
        trusting damaged state. The verified payload is then stamped
        with *point*'s own seed (see :func:`stamp_payload`).
        """
        key = self.key(point)
        path = self._path(point, key)
        if path.exists():
            spec = _chaos_fire("cache.read")
            if spec is not None:
                path.write_bytes(mangle_blob(path.read_bytes(), spec.kind))
            try:
                entry = json.loads(path.read_text())
                if entry.get("key") != key:
                    raise ValueError("key mismatch")
                payload = entry["run"]
                if entry.get("digest") != payload_digest(payload):
                    raise ValueError("payload digest mismatch")
            except (ValueError, KeyError, OSError):
                # Corrupt or mislabelled entry: drop it, count it, miss.
                path.unlink(missing_ok=True)
                self.stats.corrupt_evictions += 1
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return stamp_payload(payload, point)
        # Stale entries for the same content can never hit again: an
        # older source fingerprint or schema, including schema 3's
        # per-seed ``<content>-s<seed>.<key>.json`` files. Reap and
        # account.
        logical = self._logical(point)
        stale = sorted([*self.root.glob(f"{logical}.*.json"),
                        *self.root.glob(f"{logical}-s*.json")])
        for old in stale:
            old.unlink(missing_ok=True)
            self.stats.invalidated += 1
        self.stats.misses += 1
        return None

    def put(self, point, payload: dict) -> None:
        """Store one run payload atomically (write-to-temp, rename)."""
        key = self.key(point)
        entry = {
            "schema": self.SCHEMA,
            "key": key,
            "fingerprint": self.fingerprint,
            "digest": payload_digest(payload),
            "point": point.content,
            "run": payload,
        }
        path = self._path(point, key)
        text = json.dumps(entry, indent=2, sort_keys=True) + "\n"
        spec = _chaos_fire("cache.write")
        if spec is not None and spec.kind == "partial_write":
            # A crash mid-write without the atomic rename: the damaged
            # file lands under the *final* name. The digest check on the
            # next read turns this into an eviction + recompute.
            path.write_text(text[:len(text) // 2])
            self.stats.stores += 1
            return
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
        self.stats.stores += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
