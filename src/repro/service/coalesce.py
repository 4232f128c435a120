"""Request coalescing: dedup against the cache and in-flight work.

Every request is content-hashed with *exactly* the key scheme of the
DSE result cache (:func:`repro.dse.cache.point_key`): core, config,
workload and iterations + schema + source fingerprint, but not the
seed. That shared scheme is what makes coalescing safe — two requests
with equal keys are guaranteed results that differ only in the recorded
seed, so they may share one execution:

* **cache**: a completed run of the same content exists → served
  immediately under the request's own seed, no queue slot consumed;
* **in-flight**: a job of the same content is queued or executing → the
  new request attaches as a *follower* of that leader and resolves with
  the leader's payload, stamped with the follower's own seed;
* **new**: the request takes a queue slot and becomes a leader itself.
"""

from __future__ import annotations

from repro.dse.cache import point_key, source_fingerprint


class Coalescer:
    """Content-addressed dedup front of the job server."""

    def __init__(self, cache=None, fingerprint: str | None = None):
        self.cache = cache
        self.fingerprint = (fingerprint
                            or (cache.fingerprint if cache is not None
                                else source_fingerprint()))
        self._inflight: dict = {}  # key -> leader job

    def key(self, point) -> str:
        return point_key(point, self.fingerprint)

    def lookup(self, point):
        """Classify a request: ``(kind, value)``.

        ``("cache", payload)`` — completed run payload from the cache;
        ``("inflight", leader)`` — identical job currently live;
        ``("new", key)`` — nothing to share, caller must enqueue.
        """
        key = self.key(point)
        leader = self._inflight.get(key)
        if leader is not None:
            return ("inflight", leader)
        if self.cache is not None:
            payload = self.cache.get(point)
            if payload is not None:
                return ("cache", payload)
        return ("new", key)

    def lease(self, key: str, job) -> None:
        """Register *job* as the in-flight leader for *key*."""
        self._inflight[key] = job

    def release(self, key: str) -> None:
        """Drop the in-flight entry (call before resolving followers, so
        a submit racing with completion lands on the cache instead)."""
        self._inflight.pop(key, None)
