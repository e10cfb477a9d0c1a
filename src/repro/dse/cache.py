"""Persistent prediction cache for design-space sweeps.

A full Figure-10-style sweep evaluates thousands of (t, d, p, m) plans,
and re-running it — after an interrupt, a changed GPU budget, or a
follow-up study over an overlapping space — recomputes every point from
scratch. Related simulators (Echo, arXiv:2412.12487; Charon,
arXiv:2605.17164) memoize per-config predictions for exactly this
reason.

:class:`PredictionCache` maps a canonical fingerprint of
``(model, plan, system, granularity)`` — everything that determines a
prediction — to the resulting :class:`~repro.dse.explorer.DesignPoint`.
It round-trips through strict JSON so caches survive on disk, can be
shipped between machines, and double as sweep checkpoints
(:meth:`DesignSpaceExplorer.explore(checkpoint_path=...)
<repro.dse.explorer.DesignSpaceExplorer.explore>` saves one
periodically so interrupted sweeps resume instead of recomputing).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Mapping

from repro import obs
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import SystemConfig
from repro.dse.explorer import DesignPoint
from repro.errors import ConfigError
from repro.graph.builder import Granularity

# Process-wide aggregates across every PredictionCache instance, so
# `repro stats` reports one prediction-cache hit rate no matter how many
# caches a sweep constructed. Per-instance hits/misses stay on the
# instances themselves (tests and checkpoint logs rely on them).
_AGG_HITS = obs.metrics.counter("dse.prediction_cache.hits")
_AGG_MISSES = obs.metrics.counter("dse.prediction_cache.misses")

#: Bump when the prediction payload or fingerprint recipe changes, so
#: stale caches are rejected instead of silently misread.
#:
#: Deliberately NOT bumped for the interleaving release: ``v=1`` /
#: default-ZeRO fingerprints are byte-identical by design so existing
#: sweep caches keep resolving. Caveat: the same release also *fixed*
#: the memory model for two corner cases (sequence-parallel plans no
#: longer replicate the stage-0 embedding output; ``p > 1`` plans are
#: additionally checked at the LM-head stage), so entries for such
#: plans written by older releases carry the pre-fix feasibility —
#: delete the cache file to re-evaluate them.
CACHE_FORMAT_VERSION = 1


#: Canonical JSON of recently fingerprinted configs, keyed by object
#: identity (each entry holds its config, so an id is never reused
#: while its entry lives). A sweep fingerprints every plan against the
#: same model, recipe, workload and per-node-count system objects, so
#: those are serialised once instead of once per plan.
_CANONICAL: dict[int, tuple[Any, str]] = {}
_CANONICAL_MAX = 64


def _canonical(payload: Any) -> str:
    """Sorted-key compact JSON, the form every key is hashed from."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _canonical_config(config: Any) -> str:
    """:func:`_canonical` of a frozen config's ``to_dict()``, memoised."""
    entry = _CANONICAL.get(id(config))
    if entry is not None and entry[0] is config:
        return entry[1]
    text = _canonical(config.to_dict())
    if len(_CANONICAL) >= _CANONICAL_MAX:
        _CANONICAL.clear()
    _CANONICAL[id(config)] = (config, text)
    return text


def fingerprint(model: ModelConfig, plan: ParallelismConfig,
                training: TrainingConfig | None, system: SystemConfig,
                granularity: Granularity, *, zero_stage: int = 1,
                workload=None) -> str:
    """Canonical cache key for one prediction.

    The key hashes the *complete* simulation input — model, plan,
    training recipe (the global batch drives micro-batch scheduling and
    memory feasibility), system (GPU spec by registry name, interconnect
    parameters), graph granularity, and the memory model's ZeRO stage —
    via sorted-key JSON, so logically equal configurations produce
    identical keys regardless of construction order. The default ZeRO
    stage (1) is omitted from the payload, so caches written before the
    stage was configurable stay valid.

    Serving sweeps pass an :class:`~repro.workload.InferenceWorkload`
    as ``workload`` (and may pass ``training=None``): the workload's
    serialised form replaces the training recipe in the payload.
    Training predictions never add a ``workload`` key, so every
    pre-workload-abstraction cache key remains byte-identical.

    The JSON object is joined from its members' canonical forms in
    sorted key order, which is byte for byte what serialising the whole
    payload would give; the frozen configs' forms are memoised.
    """
    if training is None and workload is None:
        raise ConfigError("fingerprint needs a training recipe or workload")
    members = [
        f'"granularity":{_canonical(granularity.value)}',
        f'"model":{_canonical_config(model)}',
        f'"plan":{_canonical(plan.to_dict())}',
        f'"system":{_canonical_config(system)}',
    ]
    if training is not None:
        members.append(f'"training":{_canonical_config(training)}')
    if workload is not None:
        members.append(f'"workload":{_canonical_config(workload)}')
    if zero_stage != 1:
        members.append(f'"zero_stage":{_canonical(zero_stage)}')
    canonical = "{" + ",".join(members) + "}"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class PredictionCache:
    """In-memory map of prediction fingerprints to design points.

    Safe for concurrent use: the `repro serve` daemon shares one
    instance across handler threads, so lookups, stores, merges, and
    the hit/miss counters are guarded by an internal lock (uncontended
    single-threaded use pays one acquire per call).

    Attributes:
        hits: Number of :meth:`get` calls answered from the cache.
        misses: Number of :meth:`get` calls that found nothing.
    """

    def __init__(self) -> None:
        self._entries: dict[str, dict[str, Any]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str) -> DesignPoint | None:
        """The cached point for ``key``, counting a hit or a miss (both
        on this instance and on the ``dse.prediction_cache.*`` registry
        aggregates)."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                _AGG_MISSES.increment()
                return None
            self.hits += 1
            _AGG_HITS.increment()
        return DesignPoint.from_dict(payload)

    def put(self, key: str, point: DesignPoint) -> None:
        """Store ``point`` under ``key`` (overwrites silently)."""
        payload = point.to_dict()
        with self._lock:
            self._entries[key] = payload

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters for logs and tests."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries)}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload (entries sorted for stable diffs)."""
        with self._lock:
            return {
                "version": CACHE_FORMAT_VERSION,
                "entries": {key: self._entries[key]
                            for key in sorted(self._entries)},
            }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PredictionCache":
        """Rebuild a cache from :meth:`to_dict` output."""
        version = payload.get("version")
        if version != CACHE_FORMAT_VERSION:
            raise ConfigError(
                f"prediction cache version {version!r} is not supported "
                f"(expected {CACHE_FORMAT_VERSION})")
        entries = payload.get("entries")
        if not isinstance(entries, Mapping):
            raise ConfigError("prediction cache payload has no entries map")
        cache = cls()
        for key, entry in entries.items():
            DesignPoint.from_dict(entry)  # validate eagerly
            cache._entries[key] = dict(entry)
        return cache

    def save(self, path: str | Path) -> None:
        """Write the cache to a JSON file (parent dirs created).

        The write is atomic (temp file + rename in the target
        directory): checkpoints exist so interrupted sweeps can resume,
        so an interrupt landing mid-write must not corrupt the file.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(dir=target.parent,
                                             prefix=f".{target.name}.")
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(self.to_dict(), stream, indent=1)
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except FileNotFoundError:
                pass
            raise

    @classmethod
    def load(cls, path: str | Path) -> "PredictionCache":
        """Read a cache from a JSON file.

        Raises:
            ConfigError: On malformed JSON or an unsupported version.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"prediction cache {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def merge(self, other: "PredictionCache") -> int:
        """Absorb another cache's entries; returns how many were new."""
        with other._lock:
            incoming = {key: dict(entry)
                        for key, entry in other._entries.items()}
        added = 0
        with self._lock:
            for key, entry in incoming.items():
                if key not in self._entries:
                    added += 1
                self._entries[key] = entry
        return added
