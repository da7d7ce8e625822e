"""Persistent per-PEC result cache with content fingerprints.

The cache answers one question for the incremental service: *is the stored
result of this PEC still valid for the current configuration, policy and
options?*  It does so by content addressing: every entry is keyed by a
fingerprint that hashes

* the PEC's identity (index, address range, contributing prefixes),
* the :func:`~repro.incremental.impact.config_slice` of everything the
  PEC's verification can read,
* the slices of every PEC in its dependency closure (a dirty upstream
  changes the fingerprint of all its dependents, which is exactly the
  "transitive closure over PEC dependency edges" rule),
* the policy and option serialisations, and
* the task shape of the PEC in the expanded task graph (failure scenario
  list, check/collect roles, dependent vs independent expansion mode).

If any input that could change the result changes, the key changes and the
lookup misses — so a fingerprint hit is a proof (modulo SHA-256 collisions)
that the cached result equals what a cold run would recompute.  Fingerprints
are built with :func:`hashlib.sha256` over canonical ``repr`` strings, never
Python's salted ``hash``, so they are stable across processes — which is
what lets a restarted service reload the JSON file and hit warm.

Entries round-trip through JSON: per-PEC task results (run records with
violations, trails and exploration statistics; converged data planes for
PECs that downstream PECs consume; transient campaign runs) are encoded by
the codec functions in this module and rebuilt bit-identically on decode.

The on-disk file is **crash-safe and corruption-safe**: writes go through a
temp-file rename under an advisory file lock (two concurrent writers
serialise instead of clobbering each other), the document carries a schema
version and a SHA-256 checksum of its canonical entry payload, and any file
that is unreadable, truncated, bit-flipped, checksum-less or from a
different schema version loads as *empty* with a logged warning — a cold
start is always correct; a misread entry never is.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.config.objects import NetworkConfig
from repro.core.options import PlanktonOptions
from repro.core.results import PecRunResult, Violation
from repro.core.scheduler import dependency_closure
from repro.dataplane.fib import DataPlane, FibEntry
from repro.incremental.impact import config_slice
from repro.modelcheck.explorer import ExplorationStatistics
from repro.modelcheck.por import ReductionStatistics
from repro.modelcheck.trail import Trail, TrailStep
from repro.netaddr import AddressRange, Prefix
from repro.pec.classes import PacketEquivalenceClass
from repro.pec.dependencies import PecDependencyGraph
from repro.protocols.base import RouteSource
from repro.topology.failures import FailureScenario

#: Bump when the entry schema or the fingerprint inputs change shape; old
#: cache files are discarded wholesale rather than misread.  v2 added the
#: payload checksum (v1 files start cold — their fingerprints predate the
#: supervision-era option fields anyway).  v3 added lifecycle scenarios to
#: transient runs and the (failure, scenario) pairs to the campaign task
#: shape, so v2 transient entries would be misattributed.  v4 gave transient
#: entries the per-task shape verify entries have (:func:`encode_entry`: a
#: cached PEC of either kind is a list of finished tasks), so v3 transient
#: entries — one flat run list per PEC — would not decode.
CACHE_SCHEMA_VERSION = 4

PathLike = Union[str, Path]

#: Cache integrity events (cold starts, corruption, lock contention) go
#: through the ``repro`` logger tree the CLI's ``-v`` surfaces.
LOG = logging.getLogger("repro.cache")


def _sha(token: object) -> str:
    return hashlib.sha256(repr(token).encode("utf-8")).hexdigest()


def _entries_checksum(entries_json: str) -> str:
    """SHA-256 over the canonical (sorted-key) entries serialisation."""
    return hashlib.sha256(entries_json.encode("utf-8")).hexdigest()


@contextmanager
def _advisory_lock(target: Path):
    """An exclusive advisory lock scoped to ``target``'s cache file.

    The lock lives in a sibling ``.lock`` file so the atomic
    ``os.replace`` of the cache file itself cannot swap the locked inode
    out from under a second process.  Advisory ``flock`` is cooperative —
    it serialises this module's readers and writers (two concurrent
    services sharing a cache directory), not arbitrary programs.  On
    platforms without ``fcntl`` the lock degrades to a no-op.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    lock_path = target.with_name(target.name + ".lock")
    with open(lock_path, "a+", encoding="utf-8") as lock_handle:
        fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)


# --------------------------------------------------------------------------- fingerprints
def pec_base_fingerprints(
    network: NetworkConfig,
    pecs: Sequence[PacketEquivalenceClass],
    dependency_graph: PecDependencyGraph,
) -> Dict[int, str]:
    """Per-PEC fingerprints of the config slices, composed over dependencies.

    A PEC's fingerprint folds in the slice fingerprints of every PEC in its
    dependency closure plus the closure's edge structure, so an edit that
    only touches an upstream PEC still invalidates all its dependents.
    """
    slices = {pec.index: _sha(config_slice(network, pec)) for pec in pecs}
    composed: Dict[int, str] = {}
    for pec in pecs:
        closure = dependency_closure(dependency_graph, [pec.index])
        upstream = sorted(closure - {pec.index})
        edges = tuple(
            sorted(
                (a, b)
                for a in closure
                for b in dependency_graph.dependencies_of(a)
                if b in closure
            )
        )
        composed[pec.index] = _sha(
            (
                slices[pec.index],
                tuple(slices.get(index, "?") for index in upstream),
                edges,
            )
        )
    return composed


def _policy_token(policies: Sequence) -> Tuple:
    """A canonical, process-stable serialisation of the policy list."""
    tokens: List[Tuple] = []
    for policy in policies:
        attributes = tuple(
            (name, repr(value)) for name, value in sorted(vars(policy).items())
        )
        tokens.append((type(policy).__module__, type(policy).__qualname__, attributes))
    return tuple(tokens)


def _options_token(options: PlanktonOptions) -> Tuple:
    """The option fields that can change results (execution knobs excluded).

    ``cores`` and ``backend`` are deliberately left out: the engine
    guarantees backend-identical results for the same task set, so a cached
    result is valid regardless of which backend produced it.
    """
    flags = options.optimizations
    return (
        options.max_failures,
        tuple(sorted(vars(flags).items())),
        options.stop_at_first_violation,
        options.max_states_per_pec,
        options.max_seconds_per_pec,
        options.fast_ospf,
        options.bitstate_bits,
        options.keep_data_planes,
    )


def _graph_shape(graph) -> Tuple[Dict[int, Tuple], bool]:
    """Per-PEC task shape of an expanded task graph (in task order)."""
    shape: Dict[int, List[Tuple]] = {}
    for task in graph.tasks:
        shape.setdefault(task.pec_index, []).append(
            (
                tuple(task.failure.failed_links),
                task.check_policies,
                task.collect_outcomes,
                task.kind,
            )
        )
    return {index: tuple(tasks) for index, tasks in shape.items()}, graph.has_edges


def verification_fingerprints(
    network: NetworkConfig,
    pecs: Sequence[PacketEquivalenceClass],
    dependency_graph: PecDependencyGraph,
    policies: Sequence,
    options: PlanktonOptions,
    graph,
) -> Dict[int, str]:
    """The cache keys of one verification request, per PEC index in ``graph``."""
    base = pec_base_fingerprints(network, pecs, dependency_graph)
    policy_token = _policy_token(policies)
    options_token = _options_token(options)
    shape, has_edges = _graph_shape(graph)
    return {
        index: _sha(("verify", base[index], policy_token, options_token, tasks, has_edges))
        for index, tasks in shape.items()
    }


def transient_fingerprint(
    base_fingerprint: str,
    transient_config,
    options: PlanktonOptions,
    task_shape: Tuple,
) -> str:
    """The cache key of one PEC's transient campaign.

    ``transient_config`` is a
    :class:`~repro.transient.explorer.TransientTaskConfig`; its properties,
    exploration options and initial events all shape the result.
    """
    properties = tuple(
        (
            type(prop).__module__,
            type(prop).__qualname__,
            tuple((name, repr(value)) for name, value in sorted(vars(prop).items())),
        )
        for prop in transient_config.properties
    )
    events = tuple(
        (
            type(event).__module__,
            type(event).__qualname__,
            tuple((name, repr(value)) for name, value in sorted(vars(event).items())),
        )
        for event in transient_config.initial_events
    )
    # A campaign stops by its own flag (part of ``transient_options`` below);
    # the engine's converged-state flag has no say in what it produces.
    options = replace(
        options, stop_at_first_violation=transient_config.options.stop_at_first_violation
    )
    # Supervision knobs (task_timeout/task_retries) shape *how* a campaign
    # runs, never *what* it produces — excluded, like cores/backend.
    transient_options = tuple(
        sorted(
            (name, value)
            for name, value in vars(transient_config.options).items()
            if name not in ("task_timeout", "task_retries")
        )
    )
    return _sha(
        (
            "transient",
            base_fingerprint,
            properties,
            events,
            transient_options,
            _options_token(options),
            task_shape,
        )
    )


# --------------------------------------------------------------------------- JSON codecs
def encode_failure(failure: FailureScenario) -> List[int]:
    return list(failure.failed_links)


def decode_failure(payload: Iterable[int]) -> FailureScenario:
    return FailureScenario(tuple(payload))


def encode_trail(trail: Optional[Trail]) -> Optional[Dict]:
    if trail is None:
        return None
    return {
        "policy": trail.policy,
        "pec_description": trail.pec_description,
        "steps": [[step.kind, step.description] for step in trail.steps],
        "violation_description": trail.violation_description,
        "data_plane_dump": trail.data_plane_dump,
    }


def decode_trail(payload: Optional[Dict]) -> Optional[Trail]:
    if payload is None:
        return None
    return Trail(
        policy=payload["policy"],
        pec_description=payload["pec_description"],
        steps=[TrailStep(kind=kind, description=text) for kind, text in payload["steps"]],
        violation_description=payload["violation_description"],
        data_plane_dump=payload["data_plane_dump"],
    )


def encode_violation(violation: Violation) -> Dict:
    return {
        "policy": violation.policy,
        "pec_index": violation.pec_index,
        "pec_description": violation.pec_description,
        "failure_description": violation.failure_description,
        "message": violation.message,
        "trail": encode_trail(violation.trail),
    }


def decode_violation(payload: Dict) -> Violation:
    return Violation(
        policy=payload["policy"],
        pec_index=payload["pec_index"],
        pec_description=payload["pec_description"],
        failure_description=payload["failure_description"],
        message=payload["message"],
        trail=decode_trail(payload["trail"]),
    )


def encode_reduction(reduction: Optional[ReductionStatistics]) -> Optional[Dict]:
    if reduction is None:
        return None
    return {
        "mode": reduction.mode,
        "states_reduced": reduction.states_reduced,
        "states_full": reduction.states_full,
        "transitions_enabled": reduction.transitions_enabled,
        "transitions_expanded": reduction.transitions_expanded,
        "transitions_slept": reduction.transitions_slept,
        "sleep_requeues": reduction.sleep_requeues,
        "sleep_fallbacks": reduction.sleep_fallbacks,
        "proviso_fallbacks": reduction.proviso_fallbacks,
        "depth_pruned": reduction.depth_pruned,
        "rank_immune_sessions": reduction.rank_immune_sessions,
    }


def decode_reduction(payload: Optional[Dict]) -> Optional[ReductionStatistics]:
    if payload is None:
        return None
    return ReductionStatistics(**payload)


def encode_statistics(statistics: Optional[ExplorationStatistics]) -> Optional[Dict]:
    if statistics is None:
        return None
    return {
        "states_expanded": statistics.states_expanded,
        "unique_states": statistics.unique_states,
        "transitions": statistics.transitions,
        "terminal_states": statistics.terminal_states,
        "unique_terminal_states": statistics.unique_terminal_states,
        "violations": statistics.violations,
        "max_depth_reached": statistics.max_depth_reached,
        "elapsed_seconds": statistics.elapsed_seconds,
        "visited_bytes": statistics.visited_bytes,
        "interner_entries": statistics.interner_entries,
        "interner_bytes": statistics.interner_bytes,
        "state_bytes": statistics.state_bytes,
        "truncated": statistics.truncated,
        "reduction": encode_reduction(statistics.reduction),
    }


def decode_statistics(payload: Optional[Dict]) -> Optional[ExplorationStatistics]:
    if payload is None:
        return None
    payload = dict(payload)
    payload["reduction"] = decode_reduction(payload.get("reduction"))
    return ExplorationStatistics(**payload)


def encode_data_plane(plane: DataPlane) -> Dict:
    return {
        "devices": list(plane.fibs),
        "pec_range": (
            [plane.pec_range.low, plane.pec_range.high]
            if plane.pec_range is not None
            else None
        ),
        "annotations": {key: str(value) for key, value in plane.annotations.items()},
        "fibs": {
            device: [
                {
                    "prefix": str(entry.prefix),
                    "next_hops": list(entry.next_hops),
                    "source": entry.source.name,
                    "delivers_locally": entry.delivers_locally,
                    "drop": entry.drop,
                    "metric": entry.metric,
                }
                for entry in fib._entries.values()
            ]
            for device, fib in plane.fibs.items()
        },
    }


def decode_data_plane(payload: Dict) -> DataPlane:
    pec_range = (
        AddressRange(payload["pec_range"][0], payload["pec_range"][1])
        if payload["pec_range"] is not None
        else None
    )
    plane = DataPlane(payload["devices"], pec_range=pec_range)
    plane.annotations.update(payload["annotations"])
    for device, entries in payload["fibs"].items():
        fib = plane.fib(device)
        for entry in entries:
            # Bypass Fib.install: cached entries already won their
            # administrative-distance contest, and install order must be
            # reproduced exactly.
            decoded = FibEntry(
                prefix=Prefix(entry["prefix"]),
                next_hops=tuple(entry["next_hops"]),
                source=RouteSource[entry["source"]],
                delivers_locally=entry["delivers_locally"],
                drop=entry["drop"],
                metric=entry["metric"],
            )
            fib._entries[decoded.prefix] = decoded
    return plane


def encode_run(run: PecRunResult) -> Dict:
    return {
        "pec_index": run.pec_index,
        "failure": encode_failure(run.failure),
        "converged_states": run.converged_states,
        "checked_states": run.checked_states,
        "suppressed_states": run.suppressed_states,
        "violations": [encode_violation(violation) for violation in run.violations],
        "statistics": encode_statistics(run.statistics),
        "data_planes": [encode_data_plane(plane) for plane in run.data_planes],
    }


def decode_run(payload: Dict) -> PecRunResult:
    return PecRunResult(
        pec_index=payload["pec_index"],
        failure=decode_failure(payload["failure"]),
        converged_states=payload["converged_states"],
        checked_states=payload["checked_states"],
        suppressed_states=payload["suppressed_states"],
        violations=[decode_violation(entry) for entry in payload["violations"]],
        statistics=decode_statistics(payload["statistics"]),
        data_planes=[decode_data_plane(entry) for entry in payload["data_planes"]],
    )


# ------------------------------------------------------------------ transient codecs
def encode_transient_result(result) -> Dict:
    """Encode a :class:`~repro.transient.explorer.TransientAnalysisResult`.

    Results carrying converged RPVP states (``collect_converged=True``) are
    rejected by the service before reaching the cache; plain results are
    fully JSON-representable.
    """
    return {
        "states_explored": result.states_explored,
        "converged_states": result.converged_states,
        "max_depth_reached": result.max_depth_reached,
        "truncated": result.truncated,
        "elapsed_seconds": result.elapsed_seconds,
        "violations": [
            {
                "property_name": violation.property_name,
                "message": violation.message,
                "depth": violation.depth,
                "converged": violation.converged,
                "witness": list(violation.witness),
            }
            for violation in result.violations
        ],
        "reduction": encode_reduction(result.reduction),
    }


def decode_transient_result(payload: Dict):
    from repro.transient.explorer import TransientAnalysisResult, TransientViolation

    return TransientAnalysisResult(
        states_explored=payload["states_explored"],
        converged_states=payload["converged_states"],
        max_depth_reached=payload["max_depth_reached"],
        truncated=payload["truncated"],
        elapsed_seconds=payload["elapsed_seconds"],
        violations=[
            TransientViolation(
                property_name=entry["property_name"],
                message=entry["message"],
                depth=entry["depth"],
                converged=entry["converged"],
                witness=tuple(entry["witness"]),
            )
            for entry in payload["violations"]
        ],
        reduction=decode_reduction(payload["reduction"]),
    )


def encode_transient_run(run) -> Dict:
    """Encode a :class:`~repro.transient.explorer.TransientCampaignRun`."""
    encoded = {
        "pec_index": run.pec_index,
        "failure": encode_failure(run.failure),
        "prefix": run.prefix,
        "result": encode_transient_result(run.result),
    }
    if run.scenario is not None:
        encoded["scenario"] = run.scenario
    return encoded


def decode_transient_run(payload: Dict):
    from repro.transient.explorer import TransientCampaignRun

    return TransientCampaignRun(
        pec_index=payload["pec_index"],
        failure=decode_failure(payload["failure"]),
        prefix=payload["prefix"],
        result=decode_transient_result(payload["result"]),
        scenario=payload.get("scenario"),
    )


# ------------------------------------------------------------------ entry codec
def encode_entry(kind: str, pec_index: int, tasks: Sequence, results: Sequence) -> Dict:
    """One PEC's cache entry: its tasks of the graph, each with its result.

    ``kind`` (``"verify"`` / ``"transient"``) only selects the run codec;
    everything else — failure scenario, run list, converged data planes — is
    the task's :class:`~repro.engine.graph.TaskResult` as is.
    """
    encode = encode_run if kind == "verify" else encode_transient_run
    return {
        "kind": kind,
        "pec_index": pec_index,
        "tasks": [
            {
                "failure": encode_failure(task.failure),
                "runs": [encode(run) for run in result.runs],
                "data_planes": [encode_data_plane(plane) for plane in result.data_planes],
            }
            for task, result in zip(tasks, results)
        ],
    }


def decode_entry(entry: Dict, kind: str, tasks: Sequence) -> Optional[Dict[int, object]]:
    """The finished tasks of one cached PEC entry, keyed by task id.

    Returns None (treat as a miss) when the entry does not line up with the
    graph's ``tasks`` of that PEC — a schema drift guard; the fingerprint
    already covers the task shape.
    """
    from repro.engine.graph import TaskResult

    stored = entry.get("tasks", [])
    if entry.get("kind") != kind or len(stored) != len(tasks):
        return None
    decode = decode_run if kind == "verify" else decode_transient_run
    decoded: Dict[int, object] = {}
    for task, payload in zip(tasks, stored):
        if tuple(payload["failure"]) != tuple(task.failure.failed_links):
            return None
        decoded[task.task_id] = TaskResult(
            task_id=task.task_id,
            runs=[decode(run) for run in payload["runs"]],
            data_planes=[decode_data_plane(plane) for plane in payload["data_planes"]],
        )
    return decoded


# --------------------------------------------------------------------------- the store
class ResultCache:
    """A fingerprint-keyed store of per-PEC results with a disk round trip.

    Entries are JSON-ready dicts (see the codec functions); the whole store
    serialises to one ``plankton_cache.json`` file inside ``directory``, so
    a service process can :meth:`save` on shutdown (or after every push)
    and restart warm.  Writes go through a temp-file rename so a crash
    mid-save never leaves a torn file.
    """

    FILENAME = "plankton_cache.json"

    def __init__(self, directory: Optional[PathLike] = None) -> None:
        self._entries: Dict[str, Dict] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.path: Optional[Path] = None
        #: Whether the file at :attr:`path` holds exactly the current entries
        #: (set by a load from / save to it, cleared by every mutation).
        self._persisted = False
        if directory is not None:
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            self.path = directory / self.FILENAME
            if self.path.exists():
                self.load(self.path)

    # ------------------------------------------------------------------ access
    def lookup(self, fingerprint: str) -> Optional[Dict]:
        """The entry stored under ``fingerprint``; counts the hit or miss."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def contains(self, fingerprint: str) -> bool:
        """Presence test without touching the hit/miss counters."""
        return fingerprint in self._entries

    def store(self, fingerprint: str, entry: Dict) -> None:
        """Insert or replace the entry under ``fingerprint``."""
        self._entries[fingerprint] = entry
        self.stores += 1
        self._persisted = False

    def invalidate(self, fingerprints: Iterable[str]) -> int:
        """Drop the named entries; returns how many existed."""
        dropped = 0
        for fingerprint in fingerprints:
            if self._entries.pop(fingerprint, None) is not None:
                dropped += 1
                self._persisted = False
        return dropped

    def clear(self) -> None:
        self._entries.clear()
        self._persisted = False

    def __len__(self) -> int:
        return len(self._entries)

    def reset_counters(self) -> None:
        """Zero the hit/miss/store counters (per-run accounting)."""
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------ disk
    def save(self, path: Optional[PathLike] = None) -> Optional[Path]:
        """Write the store to ``path`` (default: the directory it was opened
        on); returns the file path, or None when the cache is memory-only.
        A save to the cache's own file is skipped when that file already
        holds these entries — an all-hit run neither rewrites nor fsyncs it.

        The document header (schema version, payload checksum) precedes the
        entries; the write is temp-file + atomic rename under the advisory
        lock, so a reader never sees a torn file and a second writer never
        interleaves.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            return None
        if path is None and self._persisted:
            return target
        entries_json = json.dumps(self._entries, sort_keys=True)
        document = (
            '{"schema_version": %d, "checksum": "%s", "entries": %s}'
            % (CACHE_SCHEMA_VERSION, _entries_checksum(entries_json), entries_json)
        )
        target.parent.mkdir(parents=True, exist_ok=True)
        with _advisory_lock(target):
            handle = tempfile.NamedTemporaryFile(
                "w", dir=str(target.parent), suffix=".tmp", delete=False, encoding="utf-8"
            )
            try:
                with handle:
                    handle.write(document)
                    # Force the payload to stable storage before the rename:
                    # a crash (or SIGKILL) between replace and writeback must
                    # not leave the *new* name pointing at torn contents.
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(handle.name, target)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
        if target == self.path:
            self._persisted = True
        return target

    def load(self, path: PathLike) -> int:
        """Replace the in-memory entries with the file's; returns the count.

        Unreadable, truncated, bit-flipped, checksum-mismatched and
        wrong-schema files all load as *empty* with a logged warning (a
        cache miss is always safe; a misread entry is not).  The read holds
        the same advisory lock as :meth:`save`, so a concurrent writer's
        rename is never observed mid-flight.
        """
        self._entries = {}
        self._persisted = False
        target = Path(path)
        try:
            with _advisory_lock(target):
                with open(target, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
        except (OSError, ValueError) as exc:
            LOG.warning(
                "cache: %s is unreadable (%s: %s); starting cold",
                target,
                type(exc).__name__,
                exc,
            )
            return 0
        version = document.get("schema_version") if isinstance(document, dict) else None
        if version != CACHE_SCHEMA_VERSION:
            LOG.warning(
                "cache: %s has schema version %r (this build reads %d); starting cold",
                target,
                version,
                CACHE_SCHEMA_VERSION,
            )
            return 0
        entries = document.get("entries")
        if not isinstance(entries, dict):
            LOG.warning("cache: %s has a malformed entries section; starting cold", target)
            return 0
        expected = document.get("checksum")
        actual = _entries_checksum(json.dumps(entries, sort_keys=True))
        if expected != actual:
            LOG.warning(
                "cache: %s failed its payload checksum (stored %s, computed %s); "
                "the file is corrupt — starting cold",
                target,
                (expected or "<missing>")[:16],
                actual[:16],
            )
            return 0
        self._entries = entries
        self._persisted = target == self.path
        return len(self._entries)
