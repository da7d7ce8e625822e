"""Persistent per-PEC result cache with content fingerprints.

The cache answers one question for the incremental service: *is the stored
result of this PEC still valid for the current configuration, policy and
options?*  It does so by content addressing: every entry is keyed by a
fingerprint that hashes

* the PEC's identity (index, address range, contributing prefixes),
* the :func:`~repro.incremental.impact.config_slice` and the
  :func:`~repro.incremental.impact.network_slice`: the values of the config
  constructs (the :mod:`repro.config.objects` dataclasses) the PEC's
  verification can read, scoped to the PEC, and the topology,
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

Entries round-trip through JSON: an entry is the list of a PEC's finished
tasks, each holding the *canonical documents* of its results (run records
with violations, trails and exploration statistics; converged data planes
for PECs that downstream PECs consume; transient campaign runs).  The schema
of those documents lives with the result classes — ``to_dict`` /
``from_dict``, see :func:`repro.modelcheck.trail.document` — and is the same
document the result signatures hash; this module only frames them per task.

The on-disk file is **crash-safe and corruption-safe**: writes go through a
temp-file rename under an advisory file lock (two concurrent writers
serialise instead of clobbering each other), the document carries a schema
version and a SHA-256 checksum of its entries *as the bytes they are stored
in*, and any file that is unreadable, truncated, bit-flipped, checksum-less
or from a different schema version loads as *empty* with a logged warning —
a cold start is always correct; a misread entry never is.  The file is
verified as written: one hash over the stored bytes, before anything is
parsed (see :func:`_seal`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.config.objects import NetworkConfig
from repro.core.options import OptimizationFlags, PlanktonOptions
from repro.core.results import PecRunResult
from repro.core.scheduler import dependency_closure
from repro.dataplane.fib import DataPlane
from repro.engine.graph import TaskResult
from repro.exceptions import VerificationError
from repro.incremental.impact import config_slice, network_slice
from repro.pec.classes import PacketEquivalenceClass
from repro.pec.dependencies import PecDependencyGraph

#: Bump when the entry schema or the fingerprint inputs change shape; old
#: cache files are discarded wholesale rather than misread.  v2 added the
#: payload checksum (v1 files start cold — their fingerprints predate the
#: supervision-era option fields anyway).  v3 added lifecycle scenarios to
#: transient runs and the (failure, scenario) pairs to the campaign task
#: shape, so v2 transient entries would be misattributed.  v4 gave transient
#: entries the per-task shape verify entries have (:func:`encode_entry`: a
#: cached PEC of either kind is a list of finished tasks), so v3 transient
#: entries — one flat run list per PEC — would not decode.  v5 stores the
#: result classes' own canonical documents (``to_dict``) in place of this
#: module's former field-by-field codecs; the key sets differ.  v6 moves the
#: checksum from the entries' canonical re-serialisation to their bytes on
#: disk (a v5 file sealed by other means than :meth:`ResultCache.save` need
#: not verify), and drops the never-read ``failure_ordering`` flag from the
#: options token, so every v5 fingerprint is unreachable anyway.  v7 drops
#: ``unique_terminal_states`` and ``violations`` from the exploration
#: statistics document, and ``rank_immunity`` from the transient options.  v8
#: makes a transient entry's task one (PEC, failure) carrying all of its
#: scenario runs, writes each run's witness prefix once
#: (``witness_prefix``) with each violation's witness after it, and keys a
#: campaign on each scenario's events as well as its name.  v9 drops
#: ``sleep_fallbacks`` from the reduction ledger and ``frontier`` /
#: ``minimize_witnesses`` from the transient options.  v10 fingerprints hash
#: the config dataclass values (:func:`~repro.incremental.impact.config_slice`),
#: not hand-built tuples.  v11 drops ``data_planes`` from the PEC run document
#: and ``keep_data_planes`` from the options token.  v12 adds each run's
#: ``completeness`` to the PEC run and transient analysis documents.  v13
#: drops the config fields no model read (``BgpNeighbor.weight`` and
#: ``next_hop_self``, ``BgpConfig.redistribute_ospf``/``redistribute_static``/
#: ``multipath``, ``SetActions.next_hop_self``/``ospf_metric``) and
#: ``scenario_kinds`` from the transient options.
CACHE_SCHEMA_VERSION = 13

#: The SHA-256 of the field layout — class name, then field names in order
#: — of every document class a cache entry stores and every config
#: dataclass a fingerprint hashes, as of :data:`CACHE_SCHEMA_VERSION`.  A
#: change to either moves what old files decode to or what old keys meant:
#: bump the version and record the new digest
#: (``tests/test_incremental.py`` recomputes it).
CACHE_LAYOUT_SHA256 = "55ff5ef4f1f1274745e19a39b63eb24188653204941ebdbbb99884a45f4e09e9"

PathLike = Union[str, Path]

#: Cache integrity events (cold starts, corruption, lock contention) go
#: through the ``repro`` logger tree the CLI's ``-v`` surfaces.
LOG = logging.getLogger("repro.cache")


def _sha(token: object) -> str:
    return hashlib.sha256(repr(token).encode("utf-8")).hexdigest()


#: What separates the header of a cache file from its entries (:func:`_seal`).
_ENTRIES_MARKER = b', "entries": '


def _seal(entries_json: str) -> str:
    """The cache file holding ``entries_json`` (a JSON object, ASCII).

    One JSON document, header first: the schema version, the SHA-256 of the
    entries' bytes exactly as they follow, then those bytes.  A reader finds
    the header without parsing the entries (:data:`_ENTRIES_MARKER` cannot
    occur in it), so it can refuse a foreign version and verify the checksum
    with one hash over the stored bytes before it parses any of them.
    """
    checksum = hashlib.sha256(entries_json.encode("ascii")).hexdigest()
    return '{"schema_version": %d, "checksum": "%s", "entries": %s}' % (
        CACHE_SCHEMA_VERSION,
        checksum,
        entries_json,
    )


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

    The network slice, which every PEC reads alike, is hashed once and
    folded into the hash of each PEC's own slice.  A PEC's fingerprint
    folds in the slice fingerprints of every PEC in its dependency closure
    plus the closure's edge structure, so an edit that only touches an
    upstream PEC still invalidates all its dependents.
    """
    shared = _sha(network_slice(network))
    slices = {pec.index: _sha((shared, config_slice(network, pec))) for pec in pecs}
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


def _canonical(value: object) -> object:
    """``value`` with every set and frozenset in it sorted, also inside
    tuples, lists and dicts: a set's ``repr`` follows ``PYTHONHASHSEED``."""
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__, sorted((_canonical(item) for item in value), key=repr))
    if type(value) in (tuple, list):
        return type(value)(_canonical(item) for item in value)
    if type(value) is dict:
        return {key: _canonical(item) for key, item in value.items()}
    return value


#: What a default ``repr`` — ``<Foo object at 0x7f…>``, ``<function f at
#: 0x…>`` — spells a memory address with: no key may hold one.
_ADDRESS = " at 0x"


def _object_tokens(values: Sequence) -> Tuple:
    """A canonical, process-stable serialisation of a list of policy,
    transient-property or initial-event objects: class and attributes.

    Raises :class:`VerificationError` for an attribute whose ``repr`` holds
    a memory address: a freed address can be reused by another object (a
    false hit in a long-lived daemon), and no other process sees it (a miss
    every time)."""
    tokens = []
    for value in values:
        attributes = []
        for name, attribute in sorted(vars(value).items()):
            token = repr(_canonical(attribute))
            if _ADDRESS in token:
                raise VerificationError(
                    f"{type(value).__qualname__}.{name} has no cache key: its repr "
                    f"{token} holds a memory address; give it a repr of its value"
                )
            attributes.append((name, token))
        tokens.append((type(value).__module__, type(value).__qualname__, tuple(attributes)))
    return tuple(tokens)


#: The :class:`PlanktonOptions` fields a cache key reads, in the order it
#: reads them: every field that can change what a result holds.
KEYED_OPTIONS = (
    "max_failures",
    "optimizations",
    "stop_at_first_violation",
    "max_states_per_pec",
    "max_seconds_per_pec",
    "fast_ospf",
    "bitstate_bits",
)

#: The :class:`PlanktonOptions` fields a cache key leaves out: they shape how
#: a result is computed, never what it holds (the engine gives every backend
#: and core count the same result for the same task set, and supervision only
#: retries).  Every field is in exactly one of the two (a test pins it); a
#: :class:`~repro.transient.explorer.TransientOptions` field is always keyed.
EXECUTION_ONLY_OPTIONS = frozenset({"cores", "backend", "task_timeout", "task_retries"})


def _options_token(options: PlanktonOptions) -> Tuple:
    """The :data:`KEYED_OPTIONS` of ``options``, the flags as sorted items."""
    return tuple(
        tuple(sorted(vars(value).items())) if isinstance(value, OptimizationFlags) else value
        for value in (getattr(options, name) for name in KEYED_OPTIONS)
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
    policy_token = _object_tokens(policies)
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

    ``transient_config`` is the PEC's
    :class:`~repro.transient.explorer.TransientTaskConfig`; its properties,
    exploration options, initial events and lifecycle scenarios all shape
    the result.  A scenario is keyed by its description (the runs' label)
    and by its events: two scenarios under one name are two keys.
    ``task_shape`` is the failure links of the PEC's tasks, in graph order.
    """
    # A campaign stops by its own flag (part of ``transient_options`` below);
    # the engine's converged-state flag has no say in what it produces.
    options = replace(
        options, stop_at_first_violation=transient_config.options.stop_at_first_violation
    )
    transient_options = tuple(sorted(vars(transient_config.options).items()))
    return _sha(
        (
            "transient",
            base_fingerprint,
            _object_tokens(transient_config.properties),
            _object_tokens(transient_config.initial_events),
            tuple(
                (scenario.describe(), _object_tokens(scenario.events))
                for scenario in transient_config.scenarios
            ),
            transient_options,
            _options_token(options),
            task_shape,
        )
    )


# --------------------------------------------------------------------------- entry codec
# The six run/plane functions below add nothing to the classes' own
# documents; they are the named call sites of the encode and decode work
# (the benchmark's tracer wraps them by name).
def encode_run(run: PecRunResult) -> Dict:
    return run.to_dict()


def decode_run(payload: Dict) -> PecRunResult:
    return PecRunResult.from_dict(payload)


def encode_data_plane(plane: DataPlane) -> Dict:
    return plane.to_dict()


def decode_data_plane(payload: Dict) -> DataPlane:
    return DataPlane.from_dict(payload)


def encode_transient_run(run) -> Dict:
    """Encode a :class:`~repro.transient.explorer.TransientCampaignRun`.

    Results carrying converged RPVP states (``collect_converged=True``) are
    rejected by the service before reaching the cache.
    """
    return run.to_dict()


def decode_transient_run(payload: Dict):
    from repro.transient.explorer import TransientCampaignRun

    return TransientCampaignRun.from_dict(payload)


def encode_entry(kind: str, pec_index: int, tasks: Sequence, results: Sequence) -> Dict:
    """One PEC's cache entry: its tasks of the graph, each with its result.

    ``kind`` (``"verify"`` / ``"transient"``) only selects the run class;
    everything else — failure scenario, run list, converged data planes — is
    the task's :class:`~repro.engine.graph.TaskResult` as is.
    """
    encode = encode_run if kind == "verify" else encode_transient_run
    return {
        "kind": kind,
        "pec_index": pec_index,
        "tasks": [
            {
                "failure": task.failure.to_dict(),
                "runs": [encode(run) for run in result.runs],
                "data_planes": [encode_data_plane(plane) for plane in result.data_planes],
            }
            for task, result in zip(tasks, results)
        ],
    }


def decode_entry(
    entry: Dict, kind: str, tasks: Sequence, fingerprint: str = ""
) -> Optional[Dict[int, object]]:
    """The finished tasks of one cached PEC entry, keyed by task id.

    Returns None (treat as a miss) when the entry does not line up with the
    graph's ``tasks`` of that PEC, or does not decode at all: a checksummed,
    same-version file can still hold an entry with a missing or unknown key
    (written by a build whose result classes differ), and the documents are
    strict about both.  The second case logs one warning naming
    ``fingerprint``; a recomputed PEC is always correct.
    """
    decode = decode_run if kind == "verify" else decode_transient_run
    decoded: Dict[int, object] = {}
    try:
        stored = entry["tasks"]
        if entry["kind"] != kind or len(stored) != len(tasks):
            return None
        for task, payload in zip(tasks, stored):
            if payload["failure"] != task.failure.to_dict():
                return None
            decoded[task.task_id] = TaskResult(
                task_id=task.task_id,
                runs=[decode(run) for run in payload["runs"]],
                data_planes=[decode_data_plane(plane) for plane in payload["data_planes"]],
            )
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        LOG.warning(
            "cache: entry %s does not decode (%s: %s); recomputing its PEC",
            fingerprint[:16],
            type(exc).__name__,
            exc,
        )
        return None
    return decoded


# --------------------------------------------------------------------------- the store
class ResultCache:
    """A fingerprint-keyed store of per-PEC results with a disk round trip.

    Entries are JSON-ready dicts (see :func:`encode_entry`); the whole store
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

    def store(self, fingerprint: str, entry: Dict) -> None:
        """Insert or replace the entry under ``fingerprint``."""
        self._entries[fingerprint] = entry
        self.stores += 1
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
        entries (:func:`_seal`); the write is temp-file + atomic rename under
        the advisory lock, so a reader never sees a torn file and a second
        writer never interleaves.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            return None
        if path is None and self._persisted:
            return target
        import tempfile  # shutil, bz2, lzma, ...: only a run that stored something pays

        document = _seal(json.dumps(self._entries, sort_keys=True))
        target.parent.mkdir(parents=True, exist_ok=True)
        with _advisory_lock(target):
            handle = tempfile.NamedTemporaryFile(
                "w", dir=str(target.parent), suffix=".tmp", delete=False, encoding="ascii"
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
        cache miss is always safe; a misread entry is not).  The entries are
        parsed only after their stored bytes passed the checksum, and are
        never serialised again to check it.  The read holds the same
        advisory lock as :meth:`save`, so a concurrent writer's rename is
        never observed mid-flight.
        """
        self._entries = {}
        self._persisted = False
        target = Path(path)

        def cold(reason: str, *args: object) -> int:
            LOG.warning("cache: %s " + reason + "; starting cold", target, *args)
            return 0

        try:
            with _advisory_lock(target):
                with open(target, "rb") as handle:
                    stored = handle.read()
            head, marker, rest = stored.partition(_ENTRIES_MARKER)
            # Without the marker this is no file of ours (a pre-versioning
            # one, say): parse all of it, for the version it does not have.
            header = json.loads(head + b"}" if marker else stored)
        except (OSError, ValueError) as exc:
            return cold("is unreadable (%s: %s)", type(exc).__name__, exc)
        version = header.get("schema_version") if isinstance(header, dict) else None
        if version != CACHE_SCHEMA_VERSION:
            return cold(
                "has schema version %r (this build reads %d)", version, CACHE_SCHEMA_VERSION
            )
        if not rest.startswith(b"{"):
            return cold("has a malformed entries section")
        expected = header.get("checksum")
        body = rest[:-1]  # the document's closing brace follows the entries
        actual = hashlib.sha256(body).hexdigest()
        if expected != actual or not rest.endswith(b"}"):
            return cold(
                "is unreadable: it failed its payload checksum (stored %s, computed %s) "
                "- the file is corrupt or truncated",
                str(expected or "<missing>")[:16],
                actual[:16],
            )
        try:
            self._entries = json.loads(body)
        except ValueError as exc:  # sealed by something that does not write JSON
            return cold("is unreadable (%s: %s)", type(exc).__name__, exc)
        self._persisted = target == self.path
        return len(self._entries)
