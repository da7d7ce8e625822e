"""The incremental re-verification session: :class:`IncrementalVerifier`.

A service process owns one :class:`IncrementalVerifier`.  The first
:meth:`~IncrementalVerifier.verify` call behaves like a cold
:meth:`~repro.core.verifier.Plankton.verify` and fills the cache; every
configuration push then goes through :meth:`~IncrementalVerifier.update`
(which computes the :class:`~repro.incremental.delta.ConfigDelta` and the
impacted-PEC set) and a re-:meth:`verify`.

**A cache hit is a finished task.**  Converged-state verification and
transient (SPVP interleaving) campaigns —
:meth:`~IncrementalVerifier.verify_transients` — share one skeleton:

1. expand the *same* task graph a cold run would (one graph per request,
   also for a campaign over many PECs);
2. fingerprint every PEC in the graph
   (:func:`~repro.incremental.cache.verification_fingerprints` /
   :func:`~repro.incremental.cache.transient_fingerprint`);
3. look clean PECs up and decode their entries — one list of per-task
   results per PEC, the same entry shape for both kinds — into the
   ``known`` map of the engine's ledger
   (:class:`~repro.engine.aggregator.ResultAggregator`);
4. :func:`~repro.engine.run_graph` the unchanged graph: the backend runs
   only the tasks the ledger does not already hold, dependents read cached
   and fresh upstream data planes alike, nothing runs past a cached
   violation, and an all-hit request constructs no backend at all;
5. fold the ledger's ordered prefix into the result — identical (modulo
   wall-clock fields) to what a cold run of the new configuration would
   return, on either backend;
6. store every dirty PEC whose tasks all finished, clear its
   impact-pending mark, and save.

Correctness layering: a cache entry is used only when its fingerprint
matches, *and* the PECs named dirty by the impact analysis of the latest
:meth:`update` are recomputed regardless — so the impact analysis can only
cost extra recomputation, never staleness, and a fingerprint bug would have
to coincide with an impact-analysis miss to go unnoticed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.config.objects import NetworkConfig
from repro.core.options import PlanktonOptions
from repro.core.results import VerificationResult
from repro.core.verifier import Plankton
from repro.engine.graph import TaskResult
from repro.incremental.cache import (
    ResultCache,
    _object_tokens,
    decode_entry,
    encode_entry,
    pec_base_fingerprints,
    transient_fingerprint,
    verification_fingerprints,
)
from repro.incremental.delta import ConfigDelta, diff_networks
from repro.incremental.impact import impacted_pecs
from repro.modelcheck.trail import document
from repro.pec.classes import PacketEquivalenceClass
from repro.policies.base import Policy


# --------------------------------------------------------------------------- run stats
@document(dirty_pecs=(list, list), impacted_pecs=(list, list))
@dataclass
class IncrementalRunStats:
    """Cache-hit / recompute accounting for one incremental run."""

    pecs_total: int = 0
    pecs_from_cache: int = 0
    pecs_recomputed: int = 0
    tasks_total: int = 0
    tasks_from_cache: int = 0
    tasks_recomputed: int = 0
    #: PEC indices recomputed this run (fingerprint miss or impact-dirty).
    dirty_pecs: List[int] = field(default_factory=list)
    #: PEC indices the impact analysis of the last delta named.
    impacted_pecs: List[int] = field(default_factory=list)
    delta_summary: str = ""
    cache_entries: int = 0

    def describe(self) -> str:
        delta = f" ({self.delta_summary})" if self.delta_summary else ""
        return (
            f"incremental: {self.pecs_from_cache}/{self.pecs_total} PEC(s) from "
            f"cache, {self.pecs_recomputed} recomputed "
            f"({self.tasks_from_cache}/{self.tasks_total} task(s) cached); "
            f"{self.cache_entries} cache entr(ies){delta}"
        )


# --------------------------------------------------------------------------- signatures
#: What a signature leaves out of a result's canonical document (a bare name
#: applies to every class that has the field): ``elapsed_seconds`` is
#: wall-clock; a task failure's ``message`` carries worker pids and exception
#: reprs and its ``attempts`` depend on timing (*which* task failed, and how,
#: is covered).  Everything else the cache stores and the reports print is
#: hashed.
SIGNATURE_EXCLUDED = frozenset({"elapsed_seconds", "TaskFailure.message", "TaskFailure.attempts"})


def result_signature(result) -> Dict[str, object]:
    """A result's canonical document (``to_dict``) minus :data:`SIGNATURE_EXCLUDED`.

    The oracle tests assert this is equal between an incremental
    re-verification and a cold ``Plankton.verify``, between serial and pool
    runs, and between a faulted-and-recovered run and a clean one.
    """
    return result.to_dict(SIGNATURE_EXCLUDED)


def _digest(signature: Dict[str, object]) -> str:
    return hashlib.sha256(json.dumps(signature, sort_keys=True).encode("utf-8")).hexdigest()


def result_signature_digest(result) -> str:
    """SHA-256 of the sorted-key JSON of :func:`result_signature`.

    The digest travels over the service API so a client (or test) can assert
    bit-identity with an in-process cold verify without shipping the objects.
    """
    return _digest(result_signature(result))


# Kept only for perf/tracing.py's TARGETS table: result_signature_digest takes either kind.
def transient_campaign_signature_digest(campaign) -> str:
    return result_signature_digest(campaign)


# --------------------------------------------------------------------------- the service
#: Policy sets whose expansion one :class:`Plankton` keeps (oldest dropped
#: first): a tenant that pushes ever-new policies must not grow the daemon.
REQUEST_MEMO_LIMIT = 16


class IncrementalVerifier:
    """A verification session that re-verifies configuration deltas fast.

    Typical service loop::

        service = IncrementalVerifier(network, options, cache_dir="cache/")
        service.verify(policy)              # cold; fills the cache
        delta = service.update(new_network) # a config push
        result = service.verify(policy)     # only dirty PECs recomputed
        print(result.incremental.describe())

    The cache directory is optional; without it the cache lives in memory
    for the life of the session.  With it, every verify persists the store,
    so a *new process* pointed at the same directory restarts warm.
    """

    def __init__(
        self,
        network: NetworkConfig,
        options: Optional[PlanktonOptions] = None,
        cache_dir=None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.options = options or PlanktonOptions()
        self.cache = cache if cache is not None else ResultCache(cache_dir)
        self.plankton = Plankton(network, self.options)
        self.last_delta: Optional[ConfigDelta] = None
        #: Impact-dirty PEC indices, consumed once per result kind: the
        #: first verify (and the first transient campaign) after an update
        #: recomputes them regardless of fingerprint agreement.
        self._impact_pending: Dict[str, Set[int]] = {"verify": set(), "transient": set()}

    # ------------------------------------------------------------------ session API
    @property
    def network(self) -> NetworkConfig:
        return self.plankton.network

    def update(self, new_network: NetworkConfig) -> ConfigDelta:
        """Install a new configuration; returns the structural delta.

        The delta's impacted PECs are recomputed (not served from cache) on
        the next verify even if their fingerprints match — the impact
        analysis acts as a second, independent invalidation layer.

        The session's own network object installed again — what a run-only
        push is — differs from itself in nothing: the delta is empty by
        construction, and the :class:`Plankton` of this configuration
        generation stays, with everything it has worked out about it
        (:attr:`Plankton.request_memo`).
        """
        if new_network is self.plankton.network:
            self.last_delta = ConfigDelta()
            return self.last_delta
        # Built first: a configuration it refuses leaves the session as it was.
        plankton = Plankton(new_network, self.options)
        delta = diff_networks(self.plankton.network, new_network)
        self.plankton = plankton
        self.last_delta = delta
        impacted = impacted_pecs(
            delta, new_network, self.plankton.pecs, self.plankton.dependency_graph
        )
        # Union, not replace: consecutive pushes without an intervening
        # verify must keep every earlier push's PECs pending.  (Indices are
        # in the *new* partition; fingerprints cover partition shifts, the
        # pending set is the independent belt on top.)
        self._impact_pending["verify"] |= impacted
        self._impact_pending["transient"] |= impacted
        return delta

    def save(self):
        """Persist the cache (no-op for memory-only caches)."""
        return self.cache.save()

    def with_options(self, options: PlanktonOptions) -> "IncrementalVerifier":
        """A session over the same network with different engine options.

        The warm state survives: the cache object (and its disk binding),
        the last delta and the pending impact-dirty PEC sets all carry over;
        only the :class:`Plankton` facade is rebuilt, since its task
        expansion depends on the options.  Used by the serve daemon when a
        tenant's push changes options mid-session — result correctness is
        carried by the fingerprints (which cover the result-shaping option
        fields), so reusing the cache across an options change is safe: a
        result-shaping change misses, an execution-only change hits.
        """
        fresh = IncrementalVerifier(self.network, options, cache=self.cache)
        fresh.last_delta = self.last_delta
        fresh._impact_pending = {
            kind: set(indices) for kind, indices in self._impact_pending.items()
        }
        return fresh

    # ------------------------------------------------------------------ verification
    def _reverify(self, kind: str, graph, fingerprints: Dict[int, str], context, cacheable=True):
        """The one skeleton behind :meth:`verify` and :meth:`verify_transients`.

        Looks every PEC of ``graph`` up (``fingerprints`` maps PEC index to
        cache key), decodes the hits into the ledger's ``known`` tasks, runs
        what is left, stores every dirty PEC whose tasks all finished and
        saves.  Returns the ledger's ordered prefix and the run's
        accounting; ``kind`` selects the entry codec and the pending set.
        """
        from repro.engine import run_graph

        impact_dirty = self._impact_pending[kind]
        stats = IncrementalRunStats(
            impacted_pecs=sorted(impact_dirty),
            delta_summary=self.last_delta.summary() if self.last_delta else "",
        )
        tasks_by_pec: Dict[int, List] = {}
        for task in graph.tasks:
            tasks_by_pec.setdefault(task.pec_index, []).append(task)
        known: Dict[int, TaskResult] = {}
        dirty: List[int] = []
        for pec_index, tasks in tasks_by_pec.items():
            entry = decoded = None
            if cacheable and pec_index not in impact_dirty:
                entry = self.cache.lookup(fingerprints[pec_index])
            if entry is not None:
                decoded = decode_entry(entry, kind, tasks, fingerprints[pec_index])
            if decoded is None:
                dirty.append(pec_index)
            else:
                known.update(decoded)

        ledger = run_graph(graph, context, known, keep_planes=True)
        prefix = ledger.finalize()

        # Early-stopped PECs (a task without a result) are not cacheable and
        # stay impact-pending: exactly what a cold run would have left behind.
        for pec_index in dirty if cacheable else ():
            tasks = tasks_by_pec[pec_index]
            results = [ledger.result(task.task_id) for task in tasks]
            if all(isinstance(result, TaskResult) for result in results):
                self.cache.store(
                    fingerprints[pec_index], encode_entry(kind, pec_index, tasks, results)
                )
                impact_dirty.discard(pec_index)

        # A campaign reports the PECs its ordered walk reached (its first
        # violation ends it there); a verify reports every PEC of the graph.
        reached = (
            {spec.pec_index for spec, _ in prefix} if kind == "transient" else set(tasks_by_pec)
        )
        stats.dirty_pecs = sorted(index for index in dirty if index in reached)
        stats.pecs_total = len(reached)
        stats.pecs_recomputed = len(stats.dirty_pecs)
        stats.pecs_from_cache = stats.pecs_total - stats.pecs_recomputed
        stats.tasks_total = sum(len(tasks_by_pec[index]) for index in reached)
        stats.tasks_recomputed = sum(1 for spec in ledger.planned if spec.pec_index in reached)
        stats.tasks_from_cache = sum(
            len(tasks_by_pec[index]) for index in reached if index not in dirty
        )
        stats.cache_entries = len(self.cache)
        self.cache.save()
        return prefix, stats

    def verify(self, policies: Union[Policy, Sequence[Policy]]) -> VerificationResult:
        """Verify the current configuration, reusing every clean PEC.

        The returned result is identical (except wall-clock fields) to a
        cold ``Plankton(network, options).verify(policies)`` of the same
        configuration; ``result.incremental`` carries the cache accounting.
        """
        from repro.engine import EngineContext

        plankton = self.plankton
        self.cache.reset_counters()
        started = time.perf_counter()
        policy_list = [policies] if isinstance(policies, Policy) else list(policies)
        # The expansion and its cache keys are functions of (configuration,
        # options, policies): the first two are this Plankton, so they are
        # worked out once per policy set and kept on it.
        memo = plankton.request_memo
        key = _object_tokens(policy_list)
        if key not in memo:
            _, relevant, graph = plankton.expand_request(policy_list)
            fingerprints = verification_fingerprints(
                plankton.network,
                plankton.pecs,
                plankton.dependency_graph,
                policy_list,
                self.options,
                graph,
            )
            if len(memo) >= REQUEST_MEMO_LIMIT:
                del memo[next(iter(memo))]
            memo[key] = (relevant, graph, fingerprints)
        relevant, graph, fingerprints = memo[key]
        result = VerificationResult(
            policy_names=[p.name for p in policy_list],
            pecs_analyzed=len(relevant),
            failure_scenarios=graph.failure_scenarios,
        )
        prefix, result.incremental = self._reverify(
            "verify", graph, fingerprints, EngineContext(plankton=plankton, policies=policy_list)
        )
        result.absorb(prefix)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------ transients
    def verify_transients(
        self,
        properties: Sequence,
        transient=None,
        failures=None,
        initial_events: Sequence[object] = (),
        scenarios: Optional[Sequence[object]] = None,
        pecs: Optional[Sequence[PacketEquivalenceClass]] = None,
    ):
        """Run (or re-run) :meth:`Plankton.verify_transients` for every
        BGP-bearing PEC.

        One task graph (:meth:`Plankton.expand_transients`) and one engine
        run for the whole campaign: clean PECs are served from the cache
        (one entry per PEC and transient payload), the tasks of the dirty
        ones run together on one backend, exactly as the cold campaign would
        run them.  Results with ``collect_converged=True`` carry non-JSON
        state and are never cached.

        The campaign fingerprint covers each task's failure links and each
        lifecycle scenario's description *and* events, so campaigns
        differing only in their scenarios — even under one name — never
        collide on a warm cache: "what breaks during next week's
        maintenance?" is one warm query.
        """
        from repro.engine import EngineContext
        from repro.transient.explorer import TransientCampaignResult

        plankton = self.plankton
        started = time.perf_counter()
        graph = plankton.expand_transients(
            properties, transient, failures, initial_events, scenarios, pecs
        )
        base = pec_base_fingerprints(plankton.network, plankton.pecs, plankton.dependency_graph)
        # The key must distinguish *both* axes of the cross-product: the
        # failure links of the PEC's tasks, and the lifecycle scenarios its
        # payload carries (every task of one PEC carries the same payload).
        shapes: Dict[int, Tuple[List[Tuple], object]] = {}
        for task in graph.tasks:
            links, _payload = shapes.setdefault(task.pec_index, ([], task.transient))
            links.append(tuple(task.failure.failed_links))
        fingerprints = {
            index: transient_fingerprint(base[index], payload, self.options, tuple(links))
            for index, (links, payload) in shapes.items()
        }
        campaign = TransientCampaignResult()
        prefix, campaign.incremental = self._reverify(
            "transient",
            graph,
            fingerprints,
            EngineContext(plankton=plankton),
            transient is None or not transient.collect_converged,
        )
        campaign.absorb(prefix, graph)
        campaign.elapsed_seconds = time.perf_counter() - started
        return campaign
