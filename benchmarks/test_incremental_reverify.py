"""Incremental re-verification: cold verify vs re-verify after one edit.

The incremental service (`repro/incremental/`) answers a configuration push
by recomputing only the Packet Equivalence Classes the delta can affect and
merging every clean PEC's result from the fingerprint-keyed cache.  On the
fig7a fat-tree (k=4) eBGP workload a one-route-map edit on one edge switch
dirties exactly the PEC covering that switch's rack prefix — 1 of 8 — so
re-verification does ~1/8th of the cold run's exploration plus the
fingerprinting overhead.

The gating test asserts the acceptance floor on the deterministic metric
(>= 5x fewer states explored) and a loose in-process wall-clock ratio
(>= 2x); absolute push latency is the repo benchmark's job (``perf/``,
workload ``serve_edit``).
"""

import copy
import time

from repro.config import ebgp_rfc7938
from repro.config.objects import MatchConditions, RouteMapClause, SetActions
from repro.core.options import PlanktonOptions
from repro.core.verifier import Plankton
from repro.incremental import IncrementalVerifier, result_signature
from repro.policies import LoopFreedom
from repro.topology import bgp_fat_tree


def _one_route_map_edit(network, med):
    """A new network with one extra clause on edge0_0's EXPORT_OWN map.

    The clause matches only the switch's own rack prefix, so exactly the
    PEC covering it is dirtied; ``med`` varies the clause between rounds so
    every push genuinely changes the fingerprint.
    """
    edited = copy.deepcopy(network)
    route_map = edited.device("edge0_0").route_maps["EXPORT_OWN"]
    own_prefix = route_map.clauses[0].match.prefixes[0]
    route_map.add_clause(
        RouteMapClause(
            sequence=20,
            permit=True,
            match=MatchConditions(prefixes=[own_prefix]),
            actions=SetActions(med=med),
        )
    )
    return edited


def _measure(rounds=3):
    """Cold verify vs one-edit re-verify; wall-clock is best-of-``rounds``.

    States explored are deterministic; the wall ratio on a loaded 1-CPU
    container is not, so each side takes the minimum over ``rounds``
    measurements (the standard noise-floor treatment).
    """
    network = ebgp_rfc7938(bgp_fat_tree(4))

    cold_wall = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        cold = Plankton(network, PlanktonOptions()).verify(LoopFreedom())
        cold_wall = min(cold_wall, time.perf_counter() - started)

    service = IncrementalVerifier(network, PlanktonOptions())
    service.verify(LoopFreedom())
    reverify_wall = float("inf")
    for round_index in range(rounds):
        edited = _one_route_map_edit(network, med=round_index + 1)
        started = time.perf_counter()
        service.update(edited)
        reverify = service.verify(LoopFreedom())
        reverify_wall = min(reverify_wall, time.perf_counter() - started)

    dirty = set(reverify.incremental.dirty_pecs)
    recomputed_states = sum(
        run.statistics.states_expanded
        for run in reverify.pec_runs
        if run.pec_index in dirty and run.statistics is not None
    )
    # The merged result must be bit-identical to a cold verify of the new
    # configuration (the oracle the property suite pins at scale).
    oracle = Plankton(edited, PlanktonOptions()).verify(LoopFreedom())
    assert result_signature(reverify) == result_signature(oracle)

    return {
        "cold_wall": cold_wall,
        "cold_states": cold.total_states_expanded,
        "reverify_wall": reverify_wall,
        "recomputed_states": recomputed_states,
        "pecs_total": reverify.incremental.pecs_total,
        "pecs_from_cache": reverify.incremental.pecs_from_cache,
        "state_speedup": cold.total_states_expanded / max(recomputed_states, 1),
        "wall_speedup": cold_wall / max(reverify_wall, 1e-9),
    }


def test_incremental_reverify_speedup_floor(reporter):
    """Gating: a one-route-map-edit re-verify beats the cold verify by the
    acceptance floor on the deterministic metric (>= 5x states explored).

    The wall-clock floor here is deliberately looser (>= 2x; measured
    ~6-8x): like the other gating matrix floors, timing must never fail the
    build on a loaded single-CPU runner.
    """
    measured = _measure()
    reporter(
        "incremental",
        f"fat-tree k=4 one-edit re-verify: {measured['recomputed_states']} vs "
        f"{measured['cold_states']} states ({measured['state_speedup']:.1f}x), "
        f"{measured['reverify_wall']:.3f}s vs {measured['cold_wall']:.3f}s "
        f"({measured['wall_speedup']:.1f}x), "
        f"{measured['pecs_from_cache']}/{measured['pecs_total']} PECs cached",
    )
    assert measured["pecs_from_cache"] == measured["pecs_total"] - 1
    assert measured["state_speedup"] >= 5.0
    assert measured["wall_speedup"] >= 2.0


def test_rerun_of_a_configuration_generation_expands_nothing(reporter, monkeypatch):
    """Count floor for the run-only re-verify (``serve_rerun``'s operation,
    in-process): once a configuration generation has answered a request, the
    same request again is lookup + decode — no PEC partition, no verifier,
    no LEC refinement, no fingerprinting.  Counts, never a wall-clock gate;
    the timing is an informational row.
    """
    from repro.core import verifier as verifier_module
    from repro.incremental import service as service_module
    from repro.topology import failures as failures_module

    calls = {"compute_pecs": 0, "Plankton.__init__": 0, "DeviceEquivalence": 0,
             "verification_fingerprints": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verifier_module, "compute_pecs",
                        counted("compute_pecs", verifier_module.compute_pecs))
    monkeypatch.setattr(Plankton, "__init__", counted("Plankton.__init__", Plankton.__init__))
    monkeypatch.setattr(failures_module.DeviceEquivalence, "__init__",
                        counted("DeviceEquivalence", failures_module.DeviceEquivalence.__init__))
    monkeypatch.setattr(service_module, "verification_fingerprints",
                        counted("verification_fingerprints",
                                service_module.verification_fingerprints))

    network = ebgp_rfc7938(bgp_fat_tree(4))
    service = IncrementalVerifier(network, PlanktonOptions(max_failures=1))
    first = service.verify(LoopFreedom())
    first_push = dict(calls)
    assert first_push["DeviceEquivalence"] > 0 and first_push["verification_fingerprints"] == 1

    walls = []
    for _ in range(3):
        started = time.perf_counter()
        delta = service.update(service.network)  # what a run-only push installs
        rerun = service.verify(LoopFreedom())
        walls.append(time.perf_counter() - started)
        assert delta.is_empty
        assert rerun.incremental.tasks_from_cache == rerun.incremental.tasks_total > 0
        assert result_signature(rerun) == result_signature(first)
    reporter(
        "incremental",
        f"fat-tree k=4 <=1 failure, run-only re-verify: {rerun.incremental.tasks_total} tasks "
        f"from cache in {min(walls) * 1e3:.1f} ms; first request paid {first_push}, "
        f"three re-runs paid {({name: calls[name] - first_push[name] for name in calls})}",
    )
    assert calls == first_push

    # A new generation pays again, once.
    service.update(_one_route_map_edit(network, med=7))
    service.verify(LoopFreedom())
    assert calls["Plankton.__init__"] == first_push["Plankton.__init__"] + 1
    assert calls["verification_fingerprints"] == 2
