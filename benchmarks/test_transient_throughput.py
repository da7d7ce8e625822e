"""Transient-exploration throughput: persistent SPVP vs the reference
fork-a-simulator explorer, and the partial-order reduction vs the unreduced
exploration.

The transient extension explores SPVP message interleavings (see
`repro/transient/`).  Two generations of speedups are measured here on a
fig7a-style workload — the fat-tree (k=4) eBGP instance the Figure 7(a)
family scales over:

* the persistent :class:`SpvpState` rebuild (PR 3) replaced the
  per-successor simulator copy + full-state signature hashing (kept as
  ``tests/oracles/transient_reference.py``) with derived child states and
  incremental Zobrist fingerprints;
* the partial-order reduction (`repro.modelcheck.por`) explores one
  representative per equivalence class of commuting deliveries (states
  explored vs ``por="full"`` over a *complete* interleaving slice — which
  the reduced search finishes un-truncated at a fraction of the states);
* the rank-bound session-immunity refinement of the ample selection (PR 6)
  prunes activity-closure edges whose static per-session rank bound proves
  the receiver's best path cannot be dislodged (ample with vs without the
  refinement on the same slice).

The tests assert *equivalence* (the incremental exploration is
bit-identical to the reference explorer in ``por="full"`` mode) and the
*reduction floors*, as in-process ratios of state counts (the ample/sleep
reduction explores >=5x fewer states, rank immunity a further >=2x fewer, the
lifecycle-scenario enumerator emits at most half the brute-force universe, at
identical verdicts on a depth-6 slice of the same workload), the *memo
floor* (property checks and danger evaluations are counted: one per distinct
interned key, fewer than the states and channels walked) and the *memory
floor* (what the search allocates per admitted state, against the bytes of
the state's own id array).  Wall-clock
throughput of the transient model is measured by the repo benchmark
(``perf/``, workload ``transient_k6_d6``), not here.
"""

from repro.config import ebgp_rfc7938
from repro.core.network_model import DependencyContext, PecExplorer
from repro.core.options import PlanktonOptions
from repro.modelcheck.por.ample import AmpleSelector
from repro.pec.classes import compute_pecs
from repro.protocols.spvp import space_for
from repro.topology import bgp_fat_tree
from repro.topology.failures import FailureScenario
from repro.transient import TransientAnalyzer, TransientLoopFreedom

from tests.oracles.transient_reference import NaiveTransientAnalyzer


def _fig7a_style_instance():
    """The eBGP fat-tree (k=4) instance the fig7a benchmark family uses."""
    network = ebgp_rfc7938(bgp_fat_tree(4))
    pec = next(pec for pec in compute_pecs(network) if pec.has_bgp())
    explorer = PecExplorer(
        network,
        pec,
        FailureScenario(),
        PlanktonOptions(),
        dependency_context=DependencyContext(),
    )
    prefix = next(prefix for prefix, devices in pec.bgp_origins if devices)
    return explorer.bgp_instance(prefix)


def _explore(analyzer_cls, instance, max_states, max_depth=8, por="full", **kwargs):
    analyzer = analyzer_cls(
        instance,
        max_states=max_states,
        max_depth=max_depth,
        stop_at_first_violation=False,
        por=por,
        **kwargs,
    )
    return analyzer.analyze([TransientLoopFreedom(ignore_converged=True)])


def test_transient_explorer_matches_deepcopy_baseline(reporter):
    """Gating: incremental (por="full") and reference explorations are
    bit-identical."""
    instance = _fig7a_style_instance()
    fast = _explore(TransientAnalyzer, instance, 150)
    # The reference explorer never reduces: it has no ``por`` to pass.
    naive = NaiveTransientAnalyzer(
        instance, max_states=150, max_depth=8, stop_at_first_violation=False
    ).analyze([TransientLoopFreedom(ignore_converged=True)])
    assert fast.stats_signature() == naive.stats_signature()
    reporter(
        "transient",
        f"equivalence: {fast.states_explored} states, "
        f"{fast.converged_states} converged, identical to the reference explorer",
    )


def test_transient_por_reduction_floor(reporter):
    """Gating: the ample/sleep reduction explores >=5x fewer states than the
    unreduced search over a complete interleaving slice, at identical
    verdicts (depth 6 keeps this cheap enough for the gating matrix)."""
    instance = _fig7a_style_instance()
    budget = 500_000  # large enough that neither search truncates
    reduced = _explore(TransientAnalyzer, instance, budget, max_depth=6, por="ample")
    full = _explore(TransientAnalyzer, instance, budget, max_depth=6, por="full")
    assert not reduced.truncated and not full.truncated
    assert reduced.holds == full.holds
    ratio = full.states_explored / max(reduced.states_explored, 1)
    reporter(
        "transient",
        f"por: {reduced.states_explored} vs {full.states_explored} states "
        f"({ratio:.1f}x) on the depth-6 slice, identical verdicts",
    )
    assert ratio >= 5.0


def test_rank_immunity_reduction_floor(reporter, monkeypatch):
    """Gating: the rank-bound session-immunity refinement shrinks the ample
    reduction further on the eBGP workload, at identical verdicts — both
    against the unrefined ample mode (every session answered non-immune) and
    against the unreduced oracle (depth 6 keeps this cheap)."""
    instance = _fig7a_style_instance()
    budget = 500_000  # large enough that no search truncates
    refined = _explore(TransientAnalyzer, instance, budget, max_depth=6, por="ample")
    full = _explore(TransientAnalyzer, instance, budget, max_depth=6, por="full")
    monkeypatch.setattr(AmpleSelector, "_session_immune", lambda *_arguments: False)
    plain = _explore(TransientAnalyzer, instance, budget, max_depth=6, por="ample")
    assert not refined.truncated and not plain.truncated and not full.truncated
    assert refined.holds == plain.holds == full.holds
    assert refined.reduction.rank_immune_sessions > 0
    assert plain.reduction.rank_immune_sessions == 0
    ratio = plain.states_explored / max(refined.states_explored, 1)
    reporter(
        "transient",
        f"rank immunity: {refined.states_explored} vs {plain.states_explored} "
        f"states ({ratio:.1f}x over plain ample, full={full.states_explored}) "
        f"on the depth-6 slice, {refined.reduction.rank_immune_sessions} "
        f"immune session skips, identical verdicts",
    )
    assert ratio >= 2.0


def _fig7a_network_and_pec():
    network = ebgp_rfc7938(bgp_fat_tree(4))
    pec = next(pec for pec in compute_pecs(network) if pec.has_bgp())
    return network, pec


def test_scenario_enumeration_reduction_floor(reporter):
    """Gating: the symmetry/LEC-reduced lifecycle-scenario enumeration emits
    at most half the brute-force scenario universe on the fig7a workload
    (verdict preservation is pinned separately by the brute-force oracle in
    ``tests/test_scenarios.py``)."""
    from repro.engine.graph import event_scenarios_for_pec, network_symmetry
    from repro.scenarios import ScenarioLedger
    from repro.transient import TransientOptions

    network, pec = _fig7a_network_and_pec()
    ledger = ScenarioLedger()
    scenarios = event_scenarios_for_pec(
        network_symmetry(network), pec, TransientOptions(scenario_events=1), ledger=ledger
    )
    assert scenarios and ledger.pruned > 0
    ratio = ledger.brute / max(ledger.emitted, 1)
    reporter(
        "transient",
        f"scenarios: {ledger.emitted} emitted vs {ledger.brute} brute "
        f"({ratio:.1f}x) for k=1 lifecycle events on the fat-tree k=4 fabric",
    )
    assert ratio >= 2.0


def test_memo_count_floor(reporter, monkeypatch):
    """Gating floor for the per-state look-ups of the transient search:
    counts, no clock.

    A property is evaluated once per distinct (best-path assignment,
    converged) pair and a queued message's danger once per distinct
    (session, queue, receiver's best, rib-in backs it) tuple — however many
    states and channels the search walks.  Counted through the analyzer on
    the fig7a instance re-converging from a session flap (the depth-8 slice,
    570 states; depth 6 has 57).  The ratios are the share of the work the
    look-ups answer: what the change relies on is "few distinct id tuples
    per many states", and this is where that share is reported.
    """
    from repro.transient import Converge, FailSession

    instance = _fig7a_style_instance()
    check_calls, assignments = [0], set()
    danger_calls, danger_evaluations, channels = [0], set(), [0]

    class CountedLoopFreedom(TransientLoopFreedom):
        def check(self, forwarding, converged):
            check_calls[0] += 1
            return super().check(forwarding, converged)

    messages_of = TransientAnalyzer._messages_of
    active_nodes = AmpleSelector.active_nodes
    message_is_dangerous = AmpleSelector._message_is_dangerous

    # Every checked state passes through _messages_of: an expanded state when
    # it is popped, a successor the search never expands when it is admitted.
    def counted_messages_of(analyzer, state, converged, properties):
        assignments.add((state.best_key(), converged))
        return messages_of(analyzer, state, converged, properties)

    analysed = [None]

    def counted_active_nodes(selector, state, pending):
        channels[0] += len(pending)
        analysed[0] = state
        return active_nodes(selector, state, pending)

    def counted_message_is_dangerous(selector, receiver, rib_slot, message, best_id, backing):
        danger_calls[0] += 1
        space = selector.space
        _receiver, sender = space.sessions[rib_slot - len(space.nodes)]
        queue = analysed[0]._ids[space.channel_slot[(sender, receiver)]]
        # A queue of several messages is walked until one is dangerous, so a
        # key owns up to len(queue) evaluations - each made once.
        danger_evaluations.add((receiver, sender, queue, best_id, backing, message))
        return message_is_dangerous(selector, receiver, rib_slot, message, best_id, backing)

    monkeypatch.setattr(TransientAnalyzer, "_messages_of", counted_messages_of)
    monkeypatch.setattr(AmpleSelector, "active_nodes", counted_active_nodes)
    monkeypatch.setattr(AmpleSelector, "_message_is_dangerous", counted_message_is_dangerous)
    result = TransientAnalyzer(
        instance, max_states=500_000, max_depth=8, stop_at_first_violation=False, por="ample"
    ).analyze(
        [CountedLoopFreedom(ignore_converged=True)],
        initial_events=[Converge(), FailSession("edge0_0", "agg0_0")],
    )
    assert not result.truncated
    assert check_calls[0] == len(assignments) < result.states_explored
    assert danger_calls[0] == len(danger_evaluations) < channels[0]
    reporter(
        "transient",
        f"memo floor: {check_calls[0]} property checks for {result.states_explored} states "
        f"({result.states_explored / check_calls[0]:.1f}x fewer), {danger_calls[0]} danger "
        f"evaluations for {channels[0]} pending channels "
        f"({channels[0] / danger_calls[0]:.1f}x fewer) re-converging from a flap, depth 8",
    )


def test_state_memory_floor(reporter):
    """Gating floor for the memory an admitted state costs: a ratio, no clock.

    A ``por="sleep"`` search of at most 5 000 states on the fig7a instance,
    run a second time on the same analyzer so that every memo (transfers,
    intern tables, Zobrist components, property answers) is already warm:
    the ``tracemalloc`` peak of that run, per admitted state, is at most
    1.75x the state's id array (4 bytes a slot).  What remains per state is
    its delta, its event, its pending mask, its sleep mask, its visited-set
    entry and — only for a state the search expanded — its id array; a
    channel set held as a frozenset of channel tuples costs more than the
    id array on its own.
    """
    result, per_state, id_bytes = _warm_peak_per_state(max_states=5_000, max_depth=8)
    ratio = per_state / id_bytes
    reporter(
        "transient",
        f"memory floor: {per_state:.0f} B per admitted state over {result.states_explored} "
        f"states, {ratio:.2f}x the {id_bytes} B id array (por=sleep, warm memos)",
    )
    assert ratio <= 1.75


def test_depth_bound_memory_floor(reporter):
    """Gating floor for the memory of a search the depth bound ends: a ratio,
    no clock.

    The run of :func:`test_state_memory_floor` ends at its state budget
    before it reaches its depth bound; this one (``max_depth=6``, no budget
    that binds) ends at the bound, so most of what it admits is a successor
    it never expands.  Such a successor is checked when it is admitted and
    queued as the outcome — one shared constant unless it violates — so the
    peak per admitted state is at most 0.6x the state's id array: it holds
    the layer being expanded, not the layer below it.
    """
    result, per_state, id_bytes = _warm_peak_per_state(max_states=500_000, max_depth=6)
    assert not result.truncated and result.reduction.depth_pruned
    ratio = per_state / id_bytes
    reporter(
        "transient",
        f"depth-bound memory floor: {per_state:.0f} B per admitted state over "
        f"{result.states_explored} states, {ratio:.2f}x the {id_bytes} B id array "
        f"(por=sleep, max depth 6, warm memos)",
    )
    assert ratio <= 0.6


def _warm_peak_per_state(max_states, max_depth):
    """A ``por="sleep"`` search on the fig7a instance, run twice on one
    analyzer: the second run's result, its ``tracemalloc`` peak per admitted
    state and the bytes of a state's id array (4 bytes a slot)."""
    import tracemalloc

    instance = _fig7a_style_instance()
    analyzer = TransientAnalyzer(
        instance,
        max_states=max_states,
        max_depth=max_depth,
        stop_at_first_violation=False,
        por="sleep",
    )
    properties = [TransientLoopFreedom(ignore_converged=True)]
    analyzer.analyze(properties)
    tracemalloc.start()
    try:
        result = analyzer.analyze(properties)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / result.states_explored, 4 * space_for(instance).total_slots
