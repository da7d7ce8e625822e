"""Tests for the transient-state analysis extension (repro.transient)."""

import json
import os
import subprocess
import sys

import pytest

from repro.config import ebgp_rfc7938
from repro.core.options import PlanktonOptions
from repro.core.verifier import Plankton
from repro.pec.classes import compute_pecs
from repro.protocols.spvp import SpvpStepper
from repro.protocols.base import EPSILON, Path, Route
from repro.topology import bgp_fat_tree
from repro.transient import (
    Converge,
    FailSession,
    TransientAnalyzer,
    TransientBlackHoleFreedom,
    TransientLoopFreedom,
    TransientOptions,
    analyze_pec_transients,
)

from tests.oracles.transient_reference import NaiveTransientAnalyzer
from tests.test_rpvp_spvp import (
    GadgetInstance,
    bad_gadget,
    disagree_gadget,
    explore_all_converged,
    good_gadget,
)
from tests.helpers import (
    AlwaysReaches,
    forwarding_from,
    forwarding_of,
    state_from_maps,
    verdict_signature,
)


def flap_loop_gadget() -> GadgetInstance:
    """A gadget whose transient loop only appears after a session flap.

    ``a`` and ``b`` both prefer the direct path through ``m`` and keep the
    path through each other as a stale rib-in fallback.  Cold-start
    convergence and every converged state are loop-free; but when the
    ``o <-> m`` session flaps out of the steady state, the interleaving
    where *both* ``a`` and ``b`` process ``m``'s withdrawal before each
    other's re-advertisements leaves ``a -> b`` and ``b -> a``
    simultaneously — a transient micro-loop steady-state verification
    cannot see.
    """
    edges = {
        "o": ("m",),
        "m": ("o", "a", "b"),
        "a": ("m", "b"),
        "b": ("m", "a"),
    }
    preferences = {
        "m": [("o",)],
        "a": [("m", "o"), ("b", "m", "o")],
        "b": [("m", "o"), ("a", "m", "o")],
    }
    return GadgetInstance("o", edges, preferences)


# --------------------------------------------------------------------------- forwarding relation
class TestTransientForwarding:
    def test_from_best_paths_identifies_origins_and_next_hops(self):
        stepper = SpvpStepper(good_gadget())
        space = stepper.space
        forwarding = forwarding_of(
            state_from_maps(
                stepper,
                {
                    "o": Route(path=EPSILON, origin_node="o"),
                    "a": Route(path=Path(("o",))),
                    "b": None,
                },
                dict.fromkeys(space.rib_slot),
                dict.fromkeys(space.channels, ()),
            )
        )
        assert forwarding.next_hop["a"] == "o"
        assert forwarding.next_hop["b"] is None
        assert "o" in forwarding.delivering

    def test_find_cycle_detects_two_node_loop(self):
        forwarding = forwarding_from({"a": "b", "b": "a", "o": None}, delivering={"o"})
        cycle = forwarding.find_cycle()
        assert cycle is not None
        assert set(cycle) >= {"a", "b"}

    def test_find_cycle_none_on_tree(self):
        forwarding = forwarding_from({"a": "o", "b": "a", "o": None}, delivering={"o"})
        assert forwarding.find_cycle() is None

    def test_dead_ends_reports_next_hop_without_route(self):
        forwarding = forwarding_from({"a": "b", "b": None, "o": None}, delivering={"o"})
        assert forwarding.dead_ends() == ["a"]
        # Forwarding towards a delivering node is not a dead end.
        healthy = forwarding_from({"a": "o", "o": None}, delivering={"o"})
        assert healthy.dead_ends() == []


# --------------------------------------------------------------------------- properties
class TestTransientProperties:
    def test_loop_freedom_can_ignore_converged_states(self):
        forwarding = forwarding_from({"a": "b", "b": "a"})
        assert TransientLoopFreedom().check(forwarding, converged=True) is not None
        assert (
            TransientLoopFreedom(ignore_converged=True).check(forwarding, converged=True)
            is None
        )

    def test_blackhole_freedom_respects_source_filter(self):
        forwarding = forwarding_from({"a": "b", "b": None, "c": "b"})
        assert TransientBlackHoleFreedom().check(forwarding, converged=False) is not None
        assert (
            TransientBlackHoleFreedom(sources=["c"]).check(forwarding, converged=False)
            is not None
        )
        assert (
            TransientBlackHoleFreedom(sources=["zz"]).check(forwarding, converged=False)
            is None
        )


# --------------------------------------------------------------------------- exploration
class TestTransientAnalyzer:
    def test_good_gadget_has_no_transient_loop(self):
        result = TransientAnalyzer(good_gadget()).analyze([TransientLoopFreedom()])
        assert result.holds
        assert result.states_explored > 1
        assert result.converged_states >= 1
        assert not result.truncated

    def test_disagree_gadget_has_a_transient_micro_loop(self):
        result = TransientAnalyzer(disagree_gadget()).analyze(
            [TransientLoopFreedom(ignore_converged=True)]
        )
        assert not result.holds
        violation = result.violations[0]
        assert violation.converged is False
        assert "loop" in violation.message
        # The witness replays the advertisement interleaving that produced it.
        assert violation.witness
        assert "processed" in violation.witness[0]
        assert "event sequence" in violation.render()

    def test_disagree_gadget_converged_states_are_loop_free(self):
        # With the transient states filtered out, the same exploration agrees
        # with Plankton's converged-only verdict.
        analyzer = TransientAnalyzer(
            disagree_gadget(), stop_at_first_violation=False, max_states=1500, max_depth=20
        )

        class ConvergedOnlyLoops(TransientLoopFreedom):
            def check(self, forwarding, converged):
                if not converged:
                    return None
                return super().check(forwarding, converged)

        result = analyzer.analyze([ConvergedOnlyLoops()])
        assert result.holds
        assert result.converged_states >= 1  # DISAGREE's stable states are loop-free

    def test_always_reaches_is_violated_before_convergence(self):
        # A property defined outside the package plugs into the same search.
        result = TransientAnalyzer(good_gadget()).analyze([AlwaysReaches(["a"])])
        assert not result.holds  # initially a has no route at all
        assert result.violations[0].property_name == "always-reaches"

    def test_bad_gadget_truncates_instead_of_diverging(self):
        result = TransientAnalyzer(bad_gadget(), max_states=200, max_depth=30).analyze(
            [TransientLoopFreedom(ignore_converged=True)]
        )
        # Either a transient loop is found early or the budget stops the search;
        # in both cases the call returns.
        assert result.states_explored <= 200
        assert result.truncated or not result.holds or result.states_explored > 0

    def test_requires_at_least_one_property(self):
        with pytest.raises(ValueError):
            TransientAnalyzer(good_gadget()).analyze([])

    def test_statistics_and_summary(self):
        result = TransientAnalyzer(good_gadget()).analyze([TransientLoopFreedom()])
        text = result.summary()
        assert "HOLDS" in text
        assert str(result.states_explored) in text


# --------------------------------------------------------------------------- cross-model equivalence
def _converged_signatures(states):
    """Hashable per-node best-path signatures of a set of RpvpStates."""
    return {
        tuple(sorted(
            (node, route.path if route is not None else None)
            for node, route in state.as_dict().items()
        ))
        for state in states
    }


class TestCrossModelEquivalence:
    """Theorem 1, checked experimentally: the rebuilt SPVP exploration finds
    exactly the converged states the RPVP search finds, and its statistics
    are bit-identical to the reference fork-a-simulator exploration
    (``tests/oracles/transient_reference.py``)."""

    GADGETS = {
        "good": (good_gadget, dict(max_states=20_000, max_depth=64)),
        "disagree": (disagree_gadget, dict(max_states=400, max_depth=12)),
        "bad": (bad_gadget, dict(max_states=300, max_depth=20)),
    }

    @pytest.mark.parametrize("name", sorted(GADGETS))
    def test_spvp_converged_set_matches_rpvp_search(self, name):
        factory, budget = self.GADGETS[name]
        result = TransientAnalyzer(
            factory(),
            stop_at_first_violation=False,
            collect_converged=True,
            **budget,
        ).analyze([TransientLoopFreedom(ignore_converged=True)])
        rpvp_states, _stats = explore_all_converged(factory())
        assert _converged_signatures(result.converged_rpvp_states) == _converged_signatures(
            rpvp_states
        )
        if name == "bad":
            assert result.converged_states == 0  # BAD GADGET has no stable state

    @pytest.mark.parametrize("name", sorted(GADGETS))
    def test_statistics_bit_identical_to_deepcopy_exploration(self, name):
        """``por="full"`` pins the unreduced search against the deepcopy
        oracle bit for bit (reduced modes are compared by verdict instead,
        in :class:`TestPartialOrderReduction`)."""
        factory, budget = self.GADGETS[name]
        properties = [TransientLoopFreedom(ignore_converged=True)]
        fast = TransientAnalyzer(
            factory(),
            stop_at_first_violation=False,
            collect_converged=True,
            por="full",
            **budget,
        ).analyze(properties)
        naive = NaiveTransientAnalyzer(
            factory(), stop_at_first_violation=False, collect_converged=True, **budget
        ).analyze(properties)
        assert fast.stats_signature() == naive.stats_signature()
        assert fast.converged_rpvp_states == naive.converged_rpvp_states

    def test_first_violation_witness_identical_to_deepcopy_exploration(self):
        """With stop-at-first-violation the two explorations report the same
        violating state via the same event sequence (BFS order preserved)."""
        fast = TransientAnalyzer(disagree_gadget(), por="full").analyze(
            [TransientLoopFreedom(ignore_converged=True)]
        )
        naive = NaiveTransientAnalyzer(disagree_gadget()).analyze(
            [TransientLoopFreedom(ignore_converged=True)]
        )
        assert fast.stats_signature() == naive.stats_signature()
        assert fast.violations[0].witness == naive.violations[0].witness


# --------------------------------------------------------------------------- budget accounting
class TestStateBudgetAccounting:
    """A state counts against ``max_states`` exactly once — when it is first
    admitted to the visited set — no matter how many interleavings rediscover
    it on other branches (the pre-refactor explorer mixed two counters).
    Pinned in ``por="full"`` mode; the reduced modes explore fewer states by
    design and are covered by :class:`TestPartialOrderReduction`."""

    def test_states_explored_pinned_on_good_gadget(self):
        # GOOD GADGET's bounded-depth SPVP state space: 57 unique states, one
        # of them converged.  Many interleavings are confluent, so any double
        # counting of rediscovered states would inflate this number.
        result = TransientAnalyzer(
            good_gadget(), stop_at_first_violation=False, por="full"
        ).analyze([TransientLoopFreedom(ignore_converged=True)])
        assert result.states_explored == 57
        assert result.converged_states == 1
        assert not result.truncated

    def test_truncated_budget_is_exact(self):
        result = TransientAnalyzer(
            good_gadget(), max_states=30, stop_at_first_violation=False, por="full"
        ).analyze([TransientLoopFreedom(ignore_converged=True)])
        assert result.truncated
        assert result.states_explored == 30

    def test_budget_no_smaller_than_state_space_never_truncates(self):
        result = TransientAnalyzer(
            good_gadget(), max_states=57, stop_at_first_violation=False, por="full"
        ).analyze([TransientLoopFreedom(ignore_converged=True)])
        assert result.states_explored == 57
        assert not result.truncated

    def test_reduced_mode_budget_accounting_is_deduplicated_too(self):
        # Sleep-set requeues re-expand an already-admitted state; they must
        # never re-count it against the budget or the explored tally.
        result = TransientAnalyzer(
            good_gadget(), max_states=57, stop_at_first_violation=False, por="ample"
        ).analyze([TransientLoopFreedom(ignore_converged=True)])
        assert result.states_explored < 57  # genuinely reduced
        assert not result.truncated
        assert result.converged_states == 1


# --------------------------------------------------------------------------- partial-order reduction
class TestPartialOrderReduction:
    """The ample/sleep reduction must preserve verdicts and converged states
    while exploring strictly fewer states (repro.modelcheck.por)."""

    PROPERTIES = staticmethod(lambda: [TransientLoopFreedom(ignore_converged=True)])

    @pytest.mark.parametrize("name", sorted(TestCrossModelEquivalence.GADGETS))
    def test_verdict_and_converged_sets_match_full_mode(self, name):
        factory, budget = TestCrossModelEquivalence.GADGETS[name]
        results = {}
        for por in ("full", "sleep", "ample"):
            results[por] = TransientAnalyzer(
                factory(),
                stop_at_first_violation=False,
                collect_converged=True,
                por=por,
                **budget,
            ).analyze(self.PROPERTIES())
        assert (
            verdict_signature(results["full"])
            == verdict_signature(results["sleep"])
            == verdict_signature(results["ample"])
        )

    def test_ample_explores_fewer_states_on_good_gadget(self):
        full = TransientAnalyzer(
            good_gadget(), stop_at_first_violation=False, collect_converged=True, por="full"
        ).analyze(self.PROPERTIES())
        ample = TransientAnalyzer(
            good_gadget(), stop_at_first_violation=False, collect_converged=True, por="ample"
        ).analyze(self.PROPERTIES())
        assert ample.states_explored < full.states_explored
        assert verdict_signature(ample) == verdict_signature(full)
        assert ample.reduction is not None
        assert ample.reduction.mode == "ample"
        assert ample.reduction.transitions_expanded < ample.reduction.transitions_enabled

    def test_reduced_search_still_finds_first_violation(self):
        # DISAGREE's transient micro-loop must survive the reduction even
        # with stop-at-first-violation (the default).
        for por in ("sleep", "ample"):
            result = TransientAnalyzer(disagree_gadget(), por=por).analyze(
                self.PROPERTIES()
            )
            assert not result.holds
            assert result.violations[0].property_name == "transient-loop-freedom"

    def test_full_mode_records_a_noop_ledger(self):
        result = TransientAnalyzer(
            good_gadget(), stop_at_first_violation=False, por="full"
        ).analyze(self.PROPERTIES())
        assert result.reduction is not None
        assert result.reduction.mode == "full"
        assert result.reduction.transitions_slept == 0
        assert result.reduction.states_reduced == 0

    def test_sleep_mode_prunes_transitions(self):
        full = TransientAnalyzer(
            good_gadget(), stop_at_first_violation=False, por="full"
        ).analyze(self.PROPERTIES())
        sleep = TransientAnalyzer(
            good_gadget(), stop_at_first_violation=False, por="sleep"
        ).analyze(self.PROPERTIES())
        assert sleep.reduction.transitions_slept > 0
        assert (
            sleep.reduction.transitions_expanded < full.reduction.transitions_expanded
        )

    def test_unknown_por_mode_is_rejected(self):
        with pytest.raises(ValueError):
            TransientAnalyzer(good_gadget(), por="bogus")
        with pytest.raises(ValueError):
            TransientOptions(por="bogus")

    def test_summary_reports_truncation_and_reduction(self):
        result = TransientAnalyzer(
            good_gadget(), stop_at_first_violation=False, por="ample"
        ).analyze(self.PROPERTIES())
        text = result.summary()
        assert "at state budget: no" in text
        assert "por ample" in text
        truncated = TransientAnalyzer(
            good_gadget(), max_states=10, stop_at_first_violation=False, por="full"
        ).analyze(self.PROPERTIES())
        assert "at state budget: yes" in truncated.summary()
        # The depth bound leaves the run incomplete, but not at the budget.
        bounded = TransientAnalyzer(
            good_gadget(), max_depth=2, stop_at_first_violation=False, por="full"
        ).analyze(self.PROPERTIES())
        assert bounded.completeness == "truncated"
        assert "at state budget: no" in bounded.summary()

    def test_truncated_ample_result_does_not_depend_on_the_hash_seed(self):
        """The immune-session tally used to count the skips of a walk over a
        ``set`` of names, so a truncated run's ledger differed from process
        to process (2 410 - 2 580 on this run); it is now a function of the
        closure."""
        script = (
            "import json\n"
            "from repro.scenarios import NodeCrash\n"
            "from repro.transient import Converge, TransientAnalyzer, TransientLoopFreedom\n"
            "from tests.test_transient import _fat_tree_bgp_instance\n"
            "result = TransientAnalyzer(\n"
            "    _fat_tree_bgp_instance(), max_states=300, max_depth=8,\n"
            "    stop_at_first_violation=False, por='ample',\n"
            ").analyze([TransientLoopFreedom()], initial_events=[Converge(), NodeCrash('agg0_0')])\n"
            "print(json.dumps(result.to_dict(frozenset({'elapsed_seconds'}))))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        documents = []
        for seed in ("0", "7"):
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
                PYTHONHASHSEED=seed,
            )
            run = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert run.returncode == 0, run.stderr
            documents.append(json.loads(run.stdout))
        assert documents[0]["truncated"] and documents[0]["violations"]
        assert documents[0]["reduction"]["rank_immune_sessions"] > 0
        assert documents[0] == documents[1]


# --------------------------------------------------------------------------- session flaps
class TestSessionFlapTransients:
    """The ``initial_events`` hook: withdrawal/session-flap transients
    explored end to end through ``SpvpStepper.fail_session``."""

    PROPERTIES = staticmethod(lambda: [TransientLoopFreedom(ignore_converged=True)])

    def test_cold_start_and_steady_state_are_loop_free(self):
        # Without the flap there is no transient loop anywhere: not during
        # cold-start convergence, not in any converged state.
        result = TransientAnalyzer(
            flap_loop_gadget(), stop_at_first_violation=False, por="full"
        ).analyze(self.PROPERTIES())
        assert result.holds
        assert result.converged_states >= 1
        assert not result.truncated

    def test_session_flap_exposes_the_transient_loop(self):
        # Converge, flap o<->m, explore the re-convergence interleavings:
        # the ordering where a and b both fall back to their stale rib-in
        # entries forms the a -> b -> a micro-loop.
        events = [Converge(), FailSession("o", "m")]
        result = TransientAnalyzer(flap_loop_gadget(), por="full").analyze(
            self.PROPERTIES(), initial_events=events
        )
        assert not result.holds
        violation = result.violations[0]
        assert "loop" in violation.message
        assert "a" in violation.message and "b" in violation.message
        assert violation.converged is False

    def test_flap_exploration_matches_deepcopy_oracle(self):
        events = [Converge(), FailSession("o", "m")]
        fast = TransientAnalyzer(
            flap_loop_gadget(), stop_at_first_violation=False, por="full"
        ).analyze(self.PROPERTIES(), initial_events=events)
        naive = NaiveTransientAnalyzer(
            flap_loop_gadget(), stop_at_first_violation=False
        ).analyze(self.PROPERTIES(), initial_events=events)
        assert fast.stats_signature() == naive.stats_signature()

    def test_reduced_flap_exploration_agrees_on_the_verdict(self):
        events = [Converge(), FailSession("o", "m")]
        verdicts = {}
        for por in ("full", "sleep", "ample"):
            result = TransientAnalyzer(
                flap_loop_gadget(),
                stop_at_first_violation=False,
                collect_converged=True,
                por=por,
            ).analyze(self.PROPERTIES(), initial_events=events)
            verdicts[por] = verdict_signature(result)
        assert verdicts["full"] == verdicts["sleep"] == verdicts["ample"]

    def test_flap_witness_includes_the_withdrawal_deliveries(self):
        events = [Converge(), FailSession("o", "m")]
        result = TransientAnalyzer(flap_loop_gadget(), por="full").analyze(
            self.PROPERTIES(), initial_events=events
        )
        witness_text = "\n".join(result.violations[0].witness)
        assert "withdraw" in witness_text

    def test_initial_events_reject_unknown_hooks(self):
        with pytest.raises(TypeError):
            TransientAnalyzer(flap_loop_gadget()).analyze(
                self.PROPERTIES(), initial_events=[object()]
            )


# --------------------------------------------------------------------------- network-level API
class TestAnalyzePecTransients:
    def test_bgp_fat_tree_analysis_returns_per_prefix_results(self):
        topology = bgp_fat_tree(4)
        network = ebgp_rfc7938(topology, waypoints=(), steer_through_waypoints=False)
        pecs = [pec for pec in compute_pecs(network) if pec.has_bgp()]
        assert pecs
        results = analyze_pec_transients(
            network,
            pecs[0],
            [TransientLoopFreedom(ignore_converged=True)],
            max_states=150,
            max_depth=6,
        )
        assert results
        for result in results.values():
            assert result.states_explored > 0

    def test_pec_without_bgp_yields_no_results(self):
        from repro.config import ospf_everywhere
        from repro.topology import fat_tree

        network = ospf_everywhere(fat_tree(4))
        pecs = compute_pecs(network)
        results = analyze_pec_transients(network, pecs[0], [TransientLoopFreedom()])
        assert results == {}


class TestTransientFailureCampaigns:
    """Transient campaigns over failure scenarios, routed through the
    execution engine (one task per (PEC, failure), LEC-reduced scenarios,
    pool backends, early cancellation)."""

    @staticmethod
    def _network_and_pec():
        topology = bgp_fat_tree(4)
        network = ebgp_rfc7938(topology, waypoints=(), steer_through_waypoints=False)
        pec = next(pec for pec in compute_pecs(network) if pec.has_bgp())
        return network, pec

    def test_campaign_enumerates_reduced_failure_scenarios(self):
        network, pec = self._network_and_pec()
        plankton = Plankton(
            network, PlanktonOptions(max_failures=1, stop_at_first_violation=False)
        )
        campaign = plankton.verify_transients(
            [TransientLoopFreedom(ignore_converged=True)],
            transient=TransientOptions(
                max_states=60, max_depth=4, stop_at_first_violation=False
            ),
            pecs=[pec],
        )
        # LEC reduction: strictly fewer scenarios than links, plus the
        # no-failure baseline, each analysed per BGP prefix.
        assert campaign.failure_scenarios > 1
        assert len(campaign.runs) >= campaign.failure_scenarios
        assert all(run.result.states_explored > 0 for run in campaign.runs)
        assert "failure scenario(s)" in campaign.summary()

    def test_campaign_serial_and_process_backends_agree(self):
        network, pec = self._network_and_pec()
        transient = TransientOptions(
            max_states=50, max_depth=4, stop_at_first_violation=False
        )
        properties = [TransientLoopFreedom(ignore_converged=True)]
        serial = Plankton(
            network, PlanktonOptions(max_failures=1)
        ).verify_transients(properties, transient=transient, pecs=[pec])
        pooled = Plankton(
            network, PlanktonOptions(max_failures=1, cores=2)
        ).verify_transients(properties, transient=transient, pecs=[pec])
        assert len(serial.runs) == len(pooled.runs)
        serial_rows = [
            (run.prefix, tuple(run.failure.failed_links), run.result.stats_signature())
            for run in serial.runs
        ]
        pooled_rows = [
            (run.prefix, tuple(run.failure.failed_links), run.result.stats_signature())
            for run in pooled.runs
        ]
        assert serial_rows == pooled_rows

    def test_campaign_flap_events_ride_the_engine(self):
        # Initial events are part of the picklable task payload, so flap
        # campaigns work identically through the engine path.
        network, pec = self._network_and_pec()
        campaign = Plankton(network).verify_transients(
            [TransientLoopFreedom(ignore_converged=True)],
            transient=TransientOptions(
                max_states=80, max_depth=4, stop_at_first_violation=False
            ),
            initial_events=[Converge(), FailSession("edge0_0", "agg0_0")],
            pecs=[pec],
        )
        assert campaign.runs
        for run in campaign.runs:
            assert run.result.states_explored > 0

    def test_the_engine_stop_flag_does_not_cut_a_campaign(self):
        """The campaign's stop flag belongs to the request: a verifier whose
        engine flag disagrees with the transient options runs the very same
        campaign."""
        network, pec = self._network_and_pec()
        transient = TransientOptions(
            max_states=40, max_depth=3, stop_at_first_violation=False
        )
        properties = [TransientLoopFreedom(ignore_converged=True)]
        exhaustive = Plankton(
            network, PlanktonOptions(stop_at_first_violation=False)
        ).verify_transients(properties, transient=transient, pecs=[pec])
        stopping = Plankton(network, PlanktonOptions()).verify_transients(
            properties, transient=transient, pecs=[pec]
        )
        assert exhaustive.runs
        assert [run.result.stats_signature() for run in stopping.runs] == [
            run.result.stats_signature() for run in exhaustive.runs
        ]

    def test_campaign_report_rendering(self):
        from repro.reporting import render_transient_markdown, transient_campaign_to_dict

        network, pec = self._network_and_pec()
        campaign = Plankton(network).verify_transients(
            [TransientLoopFreedom(ignore_converged=True)],
            transient=TransientOptions(
                max_states=40, max_depth=3, stop_at_first_violation=False
            ),
            pecs=[pec],
        )
        document = transient_campaign_to_dict(campaign)
        assert document["holds"] == campaign.holds
        assert document["runs"]
        assert "reduction" in document["runs"][0]["result"]
        markdown = render_transient_markdown(campaign, title="Transient check")
        assert "# Transient check" in markdown
        assert "| failures | prefix |" in markdown


# --------------------------------------------------------------------------- fat-tree instance
def _fat_tree_bgp_instance(k=4):
    """The eBGP fat-tree instance the fig7a benchmark family explores."""
    from repro.core.network_model import DependencyContext, PecExplorer
    from repro.topology.failures import FailureScenario

    network = ebgp_rfc7938(bgp_fat_tree(k))
    pec = next(p for p in compute_pecs(network) if p.has_bgp())
    explorer = PecExplorer(
        network,
        pec,
        FailureScenario(),
        PlanktonOptions(),
        dependency_context=DependencyContext(),
    )
    prefix = next(pr for pr, devices in pec.bgp_origins if devices)
    return explorer.bgp_instance(prefix)


# --------------------------------------------------------------------------- breadth-first witnesses
def spectator_flap_gadget() -> GadgetInstance:
    """The flap gadget plus a spectator branch ``c - d`` whose deliveries
    are independent of the ``a -> b -> a`` micro-loop."""
    edges = {
        "o": ("m",),
        "m": ("o", "a", "b", "c"),
        "a": ("m", "b"),
        "b": ("m", "a"),
        "c": ("m", "d"),
        "d": ("c",),
    }
    preferences = {
        "m": [("o",)],
        "a": [("m", "o"), ("b", "m", "o")],
        "b": [("m", "o"), ("a", "m", "o")],
        "c": [("m", "o")],
        "d": [("c", "m", "o")],
    }
    return GadgetInstance("o", edges, preferences)


class TestBreadthFirstWitnesses:
    """The search is one FIFO frontier, and a violation's witness is the
    delivery sequence of the state's BFS parent chain."""

    FLAP = [Converge(), FailSession("o", "m")]
    CASES = {
        "disagree": (disagree_gadget, []),
        "flap": (flap_loop_gadget, FLAP),
        "spectator-flap": (spectator_flap_gadget, FLAP),
    }
    PROPERTY = TransientLoopFreedom(ignore_converged=True)

    def _first_violation(self, name, por, **budget):
        factory, events = self.CASES[name]
        return TransientAnalyzer(factory(), por=por, **budget).analyze(
            [self.PROPERTY], initial_events=events
        )

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_witness_replays_to_the_violation(self, name):
        """Each line after the root's prefix is one delivery: replaying them
        from the root describes the same lines, takes ``depth`` steps and ends
        in a state with the same violation."""
        from repro.transient.explorer import _apply_initial_event

        result = self._first_violation(name, "ample")
        assert not result.holds
        violation = result.violations[0]
        factory, events = self.CASES[name]
        stepper = SpvpStepper(factory())
        state = stepper.initial_state()
        for event in events:
            state = _apply_initial_event(stepper, state, event)
        assert violation.witness[: len(result.witness_prefix)] == result.witness_prefix
        deliveries = violation.witness[len(result.witness_prefix):]
        assert len(deliveries) == violation.depth
        for line in deliveries:
            node = line.split(" processed ", 1)[0]
            peer = line.split(" from ", 1)[1].split(";", 1)[0]
            event, state = stepper.deliver(state, (peer, node))
            assert event.describe() == line
        forwarding = forwarding_of(state)
        assert self.PROPERTY.check(forwarding, state.is_converged()) == violation.message

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_unreduced_witness_is_a_shortest_one(self, name):
        """Without reduction BFS reaches every state first at its least
        depth, so no violation lies above the first one found."""
        violation = self._first_violation(name, "full").violations[0]
        assert violation.depth > 0
        shallower = self._first_violation(name, "full", max_depth=violation.depth - 1)
        assert shallower.holds and not shallower.truncated
        assert shallower.max_depth_reached == violation.depth - 1


# --------------------------------------------------------------------------- witness documents
class TestWitnessPrefixDocument:
    """A run's document writes its root witness once, as the result's
    ``witness_prefix``, and each violation's witness after it; in memory
    every witness stays whole."""

    DESTINATION = "10.0.0.0/24"

    @pytest.fixture(scope="class")
    def campaign(self):
        from repro.incremental import IncrementalVerifier
        from repro.serve.jobs import run_request

        network = ebgp_rfc7938(bgp_fat_tree(4))
        payload = {
            "kind": "transient",
            "transient": {"max_depth": 4, "scenario_events": 1, "stop_at_first_violation": False},
            "property": {"property": "loop"},
            "destination_prefix": self.DESTINATION,
        }
        view = run_request(IncrementalVerifier(network), network, "transient", payload)
        return network, view.result, view.render(["document"])["document"]

    def test_runs_round_trip_every_whole_witness(self, campaign):
        from repro.transient import TransientCampaignRun

        _network, result, _document = campaign
        assert result.violations
        for run in result.runs:
            document = json.loads(json.dumps(run.to_dict()))
            rebuilt = TransientCampaignRun.from_dict(document)
            assert rebuilt == run
            prefix = document["result"]["witness_prefix"]
            assert tuple(prefix) == run.result.witness_prefix
            for written, violation in zip(document["result"]["violations"], run.result.violations):
                assert tuple(prefix + written["witness"]) == violation.witness
                assert len(written["witness"]) <= violation.depth

    def test_json_prefix_and_suffix_join_to_a_fresh_analysis_witness(self, campaign):
        """The ``--json`` document of eBGP k=4 with one-event scenarios:
        each violation's ``witness_prefix + witness`` is the witness a fresh
        analyzer finds from the cold start, one per (scenario, prefix)."""
        from repro.core.network_model import DependencyContext, PecExplorer
        from repro.engine.graph import event_scenarios_for_pec, network_symmetry
        from repro.topology.failures import FailureScenario

        network, _result, document = campaign
        pecs = {pec.index: pec for pec in compute_pecs(network)}
        options = TransientOptions(max_depth=4, scenario_events=1, stop_at_first_violation=False)
        checked = 0
        for run in document["runs"]:
            pec = pecs[run["pec_index"]]
            scenario = {
                scenario.describe(): scenario
                for scenario in event_scenarios_for_pec(network_symmetry(network), pec, options)
            }[run["scenario"]]
            instance = PecExplorer(
                network,
                pec,
                FailureScenario(tuple(run["failed_links"])),
                PlanktonOptions(),
                dependency_context=DependencyContext(),
            ).bgp_instance(next(p for p, devices in pec.bgp_origins if str(p) == run["prefix"]))
            fresh = TransientAnalyzer(instance, options=options).analyze(
                [TransientLoopFreedom(ignore_converged=True)], initial_events=scenario.events
            )
            written = run["result"]
            assert [written["witness_prefix"] + v["witness"] for v in written["violations"]] == [
                list(v.witness) for v in fresh.violations
            ]
            checked += len(fresh.violations)
        assert checked == sum(len(run["result"]["violations"]) for run in document["runs"]) > 0
