"""The §4 optimisations change how much is searched, never the answer.

Differential fuzzing on :func:`tests.strategies.small_networks`: every drawn
network is verified twice, with the default flags and with
``OptimizationFlags.none_enabled()`` (the naive model checker of the
Figure 8 "None" rows), and the two must give the same verdict and find the
same violations.  ``fast_ospf`` is drawn once per example and used on both
sides, so that half the draws put OSPF through the model checker too: the
SPF-ordered search with the candidate-set handoff on the default side, every
interleaving on the naive one.

Half the draws carry a local-preference ring (a DISAGREE or BAD gadget), in
which a member's first decision is overturned by a later update, or never
settles: those are the draws on which a default side that accepted a state
too early — pruned while a decision could still be overturned, or missed that
a decided node became pending — answers differently.

What "the same violations" means follows from the one optimisation that
changes *which* tasks run: failure equivalence (§4.3) searches one
representative failure set per class, where the naive side enumerates them
all.  So a (PEC, failure) pair the default side searched must violate on
both sides or on neither, and the PECs with a violation must be the same.
"""

from hypothesis import given, settings, strategies as st

from repro import OptimizationFlags, Plankton, PlanktonOptions

from tests.strategies import small_networks


def _verify(drawn, flags, fast_ospf):
    options = PlanktonOptions(
        max_failures=drawn.max_failures,
        optimizations=flags,
        stop_at_first_violation=False,
        fast_ospf=fast_ospf,
        backend="serial",
    )
    result = Plankton(drawn.network, options).verify(drawn.policy)
    searched = {(run.pec_index, run.failure.failed_links) for run in result.pec_runs}
    violating = {
        (run.pec_index, run.failure.failed_links) for run in result.pec_runs if run.violations
    }
    return result, searched, violating


class TestDefaultFlagsAgainstNoOptimisation:
    def test_same_verdict_and_violations(self):
        tally = {"examples": 0, "violated": 0, "searched": 0, "unsettled": 0}

        @given(drawn=small_networks(), fast_ospf=st.booleans())
        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        def run(drawn, fast_ospf):
            fast, searched, violating = _verify(drawn, OptimizationFlags(), fast_ospf)
            naive, every, also_violating = _verify(drawn, OptimizationFlags.none_enabled(), fast_ospf)
            assert not fast.errors and not naive.errors
            assert fast.verdict == naive.verdict
            assert searched <= every
            assert violating == also_violating & searched
            assert {pec for pec, _failure in violating} == {pec for pec, _failure in also_violating}
            tally["examples"] += 1
            tally["violated"] += fast.verdict == "violated"
            tally["searched"] += naive.total_states_expanded > fast.total_states_expanded
            tally["unsettled"] += naive.verdict == "inconclusive"

        run()
        # Both verdicts turn up, on a quarter of the draws the naive side
        # searches more states, and some draws never settle (a BAD gadget).
        # When this was written: 49 violated, 84 searched more and 19
        # unsettled, of 200 draws.
        assert tally["violated"] >= 30 and tally["examples"] - tally["violated"] >= 30
        assert tally["searched"] >= 30
        assert tally["unsettled"] >= 5
