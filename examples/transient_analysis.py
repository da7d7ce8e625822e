#!/usr/bin/env python3
"""Transient micro-loops: the extension the paper leaves as future work.

Plankton checks policies on converged data planes only; the paper notes that
"policies that inspect dynamic behavior, e.g. no transient loops prior to
convergence, are out of scope" (§3.5).  The :mod:`repro.transient` extension
covers exactly that case by exploring the SPVP message interleavings.

The scenario is the classic DISAGREE pattern expressed in BGP terms: two
routers each prefer the route learned from the other (via a route map that
raises local preference) over their own direct route to the origin.  Every
*converged* state is loop-free — Plankton's loop policy passes — yet there is
an advertisement ordering under which both routers momentarily point at each
other: a transient forwarding micro-loop.

Run:  python examples/transient_analysis.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Plankton, PlanktonOptions
from repro.config.builder import ConfigBuilder
from repro.config.objects import RouteMap, RouteMapClause, SetActions
from repro.netaddr import Prefix
from repro.pec.classes import compute_pecs
from repro.policies import LoopFreedom
from repro.topology import Topology
from repro.transient import (
    TransientBlackHoleFreedom,
    TransientLoopFreedom,
    analyze_pec_transients,
)

PREFIX = Prefix("203.0.113.0/24")


def build_disagree_network():
    """A triangle where r1 and r2 each prefer the other's route to r0."""
    topology = Topology("disagree")
    for name in ("r0", "r1", "r2"):
        topology.add_node(name)
    topology.add_link("r0", "r1", weight=1)
    topology.add_link("r0", "r2", weight=1)
    topology.add_link("r1", "r2", weight=1)

    builder = ConfigBuilder(topology)
    builder.enable_bgp("r0", asn=65000, networks=[PREFIX])
    builder.enable_bgp("r1", asn=65001)
    builder.enable_bgp("r2", asn=65002)

    prefer = RouteMap(
        name="PREFER_PEER",
        clauses=[RouteMapClause(sequence=10, permit=True, actions=SetActions(local_preference=200))],
    )
    builder.route_map("PREFER_PEER", "r1", prefer)
    builder.route_map("PREFER_PEER", "r2", prefer)

    builder.bgp_session("r0", "r1")
    builder.bgp_session("r0", "r2")
    # r1 imports from r2 (and vice versa) with the raised local preference.
    builder.bgp_session("r1", "r2", import_map_a="PREFER_PEER", import_map_b="PREFER_PEER")
    return builder.build()


def main() -> int:
    network = build_disagree_network()
    print("network: BGP DISAGREE triangle, origin r0 announcing", PREFIX)
    print()

    print("1) Plankton, converged states only:")
    result = Plankton(network, PlanktonOptions()).verify(
        LoopFreedom(destination_prefix=PREFIX)
    )
    print("   " + result.summary())
    print("   every stable convergence is loop-free — the configuration passes.")
    print()

    print("2) transient analysis over SPVP message interleavings:")
    pec = next(p for p in compute_pecs(network) if p.has_bgp())
    results = analyze_pec_transients(
        network,
        pec,
        [TransientLoopFreedom(ignore_converged=True)],
        max_states=5_000,
        max_depth=30,
    )
    for prefix_text, analysis in results.items():
        print(f"   prefix {prefix_text}: {analysis.summary()}")
        for violation in analysis.violations:
            print()
            for line in violation.render().splitlines():
                print("   " + line)

    transient_violations = sum(len(a.violations) for a in results.values())
    print()
    if transient_violations:
        print(
            "A pre-convergence micro-loop exists even though every converged "
            "state is correct — the property class Plankton (and all current "
            "configuration verifiers) leave to future work."
        )
    print()

    print("3) transient black holes: does r1 or r2 ever forward to a router without a route?")
    holes = analyze_pec_transients(
        network,
        pec,
        [TransientBlackHoleFreedom(sources=["r1", "r2"])],
        max_states=5_000,
        max_depth=30,
    )
    for prefix_text, analysis in holes.items():
        print(f"   prefix {prefix_text}: {analysis.summary()}")
        for violation in analysis.violations[:1]:
            print("   first: " + violation.message)
    print("   a router only forwards over a route its peer advertised, so no state")
    print("   of this campaign hands a packet to a router without one.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
