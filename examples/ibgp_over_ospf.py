#!/usr/bin/env python3
"""iBGP over OSPF: verifying recursive routing with the dependency-aware scheduler.

The paper's Figure 7(e) workload: an AS announces an external prefix over
iBGP; the iBGP sessions and next hops ride on OSPF routes to the speakers'
loopbacks.  The forwarding behaviour of the external prefix therefore depends
on the converged state of the loopback PECs — the PEC dependency graph of
paper §3.2 (Figure 5).

The example prints the dependency structure (loopback PECs scheduled before
the iBGP PEC) and verifies that the external prefix is delivered from every
router, then shows the same check under a single link failure.

Run:  python examples/ibgp_over_ospf.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Plankton, PlanktonOptions
from repro.config import ibgp_over_ospf
from repro.netaddr import Prefix
from repro.pec import build_dependency_graph, compute_pecs
from repro.policies import Reachability
from repro.topology import rocketfuel_like


def main() -> int:
    topology = rocketfuel_like("AS1221", size=25, seed=3)
    external = Prefix("200.0.0.0/16")
    egress = sorted(topology.nodes)[0]
    reflectors = topology.nodes_by_role("backbone")[:2]
    network = ibgp_over_ospf(topology, {egress: external}, route_reflectors=reflectors)
    print(f"topology: {topology!r}; egress={egress}; route reflectors={reflectors}")

    pecs = compute_pecs(network)
    graph = build_dependency_graph(network, pecs)
    external_pec = next(p for p in pecs if p.address_range.contains_address(external.first))
    dependencies = sorted(graph.dependencies_of(external_pec.index))
    print(
        f"\nPEC dependency graph: {len(pecs)} PECs; the external prefix PEC "
        f"#{external_pec.index} depends on {len(dependencies)} loopback PECs"
    )
    schedule = graph.schedule()
    position = {index: i for i, scc in enumerate(schedule) for index in scc}
    print(
        "scheduler places the external PEC at position "
        f"{position[external_pec.index]} of {len(schedule)} (loopbacks first)"
    )

    policy = Reachability(destination_prefix=external, any_branch=True)
    print("\nverifying reachability of the iBGP-announced prefix ...")
    result = Plankton(network, PlanktonOptions()).verify(policy)
    print("  " + result.summary())

    print("verifying the same under any single link failure ...")
    result = Plankton(network, PlanktonOptions(max_failures=1)).verify(policy)
    print("  " + result.summary())
    if not result.holds:
        print("  first violating scenario: " + result.first_violation().failure_description)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
