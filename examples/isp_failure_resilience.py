#!/usr/bin/env python3
"""ISP failure resilience: reachability under any single link failure.

The paper's Figure 7(d) workload: an ISP-like topology running OSPF, where an
operator wants to know whether traffic from an ingress PoP keeps reaching all
destination prefixes under any single link failure.  The verifier enumerates
the failure scenarios (reduced via link-equivalence classes), explores the
converged data plane of each, and reports the first failure that breaks
reachability — or proves there is none.

Run:  python examples/isp_failure_resilience.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Plankton, PlanktonOptions
from repro.config import ospf_everywhere
from repro.netaddr import Prefix
from repro.policies import Reachability
from repro.topology import rocketfuel_like


def main() -> int:
    topology = rocketfuel_like("AS1755", size=30, seed=11)
    print(f"topology: {topology!r}")

    # Backbone routers originate one /16 each (their customer aggregates).
    prefix_for = {
        name: Prefix(f"10.{index}.0.0/16")
        for index, name in enumerate(topology.nodes_by_role("backbone"))
    }
    network = ospf_everywhere(topology, originate_roles=(), prefix_for=prefix_for)
    ingress = next(n for n in topology.nodes_by_role("pop") if topology.degree(n) > 1)
    print(f"ingress PoP: {ingress} (degree {topology.degree(ingress)})")

    policy = Reachability(sources=[ingress], any_branch=True)

    print("\nchecking reachability with no failures ...")
    baseline = Plankton(network, PlanktonOptions(max_failures=0)).verify(policy)
    print("  " + baseline.summary())

    print("checking reachability under any single link failure ...")
    result = Plankton(network, PlanktonOptions(max_failures=1)).verify(policy)
    print("  " + result.summary())
    if not result.holds:
        print("  first violating scenario: " + result.first_violation().failure_description)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
