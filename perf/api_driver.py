"""The library-API operation of ``ospf_mc_k14``, run in a fresh interpreter.

    python perf/api_driver.py net.topo net.cfg

Loads the two files, forces every OSPF PEC through the model checker
(``fast_ospf=False`` - the states the paper's prototype explores in Fig. 7a)
and prints one JSON line.  Exit code 0 = holds, 1 = violated, like the CLI.
"""

from __future__ import annotations

import json
import sys


def drive(topology_path: str, config_path: str) -> dict:
    from repro import Plankton, PlanktonOptions
    from repro.config import parse_config
    from repro.policies import LoopFreedom
    from repro.topology.io import load_topology

    with open(config_path) as handle:
        network = parse_config(load_topology(topology_path), handle.read())
    options = PlanktonOptions(fast_ospf=False, stop_at_first_violation=False)
    result = Plankton(network, options).verify(LoopFreedom())
    return {
        "holds": result.holds,
        "pecs_analyzed": result.pecs_analyzed,
        "states_expanded": result.total_states_expanded,
        "converged_states": result.total_converged_states,
        "violations": len(result.violations),
    }


if __name__ == "__main__":
    document = drive(sys.argv[1], sys.argv[2])
    print(json.dumps(document))
    sys.exit(0 if document["holds"] else 1)
