#!/usr/bin/env python3
"""Verify a network described by on-disk topology and configuration files.

This example mirrors how the tool is used from the command line: the operator
has a topology file (``examples/configs/campus.topo``) and a configuration
file in the vendor-like DSL (``examples/configs/campus.cfg``), and wants to
know whether user subnets stay reachable under any single link failure.

The same checks can be run without writing any Python::

    python -m repro verify --topology examples/configs/campus.topo \\
        --config examples/configs/campus.cfg \\
        --policy reachability --sources acc0,acc1 --max-failures 1

    python -m repro pecs --topology examples/configs/campus.topo \\
        --config examples/configs/campus.cfg

Run:  python examples/config_files_verification.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Plankton, PlanktonOptions
from repro.cli import main as cli_main
from repro.config import parse_config
from repro.pec.classes import compute_pecs
from repro.policies import BlackHoleFreedom, BoundedPathLength, Reachability
from repro.topology import load_topology

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "configs")
TOPOLOGY_FILE = os.path.join(CONFIG_DIR, "campus.topo")
CONFIG_FILE = os.path.join(CONFIG_DIR, "campus.cfg")


def main() -> int:
    topology = load_topology(TOPOLOGY_FILE)
    with open(CONFIG_FILE) as handle:
        network = parse_config(topology, handle.read())
    print(f"loaded {topology!r} with {len(network.devices)} device configs")

    pecs = compute_pecs(network)
    print(f"packet equivalence classes ({len(pecs)}):")
    for pec in pecs:
        print("  " + pec.describe().splitlines()[0])
    print()

    options = PlanktonOptions(max_failures=1)
    checks = [
        (
            "user subnets reachable from both access switches under any single failure",
            Reachability(sources=["acc0", "acc1"], any_branch=True),
        ),
        (
            "no black holes on paths from the access layer",
            BlackHoleFreedom(sources=["acc0", "acc1"]),
        ),
        (
            "paths are at most 4 hops long",
            BoundedPathLength(max_hops=4, sources=["acc0", "acc1"]),
        ),
    ]
    verifier = Plankton(network, options)
    for description, policy in checks:
        result = verifier.verify(policy)
        print(f"{description}:")
        print("  " + result.summary())
        if not result.holds:
            print(result.first_violation().render())
    print()

    print("same check through the command-line interface:")
    exit_code = cli_main(
        [
            "verify",
            "--topology",
            TOPOLOGY_FILE,
            "--config",
            CONFIG_FILE,
            "--policy",
            "reachability",
            "--sources",
            "acc0,acc1",
            "--max-failures",
            "1",
        ]
    )
    print(f"CLI exit code: {exit_code}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
