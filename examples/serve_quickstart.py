#!/usr/bin/env python3
"""Verification-as-a-service quickstart: boot ``repro serve``, push, poll.

The server workflow in miniature:

1. boot a ``repro serve`` daemon as a subprocess on an ephemeral port,
2. push a small eBGP network (topology + config text) into a namespace,
3. poll the job to completion and print the verdict,
4. push a one-device edit against the now-warm session and show the
   incremental accounting (only the dirty PEC is re-verified),
5. shut the daemon down.

Everything speaks the plain JSON API via :class:`repro.client.ServiceClient`
— the same thin client behind ``repro verify --server URL``.

Run:  python examples/serve_quickstart.py
"""

import os
import signal
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.client import ServiceClient

TOPOLOGY = """
topology demo
node a role edge
node b role core
node c role core
link a b weight 10
link b c weight 10
link a c weight 10
"""

CONFIG = """
device a
  bgp 65001
    network 10.1.0.0/24
    neighbor b remote-as 65002
    neighbor c remote-as 65003
device b
  bgp 65002
    neighbor a remote-as 65001
    neighbor c remote-as 65003
device c
  bgp 65003
    neighbor a remote-as 65001
    neighbor b remote-as 65002
"""

# The same device preferring the routes it learns from a — a typical
# operator edit, pushed as a one-device overlay against the warm session.
EDIT_B = """
  bgp 65002
    neighbor a remote-as 65001 import-map PREFER_A
    neighbor c remote-as 65003
  route-map PREFER_A permit 10
    set local-preference 200
"""


def main() -> int:
    print("booting repro serve on an ephemeral port ...")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")},
    )
    try:
        # The first stdout line announces the bound address.
        banner = process.stdout.readline().strip()
        print(f"  {banner}")
        url = banner.rsplit(" ", 1)[-1]
        client = ServiceClient(url)

        print("pushing the initial configuration into namespace 'demo' ...")
        receipt = client.push(
            "demo",
            {
                "kind": "verify",
                "topology": TOPOLOGY,
                "config": CONFIG,
                "policies": [{"policy": "loop"}],
                "options": {"max_failures": 1},
            },
        )
        print(f"  accepted as job {receipt['job']} (push #{receipt['sequence']})")
        job = client.wait(receipt["job"], timeout=120)
        result = job["result"]
        print(f"  job {job['job']}: {job['state']} — verdict {result['verdict']}")
        if result["verdict"] != "holds":
            print(result["text"])
            return 1

        print("pushing a one-device edit against the warm session ...")
        job = client.run(
            "demo",
            {
                "kind": "verify",
                "devices": {"b": EDIT_B},
                "policies": [{"policy": "loop"}],
                "options": {"max_failures": 1},
            },
            timeout=120,
        )
        incremental = job["result"]["document"]["incremental"]
        print(
            f"  verdict {job['result']['verdict']}; "
            f"{incremental['pecs_from_cache']}/{incremental['pecs_total']} "
            f"PEC(s) from cache, {incremental['pecs_recomputed']} recomputed "
            f"({job['result']['delta'].splitlines()[0]})"  # first line: the summary
        )

        info = client.namespace("demo")
        print(
            f"session: {info['pushes']} push(es), topology {info['topology']!r}, "
            f"{info['pecs']} PEC(s), {info['cache_entries']} cache entr(ies)"
        )
        return 0
    finally:
        print("shutting the server down ...")
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    sys.exit(main())
