"""Topology serialisation: a small text format plus JSON.

The verifier's programmatic API builds :class:`~repro.topology.graph.Topology`
objects directly, but the command-line interface (``python -m repro``) and the
example datasets need topologies on disk.  Two formats are supported:

**Text format** (``.topo``) — one declaration per line, ``#`` starts a comment::

    topology campus
    node core0 role core loopback 10.255.0.1/32
    node core1 role core loopback 10.255.0.2/32
    node dist0 role distribution asn 65010
    link core0 core1 weight 1
    link core0 dist0 weight 5 weight-back 10

**JSON format** (``.json``) — the same information as a document::

    {"name": "campus",
     "nodes": [{"name": "core0", "role": "core", "loopback": "10.255.0.1/32"}],
     "links": [{"a": "core0", "b": "core1", "weight": 1}]}

Both preserve node order, roles, loopbacks, per-direction link weights and
scalar node attributes; :func:`format_topology` writes the text form back.
"""

from __future__ import annotations

import json
from pathlib import Path as FilePath
from typing import Dict, List, Optional, Union

from repro.exceptions import ReproError, TopologyError
from repro.netaddr import Prefix
from repro.topology.graph import Topology

PathLike = Union[str, FilePath]


# --------------------------------------------------------------------------- text
def parse_topology(text: str) -> Topology:
    """Parse the text topology format into a :class:`Topology`."""
    topology = Topology()
    named = False
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        keyword = tokens[0].lower()
        if keyword == "topology":
            if len(tokens) < 2:
                raise TopologyError(f"line {number}: 'topology' requires a name")
            if named:
                raise TopologyError(f"line {number}: duplicate 'topology' line")
            topology.name = tokens[1]
            named = True
        elif keyword == "node":
            _parse_node_line(topology, tokens, number)
        elif keyword == "link":
            _parse_link_line(topology, tokens, number)
        else:
            raise TopologyError(f"line {number}: unknown keyword {tokens[0]!r}")
    return topology


def _parse_node_line(topology: Topology, tokens: List[str], number: int) -> None:
    """Handle one ``node <name> [role R] [loopback P] [<attr> <value>]...`` line."""
    if len(tokens) < 2:
        raise TopologyError(f"line {number}: 'node' requires a name")
    name = tokens[1]
    role = "router"
    loopback: Optional[Prefix] = None
    attributes: Dict[str, object] = {}
    rest = tokens[2:]
    while rest:
        if len(rest) < 2:
            raise TopologyError(f"line {number}: node option {rest[0]!r} needs a value")
        key, value = rest[0].lower(), rest[1]
        rest = rest[2:]
        if key == "role":
            role = value
        elif key == "loopback":
            try:
                loopback = Prefix(value if "/" in value else value + "/32")
            except Exception as exc:
                raise TopologyError(f"line {number}: bad loopback {value!r}: {exc}") from exc
        else:
            attributes[key] = _coerce_scalar(value)
    try:
        node = topology.add_node(name, role=role, loopback=loopback)
    except TopologyError as exc:
        raise TopologyError(f"line {number}: {exc}") from exc
    # Not as keywords: an attribute may be called ``name``.
    node.attributes.update(attributes)


def _parse_link_line(topology: Topology, tokens: List[str], number: int) -> None:
    """Handle one ``link <a> <b> [weight N] [weight-back N]`` line."""
    if len(tokens) < 3:
        raise TopologyError(f"line {number}: 'link' requires two endpoints")
    a, b = tokens[1], tokens[2]
    weight = 1
    weight_back: Optional[int] = None
    rest = tokens[3:]
    while rest:
        if len(rest) < 2:
            raise TopologyError(f"line {number}: link option {rest[0]!r} needs a value")
        key, value = rest[0].lower(), rest[1]
        rest = rest[2:]
        if key == "weight":
            weight = _parse_int(value, number, "weight")
        elif key in {"weight-back", "weight_back"}:
            weight_back = _parse_int(value, number, "weight-back")
        else:
            raise TopologyError(f"line {number}: unknown link option {key!r}")
    try:
        topology.add_link(a, b, weight=weight, weight_ba=weight_back)
    except TopologyError as exc:
        raise TopologyError(f"line {number}: {exc}") from exc


def _parse_int(value: str, number: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise TopologyError(f"line {number}: expected integer {what}, got {value!r}") from None


def _coerce_scalar(value: str) -> object:
    """Interpret attribute values: int when possible, else the raw string."""
    try:
        return int(value)
    except ValueError:
        return value


def format_topology(topology: Topology) -> str:
    """Render ``topology`` in the text format (inverse of :func:`parse_topology`)."""
    lines = [f"topology {topology.name}"]
    for name in topology.nodes:
        node = topology.node(name)
        parts = [f"node {name}", f"role {node.role}"]
        if node.loopback is not None:
            parts.append(f"loopback {node.loopback}")
        for key in sorted(node.attributes):
            parts.append(f"{key} {node.attributes[key]}")
        lines.append(" ".join(parts))
    for link in topology.links:
        parts = [f"link {link.a} {link.b}", f"weight {link.weight_ab}"]
        if link.weight_ba != link.weight_ab:
            parts.append(f"weight-back {link.weight_ba}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- json
def topology_from_dict(document: Dict[str, object]) -> Topology:
    """Build a :class:`Topology` from its JSON document form; a document of
    another shape is a :class:`TopologyError`."""
    try:
        topology = Topology(str(document.get("name", "network")))
        for entry in document.get("nodes", []):  # type: ignore[union-attr]
            if "name" not in entry:
                raise TopologyError(f"node entry without a name: {entry!r}")
            loopback_text = entry.get("loopback")
            loopback = Prefix(loopback_text) if loopback_text else None
            node = topology.add_node(
                str(entry["name"]), role=str(entry.get("role", "router")), loopback=loopback
            )
            node.attributes.update(entry.get("attributes", {}))
        for entry in document.get("links", []):  # type: ignore[union-attr]
            if "a" not in entry or "b" not in entry:
                raise TopologyError(f"link entry without endpoints: {entry!r}")
            topology.add_link(
                str(entry["a"]),
                str(entry["b"]),
                weight=int(entry.get("weight", 1)),
                weight_ba=(
                    int(entry["weight_back"]) if "weight_back" in entry else None
                ),
            )
    except ReproError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise TopologyError(f"malformed topology document: {exc}") from exc
    return topology


# --------------------------------------------------------------------------- files
def load_topology(path: PathLike) -> Topology:
    """Load a topology from a ``.json`` or text (``.topo``) file."""
    file_path = FilePath(path)
    text = file_path.read_text()
    if file_path.suffix.lower() == ".json":
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise TopologyError(f"not a JSON document: {exc}") from exc
        return topology_from_dict(document)
    return parse_topology(text)
