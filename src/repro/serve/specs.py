"""Wire-format request specs shared by the CLI, the thin client and the daemon.

A verification request travelling over the service API is a plain JSON
document: a *policy spec* (``{"policy": "loop", ...}``), an *options spec*
(the :class:`~repro.core.options.PlanktonOptions` knobs that are meaningful
per request), a *transient spec* and *scenario specs* for transient
campaigns, and the *forms* the result is to be rendered into.  The CLI
builds the same request from its argparse namespace — in local mode it hands
it to :func:`repro.serve.jobs.run_request` in-process, in ``--server`` mode
it ships it — so the two execution paths cannot drift: there is exactly one
construction routine per object kind, and it lives here.

Every validation failure raises :class:`~repro.exceptions.SpecError`, which
the server maps to a *failed job* (or HTTP 400 for malformed envelopes) with
the message intact, and the local CLI reports exactly like any other input
error (exit code 2).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from repro.config.objects import NetworkConfig
from repro.core.options import (
    POLICY_KINDS,
    TRANSIENT_PROPERTIES,
    PlanktonOptions,
)
from repro.exceptions import SpecError, TopologyError
from repro.netaddr import Prefix
from repro.policies import (
    BlackHoleFreedom,
    BoundedPathLength,
    LoopFreedom,
    MultipathConsistency,
    PathConsistency,
    Policy,
    Reachability,
    Segmentation,
    Waypoint,
)
from repro.reporting import DEFAULT_FORMS, FORMS


def _names(spec: Mapping, key: str) -> List[str]:
    """A list-of-device-names field; accepts a list or a comma-joined string."""
    value = spec.get(key)
    if value is None:
        return []
    if isinstance(value, str):
        return [item.strip() for item in value.split(",") if item.strip()]
    if isinstance(value, (list, tuple)):
        return [str(item) for item in value]
    raise SpecError(f"{key} must be a list of device names (got {type(value).__name__})")


def parse_destination_prefix(value: Optional[str]) -> Optional[Prefix]:
    """``"10.0.1.0/24"`` (or a bare address, /32-implied) → :class:`Prefix`."""
    if value is None:
        return None
    text = value if "/" in value else value + "/32"
    try:
        return Prefix(text)
    except Exception as exc:
        raise SpecError(f"bad destination prefix {value!r}: {exc}") from exc


def policy_from_spec(spec: Mapping, network: NetworkConfig) -> Policy:
    """Instantiate the policy named by one policy spec dict.

    Spec keys: ``policy`` (required, one of :data:`POLICY_KINDS`), plus the
    policy-specific fields ``sources``, ``waypoints``, ``protected``,
    ``destination_prefix``, ``max_hops`` and ``any_branch`` — the same
    vocabulary as the CLI flags.
    """
    sources = _names(spec, "sources")
    waypoints = _names(spec, "waypoints")
    protected = _names(spec, "protected")
    destination = parse_destination_prefix(spec.get("destination_prefix"))
    for name in sources + waypoints + protected:
        if name not in network.topology:
            raise SpecError(f"unknown device {name!r} in sources/waypoints/protected")

    kind = spec.get("policy")
    if kind == "segmentation":
        if not sources or not protected:
            raise SpecError("policy segmentation requires sources and protected")
        return Segmentation(sources=sources, protected=protected, destination_prefix=destination)
    if kind == "reachability":
        return Reachability(
            sources=sources or None,
            destination_prefix=destination,
            require_all_branches=not spec.get("any_branch", False),
        )
    if kind == "loop":
        return LoopFreedom(destination_prefix=destination)
    if kind == "blackhole":
        return BlackHoleFreedom(
            destination_prefix=destination,
            only_on_paths_from=sources or None,
        )
    if kind == "waypoint":
        if not sources or not waypoints:
            raise SpecError("policy waypoint requires sources and waypoints")
        return Waypoint(sources=sources, waypoints=waypoints, destination_prefix=destination)
    if kind == "bounded-path-length":
        if spec.get("max_hops") is None:
            raise SpecError("policy bounded-path-length requires max_hops")
        return BoundedPathLength(
            max_hops=int(spec["max_hops"]),
            sources=sources or None,
            destination_prefix=destination,
        )
    if kind == "multipath-consistency":
        return MultipathConsistency(sources=sources or None, destination_prefix=destination)
    if kind == "path-consistency":
        if len(sources) < 2:
            raise SpecError("policy path-consistency requires at least two sources devices")
        return PathConsistency(device_group=sources, destination_prefix=destination)
    raise SpecError(f"unknown policy {kind!r}; choose from {', '.join(POLICY_KINDS)}")


#: The PlanktonOptions fields a request spec may set: what the CLI sends.
#: Everything else (e.g. the §4 optimization ablation switches) stays a
#: library-side decision.
_OPTION_FIELDS = (
    "max_failures",
    "cores",
    "backend",
    "stop_at_first_violation",
    "task_timeout",
    "task_retries",
)

#: The TransientOptions fields a transient spec may set: what ``repro
#: transient`` sends.  ``collect_converged`` stays a library knob.
_TRANSIENT_FIELDS = ("max_states", "max_depth", "stop_at_first_violation", "por", "scenario_events")
#: The keys of a transient-property spec.
_PROPERTY_FIELDS = ("property", "sources")
#: The top-level keys of a push: the network (full or overlay), the forms,
#: and each request kind's specs.
_PAYLOAD_FIELDS = (
    "kind", "topology", "config", "devices", "forms", "options",
    "policies", "transient", "property", "scenarios", "destination_prefix",
)


def _fields(spec: Optional[Mapping], allowed: Sequence[str], what: str) -> dict:
    """``spec`` as a dict.  A key outside ``allowed`` is refused rather than
    ignored, so a typo in a client payload is a clear error instead of a
    silently-default run."""
    spec = spec or {}
    if not isinstance(spec, Mapping):
        raise SpecError(f"a {what} spec must be a JSON object")
    unknown = set(spec) - set(allowed)
    if unknown:
        raise SpecError(f"unknown {what} field(s): {', '.join(sorted(unknown))}")
    return dict(spec)


def options_from_spec(spec: Optional[Mapping]) -> PlanktonOptions:
    """Build :class:`PlanktonOptions` from an options spec dict (or ``None``)."""
    spec = _fields(spec, _OPTION_FIELDS, "option")
    try:
        return PlanktonOptions(**spec)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad options spec: {exc}") from exc


def forms_from_spec(value: object) -> Tuple[str, ...]:
    """The ``forms`` list of a push → the result forms its job renders and
    keeps (:data:`repro.reporting.FORMS`; ``None`` → ``document`` + ``text``)."""
    if value is None:
        return DEFAULT_FORMS
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"forms must be a list of form names (got {type(value).__name__})")
    unknown = [str(form) for form in value if form not in FORMS]
    if unknown:
        raise SpecError(
            f"unknown result form(s): {', '.join(unknown)}; choose from {', '.join(FORMS)}"
        )
    return tuple(dict.fromkeys(value))


def transient_options_from_spec(spec: Optional[Mapping]):
    """Build :class:`~repro.transient.TransientOptions` from a spec dict."""
    from repro.transient import TransientOptions

    spec = _fields(spec, _TRANSIENT_FIELDS, "transient option")
    try:
        return TransientOptions(**spec)
    except (TypeError, ValueError, TopologyError) as exc:
        raise SpecError(f"bad transient options: {exc}") from exc


def check_push_fields(payload: Mapping) -> None:
    """Refuse a push before it becomes a job when its job would fail on a
    spec: a key outside what the CLI sends, an options or transient options
    spec its type refuses, or - when the push carries its full network - a
    policy or scenario spec that names nothing on it."""
    _fields(payload, _PAYLOAD_FIELDS, "push")
    options_from_spec(payload.get("options"))
    transient = payload.get("kind") == "transient"
    if transient:
        transient_options_from_spec(payload.get("transient"))
        _fields(payload.get("property"), _PROPERTY_FIELDS, "transient property")
    specs = payload.get("scenarios" if transient else "policies") or ()
    if specs and payload.get("topology") is not None and payload.get("config") is not None:
        network = network_from_payload(payload)
        for spec in specs:
            if transient:
                scenario_from_spec(str(spec), network)
            else:
                policy_from_spec(spec, network)


def transient_property_from_spec(spec: Optional[Mapping], network: NetworkConfig):
    """One transient property spec → a property object.

    Keys: ``property`` (``"loop"``, the default, or ``"blackhole"``) and
    ``sources`` (blackhole scope); any other key is refused.
    """
    from repro.transient import TransientBlackHoleFreedom, TransientLoopFreedom

    spec = _fields(spec, _PROPERTY_FIELDS, "transient property")
    sources = _names(spec, "sources")
    for name in sources:
        if name not in network.topology:
            raise SpecError(f"unknown device {name!r} in sources")
    kind = spec.get("property", "loop")
    if kind == "blackhole":
        return TransientBlackHoleFreedom(sources=sources or None)
    if kind == "loop":
        # A loop in a converged state is ``verify --policy loop``'s finding.
        return TransientLoopFreedom(ignore_converged=True)
    raise SpecError(
        f"unknown transient property {kind!r}; choose {' or '.join(TRANSIENT_PROPERTIES)}"
    )


def _spec_descriptors(parts: Sequence[str], network: NetworkConfig):
    """``KIND:ARGS`` parts → scenario descriptors, each checked against
    ``network`` (:func:`~repro.scenarios.enumerator.check_descriptor`)."""
    from repro.scenarios.enumerator import check_descriptor

    descriptors = []
    for part in parts:
        kind, sep, rest = (piece.strip() for piece in part.partition(":"))
        if not sep or not rest:
            raise SpecError(
                f"malformed scenario part {part!r}; expected KIND:ARGS "
                "(e.g. crash:node or gray:a,b)"
            )
        descriptor = (kind,) + tuple(item.strip() for item in rest.split(",") if item.strip())
        check_descriptor(network, descriptor)
        descriptors.append(descriptor)
    return descriptors


def scenario_from_spec(spec: str, network: NetworkConfig):
    """Parse one lifecycle scenario spec string into a :class:`Scenario`
    named by the spec.

    A spec is ``+``-separated event parts, each ``KIND:ARGS`` — a scenario
    descriptor of :mod:`repro.scenarios.enumerator`: ``crash:NODE``,
    ``restart:NODE``, ``drain:NODE``, ``return:NODE``, ``drain-return:NODE``,
    ``maintenance:NODE`` (drain, settle, return), ``flap:A,B``,
    ``gray:EXPORTER,IMPORTER``.  The scenario converges first, then stages
    the events in order.
    """
    import dataclasses

    from repro.scenarios.enumerator import scenario_from_descriptor

    descriptors = _spec_descriptors(spec.split("+"), network)
    return dataclasses.replace(scenario_from_descriptor(descriptors), name=spec)


def scenarios_from_specs(
    specs: Optional[Sequence[str]], network: NetworkConfig
) -> Optional[List[object]]:
    """A list of scenario spec strings → scenarios (``None`` stays ``None``)."""
    if not specs:
        return None
    return [scenario_from_spec(spec, network) for spec in specs]


def _device_body(name: str, text: str) -> str:
    """Overlay texts may be pasted straight from a config file, so tolerate a
    leading ``device <name>`` header line (it must name the same device)."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0].lower() == "device":
            if len(tokens) < 2 or tokens[1] != name:
                raise SpecError(
                    f"overlay for device {name!r} has a mismatched header: {line.strip()!r}"
                )
            return "\n".join(lines[index + 1 :])
        break
    return text


def _payload_topology(payload: Mapping):
    """The topology a push carries (text or a JSON object), or ``None``."""
    from repro.exceptions import ReproError
    from repro.topology.io import parse_topology, topology_from_dict

    raw_topology = payload.get("topology")
    if raw_topology is None:
        return None
    if not isinstance(raw_topology, (str, Mapping)):
        raise SpecError("topology must be topology text or a JSON object")
    try:
        if isinstance(raw_topology, str):
            return parse_topology(raw_topology)
        return topology_from_dict(dict(raw_topology))
    except ReproError as exc:
        raise SpecError(f"bad topology: {exc}") from exc


def network_from_payload(
    payload: Mapping,
    current: Optional[NetworkConfig] = None,
) -> NetworkConfig:
    """Materialise the network a push payload describes.

    Two forms, mirroring full vs delta pushes:

    * ``{"topology": text, "config": text}`` — a full configuration; the
      topology may be omitted on delta pushes when the session already has
      one (``current``).
    * ``{"devices": {name: device-config-text}}`` — an overlay delta: the
      named devices replace their counterparts in ``current`` (which must
      exist), everything else carries over.

    A payload with neither form is a *run-only* push: it reuses the session's
    current network unchanged (and is an error on a cold session).
    """
    import copy

    from repro.config.parser import parse_config, parse_device_config
    from repro.exceptions import ReproError

    topology = _payload_topology(payload)

    config_text = payload.get("config")
    devices = payload.get("devices")
    if config_text is not None and devices is not None:
        raise SpecError("a push carries either a full config or a devices overlay, not both")

    if config_text is not None:
        if topology is None and current is not None:
            topology = current.topology
        if topology is None:
            raise SpecError("a full-config push needs a topology (none on the session yet)")
        try:
            return parse_config(topology, config_text)
        except ReproError as exc:
            raise SpecError(f"bad config: {exc}") from exc

    if devices is not None:
        if current is None:
            raise SpecError("a devices-overlay push needs an existing session config")
        if topology is not None:
            raise SpecError("a devices-overlay push cannot also replace the topology")
        if not isinstance(devices, Mapping) or not devices:
            raise SpecError("devices must be a non-empty {name: config text} object")
        network = copy.deepcopy(current)
        for name, text in devices.items():
            if name not in network.topology:
                raise SpecError(f"overlay device {name!r} is not in the topology")
            try:
                network.set_device(parse_device_config(name, _device_body(name, str(text))))
            except ReproError as exc:
                raise SpecError(f"bad config for device {name!r}: {exc}") from exc
        network.validate()
        return network

    if current is not None:
        return current
    raise SpecError(
        "the first push of a namespace needs config text (later pushes may "
        "carry a devices overlay or nothing to re-run on the current config)"
    )
