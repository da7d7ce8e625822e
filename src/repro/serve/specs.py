"""Wire-format request specs shared by the CLI, the thin client and the daemon.

A verification request travelling over the service API is a plain JSON
document: a *policy spec* (``{"policy": "loop", ...}``), an *options spec*
(the :class:`~repro.core.options.PlanktonOptions` knobs that are meaningful
per request), a *transient spec* and *scenario specs* for transient
campaigns, and the *forms* the result is to be rendered into.  The CLI
builds the same request from its argparse namespace — in local mode it hands
it to :func:`repro.serve.jobs.run_request` in-process, in ``--server`` mode
it ships it — so the two execution paths cannot drift.  The constructors are
the schema: one :func:`_build` checks every spec against the class it builds.

Every validation failure raises :class:`~repro.exceptions.SpecError`, which
the server maps to a *failed job* (or HTTP 400 for malformed envelopes) with
the message intact, and the local CLI reports exactly like any other input
error (exit code 2).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config.objects import NetworkConfig
from repro.core.options import PlanktonOptions
from repro.exceptions import PolicyError, ReproError, SpecError
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

#: Policy kind -> the class its spec builds (``--policy`` offers these kinds:
#: :data:`repro.core.options.POLICY_KINDS`).
POLICIES = {
    "reachability": Reachability,
    "loop": LoopFreedom,
    "blackhole": BlackHoleFreedom,
    "waypoint": Waypoint,
    "segmentation": Segmentation,
    "bounded-path-length": BoundedPathLength,
    "multipath-consistency": MultipathConsistency,
    "path-consistency": PathConsistency,
}


@functools.lru_cache(maxsize=None)  # a signature costs tens of µs to read
def _parameters(
    factory: Callable, exposed: Optional[Tuple[str, ...]] = None
) -> Dict[str, inspect.Parameter]:
    """The spec fields of ``factory``: its parameters, only the ``exposed``
    ones when given, never one a :func:`functools.partial` fixes."""
    fixed = getattr(factory, "keywords", {})
    return {
        name: parameter
        for name, parameter in inspect.signature(factory).parameters.items()
        if name not in fixed and (exposed is None or name in exposed)
    }


def fields_of(factories) -> Tuple[str, ...]:
    """Every spec field of any of ``factories``, in first-seen order."""
    return tuple(dict.fromkeys(name for factory in factories for name in _parameters(factory)))


#: The fields of any policy kind: the flags ``verify`` puts in its policy spec.
POLICY_FIELDS = fields_of(POLICIES.values())
#: The :class:`PlanktonOptions` fields a request spec may set: what the CLI
#: sends.  Everything else (e.g. the §4 optimization ablation switches) stays
#: a library-side decision.
OPTION_FIELDS = ("max_failures", "cores", "stop_at_first_violation", "task_timeout", "task_retries")
#: The :class:`~repro.transient.TransientOptions` fields a transient spec may
#: set: what ``repro transient`` sends.  ``collect_converged`` stays a library knob.
TRANSIENT_FIELDS = ("max_states", "max_depth", "stop_at_first_violation", "por", "scenario_events")
#: The top-level keys of a push: the network (full or overlay), the forms,
#: and each request kind's specs.
_PAYLOAD_FIELDS = (
    "kind", "topology", "config", "devices", "forms", "options",
    "policies", "transient", "property", "scenarios", "destination_prefix",
)


@functools.lru_cache(maxsize=None)
def transient_properties() -> Dict[str, Callable]:
    """Transient property kind -> what its spec builds (imported here, so a
    verify request never loads :mod:`repro.transient`)."""
    from repro.transient import TransientBlackHoleFreedom, TransientLoopFreedom

    return {
        # A loop in a converged state is ``verify --policy loop``'s finding.
        "loop": functools.partial(TransientLoopFreedom, ignore_converged=True),
        "blackhole": TransientBlackHoleFreedom,
    }


#: Annotation text -> (the Python types, the JSON type in messages) of a
#: scalar field.  A JSON ``true`` is no number, and a number must be finite.
_SCALARS = {
    "int": (int, "an integer"),
    "bool": (bool, "true or false"),
    "float": ((int, float), "a finite number"),
    "str": (str, "a string"),
}


def _devices(value: object, name: str, network: Optional[NetworkConfig]) -> List[str]:
    """A list of device names, or one comma-joined string of them."""
    names = value.split(",") if isinstance(value, str) else value
    if not isinstance(names, (list, tuple)) or not all(isinstance(item, str) for item in names):
        raise SpecError(f"{name} must be a list of device names (got {value!r})")
    names = [item.strip() for item in names if item.strip()]
    if not names:
        raise SpecError(f"{name} must name at least one device (leave it out for every device)")
    for device in names:
        if network is not None and device not in network.topology:
            raise SpecError(f"unknown device {device!r} in {name}")
    return names


def parse_destination_prefix(value: object, name: str = "destination_prefix") -> Optional[Prefix]:
    """``"10.0.1.0/24"`` (or a bare address, /32-implied) → :class:`Prefix`."""
    if value is None:
        return None
    if not isinstance(value, str):
        raise SpecError(f"{name} must be a prefix string (got {value!r})")
    try:
        return Prefix(value if "/" in value else value + "/32")
    except ValueError as exc:
        raise SpecError(f"bad {name} {value!r}: {exc}") from exc


def _checked(value: object, name: str, annotation: str, network: Optional[NetworkConfig]):
    """``value`` of field ``name`` checked against its annotation text."""
    if annotation.startswith("Optional["):
        if value is None:
            return None
        annotation = annotation[len("Optional[") : -1]
    if annotation == "Sequence[str]":
        return _devices(value, name, network)
    if annotation == "Prefix":
        return parse_destination_prefix(value, name)
    types, description = _SCALARS[annotation]
    if (
        not isinstance(value, types)
        or (isinstance(value, bool) and types is not bool)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise SpecError(f"{name} must be {description} (got {value!r})")
    return value


def _build(
    factory: Callable,
    spec: object,
    what: str,
    exposed: Optional[Tuple[str, ...]] = None,
    network: Optional[NetworkConfig] = None,
):
    """``factory(**spec)``, each field checked against its annotation.

    A key outside :func:`_parameters`, a value of another JSON type, a
    missing required field and anything the constructor refuses are each a
    :class:`SpecError` naming the field.  ``network`` ``None`` leaves device
    names unchecked.
    """
    spec = {} if spec is None else spec
    if not isinstance(spec, Mapping):
        raise SpecError(f"a {what} spec must be a JSON object (got {spec!r})")
    parameters = _parameters(factory, exposed)
    unknown = sorted(str(key) for key in spec if key not in parameters)
    if unknown:
        raise SpecError(f"unknown {what} field(s): {', '.join(unknown)}")
    missing = [
        name
        for name, parameter in parameters.items()
        if parameter.default is parameter.empty and name not in spec
    ]
    if missing:
        raise SpecError(f"{what} requires {' and '.join(missing)}")
    try:
        arguments = {
            name: _checked(spec[name], name, parameter.annotation, network)
            for name, parameter in parameters.items()
            if name in spec
        }
        return factory(**arguments)
    except (PolicyError, SpecError, TypeError, ValueError) as exc:
        raise SpecError(f"bad {what} spec: {exc}") from exc


def _kind_spec(
    table: Mapping[str, Callable],
    spec: object,
    key: str,
    noun: str,
    network: Optional[NetworkConfig],
    default: Optional[str] = None,
):
    """Build the ``table`` entry a kind-keyed spec names under ``key``."""
    if not isinstance(spec, Mapping):
        raise SpecError(f"a {noun} spec must be a JSON object (got {spec!r})")
    kind = spec.get(key, default)
    if not isinstance(kind, str) or kind not in table:
        raise SpecError(f"unknown {noun} {kind!r}; choose from {', '.join(table)}")
    fields = {name: value for name, value in spec.items() if name != key}
    return _build(table[kind], fields, f"{kind} {noun}", network=network)


def policy_from_spec(spec: object, network: Optional[NetworkConfig]) -> Policy:
    """The policy a policy spec names under ``policy`` (:data:`POLICIES`),
    built from the fields of that kind's constructor."""
    return _kind_spec(POLICIES, spec, "policy", "policy", network)


def options_from_spec(spec: Optional[Mapping]) -> PlanktonOptions:
    """Build :class:`PlanktonOptions` from an options spec dict (or ``None``)."""
    return _build(PlanktonOptions, spec, "options", OPTION_FIELDS)


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

    return _build(TransientOptions, spec, "transient options", TRANSIENT_FIELDS)


def transient_property_from_spec(spec: Optional[Mapping], network: Optional[NetworkConfig]):
    """The transient property a spec names under ``property`` (default
    ``loop``; :func:`transient_properties`), built from that kind's fields."""
    spec = {} if spec is None else spec
    properties = transient_properties()
    return _kind_spec(properties, spec, "property", "transient property", network, "loop")


def check_push_fields(payload: Mapping) -> Optional[NetworkConfig]:
    """Refuse a push before it becomes a job when its job would fail on a
    spec: a key outside what the CLI sends, or a spec the one schema refuses.
    Device names and scenarios are checked when the push carries its full
    network, which is returned (the job installs it instead of parsing the
    same text again); None otherwise."""
    unknown = sorted(str(key) for key in payload if key not in _PAYLOAD_FIELDS)
    if unknown:
        raise SpecError(f"unknown push field(s): {', '.join(unknown)}")
    options_from_spec(payload.get("options"))
    network = None
    if payload.get("topology") is not None and payload.get("config") is not None:
        network = network_from_payload(payload)
    transient = payload.get("kind") == "transient"
    if transient:
        transient_options_from_spec(payload.get("transient"))
        transient_property_from_spec(payload.get("property"), network)
        parse_destination_prefix(payload.get("destination_prefix"))
    key = "scenarios" if transient else "policies"
    specs = payload.get(key) or ()
    if not isinstance(specs, (list, tuple)):
        raise SpecError(f"{key} must be a list (got {type(specs).__name__})")
    for spec in specs:
        if not transient:
            policy_from_spec(spec, network)
        elif network is not None:
            scenario_from_spec(str(spec), network)
    return network


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


@contextlib.contextmanager
def refused_as(what: str):
    """Re-raise a parser's :class:`~repro.exceptions.ReproError` as the
    :class:`SpecError` ``bad WHAT: ...``: the one message a local run, a
    ``--server`` run and a raw push print for a topology or configuration
    the parsers refuse."""
    try:
        yield
    except ReproError as exc:
        raise SpecError(f"bad {what}: {exc}") from exc


def _payload_topology(payload: Mapping):
    """The topology a push carries (text or a JSON object), or ``None``."""
    from repro.topology.io import parse_topology, topology_from_dict

    raw_topology = payload.get("topology")
    if raw_topology is None:
        return None
    if not isinstance(raw_topology, (str, Mapping)):
        raise SpecError("topology must be topology text or a JSON object")
    with refused_as("topology"):
        if isinstance(raw_topology, str):
            return parse_topology(raw_topology)
        return topology_from_dict(dict(raw_topology))


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
        with refused_as("config"):
            return parse_config(topology, config_text)

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
            with refused_as(f"config for device {name!r}"):
                network.set_device(parse_device_config(name, _device_body(name, str(text))))
        network.validate()
        return network

    if current is not None:
        return current
    raise SpecError(
        "the first push of a namespace needs config text (later pushes may "
        "carry a devices overlay or nothing to re-run on the current config)"
    )
