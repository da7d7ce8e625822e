"""Fuzz the wire specs a push carries.

Whatever JSON value a client puts in any field of a policy, options,
transient or transient-property spec, building the object either succeeds
or raises :class:`~repro.exceptions.SpecError`.  Anything else escapes the
service's request handler (which answers ``ReproError`` with HTTP 400) and
drops the client's connection without a response.  The draws mix arbitrary
JSON with the values the fields actually take, so most draws get past the
first check of their spec.

Two more properties hold of every draw, against this file's own copy of
the schema (independent of the constructors the builders read): a spec
carrying a key outside its kind's fields is always refused, and a spec
that builds holds every field in its declared JSON type - a ``bool`` is no
integer, and a number is finite.
"""

import math
from collections.abc import Mapping

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.parser import parse_config
from repro.core.options import POLICY_KINDS, POR_MODES, TRANSIENT_PROPERTIES
from repro.exceptions import SpecError
from repro.serve.specs import (
    check_push_fields,
    options_from_spec,
    policy_from_spec,
    transient_options_from_spec,
    transient_property_from_spec,
)
from repro.topology.io import parse_topology

TOPOLOGY_TEXT = """
topology triangle
node r1 role edge
node r2 role core
node r3 role core
link r1 r2 weight 10
link r2 r3 weight 10
link r1 r3 weight 10
"""

CONFIG_TEXT = """
device r1
  ospf
    network 10.0.1.0/24
device r2
  ospf
device r3
  ospf
"""

NETWORK = parse_config(parse_topology(TOPOLOGY_TEXT), CONFIG_TEXT)

#: The field names of each spec kind, as the CLI sends them.
POLICY_FIELDS = (
    "policy", "sources", "waypoints", "protected", "destination_prefix", "max_hops", "any_branch",
)
OPTION_FIELDS = (
    "max_failures", "cores", "stop_at_first_violation", "task_timeout", "task_retries",
)
TRANSIENT_FIELDS = ("max_states", "max_depth", "stop_at_first_violation", "por", "scenario_events")
PROPERTY_FIELDS = ("property", "sources")

#: The oracle: the fields each policy kind and transient property takes
#: (besides its kind key).
KIND_FIELDS = {
    "reachability": {"sources", "destination_prefix", "any_branch"},
    "loop": {"destination_prefix"},
    "blackhole": {"sources", "destination_prefix"},
    "waypoint": {"sources", "waypoints", "destination_prefix"},
    "segmentation": {"sources", "protected", "destination_prefix"},
    "bounded-path-length": {"max_hops", "sources", "destination_prefix"},
    "multipath-consistency": {"sources", "destination_prefix"},
    "path-consistency": {"sources", "destination_prefix"},
}
PROPERTY_KIND_FIELDS = {"loop": set(), "blackhole": {"sources"}}

#: The oracle: each field's JSON type, and the fields that may be null.
JSON_TYPES = {
    "sources": "devices", "waypoints": "devices", "protected": "devices",
    "destination_prefix": "string", "max_hops": "integer", "any_branch": "boolean",
    "max_failures": "integer", "cores": "integer", "stop_at_first_violation": "boolean",
    "task_timeout": "number", "task_retries": "integer", "max_states": "integer",
    "max_depth": "integer", "por": "string", "scenario_events": "integer",
}
NULLABLE = {"sources", "destination_prefix", "task_timeout"}

#: Strings the fields really take: device names, prefixes, kinds and modes.
MEANINGFUL = st.sampled_from(
    ("r1", "r2", "r3", "r1,r2", "zz", "10.0.1.0/24", "10.0.1.7", "10.0.1.0/33", "")
    + POLICY_KINDS + POR_MODES + TRANSIENT_PROPERTIES
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=12)
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | MEANINGFUL
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def specs(fields, **pinned):
    """A spec over ``fields``: a dict of drawn values, its key set drawn too
    (an unknown key now and then), or, rarely, a JSON value that is no
    object at all."""
    values = {field: pinned.get(field, JSON_VALUES) for field in fields}
    spec = st.dictionaries(
        st.sampled_from(fields + ("unknown",)), st.just(None), max_size=len(fields)
    ).flatmap(
        lambda keys: st.fixed_dictionaries(
            {key: values.get(key, JSON_VALUES) for key in keys}
        )
    )
    return st.one_of(spec, spec, spec, JSON_VALUES)


def of_json_type(name, value):
    """Whether ``value`` is of field ``name``'s declared JSON type."""
    if value is None:
        return name in NULLABLE
    kind = JSON_TYPES[name]
    if kind == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "boolean":
        return isinstance(value, bool)
    if kind == "number":
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and (not isinstance(value, float) or math.isfinite(value))
        )
    if kind == "string":
        return isinstance(value, str)
    # A device list: a list of names, or one comma-joined string of them.
    return isinstance(value, str) or (
        isinstance(value, list) and all(isinstance(item, str) for item in value)
    )


def builds_or_refuses(build, spec, fields=None):
    """``build(spec)`` raises nothing but :class:`SpecError`; when it builds,
    the spec holds only ``fields(spec)`` (when given), each of its JSON type."""
    try:
        build(spec)
    except SpecError:
        return
    if fields is None:
        return
    spec = {} if spec is None else spec
    assert isinstance(spec, Mapping), spec
    assert set(spec) <= fields(spec), f"built a spec with a field its kind lacks: {spec!r}"
    for name, value in spec.items():
        if name not in ("policy", "property"):
            assert of_json_type(name, value), f"built {name}={value!r}"


def policy_fields(spec):
    return {"policy"} | KIND_FIELDS[spec["policy"]]


def property_fields(spec):
    return {"property"} | PROPERTY_KIND_FIELDS[spec.get("property", "loop")]


FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSpecFuzz:
    @FUZZ
    @given(spec=specs(POLICY_FIELDS, policy=st.sampled_from(POLICY_KINDS) | JSON_VALUES))
    def test_a_policy_spec_builds_or_is_a_spec_error(self, spec):
        builds_or_refuses(lambda value: policy_from_spec(value, NETWORK), spec, policy_fields)

    @FUZZ
    @given(spec=specs(OPTION_FIELDS))
    def test_an_options_spec_builds_or_is_a_spec_error(self, spec):
        builds_or_refuses(options_from_spec, spec, lambda _: set(OPTION_FIELDS))

    @FUZZ
    @given(spec=specs(TRANSIENT_FIELDS))
    def test_a_transient_spec_builds_or_is_a_spec_error(self, spec):
        builds_or_refuses(transient_options_from_spec, spec, lambda _: set(TRANSIENT_FIELDS))

    @FUZZ
    @given(spec=specs(PROPERTY_FIELDS))
    def test_a_property_spec_builds_or_is_a_spec_error(self, spec):
        builds_or_refuses(
            lambda value: transient_property_from_spec(value, NETWORK), spec, property_fields
        )

    @settings(FUZZ, max_examples=30)
    @given(
        kind=st.sampled_from(("verify", "transient")),
        policies=st.lists(specs(POLICY_FIELDS), max_size=2) | JSON_VALUES,
        options=specs(OPTION_FIELDS),
        transient=specs(TRANSIENT_FIELDS),
        prop=specs(PROPERTY_FIELDS),
    )
    def test_a_push_is_checked_or_refused(self, kind, policies, options, transient, prop):
        """The push-time check the server runs before queueing a job."""
        payload = {
            "kind": kind, "topology": TOPOLOGY_TEXT, "config": CONFIG_TEXT,
            "policies": policies, "options": options, "transient": transient, "property": prop,
        }
        builds_or_refuses(check_push_fields, payload)
