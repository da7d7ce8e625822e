"""The one result schema: every result class round-trips through its
canonical document, and no field escapes the document or the signature
unnoticed.

``to_dict`` / ``from_dict`` (:func:`repro.modelcheck.trail.document`) are
what the incremental cache stores and what the result signatures hash, so

* ``from_dict(json.loads(json.dumps(to_dict(x)))) == x`` for every class, on
  generated instances (``None`` trails / statistics / reduction, empty and
  multi-entry FIBs in install order, scenario-bearing transient runs) and on
  real verifier output (runs with trails and converged data planes);
* every dataclass field of every result class is in the document or in a
  declared omission, and every document field is in the signature or in
  ``SIGNATURE_EXCLUDED`` — the check that would have caught the signature
  drifting away from the cache codec field by field.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ebgp_rfc7938, ospf_everywhere
from repro.config.builder import edge_prefix, install_loop_inducing_statics
from repro.core.options import PlanktonOptions
from repro.core.results import PecRunResult, TaskFailure, VerificationResult, Violation
from repro.core.verifier import Plankton
from repro.dataplane.fib import DataPlane, Fib, FibEntry
from repro.incremental.cache import (
    decode_data_plane,
    decode_run,
    decode_transient_run,
    encode_data_plane,
    encode_run,
    encode_transient_run,
)
from repro.incremental.service import SIGNATURE_EXCLUDED, result_signature_digest
from repro.modelcheck.explorer import ExplorationStatistics
from repro.modelcheck.por import ReductionStatistics
from repro.modelcheck.trail import Trail, TrailStep
from repro.netaddr import AddressRange, Prefix
from repro.policies import LoopFreedom
from repro.protocols.base import RouteSource
from repro.topology import bgp_fat_tree, fat_tree
from repro.topology.failures import FailureScenario
from repro.transient.explorer import (
    TransientAnalysisResult,
    TransientCampaignResult,
    TransientCampaignRun,
    TransientViolation,
)

# --------------------------------------------------------------------------- strategies
counts = st.integers(min_value=0, max_value=10**9)
texts = st.text(max_size=12)
names = st.text(alphabet="abcdefgh_0123", min_size=1, max_size=6)
seconds = st.floats(min_value=0, max_value=1e6, allow_nan=False)

trail_steps = st.builds(TrailStep, kind=names, description=texts)
trails = st.builds(
    Trail,
    policy=names,
    pec_description=texts,
    steps=st.lists(trail_steps, max_size=4),
    violation_description=texts,
    data_plane_dump=texts,
)
reductions = st.builds(
    ReductionStatistics,
    mode=st.sampled_from(["full", "ample", "sleep", "rpvp"]),
    **{
        field.name: counts
        for field in dataclasses.fields(ReductionStatistics)
        if field.name != "mode"
    },
)
statistics = st.builds(
    ExplorationStatistics,
    elapsed_seconds=seconds,
    truncated=st.booleans(),
    reduction=st.none() | reductions,
    **{
        field.name: counts
        for field in dataclasses.fields(ExplorationStatistics)
        if field.type == "int"
    },
)
failures = st.lists(st.integers(0, 500), max_size=3).map(FailureScenario.of)
prefixes = st.builds(Prefix, st.integers(0, 2**32 - 1), st.integers(0, 32))
fib_entries = st.builds(
    FibEntry,
    prefix=prefixes,
    next_hops=st.lists(names, max_size=3).map(lambda hops: tuple(sorted(hops))),
    source=st.sampled_from(list(RouteSource)),
    delivers_locally=st.booleans(),
    drop=st.booleans(),
    metric=counts,
)
ranges = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)).map(
    lambda pair: AddressRange(min(pair), max(pair))
)
from tests.helpers import entry_for


@st.composite
def data_planes(draw):
    """Planes with empty and multi-entry FIBs; entries go in through
    ``install`` in drawn (unsorted) order, so install order is arbitrary."""
    devices = draw(st.lists(names, max_size=4, unique=True))
    plane = DataPlane(devices, pec_range=draw(st.none() | ranges))
    if draw(st.booleans()):
        plane.annotations["failure"] = draw(texts)
    for device in devices:
        for entry in draw(st.lists(fib_entries, max_size=4)):
            plane.install(device, entry)
    return plane


violations = st.builds(
    Violation,
    policy=names,
    pec_index=counts,
    pec_description=texts,
    failure_description=texts,
    message=texts,
    trail=st.none() | trails,
)
task_failures = st.builds(
    TaskFailure,
    task_id=counts,
    pec_index=counts,
    failure_description=texts,
    kind=st.sampled_from(["exception", "timeout", "crash", "upstream"]),
    message=texts,
    attempts=counts,
    task_kind=st.sampled_from(["verify", "transient"]),
)
pec_runs = st.builds(
    PecRunResult,
    pec_index=counts,
    failure=failures,
    converged_states=counts,
    checked_states=counts,
    suppressed_states=counts,
    violations=st.lists(violations, max_size=2),
    statistics=st.none() | statistics,
)
transient_violations = st.builds(
    TransientViolation,
    property_name=names,
    message=texts,
    depth=counts,
    converged=st.booleans(),
    witness=st.lists(texts, max_size=4).map(tuple),
)


def _behind_prefix(prefix, result):
    """``result`` with ``prefix`` as its root witness: every violation's
    witness begins with it, as the analyzer's do."""
    if result.violations:
        result.witness_prefix = prefix
        result.violations = [
            dataclasses.replace(violation, witness=prefix + violation.witness)
            for violation in result.violations
        ]
    return result


transient_results = st.builds(
    _behind_prefix,
    st.lists(texts, max_size=3).map(tuple),
    st.builds(
        TransientAnalysisResult,
        states_explored=counts,
        converged_states=counts,
        max_depth_reached=counts,
        truncated=st.booleans(),
        elapsed_seconds=seconds,
        violations=st.lists(transient_violations, max_size=2),
        reduction=st.none() | reductions,
    ),
)
transient_runs = st.builds(
    TransientCampaignRun,
    pec_index=counts,
    failure=failures,
    prefix=texts,
    result=transient_results,
    scenario=st.none() | texts,
)
verification_results = st.builds(
    VerificationResult,
    policy_names=st.lists(names, max_size=2),
    pec_runs=st.lists(pec_runs, max_size=2),
    pecs_analyzed=counts,
    failure_scenarios=counts,
    elapsed_seconds=seconds,
    errors=st.lists(task_failures, max_size=2),
)
campaigns = st.builds(
    TransientCampaignResult,
    runs=st.lists(transient_runs, max_size=3),
    failure_scenarios=counts,
    event_scenarios=counts,
    elapsed_seconds=seconds,
    errors=st.lists(task_failures, max_size=2),
)


_TRAIL_DOCUMENT = Trail("loop", "pec", [TrailStep("note", "x")]).to_dict()
_ENTRY_DOCUMENT = FibEntry(Prefix("10.0.0.0/8"), ("r2",)).to_dict()


# --------------------------------------------------------------------------- equality
def _state(value):
    """``value`` with every data plane and FIB replaced by what it holds, so
    ``==`` compares all of it.  ``DataPlane`` / ``Fib`` have no structural
    ``__eq__``, and nothing public shows a FIB's install order (``entries()``
    sorts), so this reads ``_entries`` on purpose."""
    if isinstance(value, Fib):
        return (value.device, list(value._entries.items()))
    if isinstance(value, DataPlane):
        return (value.pec_range, value.annotations, _state(list(value.fibs.items())))
    if isinstance(value, (list, tuple)):
        return [_state(item) for item in value]
    if dataclasses.is_dataclass(value):
        return (
            type(value),
            [(field.name, _state(getattr(value, field.name))) for field in dataclasses.fields(value)],
        )
    return value


def _round_trip(value, encode=None, decode=None):
    document = encode(value) if encode else value.to_dict()
    assert document == value.to_dict()
    wire = json.loads(json.dumps(document, sort_keys=True))
    assert wire == document  # JSON-ready: no tuples, enums or objects left
    rebuilt = decode(wire) if decode else type(value).from_dict(wire)
    assert _state(rebuilt) == _state(value)
    assert rebuilt.to_dict() == document
    return rebuilt


# --------------------------------------------------------------------------- round trips
GENERATED = [
    trail_steps,
    trails,
    reductions,
    statistics,
    failures,
    fib_entries,
    data_planes(),
    violations,
    task_failures,
    pec_runs,
    transient_violations,
    transient_results,
    transient_runs,
    verification_results,
    campaigns,
]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_every_result_class_round_trips_through_its_document(data):
    for strategy in GENERATED:
        value = data.draw(strategy)
        rebuilt = _round_trip(value)
        if dataclasses.is_dataclass(value) and not isinstance(
            value, (PecRunResult, VerificationResult)
        ):
            assert rebuilt == value  # plain dataclass equality, where no plane is inside


@settings(max_examples=25, deadline=None)
@given(pec_runs, data_planes(), transient_runs)
def test_cache_codec_entry_points_are_the_class_documents(run, plane, transient_run):
    """``cache.encode_*`` / ``decode_*`` — the functions ``encode_entry`` /
    ``decode_entry`` call — add nothing to ``to_dict`` / ``from_dict``."""
    _round_trip(run, encode_run, decode_run)
    _round_trip(plane, encode_data_plane, decode_data_plane)
    _round_trip(transient_run, encode_transient_run, decode_transient_run)


@settings(max_examples=25, deadline=None)
@given(data_planes())
def test_fib_documents_keep_install_order_and_lookup_behaviour(plane):
    rebuilt = _round_trip(plane)
    assert rebuilt.devices() == plane.devices()
    assert rebuilt.describe() == plane.describe()
    for device, fib in plane.fibs.items():
        assert _round_trip(fib)._entries == fib._entries
        assert rebuilt.fib(device).entries() == fib.entries()
        for entry in fib.entries():
            assert rebuilt.lookup(device, entry.prefix.network) == plane.lookup(
                device, entry.prefix.network
            )


def test_verifier_output_round_trips_with_trails_and_planes():
    """Real runs: a violating OSPF fabric (trails, data-plane dumps) and an
    eBGP fabric with RPVP reduction ledgers and converged data planes."""
    from repro.core.network_model import DependencyContext

    looping = ospf_everywhere(fat_tree(4))
    install_loop_inducing_statics(
        looping, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
    )
    options = PlanktonOptions(stop_at_first_violation=False)
    violating = Plankton(looping, options).verify(LoopFreedom())
    fabric = Plankton(ebgp_rfc7938(bgp_fat_tree(2)), options)
    holding = fabric.verify(LoopFreedom())
    assert violating.violations and violating.violations[0].trail.steps is not None
    assert any(run.statistics.reduction is not None for run in holding.pec_runs)
    for result in (violating, holding):
        _round_trip(result)
        for run in result.pec_runs:
            _round_trip(run, encode_run, decode_run)
    pec = next(pec for pec in fabric.pecs if pec.has_bgp())
    _, outcomes = fabric.run_pec(
        pec, FailureScenario(), [], DependencyContext(), collect_outcomes=True
    )
    assert outcomes
    for outcome in outcomes:
        _round_trip(outcome.data_plane, encode_data_plane, decode_data_plane)


@pytest.mark.parametrize(
    "cls, document",
    [
        (TrailStep, {"kind": "note"}),  # a missing field
        (TrailStep, {"kind": "note", "description": "x", "extra": 1}),  # an unknown one
        (TrailStep, {"kind": "note", "text": "x"}),  # one of each: same size
        (Trail, {**_TRAIL_DOCUMENT, "steps": None}),
        (Trail, {key: value for key, value in _TRAIL_DOCUMENT.items() if key != "policy"}),
        (Trail, {("rule" if key == "policy" else key): v for key, v in _TRAIL_DOCUMENT.items()}),
        (ReductionStatistics, {"mode": "full"}),  # defaults must not fill the gaps
        (Fib, {"device": "r1"}),
        (DataPlane, {"pec_range": None, "annotations": {}, "fibs": [], "devices": []}),
        (FibEntry, {**_ENTRY_DOCUMENT, "source": "RIP"}),
        (FibEntry, {**_ENTRY_DOCUMENT, "prefix": "10.0.0.0/40"}),
    ],
)
def test_documents_are_strict_about_their_keys_and_values(cls, document):
    """The errors ``decode_entry`` turns into a cache miss."""
    with pytest.raises((AttributeError, LookupError, TypeError, ValueError)):
        cls.from_dict(document)


# --------------------------------------------------------------------------- field coverage
#: Fields deliberately outside the canonical document — exactly these.
OMITTED = {
    # live RPVP states (routes, paths): not JSON; such results are never cached
    (TransientAnalysisResult, "converged_rpvp_states"),
    # the serving layer's cache accounting: cold and warm runs differ in it by design
    (VerificationResult, "incremental"),
    (TransientCampaignResult, "incremental"),
}

#: Instance attributes of the hand-written classes (Fib, DataPlane: every
#: attribute counts as a declared field) that are derived state — exactly these.
DERIVED = {
    # whether sibling planes hold this very object: about the object graph, not the table
    (Fib, "shared"),
    # address -> longest-prefix match of a shared table, recomputable from the entries
    (Fib, "lookup_memo"),
    # a derived plane's base plane and the devices whose tables differ from it:
    # how the plane was built, not what it forwards (an install forgets both)
    (DataPlane, "base"),
    (DataPlane, "changed"),
    # address -> the plane's forwarding order, recomputable from the tables
    (DataPlane, "forwarding_orders"),
}

_FAILURE = TaskFailure(3, 1, "no failures", "crash", "worker 4242 died", 2)
_REDUCTION = ReductionStatistics(mode="ample", rank_immune_sessions=5)
_STATISTICS = ExplorationStatistics(states_expanded=9, state_bytes=64, reduction=_REDUCTION)
_TRAIL = Trail("loop", "pec", [TrailStep("note", "x")], "looped", "dump")
_VIOLATION = Violation("loop", 1, "pec", "no failures", "a->b->a", _TRAIL)
_PLANE = DataPlane(["r1"], AddressRange(0, 255))
_PLANE.install("r1", FibEntry(Prefix("10.0.0.0/8"), ("r2",)))
_PLANE.fib("r1").share()
assert _PLANE.lookup("r1", Prefix("10.0.0.0/8").first) is not None  # fills the memo
_RUN = PecRunResult(1, FailureScenario((2,)), 1, 1, 0, [_VIOLATION], _STATISTICS)
_TRANSIENT_VIOLATION = TransientViolation("loop", "micro-loop", 3, False, ("deliver a->b",))
_TRANSIENT_RESULT = TransientAnalysisResult(
    states_explored=7, violations=[_TRANSIENT_VIOLATION], reduction=_REDUCTION
)
_TRANSIENT_RUN = TransientCampaignRun(
    1, FailureScenario(()), "10.0.0.0/8", _TRANSIENT_RESULT, "crash:m"
)
SAMPLES = [
    _TRAIL.steps[0],
    _TRAIL,
    _REDUCTION,
    _STATISTICS,
    _RUN.failure,
    entry_for(_PLANE.fib("r1"), Prefix("10.0.0.0/8")),
    _PLANE.fib("r1"),
    _PLANE,
    _VIOLATION,
    _FAILURE,
    _RUN,
    _TRANSIENT_VIOLATION,
    _TRANSIENT_RESULT,
    _TRANSIENT_RUN,
    VerificationResult(["loop"], [_RUN], errors=[_FAILURE]),
    TransientCampaignResult([_TRANSIENT_RUN], 1, 2, errors=[_FAILURE]),
]


def _declared_fields(sample):
    if dataclasses.is_dataclass(sample):
        return [field.name for field in dataclasses.fields(sample)]
    return [name.lstrip("_") for name in vars(sample)]  # Fib, DataPlane


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda sample: type(sample).__name__)
def test_no_field_escapes_the_document_or_the_signature(sample):
    cls = type(sample)
    document = sample.to_dict()
    signature = sample.to_dict(SIGNATURE_EXCLUDED)
    declared = _declared_fields(sample)
    assert set(document) <= set(declared)
    for name in declared:
        if (cls, name) in OMITTED:
            assert name not in document
            continue
        if (cls, name) in DERIVED:
            assert name not in document and name not in signature
            continue
        assert name in document, f"{cls.__name__}.{name} is not in the canonical document"
        excluded = bool({name, f"{cls.__name__}.{name}"} & SIGNATURE_EXCLUDED)
        assert (name in signature) != excluded, (
            f"{cls.__name__}.{name} is neither hashed by the signature nor "
            "declared in SIGNATURE_EXCLUDED"
        )


def test_omissions_and_exclusions_name_real_fields():
    for cls, name in OMITTED:
        assert name in {field.name for field in dataclasses.fields(cls)}
    known = {type(sample).__name__: _declared_fields(sample) for sample in SAMPLES}
    for cls, name in DERIVED:
        assert name in known[cls.__name__]
    for entry in SIGNATURE_EXCLUDED:
        owner, _, name = entry.rpartition(".")
        owners = [owner] if owner else list(known)
        assert any(name in known[candidate] for candidate in owners), entry


# --------------------------------------------------------------------------- signature drift
def _digest_after(result, mutate):
    changed = type(result).from_dict(result.to_dict())
    mutate(changed)
    return result_signature_digest(changed)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda result: setattr(result.pec_runs[0].statistics.reduction, "rank_immune_sessions", 6),
        lambda result: setattr(result.pec_runs[0].statistics, "state_bytes", 65),
        lambda result: setattr(result.pec_runs[0].violations[0].trail, "data_plane_dump", "other"),
        lambda result: result.pec_runs[0].violations.clear(),
        lambda result: setattr(result, "pecs_analyzed", 2),
    ],
    ids=["rank_immune_sessions", "state_bytes", "trail-plane-dump", "run.violations", "pecs_analyzed"],
)
def test_verification_digest_covers_fields_the_old_signature_dropped(mutate):
    result = SAMPLES[-2]
    assert _digest_after(result, lambda unchanged: None) == result_signature_digest(result)
    assert _digest_after(result, mutate) != result_signature_digest(result)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda campaign: setattr(campaign.runs[0], "scenario", "drain:a"),
        lambda campaign: setattr(campaign, "event_scenarios", 3),
        lambda campaign: campaign.runs[0].result.violations.clear(),
        lambda campaign: campaign.errors.clear(),
        lambda campaign: setattr(campaign.errors[0], "kind", "timeout"),
    ],
    ids=["run.scenario", "event_scenarios", "run.violations", "errors", "errors.kind"],
)
def test_campaign_digest_covers_scenarios_and_errors(mutate):
    campaign = SAMPLES[-1]
    assert _digest_after(campaign, lambda unchanged: None) == result_signature_digest(campaign)
    assert _digest_after(campaign, mutate) != result_signature_digest(campaign)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda result: setattr(result, "elapsed_seconds", 9.0),
        lambda result: setattr(result.pec_runs[0].statistics, "elapsed_seconds", 9.0),
        lambda result: setattr(result.errors[0], "message", "worker 4243 died"),
        lambda result: setattr(result.errors[0], "attempts", 3),
        lambda result: setattr(result, "incremental", object()),
    ],
    ids=["elapsed", "run-elapsed", "failure-message", "failure-attempts", "incremental"],
)
def test_digest_ignores_exactly_the_declared_exclusions(mutate):
    result = SAMPLES[-2]
    assert _digest_after(result, mutate) == result_signature_digest(result)
