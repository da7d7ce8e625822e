"""Tooling pin: one model of each protocol in the package.

The SPVP reference simulator, the fork-a-simulator explorer, the unreduced
scenario enumeration and the object-keyed hashing path that existed only to
serve them live in ``tests/oracles/`` (or nowhere).  A change that re-grows
a second model inside ``src/repro`` — or makes the package reach into the
test tree for one — fails here.  The source scan uses :mod:`ast`, so the
docstrings that say where the references went do not count.

One state representation: RPVP and SPVP states are one id-array kernel
(``repro.protocols.interning.IdArrayState``) over one intern table per node
set, so the package holds one ``fingerprint`` and constructs
``RouteInternTable`` in one place.  SPVP transfers are memoised once, by
id, on the instance's slot layout (``repro.protocols.spvp._SpvpSpace``).

The package is what ``repro`` runs: every module under ``src/repro`` is
reached by the static import graph from the CLI, the client or the public
API.  The paper's comparison baselines (Minesweeper, ARC, Bonsai, the
Figure 2 SAT encoding) live in ``tests/oracles/`` beside the other models the
package is compared against.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"

GONE = {
    "ReferenceSpvpSimulator",
    "NaiveTransientAnalyzer",
    "apply_to_simulator",
    "brute_event_scenarios",
    "StateInterner",
    "queue_component",
    "fingerprint_of",
    "_slot_values",
    # One memo layer for SPVP transfers: the id-keyed memos on the
    # instance's slot layout, not a route-keyed layer beneath them.
    "cached_export",
    "cached_import",
    # One refinement for the LEC reduction: the splitter refinement from the
    # topology's cached equitable partition, not full colour-refinement rounds.
    "_refine",
    # One channel-set representation for SPVP: masks over the instance's
    # channel index (the receiver's in-mask is the dependence relation), not
    # a per-pair predicate and per-receiver channel tuples.  ``dependent``,
    # the predicate's negation, names PEC dependencies elsewhere in the
    # package, so it is pinned on the class below instead.
    "independent",
    "in_channels",
    "in_peers",
    # One BFS frontier and one witness form.
    "minimize_witness",
    "FRONTIER_MODES",
    "sleep_fallbacks",
    "use_priority",
    # One field list per config construct: the config dataclasses.  The
    # delta and the PEC slices compare and embed their values, route-map
    # evaluation and slicing share one prefix-condition test, and the
    # fields nothing set or read are gone.
    "_route_map_signature",
    "_prefix_list_signature",
    "_session_signature",
    "_ospf_signature",
    "_static_signature",
    "process_fields",
    "_clause_token",
    "_clause_can_match",
    "reference_bandwidth",
    "process_id",
    "external_metric",
    "router_id",
    # The SPVP independence relation is the slot layout's receiver masks.
    "ChannelIndependence",
    # One cold entry for both request kinds: ``Plankton.verify`` and
    # ``Plankton.verify_transients``; converged planes reach callers from
    # ``run_pec``'s outcomes and the engine's task results only.
    "campaign_request",
    "analyze_pec_transients_over_failures",
    "keep_data_planes",
    # One scenario grammar: every scenario is built from descriptors, and a
    # session flap is one ``FailSession`` wherever it is spelled.
    "FlapStorm",
    "maintenance_window",
    "converge_first",
    "converge_steps",
    # The knobs no caller set: the backend follows from ``cores``, and the
    # policy and BGP switches keep only their default behaviour.
    "BACKEND_CHOICES",
    "backend",
    "deterministic_tiebreak",
    "only_delivered_branches",
    "forbid_transit",
    "compare_suffix_only",
    "final_node",
}


def _identifiers(node):
    """Every name a node defines, imports, reads or reaches by attribute."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        yield node.name
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield alias.name.rpartition(".")[2]
            if alias.asname:
                yield alias.asname


def _package_trees():
    for path in sorted(SOURCE.rglob("*.py")):
        yield path.relative_to(SOURCE).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def test_the_package_holds_no_reference_model_and_imports_no_tests():
    regrown, test_imports = [], []
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            regrown.extend(
                f"{module}:{name}" for name in _identifiers(node) if name in GONE
            )
            imported = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module or ""]
            test_imports.extend(
                f"{module}:{name}"
                for name in imported
                if name == "tests" or name.startswith("tests.")
            )
    assert regrown == []
    assert test_imports == []


@pytest.mark.parametrize(
    "module",
    [
        "repro.protocols",
        "repro.protocols.spvp",
        "repro.transient",
        "repro.scenarios",
        "repro.modelcheck",
        "repro.modelcheck.hashing",
        "repro.modelcheck.por",
        "repro.incremental",
    ],
)
def test_public_namespaces_do_not_expose_the_moved_names(module):
    namespace = importlib.import_module(module)
    exposed = GONE & (set(vars(namespace)) | set(getattr(namespace, "__all__", ())))
    assert exposed == set()


def test_plankton_is_the_one_cold_entry():
    for module in ("repro", "repro.core"):
        namespace = importlib.import_module(module)
        assert "verify" not in namespace.__all__
        assert not hasattr(namespace, "verify")
    transient = importlib.import_module("repro.transient")
    assert "analyze_pec_transients_over_failures" not in transient.__all__
    assert not hasattr(transient, "analyze_pec_transients_over_failures")


def test_the_witness_minimiser_is_gone():
    assert importlib.util.find_spec("repro.transient.witness") is None


@pytest.mark.parametrize(
    "target, args, keyword",
    [
        ("repro.core.options:PlanktonOptions", (), "backend"),
        ("repro.policies:Waypoint", (["a"], ["b"]), "only_delivered_branches"),
        ("repro.policies:Segmentation", (["a"], ["b"]), "forbid_transit"),
        ("repro.policies:PathConsistency", (["a", "b"],), "compare_suffix_only"),
        ("repro.protocols.bgp:BgpInstance", (None, None), "deterministic_tiebreak"),
    ],
    ids=["backend", "only_delivered_branches", "forbid_transit", "compare_suffix_only",
         "deterministic_tiebreak"],
)
def test_a_removed_keyword_is_refused(target, args, keyword):
    module, _, name = target.partition(":")
    with pytest.raises(TypeError, match=keyword):
        getattr(importlib.import_module(module), name)(*args, **{keyword: True})


def test_the_definitions_only_removed_knobs_read_are_gone():
    from repro.dataplane.fib import DataPlane
    from repro.dataplane.forwarding import PathResult
    from repro.protocols.base import Route

    assert not hasattr(Route, "next_hop")
    assert not hasattr(PathResult, "final_node")
    assert not hasattr(DataPlane, "delivers_locally")


def test_policies_state_their_destination_scope_once():
    """One ``applies_to`` (on ``Policy``) reads every policy's
    ``destination_prefix``."""
    defined = [
        module
        for module, tree in _package_trees()
        if module.startswith("policies/")
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "applies_to"
    ]
    assert defined == ["policies/base.py"]


def test_channel_independence_is_the_receiver_in_mask():
    from repro.protocols.spvp import space_for
    from tests.test_rpvp_spvp import good_gadget

    space = space_for(good_gadget())
    gone = {"independent", "dependent", "in_channels", "in_peers"}
    assert gone & set(dir(space)) == set()
    for receiver, mask in space.in_mask.items():
        into = {channel for channel, bit in space.channel_bit.items() if mask & bit}
        assert into == {channel for channel in space.channels if channel[1] == receiver}


def test_one_state_representation():
    fingerprints, table_sites = [], []
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "fingerprint":
                fingerprints.append(module)
            elif isinstance(node, ast.Call) and "RouteInternTable" in _identifiers(node.func):
                table_sites.append(module)
    assert fingerprints == ["protocols/interning.py"]
    assert table_sites == ["protocols/interning.py"]


def test_a_loop_check_builds_the_references_and_the_fib_misses_only(monkeypatch):
    """One model of a converged BGP state: its route ids.  Loop freedom on
    the eBGP k=4 fabric under <= 1 failure builds a data plane for each
    task's first converged state (the reference the others are laid
    against) and for each state that changed a device to routes no earlier
    plane of its task built a FIB for; a counted pin, never a clock."""
    from repro import Plankton, PlanktonOptions
    from repro.config import ebgp_rfc7938
    from repro.core.network_model import PecExplorer, _rows
    from repro.policies import LoopFreedom
    from repro.topology import bgp_fat_tree

    calls = {"reference": 0, "miss": 0, "other": 0}
    build = PecExplorer.build_data_plane

    def counted(explorer, bgp_states=None):
        reference = explorer._reference
        if reference is None:
            calls["reference"] += 1
        else:
            rows = _rows(list(bgp_states.values()))
            keys = [(slot, row) for slot, row in enumerate(rows) if row != reference.rows[slot]]
            calls["miss" if any(key not in reference.interned for key in keys) else "other"] += 1
        return build(explorer, bgp_states)

    monkeypatch.setattr(PecExplorer, "build_data_plane", counted)
    plankton = Plankton(ebgp_rfc7938(bgp_fat_tree(4)), PlanktonOptions(max_failures=1))
    result = plankton.verify(LoopFreedom())
    assert result.holds and result.complete
    converged = sum(run.converged_states for run in result.pec_runs)
    assert calls["reference"] == len(result.pec_runs)  # one per task
    assert calls["other"] == 0
    assert 0 < calls["miss"] and calls["reference"] + calls["miss"] < converged / 10


#: Where a user enters the package: the ``repro`` command (its handlers
#: import what they run inside the function) and the thin client.  The
#: public API, ``repro``'s ``_ORIGINS``, is added to these below.
ENTRY_POINTS = ("repro.__main__", "repro.cli", "repro.client")


def _package_modules():
    """Dotted module name -> parsed source, for every module of the package."""
    modules = {}
    for path in sorted(SOURCE.rglob("*.py")):
        parts = ("repro",) + path.relative_to(SOURCE).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        modules[name] = ast.parse(path.read_text(encoding="utf-8"))
    return modules


def _lazy_origins(tree):
    """A lazy package's ``_ORIGINS``: public name -> the module defining it."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_ORIGINS" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            return {k.value: v.value for k, v in zip(node.value.keys, node.value.values)}
    return {}


def _imported_modules(tree, modules, origins):
    """Every module of the package a module's source imports, at any depth
    (function bodies included).  A name taken from a lazy package counts as
    an import of the module its ``_ORIGINS`` entry names.  The package uses
    absolute imports only; a relative one resolves to nothing here, so the
    module it names shows up as unreached."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            base = node.module
            targets = [base] + [
                f"{base}.{alias.name}"
                if f"{base}.{alias.name}" in modules
                else origins.get(base, {}).get(alias.name, base)
                for alias in node.names
            ]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            # Importing a.b.c runs the packages a and a.b first.
            for i in range(1, len(parts) + 1):
                prefix = ".".join(parts[:i])
                if prefix in modules:
                    yield prefix


def test_the_package_is_what_repro_runs():
    modules = _package_modules()
    origins = {name: _lazy_origins(tree) for name, tree in modules.items()}
    reached = set()
    pending = [*ENTRY_POINTS, "repro", *origins["repro"].values()]
    while pending:
        module = pending.pop()
        if module not in reached:
            reached.add(module)
            pending.extend(_imported_modules(modules[module], modules, origins))
    assert sorted(set(modules) - reached) == []


def test_the_baselines_package_is_the_simulator():
    baselines = importlib.import_module("repro.baselines")
    assert baselines.__all__ == ["SimulationVerifier", "SimulationResult"]
