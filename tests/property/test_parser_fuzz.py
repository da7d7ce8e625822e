"""Fuzz the ``.topo`` / ``.cfg`` parsers over mutated real inputs.

Whatever a file holds, :func:`~repro.topology.io.parse_topology`,
:func:`~repro.topology.io.topology_from_dict` (a ``.json`` topology, or a
push's topology object) and :func:`~repro.config.parser.parse_config` either
return or raise :class:`~repro.exceptions.ReproError`.  Through ``repro.cli.main`` a file a
parser refuses is exit 2 with ``error: bad topology: ...`` or ``error: bad
config: ...`` on stderr, and a file it takes is verified: never a
traceback.

The draws start from real inputs - the campus example's two files, and a
small network whose configuration uses every construct of the grammar -
and apply one to three mutations: drop a line, swap two tokens of a line,
cut a token short, put a token of the input or a keyword of either grammar
in a token's place, duplicate or swap lines, truncate the text.  A topology
document gets any JSON value in place of one of its fields.

Each counterexample the fuzz or a reading of the parsers found is a named
regression test below.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_ERROR, main
from repro.config.parser import parse_config
from repro.exceptions import ReproError
from repro.topology.io import format_topology, parse_topology, topology_from_dict

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "configs"
CAMPUS_TOPOLOGY = (EXAMPLES / "campus.topo").read_text()
CAMPUS_CONFIG = (EXAMPLES / "campus.cfg").read_text()

#: A square of two eBGP edges over an OSPF core, every construct in use.
SQUARE_TOPOLOGY = """\
topology square  # a comment
node e1 role edge loopback 10.255.0.1
node c1 role core loopback 10.255.0.2/32 rack 3
node c2 role core loopback 10.255.0.3/32
node e2 role edge pod x
link e1 c1 weight 10
link c1 c2 weight 5 weight-back 7
link c2 e2
link e1 c2 weight 20
"""

SQUARE_CONFIG = """\
device e1
  bgp 65001
    network 192.168.0.0/16
    neighbor c1 remote-as 65000 import-map FROM_CORE export-map TO_CORE
    neighbor c2 remote-as 65000
    multipath
  static 172.16.0.0/12 next-hop-ip 10.255.0.2 distance 5
  static 172.17.0.0/16 drop
  prefix-list OWN permit 192.168.0.0/16 le 24
  prefix-list OWN deny 0.0.0.0/0 ge 8 le 32
  route-map TO_CORE permit 10
    match prefix-list OWN
    set community 65001:1
  route-map TO_CORE deny 20
  route-map FROM_CORE permit 10
    match prefix 10.0.0.0/8
    match community 65002:1
    set local-preference 200
    set med 5
    set prepend 2
device c1
  ospf
    network 10.255.0.2/32
    interface c2 cost 3 passive
    redistribute static
  bgp 65000
    neighbor e1 remote-as 65001
    neighbor c2 remote-as 65000 route-reflector-client
  static 10.9.0.0/24 next-hop c2
device c2
  ospf
    network 10.255.0.3/32
  bgp 65000
    neighbor e1 remote-as 65001
    neighbor e2 remote-as 65002
    neighbor c1 remote-as 65000
device e2
  bgp 65002
    network 10.2.0.0/24
    neighbor c2 remote-as 65000
"""

SQUARE_DOCUMENT = {
    "name": "square",
    "nodes": [
        {"name": "e1", "role": "edge", "loopback": "10.255.0.1/32"},
        {"name": "c1", "role": "core", "loopback": "10.255.0.2/32", "attributes": {"rack": 3}},
        {"name": "c2", "role": "core", "loopback": "10.255.0.3/32"},
        {"name": "e2", "role": "edge", "attributes": {"pod": "x"}},
    ],
    "links": [
        {"a": "e1", "b": "c1", "weight": 10},
        {"a": "c1", "b": "c2", "weight": 5, "weight_back": 7},
        {"a": "c2", "b": "e2"},
        {"a": "e1", "b": "c2", "weight": 20},
    ],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

INPUTS = {
    "campus": (CAMPUS_TOPOLOGY, CAMPUS_CONFIG),
    "square": (SQUARE_TOPOLOGY, SQUARE_CONFIG),
}

KEYWORDS = (
    # .topo
    "topology", "node", "link", "role", "loopback", "weight", "weight-back",
    # .cfg
    "device", "ospf", "bgp", "static", "prefix-list", "route-map", "network",
    "redistribute", "interface", "cost", "passive", "neighbor", "remote-as",
    "import-map", "export-map", "route-reflector-client", "next-hop-self",
    "multipath", "next-hop", "next-hop-ip", "drop", "distance", "permit",
    "deny", "ge", "le", "match", "set", "prefix", "community",
    "local-preference", "med", "prepend", "metric",
    # values
    "0", "-1", "33", "99999999999", "x", "#", "0.0.0.0/0", "10.0.0.0/33", "1.2.3",
)


def _mutated(data, text):
    """``text`` after one to three drawn mutations."""
    pool = sorted(set(text.split())) + list(KEYWORDS)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        lines = text.splitlines()
        kind = data.draw(
            st.sampled_from(["drop", "swap", "cut", "replace", "duplicate", "reorder", "truncate"]),
            label="kind",
        )
        if kind == "truncate" or not lines:
            text = text[: data.draw(st.integers(0, len(text)), label="length")]
            continue
        index = data.draw(st.integers(0, len(lines) - 1), label="line")
        line = lines[index]
        indent, tokens = line[: len(line) - len(line.lstrip())], line.split()
        if kind == "drop":
            del lines[index]
        elif kind == "duplicate":
            lines.insert(data.draw(st.integers(0, len(lines)), label="at"), line)
        elif kind == "reorder":
            other = data.draw(st.integers(0, len(lines) - 1), label="other")
            lines[index], lines[other] = lines[other], line
        elif tokens:
            at = data.draw(st.integers(0, len(tokens) - 1), label="token")
            if kind == "swap":
                other = data.draw(st.integers(0, len(tokens) - 1), label="other")
                tokens[at], tokens[other] = tokens[other], tokens[at]
            elif kind == "cut":
                cut = data.draw(st.integers(0, len(tokens[at])), label="cut")
                tokens[at] = tokens[at][:cut]
            else:
                tokens[at] = data.draw(st.sampled_from(pool), label="replacement")
            lines[index] = indent + " ".join(tokens)
        text = "\n".join(lines) + "\n"
    return text


def _refusal(parse):
    """The parser's ReproError, or None when it takes the input; anything
    else propagates and fails the test."""
    try:
        parse()
    except ReproError as exc:
        return exc
    return None


def _run_cli(topology_text, config_text, topology_name="net.topo"):
    """``repro verify --policy loop`` on the two texts: (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as workspace:
        topology, config = Path(workspace) / topology_name, Path(workspace) / "net.cfg"
        topology.write_text(topology_text)
        config.write_text(config_text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(
                ["verify", "--topology", str(topology), "--config", str(config), "--policy", "loop"]
            )
    return code, stderr.getvalue()


# --------------------------------------------------------------------------- the parsers
class TestParsersRefuseOnlyWithReproError:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_topologies(self, data):
        topology_text, _config = INPUTS[data.draw(st.sampled_from(sorted(INPUTS)), label="input")]
        text = _mutated(data, topology_text)
        _refusal(lambda: parse_topology(text))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_configurations(self, data):
        topology_text, config_text = INPUTS[data.draw(st.sampled_from(sorted(INPUTS)), label="input")]
        topology = parse_topology(topology_text)
        text = _mutated(data, config_text)
        _refusal(lambda: parse_config(topology, text))


def _mutated_document(data):
    """The square's topology document with one field - of the document, a
    node or a link - replaced by any JSON value, or removed."""
    document = copy.deepcopy(SQUARE_DOCUMENT)
    kind = data.draw(st.sampled_from(["document", "nodes", "links"]), label="where")
    target = document if kind == "document" else data.draw(st.sampled_from(document[kind]))
    key = data.draw(
        st.sampled_from(sorted({*target, "attributes", "weight_back", "loopback"})) | st.text(max_size=6),
        label="field",
    )
    if data.draw(st.booleans(), label="remove"):
        target.pop(key, None)
    else:
        target[key] = data.draw(JSON_VALUES, label="value")
    return document


class TestTopologyDocumentsRefuseOnlyWithReproError:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_value_in_any_field(self, data):
        document = _mutated_document(data)
        _refusal(lambda: topology_from_dict(document))

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_through_the_cli(self, data):
        document = _mutated_document(data)
        refused = _refusal(lambda: topology_from_dict(document))
        code, stderr = _run_cli(json.dumps(document), SQUARE_CONFIG, topology_name="net.json")
        assert "Traceback" not in stderr
        last = stderr.splitlines()[-1] if stderr else ""
        if refused is not None:
            assert (code, last) == (EXIT_ERROR, f"error: bad topology: {refused}")


# --------------------------------------------------------------------------- the CLI
class TestCliRefusesWithOneMessage:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_mutated_file_is_refused_or_verified(self, data):
        name = data.draw(st.sampled_from(sorted(INPUTS)), label="input")
        topology_text, config_text = INPUTS[name]
        if data.draw(st.booleans(), label="mutate the topology"):
            topology_text = _mutated(data, topology_text)
        else:
            config_text = _mutated(data, config_text)
        refused = _refusal(lambda: parse_topology(topology_text))
        what = "topology"
        if refused is None:
            topology = parse_topology(topology_text)
            refused, what = _refusal(lambda: parse_config(topology, config_text)), "config"
        code, stderr = _run_cli(topology_text, config_text)
        assert "Traceback" not in stderr
        # A warning the parser logged on the way may come first.
        last = stderr.splitlines()[-1] if stderr else ""
        if refused is not None:
            assert (code, last) == (EXIT_ERROR, f"error: bad {what}: {refused}")
        else:
            assert not last.startswith("error: bad ")


# --------------------------------------------------------------------------- regressions
class TestRegressions:
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"links": [{"a": "r1", "b": "r2", "weight": "w"}]}', "malformed topology document"),
            ('{"links": [{"a": "r1", "b": "r2", "weight": 1e999}]}', "malformed topology document"),
            ('{"nodes": [{"name": "r1", "attributes": [1]}]}', "malformed topology document"),
            ('{"nodes": 5}', "malformed topology document"),
            ("[1]", "malformed topology document"),
            ("{", "not a JSON document"),
        ],
        ids=["weight-text", "weight-infinite", "attributes-list", "nodes-number", "list", "not-json"],
    )
    def test_a_malformed_topology_document_is_refused(self, text, message):
        """These raised ``ValueError``, ``OverflowError``, ``TypeError`` or
        ``AttributeError`` through ``load_topology``: a traceback from the
        CLI, a dropped connection from a push."""
        code, stderr = _run_cli(text, "device r1\n  ospf\n", topology_name="net.json")
        assert code == EXIT_ERROR
        assert stderr.startswith(f"error: bad topology: {message}")

    @pytest.mark.parametrize("attribute", ["name", "self"])
    def test_a_node_attribute_may_share_a_keyword_parameters_name(self, attribute):
        """``node r1 name x`` raised ``TypeError: add_node() got multiple
        values for argument 'name'``: the attributes went to
        ``Topology.add_node`` as keywords.  An attribute is data, in a
        topology document too."""
        topology = parse_topology(f"node r1 {attribute} x rack 2\nnode r2\nlink r1 r2\n")
        assert topology.node("r1").attributes == {attribute: "x", "rack": 2}
        assert parse_topology(format_topology(topology)).node("r1").attributes == {
            attribute: "x",
            "rack": 2,
        }
        document = {"nodes": [{"name": "r1", "attributes": {attribute: "x"}}]}
        assert topology_from_dict(document).node("r1").attributes == {attribute: "x"}
        code, stderr = _run_cli(
            f"node r1 {attribute} x\nnode r2\nlink r1 r2\n",
            "device r1\n  ospf\n    network 10.0.1.0/24\ndevice r2\n  ospf\n",
        )
        assert (code, stderr) == (0, "")
