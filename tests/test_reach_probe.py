"""The reach probe (``tests/tools/reach.py``) and its allow-list.

The probe itself runs in a non-gating CI job over the benchmarks, the
examples, the campus CLI calls and the traced benchmark workloads.  Here:
the allow-list names only live definitions, each with a known reason, and
the recorder sees a forked child (which ends through ``os._exit``) and a
thread as well as the parent.
"""

import sys

import pytest

from tests.tools import reach


def test_every_allow_list_row_names_a_definition_and_a_known_reason():
    defined, allow = reach.definitions(), reach.read_allow_list()
    assert allow
    assert reach.problems(defined, defined, allow) == []


def test_the_recorder_sees_forked_children_and_threads(tmp_path):
    program = "\n".join([
        "import os, threading",
        "from repro.netaddr import int_to_ip, ip_to_int",
        "from repro.netaddr.prefix import Prefix",
        "thread = threading.Thread(target=int_to_ip, args=(1,))",
        "thread.start(); thread.join()",
        "pid = os.fork()",
        "if pid == 0:",
        "    ip_to_int('10.0.0.1')",
        "    os._exit(0)",
        "os.waitpid(pid, 0)",
        "Prefix('10.0.0.0/8')",
    ])
    assert reach.record(tmp_path, [sys.executable, "-c", program]) == 0
    hits = reach.reached(tmp_path)
    assert ("repro.netaddr.address", "int_to_ip") in hits
    assert ("repro.netaddr.address", "ip_to_int") in hits
    assert ("repro.netaddr.prefix", "Prefix.__init__") in hits


def _allow(tmp_path, text):
    path = tmp_path / "allow.txt"
    path.write_text(text)
    return path


def test_allow_list_rows_skip_comments_and_blank_lines(tmp_path):
    path = _allow(tmp_path, "# heading\n\nrepro.a:f  fault-path  a note  # trailing\n")
    assert reach.read_allow_list(path) == {("repro.a", "f"): "fault-path"}


@pytest.mark.parametrize("row", ["repro.a:f  fault-path", "repro.a.f  fault-path  a note"])
def test_a_malformed_allow_list_row_names_its_line(tmp_path, row):
    path = _allow(tmp_path, "# heading\n" + row + "\n")
    with pytest.raises(ValueError, match="allow.txt:2"):
        reach.read_allow_list(path)


def test_an_allow_list_row_may_appear_once(tmp_path):
    path = _allow(tmp_path, "repro.a:f  fault-path  one\nrepro.a:f  abstract  two\n")
    with pytest.raises(ValueError, match="listed twice"):
        reach.read_allow_list(path)


def test_an_unreached_definition_without_a_row_is_a_problem():
    defined = {("repro.a", "f"), ("repro.a", "g")}
    assert reach.problems(defined, {("repro.a", "f")}, {}) == [
        "unreached, no allow-list row: repro.a:g"]
    assert reach.problems(defined, {("repro.a", "f")}, {("repro.a", "g"): "abstract"}) == []


def test_a_row_for_a_deleted_definition_is_a_problem():
    found = reach.problems({("repro.a", "f")}, {("repro.a", "f")}, {("repro.a", "gone"): "abstract"})
    assert found == ["allow-list row names no definition: repro.a:gone"]


def test_a_row_with_an_unknown_reason_is_a_problem():
    found = reach.problems({("repro.a", "f")}, set(), {("repro.a", "f"): "convenience"})
    assert found == ["allow-list row has no known reason: repro.a:f 'convenience'"]


def test_definitions_are_named_as_the_recorder_names_code_objects():
    defined = reach.definitions()
    assert ("repro.netaddr.prefix", "Prefix.contains_address") in defined
    assert ("repro.netaddr.address", "ip_to_int") in defined
    # A nested function carries its enclosing function's <locals>, like co_qualname.
    assert ("repro.incremental.cache", "ResultCache.load.<locals>.cold") in defined
    # A package's code is named after the package, not its __init__.
    package = reach.SRC.resolve() / "repro" / "transient"
    assert reach._module(package / "__init__.py") == "repro.transient"
    assert reach._module(package / "explorer.py") == "repro.transient.explorer"


def test_every_recorded_function_of_a_module_is_a_definition(tmp_path):
    program = "\n".join([
        "from repro.netaddr import Prefix",
        "sorted([Prefix('10.0.0.0/8'), Prefix('10.0.0.0/16')])",
        "str(Prefix('10.0.0.0/8').to_range())",
    ])
    assert reach.record(tmp_path, [sys.executable, "-c", program]) == 0
    hits = reach.reached(tmp_path)
    assert ("repro.netaddr.prefix", "Prefix.__lt__") in hits
    assert ("repro.netaddr.prefix", "AddressRange.__str__") in hits
    # Beside module and class bodies, every code object recorded in the
    # module is a definition the check knows by the same name.
    bodies = {("repro.netaddr.prefix", name) for name in ("<module>", "Prefix", "AddressRange")}
    recorded = {hit for hit in hits if hit[0] == "repro.netaddr.prefix"} - bodies
    assert recorded and recorded <= reach.definitions()


def test_campus_commands_read_the_shipped_campus_network(tmp_path):
    local = reach.campus_commands(tmp_path)
    remote = reach.campus_commands(tmp_path, "http://127.0.0.1:1")
    for argv in local + remote:
        assert argv[1:3] == ["-m", "repro"]
        for flag in ("--topology", "--config"):
            if flag in argv:
                assert (reach.ROOT / argv[argv.index(flag) + 1]).is_file()
    assert all("--server" in argv for argv in remote)
    assert not any("--server" in argv for argv in local)
    # The edited copy adds one advertised network to the campus config.
    assert "network 10.3.0.0/24" in (tmp_path / "edited.cfg").read_text()
