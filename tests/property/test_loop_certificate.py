"""``find_cycle`` == the full forwarding-graph DFS.

A plane derived from a base (``DataPlane.base``, ``DataPlane.changed``) is
certified loop-free by the base's forwarding order when every next hop of
every changed device ranks lower than the device; otherwise ``find_cycle``
falls back to ``ForwardingGraph(plane, address).has_cycle()``.  The oracle
is that DFS on a base-less copy of the plane, over random bases of up to 12
devices — ECMP, drops, local delivery, black holes, next hops that are not
devices, bases that loop — and several derived planes per base that reuse
one interned ``Fib`` per (device, entry), as the planes of one task do.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane import DataPlane, Fib, FibEntry, ForwardingGraph, find_cycle
from repro.netaddr import Prefix

PREFIX = Prefix("10.0.0.0/24")
COVERING = Prefix("10.0.0.0/16")
OTHER = Prefix("10.1.0.0/24")
ADDRESS = PREFIX.first
OUTSIDE = ("x0", "x1")  # next hops that are not devices of the plane


def _devices(count):
    return [f"d{index}" for index in range(count)]


def _members(items, mask):
    return [item for bit, item in enumerate(items) if mask >> bit & 1]


def _entries(devices):
    """What one device may hold: nothing for the address, a delivering, a
    dropping or an unresolved entry, or next hops (one, or ECMP) — under the
    PEC's prefix, a covering one or a prefix that does not match.  One
    integer per entry keeps a draw cheap."""
    targets = [*devices, *OUTSIDE]

    def entry(code):
        kind, code = code % 5, code // 5
        prefix, mask = (PREFIX, PREFIX, COVERING, OTHER)[code % 4], code // 4
        if kind == 0:
            return None
        if kind == 1:
            return FibEntry(prefix=prefix, delivers_locally=True)
        if kind == 2:
            return FibEntry(prefix=prefix, drop=True)
        return FibEntry(prefix=prefix, next_hops=tuple(sorted(_members(targets, mask))))

    return st.integers(min_value=0, max_value=20 * 2 ** len(targets) - 1).map(entry)


def _fib(device, entry):
    fib = Fib(device)
    if entry is not None:
        fib.install(entry)
    fib.share()
    return fib


@st.composite
def _task(draw):
    """A base plane and the planes derived from it."""
    devices = _devices(draw(st.integers(min_value=1, max_value=12)))
    entries = _entries(devices)
    base = DataPlane(())
    base.fibs = {device: _fib(device, draw(entries)) for device in devices}
    interned = {}
    derived = []
    for _plane in range(draw(st.integers(min_value=1, max_value=4))):
        changed = _members(devices, draw(st.integers(min_value=0, max_value=2 ** len(devices) - 1)))
        plane = DataPlane(())
        plane.fibs = dict(base.fibs)
        for device in changed:
            entry = draw(entries)
            key = (device, entry)
            if key not in interned:
                interned[key] = _fib(device, entry)
            plane.fibs[device] = interned[key]
        plane.base, plane.changed = base, tuple(changed)
        derived.append(plane)
    return base, derived


def _baseless(plane):
    copy = DataPlane(())
    copy.fibs = dict(plane.fibs)
    return copy


@given(task=_task())
@settings(max_examples=2000, deadline=None)
def test_find_cycle_is_the_full_dfs(task):
    base, derived = task
    assert find_cycle(base, ADDRESS) == ForwardingGraph(base, ADDRESS).has_cycle()
    for plane in derived:
        assert find_cycle(plane, ADDRESS) == ForwardingGraph(_baseless(plane), ADDRESS).has_cycle()


def _chain(devices):
    """d0 -> d1 -> ... -> the last device, which delivers."""
    plane = DataPlane(())
    plane.fibs = {
        device: _fib(device, FibEntry(prefix=PREFIX, next_hops=(after,)))
        for device, after in zip(devices, devices[1:])
    }
    plane.fibs[devices[-1]] = _fib(devices[-1], FibEntry(prefix=PREFIX, delivers_locally=True))
    return plane


def _derived(base, **replacements):
    plane = DataPlane(())
    plane.fibs = dict(base.fibs)
    for device, next_hops in replacements.items():
        plane.fibs[device] = _fib(device, FibEntry(prefix=PREFIX, next_hops=next_hops))
    plane.base, plane.changed = base, tuple(replacements)
    return plane


def test_a_certified_plane_is_not_walked(monkeypatch):
    """The certificate answers without the DFS, and the base's order is
    computed once per address."""
    base = _chain(_devices(6))
    shortcut = _derived(base, d0=("d3", "d4"), d2=("x0",))
    assert find_cycle(shortcut, ADDRESS) is None
    order = base.forwarding_orders[ADDRESS]
    assert order.rank == {"d5": 0, "d4": 1, "d3": 2, "d2": 3, "d1": 4, "d0": 5}

    def walked(_graph):
        raise AssertionError("the full DFS ran on a certified plane")

    monkeypatch.setattr(ForwardingGraph, "has_cycle", walked)
    assert find_cycle(_derived(base, d1=("d2", "d5")), ADDRESS) is None
    assert base.forwarding_orders[ADDRESS] is order


def test_an_uphill_edge_falls_back_to_the_dfs(monkeypatch):
    base = _chain(_devices(4))
    assert find_cycle(_derived(base, d2=("d0",)), ADDRESS) == ["d0", "d1", "d2", "d0"]
    # Uphill without closing a cycle (d2 -> d0 -> x0): the DFS runs, and
    # finds nothing.
    walks = []
    has_cycle = ForwardingGraph.has_cycle
    monkeypatch.setattr(
        ForwardingGraph, "has_cycle", lambda graph: walks.append(graph) or has_cycle(graph)
    )
    assert find_cycle(_derived(base, d2=("d0",), d0=("x0",)), ADDRESS) is None
    assert len(walks) == 1


@pytest.mark.parametrize("edit", [False, True])
def test_a_looping_base_or_an_edit_falls_back_to_the_dfs(edit):
    base = _chain(_devices(4))
    base.fibs["d3"] = _fib("d3", FibEntry(prefix=PREFIX, next_hops=("d1",)))
    plane = _derived(base, d0=("d1",))
    assert find_cycle(plane, ADDRESS) == ["d1", "d2", "d3", "d1"]
    assert base.forwarding_orders[ADDRESS] is None
    if edit:
        plane.install("d3", FibEntry(prefix=Prefix("10.0.0.0/25"), delivers_locally=True))
        assert plane.base is None and plane.changed == ()
        assert find_cycle(plane, ADDRESS) is None
