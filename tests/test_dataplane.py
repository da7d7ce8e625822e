"""Tests for the FIB model and forwarding analysis."""

import pytest

from repro.dataplane import DataPlane, Fib, FibEntry, ForwardingGraph, PathStatus, trace_paths
from repro.netaddr import Prefix, ip_to_int
from repro.protocols.base import RouteSource


def build_chain_data_plane():
    """a -> b -> c delivers 10.0.0.0/24 at c."""
    data_plane = DataPlane(["a", "b", "c"])
    prefix = Prefix("10.0.0.0/24")
    data_plane.install("a", FibEntry(prefix=prefix, next_hops=("b",), source=RouteSource.OSPF))
    data_plane.install("b", FibEntry(prefix=prefix, next_hops=("c",), source=RouteSource.OSPF))
    data_plane.install("c", FibEntry(prefix=prefix, source=RouteSource.CONNECTED, delivers_locally=True))
    return data_plane


class TestFib:
    def test_longest_prefix_match(self):
        fib = Fib("r1")
        fib.install(FibEntry(prefix=Prefix("10.0.0.0/8"), next_hops=("x",), source=RouteSource.OSPF))
        fib.install(FibEntry(prefix=Prefix("10.1.0.0/16"), next_hops=("y",), source=RouteSource.OSPF))
        assert fib.lookup(ip_to_int("10.1.2.3")).next_hops == ("y",)
        assert fib.lookup(ip_to_int("10.2.0.1")).next_hops == ("x",)
        assert fib.lookup(ip_to_int("11.0.0.1")) is None

    def test_administrative_distance(self):
        fib = Fib("r1")
        prefix = Prefix("10.0.0.0/8")
        fib.install(FibEntry(prefix=prefix, next_hops=("ospf_hop",), source=RouteSource.OSPF))
        fib.install(FibEntry(prefix=prefix, next_hops=("static_hop",), source=RouteSource.STATIC))
        assert fib.lookup(ip_to_int("10.0.0.1")).next_hops == ("static_hop",)
        # A later, worse entry does not displace the static one.
        fib.install(FibEntry(prefix=prefix, next_hops=("ibgp_hop",), source=RouteSource.IBGP))
        assert fib.lookup(ip_to_int("10.0.0.1")).next_hops == ("static_hop",)

    def test_entries_sorted_most_specific_first(self):
        fib = Fib("r1")
        fib.install(FibEntry(prefix=Prefix("10.0.0.0/8"), next_hops=("x",)))
        fib.install(FibEntry(prefix=Prefix("10.1.0.0/16"), next_hops=("y",)))
        assert fib.entries()[0].prefix == Prefix("10.1.0.0/16")


class TestTracePaths:
    def test_delivery(self):
        data_plane = build_chain_data_plane()
        branches = trace_paths(data_plane, "a", ip_to_int("10.0.0.1"))
        assert len(branches) == 1
        assert branches[0].status == PathStatus.DELIVERED
        assert branches[0].nodes == ("a", "b", "c")
        assert branches[0].length == 2

    def test_blackhole(self):
        data_plane = DataPlane(["a", "b"])
        data_plane.install("a", FibEntry(prefix=Prefix("10.0.0.0/24"), next_hops=("b",)))
        branches = trace_paths(data_plane, "a", ip_to_int("10.0.0.1"))
        assert branches[0].status == PathStatus.BLACKHOLE

    def test_drop(self):
        data_plane = DataPlane(["a"])
        data_plane.install("a", FibEntry(prefix=Prefix("10.0.0.0/24"), drop=True))
        branches = trace_paths(data_plane, "a", ip_to_int("10.0.0.1"))
        assert branches[0].status == PathStatus.DROPPED

    def test_loop_detected(self):
        data_plane = DataPlane(["a", "b"])
        prefix = Prefix("10.0.0.0/24")
        data_plane.install("a", FibEntry(prefix=prefix, next_hops=("b",)))
        data_plane.install("b", FibEntry(prefix=prefix, next_hops=("a",)))
        branches = trace_paths(data_plane, "a", ip_to_int("10.0.0.1"))
        assert branches[0].status == PathStatus.LOOP

    def test_ecmp_fanout(self):
        data_plane = DataPlane(["a", "b", "c", "d"])
        prefix = Prefix("10.0.0.0/24")
        data_plane.install("a", FibEntry(prefix=prefix, next_hops=("b", "c")))
        for mid in ("b", "c"):
            data_plane.install(mid, FibEntry(prefix=prefix, next_hops=("d",)))
        data_plane.install("d", FibEntry(prefix=prefix, delivers_locally=True, source=RouteSource.CONNECTED))
        branches = trace_paths(data_plane, "a", ip_to_int("10.0.0.1"))
        assert len(branches) == 2
        assert all(b.status == PathStatus.DELIVERED for b in branches)

    def test_max_hops_truncation(self):
        data_plane = DataPlane([f"n{i}" for i in range(10)])
        prefix = Prefix("10.0.0.0/24")
        for i in range(9):
            data_plane.install(f"n{i}", FibEntry(prefix=prefix, next_hops=(f"n{i+1}",)))
        data_plane.install("n9", FibEntry(prefix=prefix, delivers_locally=True))
        branches = trace_paths(data_plane, "n0", ip_to_int("10.0.0.1"), max_hops=3)
        assert branches[0].status == PathStatus.TRUNCATED


class TestForwardingGraph:
    def test_cycle_detection(self):
        data_plane = DataPlane(["a", "b", "c"])
        prefix = Prefix("10.0.0.0/24")
        data_plane.install("a", FibEntry(prefix=prefix, next_hops=("b",)))
        data_plane.install("b", FibEntry(prefix=prefix, next_hops=("c",)))
        data_plane.install("c", FibEntry(prefix=prefix, next_hops=("a",)))
        graph = ForwardingGraph(data_plane, ip_to_int("10.0.0.1"))
        cycle = graph.has_cycle()
        assert cycle is not None and len(set(cycle)) == 3

    def test_no_cycle_in_chain(self):
        graph = ForwardingGraph(build_chain_data_plane(), ip_to_int("10.0.0.1"))
        assert graph.has_cycle() is None
        assert graph.reaches_delivery("a")

    @pytest.mark.parametrize("back_to", [None, 600])
    def test_long_forwarding_chain(self, back_to):
        """A 1 200-hop line is deeper than the interpreter's recursion limit:
        loop-free it answers None, and with the last device pointing back at
        device 600 exactly that 601-node cycle."""
        names = [f"n{i}" for i in range(1200)]
        data_plane = DataPlane(names)
        prefix = Prefix("10.0.0.0/24")
        for name, next_hop in zip(names, names[1:]):
            data_plane.install(name, FibEntry(prefix=prefix, next_hops=(next_hop,)))
        last = (
            FibEntry(prefix=prefix, delivers_locally=True, source=RouteSource.CONNECTED)
            if back_to is None
            else FibEntry(prefix=prefix, next_hops=(names[back_to],))
        )
        data_plane.install(names[-1], last)
        cycle = ForwardingGraph(data_plane, ip_to_int("10.0.0.1")).has_cycle()
        assert cycle == (None if back_to is None else names[back_to:] + [names[back_to]])

    def test_cycle_search_order_is_the_recursive_one(self):
        """The reported cycle is embedded in violation messages, so the
        explicit-stack search must find the one the recursive search found:
        first root in device order, successors in next-hop order."""
        import random

        def recursive_cycle(successors):
            color = dict.fromkeys(successors, 0)
            path = []

            def visit(node):
                color[node] = 1
                path.append(node)
                for successor in successors[node]:
                    if color.get(successor) == 1:
                        return path[path.index(successor):] + [successor]
                    if color.get(successor) == 0:
                        found = visit(successor)
                        if found is not None:
                            return found
                path.pop()
                color[node] = 2
                return None

            for node in successors:
                if color[node] == 0:
                    found = visit(node)
                    if found is not None:
                        return found
            return None

        rng = random.Random(20)
        prefix = Prefix("10.0.0.0/24")
        found_cycles = 0
        for _ in range(300):
            names = [f"n{i}" for i in range(rng.randint(1, 9))]
            data_plane = DataPlane(names)
            for name in names:
                hops = tuple(rng.sample(names + ["elsewhere"], rng.randint(0, min(3, len(names)))))
                if hops:
                    data_plane.install(name, FibEntry(prefix=prefix, next_hops=hops))
            graph = ForwardingGraph(data_plane, ip_to_int("10.0.0.1"))
            assert graph.has_cycle() == recursive_cycle(graph.successors)
            found_cycles += graph.has_cycle() is not None
        assert 50 < found_cycles < 300

    def test_black_holes_listed(self):
        data_plane = DataPlane(["a", "b"])
        data_plane.install("a", FibEntry(prefix=Prefix("10.0.0.0/24"), next_hops=("b",)))
        graph = ForwardingGraph(data_plane, ip_to_int("10.0.0.1"))
        assert graph.black_holes() == ["b"]

    def test_data_plane_describe(self):
        text = build_chain_data_plane().describe()
        assert "10.0.0.0/24" in text and "deliver" in text
