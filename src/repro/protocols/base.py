"""Common abstractions for the path-vector protocol models.

The paper models every routing protocol as an instance of the (extended)
Stable Paths Problem: each node holds a *best path* towards the origin(s) of
the prefix under analysis, and import/export filters plus a ranking function —
all inferred from the configuration — govern which advertisements are
accepted and preferred (§3.4, Appendix A/B).

This module defines:

* :class:`Path` — an immutable sequence of node names from the next hop to an
  origin.  The empty path ``EPSILON`` is the path an origin has to itself;
  ``NO_PATH`` (``None`` in the protocol state) means "no route".
* :class:`Route` — a path together with the BGP-style attributes the ranking
  functions consult (local preference, AS-path length, MED, IGP cost, ...).
* :class:`PathVectorInstance` — the abstract protocol interface consumed by
  the RPVP/SPVP engines and by the model checker.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple


class Path(tuple):
    """A forwarding path: node names from the next hop to the origin.

    An origin's own path is the empty tuple (``EPSILON``).  For any other
    node, ``path[0]`` is the next hop (``head`` in the paper's notation) and
    ``path[1:]`` is ``rest`` — which in a converged state must equal the next
    hop's own best path (otherwise the path is *invalid*, §3.4.2).
    """

    __slots__ = ()

    def __new__(cls, nodes: Iterable[str] = ()) -> "Path":
        return super().__new__(cls, tuple(nodes))

    @property
    def head(self) -> Optional[str]:
        """The next hop, or None for the empty path."""
        return self[0] if self else None

    @property
    def rest(self) -> "Path":
        """The path with the next hop removed."""
        return Path(self[1:])

    def prepend(self, node: str) -> "Path":
        """The path seen by a neighbour importing this path via ``node``."""
        return tuple.__new__(Path, (node,) + self)

    def contains(self, node: str) -> bool:
        """True if ``node`` already appears on the path (loop detection)."""
        return node in self

    def __repr__(self) -> str:
        return "Path(" + " -> ".join(self) + ")" if self else "Path(<origin>)"


#: The origin's path to itself.
EPSILON = Path(())

#: Sentinel meaning "no route" (the paper's ⊥).  Kept as ``None`` so protocol
#: state dictionaries stay small and hash quickly.
NO_PATH = None


class RouteSource(enum.IntEnum):
    """Which protocol produced a route; doubles as administrative distance order."""

    CONNECTED = 0
    STATIC = 1
    EBGP = 20
    OSPF = 110
    IBGP = 200

    @property
    def administrative_distance(self) -> int:
        """The conventional administrative distance of this source."""
        return int(self.value)


@dataclass(frozen=True)
class Route:
    """A candidate route: a path plus the attributes ranking functions consult.

    ``Route`` objects are immutable and hashable so the model checker can
    intern them (the paper's "state hashing" optimization, §4.4).
    """

    path: Path
    source: RouteSource = RouteSource.EBGP
    local_pref: int = 100
    as_path_length: int = 0
    med: int = 0
    igp_cost: int = 0
    communities: FrozenSet[str] = frozenset()
    origin_node: Optional[str] = None

    @property
    def compare_key(self) -> Tuple:
        """All equality-relevant fields as one tuple, computed once.

        Routes are compared and hashed constantly — interning, advertisement
        and rank memo lookups all key on them — and the dataclass-generated
        ``__eq__``/``__hash__`` re-tuple all eight fields on every call.
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = (
                self.path,
                self.source,
                self.local_pref,
                self.as_path_length,
                self.med,
                self.igp_cost,
                self.communities,
                self.origin_node,
            )
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if other.__class__ is not Route:
            return NotImplemented
        return self.compare_key == other.compare_key

    def __hash__(self) -> int:
        """Structural hash over :attr:`compare_key`, computed once and cached."""
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash(self.compare_key)
            object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self):
        # The cached hash is process-specific (string hashing is seeded), so
        # it must not travel across the pickle boundary to pool workers; the
        # cached compare key would just duplicate the fields on the wire.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_key", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def with_path(self, path: Path) -> "Route":
        """A copy of this route with a different path.

        Constructed by copying the field dict rather than via
        :func:`dataclasses.replace`, which rebuilds a field mapping per call.
        ``OspfInstance.export`` calls it; the search itself never does, as
        ``OspfInstance.advertised_entry`` builds each advertisement once per
        (held route, edge cost).  The cached hash/compare-key entries must
        not travel to the copy.
        """
        fields = dict(self.__dict__)
        fields.pop("_hash", None)
        fields.pop("_key", None)
        fields["path"] = path
        route = object.__new__(Route)
        object.__setattr__(route, "__dict__", fields)
        return route

    def describe(self) -> str:
        """Compact human-readable form used in trails and logs."""
        path_text = "->".join(self.path) if self.path else "<origin>"
        return (
            f"{path_text} (lp={self.local_pref}, aspath={self.as_path_length}, "
            f"med={self.med}, igp={self.igp_cost}, src={self.source.name})"
        )


class PathVectorInstance(abc.ABC):
    """Abstract protocol instance explored by RPVP / SPVP.

    One instance corresponds to the execution of the control plane for a
    single prefix (paper §3.3 executes the control plane per prefix within a
    PEC).  The interface mirrors the paper's formalism: peers, import/export
    filters and a ranking function, plus the set of origins.
    """

    #: Name of the prefix / instance, used in diagnostics.
    name: str = "instance"

    @abc.abstractmethod
    def nodes(self) -> Sequence[str]:
        """All nodes participating in this protocol instance."""

    @abc.abstractmethod
    def origins(self) -> Sequence[str]:
        """Nodes that originate the prefix (best path ``EPSILON`` initially)."""

    @abc.abstractmethod
    def peers(self, node: str) -> Sequence[str]:
        """The peers of ``node`` under the instance's failure scenario."""

    @abc.abstractmethod
    def export(self, exporter: str, importer: str, route: Optional[Route]) -> Optional[Route]:
        """Apply ``exporter``'s export filter towards ``importer``.

        Returns the advertised route (path already prepended with
        ``exporter``) or ``None`` when the filter rejects it.
        """

    @abc.abstractmethod
    def import_(self, importer: str, exporter: str, route: Optional[Route]) -> Optional[Route]:
        """Apply ``importer``'s import filter on an advertisement from ``exporter``."""

    @abc.abstractmethod
    def rank(self, node: str, route: Route) -> Tuple:
        """A sort key for ``route`` at ``node``; lower keys are preferred.

        Ties (equal keys) model the paper's partial-order ranking functions:
        the RPVP engine treats tied candidates as a non-deterministic choice.
        """

    # ------------------------------------------------------------------ defaults
    def cached_rank(self, node: str, route: Route) -> Tuple:
        """Memoised :meth:`rank` (ranking is pure in (node, route))."""
        cache = getattr(self, "_rank_cache", None)
        if cache is None:
            cache = {}
            self._rank_cache = cache  # type: ignore[attr-defined]
        key = (node, route)
        if key not in cache:
            cache[key] = self.rank(node, route)
        return cache[key]

    def advertisement(self, importer: str, exporter: str, route: Optional[Route]) -> Optional[Route]:
        """The advertisement ``importer`` would accept from ``exporter`` now.

        This is the composition ``import(export(best(exporter)))`` used in the
        paper's ``can-update`` predicate.  Loops are rejected here as well
        (assumption in Appendix B: import filters reject looping paths).
        Unmemoised: the candidate engine keeps one memo per edge, keyed on
        the route's intern id.
        """
        exported = self.export(exporter, importer, route)
        if exported is None or exported.path.contains(importer):
            return None
        return self.import_(importer, exporter, exported)

    def session_rank_bound(self, importer: str, exporter: str) -> Optional[Tuple]:
        """A static lower bound on the rank of any route importable over a session.

        Returns a rank tuple ``b`` such that every route ``importer`` could
        *ever* accept from ``exporter`` in this instance ranks no better than
        ``b`` (``cached_rank(importer, r) >= b`` for all importable ``r``),
        or ``None`` when no bound is known.  The partial-order reduction uses
        this to prove a session *rank-immune*: if the bound cannot outrank the
        receiver's current best route, future deliveries over the session can
        never change that best (Appendix A keeps the incumbent on ties).

        The default knows nothing; BGP instances derive a bound from the
        local-pref / AS-hop analysis in :mod:`repro.core.determinism`.
        """
        return None
