"""FIB model: combining per-prefix, per-protocol results into a data plane.

Once the converged states of all relevant prefixes of a PEC are computed, "a
model of the FIB combines the results from the various prefixes and protocols
into a single network-wide data plane for the PEC" (paper §3.3).  That
combination follows router behaviour:

* longest prefix match across prefixes,
* administrative distance across protocols for the same prefix
  (connected < static < eBGP < OSPF < iBGP),
* ECMP next-hop sets where the winning protocol allows them (OSPF).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.modelcheck.trail import document
from repro.netaddr import AddressRange, Prefix
from repro.protocols.base import RouteSource


@document(
    prefix=(str, Prefix),
    next_hops=(list, tuple),
    source=(attrgetter("name"), RouteSource.__getitem__),
)
@dataclass(frozen=True)
class FibEntry:
    """One FIB entry on one device.

    ``next_hops`` is a sorted tuple of neighbour device names; an empty tuple
    together with ``delivers_locally=False`` and ``drop=False`` means the
    entry is unresolved (treated as a black hole by the forwarding model).
    """

    prefix: Prefix
    next_hops: Tuple[str, ...] = ()
    source: RouteSource = RouteSource.STATIC
    delivers_locally: bool = False
    drop: bool = False
    metric: int = 0

    @property
    def administrative_distance(self) -> int:
        """The entry's administrative distance (from its source protocol)."""
        return self.source.administrative_distance


class Fib:
    """The forwarding table of a single device.

    The document (:meth:`to_dict`) is the device and its entries; ``shared``
    and the lookup memo that comes with it are derived state.
    """

    def __init__(self, device: str) -> None:
        self.device = device
        self._entries: Dict[Prefix, FibEntry] = {}
        #: True once several :class:`DataPlane` objects may hold this very
        #: table (see :meth:`share`).
        self.shared = False
        self._lookup_memo: Optional[Dict[int, Optional[FibEntry]]] = None

    def share(self) -> None:
        """Declare this table held by several data planes (a derived plane
        shares the tables of the devices it agrees on with its base).

        From here on :meth:`install` refuses — :meth:`DataPlane.install`
        copies first — and, the entries being final, :meth:`lookup` answers
        from a memo, allocated by the first lookup (a table shared by a
        plane that is never read costs one flag).
        """
        self.shared = True

    def install(self, entry: FibEntry) -> None:
        """Install ``entry``; a lower administrative distance wins on conflict."""
        if self.shared:
            raise ReproError(
                f"the FIB of {self.device!r} is shared between data planes; "
                "install through DataPlane.install, which copies it first"
            )
        existing = self._entries.get(entry.prefix)
        if existing is None or entry.administrative_distance < existing.administrative_distance:
            self._entries[entry.prefix] = entry

    def copy(self) -> "Fib":
        """An unshared table with the same entries in the same install order."""
        fib = Fib(self.device)
        fib._entries = dict(self._entries)
        return fib

    def entries(self) -> List[FibEntry]:
        """All installed entries, most specific first."""
        return sorted(
            self._entries.values(), key=lambda e: (-e.prefix.length, e.prefix.network)
        )

    def lookup(self, address: int) -> Optional[FibEntry]:
        """Longest-prefix-match lookup of ``address`` (a 32-bit integer)."""
        memo = self._lookup_memo
        if memo is not None:
            if address in memo:
                return memo[address]
        elif self.shared:
            memo = self._lookup_memo = {}
        best: Optional[FibEntry] = None
        for entry in self._entries.values():
            if entry.prefix.contains_address(address):
                if best is None or entry.prefix.length > best.prefix.length:
                    best = entry
        if memo is not None:
            memo[address] = best
        return best

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Fib({self.device!r}, entries={len(self._entries)})"

    def to_dict(self, exclude: FrozenSet[str] = frozenset()) -> Dict[str, object]:
        """The canonical document: the device and its entries in install order."""
        return {
            "device": self.device,
            "entries": [entry.to_dict(exclude) for entry in self._entries.values()],
        }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "Fib":
        def build(device, entries):  # ** rejects a missing or unknown key
            fib = cls(device)
            # Not install(): a stored entry already won its administrative-
            # distance contest, and the install order is reproduced exactly.
            for entry in map(FibEntry.from_dict, entries):
                fib._entries[entry.prefix] = entry
            return fib

        return build(**document)


class DataPlane:
    """A network-wide data plane: one :class:`Fib` per device.

    This is the object handed to policy callbacks for each converged state of
    a PEC (paper §3.5), together with the address range the PEC covers.

    A plane holds a new, empty table per device of ``devices``, or the
    tables ``fibs`` hands it (by reference, in that order).  A plane
    *derived* from another one (see ``PecExplorer.build_data_plane``) is
    handed its tables and also knows what it differs in: ``base`` is the
    plane it was derived from and ``changed`` the devices whose :class:`Fib`
    is not the base's; every other device holds the base's very table.
    Analyses may start from those devices
    (:func:`~repro.dataplane.forwarding.find_cycle`), so a plane that serves
    as a base is never edited.  Neither field is part of the document, and
    :meth:`install` forgets both.
    """

    def __init__(
        self,
        devices: Iterable[str] = (),
        pec_range: Optional[AddressRange] = None,
        fibs: Optional[Dict[str, Fib]] = None,
        base: Optional["DataPlane"] = None,
        changed: Tuple[str, ...] = (),
    ) -> None:
        self.fibs: Dict[str, Fib] = {name: Fib(name) for name in devices} if fibs is None else fibs
        self.pec_range = pec_range
        #: Free-form annotations recorded by the verifier (failure scenario,
        #: non-deterministic choices taken); consumed by trails and tests.
        #: Values are JSON-ready (strings today) — they are part of the document.
        self.annotations: Dict[str, object] = {}
        self.base = base
        self.changed = changed
        #: Per address, this plane's forwarding order as the planes derived
        #: from it are checked against it (kept by
        #: :func:`~repro.dataplane.forwarding.find_cycle`).
        self.forwarding_orders: Dict[int, object] = {}

    def fib(self, device: str) -> Fib:
        """The FIB of ``device``."""
        try:
            return self.fibs[device]
        except KeyError:
            raise ReproError(f"no FIB for device {device!r}") from None

    def install(self, device: str, entry: FibEntry) -> None:
        """Install ``entry`` into the FIB of ``device``.

        Copy-on-write: derived planes share the :class:`Fib` objects of the
        devices they agree on — the planes of one task, and the failure planes
        of a PEC without BGP — so a shared table is first replaced, in this
        plane only, by a copy: an install never edits a sibling plane.
        An edited plane no longer differs from its base in ``changed`` alone,
        so it forgets both.
        """
        fib = self.fib(device)
        self.base, self.changed = None, ()
        if fib.shared:
            fib = self.fibs[device] = fib.copy()
        fib.install(entry)

    def devices(self) -> List[str]:
        """All device names."""
        return list(self.fibs)

    def lookup(self, device: str, address: int) -> Optional[FibEntry]:
        """LPM lookup on one device."""
        return self.fib(device).lookup(address)

    def next_hops(self, device: str, address: int) -> Tuple[str, ...]:
        """The next hops ``device`` uses for ``address`` (empty = dropped/black hole)."""
        entry = self.lookup(device, address)
        if entry is None or entry.drop:
            return ()
        return entry.next_hops

    def describe(self) -> str:
        """Readable dump of every non-empty FIB (used in violation trails)."""
        lines: List[str] = []
        for name, fib in sorted(self.fibs.items()):
            if len(fib) == 0:
                continue
            lines.append(f"{name}:")
            for entry in fib.entries():
                if entry.drop:
                    target = "drop"
                elif entry.delivers_locally:
                    target = "deliver"
                elif entry.next_hops:
                    target = ", ".join(entry.next_hops)
                else:
                    target = "<unresolved>"
                lines.append(f"  {entry.prefix} -> {target} [{entry.source.name}]")
        return "\n".join(lines)

    def to_dict(self, exclude: FrozenSet[str] = frozenset()) -> Dict[str, object]:
        """The canonical document; ``fibs`` is a list so the device order
        survives a sorted-key JSON round trip."""
        pec_range = self.pec_range
        return {
            "pec_range": None if pec_range is None else [pec_range.low, pec_range.high],
            "annotations": dict(self.annotations),
            "fibs": [fib.to_dict(exclude) for fib in self.fibs.values()],
        }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "DataPlane":
        def build(pec_range, annotations, fibs):  # ** rejects a missing or unknown key
            plane = cls(
                pec_range=None if pec_range is None else AddressRange(*pec_range),
                fibs={fib.device: fib for fib in map(Fib.from_dict, fibs)},
            )
            plane.annotations.update(annotations)
            return plane

        return build(**document)
