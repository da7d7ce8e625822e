"""State hashing: incremental Zobrist fingerprints, bitstate hashing.

Three memory/speed optimizations from the paper meet here:

* **State hashing** (§4.4): a network state is a vector of per-device routing
  entries; a routing decision at one device does not change the entries at
  the others, so entries are stored once in a hash table and states refer to
  them by small integer ids ("64-bit pointers" in the C++ prototype).  That
  table is the protocol layer's
  :class:`~repro.protocols.interning.RouteInternTable`; states store its ids.

* **Incremental fingerprints**: a state's visited-set key is the XOR of one
  64-bit Zobrist component per (slot, entry-id) pair.  Because XOR is its own
  inverse, a successor state that changes a single slot derives its
  fingerprint from the parent's in O(1) instead of re-hashing all n
  entries.  :class:`ZobristFingerprinter` provides the components.

* **Bitstate hashing** (§5, Figure 9): instead of storing every visited state
  explicitly, SPIN can track visited states in a Bloom filter, trading a
  small probability of missed states (reduced coverage) for a large memory
  saving.  :class:`BitstateFilter` is that Bloom filter.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

_MASK64 = (1 << 64) - 1
#: 2**64 / golden ratio, the usual splitmix64 increment.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """One round of the splitmix64 finalizer: a cheap, well-mixed 64-bit hash.

    Used both for Zobrist components and for deriving Bloom-filter probe
    positions; unlike ``hashlib`` digests it costs a few integer ops per
    call instead of an object allocation plus a C digest round-trip.
    """
    value = (value + _SPLITMIX_GAMMA) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class ZobristFingerprinter:
    """Per-(slot, entry id) Zobrist components over one intern table's ids.

    The component of slot ``s`` holding the entry with intern id ``e`` is a
    pseudo-random 64-bit value derived deterministically from ``s`` and
    ``e``; a state fingerprint is the XOR of its slots' components.  A
    fingerprinter is bound to the
    :class:`~repro.protocols.interning.RouteInternTable` of the state space
    it hashes — ids of different tables are not comparable — and the states,
    whose slots already hold that table's ids, call :meth:`component_id`
    directly: no entry is decoded or hashed.  The memory accounting the
    explorer reports (``unique_entries``/``approximate_bytes``) counts the
    distinct entry ids this search actually touched.
    """

    def __init__(self, table) -> None:
        self.table = table
        self._components: Dict[Tuple[int, int], int] = {}
        self._seen: set = set()
        #: Flat-array bytes one live state costs, set by whoever binds this
        #: fingerprinter to a protocol state space (0 = unknown).
        self.state_bytes_per_state = 0

    def component_id(self, slot: int, entry_id: int) -> int:
        """The Zobrist component for the interned entry ``entry_id`` in ``slot``.

        A channel queue is one interned entry (its id names the whole tuple
        of messages): queue contents are order- and multiplicity-sensitive,
        so a per-message XOR would be unsound — identical messages cancel.
        """
        key = (slot, entry_id)
        value = self._components.get(key)
        if value is None:
            value = splitmix64(splitmix64(slot + 1) ^ (entry_id * _SPLITMIX_GAMMA))
            self._components[key] = value
            self._seen.add(entry_id)
        return value

    def unique_entries(self) -> int:
        """Distinct entry ids this fingerprinter folded during its search."""
        return len(self._seen)

    def approximate_bytes(self) -> int:
        """Intern-table footprint attributable to this search's entries."""
        # Roughly two machine words for the dict entry plus one for the list
        # slot, per table entry.
        return len(self._seen) * 24


class BitstateFilter:
    """A Bloom filter over state fingerprints (SPIN's bitstate hashing).

    ``bits`` is the filter size in bits; ``hash_count`` the number of hash
    functions.  ``add`` returns True when the state was *possibly* seen
    before (all bits already set) — i.e. the search should not re-expand it.
    """

    def __init__(self, bits: int = 1 << 20, hash_count: int = 3) -> None:
        if bits <= 0:
            raise ValueError("bitstate filter needs a positive number of bits")
        self.bits = bits
        self.hash_count = max(1, hash_count)
        self._array = bytearray((bits + 7) // 8)
        self.added = 0

    def _positions(self, fingerprint: Hashable) -> List[int]:
        value = fingerprint if isinstance(fingerprint, int) else hash(fingerprint)
        # Chain splitmix64 rounds to derive the probe positions: per-state
        # cost is a handful of integer ops, where the previous blake2b digest
        # allocated a hash object per visited-set probe.
        mixed = value & _MASK64
        positions = []
        for _ in range(self.hash_count):
            mixed = splitmix64(mixed)
            positions.append(mixed % self.bits)
        return positions

    def add(self, fingerprint: int) -> bool:
        """Add ``fingerprint``; returns True if it was (possibly) already present."""
        positions = self._positions(fingerprint)
        present = all(self._array[pos // 8] & (1 << (pos % 8)) for pos in positions)
        if present:
            return True
        for pos in positions:
            self._array[pos // 8] |= 1 << (pos % 8)
        self.added += 1
        return False

    def approximate_bytes(self) -> int:
        """Memory used by the bit array."""
        return len(self._array)


class VisitedSet:
    """Visited-state tracking with either exact storage or bitstate hashing."""

    def __init__(self, bitstate: Optional[BitstateFilter] = None) -> None:
        self.bitstate = bitstate
        self._exact: Optional[set] = None if bitstate is not None else set()

    def add(self, fingerprint: int) -> bool:
        """Record ``fingerprint``; True when it was already visited (skip it)."""
        if self.bitstate is not None:
            return self.bitstate.add(fingerprint)
        assert self._exact is not None
        if fingerprint in self._exact:
            return True
        self._exact.add(fingerprint)
        return False

    def __len__(self) -> int:
        if self.bitstate is not None:
            return self.bitstate.added
        assert self._exact is not None
        return len(self._exact)

    def approximate_bytes(self) -> int:
        """Rough memory footprint of the visited structure."""
        if self.bitstate is not None:
            return self.bitstate.approximate_bytes()
        assert self._exact is not None
        # A Python set entry costs roughly 60 bytes for a 64-bit int member.
        return len(self._exact) * 60
