"""Binary prefix trie over the IPv4 destination space.

Plankton computes Packet Equivalence Classes with "a trie-based technique
inspired by VeriFlow" (paper §3.1): every prefix appearing anywhere in the
configuration is inserted into a binary trie keyed by the prefix bits, and a
recursive traversal of the trie emits the partition of the header space at
prefix boundaries, carrying along the configuration objects associated with
each prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.netaddr import AddressRange, Prefix


@dataclass
class TrieNode:
    """One node of the binary trie.

    ``prefixes`` holds the prefixes that terminate exactly at this node
    (several distinct configuration objects can share a prefix, so the
    payload list is separate from the structural children).
    """

    depth: int
    network: int
    children: List[Optional["TrieNode"]] = field(default_factory=lambda: [None, None])
    prefixes: List[Prefix] = field(default_factory=list)
    payloads: List[object] = field(default_factory=list)

class PrefixTrie:
    """A binary trie of IPv4 prefixes with attached payload objects."""

    def __init__(self) -> None:
        self.root = TrieNode(depth=0, network=0)
        self._count = 0

    def insert(self, prefix: Prefix, payload: object = None) -> TrieNode:
        """Insert ``prefix`` (with an optional payload) and return its node."""
        node = self.root
        for bit in prefix.bits():
            child = node.children[bit]
            if child is None:
                depth = node.depth + 1
                network = node.network | (bit << (32 - depth))
                child = TrieNode(depth=depth, network=network)
                node.children[bit] = child
            node = child
        node.prefixes.append(prefix)
        if payload is not None:
            node.payloads.append(payload)
        self._count += 1
        return node

    def __len__(self) -> int:
        return self._count

    def all_prefixes(self) -> List[Prefix]:
        """Every inserted prefix (duplicates removed), sorted."""
        result = set()
        for node in self._walk(self.root):
            result.update(node.prefixes)
        return sorted(result)

    def _walk(self, node: TrieNode) -> Iterator[TrieNode]:
        yield node
        for child in node.children:
            if child is not None:
                yield from self._walk(child)

    # ------------------------------------------------------------------ partition
    def partition(self) -> List[Tuple[AddressRange, Tuple[Prefix, ...]]]:
        """Partition the 32-bit space at the boundaries of the inserted prefixes.

        The recursive traversal keeps, for every emitted range, the set of
        inserted prefixes covering it ("the most up-to-date network-wide
        config known" in the paper's phrasing) — the prefixes are what the
        caller needs to merge the per-prefix configuration objects.

        Ranges covered by no prefix are also emitted (with an empty prefix
        tuple), matching the paper's example where ``[0.0.0.0,
        127.255.255.255]`` has no originating node.
        """
        boundaries = self._boundaries()
        result: List[Tuple[AddressRange, Tuple[Prefix, ...]]] = []
        for low, high in boundaries:
            covering = tuple(
                sorted(
                    (p for p in self._unique_prefixes() if p.first <= low and high <= p.last),
                    key=lambda p: (-p.length, p.network),
                )
            )
            result.append((AddressRange(low, high), covering))
        return result

    def _unique_prefixes(self) -> List[Prefix]:
        if not hasattr(self, "_prefix_cache") or self._prefix_cache_count != self._count:
            self._prefix_cache = self.all_prefixes()
            self._prefix_cache_count = self._count
        return self._prefix_cache

    def _boundaries(self) -> List[Tuple[int, int]]:
        """Consecutive [low, high] ranges delimited by prefix boundaries."""
        cuts = {0, 1 << 32}
        for prefix in self._unique_prefixes():
            cuts.add(prefix.first)
            cuts.add(prefix.last + 1)
        ordered = sorted(cuts)
        return [
            (ordered[i], ordered[i + 1] - 1)
            for i in range(len(ordered) - 1)
            if ordered[i] <= ordered[i + 1] - 1
        ]
