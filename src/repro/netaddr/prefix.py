"""IPv4 prefixes and address ranges.

Prefixes are the unit of configuration in the paper (advertised networks,
static-route destinations, route-map matches).  Address ranges are the unit of
Packet Equivalence Classes: the trie traversal of §3.1 produces contiguous
``[low, high]`` ranges of the 32-bit destination space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Union

from repro.exceptions import AddressError
from repro.netaddr.address import MAX_IPV4, int_to_ip, ip_to_int


@functools.total_ordering
class Prefix:
    """An immutable IPv4 prefix (network address + prefix length).

    The network address is canonicalised: host bits below the prefix length
    are cleared, so ``Prefix("10.0.1.7/24")`` equals ``Prefix("10.0.1.0/24")``.
    """

    __slots__ = ("_network", "_length")

    def __init__(
        self,
        network: Union[str, int],
        length: int | None = None,
    ) -> None:
        if isinstance(network, str) and length is None:
            if "/" not in network:
                raise AddressError(f"prefix {network!r} missing '/length'")
            addr_text, _, length_text = network.partition("/")
            if not length_text.isdigit():
                raise AddressError(f"invalid prefix length in {network!r}")
            length = int(length_text)
            network = ip_to_int(addr_text)
        elif isinstance(network, str):
            network = ip_to_int(network)
        if length is None:
            raise AddressError("prefix length is required")
        if not 0 <= length <= 32:
            raise AddressError(f"invalid prefix length {length}")
        if not 0 <= network <= MAX_IPV4:
            raise AddressError(f"network address out of range: {network}")
        mask = self._mask_for(length)
        self._network = network & mask
        self._length = length

    @staticmethod
    def _mask_for(length: int) -> int:
        if length == 0:
            return 0
        return (MAX_IPV4 << (32 - length)) & MAX_IPV4

    @property
    def network(self) -> int:
        """The canonical network address as a 32-bit integer."""
        return self._network

    @property
    def length(self) -> int:
        """The prefix length (0-32)."""
        return self._length

    @property
    def mask(self) -> int:
        """The netmask as a 32-bit integer."""
        return self._mask_for(self._length)

    @property
    def first(self) -> int:
        """The lowest address covered by this prefix."""
        return self._network

    @property
    def last(self) -> int:
        """The highest address covered by this prefix."""
        return self._network | (MAX_IPV4 >> self._length if self._length else MAX_IPV4)

    def contains_address(self, address: Union[int, str]) -> bool:
        """Return True if ``address`` falls inside this prefix."""
        if isinstance(address, str):
            address = ip_to_int(address)
        return self.first <= address <= self.last

    def contains_prefix(self, other: "Prefix") -> bool:
        """Return True if ``other`` is fully covered by this prefix."""
        return self._length <= other._length and (
            other._network & self.mask
        ) == self._network

    def bits(self) -> Iterator[int]:
        """Yield the prefix bits most-significant first (``length`` bits)."""
        for position in range(self._length):
            yield (self._network >> (31 - position)) & 1

    def to_range(self) -> "AddressRange":
        """The contiguous address range covered by this prefix."""
        return AddressRange(self.first, self.last)

    def __str__(self) -> str:
        return f"{int_to_ip(self._network)}/{self._length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return self._network == other._network and self._length == other._length
        if isinstance(other, str):
            try:
                return self == Prefix(other)
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self._network, self._length) < (other._network, other._length)

    def __hash__(self) -> int:
        return hash((self._network, self._length))


@dataclass(frozen=True, order=True)
class AddressRange:
    """A contiguous, inclusive range ``[low, high]`` of IPv4 addresses.

    Packet Equivalence Classes are represented by these ranges (paper §3.1,
    Figure 4): the trie traversal partitions the 32-bit space into consecutive
    ranges at prefix boundaries.
    """

    low: int
    high: int

    def __post_init__(self) -> None:
        if not 0 <= self.low <= MAX_IPV4:
            raise AddressError(f"range low out of bounds: {self.low}")
        if not 0 <= self.high <= MAX_IPV4:
            raise AddressError(f"range high out of bounds: {self.high}")
        if self.low > self.high:
            raise AddressError(f"empty range: low {self.low} > high {self.high}")

    def contains_address(self, address: Union[int, str]) -> bool:
        """Return True if ``address`` falls inside this range."""
        if isinstance(address, str):
            address = ip_to_int(address)
        return self.low <= address <= self.high

    def overlaps(self, other: "AddressRange") -> bool:
        """Return True if the two ranges share at least one address."""
        return self.low <= other.high and other.low <= self.high

    def representative(self) -> int:
        """A single address usable as a witness packet for this range."""
        return self.low

    def __str__(self) -> str:
        return f"[{int_to_ip(self.low)}, {int_to_ip(self.high)}]"
