"""IPv4 address and prefix arithmetic used throughout the reproduction.

The trie-based Packet Equivalence Class computation (paper §3.1) operates on
raw 32-bit integers, so this module exposes light-weight value types built on
plain ``int`` rather than the standard library ``ipaddress`` objects, which are
noticeably slower to hash and compare in the hot paths of the verifier.
"""

from repro.netaddr.address import MAX_IPV4, ip_to_int, int_to_ip
from repro.netaddr.prefix import Prefix, AddressRange

__all__ = [
    "MAX_IPV4",
    "ip_to_int",
    "int_to_ip",
    "Prefix",
    "AddressRange",
]
