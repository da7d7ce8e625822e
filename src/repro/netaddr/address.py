"""IPv4 address conversion helpers."""

from __future__ import annotations

from repro.exceptions import AddressError

MAX_IPV4 = (1 << 32) - 1


def ip_to_int(text: str) -> int:
    """Convert dotted-quad ``text`` to its 32-bit integer value.

    Raises :class:`AddressError` for malformed input.
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"invalid IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"invalid IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad text."""
    if not 0 <= value <= MAX_IPV4:
        raise AddressError(f"IPv4 integer out of range: {value}")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )
