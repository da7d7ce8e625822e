"""Exception hierarchy for the Plankton reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch any failure originating in this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class AddressError(ReproError, ValueError):
    """An IPv4 address or prefix string/value could not be interpreted."""


class TopologyError(ReproError):
    """The topology is malformed or an operation refers to unknown elements."""


class ConfigError(ReproError):
    """A device configuration is inconsistent or cannot be parsed."""


class ConfigParseError(ConfigError):
    """Raised by the configuration DSL parser with line information."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ProtocolError(ReproError):
    """A protocol model was given an invalid input or reached a bad state."""


class VerificationError(ReproError):
    """The verifier could not complete (as opposed to finding a violation)."""


class SchedulingError(ReproError):
    """Dependency-aware scheduling failed (e.g. unexpected cyclic structure)."""


class PolicyError(ReproError):
    """A policy was configured incorrectly (unknown nodes, bad parameters)."""


class SpecError(ReproError):
    """A wire-format request spec (policy/options/scenario dict) is invalid.

    Raised by :mod:`repro.serve.specs` when a verification request arriving
    over the service API (or built by the CLI for the ``--server`` path)
    names unknown policies, devices, or option values.  Maps to HTTP 400 on
    the server and to a failed job with a clear message on the client.
    """


class ServiceError(ReproError):
    """Base class for verification-service (client/server) failures."""


class ServiceUnavailable(ServiceError):
    """The verification server could not be reached at all (connection
    refused, DNS failure, timeout before any HTTP response)."""


class ServerProtocolError(ServiceError):
    """The server answered, but unusably: an HTTP 5xx, or a response body
    that is not the JSON document the API promises."""

