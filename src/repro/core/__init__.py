"""Plankton core: the configuration verifier built on PECs + model checking."""

from repro import _exports

#: Public name -> the module that defines it (imported on first access).
_ORIGINS = {
    "OptimizationFlags": "repro.core.options",
    "PlanktonOptions": "repro.core.options",
    "PecRunResult": "repro.core.results",
    "VerificationResult": "repro.core.results",
    "Violation": "repro.core.results",
    "Plankton": "repro.core.verifier",
}

__all__ = list(_ORIGINS)
__getattr__ = _exports(__name__, _ORIGINS)
