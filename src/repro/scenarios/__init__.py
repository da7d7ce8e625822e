"""Device/event lifecycle scenarios for verification campaigns.

Failure campaigns historically spoke two words — link failure and session
flap.  This package models the fuller operational vocabulary real networks
see (node crash and restart, maintenance drain and return-to-service, gray
failures, staged multi-event sequences) as first-class
*initial-event scenarios*: picklable values with one
``apply(stepper, state)`` hook, beside the steady-state drain
(:class:`~repro.scenarios.events.Converge`) and the session flap
(:class:`~repro.scenarios.events.FailSession`), consumed by the persistent
:class:`~repro.protocols.spvp.SpvpStepper` exploration.  Each event's
second model lives with the tests (``tests/oracles/spvp_reference.py``), so
every new event is born with a bit-identical cross-model check.

:mod:`repro.scenarios.enumerator` holds the one scenario grammar — a
descriptor per event, each kind naming one event sequence, and
:func:`scenario_from_descriptor` building every scenario the package runs —
and the campaign side: k-event scenario enumeration with DEC/LEC symmetry
reduction (equivalent event sequences collapse before exploration),
mirroring the §4.3 link-failure reduction.
"""

from repro import _exports

#: Public name -> the module that defines it (imported on first access).
_ORIGINS = {
    "Converge": "repro.scenarios.events",
    "FailSession": "repro.scenarios.events",
    "GrayFailure": "repro.scenarios.events",
    "MaintenanceDrain": "repro.scenarios.events",
    "NodeCrash": "repro.scenarios.events",
    "NodeRestart": "repro.scenarios.events",
    "ReturnToService": "repro.scenarios.events",
    "Scenario": "repro.scenarios.events",
    "EVENT_KINDS": "repro.scenarios.enumerator",
    "ScenarioLedger": "repro.scenarios.enumerator",
    "enumerate_event_scenarios": "repro.scenarios.enumerator",
    "event_universe": "repro.scenarios.enumerator",
    "scenario_from_descriptor": "repro.scenarios.enumerator",
}

__all__ = list(_ORIGINS)
__getattr__ = _exports(__name__, _ORIGINS)
