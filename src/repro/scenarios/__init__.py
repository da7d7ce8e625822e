"""Device/event lifecycle scenarios for verification campaigns.

Failure campaigns historically spoke two words — link failure and session
flap.  This package models the fuller operational vocabulary real networks
see (node crash and restart, maintenance drain and return-to-service, flap
storms, gray failures, staged multi-event sequences) as first-class
*initial-event scenarios*: picklable values with the same duck-typed
``apply(stepper, state)`` hook as
:class:`~repro.transient.explorer.Converge` and
:class:`~repro.transient.explorer.FailSession`, consumed by the persistent
:class:`~repro.protocols.spvp.SpvpStepper` exploration.  Each event's
second model lives with the tests (``tests/oracles/spvp_reference.py``), so
every new event is born with a bit-identical cross-model check.

:mod:`repro.scenarios.enumerator` adds the campaign side: k-event scenario
enumeration with DEC/LEC symmetry reduction (equivalent event sequences
collapse before exploration), mirroring the §4.3 link-failure reduction.
"""

from repro.scenarios.events import (
    Converge,
    FailSession,
    FlapStorm,
    GrayFailure,
    MaintenanceDrain,
    NodeCrash,
    NodeRestart,
    ReturnToService,
    Scenario,
    maintenance_window,
    steady_state_after,
)
from repro.scenarios.enumerator import (
    DEFAULT_EVENT_KINDS,
    EVENT_KINDS,
    ScenarioLedger,
    enumerate_event_scenarios,
    event_universe,
    scenario_from_descriptor,
)

__all__ = [
    "Converge",
    "FailSession",
    "FlapStorm",
    "GrayFailure",
    "MaintenanceDrain",
    "NodeCrash",
    "NodeRestart",
    "ReturnToService",
    "Scenario",
    "maintenance_window",
    "steady_state_after",
    "DEFAULT_EVENT_KINDS",
    "EVENT_KINDS",
    "ScenarioLedger",
    "enumerate_event_scenarios",
    "event_universe",
    "scenario_from_descriptor",
]
