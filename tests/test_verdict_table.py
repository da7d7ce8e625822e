"""One verdict for both request kinds, spelled the same in every form.

``RequestResult.verdict`` decides it (a violation beats partiality, which
beats holds); the summary, the Markdown report, the rendered job result and
the exit code all follow it.  Each case checks all five together, for a
``verify`` result and a ``transient`` campaign alike.
"""

import pytest

from repro.core.results import PecRunResult, TaskFailure, VerificationResult, Violation
from repro.reporting import ResultView, verdict_exit_code
from repro.topology.failures import FailureScenario
from repro.transient.explorer import (
    TransientAnalysisResult,
    TransientCampaignResult,
    TransientCampaignRun,
    TransientViolation,
)

_FAILURE = TaskFailure(3, 1, "no failures", "crash", "worker died", 2)


def _verify(violated, partial):
    violations = [Violation("loop", 0, "pec", "no failures", "a -> b -> a")] if violated else []
    run = PecRunResult(0, FailureScenario(), converged_states=1, violations=violations)
    return VerificationResult(["loop"], [run], errors=[_FAILURE] if partial else [])


def _transient(violated, partial):
    violations = [TransientViolation("loop", "micro-loop", 2, False, ())] if violated else []
    analysis = TransientAnalysisResult(states_explored=3, violations=violations)
    run = TransientCampaignRun(0, FailureScenario(), "10.0.0.0/8", analysis)
    return TransientCampaignResult([run], 1, errors=[_FAILURE] if partial else [])


#: kind -> (result builder, summary subject, Markdown header subject).
KINDS = {
    "verify": (_verify, "policies loop", "Policies `loop`"),
    "transient": (_transient, "transient campaign", "Transient properties"),
}

#: case -> (violated, partial, verdict, summary phrase, Markdown phrase, exit code).
CASES = {
    "holds": (False, False, "holds", "HOLDS", "**HOLDS**", 0),
    "violated": (
        True, False, "violated", "VIOLATED (1 violation(s))", "**VIOLATED** (1 violation(s))", 1,
    ),
    "partial": (
        False, True, "partial",
        "HOLDS [PARTIAL: 1 task(s) failed]",
        "**HOLDS** — **PARTIAL** (1 task(s) failed)",
        2,
    ),
    "violated+partial": (
        True, True, "violated",
        "VIOLATED (1 violation(s)) [PARTIAL: 1 task(s) failed]",
        "**VIOLATED** (1 violation(s)) — **PARTIAL** (1 task(s) failed)",
        1,
    ),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", KINDS)
def test_every_form_shows_the_one_verdict(kind, case):
    build, subject, header = KINDS[kind]
    violated, partial, verdict, phrase, markdown_phrase, exit_code = CASES[case]
    result = build(violated, partial)
    rendered = ResultView(result, policy_names="loop", title="t").render(["markdown"])

    assert result.verdict == verdict
    assert result.summary().split("; ")[0] == f"{subject}: {phrase}"
    assert rendered["markdown"].splitlines()[2] == f"{header}: {markdown_phrase}"
    assert rendered["kind"] == kind
    assert rendered["verdict"] == verdict
    assert verdict_exit_code(rendered["verdict"]) == exit_code
    assert result.holds == (not violated) and result.complete == (not partial)
