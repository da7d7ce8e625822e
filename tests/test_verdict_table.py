"""One verdict for both request kinds, spelled the same in every form.

``RequestResult.verdict`` decides it (a violation beats an incomplete
search, which beats partiality, which beats holds); the summary, the
Markdown report, the ``--json`` document, the rendered job result and the
exit code all follow it.  Each case checks all six together, for a
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


def _verify(violated, partial, completeness):
    violations = [Violation("loop", 0, "pec", "no failures", "a -> b -> a")] if violated else []
    runs = [
        PecRunResult(
            0, FailureScenario(), converged_states=1, violations=violations,
            completeness=completeness,
        )
    ] if completeness else []
    return VerificationResult(["loop"], runs, errors=[_FAILURE] if partial else [])


def _transient(violated, partial, completeness):
    violations = [TransientViolation("loop", "micro-loop", 2, False, ())] if violated else []
    analysis = TransientAnalysisResult(
        states_explored=3, violations=violations, completeness=completeness or "complete"
    )
    runs = [TransientCampaignRun(0, FailureScenario(), "10.0.0.0/8", analysis)] if completeness else []
    return TransientCampaignResult(runs, 1, errors=[_FAILURE] if partial else [])


#: kind -> (result builder, summary subject, Markdown header subject).
KINDS = {
    "verify": (_verify, "policies loop", "Policies `loop`"),
    "transient": (_transient, "transient campaign", "Transient properties"),
}

#: case -> (violated, partial, the run's completeness (None: no run), verdict,
#: summary phrase, Markdown phrase, exit code).
CASES = {
    "holds": (False, False, "complete", "holds", "HOLDS", "**HOLDS**", 0),
    "violated": (
        True, False, "complete", "violated",
        "VIOLATED (1 violation(s))", "**VIOLATED** (1 violation(s))", 1,
    ),
    "partial": (
        False, True, "complete", "partial",
        "HOLDS [PARTIAL: 1 task(s) failed]",
        "**HOLDS** — **PARTIAL** (1 task(s) failed)",
        2,
    ),
    "violated+partial": (
        True, True, "complete", "violated",
        "VIOLATED (1 violation(s)) [PARTIAL: 1 task(s) failed]",
        "**VIOLATED** (1 violation(s)) — **PARTIAL** (1 task(s) failed)",
        1,
    ),
    "truncated": (
        False, False, "truncated", "inconclusive",
        "INCONCLUSIVE (1 run(s) truncated)", "**INCONCLUSIVE** (1 run(s) truncated)", 2,
    ),
    "bitstate": (
        False, False, "bitstate", "inconclusive",
        "INCONCLUSIVE (1 run(s) bitstate)", "**INCONCLUSIVE** (1 run(s) bitstate)", 2,
    ),
    "vacuous": (
        False, False, "vacuous", "inconclusive",
        "INCONCLUSIVE (1 run(s) vacuous)", "**INCONCLUSIVE** (1 run(s) vacuous)", 2,
    ),
    "no run": (
        False, False, None, "inconclusive",
        "INCONCLUSIVE (nothing to search)", "**INCONCLUSIVE** (nothing to search)", 2,
    ),
    "truncated+partial": (
        False, True, "truncated", "inconclusive",
        "INCONCLUSIVE (1 run(s) truncated) [PARTIAL: 1 task(s) failed]",
        "**INCONCLUSIVE** (1 run(s) truncated) — **PARTIAL** (1 task(s) failed)",
        2,
    ),
    "violated+truncated": (
        True, False, "truncated", "violated",
        "VIOLATED (1 violation(s))", "**VIOLATED** (1 violation(s))", 1,
    ),
    "no run+partial": (
        False, True, None, "partial",
        "HOLDS [PARTIAL: 1 task(s) failed]",
        "**HOLDS** — **PARTIAL** (1 task(s) failed)",
        2,
    ),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", KINDS)
def test_every_form_shows_the_one_verdict(kind, case):
    build, subject, header = KINDS[kind]
    violated, partial, completeness, verdict, phrase, markdown_phrase, exit_code = CASES[case]
    result = build(violated, partial, completeness)
    rendered = ResultView(result, policy_names="loop", title="t").render(["markdown", "document"])

    assert result.verdict == verdict
    assert result.summary().split("; ")[0] == f"{subject}: {phrase}"
    assert rendered["markdown"].splitlines()[2] == f"{header}: {markdown_phrase}"
    assert rendered["kind"] == kind
    assert rendered["verdict"] == rendered["document"]["verdict"] == verdict
    assert verdict_exit_code(rendered["verdict"]) == exit_code
    assert result.holds == (not violated) and result.complete == (not partial)
