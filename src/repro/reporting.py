"""Verification reports: structured (JSON) and human-readable (Markdown) output.

Both request kinds finish with a :class:`~repro.core.results.RequestResult`:
a :class:`~repro.core.results.VerificationResult` for ``verify``, a
:class:`repro.transient.TransientCampaignResult` for ``transient``.  The
result decides its own verdict (``RequestResult.verdict``) and the phrase
that spells it (``RequestResult.verdict_phrase``); this module renders the
rest into artefacts that can be archived next to the configuration change
that was checked:

* ``verify_document`` / ``result_to_dict`` and ``transient_campaign_to_dict``
  — the JSON forms, for machines (dashboards, CI gates),
* ``render_markdown`` / ``render_transient_markdown`` — for humans
  (change-review comments, runbooks),
* ``write_report`` — either kind, dispatched on the file suffix,
* :class:`ResultView` — one finished request and every form it is shown in;
  the CLI (local and ``--server``) and the ``repro serve`` daemon all render
  through it, so the three cannot disagree.  It picks the renderers of the
  result's ``kind`` from one table (``_RENDERERS``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:  # renders results, constructs none: the thin client imports this module
    from repro.core.results import PecRunResult, RequestResult, VerificationResult, Violation

PathLike = Union[str, FilePath]


# --------------------------------------------------------------------------- structured form
def violation_to_dict(violation: Violation, include_trail: bool = True) -> Dict[str, object]:
    """The JSON-serialisable form of one violation."""
    document: Dict[str, object] = {
        "policy": violation.policy,
        "pec_index": violation.pec_index,
        "pec": violation.pec_description,
        "failures": violation.failure_description,
        "message": violation.message,
    }
    if include_trail and violation.trail is not None:
        document["trail"] = [step.to_dict() for step in violation.trail.steps]
        if violation.trail.data_plane_dump:
            document["data_plane"] = violation.trail.data_plane_dump
    return document


def pec_run_to_dict(run: PecRunResult) -> Dict[str, object]:
    """The JSON-serialisable form of one per-PEC run."""
    document: Dict[str, object] = {
        "pec_index": run.pec_index,
        "failed_links": list(run.failure.failed_links),
        "converged_states": run.converged_states,
        "checked_states": run.checked_states,
        "suppressed_states": run.suppressed_states,
        "violations": len(run.violations),
        "completeness": run.completeness,
    }
    if run.statistics is not None:
        document["states_expanded"] = run.statistics.states_expanded
        document["unique_states"] = run.statistics.unique_states
        if run.statistics.reduction is not None:
            document["reduction"] = run.statistics.reduction.as_dict()
    return document


def result_to_dict(result: VerificationResult, include_trails: bool = True) -> Dict[str, object]:
    """The complete JSON-serialisable form of a verification result."""
    document: Dict[str, object] = {
        "policies": list(result.policy_names),
        "holds": result.holds,
        "verdict": result.verdict,
        "pecs_analyzed": result.pecs_analyzed,
        "failure_scenarios": result.failure_scenarios,
        "converged_states": result.total_converged_states,
        "states_expanded": result.total_states_expanded,
        "unique_states": result.total_unique_states,
        "approximate_memory_bytes": result.approximate_memory_bytes,
        "elapsed_seconds": round(result.elapsed_seconds, 6),
        "violations": [
            violation_to_dict(violation, include_trail=include_trails)
            for violation in result.violations
        ],
        "pec_runs": [pec_run_to_dict(run) for run in result.pec_runs],
    }
    return _with_accounting(document, result)


def _with_accounting(document: Dict[str, object], result) -> Dict[str, object]:
    """The shared tail of the three result documents: cache accounting when
    the run was incremental, ``complete``/``errors`` when it was partial.
    Both are absent otherwise, so complete cold runs keep their historical
    document shape byte-for-byte."""
    if result.incremental is not None:
        document["incremental"] = result.incremental.to_dict()
    if result.errors:
        document["complete"] = False
        document["errors"] = [failure.as_dict() for failure in result.errors]
    return document


# --------------------------------------------------------------------------- markdown
def render_markdown(result: VerificationResult, title: Optional[str] = None) -> str:
    """The result as a Markdown report (verdict, summary table, violations)."""
    lines: List[str] = []
    lines.append(f"# {title or 'Verification report'}")
    lines.append("")
    lines.append(f"Policies `{', '.join(result.policy_names)}`: {result.verdict_phrase(True)}")
    lines.append("")

    lines.append("| metric | value |")
    lines.append("|---|---|")
    lines.append(f"| PECs analysed | {result.pecs_analyzed} |")
    lines.append(f"| failure scenarios | {result.failure_scenarios} |")
    lines.append(f"| converged states checked | {result.total_converged_states} |")
    lines.append(f"| state expansions | {result.total_states_expanded} |")
    lines.append(f"| elapsed | {result.elapsed_seconds:.3f} s |")
    incremental = result.incremental
    if incremental is not None:
        lines.append(f"| PECs served from cache | {incremental.pecs_from_cache} |")
        lines.append(f"| PECs recomputed | {incremental.pecs_recomputed} |")
        lines.append(
            f"| tasks cached / recomputed | "
            f"{incremental.tasks_from_cache} / {incremental.tasks_recomputed} |"
        )
        if incremental.delta_summary:
            lines.append(f"| config delta | {incremental.delta_summary} |")
    lines.append("")

    if result.violations:
        lines.append("## Violations")
        lines.append("")
        for number, violation in enumerate(result.violations, start=1):
            lines.append(f"### {number}. {violation.policy}")
            lines.append("")
            lines.append(f"* PEC: `{violation.pec_description}`")
            lines.append(f"* failures: {violation.failure_description}")
            lines.append(f"* {violation.message}")
            if violation.trail is not None and len(violation.trail):
                lines.append("")
                lines.append("Event trail:")
                lines.append("")
                lines.append("```")
                lines.append(violation.trail.render())
                lines.append("```")
            lines.append("")
    else:
        lines.append("No violations were found in any explored converged state.")
        lines.append("")
    _append_task_failures(lines, result.errors)
    return "\n".join(lines)


def _append_task_failures(lines: List[str], errors) -> None:
    """The shared "Task failures" Markdown section of partial results."""
    if not errors:
        return
    lines.append("## Task failures")
    lines.append("")
    lines.append(
        "The verdict above covers only the tasks that completed; the "
        "following tasks exhausted their retries and produced no result."
    )
    lines.append("")
    lines.append("| task | kind | PEC | failures | error | attempts |")
    lines.append("|---|---|---|---|---|---|")
    for failure in errors:
        message = failure.message.replace("|", "\\|").replace("\n", " ")
        lines.append(
            f"| {failure.task_id} | {failure.task_kind} | {failure.pec_index} | "
            f"{failure.failure_description} | {failure.kind}: {message} | "
            f"{failure.attempts} |"
        )
    lines.append("")


# --------------------------------------------------------------------------- transient reports
def transient_result_to_dict(result) -> Dict[str, object]:
    """The JSON-serialisable form of one transient exploration result
    (:class:`repro.transient.TransientAnalysisResult`).

    The root's witness is written once, as ``witness_prefix``; each
    violation's ``witness`` holds the deliveries after it, so a violation's
    whole witness is ``witness_prefix + witness``."""
    cut = len(result.witness_prefix)
    document: Dict[str, object] = {
        "holds": result.holds,
        "states_explored": result.states_explored,
        "converged_states": result.converged_states,
        "max_depth_reached": result.max_depth_reached,
        "truncated": result.truncated,
        "completeness": result.completeness,
        "elapsed_seconds": round(result.elapsed_seconds, 6),
        "witness_prefix": list(result.witness_prefix),
        "violations": [
            {
                "property": violation.property_name,
                "message": violation.message,
                "depth": violation.depth,
                "converged": violation.converged,
                "witness": list(violation.witness[cut:]),
            }
            for violation in result.violations
        ],
    }
    if result.reduction is not None:
        document["reduction"] = result.reduction.as_dict()
    return document


def transient_campaign_to_dict(campaign) -> Dict[str, object]:
    """The JSON-serialisable form of a transient campaign
    (:class:`repro.transient.TransientCampaignResult`)."""
    runs: List[Dict[str, object]] = []
    for run in campaign.runs:
        entry: Dict[str, object] = {
            "pec_index": run.pec_index,
            "failed_links": list(run.failure.failed_links),
            "prefix": run.prefix,
            "result": transient_result_to_dict(run.result),
        }
        if run.scenario is not None:
            entry["scenario"] = run.scenario
        runs.append(entry)
    document: Dict[str, object] = {
        "holds": campaign.holds,
        "verdict": campaign.verdict,
        "failure_scenarios": campaign.failure_scenarios,
        "elapsed_seconds": round(campaign.elapsed_seconds, 6),
        "runs": runs,
    }
    if campaign.event_scenarios:
        document["event_scenarios"] = campaign.event_scenarios
    return _with_accounting(document, campaign)


def render_transient_markdown(campaign, title: Optional[str] = None) -> str:
    """A transient campaign as a Markdown report.

    One row per (failure scenario, prefix) run — verdict (``INCONCLUSIVE``
    for a run that holds over a search cut by its state or depth budget),
    states explored, converged states, whether the search stopped at the
    state budget, and the POR transition-reduction ratio — followed by the
    rendered violations.
    """
    lines: List[str] = []
    lines.append(f"# {title or 'Transient analysis report'}")
    lines.append("")
    lines.append(f"Transient properties: {campaign.verdict_phrase(True)}")
    lines.append(f"Failure scenarios: {campaign.failure_scenarios}")
    if campaign.event_scenarios:
        lines.append(f"Event scenarios: {campaign.event_scenarios}")
    incremental = campaign.incremental
    if incremental is not None:
        lines.append("")
        lines.append(
            f"Cache: {incremental.pecs_from_cache}/{incremental.pecs_total} PEC(s) "
            f"served from cache, {incremental.pecs_recomputed} recomputed"
            + (f" — {incremental.delta_summary}" if incremental.delta_summary else "")
        )
    lines.append("")
    # The scenario column appears only when some run carries one, so plain
    # failure campaigns keep their historical table shape.
    with_scenarios = any(run.scenario is not None for run in campaign.runs)
    scenario_header = " scenario |" if with_scenarios else ""
    lines.append(
        f"| failures | prefix |{scenario_header} verdict | states | converged "
        "| at state budget | reduction |"
    )
    lines.append("|---|---|" + ("-" * 3 + "|" if with_scenarios else "") + "---|---|---|---|---|")
    words = campaign.VERDICT_WORDS
    for run in campaign.runs:
        failures = ", ".join(str(link) for link in run.failure.failed_links) or "none"
        result = run.result
        reduction = (
            f"{result.reduction.transition_reduction_ratio():.1f}x "
            f"({result.reduction.mode})"
            if result.reduction is not None
            else "-"
        )
        scenario_cell = f" {run.scenario or 'none'} |" if with_scenarios else ""
        lines.append(
            f"| {failures} | `{run.prefix}` |{scenario_cell} "
            f"{words[_run_verdict(run)]} | "
            f"{result.states_explored} | {result.converged_states} | "
            f"{'yes' if result.truncated else 'no'} | {reduction} |"
        )
    lines.append("")
    if campaign.violations:
        lines.append("## Violations")
        lines.append("")
        for number, violation in enumerate(campaign.violations, start=1):
            lines.append(f"### {number}. {violation.property_name}")
            lines.append("")
            lines.append("```")
            lines.append(violation.render())
            lines.append("```")
            lines.append("")
    else:
        lines.append("No transient violations were found in any explored state.")
        lines.append("")
    _append_task_failures(lines, campaign.errors)
    return "\n".join(lines)


def _run_verdict(run) -> str:
    """One run's own verdict: ``violated``, ``inconclusive`` or ``holds``."""
    if run.violations:
        return "violated"
    return "holds" if run.completeness == "complete" else "inconclusive"


# --------------------------------------------------------------------------- service documents
def verify_document(result: VerificationResult, policy_name: str) -> Dict[str, object]:
    """The compact ``verify --json`` document of one verification result.

    Shared by the CLI's local path and the ``repro serve`` job executor so a
    remote ``--json`` run is byte-identical to the in-process one.
    """
    document: Dict[str, object] = {
        "holds": result.holds,
        "verdict": result.verdict,
        "policy": policy_name,
        "pecs_analyzed": result.pecs_analyzed,
        "failure_scenarios": result.failure_scenarios,
        "converged_states": result.total_converged_states,
        "states_expanded": result.total_states_expanded,
        "elapsed_seconds": round(result.elapsed_seconds, 6),
        "violations": [
            {
                "policy": violation.policy,
                "pec": violation.pec_description,
                "failures": violation.failure_description,
                "message": violation.message,
            }
            for violation in result.violations
        ],
    }
    return _with_accounting(document, result)


def job_to_dict(job) -> Dict[str, object]:
    """The ``GET /v1/jobs/{id}`` document of one :class:`repro.serve.Job`.

    Duck-typed (no serve import) so client-side tooling can render job
    documents without pulling the server package into the process.
    """
    document: Dict[str, object] = {
        "job": job.id,
        "namespace": job.namespace,
        "kind": job.kind,
        "state": job.state,
        "sequence": job.sequence,
        "created_at": job.created_at,
    }
    if job.started_at is not None:
        document["started_at"] = job.started_at
        finished = job.finished_at
        document["elapsed_seconds"] = round(
            (finished if finished is not None else time.time()) - job.started_at, 6
        )
    if job.finished_at is not None:
        document["finished_at"] = job.finished_at
    if job.error is not None:
        document["error"] = job.error
    if job.result is not None:
        document["result"] = job.result
    return document


def metrics_to_dict(metrics) -> Dict[str, object]:
    """The ``GET /metrics`` document of a
    :class:`repro.serve.metrics.ServerMetrics` instance (duck-typed)."""
    return {
        "uptime_seconds": round(metrics.uptime_seconds(), 3),
        "jobs_submitted": metrics.jobs_submitted,
        "jobs_rejected": metrics.jobs_rejected,
        "namespaces": {
            name: counters.as_dict()
            for name, counters in metrics.namespace_counters().items()
        },
    }


# --------------------------------------------------------------------------- request views
#: Process exit codes of the four verdicts.  An *inconclusive* result — a
#: search cut by a budget, bitstate-hashed or with nothing to check — and a
#: *partial* one — some tasks exhausted their retries — exit with
#: ``EXIT_ERROR``: "we could not prove it holds" must never look like
#: "it holds" to a CI gate.  A violation wins over both (a found
#: counterexample is definitive regardless of the rest).
EXIT_HOLDS = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2
_EXIT_CODES = {
    "holds": EXIT_HOLDS,
    "violated": EXIT_VIOLATION,
    "inconclusive": EXIT_ERROR,
    "partial": EXIT_ERROR,
}

#: The forms a finished request can be rendered into, and the ones a push
#: that names none gets.
FORMS = ("document", "text", "report", "markdown")
DEFAULT_FORMS = ("document", "text")


def verdict_exit_code(verdict: object) -> int:
    """The exit code of a rendered ``verdict`` (an unknown one is an error)."""
    return _EXIT_CODES.get(str(verdict), EXIT_ERROR)


@dataclass
class ResultView:
    """One finished ``verify`` or ``transient`` request, ready to be shown.

    Wraps the :class:`~repro.core.results.RequestResult` with what rendering
    needs beyond it: the policy names of the ``--json`` document, the
    Markdown report title, the :class:`~repro.incremental.ConfigDelta` the
    request was verified against (``None`` for a first configuration) and
    an optional note that precedes the text form.  Nothing is rendered
    until :meth:`render` names it.
    """

    result: RequestResult
    policy_names: str = ""
    title: Optional[str] = None
    delta: Any = None
    note: Optional[str] = None

    def signature(self) -> str:
        """The wall-clock-free digest two equal results share."""
        from repro.incremental import result_signature_digest

        return result_signature_digest(self.result)

    def counts(self) -> Dict[str, int]:
        """What the request adds to the ``/metrics`` counters of its namespace
        (keys are :class:`repro.serve.metrics.NamespaceCounters` fields)."""
        result = self.result
        counts = {"violations": len(result.violations), "states_explored": result.states_explored}
        incremental = result.incremental
        if incremental is not None:
            counts["pecs_from_cache"] = incremental.pecs_from_cache
            counts["pecs_recomputed"] = incremental.pecs_recomputed
            counts["dirty_pecs"] = len(incremental.dirty_pecs)
        return counts

    def text(self) -> str:
        """The text form: the note, the summary, the cache line, then every
        violation and failed task."""
        result = self.result
        lines = [self.note] if self.note else []
        lines.append(result.summary())
        if result.incremental is not None:
            lines.append(result.incremental.describe())
        for entry in (*result.violations, *result.errors):
            lines.extend(("", entry.render()))
        return "\n".join(lines)

    def render(self, forms: Sequence[str]) -> Dict[str, object]:
        """The ``result`` of a job document: ``kind``, ``verdict``, the
        multi-line ``delta`` (its first line is the one-line summary) when
        there is one, and each of ``forms`` (names from :data:`FORMS`)."""
        rendered: Dict[str, object] = {"kind": self.result.kind, "verdict": self.result.verdict}
        if self.delta is not None:
            rendered["delta"] = self.delta.describe()
        renderers = _RENDERERS[self.result.kind]
        built: Dict[Any, object] = {}
        for form in forms:
            renderer = renderers[form]
            if renderer not in built:
                built[renderer] = renderer(self)
            rendered[form] = built[renderer]
        return rendered


def _campaign_document(view: ResultView) -> Dict[str, object]:
    return transient_campaign_to_dict(view.result)


#: Request kind -> form -> the renderer of a view.  Forms that share a
#: renderer share its output: a campaign's ``--json`` document and its JSON
#: report are one (large) document, built once.
_RENDERERS = {
    "verify": {
        "text": ResultView.text,
        "document": lambda view: verify_document(view.result, view.policy_names),
        "report": lambda view: result_to_dict(view.result),
        "markdown": lambda view: render_markdown(view.result, title=view.title),
    },
    "transient": {
        "text": ResultView.text,
        "document": _campaign_document,
        "report": _campaign_document,
        "markdown": lambda view: render_transient_markdown(view.result, title=view.title),
    },
}


# --------------------------------------------------------------------------- files
def report_form(path: PathLike) -> str:
    """The form a report file holds: ``report`` for ``.json``, else ``markdown``."""
    return "report" if FilePath(path).suffix.lower() == ".json" else "markdown"


def write_rendered_report(rendered: Dict[str, object], path: PathLike) -> FilePath:
    """Write the :func:`report_form` of ``path`` out of ``rendered`` forms."""
    file_path = FilePath(path)
    if report_form(path) == "report":
        file_path.write_text(json.dumps(rendered["report"], indent=2) + "\n")
    else:
        file_path.write_text(str(rendered["markdown"]))
    return file_path


def write_report(result: RequestResult, path: PathLike, title: Optional[str] = None) -> FilePath:
    """Write a ``verify`` or ``transient`` result to ``path``; JSON for
    ``.json``, Markdown otherwise."""
    return write_rendered_report(ResultView(result, title=title).render([report_form(path)]), path)


# Kept only for perf/tracing.py's TARGETS table: write_report takes either kind.
def write_transient_report(campaign, path: PathLike, title: Optional[str] = None) -> FilePath:
    return write_report(campaign, path, title)
