"""Violation trails: the event sequence leading to a bad converged state.

When a policy fails, Plankton "writes a trail file describing the execution
path taken to reach the particular converged state" (paper §3.5).  The
:class:`Trail` here is that artifact: the ordered non-deterministic choices
(failures applied, RPVP steps taken) plus a description of the violating
state, renderable as text for operators and inspectable programmatically by
tests.

The trail is also the bottom of the result vocabulary — runs, statistics,
violations and data planes are all built next to or on top of it — so the
one schema helper every result class shares, :func:`document`, lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

_NOTHING: FrozenSet[str] = frozenset()

#: Every class :func:`document` has decorated, in import order (the
#: incremental cache pins the field layout of those it stores).
DOCUMENT_CLASSES: List[type] = []


def _reject(cls: type, document: Dict, names: Sequence[str]) -> None:
    """Canonical documents are strict: a missing key must not be papered over
    by a field default and an unknown key must not be dropped, because the
    reader of a stored document (the result cache) treats any mismatch as
    "not mine" and recomputes."""
    raise ValueError(
        f"{cls.__name__} document has keys {sorted(document)}, expected {sorted(names)}"
    )


def _compile(template: str, fields_: Sequence, leaf: int, nested: Callable, scope: Dict) -> Callable:
    """``exec`` ``template`` (the ``dataclasses`` idiom: one literal per
    class, no per-call loop) around one conversion per field.

    ``fields_`` holds ``(prefix, value expression, spec)`` per field, ``spec``
    being its entry in :func:`document`'s ``codecs`` or None for a scalar;
    the callable a conversion uses — ``spec[leaf]`` of a leaf pair,
    ``nested(Class)`` of a document class — is bound into ``scope``.
    """
    parts = []
    for prefix, value, spec in fields_:
        slot = f"_{len(parts)}"
        if spec is None:
            expression = value
        elif isinstance(spec, tuple):
            scope[slot] = spec[leaf]
            expression = f"{slot}({value})"
        else:
            many = isinstance(spec, list)
            target = spec[0] if many else spec
            scope[slot] = nested(target if isinstance(target, type) else target())
            if many:
                expression = f"[{slot}(item) for item in {value}]"
            else:
                expression = f"None if {value} is None else {slot}({value})"
        parts.append(prefix + expression)
    exec(template % ", ".join(parts), scope)
    return scope["convert"]


def document(
    omit: Iterable[str] = (), adapt: Optional[Tuple[Callable, Callable]] = None, **codecs
):
    """Class decorator: the dataclass's one canonical document.

    Adds ``to_dict(exclude=frozenset())`` and ``from_dict(document)``, a
    lossless, JSON-ready round trip over every dataclass field in field
    order (so a new field is serialised by declaring it).  That document is
    what the incremental cache stores and what the result signatures hash;
    the public ``--json`` / report shapes are separate projections that read
    the objects.

    Scalar fields need no mention.  ``codecs`` names the others, by field:

    * ``field=Class`` — a nested document class (``None`` passes through);
    * ``field=[Class]`` — a list of them;
    * ``field=(to_json, from_json)`` — a leaf value JSON cannot carry as
      is (a tuple, an enum, a prefix);
    * in place of ``Class``, a zero-argument function returning it, for a
      class the defining module cannot import.

    ``omit`` lists fields that are not part of the document at all (live
    objects; ``from_dict`` leaves them at their default).  ``adapt`` is an
    optional ``(written, reading)`` pair for a document whose shape is not
    field by field: ``written(instance, document)`` returns the document
    ``to_dict`` hands out, ``reading(document)`` the one ``from_dict``
    reads (it must not mutate its argument).  ``exclude`` is a
    frozenset of field names — bare (``"elapsed_seconds"``, dropped in every
    class) or qualified (``"TaskFailure.message"``) — left out of this
    document and of every nested one.

    Both directions sit on the cache's and the daemon's per-request path, so
    they are compiled rather than interpreted: ``document_writer(exclude)``
    and ``document_reader()`` build, once per class (and per distinct
    ``exclude``), one function holding the dict literal / constructor call
    with the nested classes' functions bound in; ``to_dict`` / ``from_dict``
    call those.  Compilation happens on first use, when every late-bound
    class can be imported.
    """

    def decorate(cls):
        names = tuple(f.name for f in fields(cls) if f.name not in omit)
        compiled: Dict[object, Callable] = {}  # exclude -> writer; "read" -> reader

        def document_writer(exclude: FrozenSet[str] = _NOTHING) -> Callable:
            """``instance -> document`` without the ``exclude`` fields."""
            if exclude not in compiled:
                compiled[exclude] = _compile(
                    "def convert(self): return {%s}",
                    [
                        (f"{name!r}: ", f"self.{name}", codecs.get(name))
                        for name in names
                        if not {name, f"{cls.__name__}.{name}"} & exclude
                    ],
                    0,
                    lambda nested: _writer_of(nested, exclude),
                    {},
                )
                if adapt is not None:
                    written, write = adapt[0], compiled[exclude]
                    compiled[exclude] = lambda value: written(value, write(value))
            return compiled[exclude]

        def document_reader() -> Callable:
            """``document -> instance``; strict about the key set."""
            if "read" not in compiled:
                # Same size and every expected key read (a KeyError
                # otherwise): the key sets are equal without comparing them
                # on the hot path.
                compiled["read"] = _compile(
                    f"def convert(document):\n    if len(document) != {len(names)}:\n"
                    "        reject(cls, document, names)\n    return cls(%s)",
                    [(f"{name}=", f"document[{name!r}]", codecs.get(name)) for name in names],
                    1,
                    _reader_of,
                    {"cls": cls, "names": names, "reject": _reject},
                )
                if adapt is not None:
                    reading, read = adapt[1], compiled["read"]
                    compiled["read"] = lambda document: read(reading(document))
            return compiled["read"]

        def to_dict(self, exclude: FrozenSet[str] = _NOTHING) -> Dict[str, object]:
            """The canonical document (see :func:`repro.modelcheck.trail.document`)."""
            return document_writer(exclude)(self)

        def from_dict(document: Dict[str, object]):
            """Rebuild an instance from its canonical document (strict keys)."""
            return document_reader()(document)

        cls.document_writer = staticmethod(document_writer)
        cls.document_reader = staticmethod(document_reader)
        cls.to_dict = to_dict
        cls.from_dict = staticmethod(from_dict)
        DOCUMENT_CLASSES.append(cls)
        return cls

    return decorate


def _writer_of(cls: type, exclude: FrozenSet[str]) -> Callable:
    """A nested class's compiled writer, or its hand-written ``to_dict``."""
    if hasattr(cls, "document_writer"):
        return cls.document_writer(exclude)
    return lambda value: value.to_dict(exclude)


def _reader_of(cls: type) -> Callable:
    return cls.document_reader() if hasattr(cls, "document_reader") else cls.from_dict


@document()
@dataclass(frozen=True)
class TrailStep:
    """One event on the path to the violating state."""

    kind: str          # e.g. "failure", "rpvp-step", "note"
    description: str

    def render(self) -> str:
        return f"[{self.kind}] {self.description}"


@document(steps=[TrailStep])
@dataclass
class Trail:
    """The recorded execution path to a policy violation."""

    policy: str
    pec_description: str
    steps: List[TrailStep] = field(default_factory=list)
    violation_description: str = ""
    data_plane_dump: str = ""

    def add(self, kind: str, description: str) -> None:
        """Append one step."""
        self.steps.append(TrailStep(kind=kind, description=description))

    def add_labels(self, kind: str, labels: Sequence[object]) -> None:
        """Append one step per search label, using ``describe()`` when available."""
        for label in labels:
            description = label.describe() if hasattr(label, "describe") else str(label)
            self.add(kind, description)

    def render(self) -> str:
        """The full trail as human-readable text (the "trail file" contents)."""
        lines = [
            f"Policy violation: {self.policy}",
            f"Equivalence class: {self.pec_description}",
            "Execution path:",
        ]
        if not self.steps:
            lines.append("  (deterministic execution; no choices recorded)")
        for position, step in enumerate(self.steps, start=1):
            lines.append(f"  {position:3d}. {step.render()}")
        if self.violation_description:
            lines.append(f"Violation: {self.violation_description}")
        if self.data_plane_dump:
            lines.append("Converged data plane:")
            lines.extend("  " + line for line in self.data_plane_dump.splitlines())
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.steps)
