"""Structured results for verification checks.

Every check in the package returns a ``CheckReport`` rather than a bare
boolean, so that a failing run always carries the first violating witness
and enough detail to reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Witness:
    """First violation found by a check.

    ``subset`` is a coordinate subset S, ``outcome`` the relevant (projected)
    outcome values, ``event`` a sorted tuple of outcome indices, and
    ``message`` a human-readable account of the disagreement.
    """

    message: str
    subset: Optional[tuple[str, ...]] = None
    outcome: Optional[tuple[int, ...]] = None
    event: Optional[tuple[int, ...]] = None

    def to_dict(self) -> dict:
        return {
            "message": self.message,
            "subset": list(self.subset) if self.subset is not None else None,
            "outcome": list(self.outcome) if self.outcome is not None else None,
            "event": list(self.event) if self.event is not None else None,
        }

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks.  A witness made
        # by ``_deferred_witness`` lacks its message until the first read,
        # which formats it and drops what it was made from.  Attributes are
        # set through ``object``, as the frozen dataclass's own __init__
        # does, so the instance keeps the compact layout of an eager one.
        # Two threads reading at once may both format; both store one text.
        if name != "message":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        pending = object.__getattribute__(self, "_pending")
        if pending is not None:
            fmt, args = pending
            object.__setattr__(self, "message", fmt(*args))
            object.__setattr__(self, "_pending", None)
        return object.__getattribute__(self, "message")

    def __reduce__(self):
        # copies and pickles carry the text, never the deferred formatter
        return (type(self), (self.message, self.subset, self.outcome, self.event))


def _deferred_witness(subset: Optional[tuple[str, ...]], fmt: Callable[..., str],
                      *args) -> Witness:
    """A ``Witness`` on ``subset`` whose message is ``fmt(*args)``, formatted
    the first time it is read.

    Until then the witness holds ``args`` instead of the text; after that
    it holds the text and no longer ``args``.  It equals
    ``Witness(message=fmt(*args), subset=subset)`` in every field, hash
    and ``repr``, and copies and pickles as that plain witness.
    """
    witness = object.__new__(Witness)
    for name, value in (("subset", subset), ("outcome", None), ("event", None),
                        ("_pending", (fmt, args))):
        object.__setattr__(witness, name, value)
    return witness


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check, possibly aggregating sub-checks."""

    check: str
    passed: bool
    witness: Optional[Witness] = None
    details: tuple[str, ...] = ()
    subreports: tuple["CheckReport", ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "witness": self.witness.to_dict() if self.witness else None,
            "details": list(self.details),
            "subreports": [r.to_dict() for r in self.subreports],
        }

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        mark = "PASS" if self.passed else "FAIL"
        lines = [f"{pad}[{mark}] {self.check}"]
        if self.witness is not None:
            lines.append(f"{pad}  witness: {self.witness.message}")
        for note in self.details:
            lines.append(f"{pad}  note: {note}")
        for sub in self.subreports:
            lines.append(sub.render(indent + 1))
        return "\n".join(lines)


def _report(check: str, passed: bool, witness: Optional[Witness]) -> CheckReport:
    """``CheckReport(check, passed, witness)`` without the frozen dataclass's
    ``__init__``, for a scan that makes one report per subset.

    The fields are stored in declaration order, as ``__init__`` stores
    them, so the report equals the plain one in every field, ``==``,
    hash, ``repr`` and pickle.
    """
    report = object.__new__(CheckReport)
    fields = report.__dict__
    fields["check"] = check
    fields["passed"] = passed
    fields["witness"] = witness
    fields["details"] = ()
    fields["subreports"] = ()
    return report


def combine(check: str, reports: list[CheckReport], details: tuple[str, ...] = ()) -> CheckReport:
    """Aggregate sub-reports; the combined witness is the first failing one."""
    passed = all(r.passed for r in reports)
    witness = next((r.witness for r in reports if not r.passed and r.witness), None)
    return CheckReport(
        check=check,
        passed=passed,
        witness=witness,
        details=details,
        subreports=tuple(reports),
    )
