"""Verification reports: typed check results with deterministic rendering.

A report is a list of named checks, each carrying a status, a kind tag
(how the conclusion was reached), a human-readable detail line, and a
self-contained statement of the claim being certified.  Rendering is
byte-deterministic: same inputs, same text, same JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "CheckResult",
    "Report",
    "merge_reports",
    "KIND_VERIFIED",
    "KIND_BY_CRITERION",
    "KIND_BY_REPRESENTATION",
]

KIND_VERIFIED = "verified"
# conclusion lines: justified by an already-checked criterion's premises,
# not recomputed from scratch
KIND_BY_CRITERION = "by-criterion"
# facts read off from how an object is represented rather than computed
KIND_BY_REPRESENTATION = "by-representation"

_KINDS = (KIND_VERIFIED, KIND_BY_CRITERION, KIND_BY_REPRESENTATION)


@dataclass(frozen=True)
class CheckResult:
    id: str
    status: str  # "pass" | "fail" | "skip"
    kind: str
    detail: str
    claim: str

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skip"):
            raise ValueError(f"bad status {self.status!r}")
        if self.kind not in _KINDS:
            raise ValueError(f"bad kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "kind": self.kind,
            "detail": self.detail,
            "claim": self.claim,
        }


@dataclass(frozen=True)
class Report:
    scenario: str
    checks: tuple

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def verdict(self) -> str:
        """fail if any check fails, else pass if any check passes, else skip:
        a report made only of skipped checks has certified nothing."""
        statuses = {c.status for c in self.checks}
        if "fail" in statuses:
            return "fail"
        return "pass" if "pass" in statuses else "skip"

    def failing(self) -> tuple:
        return tuple(c for c in self.checks if c.status == "fail")

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "checks": [c.to_dict() for c in self.checks],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        width = max((len(c.id) for c in self.checks), default=0)
        for c in self.checks:
            lines.append(f"  [{c.status}] {c.id.ljust(width)}  {c.kind}: {c.detail}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def merge_reports(name: str, reports: Sequence[Report]) -> Report:
    """Flatten several reports into one, keeping check order."""
    checks = []
    for r in reports:
        checks.extend(r.checks)
    return Report(name, tuple(checks))
