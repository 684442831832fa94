"""Verification reports: per-check results with witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
NOT_CHECKED = "not-checked"
EXPECTED_NONIDENTITY = "expected-nonidentity"

_OK_STATUSES = {PASS, NOT_CHECKED, EXPECTED_NONIDENTITY}


@dataclass
class Check:
    claim: str
    statement: str
    status: str
    witness: str | None = None

    def __post_init__(self):
        if self.status == FAIL and self.witness is None:
            raise ValueError("a failing check must carry a witness")

    def to_dict(self):
        d = {"claim": self.claim, "statement": self.statement,
             "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class Report:
    suite: str
    checks: list[Check] = field(default_factory=list)

    def add(self, claim, statement, status, witness=None):
        self.checks.append(Check(claim, statement, status, witness))

    def first_failure(self, claim, statement, items, failure) -> bool:
        """Add one check over ``items``: ``failure(item)`` returns None when
        the item passes, else its witness.  FAIL with the first witness,
        PASS when every item passes; return whether it passed.  Items after
        the first failure are not examined."""
        for item in items:
            bad = failure(item)
            if bad is not None:
                self.add(claim, statement, FAIL, bad)
                return False
        self.add(claim, statement, PASS)
        return True

    def per_label(self, claim, statement, labels, predicate) -> bool:
        """``first_failure`` with the first label failing ``predicate`` as
        witness."""
        return self.first_failure(
            claim, statement, labels,
            lambda label: None if predicate(label) else witness_of(label))

    def ok(self) -> bool:
        return all(c.status in _OK_STATUSES for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == FAIL]

    def to_dict(self):
        return {"suite": self.suite, "ok": self.ok(),
                "checks": [c.to_dict() for c in self.checks]}

    def render_text(self):
        lines = [f"suite {self.suite}: {'PASS' if self.ok() else 'FAIL'}"]
        for c in self.checks:
            line = f"  [{c.status:>20}] {c.claim}: {c.statement}"
            if c.witness:
                line += f"  <- {c.witness}"
            lines.append(line)
        return "\n".join(lines)


def witness_of(label_or_element, value=None) -> str:
    """Serialize a failing input (label or element) and its value."""
    if value is None:
        return repr(label_or_element)
    return f"{label_or_element!r} -> {value!r}"
