"""Verification reports: per-check results with witnesses."""

from __future__ import annotations

PASS = "pass"
FAIL = "fail"
NOT_CHECKED = "not-checked"
EXPECTED_NONIDENTITY = "expected-nonidentity"

_OK_STATUSES = {PASS, NOT_CHECKED, EXPECTED_NONIDENTITY}
# the reason a check over an empty scope carries: it passes, comparing nothing
VACUOUS = "vacuous: no item in scope"


class Check:
    """One claim with its status, and the witness of a failure."""

    def __init__(self, claim: str, statement: str, status: str,
                 witness: str | None = None):
        if status == FAIL and witness is None:
            raise ValueError("a failing check must carry a witness")
        self.claim, self.statement = claim, statement
        self.status, self.witness = status, witness

    def to_dict(self):
        d = {"claim": self.claim, "statement": self.statement,
             "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class Report:
    """The checks of one suite, in the order they were added."""

    def __init__(self, suite: str, checks: list[Check] | None = None):
        self.suite = suite
        self.checks = [] if checks is None else checks

    def add(self, claim, statement, status, witness=None):
        self.checks.append(Check(claim, statement, status, witness))

    def first_failure(self, claim, statement, items, failure) -> bool:
        """Add one check over ``items``: ``failure(item)`` returns None when
        the item passes, else its witness.  FAIL with the first witness,
        PASS when every item passes, with the reason :data:`VACUOUS` when
        there is none; return whether it passed.  Items after the first
        failure are not examined."""
        empty = True
        for item in items:
            empty = False
            bad = failure(item)
            if bad is not None:
                self.add(claim, statement, FAIL, bad)
                return False
        self.add(claim, statement, PASS, VACUOUS if empty else None)
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
