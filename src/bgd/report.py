"""Structured pass/fail reports shared by all checkers."""

from dataclasses import dataclass, field

import numpy as np

from .linalg import _numerators


@dataclass
class CheckItem:
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    witness: str | None = None
    # where a failed identity first fails, as basis labels; shown by
    # to_text only, so serialized reports do not change
    where: str | None = None

    @property
    def ok(self):
        return self.status != "fail"


@dataclass
class Report:
    subject: str
    items: list = field(default_factory=list)

    def add(self, check_id, ok, witness=None):
        status = "pass" if ok else "fail"
        self.items.append(CheckItem(check_id, status, None if ok else witness))
        return ok

    def add_residual(self, check_id, residual, labels=(), witness=None):
        """Add an item that passes when ``residual``, lhs - rhs of an
        identity, is zero in the field; its entries are read as a product
        or ``Field.sub`` returns them, reduced into [0, p) over F_p.  Its
        leading axes run over basis elements named by ``labels``, one list
        per axis, in the order the identity is read.  On a failure the
        first nonzero entry in that order gives ``where``, and ``witness``,
        if given, is called with its leading indices to give the witness
        text."""
        at, nums, _ = _numerators(np.asarray(residual))  # Q's shared zeros skipped
        first = next((i for i, x in zip(at, nums) if x), None)
        if first is None:
            return self.add(check_id, True)
        idx = np.unravel_index(first, np.shape(residual))[:len(labels)]
        idx = [int(i) for i in idx]
        self.add(check_id, False, witness and witness(*idx))
        self.items[-1].where = ", ".join(lab[i] for lab, i in zip(labels, idx)) or None
        return False

    def skip(self, check_id, reason=None):
        self.items.append(CheckItem(check_id, "skipped", reason))

    def extend(self, other):
        self.items.extend(other.items)

    @property
    def ok(self):
        return all(item.ok for item in self.items)

    @property
    def failures(self):
        return [item for item in self.items if not item.ok]

    def to_dict(self):
        return {
            "subject": self.subject,
            "ok": self.ok,
            "items": [
                {"check_id": i.check_id, "status": i.status, "witness": i.witness}
                for i in sorted(self.items, key=lambda i: i.check_id)
            ],
        }

    def to_text(self):
        lines = [f"{self.subject}: {'OK' if self.ok else 'FAILED'}"]
        for item in self.failures:
            lines.append(
                f"  FAIL {item.check_id}"
                + (f": {item.witness}" if item.witness else "")
                + (f" (at {item.where})" if item.where else "")
            )
        for item in self.items:
            if item.status == "skipped":
                lines.append(f"  SKIP {item.check_id}" + (f": {item.witness}" if item.witness else ""))
        n_pass = sum(1 for i in self.items if i.status == "pass")
        lines.append(f"  {n_pass}/{len(self.items)} checks passed")
        return "\n".join(lines)
