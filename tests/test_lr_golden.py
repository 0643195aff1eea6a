"""Golden check of the Lie-Rinehart layer.

For the four ``LR_FIXTURES``, ``rank_n_truncated_lr(2, 3)``,
``rank_n_truncated_lr(3, 2)`` and ``abelian_lr(3, 2)``, and for 12 seeded
single-entry corruptions of each (four of the bracket constants, four of
one anchor, four of the p-operation), ``lr_golden.json`` stores:

* ``(check_id, status, witness)`` of every item of ``lr.check()`` and of
  ``enveloping_report(restricted_enveloping(lr))``;
* the sha256 of the dtype, shape and entries of ``bracket_of(x, y)`` and
  ``anchor_of(x)`` on seeded elements x, y of L.

Where a call raises, only the exception type is stored, so a reworded
message does not count as a change.

Regenerate (only when the values are meant to change) with
``PYTHONPATH=src python tests/test_lr_golden.py``.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from bgd.fixtures import LR_FIXTURES, abelian_lr, rank_n_truncated_lr
from bgd.lie_rinehart import RestrictedLieRinehart, enveloping_report, restricted_enveloping

GOLDEN = pathlib.Path(__file__).with_name("lr_golden.json")

CASES = dict(LR_FIXTURES)
CASES["trunc-2-3"] = lambda: rank_n_truncated_lr(2, 3)
CASES["trunc-3-2"] = lambda: rank_n_truncated_lr(3, 2)
CASES["abelian-3-2"] = lambda: abelian_lr(3, 2)

KEYS = ("bracket", "anchor", "pops")


def _corrupt(case, key, seed):
    """``case`` with one entry of its bracket constants, of one anchor or
    of its p-operation moved by a nonzero scalar, all chosen by ``seed``."""
    lr = CASES[case]()
    f = lr.field
    rng = np.random.default_rng(seed)
    bracket, pops = lr.bracket.copy(), lr.pops.copy()
    anchors = [m.copy() for m in lr.anchors]
    m = {"bracket": bracket, "pops": pops}.get(key)
    if m is None:
        m = anchors[int(rng.integers(lr.n))]
    idx = tuple(int(rng.integers(n)) for n in m.shape)
    m[idx] = f.canon(m[idx] + int(rng.integers(1, f.p)))
    return RestrictedLieRinehart(lr.A, lr.n, bracket, anchors, pops,
                                 name=f"{lr.name}-bad-{key}-{seed}")


for _case in list(CASES):
    for _seed in range(12):
        _key = KEYS[_seed % len(KEYS)]
        CASES[f"{_case}-bad-{_key}-{_seed}"] = (
            lambda c=_case, k=_key, sd=_seed: _corrupt(c, k, sd))


def _hash(value):
    value = np.asarray(value)
    h = hashlib.sha256()
    h.update(f"{value.dtype}|{value.shape}|".encode())
    h.update(",".join(str(x) for x in value.ravel()).encode())
    return h.hexdigest()


def _verdicts(rep):
    return [[i.check_id, i.status, i.witness] for i in rep.items]


def _record(case):
    lr = CASES[case]()
    rng = np.random.default_rng(len(case))
    x, y = (lr.field.array(rng.integers(0, lr.p, size=(lr.n, lr.A.dim)))
            for _ in range(2))
    thunks = {
        "check": lambda: _verdicts(lr.check()),
        "enveloping_report": lambda: _verdicts(
            enveloping_report(restricted_enveloping(lr))),
        "bracket_of": lambda: _hash(lr.bracket_of(x, y)),
        "anchor_of": lambda: _hash(lr.anchor_of(x)),
    }
    rec = {}
    for name, thunk in thunks.items():
        try:
            rec[name] = thunk()
        except Exception as exc:  # the type is the contract, not the text
            rec[name] = {"raises": type(exc).__name__}
    return rec


def test_golden_covers_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_lie_rinehart_values_match_golden(case):
    want = json.loads(GOLDEN.read_text())[case]
    got = _record(case)
    changed = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    assert not changed, f"{case}: values changed: {changed}"


if __name__ == "__main__":
    runs = {case: _record(case) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
