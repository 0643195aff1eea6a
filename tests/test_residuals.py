"""Residuals over Q: the difference lhs - rhs of every identity is formed by
``Field.residual`` in ``linalg``, on integer numerators, and gives the
verdicts that plain ``Fraction`` subtraction gives."""

import argparse
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bgd import linalg
from bgd.bialgebroid import check_comodule, check_left_bialgebroid
from bgd.cli import HANDLERS
from bgd.fixtures import Q_FIXTURES, regular_comodule
from bgd.hopf import comodule_translation_report, translation_report
from bgd.jsonio import export_spec, parse_spec
from bgd.report import Report

QQ = linalg.Field.rationals()
STRUCTURE = ("s_map", "t_map", "delta", "counit")


def _outcomes(b):
    """(check_id, status, where, witness) of every item of the residual
    batteries on b, in order; a battery that raises gives its error."""
    com = regular_comodule(b, "left")
    runs = (lambda: check_left_bialgebroid(b), lambda: translation_report(b),
            lambda: check_comodule(com), lambda: comodule_translation_report(com))
    out = []
    for run in runs:
        try:
            out += [(i.check_id, i.status, i.where, i.witness) for i in run().items]
        except ValueError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def test_no_fraction_subtraction_outside_linalg(monkeypatch):
    # rref's own Fraction arithmetic stays in linalg; every residual
    # difference goes through Field.residual or Field.sub
    callers = Counter()
    for name in ("__sub__", "__rsub__"):
        def spy(self, other, op=getattr(Fraction, name)):
            frame = sys._getframe(1)
            callers[f"{Path(frame.f_code.co_filename).name}:{frame.f_lineno}"] += 1
            return op(self, other)
        monkeypatch.setattr(Fraction, name, spy)
    args = argparse.Namespace(side=None, element=None)
    for build in Q_FIXTURES.values():
        _outcomes(build())
        for handler in HANDLERS.values():
            handler(build(), args)
    assert callers, "the spy saw no Fraction subtraction at all"
    outside = {site: n for site, n in callers.items() if not site.startswith("linalg.py:")}
    assert not outside


def test_no_fraction_products_in_numpy_kron(monkeypatch):
    # u (x) 1 and its kin are contractions over the empty axis, read on
    # numerators, not np.kron over Fraction object arrays
    callers = Counter()
    for name in ("__mul__", "__rmul__"):
        def spy(self, other, op=getattr(Fraction, name)):
            frame, site = sys._getframe(1), "elsewhere"
            while frame is not None:
                if frame.f_code.co_name == "kron" and "numpy" in frame.f_code.co_filename:
                    site = "np.kron"
                frame = frame.f_back
            callers[site] += 1
            return op(self, other)
        monkeypatch.setattr(Fraction, name, spy)
    args = argparse.Namespace(side=None, element=None)
    for build in Q_FIXTURES.values():
        for handler in HANDLERS.values():
            handler(build(), args)
    assert callers["elsewhere"], "the spy saw no Fraction product at all"
    assert not callers["np.kron"]


def test_add_residual_skips_shared_zeros(monkeypatch):
    # the first nonzero is found by identity against the shared zero, so a
    # zero residual costs no Fraction.__bool__; a nonzero one still reports
    # the first nonzero entry, even after a zero that is not the shared one
    calls = Counter()

    def spy(self, op=Fraction.__bool__):
        calls["bool"] += 1
        return op(self)
    monkeypatch.setattr(Fraction, "__bool__", spy)
    rep = Report("spy")
    labels = [["a", "b"], ["x", "y", "z"]]
    assert rep.add_residual("zero", QQ.zeros((2, 3)), labels)
    assert not calls
    res = QQ.zeros((2, 3))
    res[0, 2], res[1, 1] = Fraction(0), Fraction(1, 2)
    assert not rep.add_residual("one", res, labels)
    assert rep.items[-1].where == "b, y"


def _corrupted(name, key, seed):
    """The spec of the Q fixture ``name`` with one entry of the structure
    map ``key`` moved by a nonzero rational, chosen by ``seed``.  A row of
    delta is a coordinate of U (x) U, and moves the class in U (x)_A U only
    where its basis tensor is not a relation: one of ``T0.coords``."""
    b = Q_FIXTURES[name]()
    doc = export_spec(b)
    rng = np.random.default_rng(seed)
    rows = doc["bialgebroid"][key]
    i = int(rng.choice(b.T0.coords if key == "delta" else len(rows)))
    j = int(rng.integers(len(rows[i])))
    step = Fraction(int(rng.choice([-2, -1, 1, 2])), int(rng.integers(1, 4)))
    rows[i][j] = str(Fraction(rows[i][j]) + step)
    return doc


CORRUPTIONS = [(name, key, seed) for name in ("pair-Q-2", "env-Q-2")
               for key in ("delta", "s", "t", "counit") for seed in (0, 1)]


@pytest.mark.parametrize("name, key, seed", CORRUPTIONS)
def test_failing_residuals_match_plain_fractions(name, key, seed, monkeypatch):
    doc = _corrupted(name, key, seed)
    got = _outcomes(parse_spec(doc))
    with monkeypatch.context() as mp:
        # the difference as object arrays of Fractions, entry by entry
        mp.setattr(linalg.Field, "residual",
                   lambda self, lhs, rhs: np.asarray(lhs) - np.asarray(rhs))
        want = _outcomes(parse_spec(doc))
    assert got == want
    assert any(item[1] == "fail" for item in got if len(item) == 4)


def _zeros_shared(a):
    """Whether every zero entry of the object array a is ``linalg._ZERO``."""
    return all(x is linalg._ZERO for x in np.asarray(a).ravel().tolist() if x == 0)


@pytest.mark.parametrize("name", sorted(Q_FIXTURES))
def test_structure_tensors_hold_the_shared_zero(name):
    b = Q_FIXTURES[name]()
    for built in (b, parse_spec(export_spec(b))):
        tensors = {f"{alg}.{attr}": getattr(getattr(built, alg), attr)
                   for alg in ("A", "U") for attr in ("mul", "unit")}
        tensors.update((attr, getattr(built, attr)) for attr in STRUCTURE)
        assert {k for k, t in tensors.items() if not _zeros_shared(t)} == set(), built.name
