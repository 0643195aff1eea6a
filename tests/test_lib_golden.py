"""Golden check of the library's matrices, alongside the CLI golden.

For every preset and for ``rank_n_truncated(2, 2)`` and ``(3, 1)``,
``lib_golden.json`` stores the sha256 of the dtype, shape and entries of
each value below: the Hopf-Galois and translation maps, the comodule maps
of both regular comodules, the dual ``U_*`` and its pairing maps, the
integral data, the counit and multiplication splittings, the Frobenius
systems, the comparison map and the fundamental maps.  Where a call raises,
only the exception type is stored, so a reworded message does not count as
a change.  A refactoring that moves one entry of one of these matrices
fails here.

Regenerate (only when the values are meant to change) with
``PYTHONPATH=src python tests/test_lib_golden.py``.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from bgd import duals, frobenius, hopf, hopf_modules, integrals
from bgd.fixtures import FIXTURES, rank_n_truncated, regular_comodule

GOLDEN = pathlib.Path(__file__).with_name("lib_golden.json")

CASES = dict(FIXTURES)
CASES["trunc-2-2"] = lambda: rank_n_truncated(2, 2)
CASES["trunc-3-1"] = lambda: rank_n_truncated(3, 1)


def _digest(value):
    if isinstance(value, np.ndarray):
        h = hashlib.sha256()
        h.update(f"{value.dtype}|{value.shape}|".encode())
        h.update(",".join(str(x) for x in value.ravel()).encode())
        return h.hexdigest()
    if isinstance(value, (list, tuple)):
        return [_digest(v) for v in value]
    if isinstance(value, integrals.IntegralSpace):
        return {
            "basis": _digest(value.basis),
            "generator": _digest(value.generator),
            "free_rank_one": value.free_rank_one,
            "projective_summand": value.projective_summand,
        }
    if isinstance(value, frobenius.FrobeniusSystem):
        return {
            "theta": _digest(value.theta),
            "pairs": _digest(value.pairs),
            "t0": _digest(value.t0),
        }
    if value is None or isinstance(value, (bool, np.bool_)):
        return None if value is None else bool(value)
    raise TypeError(f"no digest for {type(value).__name__}")


def _values(b):
    """(name, thunk) for every value the golden pins."""
    hm = hopf_modules
    rl = lambda: hm.rl_hopf_module_from_base_module(b, b.A.basis_left_mults)
    ll = lambda: hm.ll_hopf_module_from_base_module(b, b.A.basis_right_mults)
    out = [
        ("alpha_l", lambda: hopf.alpha_left(b)),
        ("alpha_r", lambda: hopf.alpha_right(b)),
        ("translate_left", lambda: hopf.translate_left_mat(b)),
        ("translate_right", lambda: hopf.translate_right_mat(b)),
    ]
    for side in ("left", "right"):
        com = lambda side=side: regular_comodule(b, side)
        out += [
            (f"comodule_alpha.{side}", lambda c=com: hopf.comodule_alpha(c())),
            (f"comodule_translate.{side}",
             lambda c=com: hopf.comodule_translate_mat(c())),
            (f"side_switch.{side}",
             lambda c=com: hopf.side_switch(c()).coaction),
        ]
    out += [
        ("u_lower_star.funcs", lambda: duals.left_dual(b).funcs),
        ("u_lower_star.delta", lambda: duals.left_dual(b).delta),
        ("s_side_dual_basis", lambda: duals._s_side_dual_basis(b)),
        ("s_upper_star", lambda: duals.s_upper_star(b)),
        ("s_lower_star", lambda: duals.s_lower_star(b)),
        ("left_integrals", lambda: integrals.left_integrals(b)),
        ("right_integrals_of_left", lambda: integrals.right_integrals_of_left(b)),
        ("dual_right_integrals",
         lambda: integrals.right_integrals(duals.left_dual(b))),
        ("normalized_left_integral", lambda: integrals.normalized_left_integral(b)),
        ("separability", lambda: integrals.separability_check(b)),
        ("counit_splitting", lambda: integrals.counit_splitting(b)),
        ("frobenius_system.via_s", lambda: frobenius.frobenius_system(b, "via_s")),
        ("frobenius_system.via_t", lambda: frobenius.frobenius_system(b, "via_t")),
        ("comparison_map", lambda: hm.comparison_map(b, b.U.basis_left_mults)),
        ("fundamental_rl", lambda: hm.fundamental_rl(b, rl())),
        ("fundamental_ll", lambda: hm.fundamental_ll(b, ll())),
        ("fundamental_ll.u_star",
         lambda: hm.fundamental_ll(b, hm.build_u_star_hopf_module(b))),
        ("fundamental_ll.u_lower_star",
         lambda: hm.fundamental_ll(b, hm.build_u_lower_star_hopf_module(b))),
    ]
    return out


def _record(case):
    b = CASES[case]()
    rec = {}
    for name, thunk in _values(b):
        try:
            rec[name] = _digest(thunk())
        except Exception as exc:  # the type is the contract, not the text
            rec[name] = {"raises": type(exc).__name__}
    return rec


def test_golden_covers_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_library_values_match_golden(case):
    want = json.loads(GOLDEN.read_text())[case]
    got = _record(case)
    changed = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    assert not changed, f"{case}: values changed: {changed}"


if __name__ == "__main__":
    runs = {case: _record(case) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
