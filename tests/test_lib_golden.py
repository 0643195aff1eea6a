"""Golden check of the library's matrices, alongside the CLI golden.

For every preset, for ``rank_n_truncated(2, 2)`` and ``(3, 1)``, and for
the two cases of ``Q_FIXTURES`` over Q with ``dim A = 2`` (the pair
groupoid ``M_2(Q)`` over ``Q^2``, with s = t, and
``Q[x]/(x^2) (x) Q[x]/(x^2)^op``, with s != t),
``lib_golden.json`` stores the sha256 of the dtype, shape and entries of
each value below: the Hopf-Galois and translation maps, the comodule maps
of both regular comodules and their induced actions and dual modules,
the structure maps of both duals, the dual actions and pairing maps, the
integral data, the counit and multiplication splittings, the Frobenius
systems, the comparison map, the Hopf-module coactions on the duals and
the fundamental maps.  The integral entries of the pair case pin the
answer of the bounded generator search over Q.

The ``verdict.*`` entries pin the batteries: ``(check_id, status,
witness)`` of every item of the bialgebroid, translation, comodule,
comodule translation, Hopf-module and Maschke reports, and whether the
Frobenius systems verify.  So that ``fail`` verdicts are pinned too, the
cases include a seeded single-entry corruption of each of Delta, s, t and
eps on ``rank1-dual-numbers``, ``crossed`` and ``trunc-2-2``; there the
Frobenius systems verified are those of the uncorrupted case.  Where a call raises,
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
from bgd.algebra import AlgebraPresentation
from bgd.bialgebroid import LeftBialgebroid, check_comodule, check_left_bialgebroid
from bgd.report import Report
from bgd.fixtures import FIXTURES, Q_FIXTURES, rank_n_truncated, regular_comodule

GOLDEN = pathlib.Path(__file__).with_name("lib_golden.json")


CASES = dict(FIXTURES)
CASES["trunc-2-2"] = lambda: rank_n_truncated(2, 2)
CASES["trunc-3-1"] = lambda: rank_n_truncated(3, 1)
CASES["pair-Q-2"] = Q_FIXTURES["pair-Q-2"]
CASES["env-Q-2"] = Q_FIXTURES["env-Q-2"]

# corrupted case -> the case it corrupts
CLEAN = {}


def _corrupt(case, key, seed):
    """``case`` with one entry of the structure map ``key`` (delta, s, t,
    counit, or the multiplication ``A.mul`` or ``U.mul``) moved by a nonzero
    scalar, both chosen by ``seed``."""
    b = CASES[case]()
    f = b.field
    maps = {"delta": b.delta, "s": b.s_map, "t": b.t_map, "counit": b.counit}
    maps = {k: v.copy() for k, v in maps.items()}
    algs = {"A": b.A, "U": b.U}
    rng = np.random.default_rng(seed)
    m = maps[key] if key in maps else algs[key[0]].mul.copy()
    idx = tuple(int(rng.integers(n)) for n in m.shape)
    m[idx] = f.canon(m[idx] + int(rng.integers(1, f.p)))
    if key not in maps:
        alg = algs[key[0]]
        algs[key[0]] = AlgebraPresentation(f, m, alg.unit, alg.labels)
    return LeftBialgebroid(algs["A"], algs["U"], maps["s"], maps["t"], maps["delta"],
                           maps["counit"], name=f"{b.name}-bad-{key}")


for _seed, (_case, _key) in enumerate(
        (c, k) for c in ("rank1-dual-numbers", "crossed", "trunc-2-2")
        for k in ("delta", "s", "t", "counit")):
    CASES[f"{_case}-bad-{_key}"] = (
        lambda c=_case, k=_key, sd=_seed: _corrupt(c, k, sd))
    CLEAN[f"{_case}-bad-{_key}"] = _case


def _digest(value):
    if isinstance(value, Report):
        return [f"{i.check_id} {i.status} {i.witness!r}" for i in value.items]
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


def _values(b, clean):
    """(name, thunk) for every value the golden pins; ``clean`` is the
    uncorrupted bialgebroid whose Frobenius systems are verified on b."""
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
            (f"induced_action.{side}", lambda c=com: c().induced_action),
            (f"comodule_to_dual_module.{side}",
             lambda c=com: duals.comodule_to_dual_module(b, c())[1]),
            (f"verdict.comodule.{side}", lambda c=com: check_comodule(c())),
            (f"verdict.comodule_translation.{side}",
             lambda c=com: hopf.comodule_translation_report(c())),
        ]
    for tag, dual in (("u_lower_star", duals.left_dual),
                      ("u_upper_star", duals.right_dual)):
        out += [
            (f"{tag}.{key}", lambda dual=dual, get=get: get(dual(b)))
            for key, get in (
                ("mul", lambda w: w.U.mul), ("unit", lambda w: w.U.unit),
                ("s_map", lambda w: w.s_map), ("t_map", lambda w: w.t_map),
                ("counit", lambda w: w.counit),
            )
        ]
        out += [
            (f"dual_action.{kind}.{tag}",
             lambda dual=dual, kind=kind: duals.dual_action(b, dual(b), kind))
            for kind in ("harpoon", "bullet")
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
        ("u_star_hopf_module.coaction",
         lambda: hm.build_u_star_hopf_module(b).comodule.coaction),
        ("u_lower_star_hopf_module.coaction",
         lambda: hm.build_u_lower_star_hopf_module(b).comodule.coaction),
        ("fundamental_ll.u_star",
         lambda: hm.fundamental_ll(b, hm.build_u_star_hopf_module(b))),
        ("fundamental_ll.u_lower_star",
         lambda: hm.fundamental_ll(b, hm.build_u_lower_star_hopf_module(b))),
        ("verdict.bialgebroid", lambda: check_left_bialgebroid(b)),
        ("verdict.translation", lambda: hopf.translation_report(b)),
        ("verdict.maschke", lambda: integrals.maschke_report(b)),
    ]
    for tag, build in (
        ("rl", rl), ("ll", ll),
        ("comparison_domain",
         lambda: hm.ll_hopf_module_from_module(b, b.U.basis_left_mults)),
        ("u_star", lambda: hm.build_u_star_hopf_module(b)),
        ("u_lower_star", lambda: hm.build_u_lower_star_hopf_module(b)),
    ):
        out.append((f"verdict.hopf_module.{tag}",
                    lambda build=build: hm.check_hopf_module(build())))
    for ext in ("via_s", "via_t"):
        out.append((f"verdict.frobenius_verify.{ext}", lambda ext=ext: (
            lambda sysm: None if sysm is None else sysm.verify(b)
        )(frobenius.frobenius_system(clean, ext))))
    return out


def _record(case):
    b = CASES[case]()
    clean = CASES[CLEAN[case]]() if case in CLEAN else b
    rec = {}
    for name, thunk in _values(b, clean):
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
