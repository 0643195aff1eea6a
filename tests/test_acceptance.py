"""End-to-end acceptance battery: one printed pass/fail line per criterion."""

import time

import numpy as np

from bgd.duals import left_dual, right_dual, s_lower_star, s_upper_star
from bgd.fixtures import (
    FIXTURES,
    rank_n_truncated,
    regular_comodule,
    trivial_comodule,
)
from bgd.frobenius import frobenius_conditions_report, frobenius_system
from bgd.hopf import (
    comodule_translation_report,
    is_left_hopf,
    is_right_hopf,
    translate_left,
    translation_report,
)
from bgd.hopf_modules import comparison_map, fundamental_ll, fundamental_rl
from bgd.hopf_modules import (
    ll_hopf_module_from_base_module,
    rl_hopf_module_from_base_module,
)
from bgd.integrals import (
    integral_invariance_check,
    left_integrals,
    maschke_report,
    normalized_left_integral,
)
from bgd.lie_rinehart import jet_algebroid, jet_lambda_coords
from bgd.linalg import rank

_T0 = time.monotonic()

HOPF = [
    "base-trivial", "primitive-f2", "group-f3",
    "rank1-dual-numbers", "rank1-dual-numbers-p3", "abelian-n", "crossed",
]
ENV = ["rank1-dual-numbers", "rank1-dual-numbers-p3", "abelian-n", "crossed"]


def _verdict(n, label, ok):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {n} ({label}) failed"


def _orbit_spans(b, vec, space):
    f = b.field
    cols = [f.matmul(b.Rt[a], vec) for a in range(b.A.dim)]
    if not all(space.contains(f.mod(c)) for c in cols):
        return False
    return rank(f, np.stack(cols, axis=1)) == space.dim


def test_criterion_1_jet_integrals():
    ok = True
    for p in (2, 3):
        for n in (1, 2):
            start = time.monotonic()
            b = rank_n_truncated(p, n)
            dual = jet_algebroid(b)
            jet = dual.as_left_bialgebroid()
            sp = left_integrals(jet)
            ok &= sp.free_rank_one and sp.dim == b.A.dim
            expected = jet.U.unit
            for lam in jet_lambda_coords(b, dual):
                expected = jet.U.mult(expected, jet.U.power(lam, p - 1))
            ok &= sp.contains(expected)
            ok &= _orbit_spans(jet, expected, sp)
            ok &= time.monotonic() - start < 10.0
    _verdict(1, "jet integrals free of rank one with the expected generator", ok)


def test_criterion_2_translation_closed_forms():
    ok = True
    for name in ENV:
        b = FIXTURES[name]()
        f = b.field
        for g in b._cache["lr"][2]:
            got = b.T1.project(translate_left(b, g))
            expect = f.mod(
                np.outer(g, b.U.unit).reshape(-1)
                - np.outer(b.U.unit, g).reshape(-1)
            )
            ok &= np.array_equal(got, b.T1.project(expect))
        for r in range(b.A.dim):
            for q in range(b.A.dim):
                sa = f.matmul(b.s_map, b.A.basis(r))
                tb = f.matmul(b.t_map, b.A.basis(q))
                sb = f.matmul(b.s_map, b.A.basis(q))
                got = b.T1.project(translate_left(b, b.U.mult(sa, tb)))
                ok &= np.array_equal(got, b.T1.project(np.outer(sa, sb).reshape(-1)))
    _verdict(2, "closed-form translation of generators and base elements", ok)


def test_criterion_3_translation_identity_suites():
    ok = True
    for name in HOPF:
        b = FIXTURES[name]()
        rep = translation_report(b)
        ok &= rep.ok and len(rep.items) == 18
        for side in ("left", "right"):
            for build in (regular_comodule, trivial_comodule):
                crep = comodule_translation_report(build(b, side))
                ok &= crep.ok and len(crep.items) == 7
    _verdict(3, "full translation identity suites on every presentation", ok)


def test_criterion_4_dual_pairing_maps():
    ok = True
    for name in HOPF:
        b = FIXTURES[name]()
        f = b.field
        lo, hi = left_dual(b), right_dual(b)
        su, sl = s_upper_star(b), s_lower_star(b)
        d = lo.dim
        ok &= f.equal(f.matmul(su, sl), f.eye(d))
        ok &= f.equal(f.matmul(sl, su), f.eye(d))
        ok &= f.equal(f.matmul(su, hi.U.unit), lo.U.unit)
        for i in range(d):
            for j in range(d):
                lhs = f.matmul(su, hi.U.mul[i, j])
                ok &= f.equal(f.mod(lhs), lo.U.mult(f.mod(su[:, i]), f.mod(su[:, j])))
    _verdict(4, "dual pairing maps mutually inverse algebra morphisms", ok)


def test_criterion_5_maschke():
    ok = True
    for name in FIXTURES:
        rep = maschke_report(FIXTURES[name]())
        by_id = {i.check_id: i.status for i in rep.items}
        ok &= by_id["maschke.equivalence"] == "pass"
    pos = FIXTURES["group-f3"]()
    norm = normalized_left_integral(pos)
    ok &= norm is not None and np.array_equal(norm, np.array([2, 2]))
    ok &= maschke_report(pos).ok
    neg = FIXTURES["primitive-f2"]()
    ok &= normalized_left_integral(neg) is None
    ok &= not maschke_report(neg).ok
    _verdict(5, "separability criterion with positive and negative witnesses", ok)


def test_criterion_6_fundamental_theorems():
    ok = True
    for name in HOPF:
        b = FIXTURES[name]()
        rl = rl_hopf_module_from_base_module(b, b.A.basis_left_mults)
        _, _, round_ok = fundamental_rl(b, rl)
        ok &= round_ok
        ll = ll_hopf_module_from_base_module(b, b.A.basis_right_mults)
        _, iso = fundamental_ll(b, ll)
        ok &= iso
        _, dinv = comparison_map(b, b.U.basis_left_mults)
        ok &= dinv
    _verdict(6, "structure-theorem round trips and invertible comparison", ok)


def test_criterion_7_frobenius():
    ok = True
    for name in ENV:
        b = FIXTURES[name]()
        rep = frobenius_conditions_report(b)
        ok &= rep.ok
        sysm = frobenius_system(b)
        ok &= sysm is not None and sysm.verify(b)
        ok &= _orbit_spans(b, sysm.t0, left_integrals(b))
    b = FIXTURES["primitive-f2"]()
    sysm = frobenius_system(b)
    ok &= sysm is not None and sysm.verify(b)
    f = b.field
    ok &= f.equal(sysm.t0, np.array([0, 1]))
    ok &= f.equal(np.asarray(sysm.theta), np.array([[0, 1]]))
    total = f.zeros(4)
    for x, y in sysm.pairs:
        total = f.mod(total + np.outer(x, y).reshape(-1))
    ok &= f.equal(total, np.array([0, 1, 1, 0]))
    _verdict(7, "Frobenius batteries and the explicit square-zero system", ok)


def test_criterion_8_integral_agreement():
    ok = True
    for name in HOPF:
        b = FIXTURES[name]()
        if not is_left_hopf(b) or not is_right_hopf(b):
            continue
        f = b.field
        sp = left_integrals(b)
        probes = [b.U.basis(i) for i in range(b.U.dim)]
        probes += [f.mod(v) for v in sp.basis]
        probes += [
            f.mod(probes[i] + probes[i + 1]) for i in range(b.U.dim - 1)
        ]
        if sp.dim:
            probes.append(f.mod(sp.basis[0] + b.U.unit))
        m = np.stack(probes, axis=1)
        ok &= rank(f, m) == b.U.dim
        for v in probes:
            ok &= integral_invariance_check(b, v)[0] == sp.contains(v)
    _verdict(8, "integral kernel agrees with the invariance check", ok)


def test_criterion_9_runtime():
    elapsed = time.monotonic() - _T0
    ok = elapsed < 120.0
    print(f"criterion 9: {'PASS' if ok else 'FAIL'} - "
          f"acceptance battery finished in {elapsed:.1f}s")
    assert ok
