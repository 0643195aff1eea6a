import json

import numpy as np
import pytest
from test_leg_quotients import F2, F5, QQ, groupoid
from test_lib_golden import CASES, GOLDEN

from bgd.bialgebroid import check_right_bialgebroid
from bgd.duals import (
    biduality_report,
    comodule_to_dual_module,
    dual_action,
    left_dual,
    right_dual,
    s_dual_basis,
    s_lower_star,
    s_upper_star,
)
from bgd.fixtures import FIXTURES, regular_comodule

HOPF = [
    "base-trivial", "primitive-f2", "group-f3",
    "rank1-dual-numbers", "rank1-dual-numbers-p3", "abelian-n", "crossed",
]
SMALL = ["base-trivial", "primitive-f2", "group-f3", "rank1-dual-numbers", "abelian-n"]
COOP = [n + "-coop" for n in HOPF]


def _preset(name):
    """A preset, or the co-opposite of one for a name ending in -coop."""
    b = FIXTURES[name.removesuffix("-coop")]()
    return b.coop() if name.endswith("-coop") else b


@pytest.mark.parametrize("name", HOPF)
def test_dual_dimensions(name):
    b = FIXTURES[name]()
    assert left_dual(b).dim == b.U.dim
    assert right_dual(b).dim == b.U.dim


@pytest.mark.parametrize("name", SMALL + COOP)
@pytest.mark.parametrize("which", ["left", "right"])
def test_dual_is_right_bialgebroid(name, which):
    b = _preset(name)
    dual = left_dual(b) if which == "left" else right_dual(b)
    rep = check_right_bialgebroid(dual)
    assert rep.ok, rep.failures


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_t_dual_defining_formulas(name):
    # U^*: phi(t(a)u) = phi(u)a, s(a) = eps(. s(a)), t(a) = a eps(.),
    # eta(phi) = phi(1); a mirror that swapped s and t wrongly fails here
    b = FIXTURES[name]()
    f, A, U = b.field, b.A, b.U
    hi = right_dual(b)
    for i, phi in enumerate(hi.funcs):
        for a in range(A.dim):
            assert f.equal(
                f.matmul(phi, b.Lt[a]), f.matmul(A.basis_right_mults[a], phi)
            )
        assert f.equal(f.matmul(phi, U.unit), hi.counit[:, i])
    for a in range(A.dim):
        av = A.basis(a)
        assert f.equal(
            hi.functional(hi.s_map[:, a]), f.matmul(b.counit, U.right_mult(b.s_of(av)))
        )
        assert f.equal(
            hi.functional(hi.t_map[:, a]), f.matmul(A.left_mult(av), b.counit)
        )


@pytest.mark.parametrize("name", HOPF)
def test_dual_algebras(name):
    b = FIXTURES[name]()
    for dual in (left_dual(b), right_dual(b)):
        assert dual.U.check().ok


@pytest.mark.parametrize("name", HOPF + COOP)
def test_pairing_maps_are_mutually_inverse(name):
    b = _preset(name)
    f = b.field
    su = s_upper_star(b)
    sl = s_lower_star(b)
    eye = f.mod(np.eye(b.U.dim, dtype=su.dtype))
    assert np.array_equal(f.mod(f.matmul(su, sl)), eye)
    assert np.array_equal(f.mod(f.matmul(sl, su)), eye)


@pytest.mark.parametrize("name", HOPF)
def test_pairing_maps_are_algebra_morphisms(name):
    b = FIXTURES[name]()
    f = b.field
    lo, hi = left_dual(b), right_dual(b)
    su = s_upper_star(b)  # U^* -> U_*
    sl = s_lower_star(b)  # U_* -> U^*
    d = lo.dim
    assert f.equal(f.matmul(su, hi.U.unit), lo.U.unit)
    assert f.equal(f.matmul(sl, lo.U.unit), hi.U.unit)
    for i in range(d):
        for j in range(d):
            lhs = f.matmul(su, hi.U.mul[i, j])
            rhs = lo.U.mult(f.mod(su[:, i]), f.mod(su[:, j]))
            assert f.equal(f.mod(lhs), rhs)
            lhs = f.matmul(sl, lo.U.mul[i, j])
            rhs = hi.U.mult(f.mod(sl[:, i]), f.mod(sl[:, j]))
            assert f.equal(f.mod(lhs), rhs)


@pytest.mark.parametrize("name", SMALL)
def test_biduality(name):
    b = FIXTURES[name]()
    rep = biduality_report(b)
    assert rep.ok, rep.failures


def _is_left_action(b, dual, mats):
    f = b.field
    d = b.U.dim
    unit_mat = sum(c * mats[k] for k, c in enumerate(b.U.unit) if c != f.zero)
    if not np.array_equal(f.mod(unit_mat), f.mod(np.eye(dual.dim, dtype=mats[0].dtype))):
        return False
    for i in range(d):
        for j in range(d):
            prod = f.zeros((dual.dim, dual.dim))
            for k, c in enumerate(b.U.mul[i, j]):
                if c != f.zero:
                    prod = prod + c * mats[k]
            if not np.array_equal(f.mod(prod), f.mod(f.matmul(mats[i], mats[j]))):
                return False
    return True


@pytest.mark.parametrize("name", SMALL)
def test_dual_actions_are_actions(name):
    b = FIXTURES[name]()
    lo, hi = left_dual(b), right_dual(b)
    assert _is_left_action(b, lo, dual_action(b, lo, "harpoon"))
    assert _is_left_action(b, hi, dual_action(b, hi, "harpoon"))
    assert _is_left_action(b, hi, dual_action(b, hi, "bullet"))
    assert _is_left_action(b, lo, dual_action(b, lo, "bullet"))


@pytest.mark.parametrize("name", SMALL)
def test_pairing_map_intertwines_actions(name):
    # S^* carries the translated action on U^* to evaluation-shift on U_*.
    b = FIXTURES[name]()
    f = b.field
    lo, hi = left_dual(b), right_dual(b)
    su = s_upper_star(b)
    bullet = dual_action(b, hi, "bullet")
    harpoon = dual_action(b, lo, "harpoon")
    for u in range(b.U.dim):
        assert np.array_equal(
            f.mod(f.matmul(su, bullet[u])), f.mod(f.matmul(harpoon[u], su))
        )


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("side", ["left", "right"])
def test_comodule_becomes_dual_module(name, side):
    b = FIXTURES[name]()
    f = b.field
    com = regular_comodule(b, side)
    dual, mats = comodule_to_dual_module(b, com)
    d = dual.dim
    unit_mat = sum(c * mats[k] for k, c in enumerate(dual.U.unit) if c != f.zero)
    assert np.array_equal(f.mod(unit_mat), f.mod(np.eye(com.dim, dtype=mats[0].dtype)))
    for i in range(d):
        for j in range(d):
            prod = f.zeros((com.dim, com.dim))
            for k, c in enumerate(dual.U.mul[i, j]):
                if c != f.zero:
                    prod = prod + c * mats[k]
            # written on the left, a right module composes contravariantly
            assert np.array_equal(f.mod(prod), f.mod(f.matmul(mats[j], mats[i])))


def _defining_identity(b, dual):
    """Both sides of g(u u') = g_1( u x(g_2(u')) ), x = s on U_* and t on
    U^*, for every basis functional g of ``dual`` and basis elements u, u'
    of U, as [g, a, u, u']: the linear system whose solution was once taken
    as the coproduct lift, written as contractions with no solve."""
    f, g, n = b.field, dual.tensor, dual.dim
    x = b.s_map if dual.which == "left" else b.t_map
    lift = dual.delta.reshape(n, n, n)
    if dual.which == "left":  # U_* stores g_2 as its first leg
        lift = lift.swapaxes(0, 1)
    inner = f.contract(f.contract(g, x, (1, 1)), b.U.mul, (2, 1))  # (j, q, p, y)
    outer = f.contract(g, inner, (2, 3))  # (i, a, j, q, p): g_i(e_p x(g_j(e_q)))
    rhs = f.contract(outer, lift, ([0, 2], [0, 1]))  # (a, q, p, m)
    return f.contract(g, b.U.mul, (2, 2)), rhs.transpose(3, 0, 2, 1)


_GOLDEN = json.loads(GOLDEN.read_text())
SUBJECTS = dict(CASES, **{f"groupoid-{name}": (lambda f=f: groupoid(f))
                          for name, f in (("F2", F2), ("F5", F5), ("Q", QQ))})
# every subject whose dual has an algebra (the pinned product of U_* or U^*)
ORACLE = [(case, side) for case in sorted(SUBJECTS)
          for side, tag in (("left", "u_lower_star"), ("right", "u_upper_star"))
          if not isinstance(_GOLDEN.get(case, {}).get(f"{tag}.mul"), dict)]


@pytest.mark.parametrize("case, side", ORACLE)
def test_coproduct_solves_the_defining_system(case, side):
    b = SUBJECTS[case]()
    dual = left_dual(b) if side == "left" else right_dual(b)
    if s_dual_basis(b if side == "left" else b.coop()) is None:
        with pytest.raises(ValueError, match="not finitely generated projective"):
            dual.delta
        return
    lhs, rhs = _defining_identity(b, dual)
    assert b.field.equal(lhs, rhs)


def test_right_dual_coproduct_error_names_the_target():
    # with t corrupted, U is not finitely generated projective over t(A):
    # U^*'s coproduct says so, though it is U_*'s of the co-opposite, whose
    # own error names that one's source
    b = CASES["crossed-bad-t"]()
    with pytest.raises(ValueError, match=r"projective over t\(A\)"):
        right_dual(b).delta
    with pytest.raises(ValueError, match=r"projective over s\(A\)"):
        left_dual(b.coop()).delta
