"""Hopf-Galois maps, translation maps and their identity suites.

The two canonical maps of a left bialgebroid are

    alpha_l : >U (x)_{Aop} U_<|  ->  U_<| (x)_A |>U,   u (x) v |-> u_1 (x) u_2 v
    alpha_r : U_< (x)^A |>U      ->  U_<| (x)_A |>U,   u (x) v |-> u_1 v (x) u_2

U is a left (right) Hopf algebroid when alpha_l (alpha_r) is bijective; the
inverses applied to u (x) 1 and 1 (x) u give the translation maps
u_+ (x) u_-  and  u_[+] (x) u_[-].  Everything is computed on k-linear
lifts and compared inside the explicit balanced quotients.

Only the left-hand side is written out.  alpha_r of U is alpha_l of the
co-opposite ``b.coop()`` up to the flip of T0, so u_[+] (x) u_[-] is u_+ (x) u_-
there and tch1..tch9 are its sch1..sch9; a right comodule is handled as the
left comodule ``as_left()`` over ``b.coop()``.
"""

import numpy as np

from .algebra import TripleQuotient, balanced_tensor, pair_and_act
from .bialgebroid import sparse_pairs
from .linalg import (
    DescentError, apply_leg1, apply_leg2, invert, is_invertible, kron_vec, unit_vector,
)
from .report import Report

__all__ = [
    "alpha_left",
    "alpha_right",
    "is_left_hopf",
    "is_right_hopf",
    "translate_left",
    "translate_right",
    "translate_left_mat",
    "translate_right_mat",
    "translation_report",
    "comodule_alpha",
    "comodule_translate_mat",
    "comodule_translation_report",
    "side_switch",
]


def alpha_left(b):
    """Matrix of alpha_l between quotient coordinates (T1 -> T0)."""
    if "alpha_l" not in b._cache:
        f = b.field
        d = b.U.dim
        amb = f.zeros((d * d, d * d))
        for i in range(d):
            for k, l, c in b.delta_sparse[i]:
                for j in range(d):
                    amb[k * d : (k + 1) * d, i * d + j] += c * b.U.mul[l, j]
        b._cache["alpha_l"] = _induced_map(
            b.T0, f.mod(amb), b.T1,
            f"alpha_l of {b.name} is not well defined on the quotient",
        )
    return b._cache["alpha_l"]


def _induced_map(cod, op, dom, message):
    """``cod.induced_op(op, dom)``, with a ValueError that names the map
    when op does not descend."""
    try:
        return cod.induced_op(op, dom)
    except DescentError:
        raise ValueError(message) from None


def _inverse_lift(f, alpha, dom, cod, emb):
    """Lift matrix section . alpha^-1 . project . emb of the inverse of a
    bijective Hopf-Galois map alpha: dom -> cod."""
    back = f.matmul(invert(f, alpha), f.matmul(cod.project_mat, emb))
    return f.matmul(dom.section_mat, back)


def alpha_right(b):
    """Matrix of alpha_r, computed as alpha_l of the co-opposite: from
    T2 = T1(b.coop()) to T0(b.coop()), the flip of T0."""
    return alpha_left(b.coop())


def is_left_hopf(b):
    if "left_hopf" not in b._cache:
        b._cache["left_hopf"] = is_invertible(b.field, alpha_left(b))
    return b._cache["left_hopf"]


def is_right_hopf(b):
    return is_left_hopf(b.coop())


def translate_left_mat(b):
    """Lift matrix U -> U (x) U of u |-> u_+ (x) u_- (canonical lift)."""
    if "tl_mat" not in b._cache:
        if not is_left_hopf(b):
            raise ValueError(f"alpha_l of {b.name} is not bijective")
        f, d = b.field, b.U.dim
        emb = np.kron(f.eye(d), b.U.unit.reshape(d, 1))  # u |-> u (x) 1
        b._cache["tl_mat"] = _inverse_lift(f, alpha_left(b), b.T1, b.T0, emb)
    return b._cache["tl_mat"]


def _require_right_hopf(b):
    """Raise unless alpha_r of b is bijective.  The right-hand maps are
    computed on ``b.coop()``, whose own error would name alpha_l there."""
    if not is_right_hopf(b):
        raise ValueError(f"alpha_r of {b.name} is not bijective")


def translate_right_mat(b):
    """Lift matrix U -> U (x) U of u |-> u_[+] (x) u_[-]: the left
    translation map of the co-opposite, with no leg flip."""
    _require_right_hopf(b)
    return translate_left_mat(b.coop())


def translate_left(b, u):
    return b.field.matmul(translate_left_mat(b), u)


def translate_right(b, u):
    return b.field.matmul(translate_right_mat(b), u)


def translation_report(b, side=None):
    """Verify the full translation-map identity suite on all basis
    elements (pairs for the multiplicativity items).  The right-hand
    items tch1..tch9 are sch1..sch9 of the co-opposite."""
    rep = Report(f"{b.name} translation identities")
    if side in (None, "left"):
        _sch_suite(b, rep, "sch", "not left Hopf")
    if side in (None, "right"):
        _sch_suite(b.coop(), rep, "tch", "not right Hopf")
    return rep


def _sch_suite(b, rep, tag, reason):
    """Items tag1..tag9: the left translation identities of b, or skips
    with ``reason`` when b is not left Hopf."""
    if not is_left_hopf(b):
        for i in range(1, 10):
            rep.skip(f"{tag}{i}", reason)
        return
    f = b.field
    d = b.U.dim
    tl = translate_left_mat(b)
    lifts = [f.mod(tl[:, i]) for i in range(d)]
    mul = b.U.mul
    t0, t1 = b.T0, b.T1

    ok = True
    for lift in lifts:
        for a in range(b.A.dim):
            dv = f.mod(
                apply_leg1(f, b.Lt[a], lift, d, d) - apply_leg2(f, b.Rt[a], lift, d, d)
            )
            ok &= f.is_zero(t1.project(dv))
    rep.add(f"{tag}1", ok)

    ok = True
    for i, lift in enumerate(lifts):
        out = f.zeros(d * d)
        for x, y, c in sparse_pairs(lift, d, d, f):
            for k, l, c2 in b.delta_sparse[x]:
                out[k * d : (k + 1) * d] += f.mul(c, c2) * mul[l, y]
        ok &= np.array_equal(
            t0.project(f.mod(out)), t0.project(kron_vec(f, b.U.basis(i), b.U.unit))
        )
    rep.add(f"{tag}2", ok)

    ok = True
    for i in range(d):
        out = f.zeros(d * d)
        for k, l, c in b.delta_sparse[i]:
            for x, y, c2 in sparse_pairs(lifts[k], d, d, f):
                out[x * d : (x + 1) * d] += f.mul(c, c2) * mul[y, l]
        ok &= np.array_equal(
            t1.project(f.mod(out)), t1.project(kron_vec(f, b.U.basis(i), b.U.unit))
        )
    rep.add(f"{tag}3", ok)

    trip4 = TripleQuotient(
        f, (d, d, d),
        [(b.Lt[a], b.Ls[a]) for a in range(b.A.dim)],
        [(b.Rt[a], b.Lt[a]) for a in range(b.A.dim)],
    )
    ok = True
    for i, lift in enumerate(lifts):
        lhs = f.zeros(d**3)
        for x, y, c in sparse_pairs(lift, d, d, f):
            lhs += c * kron_vec(f, b.delta_of(b.U.basis(x)), unit_vector(f, d, y))
        rhs = f.zeros(d**3)
        for k, l, c in b.delta_sparse[i]:
            rhs += c * kron_vec(f, unit_vector(f, d, k), lifts[l])
        ok &= np.array_equal(trip4.project(f.mod(lhs)), trip4.project(f.mod(rhs)))
    rep.add(f"{tag}4", ok)

    trip5 = TripleQuotient(
        f, (d, d, d),
        [(b.Rt[a], b.Lt[a]) for a in range(b.A.dim)],
        [(b.Lt[a], b.Ls[a]) for a in range(b.A.dim)],
    )
    ok = True
    for lift in lifts:
        lhs = f.zeros(d**3)
        rhs = f.zeros(d**3)
        for x, y, c in sparse_pairs(lift, d, d, f):
            lhs += c * kron_vec(f, unit_vector(f, d, x), b.delta_of(b.U.basis(y)))
            for x2, y2, c2 in sparse_pairs(lifts[x], d, d, f):
                rhs[(x2 * d + y) * d + y2] += f.mul(c, c2)
        ok &= np.array_equal(trip5.project(f.mod(lhs)), trip5.project(f.mod(rhs)))
    rep.add(f"{tag}5", ok)

    ok = True
    for i in range(d):
        for j in range(d):
            lhs = f.matmul(tl, mul[i, j])
            rhs = f.zeros(d * d)
            for x, y, c in sparse_pairs(lifts[i], d, d, f):
                for x2, y2, c2 in sparse_pairs(lifts[j], d, d, f):
                    rhs += f.mul(c, c2) * kron_vec(f, mul[x, x2], mul[y2, y])
            if not np.array_equal(t1.project(lhs), t1.project(f.mod(rhs))):
                ok = False
    rep.add(f"{tag}6", ok)

    ok7 = ok8 = True
    for i, lift in enumerate(lifts):
        prod = f.zeros(d)
        recov = f.zeros(d)
        for x, y, c in sparse_pairs(lift, d, d, f):
            prod += c * mul[x, y]
            recov += c * b.U.mult(b.U.basis(x), b.t_of(b.eps(b.U.basis(y))))
        ok7 &= f.equal(f.mod(prod), b.s_of(b.eps(b.U.basis(i))))
        ok8 &= f.equal(f.mod(recov), b.U.basis(i))
    rep.add(f"{tag}7", ok7)
    rep.add(f"{tag}8", ok8)

    ok = True
    for ai in range(b.A.dim):
        for bi in range(b.A.dim):
            sa = b.s_of(b.A.basis(ai))
            tb = b.t_of(b.A.basis(bi))
            lhs = f.matmul(tl, b.U.mult(sa, tb))
            rhs = kron_vec(f, sa, b.s_of(b.A.basis(bi)))
            ok &= np.array_equal(t1.project(lhs), t1.project(rhs))
    rep.add(f"{tag}9", ok)


# -- comodule Hopf-Galois maps ---------------------------------------------


def comodule_alpha(com):
    """Matrix of the comodule Hopf-Galois map in quotient coordinates.

    Left comodule:  N (x)^A |>U -> U_<| (x)_A N,  n (x) v -> n_(-1) v (x) n_(0).
    Right comodule: M (x)_{Aop} U_<| -> M (x)_A |>U,  m (x) u -> m_(0) (x) m_(1) u,
    computed as the map of ``com.as_left()``, so its codomain coordinates
    are those of the swapped legs.
    """
    com = com.as_left()
    if "calpha" not in com._cache:
        b, f = com.b, com.field
        dn, du = com.dim, b.U.dim
        amb = f.zeros((dn * du, dn * du))
        for i in range(dn):
            co = sparse_pairs(f.mod(com.coaction[:, i]), du, dn, f)
            for j in range(du):
                col = i * du + j
                for k, i2, c in co:
                    amb[i2::dn, col] += c * b.U.mul[k, j]
        # N (x)^A |>U, relations n.a (x) u - n (x) s(a)u
        dom = balanced_tensor(f, dn, com.induced_action, du, b.Ls)
        com._cache["calpha"] = _induced_map(
            com.quotient, amb, dom, "comodule Hopf-Galois map not well defined"
        )
        com._cache["cdom"] = dom
    return com._cache["calpha"]


def comodule_is_bijective(com):
    return is_invertible(com.field, comodule_alpha(com))


def comodule_translate_mat(com):
    """Canonical lift of the inverse Hopf-Galois map.

    Left comodule:  n |-> n^[+] (x) n^[-]  in N (x) U  (from 1 (x) n).
    Right comodule: m |-> m^+ (x) m^-      in M (x) U  (from m (x) 1),
    the same matrix as for ``com.as_left()``.
    """
    com = com.as_left()
    if "ctrans" not in com._cache:
        if not comodule_is_bijective(com):
            raise ValueError("comodule Hopf-Galois map is not bijective")
        f, du = com.field, com.b.U.dim
        emb = np.kron(com.b.U.unit.reshape(du, 1), f.eye(com.dim))  # n -> 1 (x) n
        com._cache["ctrans"] = _inverse_lift(
            f, comodule_alpha(com), com._cache["cdom"], com.quotient, emb
        )
    return com._cache["ctrans"]


def comodule_translation_report(com):
    """The translation identity suite for a comodule with bijective
    Hopf-Galois map (labels follow the left/right numbering, which has no
    fourth item).  The right items Sch1..Sch8 are the left items
    Tch1..Tch8 of ``com.as_left()``."""
    rep = Report(f"{com.name} comodule translation identities")
    _left_comodule_suite(com.as_left(), rep, "Tch" if com.side == "left" else "Sch")
    return rep


def _left_comodule_suite(com, rep, tag):
    b, f = com.b, com.field
    dn, du = com.dim, b.U.dim
    tmat = comodule_translate_mat(com)
    lifts = [f.mod(tmat[:, i]) for i in range(dn)]
    dom = com._cache["cdom"]
    q = com.quotient
    ind = com.induced_action
    mul = b.U.mul

    ok = True
    for lift in lifts:
        for a in range(b.A.dim):
            dv = f.mod(
                apply_leg1(f, com.action[a], lift, dn, du)
                - apply_leg2(f, b.Rs[a], lift, dn, du)
            )
            ok &= f.is_zero(dom.project(dv))
    rep.add(f"{tag}1", ok)

    ok = True
    for i, lift in enumerate(lifts):
        out = f.zeros(du * dn)
        for n1, k, c in sparse_pairs(lift, dn, du, f):
            for x, n2, c2 in sparse_pairs(f.mod(com.coaction[:, n1]), du, dn, f):
                out[n2::dn] += f.mul(c, c2) * mul[x, k]
        target = kron_vec(f, b.U.unit, unit_vector(f, dn, i))
        ok &= np.array_equal(q.project(f.mod(out)), q.project(target))
    rep.add(f"{tag}2", ok)

    ok = True
    for i in range(dn):
        out = f.zeros(dn * du)
        for x, n2, c in sparse_pairs(f.mod(com.coaction[:, i]), du, dn, f):
            for n3, k, c2 in sparse_pairs(lifts[n2], dn, du, f):
                out[n3 * du : (n3 + 1) * du] += f.mul(c, c2) * mul[k, x]
        target = kron_vec(f, unit_vector(f, dn, i), b.U.unit)
        ok &= np.array_equal(dom.project(f.mod(out)), dom.project(target))
    rep.add(f"{tag}3", ok)

    trip = TripleQuotient(
        f, (dn, du, du),
        [(ind[a], b.Ls[a]) for a in range(b.A.dim)],
        [(b.Lt[a], b.Ls[a]) for a in range(b.A.dim)],
    )
    ok = True
    for lift in lifts:
        lhs = f.zeros(dn * du * du)
        rhs = f.zeros(dn * du * du)
        for n1, k, c in sparse_pairs(lift, dn, du, f):
            rhs += c * kron_vec(f, unit_vector(f, dn, n1), b.delta_of(b.U.basis(k)))
            for n2, k2, c2 in sparse_pairs(lifts[n1], dn, du, f):
                lhs[(n2 * du + k2) * du + k] += f.mul(c, c2)
        ok &= np.array_equal(trip.project(f.mod(lhs)), trip.project(f.mod(rhs)))
    rep.add(f"{tag}5", ok)

    ok6 = ok7 = True
    for a in range(b.A.dim):
        for i in range(dn):
            lhs6 = f.matmul(tmat, f.mod(com.action[a][:, i]))
            rhs6 = apply_leg2(f, b.Rt[a], lifts[i], dn, du)
            ok6 &= np.array_equal(dom.project(lhs6), dom.project(rhs6))
            lhs7 = f.matmul(tmat, f.mod(ind[a][:, i]))
            rhs7 = apply_leg2(f, b.Lt[a], lifts[i], dn, du)
            ok7 &= np.array_equal(dom.project(lhs7), dom.project(rhs7))
    rep.add(f"{tag}6", ok6)
    rep.add(f"{tag}7", ok7)

    counit = pair_and_act(f, ind, b.counit[None], tmat, u_first=False)[0]
    rep.add(f"{tag}8", f.equal(counit, f.eye(dn)))


def side_switch(com):
    """Turn a right comodule into a left one (requires left Hopf) or a
    left comodule into a right one (requires right Hopf).

    The coaction leg pairs against a dual functional, yielding a module
    over one dual algebra; pulling that module back along the dual-algebra
    isomorphism and re-currying with a dual basis of the total algebra
    over the base gives the switched coaction.  Everything here is
    computed from quotient classes, so it does not depend on any lift.
    A left comodule is switched as the right comodule ``com.coop()`` over
    ``b.coop()``, and the result is read back over b.
    """
    from .bialgebroid import ComodulePresentation
    from .duals import _s_side_dual_basis, left_dual, s_upper_star

    if com.side == "left":
        _require_right_hopf(com.b)
        return side_switch(com.coop()).coop()
    b, f = com.b, com.field
    dn, du = com.dim, b.U.dim
    # m -> sum_i e_i (x) psi_i . m  with psi_i the image of the t-side
    # dual basis functionals under the dual isomorphism; a functional
    # acts by m |-> m_(0) . <psi, m_(1)>.
    estars = _s_side_dual_basis(b.coop())
    if estars is None:
        raise ValueError(f"{b.name} is not free over t(A)")
    psis = left_dual(b).functional(f.matmul(np.stack(estars), s_upper_star(b).T))
    co = pair_and_act(f, com.action, psis, com.coaction, u_first=False)
    return ComodulePresentation(
        b, "left", com.induced_action, co.reshape(du * dn, dn),
        name=com.name + "_switched",
    )
