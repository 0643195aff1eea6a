"""Hopf-Galois maps, translation maps and their identity suites.

The two canonical maps of a left bialgebroid are

    alpha_l : >U (x)_{Aop} U_<|  ->  U_<| (x)_A |>U,   u (x) v |-> u_1 (x) u_2 v
    alpha_r : U_< (x)^A |>U      ->  U_<| (x)_A |>U,   u (x) v |-> u_1 v (x) u_2

U is a left (right) Hopf algebroid when alpha_l (alpha_r) is bijective; the
inverses applied to u (x) 1 and 1 (x) u give the translation maps
u_+ (x) u_-  and  u_[+] (x) u_[-].  Everything is computed on k-linear
lifts and compared inside the explicit balanced quotients.

Each Hopf-Galois map is one ``HopfGaloisMap``: its matrix, bijectivity
and inverse lift, each computed once.  alpha_l is kept in
``b._cache["alpha_l"]``, a comodule's map in the cache of ``com.as_left()``.

Only the left-hand side is written out.  alpha_r of U is alpha_l of the
co-opposite ``b.coop()`` up to the flip of T0, so u_[+] (x) u_[-] is u_+ (x) u_-
there and tch1..tch9 are its sch1..sch9; a right comodule is handled as the
left comodule ``as_left()`` over ``b.coop()``.
"""

import functools

import numpy as np

from .algebra import add_triple, multiplicativity, pair_and_act, project_stack
from .linalg import DescentError, SingularMatrixError, invert
from .report import Report

__all__ = [
    "HopfGaloisMap",
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


class HopfGaloisMap:
    """The map ``name``: dom -> cod that the ambient matrix ``amb`` induces
    between two quotients (a ValueError says ``undefined`` where amb does
    not descend).  ``bijective`` reduces ``matrix`` once, for the verdict
    and the inverse.  ``lift`` is section . inverse . project . emb() for
    the thunk ``emb``; it drops the inverse, which is as large as the map
    (32 MB for alpha_l on rank_n_truncated(2, 5))."""

    def __init__(self, dom, cod, amb, emb, name, undefined):
        self.dom, self.cod, self.name = dom, cod, name
        self._emb = emb
        self.matrix = _induced_map(cod, amb, dom, undefined)

    @functools.cached_property
    def bijective(self):
        try:
            self._inverse = invert(self.cod.field, self.matrix)
        except SingularMatrixError:
            return False
        return True

    @functools.cached_property
    def lift(self):
        if not self.bijective:
            raise ValueError(f"{self.name} is not bijective")
        f = self.cod.field
        back = f.matmul(self._inverse, f.matmul(self.cod.project_mat, self._emb()))
        del self._inverse
        return f.matmul(self.dom.section_mat, back)


def _induced_map(cod, op, dom, message):
    """``cod.induced_op(op, dom)``, with a ValueError that says ``message``
    when op does not descend."""
    try:
        return cod.induced_op(op, dom)
    except DescentError:
        raise ValueError(message) from None


def alpha_left(b):
    """Matrix of alpha_l between quotient coordinates (T1 -> T0)."""
    return _alpha(b, f"alpha_l of {b.name}").matrix


def _alpha(b, name):
    """alpha_l of b as a ``HopfGaloisMap``, built once and kept in
    ``b._cache``; where it does not descend, the error names it ``name``."""
    if "alpha_l" not in b._cache:
        f, U, d = b.field, b.U, b.U.dim
        # amb[(k, z), (i, j)] = sum_l delta3[k, l, i] mul[l, j, z]
        amb = f.contract(b.delta3, U.mul, (1, 0)).transpose(0, 3, 1, 2)
        # u |-> u (x) 1; it holds U, not b, which holds the map
        emb = lambda: f.contract(f.eye(d), U.unit, 0).transpose(0, 2, 1).reshape(d * d, d)
        b._cache["alpha_l"] = HopfGaloisMap(
            b.T1, b.T0, amb.reshape(d * d, d * d), emb, f"alpha_l of {b.name}",
            f"{name} is not well defined on the quotient",
        )
    return b._cache["alpha_l"]


def alpha_right(b):
    """Matrix of alpha_r, computed as alpha_l of the co-opposite: from
    T2 = T1(b.coop()) to T0(b.coop()), the flip of T0.  Its error names
    alpha_r of b, not alpha_l of the co-opposite."""
    return _alpha(b.coop(), f"alpha_r of {b.name}").matrix


def is_left_hopf(b):
    alpha_left(b)
    return b._cache["alpha_l"].bijective


def is_right_hopf(b):
    alpha_right(b)  # where alpha_r does not descend, its error names it
    return is_left_hopf(b.coop())


def translate_left_mat(b):
    """Lift matrix U -> U (x) U of u |-> u_+ (x) u_- (canonical lift)."""
    alpha_left(b)
    return b._cache["alpha_l"].lift


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
        _sch_suite(b, rep, "sch", is_left_hopf(b), "not left Hopf")
    if side in (None, "right"):
        _sch_suite(b.coop(), rep, "tch", is_right_hopf(b), "not right Hopf")
    return rep


def _sch_suite(b, rep, tag, hopf, reason):
    """Items tag1..tag9: the left translation identities of b, or skips
    with ``reason`` when b is not left Hopf (``hopf`` false).  Each is one
    residual tensor with a leading axis per basis element it quantifies
    over."""
    if not hopf:
        for i in range(1, 10):
            rep.skip(f"{tag}{i}", reason)
        return
    f, U = b.field, b.U
    d, mul = U.dim, U.mul
    tl = translate_left_mat(b)
    # tl3[x, y, i]: the coefficient of e_x (x) e_y in u_i+ (x) u_i-
    tl3 = tl.reshape(d, d, d)
    t0, t1 = b.T0, b.T1
    leg0, leg1 = b.leg("Lt", over="Ls", u_first=False), b.leg("Rt", over="Lt", u_first=False)
    ul, au = [U.labels], [U.labels, b.A.labels]
    u1 = f.contract(f.eye(d), U.unit, 0).reshape(d, d * d)  # row i: e_i (x) 1

    # t(a) u_+ (x) u_- = u_+ (x) u_- t(a), as [i, a]
    v1 = f.contract(np.asarray(b.Lt), tl3, (2, 0)).transpose(3, 0, 1, 2)
    v2 = f.contract(np.asarray(b.Rt), tl3, (2, 1)).transpose(3, 0, 2, 1)
    rep.add_residual(f"{tag}1", project_stack(t1, v1, v2, 2), au)

    # u_+(1) (x) u_+(2) u_- = u (x) 1
    g = f.contract(tl3, b.delta3, (0, 2))  # (y, i, k, l)
    out = f.contract(g, mul, ([3, 0], [0, 1])).reshape(d, d * d)
    rep.add_residual(f"{tag}2", project_stack(t0, out, u1), ul)

    # u_(1)+ (x) u_(1)- u_(2) = u (x) 1
    g = f.contract(b.delta3, tl3, (0, 2))  # (l, i, x, y)
    out = f.contract(g, mul, ([3, 0], [0, 1])).reshape(d, d * d)
    rep.add_residual(f"{tag}3", project_stack(t1, out, u1), ul)

    # u_+(1) (x) u_+(2) (x) u_- = u_(1) (x) u_(2)+ (x) u_(2)-, one column per u
    lhs = f.contract(b.delta, tl3, (1, 0)).reshape(d, d, d, d)
    rhs = f.contract(b.delta3, tl, (1, 1)).transpose(0, 2, 1).reshape(d, d, d, d)
    add_triple(rep, f"{tag}4", f, lhs, rhs, leg0, leg1, ul)

    # u_+ (x) u_-(1) (x) u_-(2) = u_++ (x) u_- (x) u_+-
    lhs = f.contract(tl3, b.delta, (1, 1)).transpose(0, 2, 1).reshape(d, d, d, d)
    rhs = f.contract(tl3, tl3, (0, 2)).transpose(2, 0, 3, 1).reshape(d, d, d, d)
    add_triple(rep, f"{tag}5", f, lhs, rhs, leg1, leg0, ul)

    rep.add_residual(f"{tag}6", multiplicativity(t1, U, tl, flip=True), ul * 2)

    # u_+ u_- = s(eps(u)) and u_+ t(eps(u_-)) = u
    se = f.matmul(b.s_map, b.counit)
    te = f.matmul(b.t_map, b.counit)
    prod = f.contract(tl3, mul, ([0, 1], [0, 1]))
    rep.add_residual(f"{tag}7", f.sub(prod, se.T), ul)
    recov = f.contract(tl3, f.contract(te, mul, (0, 1)), ([0, 1], [1, 0]))
    rep.add_residual(f"{tag}8", f.sub(recov, f.eye(d)), ul)

    # (s(a) t(b))_+ (x) (s(a) t(b))_- = s(a) (x) s(b), as [a, b]
    lhs = f.contract(U.products(b.s_map, b.t_map), tl, (2, 1))
    rhs = f.contract(b.s_map, b.s_map, 0).transpose(1, 3, 0, 2)
    rep.add_residual(f"{tag}9", project_stack(t1, lhs, rhs, 2), [b.A.labels] * 2)


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
        f, U = com.field, com.b.U
        dn, du = com.dim, U.dim
        # amb[(z, m), (i, j)] = sum_k co[k, m, i] mul[k, j, z], co the
        # coaction as du x dn x dn
        co = com.coaction.reshape(du, dn, dn)
        amb = f.contract(co, U.mul, (0, 0)).transpose(3, 0, 1, 2)
        # n |-> 1 (x) n; it holds U, not the comodule, which holds the map
        emb = lambda: f.contract(U.unit, f.eye(dn), 0).reshape(du * dn, dn)
        com._cache["calpha"] = HopfGaloisMap(
            com.dom_leg.quotient, com.quotient, amb.reshape(dn * du, dn * du), emb,
            "comodule Hopf-Galois map", "comodule Hopf-Galois map not well defined",
        )
    return com._cache["calpha"].matrix


def comodule_is_bijective(com):
    """Whether the comodule Hopf-Galois map is bijective, decided once per
    comodule (on ``com.as_left()``)."""
    comodule_alpha(com)
    return com.as_left()._cache["calpha"].bijective


def comodule_translate_mat(com):
    """Canonical lift of the inverse Hopf-Galois map.

    Left comodule:  n |-> n^[+] (x) n^[-]  in N (x) U  (from 1 (x) n).
    Right comodule: m |-> m^+ (x) m^-      in M (x) U  (from m (x) 1),
    the same matrix as for ``com.as_left()``.
    """
    comodule_alpha(com)
    return com.as_left()._cache["calpha"].lift


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
    # tm[n, k, i]: the coefficient of n_n (x) e_k in the lift of n_i;
    # co[x, n, j]: the coefficient of e_x (x) n_n in the coaction of n_j
    tm = tmat.reshape(dn, du, dn)
    co = com.coaction.reshape(du, dn, dn)
    leg12 = com.dom_leg
    dom = leg12.quotient
    q = com.quotient
    ind = com.induced_action
    mul = b.U.mul
    nl = [[f"m{j}" for j in range(dn)]]
    an = [b.A.labels] + nl

    # a.n^[+] (x) n^[-] = n^[+] (x) n^[-] s(a), as [n, a]
    v1 = f.contract(np.asarray(com.action), tm, (2, 0)).transpose(3, 0, 1, 2)
    v2 = f.contract(np.asarray(b.Rs), tm, (2, 1)).transpose(3, 0, 2, 1)
    rep.add_residual(f"{tag}1", project_stack(dom, v1, v2, 2), nl + [b.A.labels])

    # n^[+](-1) n^[-] (x) n^[+](0) = 1 (x) n
    g = f.contract(tm, co, (0, 2))  # (k, i, x, n2)
    out = f.contract(g, mul, ([2, 0], [0, 1])).transpose(0, 2, 1).reshape(dn, du * dn)
    one_n = f.contract(b.U.unit, f.eye(dn), 0).transpose(1, 0, 2).reshape(dn, du * dn)
    rep.add_residual(f"{tag}2", project_stack(q, out, one_n), nl)

    # n(0)^[+] (x) n(0)^[-] n(-1) = n (x) 1
    g = f.contract(co, tm, (1, 2))  # (x, i, n3, k)
    out = f.contract(g, mul, ([3, 0], [0, 1])).reshape(dn, dn * du)
    n_one = f.contract(f.eye(dn), b.U.unit, 0).reshape(dn, dn * du)
    rep.add_residual(f"{tag}3", project_stack(dom, out, n_one), nl)

    # n^[+][+] (x) n^[+][-] (x) n^[-] = n^[+] (x) n^[-](1) (x) n^[-](2)
    lhs = f.contract(tm, tm, (0, 2)).transpose(2, 3, 0, 1).reshape(dn, du, du, dn)
    rhs = f.contract(tm, b.delta, (1, 1)).transpose(0, 2, 1).reshape(lhs.shape)
    leg23 = b.leg("Lt", over="Ls", u_first=False)
    add_triple(rep, f"{tag}5", f, lhs, rhs, leg12, leg23, nl)

    # the lift of a.n (of n.a) against n^[+] (x) n^[-] t(a) (t(a) n^[-]), as [a, n]
    for i, mats, rmats in ((6, com.action, b.Rt), (7, ind, b.Lt)):
        lhs = f.contract(np.asarray(mats), tmat, (1, 1))
        rhs = f.contract(np.asarray(rmats), tm, (2, 1)).transpose(0, 3, 2, 1)
        rep.add_residual(f"{tag}{i}", project_stack(dom, lhs, rhs, 2), an)

    # [i, n]: the n_n-entry of n_i^[+] . eps(n_i^[-])
    counit = pair_and_act(f, ind, b.counit[None], tmat, u_first=False)[0]
    rep.add_residual(f"{tag}8", f.sub(counit.T, f.eye(dn)), nl)


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
        raise ValueError(f"{b.name} has no dual basis over t(A)")
    psis = left_dual(b).functional(f.matmul(np.stack(estars), s_upper_star(b).T))
    co = pair_and_act(f, com.action, psis, com.coaction, u_first=False)
    return ComodulePresentation(
        b, "left", com.induced_action, co.reshape(du * dn, dn),
        name=com.name + "_switched",
    )
