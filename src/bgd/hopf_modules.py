"""Mixed module/comodule structures and their structure theorems.

Every balanced tensor of U with a module N built here is read off the leg
embedding ``b.leg``, through a free basis of U over t(A): U_<| (x)_A N
over ``"Lt"`` and >U (x)_{Aop} N over ``"Rt"``.  On the latter
phi_i(u t(a)) = a phi_i(u), so premise (ii) holds where the A-action on N
is contravariant, as it is at each site here.  A leg falls back to
relation rows only where no free basis is found or a premise fails."""

import numpy as np

from .algebra import check_action, project_stack
from .bialgebroid import ComodulePresentation, check_comodule, coinvariants
from .duals import (
    _s_side_dual_basis,
    dual_action,
    left_dual,
    right_dual,
    s_lower_star,
    s_upper_star,
)
from .hopf import _induced_map, comodule_is_bijective, comodule_translate_mat
from .linalg import DescentError, Quotient, is_invertible, solve_affine
from .report import Report


class HopfModulePresentation:
    """A U-module that is simultaneously a left U-comodule.

    kind "LL": left U-action (``action[i]`` is multiplication by the i-th
    total basis vector), law u_(1) m_(-1) (x) u_(2) m_(0) = coact(u m).
    kind "RL": right U-action written on the left (contravariant family),
    law m_(-1) u_(1) (x) m_(0) u_(2) = coact(m u).
    """

    def __init__(self, b, kind, action, comodule, name="M"):
        self.b = b
        self.kind = kind
        self.field = b.field
        self.action = [b.field.mod(np.asarray(m)) for m in action]
        self.comodule = comodule
        self.dim = self.action[0].shape[0]
        self.name = name

    def act(self, u):
        """The matrix by which u acts, or their stack for the columns of a
        matrix u."""
        return self.field.contract(u, np.asarray(self.action), (0, 0))


def check_hopf_module(mod):
    b, f = mod.b, mod.field
    rep = Report(f"{mod.name} ({mod.kind}) Hopf module")
    rep.extend(
        check_action(
            b.U, mod.action, contravariant=(mod.kind == "RL"), name="module"
        )
    )
    rep.extend(check_comodule(mod.comodule))
    com = mod.comodule
    d, dm = b.U.dim, mod.dim
    # the A-action of the comodule (LL), or its induced right action (RL),
    # agrees with acting by s(a)
    base = com.action if mod.kind == "LL" else com.induced_action
    rep.add_residual(
        "hopf-module.base-action", f.sub(np.asarray(base), mod.act(b.s_map)),
        [b.A.labels])
    # u_(1) m_(-1) (x) u_(2) m_(0) (LL; m_(-1) u_(1) (x) m_(0) u_(2) for
    # RL) against coact(u m) in U_<| (x)_A M, one coaction matrix per u
    act = np.asarray(mod.action)
    g = f.contract(b.delta3, b.U.mul, (0, 0 if mod.kind == "LL" else 1))  # (l, i, y, z)
    h = f.contract(com.coaction.reshape(d, dm, dm), act, (1, 2))  # (y, c, l, n)
    # both as [i, c, (z, n)], the U_<| (x) M coordinates last
    lhs = f.contract(g, h, ([0, 2], [2, 0])).transpose(0, 2, 1, 3)
    rhs = f.contract(com.coaction, act, (1, 1)).transpose(1, 2, 0)
    rep.add_residual(
        "hopf-module.compatibility", project_stack(com.quotient, lhs, rhs, 2),
        [b.U.labels], lambda i: b.U.labels[i])
    return rep


# -- standard examples ------------------------------------------------------


def _on_u_leg(f, mats, dn):
    """The stack of the matrices m (x) 1 on U (x) N, dim N = dn, for the
    stack ``mats`` of matrices on U."""
    k, d = mats.shape[:2]
    return f.contract(mats, f.eye(dn), 0).transpose(0, 1, 3, 2, 4).reshape(k, d * dn, d * dn)


def _coaction_on_quotient(b, q, dn):
    """Coaction matrix for quotients of U (x) N, v (x) n -> v_(1) (x) (v_(2) (x) n)."""
    f, d = b.field, b.U.dim
    # [x, (y, n), c]: v_(1) (x) v_(2) (x) n for the lift of class c
    co = f.contract(b.delta3, q.section_mat.reshape(d, dn, q.dim), (2, 0))
    out = f.contract(co.reshape(d, d * dn, q.dim), q.project_mat, (1, 1))
    return out.transpose(0, 2, 1).reshape(d * q.dim, q.dim)


def _hopf_module_on(b, q, dn, kind, amb, name):
    """The Hopf module on q, a balanced tensor of U with an n-dimensional N:
    u acts through the ambient matrix amb[u] (one per total basis index),
    a through s(a) on the U leg, and the coaction is v_(1) (x) v_(2) (x) n."""
    f = b.field
    act = list(q.induced_op(amb))
    a_act = list(q.induced_op(_on_u_leg(f, np.asarray(b.Ls), dn)))
    com = ComodulePresentation(
        b, "left", a_act, _coaction_on_quotient(b, q, dn), name=name
    )
    return HopfModulePresentation(b, kind, act, com, name=name)


def rl_hopf_module_from_base_module(b, action_a, name="U(x)N"):
    """U_<| (x)_A N for a left A-module N: right action (v (x) n).u = vu (x) n,
    coaction v_(1) (x) v_(2) (x) n."""
    f = b.field
    dn = action_a[0].shape[0]
    q = b.leg(action_a, over="Lt", u_first=True).quotient
    amb = _on_u_leg(f, np.asarray(b.U.basis_right_mults), dn)
    return _hopf_module_on(b, q, dn, "RL", amb, name)


def ll_hopf_module_from_base_module(b, action_a, name="U(x)P"):
    """|>U (x)_{Aop} P for a right A-module P (written on the left):
    left action u.(v (x) x) = uv (x) x, coaction v_(1) (x) v_(2) (x) x."""
    f = b.field
    dn = action_a[0].shape[0]
    q = b.leg(action_a, over="Rt", u_first=True).quotient
    amb = _on_u_leg(f, np.asarray(b.U.basis_left_mults), dn)
    return _hopf_module_on(b, q, dn, "LL", amb, name)


def ll_hopf_module_from_module(b, action_u, name="U(x)N2"):
    """U_<| (x)_A N for a left U-module N: diagonal action
    u.(v (x) n) = u_(1)v (x) u_(2)n, coaction v_(1) (x) v_(2) (x) n."""
    f, d = b.field, b.U.dim
    dn = action_u[0].shape[0]
    act_u = np.asarray(action_u)
    q = b.leg(f.contract(b.s_map, act_u, (0, 0)), over="Lt", u_first=True).quotient
    # amb[i, (z, n), (y, m)] = sum_{k,l} delta3[k, l, i] mul[k, y, z] action_u[l][n, m]
    g = f.contract(b.delta3, b.U.mul, (0, 0))  # (l, i, y, z)
    amb = f.contract(g, act_u, (0, 0)).transpose(0, 2, 3, 1, 4)
    return _hopf_module_on(b, q, dn, "LL", amb.reshape(d, d * dn, d * dn), name)


def comparison_map(b, action_u):
    """The map |>U (x)_{Aop} N_<| -> U_<| (x)_A N, u (x) n -> u_(1) (x) u_(2)n
    between the two standard structures on a left U-module N.
    Returns (matrix, invertible)."""
    f, d = b.field, b.U.dim
    dn = action_u[0].shape[0]
    act_u = np.asarray(action_u)
    dom = b.leg(f.contract(b.t_map, act_u, (0, 0)), over="Rt", u_first=True).quotient
    cod = b.leg(f.contract(b.s_map, act_u, (0, 0)), over="Lt", u_first=True).quotient
    # amb[(k, r), (i, j)] = sum_l delta3[k, l, i] action_u[l][r, j]
    amb = f.contract(b.delta3, act_u, (1, 0)).transpose(0, 2, 1, 3)
    m = _induced_map(
        cod, amb.reshape(d * dn, d * dn), dom, "comparison map does not descend")
    return m, bool(is_invertible(f, m))


def build_u_star_hopf_module(b):
    """The t-side dual as a left-left Hopf module: action through the left
    translation, coaction phi -> sum_i e_i (x) phi e_i^*.  Its maps, not the
    module (which refers to b), are built once per b."""
    act, a_act, coact = b._cached("u star", lambda: _u_star_maps(b))
    com = ComodulePresentation(b, "left", a_act, coact, name="U^*")
    return HopfModulePresentation(b, "LL", act, com, name="U^*")


def _u_star_maps(b):
    f, d = b.field, b.U.dim
    up = right_dual(b)
    ds = up.dim
    estars = _s_side_dual_basis(b.coop())
    if estars is None:
        raise ValueError("total algebra has no dual basis over t(A)")
    act = dual_action(b, up, "bullet")
    # column m: sum_i e_i (x) phi_m e_i^*
    prods = f.contract(np.stack(estars), up.U.mul, (1, 1))  # (i, m, y)
    coact = prods.swapaxes(1, 2).reshape(d * ds, ds)
    # the right multiplications by t(a) on U^*
    a_act = f.contract(up.t_map, up.U.mul, (0, 1)).transpose(0, 2, 1)
    return act, a_act, coact


def build_u_lower_star_hopf_module(b):
    """The s-side dual as a left-left Hopf module, transported from the
    t-side structure along the antipode-like pairing isomorphism."""
    f, d = b.field, b.U.dim
    star = build_u_star_hopf_module(b)
    smat = s_upper_star(b)
    sinv = s_lower_star(b)
    lo = left_dual(b)
    act = dual_action(b, lo, "harpoon")
    # smat on the dual leg of the coaction, as [e_i, (smat m), n]
    (n, ds), dn = smat.shape, sinv.shape[1]
    co = f.matmul(star.comodule.coaction, sinv).reshape(d, ds, dn)
    coact = f.contract(smat, co, (1, 1)).swapaxes(0, 1).reshape(d * n, dn)
    a_act = [
        f.matmul(smat, f.matmul(m, sinv)) for m in star.comodule.action
    ]
    com = ComodulePresentation(b, "left", a_act, coact, name="U_*")
    return HopfModulePresentation(b, "LL", act, com, name="U_*")


# -- structure theorems ------------------------------------------------------


def _cov_data(mod, twist):
    """Coinvariants with the A-action a.m = act(map(a)) restricted to them."""
    f = mod.field
    cov = coinvariants(mod.comodule)
    c = len(cov)
    if c == 0:
        return f.zeros((mod.dim, 0)), [f.zeros((0, 0))] * mod.b.A.dim
    covmat = np.stack(cov, axis=1)
    moved = f.contract(mod.act(twist), covmat, (2, 0))  # [a, m, j]: map(a_a) cov_j
    sol = solve_affine(f, covmat, np.concatenate(moved, axis=1))
    if sol is None:
        raise ValueError("coinvariants not closed under the A-action")
    return covmat, np.split(sol[0], len(moved), axis=1)


def _evaluation(mod, covmat, dom):
    """The map u (x) m -> u.m from ``dom``, a balanced tensor of U with the
    coinvariants ``covmat``, into M; None if it does not descend."""
    f = mod.field
    amb = np.concatenate(f.contract(mod.action, covmat, (2, 0)), axis=1)
    try:
        return Quotient(f, mod.dim).induced_op(amb, dom)
    except DescentError:
        return None


def fundamental_rl(b, mod):
    """Inverse isomorphisms between U_<| (x) M^cov and M for a right-left
    Hopf module with bijective comodule Hopf-Galois map.
    Returns (gamma, eta, verified)."""
    if mod.kind != "RL":
        raise ValueError("expected an RL Hopf module")
    f, d, dm = mod.field, b.U.dim, mod.dim
    com = mod.comodule
    if not comodule_is_bijective(com):
        raise ValueError("comodule Hopf-Galois map is not bijective")
    trans = comodule_translate_mat(com)  # m -> m^[+] (x) m^[-] in M (x) U
    mu = np.stack(mod.action, axis=2).reshape(dm, dm * d)  # m (x) u -> m.u
    kmat = f.matmul(mu, trans)  # m -> m^[+] m^[-]
    covmat, acts = _cov_data(mod, b.t_map)
    sol = solve_affine(f, covmat, kmat)
    if sol is None:
        return None, None, False
    kc = sol[0]
    dom = b.leg(acts, over="Lt", u_first=True).quotient
    gamma = _evaluation(mod, covmat, dom)
    if gamma is None:
        return None, None, False
    # kc on the M leg of the coaction, as [e_i, (kc m), m']
    co = f.contract(kc, com.coaction.reshape(d, dm, dm), (1, 1)).swapaxes(0, 1)
    eta = f.matmul(dom.project_mat, co.reshape(d * len(kc), dm))
    verified = f.equal(f.matmul(gamma, eta), f.eye(dm)) and f.equal(
        f.matmul(eta, gamma), f.eye(dom.dim)
    )
    return gamma, eta, bool(verified)


def fundamental_ll(b, mod):
    """The evaluation |>U (x)_{Aop} M^cov -> M, u (x) m -> u.m, for a
    left-left Hopf module.  Returns (gamma, iso)."""
    if mod.kind != "LL":
        raise ValueError("expected an LL Hopf module")
    covmat, acts = _cov_data(mod, b.t_map)
    dom = b.leg(acts, over="Rt", u_first=True).quotient
    gamma = _evaluation(mod, covmat, dom)
    if gamma is None:
        return None, False
    return gamma, bool(is_invertible(mod.field, gamma))
