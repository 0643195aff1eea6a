"""Frobenius systems and the equivalent-condition batteries."""

import numpy as np

from .algebra import pair_and_act
from .duals import _s_side_dual_basis, left_dual, right_dual
from .integrals import left_integrals, right_integrals
from .linalg import SingularMatrixError, invert, is_invertible, solve_matrix_equation
from .report import Report


class FrobeniusSystem:
    """A functional theta and a tensor sum x_i (x) y_i with
    sum s(theta(u x_i)) y_i = u = sum x_i s(theta(y_i u)) for all u,
    together with the integral generator t0 paired to the counit."""

    def __init__(self, extension, theta, pairs, t0):
        self.extension = extension
        self.theta = theta
        self.pairs = pairs
        self.t0 = t0

    def verify(self, b):
        bb = b if self.extension == "via_s" else b.coop()
        f, U, A = bb.field, bb.U, bb.A
        theta, mul = self.theta, U.mul
        # theta is s-bilinear: theta(s(a) u) = a theta(u), theta(u s(a)) = theta(u) a
        bilinear = all(
            f.equal(f.contract(theta, np.asarray(us), (1, 1)).swapaxes(0, 1),
                    f.contract(np.asarray(am), theta, (2, 0)))
            for us, am in ((bb.Ls, A.basis_left_mults), (bb.Rs, A.basis_right_mults))
        )
        # sum s(theta(u x_p)) y_p = u = sum x_p s(theta(y_p u)), as [u, z]
        x, y = (np.stack(v) for v in zip(*self.pairs))
        sides = []
        for first, second, ax in ((x, y, 1), (y, x, 0)):
            prods = f.contract(first, mul, (1, ax))  # [p, u, z]: u x_p, or y_p u
            img = f.contract(f.contract(prods, theta, (2, 1)), bb.s_map, (2, 1))
            other = f.contract(second, mul, (1, ax))  # [p, w, z]: w y_p, or x_p w
            sides.append(f.contract(img, other, ([0, 2], [0, 1])))
        ct = f.matmul(theta, U.right_mult(self.t0))
        return bool(
            bilinear
            and all(f.equal(side, f.eye(U.dim)) for side in sides)
            and f.equal(ct, bb.counit)
        )


def _chi_matrix(b, dual, theta):
    """Matrix of u -> theta(. u) in the coordinates of ``dual``."""
    shifted = b.field.contract(theta, b.U.mul, (1, 2))  # (a, v, u)
    return dual.coords_of(shifted.transpose(2, 0, 1))


def frobenius_system(b, extension="via_s"):
    """Search for a Frobenius system for the source (or, via the
    co-opposite, the target) extension.  None if the extension is not
    Frobenius."""
    if extension == "via_t":
        sysm = frobenius_system(b.coop(), "via_s")
        if sysm is not None:
            sysm.extension = "via_t"
        return sysm
    f, d, da = b.field, b.U.dim, b.A.dim
    spc = left_integrals(b)
    if not spc.free_rank_one:
        return None
    t0 = spc.generator
    lo = left_dual(b)
    # theta must be s-bilinear (theta mult(s(a)) = mult(a) theta on both
    # sides) and pair t0 to the counit
    eye_a, eye_u, zero = f.eye(da), f.eye(d), f.zeros((da, d))
    eqs = [([(eye_a, b.U.right_mult(t0))], b.counit)]
    for a in range(da):
        for us, am in ((b.Ls, b.A.basis_left_mults), (b.Rs, b.A.basis_right_mults)):
            eqs.append(([(eye_a, us[a]), (-am[a], eye_u)], zero))
    sol = solve_matrix_equation(f, (da, d), eqs)
    if sol is None:
        return None
    part, hom = sol
    estars = _s_side_dual_basis(b)
    if estars is None:
        return None
    for theta in [part] + [f.mod(part + h) for h in hom]:
        try:
            chinv = invert(f, _chi_matrix(b, lo, theta))
        except SingularMatrixError:
            continue
        pairs = [
            (f.matmul(chinv, estars[i]), b.U.basis(i)) for i in range(d)
        ]
        sysm = FrobeniusSystem("via_s", theta, pairs, t0)
        if sysm.verify(b):
            return sysm
    return None


def _iso_from_integral_element(b, dual, t0):
    """Matrix of psi -> t(<psi, t0_2>) t0_1 from the s-side dual ``dual``
    into U coordinates.  The t-side map phi -> s(<phi, t0_1>) t0_2 is this
    one of ``b.coop()`` and its s-side dual, which is U^* of b."""
    lift = b.delta_of(t0)[:, None]
    return pair_and_act(b.field, b.Lt, dual.tensor, lift, u_first=False)[:, :, 0].T


def _exists_iso(f, space, build):
    gen = [] if space.generator is None else [space.generator]
    return any(is_invertible(f, build(v)) for v in gen + space.basis)


def frobenius_conditions_report(b):
    """The directly computable items of the Frobenius equivalence: free
    rank-one integral spaces on both sides of the duality and the four
    explicit map-isomorphism criteria."""
    f = b.field
    rep = Report(f"{b.name} Frobenius conditions")
    lo = left_dual(b)
    up = right_dual(b)
    ints = left_integrals(b)
    r_lo = right_integrals(lo)
    r_up = right_integrals(up)
    vals = {}
    vals["frobenius.dual-right-integrals-free-rank-one"] = r_lo.free_rank_one
    vals["frobenius.integrals-free-rank-one"] = ints.free_rank_one
    vals["frobenius.pairing-iso-from-dual-integral"] = _exists_iso(
        f, r_lo, lambda v: _chi_matrix(b, lo, lo.functional(v))
    )
    vals["frobenius.pairing-iso-from-integral-s-dual"] = _exists_iso(
        f, ints, lambda v: _iso_from_integral_element(b, lo, v)
    )
    vals["frobenius.pairing-iso-from-t-dual-integral"] = _exists_iso(
        f, r_up, lambda v: _chi_matrix(b, up, up.functional(v))
    )
    vals["frobenius.pairing-iso-from-integral-t-dual"] = _exists_iso(
        f, ints,
        lambda v: _iso_from_integral_element(b.coop(), left_dual(b.coop()), v),
    )
    for key, ok in vals.items():
        rep.add(key, ok)
    rep.add(
        "frobenius.conditions-agree",
        len(set(vals.values())) == 1,
    )
    return rep


def quasi_frobenius_check(b):
    """Whether the integral span is a direct summand of a free A-module."""
    rep = Report(f"{b.name} quasi-Frobenius")
    spc = left_integrals(b)
    if spc.dim == 0:
        rep.skip("quasi-frobenius.projective-integrals",
                 "integral space is zero (vacuously projective)")
        return rep
    rep.add("quasi-frobenius.projective-integrals", spc.projective_summand)
    rep.add(
        "quasi-frobenius.consistent-with-free-rank",
        (not spc.free_rank_one) or spc.projective_summand,
    )
    return rep
