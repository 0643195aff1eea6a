"""The two duals of a left bialgebroid, as right bialgebroids.

U_* is the space of k-linear psi: U -> A with psi(s(a)u) = a psi(u);
U^* the space of phi with phi(t(a)u) = phi(u) a.  A basis of functionals
is stored as one d x dA x dU tensor, and every pairing below is a
contraction of whole tensors, two at a time, each reduced before it is
used again.  Structure maps:

    U_*:  (psi psi')(u) = psi'( t(psi(u_2)) u_1 )
          s(a) = eps(.)a,   t(a) = eps(. t(a)),   eta(psi) = psi(1)
          psi_1 (x) psi_2 = sum_k psi(. e_k) (x) xi_k

    U^*:  (phi phi')(u) = phi'( s(phi(u_1)) u_2 )
          s(a) = eps(. s(a)),  t(a) = a eps(.),   eta(phi) = phi(1)
          phi_1 (x) phi_2 = sum_k phi(. e_k) (x) zeta_k

for the dual bases u = sum_k s(xi_k(u)) e_k = sum_k t(zeta_k(u)) e_k
(Kadison and Szlachanyi, Adv. Math. 179 (2003)).  They exist exactly where
U is finitely generated projective over s(A) and t(A), the paper's
hypothesis; elsewhere the coproduct raises ValueError.

Only U_* is built.  U^* of U is U_* of the co-opposite ``b.coop()`` read
back over A: the same functionals and algebra, with s and t swapped and
the coproduct legs flipped.  In the same way S_* is S^* of ``b.coop()``
and zeta is xi of ``b.coop()``.  Each is cached in ``b._cache``, as is
xi (``s_dual_basis``), solved once for it and for U_*'s coproduct.
"""

import functools

import numpy as np

from .algebra import AlgebraPresentation, pair_and_act
from .bialgebroid import LeftBialgebroid, RightBialgebroid, flip_legs
from .hopf import _require_right_hopf, translate_left_mat, translate_right_mat
from .linalg import invert, rank, rref, solve_affine, solve_matrix_equation
from .report import Report

__all__ = [
    "DualBialgebroid",
    "left_dual",
    "right_dual",
    "functionals",
    "s_dual_basis",
    "s_upper_star",
    "s_lower_star",
    "dual_action",
    "comodule_to_dual_module",
    "biduality_report",
]


class CoordSolver:
    """Express vectors in the span of a fixed independent column basis."""

    def __init__(self, field, columns):
        self.field = field
        self.b = np.stack(columns, axis=1)
        _, pivots = rref(field, self.b.T)
        self.rows = pivots
        self.inv = invert(field, self.b[pivots, :])

    def coords(self, v):
        x = self.field.matmul(self.inv, np.asarray(v)[self.rows])
        if not self.field.equal(self.field.matmul(self.b, x), v):
            raise ValueError("vector is not in the span")
        return x


class DualBialgebroid(RightBialgebroid):
    """A dual right bialgebroid with its functional realization kept:
    ``tensor[m]`` is the dA x dU matrix of the m-th basis functional, and
    ``funcs`` lists them."""

    def __init__(self, b, which, tensor, solver, algebra, s_map, t_map, delta, counit):
        super().__init__(
            b.A, algebra, s_map, t_map, delta, counit,
            name=f"{b.name}{'_*' if which == 'left' else '^*'}",
        )
        self.which = which  # 'left' for U_*, 'right' for U^*
        self.tensor = tensor
        self.funcs = list(tensor)
        self.solver = solver

    @property
    def dim(self):
        return len(self.tensor)

    def functional(self, coords):
        """The dA x dU matrix of the functional with given coordinates (a
        stack of them for a stack of coordinate vectors)."""
        return self.field.contract(coords, self.tensor, 1)

    def coords_of(self, func):
        """Coordinates of a dA x dU functional, or one column per functional
        of a stack of them."""
        return self.solver.coords(_columns(func))

    def as_left_bialgebroid(self):
        """Read the dual as a left bialgebroid (used when it is
        commutative, e.g. for jet algebroids); the coproduct stays lazy."""
        # the stored lift of U_* has its legs in the right-bialgebroid
        # order; the left reading wants them the other way round
        delta = (lambda: flip_legs(self.delta)) if self.which == "left" else self._delta
        return LeftBialgebroid(
            self.A, self.U, self.s_map, self.t_map,
            delta, self.counit, name=self.name,
        )


def _columns(funcs):
    """A dA x dU functional flattened, or a stack of them (over any number
    of leading axes) as columns."""
    funcs = np.asarray(funcs)
    flat = funcs.reshape(-1, funcs.shape[-2] * funcs.shape[-1])
    return flat[0] if funcs.ndim == 2 else flat.T


def _build_dual(b):
    f, du = b.field, b.U.dim
    funcs = np.stack(functionals(b))
    d = len(funcs)
    solver = CoordSolver(f, funcs.reshape(d, -1))

    # (psi_i psi_j)(e_p) = psi_j( t(psi_i(e_l)) e_k ) over delta(e_p) = e_k (x) e_l
    t_vals = f.contract(funcs, b.t_map, (1, 1))  # (i, l, x)
    t_mult = f.contract(t_vals, b.U.mul, (2, 0))  # (i, l, k, y)
    legs = b.delta.reshape(du, du, du)  # (k, l, p)
    summed = f.contract(t_mult, legs, ([1, 2], [1, 0]))  # (i, y, p)
    prods = f.contract(funcs, summed, (2, 1))  # (j, a, i, p)
    mul = solver.coords(_columns(prods.transpose(2, 0, 1, 3))).T.reshape(d, d, d)
    alg = AlgebraPresentation(f, mul, solver.coords(_columns(b.counit)))

    # s(a) = eps(.) a and t(a) = eps(. t(a)), one functional per a
    s_funcs = f.contract(b.A.mul, b.counit, (0, 0))  # (a, c, u)
    t_funcs = b.coop().base_action.transpose(2, 1, 0)
    counit = f.contract(funcs, b.U.unit, (2, 0)).T

    # the thunk keeps arrays, not b, whose cache keeps the dual
    umul, xi = b.U.mul, _dual_basis(b)
    return DualBialgebroid(
        b, "left", funcs, solver, alg, solver.coords(_columns(s_funcs)),
        solver.coords(_columns(t_funcs)),
        lambda: _dual_coproduct(f, umul, funcs, solver, xi()[0]), counit,
    )


def _dual_coproduct(f, mul, funcs, solver, coeffs):
    """The U_* coproduct lift sum_k psi(. e_k) (x) xi_k, since
    psi(u u') = sum_k psi(u s(xi_k(u')) e_k), for ``coeffs`` the coordinates
    of xi; stored with xi_k as the first leg."""
    if coeffs is None:
        raise ValueError("U is not finitely generated projective over s(A)")
    d = len(funcs)
    prods = f.contract(funcs, mul, (2, 2))  # (m, a, p, k): psi_m(e_p e_k)
    moved = solver.coords(_columns(prods.transpose(0, 3, 1, 2))).reshape(d, d, -1)  # (i, m, k)
    return f.contract(coeffs, moved, (0, 2)).reshape(d * d, d)  # (j, i, m)


def left_dual(b):
    return b._cached("dual_left", lambda: _build_dual(b))


def right_dual(b):
    """U^*, read back over A from U_* of the co-opposite: the same
    functionals, algebra and counit, s and t swapped, coproduct legs
    flipped."""
    return b._cached("dual_right", lambda: _build_right_dual(b))


def _build_right_dual(b):
    lo, zeta = left_dual(b.coop()), _dual_basis(b.coop())

    def delta():
        # zeta is xi of the co-opposite, whose own error would name s(A)
        if zeta()[0] is None:
            raise ValueError("U is not finitely generated projective over t(A)")
        return flip_legs(lo.delta)

    return DualBialgebroid(
        b, "right", lo.tensor, lo.solver, lo.U, lo.t_map, lo.s_map, delta, lo.counit)


def functionals(b):
    """A basis of U_*, the k-linear psi: U -> A with psi(s(a)u) = a psi(u),
    as a list of dA x dU matrices (empty when there is none)."""
    return b._cached("functionals", lambda: _functional_basis(b))


def _functional_basis(b):
    """Solve the A-linearity constraints psi(s(a)u) = a psi(u), that is
    psi Ls[a] = L_a psi, for a basis of U_*."""
    f = b.field
    da, du = b.A.dim, b.U.dim
    eqs = [
        ([(f.eye(da), b.Ls[a]), (-b.A.basis_left_mults[a], f.eye(du))],
         f.zeros((da, du)))
        for a in range(da)
    ]
    return solve_matrix_equation(f, (da, du), eqs)[1]


def s_dual_basis(b):
    """The s-side dual basis xi: a d x dA x dU tensor of functionals in U_*
    with sum_i s(xi_i(u)) e_i = u, or None when there is none (no solution,
    or no nonzero functional), that is when U is not finitely generated
    projective over s(A).  It needs no coproduct.  The t-side basis zeta,
    with sum_i t(zeta_i(u)) e_i = u, is this one of ``b.coop()``."""
    return _dual_basis(b)()[1]


def _dual_basis(b):
    """``_solve_dual_basis`` of b as a thunk that solves once, cached in b;
    it holds b's arrays, not b, so that U_*'s coproduct thunk can keep it."""
    return b._cached("xi", lambda: functools.cache(
        functools.partial(_solve_dual_basis, b.field, functionals(b), b.Ls)))


def _solve_dual_basis(f, funcs, ls):
    """Coefficients c (d x n) on the functionals ``funcs`` psi_k of U_* with
    xi_i = sum_k c[i, k] psi_k and sum_i s(xi_i(u)) e_i = u, for ``ls`` the
    left multiplications by s(A), and xi; or (None, None)."""
    if not len(funcs):
        return None, None
    funcs, d = np.stack(funcs), ls.shape[1]
    # row (j, r), column (i, k): entry r of s(<psi_k, e_j>) e_i
    vals = f.contract(funcs, ls, (1, 0))
    cols = vals.transpose(1, 2, 3, 0).reshape(d * d, d * len(funcs))  # from (k, j, r, i)
    sol = solve_affine(f, cols, f.eye(d).reshape(d * d))
    if sol is None:
        return None, None
    coeffs = sol[0].reshape(d, len(funcs))
    return coeffs, f.contract(coeffs, funcs, 1)


def _s_side_dual_basis(b):
    """Coordinates in U_* of ``s_dual_basis``, or None where there is none;
    raises where U_* cannot be built.  Those of the t-side basis in U^* are
    this of ``b.coop()``."""
    left_dual(b)
    coeffs = _dual_basis(b)()[0]
    return None if coeffs is None else list(coeffs)


def _translated_pairing(b, values, tmat, base):
    """The functionals u -> eps(u_+ x(<g_m, u_- w>)), where tmat lifts
    u -> u_+ (x) u_-, ``values[m, a, y, ...]`` holds <g_m, e_y w> in A for
    the points w the trailing axes index, and ``base`` is the base action
    u -> eps(u x(.)) for x the source or the target.  Returns the stack
    (m, ..., c, u)."""
    f, du = b.field, b.U.dim
    vals = f.contract(values, base, (1, 2))  # (m, y, ..., x, c)
    legs = tmat.reshape(du, du, du)  # (x, y, u)
    return f.contract(vals, legs, ([-2, 1], [0, 1]))


def s_upper_star(b):
    """Matrix of S^*: U^* -> U_*, S^*(phi)(u) = eps(u_+ t(phi(u_-))).

    Requires a left Hopf structure.  Columns are indexed by the U^* basis,
    values in U_* coordinates.
    """
    lo, hi = left_dual(b), right_dual(b)
    tl = translate_left_mat(b)
    return lo.coords_of(_translated_pairing(b, hi.tensor, tl, b.coop().base_action))


def s_lower_star(b):
    """Matrix of S_*: U_* -> U^*, S_*(psi)(u) = eps(u_[+] s(psi(u_[-]))).

    Requires a right Hopf structure.  It is S^* of the co-opposite, whose
    U^* and U_* are the U_* and U^* of b.
    """
    _require_right_hopf(b)
    return s_upper_star(b.coop())


def dual_action(b, dual, kind):
    """Left U-action matrices on a dual, per U-basis element.

    kind 'harpoon':  (u . psi)(v) = psi(v u)          (either dual)
    kind 'bullet' on U^*: (u . phi)(v) = eps(u_+ s(phi(u_- v)))
    kind 'bullet' on U_*: (u . psi)(v) = eps(u_[+] s(psi(u_[-] v)))
    """
    du, n = b.U.dim, dual.dim
    # prods[m, a, y, v] = <g_m, e_y e_v>
    prods = b.field.contract(dual.tensor, b.U.mul, (2, 2))
    if kind == "harpoon":
        moved = prods.transpose(3, 0, 1, 2)  # (u, m, a, v)
    else:
        tmat = translate_left_mat(b) if dual.which == "right" else translate_right_mat(b)
        moved = _translated_pairing(b, prods, tmat, b.base_action).transpose(3, 0, 2, 1)
    return list(dual.coords_of(moved).reshape(n, du, n).swapaxes(0, 1))


def comodule_to_dual_module(b, com):
    """Turn a comodule into a right module over the matching dual.

    Right comodule M -> right U_*-module:  m . psi = m_(0) . psi(m_(1)).
    Left comodule N -> right U^*-module:   n . phi = phi(n_(-1)) . n_(0).

    Returns action matrices per dual-basis index (written on the left, so
    composition is contravariant).  A right comodule is computed as the
    left comodule ``as_left()`` over ``b.coop()``, whose U^* is U_* of b.
    """
    left = com.as_left()
    funcs = right_dual(left.b).tensor
    mats = list(pair_and_act(b.field, com.action, funcs, left.coaction))
    return (left_dual(b) if com.side == "right" else right_dual(b)), mats


def biduality_report(b):
    """Check that u |-> <u, .> embeds U into the left dual of U_* and is
    an algebra map for the dual-of-dual product."""
    f = b.field
    rep = Report(f"{b.name} biduality")
    lo = left_dual(b)
    du, d = b.U.dim, lo.dim
    # column u: Phi_u = (psi_m -> <u, psi_m>), flattened in A^d
    rep.add("biduality.injective", rank(f, lo.tensor.reshape(d * b.A.dim, du)) == du)
    rep.add("biduality.dimension", d == du)

    # candidate product on the image: (Phi Phi')(psi) = Phi(psi_2 t(Phi'(psi_1))),
    # against Phi_{uv}(psi_m) = psi_m(uv)
    target = f.contract(lo.tensor, b.U.mul, (2, 2))  # (m, c, u, v)
    t_vals = f.contract(lo.tensor, lo.t_map, (1, 1))  # (i, v, x)
    t_mult = f.contract(t_vals, lo.U.mul, (2, 1))  # (i, v, j, z)
    legs = lo.delta.reshape(d, d, d)  # (i, j, m)
    summed = f.contract(t_mult, legs, ([0, 2], [0, 1]))  # (v, z, m)
    got = f.contract(summed, lo.tensor, (1, 0))  # (v, m, c, u)
    rep.add("biduality.multiplicative", f.equal(got.transpose(1, 2, 3, 0), target))
    return rep
