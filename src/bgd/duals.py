"""The two duals of a left bialgebroid, as right bialgebroids.

U_* is the space of k-linear psi: U -> A with psi(s(a)u) = a psi(u);
U^* the space of phi with phi(t(a)u) = phi(u) a.  Functionals are stored
as dA x dU matrices.  Structure maps:

    U_*:  (psi psi')(u) = psi'( t(psi(u_2)) u_1 )
          s(a) = eps(.)a,   t(a) = eps(. t(a)),   eta(psi) = psi(1)
          coproduct solved from  psi(u u') = psi_1( u s(psi_2(u')) )

    U^*:  (phi phi')(u) = phi'( s(phi(u_1)) u_2 )
          s(a) = eps(. s(a)),  t(a) = a eps(.),   eta(phi) = phi(1)
          coproduct solved from  phi(u u') = phi_1( u t(phi_2(u')) )

Only U_* is built.  U^* of U is U_* of the co-opposite ``b.coop()`` read
back over A: the same functionals and algebra, with s and t swapped and
the coproduct legs flipped.  In the same way S_* is S^* of ``b.coop()``
and the t-side dual basis is the s-side one of ``b.coop()``.
"""

import numpy as np

from .algebra import AlgebraPresentation, sum_action
from .bialgebroid import LeftBialgebroid, RightBialgebroid, sparse_pairs
from .hopf import _require_right_hopf, translate_left_mat, translate_right_mat
from .linalg import invert, rank, rref, solve_affine, solve_matrix_equation
from .report import Report

__all__ = [
    "DualBialgebroid",
    "left_dual",
    "right_dual",
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

    def coords(self, v, check=True):
        x = self.field.matmul(self.inv, np.asarray(v)[self.rows])
        if check and not self.field.equal(self.field.matmul(self.b, x), v):
            raise ValueError("vector is not in the span")
        return x


class DualBialgebroid(RightBialgebroid):
    """A dual right bialgebroid with its functional realization kept."""

    def __init__(self, b, which, funcs, solver, algebra, s_map, t_map, delta, counit):
        super().__init__(
            b.A, algebra, s_map, t_map, delta, counit,
            name=f"{b.name}{'_*' if which == 'left' else '^*'}",
        )
        self.b = b
        self.which = which  # 'left' for U_*, 'right' for U^*
        self.funcs = funcs
        self.solver = solver

    @property
    def dim(self):
        return len(self.funcs)

    def functional(self, coords):
        """The dA x dU matrix of the functional with given coordinates."""
        f = self.field
        out = f.zeros(self.funcs[0].shape)
        for i, c in enumerate(np.asarray(coords)):
            if c != f.zero:
                out = out + c * self.funcs[i]
        return f.mod(out)

    def coords_of(self, func_matrix):
        return self.solver.coords(np.asarray(func_matrix).reshape(-1))

    def pair(self, coords, u):
        """<u, psi> as an element of A."""
        return self.field.matmul(self.functional(coords), u)

    def as_left_bialgebroid(self):
        """Read the dual as a left bialgebroid (used when it is
        commutative, e.g. for jet algebroids); the coproduct stays lazy."""
        delta = self._delta if callable(self._delta) else self.delta
        if self.which == "left":
            # the stored lift has its legs in the right-bialgebroid order;
            # the left reading wants them the other way round
            f, d = self.field, self.U.dim

            def unflip(src=delta):
                lift = src() if callable(src) else src
                return f.mod(lift.reshape(d, d, d).swapaxes(0, 1).reshape(d * d, d))

            delta = unflip
        return LeftBialgebroid(
            self.A, self.U, self.s_map, self.t_map,
            delta, self.counit, name=self.name,
        )


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


def _build_dual(b):
    f = b.field
    da, du = b.A.dim, b.U.dim
    funcs = _functional_basis(b)
    d = len(funcs)
    solver = CoordSolver(f, [m.reshape(-1) for m in funcs])

    mul = f.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            g = f.zeros((da, du))
            for p in range(du):
                acc = f.zeros(da)
                for k, l, c in b.delta_sparse[p]:
                    w = b.U.mult(b.t_of(f.matmul(funcs[i], b.U.basis(l))), b.U.basis(k))
                    acc = acc + c * f.matmul(funcs[j], w)
                g[:, p] = f.mod(acc)
            mul[i, j] = solver.coords(g.reshape(-1))

    unit = solver.coords(b.counit.reshape(-1))
    alg = AlgebraPresentation(f, mul, unit)

    s_map = f.zeros((d, da))
    t_map = f.zeros((d, da))
    for a in range(da):
        av = b.A.basis(a)
        smat = f.matmul(b.A.right_mult(av), b.counit)  # eps(.) a
        tmat = f.matmul(b.counit, b.U.right_mult(b.t_of(av)))  # eps(. t(a))
        s_map[:, a] = solver.coords(smat.reshape(-1))
        t_map[:, a] = solver.coords(tmat.reshape(-1))

    counit = f.zeros((da, d))
    for i in range(d):
        counit[:, i] = f.matmul(funcs[i], b.U.unit)

    def delta_thunk():
        return _solve_dual_coproduct(b, funcs)

    return DualBialgebroid(
        b, "left", funcs, solver, alg, s_map, t_map, delta_thunk, counit
    )


def _solve_dual_coproduct(b, funcs):
    """Solve the defining linear system for the U_* coproduct lift."""
    f = b.field
    da, du = b.A.dim, b.U.dim
    d = len(funcs)
    # column (i, j): the functional (p, q) -> psi_i( e_p s(psi_j(e_q)) )
    cols = f.zeros((du * du * da, d * d))
    for j in range(d):
        rmults = [
            b.U.right_mult(b.s_of(f.matmul(funcs[j], b.U.basis(q))))
            for q in range(du)
        ]
        for i in range(d):
            col = f.zeros((du, du, da))
            for q in range(du):
                col[:, q, :] = f.matmul(funcs[i], rmults[q]).T
            cols[:, i * d + j] = col.reshape(-1)
    # column m: the functional (p, q) -> psi_m(e_p e_q)
    mul = b.U.mul.reshape(du * du, du)
    rhs = np.stack([f.matmul(mul, g.T).reshape(-1) for g in funcs], axis=1)
    sol = solve_affine(f, cols, rhs)
    if sol is None:
        raise ValueError("dual coproduct system is inconsistent")
    lift = sol[0]
    # the solved legs are balanced the mirrored way round; flip them so
    # the stored lift matches the right-bialgebroid storage convention
    return f.mod(lift.reshape(d, d, d).swapaxes(0, 1).reshape(d * d, d))


def left_dual(b):
    if "dual_left" not in b._cache:
        b._cache["dual_left"] = _build_dual(b)
    return b._cache["dual_left"]


def right_dual(b):
    """U^*, read back over A from U_* of the co-opposite: the same
    functionals, algebra and counit, s and t swapped, coproduct legs
    flipped."""
    if "dual_right" not in b._cache:
        lo = left_dual(b.coop())
        d = lo.dim

        def flipped():
            return lo.delta.reshape(d, d, d).swapaxes(0, 1).reshape(d * d, d)

        b._cache["dual_right"] = DualBialgebroid(
            b, "right", lo.funcs, lo.solver, lo.U, lo.t_map, lo.s_map,
            flipped, lo.counit,
        )
    return b._cache["dual_right"]


def _s_side_dual_basis(b):
    """Functionals e_i^* in U_* with sum_i s(<e_i^*, u>) e_i = u, or None
    when U is not free over s(A).  The t-side basis in U^*, with
    sum_i t(<e_i^*, u>) e_i = u, is this one of ``b.coop()``."""
    if "dual_basis" not in b._cache:
        f, d = b.field, b.U.dim
        lo = left_dual(b)
        ds = lo.dim
        cols = []
        for i in range(d):
            for k in range(ds):
                vec = f.zeros(d * d)
                for j in range(d):
                    a = lo.funcs[k][:, j]
                    vec[j * d : (j + 1) * d] += sum_action(f, b.Ls, a)[:, i]
                cols.append(f.mod(vec))
        sol = solve_affine(f, np.stack(cols, axis=1), f.eye(d).reshape(d * d))
        b._cache["dual_basis"] = (
            None if sol is None
            else [f.mod(sol[0][i * ds : (i + 1) * ds]) for i in range(d)]
        )
    return b._cache["dual_basis"]


def s_upper_star(b):
    """Matrix of S^*: U^* -> U_*, S^*(phi)(u) = eps(u_+ t(phi(u_-))).

    Requires a left Hopf structure.  Columns are indexed by the U^* basis,
    values in U_* coordinates.
    """
    f = b.field
    lo, hi = left_dual(b), right_dual(b)
    tl = translate_left_mat(b)
    du = b.U.dim
    out = f.zeros((lo.dim, hi.dim))
    for m in range(hi.dim):
        g = f.zeros((b.A.dim, du))
        for u in range(du):
            acc = f.zeros(b.A.dim)
            for x, y, c in sparse_pairs(tl[:, u], du, du, f):
                val = f.matmul(hi.funcs[m], b.U.basis(y))
                acc = acc + c * b.eps(b.U.mult(b.U.basis(x), b.t_of(val)))
            g[:, u] = f.mod(acc)
        out[:, m] = lo.coords_of(g)
    return out


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
    f = b.field
    du = b.U.dim
    mats = []
    if kind == "harpoon":
        for u in range(du):
            ru = b.U.right_mult(b.U.basis(u))
            cols = [
                dual.coords_of(f.matmul(dual.funcs[m], ru)) for m in range(dual.dim)
            ]
            mats.append(np.stack(cols, axis=1))
        return mats
    tmat = translate_left_mat(b) if dual.which == "right" else translate_right_mat(b)
    for u in range(du):
        pairs = sparse_pairs(tmat[:, u], du, du, f)
        cols = []
        for m in range(dual.dim):
            g = f.zeros((b.A.dim, du))
            for v in range(du):
                acc = f.zeros(b.A.dim)
                for x, y, c in pairs:
                    val = f.matmul(dual.funcs[m], b.U.mul[y, v])
                    acc = acc + c * b.eps(b.U.mult(b.U.basis(x), b.s_of(val)))
                g[:, v] = f.mod(acc)
            cols.append(dual.coords_of(g))
        mats.append(np.stack(cols, axis=1))
    return mats


def comodule_to_dual_module(b, com):
    """Turn a comodule into a right module over the matching dual.

    Right comodule M -> right U_*-module:  m . psi = m_(0) . psi(m_(1)).
    Left comodule N -> right U^*-module:   n . phi = phi(n_(-1)) . n_(0).

    Returns action matrices per dual-basis index (written on the left, so
    composition is contravariant).  A right comodule is computed as the
    left comodule ``as_left()`` over ``b.coop()``, whose U^* is U_* of b.
    """
    left = com.as_left()
    f = b.field
    du = b.U.dim
    funcs = right_dual(left.b).funcs
    mats = []
    for m in range(len(funcs)):
        out = f.zeros((com.dim, com.dim))
        for i in range(com.dim):
            col = f.zeros(com.dim)
            for k, i2, c in sparse_pairs(f.mod(left.coaction[:, i]), du, com.dim, f):
                val = f.matmul(funcs[m], b.U.basis(k))
                col = col + c * sum_action(f, com.action, val)[:, i2]
            out[:, i] = f.mod(col)
        mats.append(out)
    return (left_dual(b) if com.side == "right" else right_dual(b)), mats


def biduality_report(b):
    """Check that u |-> <u, .> embeds U into the left dual of U_* and is
    an algebra map for the dual-of-dual product."""
    f = b.field
    rep = Report(f"{b.name} biduality")
    lo = left_dual(b)
    du, d = b.U.dim, lo.dim
    # column u: Phi_u = (psi_m -> <u, psi_m>), flattened in A^d
    phi = f.zeros((d * b.A.dim, du))
    for u in range(du):
        for m in range(d):
            phi[m * b.A.dim : (m + 1) * b.A.dim, u] = f.matmul(
                lo.funcs[m], b.U.basis(u)
            )
    rep.add("biduality.injective", rank(f, phi) == du)
    rep.add("biduality.dimension", d == du)

    # candidate product on the image: (Phi Phi')(psi) = Phi(psi_2 t(Phi'(psi_1)))
    dl = lo.delta
    ok = True
    for u in range(du):
        for v in range(du):
            target = _phi_vec(b, lo, b.U.mul[u, v])
            got = f.zeros(d * b.A.dim)
            for m in range(d):
                acc = f.zeros(b.A.dim)
                for i, j, c in sparse_pairs(dl[:, m], d, d, f):
                    val = f.matmul(lo.funcs[i], b.U.basis(v))
                    w = lo.U.mult(lo.U.basis(j), f.matmul(lo.t_map, val))
                    pairing = f.matmul(lo.functional(w), b.U.basis(u))
                    acc = acc + c * pairing
                got[m * b.A.dim : (m + 1) * b.A.dim] = f.mod(acc)
            if not f.equal(got, target):
                ok = False
    rep.add("biduality.multiplicative", ok)
    return rep


def _phi_vec(b, lo, uvec):
    f = b.field
    out = f.zeros(lo.dim * b.A.dim)
    for m in range(lo.dim):
        out[m * b.A.dim : (m + 1) * b.A.dim] = f.matmul(lo.funcs[m], uvec)
    return out
