"""Integral spaces, invariance characterization, and Maschke separability."""

import functools
import itertools

import numpy as np

from .algebra import project_stack
from .hopf import is_right_hopf, translate_right
from .linalg import kernel_basis, rank, solve_affine, solve_matrix_equation
from .report import Report


class IntegralSpace:
    """A k-basis of one-sided integrals with A-module diagnostics.

    ``basis`` is a list of total-algebra vectors.  ``action`` holds the
    right multiplications by t(a) per A-basis index; the span is closed
    under them, and ``free_rank_one``/``generator``/``projective_summand``
    describe the span as an A-module through that action, each computed
    where it is first read.
    """

    def __init__(self, side, base, basis, action):
        self.side = side
        self.base = base
        self.field = base.field
        self.basis = [base.field.mod(np.asarray(v)) for v in basis]
        self.action = action

    @property
    def dim(self):
        return len(self.basis)

    def span_matrix(self):
        if not self.basis:
            return self.field.zeros((self.action[0].shape[0], 0))
        return np.stack(self.basis, axis=1)

    def contains(self, v):
        if not self.basis:
            return self.field.is_zero(v)
        return solve_affine(self.field, self.span_matrix(), v) is not None

    @functools.cached_property
    def generator(self):
        """A generator of the span as a free A-module of rank one, or None."""
        f, da = self.field, self.base.dim
        if self.dim == da:
            for g, orbit in self._candidates():
                if rank(f, orbit) == da:
                    return f.mod(np.asarray(g))
        return None

    @property
    def free_rank_one(self):
        return self.generator is not None

    @functools.cached_property
    def projective_summand(self):
        return self._split_test()

    def _candidates(self):
        """(g, the orbit of g under ``action`` as a dU x dA matrix) for each
        candidate generator g in turn: the basis, and then, over a small
        F_p, its other combinations with coefficients in 0..p-1 (those with
        coefficient sum above 1, so neither 0 nor a basis vector).  The
        orbits of the basis are one contraction, and those of the
        combinations one more, formed from them."""
        f, m = self.field, self.dim
        span = self.span_matrix()
        orbits = f.contract(self.action, span, (2, 0)).transpose(2, 1, 0)  # [i, u, a]
        yield from zip(self.basis, orbits)
        if f.kind == "prime" and f.p**m <= 2048:
            coeffs = f.array([cs for cs in itertools.product(range(f.p), repeat=m)
                              if sum(cs) > 1]).reshape(-1, m)  # none for p = 2, m = 1
            yield from zip(f.contract(coeffs, span, (1, 1)), f.contract(coeffs, orbits, (1, 0)))

    def _split_test(self):
        """Whether the span is a direct summand of a free A-module: the
        evaluation A^m -> span, unit column r of factor i -> basis[i].t(a_r),
        admits an A-linear right inverse (a linear solve)."""
        f, m, da = self.field, self.dim, self.base.dim
        if m == 0:
            return True
        # span-coordinate action matrices and the evaluation map
        span = self.span_matrix()
        sol = solve_affine(f, span, np.concatenate(f.contract(self.action, span, (2, 0)), axis=1))
        if sol is None:
            raise ValueError("vector escapes the integral span")
        act = np.split(sol[0], da, axis=1)
        ev = np.stack(act, axis=2).reshape(m, m * da)
        # rr[a] = kron(1_m, right_mult(e_a)) on A^m
        rr = f.contract(f.eye(m), self.base.basis_right_mults, 0).transpose(
            2, 0, 3, 1, 4).reshape(da, m * da, m * da)
        # unknown sigma^T, sigma: span -> A^m with ev sigma = 1 and
        # sigma act[a] = rr[a] sigma
        eye_m, eye_n = f.eye(m), f.eye(m * da)
        eqs = [([(eye_m, ev.T)], eye_m)] + [
            ([(act[a].T, eye_n), (eye_m, -rr[a].T)], f.zeros((m, m * da)))
            for a in range(da)
        ]
        return solve_matrix_equation(f, (m, m * da), eqs) is not None


def _integral_basis(b, left):
    """Basis of {l : u l = s(eps(u)) l for all basis u} (``left``) or of
    {l : l u = l s(eps(u))}: one residual of stacked multiplications."""
    f, u = b.field, b.U
    mults = u.basis_left_mults if left else u.basis_right_mults
    se = f.contract(f.matmul(b.s_map, b.counit), u.mul, (0, 0 if left else 1))
    return kernel_basis(f, f.residual(mults, se.swapaxes(1, 2)).reshape(u.dim**2, u.dim))


def left_integrals(b):
    """The space of l with u l = s(eps(u)) l for all u, built once per b."""
    return b._cached("left integrals", lambda: IntegralSpace(
        "left", b.A, _integral_basis(b, True), b.Rt))


def right_integrals(w):
    """The space of right integrals of a right bialgebroid, computed as
    left integrals of its standard left-bialgebroid reduction."""
    b = w.op_coop()
    return IntegralSpace("right", b.A, _integral_basis(b, True), b.Rt)


def right_integrals_of_left(b):
    """The mirror space {l : l u = l s(eps(u)) for all u} of a left
    bialgebroid, closed under the left multiplications by s(a), built once
    per b.  The co-opposite would swap s for t, so it is not derived there."""
    return b._cached("right integrals", lambda: IntegralSpace(
        "right", b.A, _integral_basis(b, False), b.Ls))


def integral_invariance_check(b, l):
    """Whether u l_[+] (x) l_[-] = l_[+] (x) l_[-] u in U_<# (x)_A |>U for
    all basis u; equivalent to l being a left integral.  Returns (ok, the
    label of the first basis u where it fails, or None)."""
    if not is_right_hopf(b):
        raise ValueError("total algebra is not right Hopf")
    f, d, mul = b.field, b.U.dim, b.U.mul
    w = translate_right(b, f.mod(np.asarray(l))).reshape(d, d)
    lhs = f.contract(mul, w, (1, 0))  # [i, z, y]: e_i w' (x) w''
    rhs = f.contract(w, mul, (1, 0)).swapaxes(0, 1)  # [i, x, z]: w' (x) w'' e_i
    bad = np.flatnonzero(project_stack(b.T2, lhs, rhs).any(axis=1))
    return (True, None) if not bad.size else (False, b.U.labels[bad[0]])


def normalized_left_integral(b):
    """Some l in the integral span with eps(l) = 1, or None."""
    spc = left_integrals(b)
    if spc.dim == 0:
        return None
    f = b.field
    sol = solve_affine(f, f.matmul(b.counit, spc.span_matrix()), b.A.unit)
    if sol is None:
        return None
    return f.matmul(spc.span_matrix(), sol[0])


def separability_check(b):
    """A splitting tensor e1 (x) e2 in U_<# (x)_A |>U with e1 e2 = 1 and
    u e1 (x) e2 = e1 (x) e2 u for all u, found by a direct linear solve.
    Returned as an ambient U (x) U lift, or None."""
    f, d, mul = b.field, b.U.dim, b.U.mul
    q = b.T2
    sec = q.section_mat
    legs = sec.reshape(d, d, q.dim)  # [x, y, c]: the lift of class c
    # e' e'' = 1, then the nonzero rows of pm (u (x) 1 - 1 (x) u) e = 0 per basis u
    rows = [f.contract(mul.reshape(d * d, d), sec, (0, 0))]
    for i in range(d):
        left = f.contract(mul[i], legs, (0, 0))  # [z, y, c]: u x (x) y
        right = f.contract(legs, mul[:, i], (1, 0)).swapaxes(1, 2)  # x (x) y u
        block = f.matmul(q.project_mat, f.residual(left, right).reshape(d * d, q.dim))
        rows.append(block[block.any(axis=1)])
    system = np.concatenate(rows)
    del rows  # only the system is alive during the solve
    sol = solve_affine(f, system, np.concatenate([b.U.unit, f.zeros(len(system) - d)]))
    if sol is None:
        return None
    return f.matmul(sec, sol[0])


def counit_splitting(b):
    """A left-module right inverse of the counit, as a dU x dA matrix, or
    None.  Existence is one face of the separability equivalences."""
    f, d, da = b.field, b.U.dim, b.A.dim
    # unknown H^T; constraints eps H = id and left_mult(u) H = H act(u)
    # where act(u)(a) = eps(u s(a)), transposed.
    eye_a, eye_u = f.eye(da), f.eye(d)
    eqs = [([(eye_a, b.counit.T)], eye_a)]
    for i in range(d):
        eqs.append((
            [(eye_a, b.U.basis_left_mults[i].T), (-b.base_action[i].T, eye_u)],
            f.zeros((da, d)),
        ))
    sol = solve_matrix_equation(f, (da, d), eqs)
    return None if sol is None else sol[0].T


def maschke_report(b):
    """The separability equivalences: normalized integral, splitting of
    multiplication, and splitting of the counit all exist together."""
    rep = Report(f"{b.name} separability")
    f, d, mul = b.field, b.U.dim, b.U.mul
    spc = left_integrals(b)
    # u_i l - s(eps(u_i)) l, as [l, i]
    ul = f.contract(spc.span_matrix(), mul, (0, 1))  # [l, w, z]: u_w l
    se = f.matmul(b.s_map, b.counit)
    rep.add_residual(
        "integrals.defining",
        f.sub(ul, f.contract(ul, se, (1, 0)).swapaxes(1, 2)),
        [[f"l{j}" for j in range(spc.dim)], b.U.labels],
    )
    norm = normalized_left_integral(b)
    split = separability_check(b)
    eta = counit_splitting(b)
    rep.add("maschke.normalized-integral", norm is not None)
    rep.add("maschke.separable", split is not None)
    rep.add("maschke.counit-splits", eta is not None)
    rep.add(
        "maschke.equivalence",
        (norm is None) == (split is None) == (eta is None),
    )
    if norm is not None and is_right_hopf(b):
        # e = norm_[+] (x) norm_[-] splits the multiplication: e' e'' = 1,
        # and it is invariant exactly when norm is a left integral
        e = translate_right(b, norm).reshape(d, d)
        ok = f.equal(f.contract(e, mul, ([0, 1], [0, 1])), b.U.unit)
        rep.add("maschke.splitting-from-integral",
                bool(ok and integral_invariance_check(b, norm)[0]))
    return rep
