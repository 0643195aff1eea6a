"""Left bialgebroid presentations and their axiom checkers.

Conventions.  For a left bialgebroid (U, A, s, t, delta, eps) the four
basic actions are

    a |> u <| b  =  s(a) t(b) u      (left multiplications)
    a >  u  < b  =  u t(a) s(b)      (right multiplications)

The coproduct is stored as a k-linear lift U -> U (x) U; all identities
are evaluated on lifts and compared after projecting to the relevant
balanced-tensor quotient:

    T0 = U_<| (x)_A |>U       relations  t(a)u (x) v - u (x) s(a)v
    T1 = >U (x)_{Aop} U_<|    relations  u t(a) (x) v - u (x) t(a)v
    T2 = U_< (x)^A |>U        relations  u s(a) (x) v - u (x) s(a)v
"""

import numpy as np

from .algebra import TripleQuotient, balanced_tensor, check_action, pair_and_act
from .linalg import apply_leg1, apply_leg2, kernel_basis, kron_vec, unit_vector
from .report import Report

__all__ = [
    "LeftBialgebroid",
    "RightBialgebroid",
    "ComodulePresentation",
    "check_left_bialgebroid",
    "check_right_bialgebroid",
    "check_comodule",
    "coinvariants",
    "sparse_pairs",
]


def sparse_pairs(vec, d1, d2, field):
    """Nonzero entries of a tensor-square vector as (i, j, coeff)."""
    out = []
    for idx in np.nonzero(np.asarray(vec))[0]:
        c = field.canon(vec[idx])
        if c != field.zero:
            out.append((idx // d2, idx % d2, c))
    return out


# Cache entries a bialgebroid shares with its co-opposite, keyed by the
# name each one has there.
_COOP_TWIN = {"Ls": "Lt", "Lt": "Ls", "Rs": "Rt", "Rt": "Rs", "T1": "T2", "T2": "T1"}


class LeftBialgebroid:
    """A left bialgebroid on explicit k-bases of the base A and total U.

    ``s_map``/``t_map`` are dU x dA matrices, ``counit`` is dA x dU, and
    ``delta`` is the dU^2 x dU coproduct lift (or a thunk producing it,
    so that coproducts can stay unevaluated when not needed).
    """

    def __init__(self, base, total, s_map, t_map, delta, counit, name="U"):
        self.A = base
        self.U = total
        self.field = base.field
        self.s_map = self.field.mod(np.asarray(s_map))
        self.t_map = self.field.mod(np.asarray(t_map))
        self._delta = delta
        self.counit = self.field.mod(np.asarray(counit))
        self.name = name
        self._cache = {}

    # -- structure maps ----------------------------------------------------

    @property
    def delta(self):
        if callable(self._delta):
            self._delta = self.field.mod(np.asarray(self._delta()))
        return self._delta

    def s_of(self, a):
        return self.field.matmul(self.s_map, a)

    def t_of(self, a):
        return self.field.matmul(self.t_map, a)

    def eps(self, u):
        return self.field.matmul(self.counit, u)

    def delta_of(self, u):
        return self.field.matmul(self.delta, u)

    @property
    def base_action(self):
        """The action of U on its base, a -> eps(u s(a)), as a dU x dA x dA
        stack of matrices, one per basis u."""
        if "base_action" not in self._cache:
            f = self.field
            us = f.mod(np.tensordot(self.U.mul, self.s_map, axes=(1, 0)))  # (u, w, a)
            eps = f.mod(np.tensordot(self.counit, us, axes=(1, 1)))  # (c, u, a)
            self._cache["base_action"] = eps.swapaxes(0, 1)
        return self._cache["base_action"]

    @property
    def delta_sparse(self):
        if "dsp" not in self._cache:
            d = self.U.dim
            self._cache["dsp"] = [
                sparse_pairs(self.delta[:, i], d, d, self.field)
                for i in range(d)
            ]
        return self._cache["dsp"]

    # -- action matrices per A-basis index ----------------------------------

    def _cached(self, key, build):
        """``self._cache[key]``, built on first use and handed to the
        co-opposite under its twin key (see ``coop``)."""
        if key not in self._cache:
            self._cache[key] = build()
            twin = self._cache.get("coop")
            if key in _COOP_TWIN and twin is not None:
                twin._cache[_COOP_TWIN[key]] = self._cache[key]
        return self._cache[key]

    def _mults(self, key, mat, mk):
        return self._cached(
            key, lambda: [mk(self.field.mod(mat[:, i])) for i in range(self.A.dim)]
        )

    @property
    def Ls(self):
        return self._mults("Ls", self.s_map, self.U.left_mult)

    @property
    def Lt(self):
        return self._mults("Lt", self.t_map, self.U.left_mult)

    @property
    def Rs(self):
        return self._mults("Rs", self.s_map, self.U.right_mult)

    @property
    def Rt(self):
        return self._mults("Rt", self.t_map, self.U.right_mult)

    # -- balanced tensor squares --------------------------------------------

    @property
    def T0(self):
        d = self.U.dim
        return self._cached(
            "T0", lambda: balanced_tensor(self.field, d, self.Lt, d, self.Ls)
        )

    @property
    def T1(self):
        d = self.U.dim
        return self._cached(
            "T1", lambda: balanced_tensor(self.field, d, self.Rt, d, self.Lt)
        )

    @property
    def T2(self):
        d = self.U.dim
        return self._cached(
            "T2", lambda: balanced_tensor(self.field, d, self.Rs, d, self.Ls)
        )

    def tensor_mult(self, x, y):
        """Product of two lifts in U (x) U (factorwise)."""
        d = self.U.dim
        f = self.field
        out = f.zeros(d * d)
        for k, l, c in sparse_pairs(x, d, d, f):
            for k2, l2, c2 in sparse_pairs(y, d, d, f):
                out = out + f.mul(c, c2) * kron_vec(
                    f, self.U.mul[k, k2], self.U.mul[l, l2]
                )
        return f.mod(out)

    # -- derived presentations ----------------------------------------------

    def coop(self):
        """The co-opposite left bialgebroid (U, A^op, t, s, flip o delta, eps).

        It is built once: ``b.coop().coop() is b``.  Source and target swap
        roles, so it shares ``b``'s action lists (Ls <-> Lt, Rs <-> Rt) and
        balanced squares (T1 <-> T2); only its T0 is new.  The right-hand
        translation maps, their identity suite and the right-comodule
        suites of ``bgd.hopf`` are the left-hand ones computed on it.
        """
        if "coop" not in self._cache:
            d = self.U.dim

            def flipped():
                return self.delta.reshape(d, d, d).swapaxes(0, 1).reshape(d * d, d)

            twin = LeftBialgebroid(
                self.A.opposite(), self.U, self.t_map, self.s_map, flipped,
                self.counit, name=self.name + "_coop",
            )
            for key, val in self._cache.items():
                if key in _COOP_TWIN:
                    twin._cache[_COOP_TWIN[key]] = val
            twin._cache["coop"] = self
            self._cache["coop"] = twin
        return self._cache["coop"]


class RightBialgebroid:
    """A right bialgebroid, stored as raw data plus the standard reduction
    to a left bialgebroid over the opposite algebras (op of the total,
    op of the base), through which all checks are routed.
    """

    def __init__(self, base, total, s_map, t_map, delta, counit, name="W"):
        self.A = base
        self.U = total
        self.field = base.field
        self.s_map = base.field.mod(np.asarray(s_map))
        self.t_map = base.field.mod(np.asarray(t_map))
        self._delta = delta
        self.counit = base.field.mod(np.asarray(counit))
        self.name = name

    @property
    def delta(self):
        if callable(self._delta):
            self._delta = self.field.mod(np.asarray(self._delta()))
        return self._delta

    def op_coop(self):
        """The associated left bialgebroid (U^op, A^op, s, t, flip o delta)."""
        d = self.U.dim
        def flipped():
            return self.delta.reshape(d, d, d).swapaxes(0, 1).reshape(d * d, d)
        return LeftBialgebroid(
            self.A.opposite(), self.U.opposite(), self.s_map, self.t_map,
            flipped, self.counit, name=self.name + "_opcoop",
        )


def check_left_bialgebroid(b, with_triples=True, name=None):
    """Full axiom battery for a left bialgebroid presentation.

    ``with_triples=False`` skips the coassociativity check, whose iterated
    triple quotient is the only expensive step on large total algebras.
    """
    rep = Report(name or b.name)
    f = b.field
    A, U = b.A, b.U
    for sub, pre in ((A.check(), "base."), (U.check(), "total.")):
        for item in sub.items:
            item.check_id = pre + item.check_id
        rep.items.extend(sub.items)

    one_a = A.unit
    rep.add("source.unit", f.equal(b.s_of(one_a), U.unit))
    rep.add("target.unit", f.equal(b.t_of(one_a), U.unit))

    ok_s = ok_t = ok_c = True
    for i in range(A.dim):
        for j in range(A.dim):
            ei, ej = A.basis(i), A.basis(j)
            si, sj = b.s_of(ei), b.s_of(ej)
            ti, tj = b.t_of(ei), b.t_of(ej)
            ok_s &= f.equal(U.mult(si, sj), b.s_of(A.mult(ei, ej)))
            ok_t &= f.equal(U.mult(ti, tj), b.t_of(A.mult(ej, ei)))
            ok_c &= f.equal(U.mult(si, tj), U.mult(tj, si))
    rep.add("source.morphism", ok_s)
    rep.add("target.antimorphism", ok_t)
    rep.add("source_target.commute", ok_c)

    rep.add("counit.unit", f.equal(b.eps(U.unit), one_a))

    ok = True
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(U.dim):
                u = U.basis(k)
                lhs = b.eps(U.mult(U.mult(b.s_of(A.basis(i)), b.t_of(A.basis(j))), u))
                rhs = A.mult(A.mult(A.basis(i), b.eps(u)), A.basis(j))
                ok &= f.equal(lhs, rhs)
    rep.add("counit.bimodule", ok)

    ok_src = ok_tgt = True
    for i in range(U.dim):
        for j in range(U.dim):
            u, v = U.basis(i), U.basis(j)
            e = b.eps(U.mult(u, v))
            ok_src &= f.equal(e, b.eps(U.mult(u, b.s_of(b.eps(v)))))
            ok_tgt &= f.equal(e, b.eps(U.mult(u, b.t_of(b.eps(v)))))
    rep.add("counit.product.source", ok_src)
    rep.add("counit.product.target", ok_tgt)

    t0 = b.T0
    d = U.dim
    rep.add(
        "coproduct.unit",
        np.array_equal(
            t0.project(b.delta_of(U.unit)), t0.project(kron_vec(f, U.unit, U.unit))
        ),
    )

    ok_l = ok_r = True
    for i in range(d):
        lhs_l = f.zeros(d)
        lhs_r = f.zeros(d)
        for k, l, c in b.delta_sparse[i]:
            lhs_l = lhs_l + c * U.mult(b.s_of(b.eps(U.basis(k))), U.basis(l))
            lhs_r = lhs_r + c * U.mult(b.t_of(b.eps(U.basis(l))), U.basis(k))
        ok_l &= f.equal(f.mod(lhs_l), U.basis(i))
        ok_r &= f.equal(f.mod(lhs_r), U.basis(i))
    rep.add("coproduct.counit.left", ok_l)
    rep.add("coproduct.counit.right", ok_r)

    ok = True
    for i in range(d):
        lift = b.delta_of(U.basis(i))
        for a in range(b.A.dim):
            v1 = apply_leg1(f, b.Rt[a], lift, d, d)
            v2 = apply_leg2(f, b.Rs[a], lift, d, d)
            if not f.is_zero(t0.project(f.mod(v1 - v2))):
                ok = False
    rep.add("coproduct.takeuchi", ok)

    ok = True
    witness = None
    for i in range(d):
        for j in range(d):
            lhs = b.delta_of(U.mult(U.basis(i), U.basis(j)))
            rhs = b.tensor_mult(b.delta_of(U.basis(i)), b.delta_of(U.basis(j)))
            if not np.array_equal(t0.project(lhs), t0.project(rhs)):
                ok = False
                witness = f"delta(e{i} e{j}) != delta(e{i}) delta(e{j})"
                break
        if not ok:
            break
    rep.add("coproduct.multiplicative", ok, witness)

    ok = True
    for a in range(b.A.dim):
        for i in range(d):
            u = U.basis(i)
            lift = b.delta_of(u)
            lhs = b.delta_of(f.matmul(b.Ls[a], u))
            if not np.array_equal(
                t0.project(lhs), t0.project(apply_leg1(f, b.Ls[a], lift, d, d))
            ):
                ok = False
            lhs = b.delta_of(f.matmul(b.Lt[a], u))
            if not np.array_equal(
                t0.project(lhs), t0.project(apply_leg2(f, b.Lt[a], lift, d, d))
            ):
                ok = False
    rep.add("coproduct.bimodule", ok)

    if with_triples:
        trip = TripleQuotient(
            f,
            (d, d, d),
            [(b.Lt[a], b.Ls[a]) for a in range(b.A.dim)],
            [(b.Lt[a], b.Ls[a]) for a in range(b.A.dim)],
        )
        ok = True
        for i in range(d):
            lhs = f.zeros(d * d * d)
            rhs = f.zeros(d * d * d)
            for k, l, c in b.delta_sparse[i]:
                lhs = lhs + c * kron_vec(f, b.delta_of(U.basis(k)), U.basis(l))
                rhs = rhs + c * kron_vec(f, U.basis(k), b.delta_of(U.basis(l)))
            if not np.array_equal(trip.project(f.mod(lhs)), trip.project(f.mod(rhs))):
                ok = False
                break
        rep.add("coproduct.coassociative", ok)
    else:
        rep.skip("coproduct.coassociative", "triple quotient skipped")
    return rep


def check_right_bialgebroid(w, with_triples=True):
    """Axiom battery for a right bialgebroid, via its left reduction."""
    return check_left_bialgebroid(w.op_coop(), with_triples=with_triples, name=w.name)


class ComodulePresentation:
    """A left or right comodule over a left bialgebroid.

    Left comodule: a left A-action (``action[a]`` per base index) and a
    coaction lift M -> U (x) M, compared in U_<| (x)_A M
    (relations t(a)u (x) m - u (x) a.m).

    Right comodule: a right A-action written on the left, and a coaction
    lift M -> M (x) |>U (relations m.a (x) u - m (x) s(a)u).  It is the
    left comodule ``as_left()`` over ``b.coop()``, through which its checks,
    Hopf-Galois map and translation map are computed.
    """

    def __init__(self, b, side, action, coaction, name="M"):
        self.b = b
        self.side = side  # "left" | "right"
        self.field = b.field
        self.action = [b.field.mod(np.asarray(m)) for m in action]
        self.coaction = b.field.mod(np.asarray(coaction))
        self.dim = self.action[0].shape[0]
        self.name = name
        self._cache = {}

    def coop(self):
        """The same comodule over ``b.coop()``, built once (``coop().coop()``
        is this comodule): a right A-action is a left A^op-action and back,
        so a right comodule over b is a left comodule over b.coop() once its
        coaction legs are swapped, and a left one a right one."""
        if "coop" not in self._cache:
            dm, du = self.dim, self.b.U.dim
            legs = (dm, du) if self.side == "right" else (du, dm)
            swapped = self.coaction.reshape(*legs, dm).swapaxes(0, 1)
            twin = ComodulePresentation(
                self.b.coop(), "left" if self.side == "right" else "right",
                self.action, swapped.reshape(du * dm, dm), name=self.name,
            )
            twin._cache["coop"] = self
            self._cache["coop"] = twin
        return self._cache["coop"]

    def as_left(self):
        """This comodule as a left comodule: itself if it is one, else
        ``coop()``, a left comodule over b.coop()."""
        return self if self.side == "left" else self.coop()

    @property
    def quotient(self):
        """The balanced tensor space U_<| (x)_A M the coaction of a left
        comodule lands in.  A right comodule has none of its own: every
        caller goes through ``as_left()``."""
        if self.side != "left":
            raise ValueError("quotient is defined for left comodules; use as_left()")
        if "q" not in self._cache:
            b = self.b
            self._cache["q"] = balanced_tensor(
                self.field, b.U.dim, b.Lt, self.dim, self.action
            )
        return self._cache["q"]

    @property
    def induced_action(self):
        """The induced action on the other side.

        For a left comodule: m.a = eps(m_(-1) s(a)) . m_0, a right action.
        For a right comodule: a.m = m_0 . eps(m_1 t(a)), a left action,
        which is the induced action of ``as_left()``.
        """
        if self.side == "right":
            return self.as_left().induced_action
        if "ind" not in self._cache:
            # one functional per A-basis index a: u -> eps(u s(a))
            funcs = self.b.base_action.transpose(2, 1, 0)
            self._cache["ind"] = list(
                pair_and_act(self.field, self.action, funcs, self.coaction)
            )
        return self._cache["ind"]

    def coact(self, m):
        return self.field.matmul(self.coaction, m)


def check_comodule(com, name=None):
    """Counitality, coassociativity, A-linearity and the image condition
    for a comodule presentation (a right comodule through ``as_left()``)."""
    rep = Report(name or f"{com.name} ({com.side} comodule)")
    contra = com.side == "right"
    rep.extend(check_action(com.b.A, com.action, contravariant=contra, name="a"))
    for item in rep.items[-2:]:
        item.check_id = "comodule." + item.check_id

    base_a = com.b.A
    com = com.as_left()
    b = com.b
    f = com.field
    d, du = com.dim, b.U.dim
    q = com.quotient

    ok = True
    for a in range(b.A.dim):
        for j in range(d):
            m = unit_vector(f, d, j)
            lhs = com.coact(f.matmul(com.action[a], m))
            rhs = apply_leg1(f, b.Ls[a], com.coact(m), du, d)
            if not np.array_equal(q.project(lhs), q.project(rhs)):
                ok = False
    rep.add("comodule.coaction.linear", ok)

    counit = pair_and_act(f, com.action, b.counit[None], com.coaction)[0]
    rep.add("comodule.counit", f.equal(counit, f.eye(d)))

    trip = TripleQuotient(
        f,
        (du, du, d),
        [(b.Lt[a], b.Ls[a]) for a in range(b.A.dim)],
        [(b.Lt[a], com.action[a]) for a in range(b.A.dim)],
    )
    ok = True
    for j in range(d):
        lift = f.mod(com.coaction[:, j])
        lhs = f.zeros(du * du * d)
        rhs = lhs.copy()
        for k, i, c in sparse_pairs(lift, du, d, f):
            lhs = lhs + c * kron_vec(f, b.delta_of(b.U.basis(k)), unit_vector(f, d, i))
            rhs = rhs + c * kron_vec(f, unit_vector(f, du, k), f.mod(com.coaction[:, i]))
        if not np.array_equal(trip.project(f.mod(lhs)), trip.project(f.mod(rhs))):
            ok = False
    rep.add("comodule.coassociative", ok)

    ind = com.induced_action
    rep.extend(check_action(base_a, ind, contravariant=not contra, name="a"))
    for item in rep.items[-2:]:
        item.check_id = "comodule.induced_" + item.check_id

    ok = True
    for a in range(b.A.dim):
        for j in range(d):
            lift = f.mod(com.coaction[:, j])
            v1 = apply_leg1(f, b.Rt[a], lift, du, d)
            v2 = apply_leg2(f, ind[a], lift, du, d)
            if not f.is_zero(q.project(f.mod(v1 - v2))):
                ok = False
    rep.add("comodule.image", ok)
    return rep


def coinvariants(com):
    """Basis of the coinvariant subspace {m : coaction(m) = unit (x) m}
    (for a right comodule, m (x) unit, computed through ``as_left()``)."""
    com = com.as_left()
    b, f, d = com.b, com.field, com.dim
    du = b.U.dim
    triv = np.kron(b.U.unit.reshape(du, 1), f.eye(d))
    diff = f.mod(com.coaction - triv)
    return kernel_basis(f, f.matmul(com.quotient.project_mat, diff))
