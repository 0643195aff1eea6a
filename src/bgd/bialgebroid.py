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

Every balanced tensor of U with a module N (these three, the comodule
tensors U_<| (x)_A M, and the >U (x)_{Aop} N of ``bgd.hopf_modules``) is
read off one leg embedding J, ``LeftBialgebroid.leg``: the U leg goes
through a free basis of U for the action of A that balances it (s(A)
for T0 and T2, t(A) for T1), with r = dU / dA slots.  The relation span
is ker J, column j is a pivot of the relation rref iff J e_j lies in
span{J e_k : k > j}, and one rref of J with its columns reversed gives
the relation-built quotient's coordinates and projection
(``linalg.Quotient.from_kernel``).  Where the search finds no free
basis, or a leg's premises fail, the quotient is built from the relation
rows of ``algebra.balanced_tensor``.

A bialgebroid and its co-opposite share, by content alone (``Field.key``),
one store of action stacks (keyed by s or t and the side), free bases
(by the U-side stack) and leg embeddings (by U-side stack, action and
u_first).  So the co-opposite's Ls is b's Lt and its T1 b's T2, and
where s = t, b's Ls is its Lt; a balanced tensor asked for again gets
the leg already built: under the co-opposite's mirrored names, as the
domain of a comodule's Hopf-Galois map, or for another module with the
same action.  The store holds arrays and legs only, nothing that refers
back to either bialgebroid; a comodule's twin over the co-opposite holds
it weakly, as the co-opposite holds b.

The co-opposite is a second object unless s = t, A is commutative and
delta = flip o delta in T0, as for group and groupoid algebras and the
restricted enveloping algebras u(L): then ``b.coop() is b``, and every
cached structure of the co-opposite is b's own.
"""

import weakref

import numpy as np

from .algebra import (
    LegEmbedding, add_triple, check_action, free_basis, multiplicativity, pair_and_act,
    project_stack,
)
from .linalg import kernel_basis
from .report import Report

__all__ = [
    "LeftBialgebroid",
    "RightBialgebroid",
    "ComodulePresentation",
    "check_left_bialgebroid",
    "check_right_bialgebroid",
    "check_comodule",
    "coinvariants",
]


def _build_once(cache, key, build):
    """``cache[key]``, set to ``build()`` on first use."""
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _twin(cache):
    """The co-opposite under ``cache["coop"]``, if built and alive: of two
    twins (bialgebroids or comodules), the second holds the first weakly."""
    twin = cache.get("coop")
    return twin() if isinstance(twin, weakref.ref) else twin


class _Presentation:
    """The structure maps of a bialgebroid on explicit k-bases of the base
    A and total U.

    ``s_map``/``t_map`` are dU x dA matrices, ``counit`` is dA x dU, and
    ``delta`` is the dU^2 x dU coproduct lift (or a thunk producing it,
    so that coproducts can stay unevaluated when not needed).
    """

    def __init__(self, base, total, s_map, t_map, delta, counit, name):
        self.A = base
        self.U = total
        self.field = f = base.field
        self.s_map = f.mod(np.asarray(s_map))
        self.t_map = f.mod(np.asarray(t_map))
        self._delta = delta
        self.counit = f.mod(np.asarray(counit))
        self.name = name

    @property
    def delta(self):
        if callable(self._delta):
            self._delta = self.field.mod(np.asarray(self._delta()))
        return self._delta


class LeftBialgebroid(_Presentation):
    """A left bialgebroid on explicit k-bases of the base A and total U,
    with the structure maps of ``_Presentation``."""

    def __init__(self, base, total, s_map, t_map, delta, counit, name="U"):
        super().__init__(base, total, s_map, t_map, delta, counit, name)
        self._cache = {}
        self._legs = {}  # the store of ``_mults`` and ``leg``, shared with ``coop()``

    # -- structure maps ----------------------------------------------------

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
        f = self.field
        # (u, w, a): u s(a), then (c, u, a): its counit
        return self._cached("base_action", lambda: f.contract(
            self.counit, f.contract(self.U.mul, self.s_map, (1, 0)), (1, 1)).swapaxes(0, 1))

    @property
    def delta3(self):
        """The coproduct lift as a dU x dU x dU tensor: [k, l, i] is the
        coefficient of e_k (x) e_l in delta(e_i)."""
        d = self.U.dim
        return self.delta.reshape(d, d, d)

    # -- action matrices per A-basis index ----------------------------------

    def _cached(self, key, build):
        """``self._cache[key]``, built on first use."""
        return _build_once(self._cache, key, build)

    def _mults(self, mat, axis):
        """The left (axis 0) or right (axis 1) multiplications by mat's
        columns, built once per content of mat in the shared store (``leg``)."""
        f = self.field
        return _build_once(self._legs, (f.key(mat), axis), lambda: f.contract(
            mat, self.U.mul, (0, axis)).transpose(0, 2, 1))

    @property
    def Ls(self):
        return self._mults(self.s_map, 0)

    @property
    def Lt(self):
        return self._mults(self.t_map, 0)

    @property
    def Rs(self):
        return self._mults(self.s_map, 1)

    @property
    def Rt(self):
        return self._mults(self.t_map, 1)

    # -- balanced tensors of U ----------------------------------------------

    @property
    def T0(self):
        return self._cached("T0", lambda: self.leg("Lt", over="Ls", u_first=False).quotient)

    @property
    def T1(self):
        return self._cached("T1", lambda: self.leg("Rt", over="Lt", u_first=False).quotient)

    @property
    def T2(self):
        return self._cached("T2", lambda: self.leg("Rs", over="Ls", u_first=False).quotient)

    def leg(self, action, *, over, u_first):
        """The embedding of the balanced tensor of U with N, for the action
        on N given by ``action`` (one matrix per A-basis index, or the name
        of one of U's own actions) and the action of A on U it balances,
        named by ``over`` (``"Ls"``, ``"Lt"`` or ``"Rt"``): U (x) N with
        relations over_a(u) (x) n - u (x) action_a n when ``u_first``,
        N (x) U with relations action_a n (x) u - n (x) over_a(u) otherwise.
        Its U leg is read through ``algebra.free_basis`` of U for ``over``;
        not exact where the search finds none.  The search and the leg are
        each made once per content, in the store shared with the
        co-opposite: T0 = ``leg("Lt", over="Ls", u_first=False)``."""
        f, mats = self.field, getattr(self, over)
        if isinstance(action, str):
            action = getattr(self, action)
        over_key = f.key(mats)
        key = (over_key, f.key(action), u_first)
        if key not in self._legs:
            if over_key not in self._legs:
                self._legs[over_key] = free_basis(f, mats)
            legs = (mats, action) if u_first else (action, mats)
            self._legs[key] = LegEmbedding(f, *legs, self._legs[over_key], left=u_first)
        return self._legs[key]

    # -- derived presentations ----------------------------------------------

    def coop(self):
        """The co-opposite left bialgebroid (U, A^op, t, s, flip o delta, eps).

        It is built once: ``b.coop().coop() is b``.  It holds ``b`` weakly,
        so the two are freed with ``b``, not by the cycle collector.  Source
        and target swap roles, and it shares ``b``'s store, keyed by content
        alone (see ``leg``): its Ls is b's Lt, its Rt b's Rs and its T1 b's
        T2 (where s = t, b's Ls is its own Lt), and only its T0 is new.  The
        right-hand translation maps, their identity suite and the
        right-comodule suites of ``bgd.hopf`` are the left-hand ones
        computed on it.

        Where s = t, A is commutative and delta = flip o delta in T0, it is
        b itself, held weakly: every right-handed structure is then the
        left-handed one, computed once.
        """
        twin = _twin(self._cache)
        if twin is None:
            delta = self._delta  # a thunk needs self; a lift does not
            twin = self if self._is_own_coop() else LeftBialgebroid(
                self.A.opposite(), self.U, self.t_map, self.s_map,
                (lambda: flip_legs(self.delta)) if callable(delta) else lambda: flip_legs(delta),
                self.counit, name=self.name + "_coop",
            )
            twin._legs = self._legs
            self._cache["coop"] = twin
            twin._cache["coop"] = weakref.ref(self)  # last: b holds itself weakly
        return twin

    def _is_own_coop(self):
        """The test of ``coop``: the lifts are compared first, T0 built only
        where they differ (for u(L), delta(a) = a (x) 1)."""
        f = self.field
        if not (f.equal(self.s_map, self.t_map) and self.A.is_commutative()):
            return False
        flip = flip_legs(self.delta)
        return f.equal(self.delta, flip) or f.is_zero(project_stack(self.T0, self.delta.T, flip.T))


def flip_legs(lift):
    """The coproduct lift (d^2 x d) with its two tensor legs swapped."""
    d = lift.shape[1]
    return lift.reshape(d, d, d).swapaxes(0, 1).reshape(d * d, d)


class RightBialgebroid(_Presentation):
    """A right bialgebroid, stored as raw data plus the standard reduction
    to a left bialgebroid over the opposite algebras (op of the total,
    op of the base), through which all checks are routed.
    """

    def op_coop(self):
        """The associated left bialgebroid (U^op, A^op, s, t, flip o delta)."""
        return LeftBialgebroid(
            self.A.opposite(), self.U.opposite(), self.s_map, self.t_map,
            lambda: flip_legs(self.delta), self.counit, name=self.name + "_opcoop",
        )


def check_left_bialgebroid(b, with_triples=True):
    """Full axiom battery for a left bialgebroid presentation.

    Each identity is one residual tensor (lhs - rhs, projected where it
    lives in a balanced tensor), with one leading axis per basis element
    it quantifies over.  Coassociativity is decided in U (x)_A U (x)_A U
    through the T0 leg embeddings (``algebra.triple_classes``), or through a
    ``TripleQuotient`` where their premises fail, and skipped where that
    does not exist or ``with_triples=False``.
    """
    rep = Report(b.name)
    f = b.field
    A, U = b.A, b.U
    d = U.dim
    rep.extend(A.check(), "base.")
    rep.extend(U.check(), "total.")

    S, T = b.s_map, b.t_map
    aa, uu = [A.labels] * 2, [U.labels] * 2
    rep.add_residual("source.unit", f.sub(b.s_of(A.unit), U.unit), [U.labels])
    rep.add_residual("target.unit", f.sub(b.t_of(A.unit), U.unit), [U.labels])
    # [i, j] runs over pairs of A-basis elements
    st = U.products(S, T)
    rep.add_residual(
        "source.morphism", f.sub(U.products(S, S), f.contract(A.mul, S, (2, 1))), aa)
    rep.add_residual(
        "target.antimorphism",
        f.sub(U.products(T, T), f.contract(A.mul, T, (2, 1)).swapaxes(0, 1)), aa)
    rep.add_residual(
        "source_target.commute", f.sub(st, U.products(T, S).swapaxes(0, 1)), aa)

    rep.add_residual("counit.unit", f.sub(b.eps(U.unit), A.unit), [A.labels])
    eps_uv = f.contract(U.mul, b.counit, (2, 1))  # [x, k]: eps(e_x e_k)
    # eps(s(e_i) t(e_j) u_k) against e_i eps(u_k) e_j
    aea = f.contract(f.contract(A.mul, A.mul, (2, 0)), b.counit, (1, 0))  # (i, j, c, k)
    rep.add_residual(
        "counit.bimodule",
        f.sub(f.contract(st, eps_uv, (2, 0)), aea.swapaxes(2, 3)), aa + [U.labels])
    # se[:, k] = s(eps(e_k)), te[:, k] = t(eps(e_k))
    se, te = f.matmul(S, b.counit), f.matmul(T, b.counit)
    for tag, img in (("source", se), ("target", te)):
        rep.add_residual(
            f"counit.product.{tag}",
            f.sub(eps_uv, f.contract(eps_uv, img, (1, 0)).swapaxes(1, 2)), uu)

    t0 = b.T0
    rep.add_residual(
        "coproduct.unit", project_stack(t0, b.delta_of(U.unit), f.contract(U.unit, U.unit, 0), 0))
    D = b.delta3
    # sum s(eps(e_k)) e_l and sum t(eps(e_l)) e_k over the terms of delta(e_i)
    left = f.contract(D, f.contract(se, U.mul, (0, 0)), ([0, 1], [0, 1]))
    right = f.contract(D, f.contract(te, U.mul, (0, 0)), ([0, 1], [1, 0]))
    rep.add_residual("coproduct.counit.left", f.sub(left, f.eye(d)), [U.labels])
    rep.add_residual("coproduct.counit.right", f.sub(right, f.eye(d)), [U.labels])

    # (Rt[a] (x) 1) delta(e_i) - (1 (x) Rs[a]) delta(e_i), as [i, a]
    v1 = f.contract(np.asarray(b.Rt), D, (2, 0)).transpose(3, 0, 1, 2)
    v2 = f.contract(np.asarray(b.Rs), D, (2, 1)).transpose(3, 0, 2, 1)
    rep.add_residual(
        "coproduct.takeuchi", project_stack(t0, v1, v2, 2), [U.labels, A.labels])
    rep.add_residual(
        "coproduct.multiplicative", multiplicativity(t0, U, b.delta), uu,
        lambda i, j: f"delta(e{i} e{j}) != delta(e{i}) delta(e{j})",
    )
    # delta(s(e_a) e_i) against (Ls[a] (x) 1) delta(e_i), and
    # delta(t(e_a) e_i) against (1 (x) Lt[a]) delta(e_i), as [a, i]
    res = []
    for mats, axis, order in ((b.Ls, 0, (0, 3, 1, 2)), (b.Lt, 1, (0, 3, 2, 1))):
        mats = np.asarray(mats)
        lhs = f.contract(mats, b.delta, (1, 1))
        rhs = f.contract(mats, D, (2, axis)).transpose(order)
        res.append(project_stack(t0, lhs, rhs, 2))
    rep.add_residual(
        "coproduct.bimodule", np.concatenate(res, axis=2), [A.labels, U.labels])

    if with_triples:
        # (delta (x) 1) delta(e_i) and (1 (x) delta) delta(e_i), one column per i
        lhs = f.contract(b.delta, D, (1, 0)).reshape(d, d, d, d)
        rhs = f.contract(D, b.delta, (1, 1)).transpose(0, 2, 1).reshape(d, d, d, d)
        leg = b.leg("Lt", over="Ls", u_first=False)
        add_triple(rep, "coproduct.coassociative", f, lhs, rhs, leg, leg, [U.labels])
    else:
        rep.skip("coproduct.coassociative", "triple quotient skipped")
    return rep


def check_right_bialgebroid(w, with_triples=True):
    """Axiom battery for a right bialgebroid, via its left reduction."""
    rep = check_left_bialgebroid(w.op_coop(), with_triples=with_triples)
    rep.subject = w.name
    return rep


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

    def _cached(self, key, build):
        return _build_once(self._cache, key, build)

    def coop(self):
        """The same comodule over ``b.coop()``, built once (``coop().coop()``
        is this comodule): a right A-action is a left A^op-action and back,
        so a right comodule over b is a left comodule over b.coop() once its
        coaction legs are swapped, and a left one a right one.  The twin
        holds this comodule weakly, as ``b.coop()`` holds b."""
        twin = _twin(self._cache)
        if twin is None:
            dm, du = self.dim, self.b.U.dim
            legs = (dm, du) if self.side == "right" else (du, dm)
            swapped = self.coaction.reshape(*legs, dm).swapaxes(0, 1)
            twin = ComodulePresentation(
                self.b.coop(), "left" if self.side == "right" else "right",
                self.action, swapped.reshape(du * dm, dm), name=self.name,
            )
            self._cache["coop"] = twin
            twin._cache["coop"] = weakref.ref(self)
        return twin

    def as_left(self):
        """This comodule as a left comodule: itself if it is one, else
        ``coop()``, a left comodule over b.coop()."""
        return self if self.side == "left" else self.coop()

    @property
    def leg(self):
        """The embedding (``b.leg``, over t(A)) of the balanced tensor
        U_<| (x)_A M the coaction of a left comodule lands in, built once
        in b's store.  A right comodule has none of its own: every caller
        goes through ``as_left()``."""
        if self.side != "left":
            raise ValueError("quotient is defined for left comodules; use as_left()")
        return self.b.leg(self.action, over="Lt", u_first=True)

    @property
    def dom_leg(self):
        """The embedding (``b.leg``, over s(A)) of the domain N (x)^A |>U of
        the comodule Hopf-Galois map of a left comodule, for the induced
        right action on N, built once in b's store."""
        if self.side != "left":
            raise ValueError("dom_leg is defined for left comodules; use as_left()")
        return self.b.leg(self.induced_action, over="Ls", u_first=False)

    @property
    def quotient(self):
        """U_<| (x)_A M as a ``Quotient`` (left comodules only)."""
        return self.leg.quotient

    @property
    def induced_action(self):
        """The induced action on the other side.

        For a left comodule: m.a = eps(m_(-1) s(a)) . m_0, a right action.
        For a right comodule: a.m = m_0 . eps(m_1 t(a)), a left action,
        which is the induced action of ``as_left()``.
        """
        if self.side == "right":
            return self.as_left().induced_action
        # one functional per A-basis index a: u -> eps(u s(a))
        return self._cached("ind", lambda: list(pair_and_act(
            self.field, self.action, self.b.base_action.transpose(2, 1, 0), self.coaction)))


def check_comodule(com):
    """Counitality, coassociativity, A-linearity and the image condition
    for a comodule presentation (a right comodule through ``as_left()``)."""
    rep = Report(f"{com.name} ({com.side} comodule)")
    contra = com.side == "right"
    rep.extend(check_action(com.b.A, com.action, contravariant=contra), "comodule.")

    base_a = com.b.A
    com = com.as_left()
    b = com.b
    f = com.field
    d, du = com.dim, b.U.dim
    q = com.quotient
    # co[k, m, j]: the coefficient of e_k (x) m_m in the coaction of m_j
    co = com.coaction.reshape(du, d, d)
    labels = [b.A.labels, [f"m{j}" for j in range(d)]]

    # coact(a.m_j) against (s(a) (x) 1) coact(m_j), as [a, j]
    lhs = f.contract(np.asarray(com.action), com.coaction, (1, 1))
    rhs = f.contract(np.asarray(b.Ls), co, (2, 0)).transpose(0, 3, 1, 2)
    rep.add_residual("comodule.coaction.linear", project_stack(q, lhs, rhs, 2), labels)

    # [j, n]: the m_n-entry of eps(m_j(-1)) . m_j(0)
    counit = pair_and_act(f, com.action, b.counit[None], com.coaction)[0]
    rep.add_residual("comodule.counit", f.sub(counit.T, f.eye(d)), labels[1:])

    # (delta (x) 1) coact(m_j) and (1 (x) coact) coact(m_j), one column per j;
    # M need not be projective, so both legs embed through their U leg
    lhs = f.contract(b.delta, co, (1, 0)).reshape(du, du, d, d)
    rhs = f.contract(co, com.coaction, (1, 1)).transpose(0, 2, 1).reshape(lhs.shape)
    leg12 = b.leg("Ls", over="Lt", u_first=True)
    add_triple(rep, "comodule.coassociative", f, lhs, rhs, leg12, com.leg, labels[1:])

    ind = com.induced_action
    rep.extend(check_action(base_a, ind, contravariant=not contra), "comodule.induced_")

    # (t(a) on the U leg) - (.a on the M leg) of coact(m_j), as [a, j]
    v1 = f.contract(np.asarray(b.Rt), co, (2, 0)).transpose(0, 3, 1, 2)
    v2 = f.contract(np.asarray(ind), co, (2, 1)).transpose(0, 3, 2, 1)
    rep.add_residual("comodule.image", project_stack(q, v1, v2, 2), labels)
    return rep


def coinvariants(com):
    """Basis of the coinvariant subspace {m : coaction(m) = unit (x) m}
    (for a right comodule, m (x) unit, computed through ``as_left()``)."""
    com = com.as_left()
    b, f, d = com.b, com.field, com.dim
    triv = f.contract(b.U.unit, f.eye(d), 0).reshape(b.U.dim * d, d)  # m -> 1 (x) m
    diff = f.sub(com.coaction, triv)
    return kernel_basis(f, f.matmul(com.quotient.project_mat, diff))
