"""Finite-dimensional algebras given by structure constants, plus the
balanced-tensor quotient machinery used throughout.
"""

import itertools
import math

import numpy as np

from .linalg import DescentError, Quotient, invert, rref
from .report import Report

__all__ = [
    "AlgebraPresentation",
    "format_vector",
    "check_action",
    "tensor_product",
    "balanced_tensor",
    "free_basis",
    "LegEmbedding",
    "triple_classes",
    "add_triple",
    "TripleQuotient",
    "project_stack",
    "lift_products",
    "multiplicativity",
    "pair_and_act",
]


class AlgebraPresentation:
    """A unital associative algebra on a fixed k-basis.

    ``mul[i, j, :]`` holds the structure constants of ``e_i * e_j``.
    """

    def __init__(self, field, mul, unit, labels=None):
        self.field = field
        self.mul = field.mod(np.asarray(mul))
        self.dim = self.mul.shape[0]
        if self.mul.shape != (self.dim, self.dim, self.dim):
            raise ValueError("mul table must be dim x dim x dim")
        self.unit = field.mod(np.asarray(unit))
        self.labels = labels or [f"e{i}" for i in range(self.dim)]
        self._lmults = None
        self._rmults = None

    @classmethod
    def from_triples(cls, field, dim, triples, unit, labels=None):
        """Build from sparse entries ``(i, j, k, c)`` meaning e_i e_j += c e_k."""
        mul = field.zeros((dim, dim, dim))
        for i, j, k, c in triples:
            mul[i, j, k] = field.add(mul[i, j, k], field.canon(c))
        return cls(field, mul, field.array(unit), labels)

    def basis(self, i):
        v = self.field.zeros(self.dim)
        v[i] = self.field.one
        return v

    def mult(self, x, y):
        d, f = self.dim, self.field
        return f.matmul(y, f.matmul(x, self.mul.reshape(d, d * d)).reshape(d, d))

    def products(self, x, y):
        """Table of products: entry [a, b] is x[:, a] * y[:, b], for x and y
        holding one element per column."""
        f = self.field
        return f.contract(f.contract(x, self.mul, (0, 0)), y, (1, 0)).swapaxes(1, 2)

    def left_mult(self, x):
        """Matrix of v -> x * v."""
        d = self.dim
        return self.field.matmul(x, self.mul.reshape(d, d * d)).reshape(d, d).T

    def right_mult(self, x):
        """Matrix of v -> v * x."""
        return self.field.contract(x, self.mul, (0, 1)).T

    @property
    def basis_left_mults(self):
        """The stack of ``left_mult(e_i)``: a transposed copy of ``mul``."""
        if self._lmults is None:
            self._lmults = self.mul.transpose(0, 2, 1).copy()
        return self._lmults

    @property
    def basis_right_mults(self):
        """The stack of ``right_mult(e_i)``: a transposed copy of ``mul``."""
        if self._rmults is None:
            self._rmults = self.mul.transpose(1, 2, 0).copy()
        return self._rmults

    def power(self, x, n):
        out = self.unit.copy()
        for _ in range(n):
            out = self.mult(out, x)
        return out

    def is_commutative(self):
        return self.field.equal(self.mul, np.swapaxes(self.mul, 0, 1))

    def opposite(self):
        return AlgebraPresentation(
            self.field, np.swapaxes(self.mul, 0, 1), self.unit, self.labels
        )

    def check(self):
        """Verify unit and associativity axioms."""
        rep = Report("algebra")
        f, one, lab = self.field, self.field.eye(self.dim), [self.labels]
        # [j, k]: the e_k-coefficient of 1 e_j, and of e_j 1
        for side, axis in (("left", 0), ("right", 1)):
            rep.add_residual(
                f"unit.{side}", f.sub(f.contract(self.unit, self.mul, (0, axis)), one), lab)
        # (e_i e_j) e_k vs e_i (e_j e_k), contracted in bulk
        left = f.contract(self.mul, self.mul, (2, 0))
        right = f.contract(self.mul, self.mul, (2, 1))
        rep.add_residual(
            "associativity", f.sub(left, np.transpose(right, (2, 0, 1, 3))), lab * 3,
            lambda i, j, k: f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})",
        )
        return rep


def format_vector(field, labels, v):
    """v as the sum of its nonzero terms, ``labels[i]`` naming coordinate i:
    "e0 + 2*e1", or "0"."""
    f, terms = field, []
    for i, c in enumerate(np.asarray(v)):
        c = f.canon(c)
        if c != f.zero:
            terms.append(labels[i] if c == f.one else f"{f.format(c)}*{labels[i]}")
    return " + ".join(terms) if terms else "0"


def check_action(alg, mats, contravariant=False, name="action"):
    """Check that basis matrices define a module structure over ``alg``.

    ``mats[i]`` represents the action of basis element ``e_i``; with
    ``contravariant=True`` the composition rule is reversed
    (rho(a) rho(b) = rho(b a)), as for right actions written on the left.
    """
    rep = Report(name)
    f = alg.field
    act = np.asarray(mats)
    # [n, m]: the m-entry of 1 . e_n
    rep.add_residual(
        "action.unit", f.sub(f.contract(alg.unit, act, (0, 0)).T, f.eye(act.shape[1])))
    # comp[i, j] = rho(e_i) rho(e_j), or rho(e_j) rho(e_i) when contravariant
    comp = f.contract(act, act, (2, 1)).transpose((2, 0, 1, 3) if contravariant else (0, 2, 1, 3))
    rep.add_residual(
        "action.composition", f.sub(comp, f.contract(alg.mul, act, (2, 0))),
        [alg.labels] * 2, lambda i, j: f"composition fails at basis pair ({i}, {j})",
    )
    return rep


def pair_and_act(field, action, funcs, lift, u_first=True):
    """The maps m -> <g, m_U> . m_M, one per functional g in the stack
    ``funcs`` (n x dA x dU), with M a left A-module through ``action`` (one
    matrix per A-basis index).  ``lift`` has one column per m, each in
    U (x) M when ``u_first`` and in M (x) U otherwise.  Returns the
    n x dM x (columns of lift) stack."""
    f = field
    act, lift = np.asarray(action), np.asarray(lift)
    dm, du, c = act.shape[1], np.shape(funcs)[2], lift.shape[-1]
    legs = lift.reshape((du, dm, c) if u_first else (dm, du, c))
    if not u_first:
        legs = legs.swapaxes(0, 1)
    # vals[g, a, i, j]: the e_a-coefficient of <g, U-leg> on the term e_i of column j
    vals = f.contract(funcs, legs, (2, 0))
    return f.contract(vals, act, ([1, 2], [0, 2])).swapaxes(1, 2)


def lift_products(alg, x, y, flip=False):
    """Factorwise products in the tensor square of ``alg``: x[:, :, i] and
    y[:, :, j] are elements of alg (x) alg, and entry [i, j] of the result
    (n x m x d x d) is x_i y_j, with the second legs multiplied in reverse
    order (x' y' (x) y'' x'') when ``flip``.  Each leg is multiplied
    before the two are paired, so no intermediate has more than
    d^3 max(n, m) or d^2 n m entries."""
    f = alg.field
    second = f.contract(x, alg.mul, (1, 1 if flip else 0))  # x'' y'' as [x', i, y'', b]
    first = f.contract(y, alg.mul, (0, 1))  # x' y' as [y'', j, x', a]
    return f.contract(second, first, ([0, 2], [2, 0])).transpose(0, 2, 3, 1)


def multiplicativity(q, alg, lift, flip=False):
    """The residual of (e_i e_j)' (x) (e_i e_j)'' against e_i' e_j' (x)
    e_i'' e_j'' (e_j'' e_i'' when ``flip``) in the quotient q, as [i, j],
    for ``lift`` (d^2 x d) a k-linear map alg -> alg (x) alg.  Its own
    function, so that the d^5 intermediate is freed on return."""
    d = alg.dim
    lift3 = lift.reshape(d, d, d)
    rhs = lift_products(alg, lift3, lift3, flip).reshape(d, d, d * d)
    return project_stack(q, alg.field.contract(alg.mul, lift, (2, 1)), rhs, 2)


def tensor_product(a, b):
    """Tensor product algebra on the kron-ordered basis (i, j) -> i*dimB + j."""
    f = a.field
    d = a.dim * b.dim
    # outer[i, k, m, j, l, n] = a.mul[i, k, m] * b.mul[j, l, n]
    mul = f.contract(a.mul, b.mul, 0).transpose(0, 3, 1, 4, 2, 5).reshape(d, d, d)
    labels = [f"{x}(x){y}" for x in a.labels for y in b.labels]
    return AlgebraPresentation(f, mul, f.contract(a.unit, b.unit, 0).reshape(-1), labels)


def balanced_tensor(field, dim_m, mats_m, dim_n, mats_n):
    """Quotient of M (x) N by the span of (P_a m)(x)n - m(x)(Q_a n).

    ``mats_m`` / ``mats_n`` are the per-basis action matrices P_a, Q_a.
    """
    return Quotient(field, dim_m * dim_n, balanced_relations(field, dim_m, mats_m, dim_n, mats_n))


def balanced_relations(field, dim_m, mats_m, dim_n, mats_n):
    """The relation rows kron(P_a^T, I) - kron(I, Q_a^T) of ``balanced_tensor``,
    stacked over a.  Row (a, i, k) holds P_a[j, i] at (j, k) and -Q_a[l, k]
    at (i, l); the blocks are placed by indexing, so no entry is multiplied
    by an identity."""
    m, n, count = dim_m, dim_n, len(mats_m)
    ps = np.asarray(mats_m).reshape(count, m, m)
    qs = np.asarray(mats_n).reshape(count, n, n)
    out = field.zeros((count, m, n, m, n))
    i, k = np.arange(m), np.arange(n)
    out[:, :, k, :, k] = ps.transpose(0, 2, 1)  # [k, a, i, j] = P_a[j, i]
    out[:, i, :, i, :] = -qs.transpose(0, 2, 1)  # [i, a, k, l] = -Q_a[l, k]
    # where the blocks meet, at (j, l) = (i, k), both terms count
    out[:, i[:, None], k, i[:, None], k] = ps[:, i, i][:, :, None] - qs[:, k, k][:, None, :]
    return field.mod(out.reshape(count * m * n, m * n))


# ``free_basis`` draws one pool of ``_FREE_BASIS_TRIES * r`` random
# candidates, after the basis vectors, before it gives up.
_FREE_BASIS_TRIES = 64


def free_basis(field, mats):
    """A basis of Y free over A, for the left action stack ``mats``
    (dA x dY x dY, one matrix per A-basis index), and its coordinate
    functionals: ``(phi, gens)`` with ``gens`` dY x r, r = dY / dA, such
    that M = [mats_a g_i] (column (i, a)) is invertible, and ``phi`` = M^-1
    as an r x dA x dY stack, so that sum_i sum_a phi_i(y)_a mats_a g_i = y.
    None when dA does not divide dY, or when the candidates run out.

    The search is greedy: a candidate g is kept when the span of the
    mats_a g adds dA to the rank so far.  The candidates are the basis
    vectors of Y, which keep M, phi and so the leg embeddings sparse where
    they generate, and then a pool of ``_FREE_BASIS_TRIES * r`` random
    vectors, drawn from a fixed seed, shared by all r generators: basis
    vectors need not do (on M_n(k) over k^n, s(A) e_ij is k e_ij).  Every
    run picks the same generators."""
    f, mats = field, np.asarray(mats)
    da, dy = mats.shape[:2]
    if dy % da:
        return None
    r = dy // da
    rng = np.random.default_rng(0)
    # entries in -1..1 over Q, which keep the fractions of phi small
    lo, hi = (0, f.p) if f.kind == "prime" else (-1, 2)
    cands = itertools.chain(f.eye(dy), (
        f.array(rng.integers(lo, hi, size=dy)) for _ in range(_FREE_BASIS_TRIES * r)))
    # the span so far, reduced: rows[:, pivots] is the identity
    rows, pivots, gens = f.zeros((0, dy)), [], []
    for j, g in enumerate(cands):
        # row a: mats_a g, a column of mats for the basis vector g = e_j
        block = mats[:, :, j] if j < dy else f.contract(mats, g, (2, 0))
        if np.count_nonzero(block.any(axis=1)) < da:
            continue  # rank below dA, which no reduction raises (each e_j on pair)
        if pivots:
            block = f.sub(block, f.matmul(block[:, pivots], rows))
        new, piv = rref(f, block)
        if len(piv) < da:
            continue
        if pivots:
            rows = f.sub(rows, f.matmul(rows[:, piv], new))
        rows, pivots = np.concatenate([rows, new]), pivots + piv
        gens.append(g)
        if len(gens) == r:
            break
    else:
        return None
    gens = np.stack(gens, axis=1)
    m = f.contract(mats, gens, (2, 0)).transpose(1, 2, 0).reshape(dy, dy)
    return invert(f, m).reshape(r, da, dy), gens


class LegEmbedding:
    """The map J: X (x) Y -> X (x) k^r, x (x) y |-> sum_i P(phi_i(y)) x (x) e_i,
    for the balanced tensor X (x)_A Y with relations (P_a x)(x)y - x(x)(Q_a y)
    (``mats_x`` = P, ``mats_y`` = Q, one matrix per A-basis index, as for
    ``balanced_tensor``), through ``basis`` = ``(dual, gens)``, a stack of
    functionals phi_i: Y -> A (r x dA x dY) and generators of Y (dY x r,
    g_i its columns), as ``free_basis`` returns them, or None; P(c) is
    sum_a c_a P_a.  With ``left=True`` the roles of the legs swap: the
    basis is of X, and J: x (x) y |-> sum_i e_i (x) Q(phi_i(x)) y.

    ``exact`` says that ker J is the relation span, so that J decides
    classes without a relation rref.  Written for ``left=False``:

    (i)  sum_i Q(phi_i(y)) g_i = y for every y, and
    (ii) J sends every relation generator to 0.

    (ii) puts the relations in ker J.  Conversely, K: x (x) e_i |-> x (x) g_i
    gives K J(x (x) y) = sum_i P(phi_i(y)) x (x) g_i, which is congruent to
    x (x) sum_i Q(phi_i(y)) g_i = x (x) y modulo relations (relations are
    linear in a), by (i); so J v = 0 puts v in the relation span.  No
    action axiom is assumed: both premises are checked as stated, for any
    basis passed, so a dual basis (gens the identity, r = dY) serves too.

    ``quotient`` is the balanced tensor itself: read off the matrix of J
    (``Quotient.from_kernel``) when ``exact``, and built from the relation
    rows of ``balanced_tensor`` otherwise, as it is without a basis.  Both
    give the same coordinates.
    """

    def __init__(self, field, mats_x, mats_y, basis, left=False):
        self.field = field
        self.P, self.Q = np.asarray(mats_x), np.asarray(mats_y)
        self.left = left
        self.dual, self.gens = (None, None) if basis is None else basis
        self.exact = basis is not None and self._premises()
        self._quotient = None

    @property
    def quotient(self):
        """X (x)_A Y as a ``Quotient`` of X (x) Y, built once."""
        if self._quotient is None:
            f, (dx, dy) = self.field, (self.P.shape[1], self.Q.shape[1])
            if self.exact:
                self._quotient = Quotient.from_kernel(f, self._matrix())
            else:
                self._quotient = balanced_tensor(f, dx, self.P, dy, self.Q)
        return self._quotient

    def _matrix(self):
        """J as a (dX n) x (dX dY) matrix, the entry at (x', i), (x, y)
        being sum_a phi_i(y)_a P_a[x', x]; when left, an (n dY) x (dX dY)
        matrix with sum_a phi_i(x)_a Q_a[y', y] at (i, y'), (x, y)."""
        f = self.field
        if self.left:  # [i, x, y', y] -> [(i, y'), (x, y)]
            j = f.contract(self.dual, self.Q, (1, 0)).transpose(0, 2, 1, 3)
        else:  # [x', x, i, y] -> [(x', i), (x, y)]
            j = f.contract(self.P, self.dual, (0, 1)).transpose(0, 2, 1, 3)
        return j.reshape(j.shape[0] * j.shape[1], j.shape[2] * j.shape[3])

    def _premises(self):
        f, phi = self.field, self.dual
        # act: the action J applies; paired: the action on the leg phi reads
        act, paired = (self.Q, self.P) if self.left else (self.P, self.Q)
        da, dk, dy = len(act), act.shape[1], paired.shape[1]
        n = phi.shape[0]
        # (i): [y', y] is the y'-entry of sum_i paired(phi_i(y)) g_i, where
        # pg[a, y', i] is the y'-entry of paired_a g_i
        pg = f.contract(paired, self.gens, (2, 0))
        if phi.shape != (n, da, dy) or pg.shape != (da, dy, n) or not f.equal(
                f.contract(pg, phi, ([0, 2], [1, 0])), f.eye(dy)):
            return False
        # (ii): the generator (a, ., y) maps to the operator, in slot i,
        #   sum_b phi_i(y)_b act_b act_a - sum_b phi_i(paired_a y)_b act_b
        # on the acted leg (on X, or on Y when left).  Stack the matrices
        # act_b act_a and act_b as rows; they vanish together with their
        # products against a basis of the column space, the pivot columns.
        mats = np.concatenate([
            f.contract(act, act, (2, 1)).transpose(0, 2, 1, 3).reshape(da * da, dk * dk),
            act.reshape(da, dk * dk),
        ])
        cols = mats[:, rref(f, mats)[1]]
        coef = f.zeros((da, n, dy, da, da))  # [a, i, y, b, a']
        for a in range(da):
            coef[a, :, :, :, a] = phi.transpose(0, 2, 1)
        moved = f.contract(paired, phi, (1, 2)).transpose(0, 2, 3, 1)  # [a, i, b, y]
        coef = np.concatenate([
            coef.reshape(da, n, dy, da * da), -moved.swapaxes(2, 3)], axis=3)
        return f.is_zero(f.contract(coef, cols, (3, 0)))

    def apply(self, v, axis):
        """J on the legs (axis, axis + 1) of the tensor v.  It contracts v
        with the functionals and then with the action matrices, at about
        2 dA |v| n multiply-adds, and never forms J as a matrix."""
        f = self.field
        act = self.Q if self.left else self.P
        kept, read = (axis + 1, axis) if self.left else (axis, axis + 1)
        w = f.contract(self.dual, v, (2, read))  # (i, a, v without the read leg)
        w = f.contract(act, w, ([0, 2], [1, 2 + kept - (kept > read)]))
        return np.moveaxis(w, [0, 1], [kept, read])


def triple_classes(field, lhs, rhs, leg12, leg23):
    """A stack with one row per column of v = lhs - rhs (d1 x d2 x d3 x c,
    a column of lifts to X (x) Y (x) Z, taken by ``Field.residual``) that
    is zero exactly where the column lies in R12 (x) Z + X (x) R23, the
    relations of X (x)_A Y (x)_A Z given by the legs ``leg12`` and
    ``leg23`` (LegEmbedding, both through the right leg or both through
    the left).

    Through the right legs, E = (J12 (x) 1)(1 (x) J23) is exact when both
    legs are and (iii) the two actions on Y, Q of R12 and P of R23,
    commute: then 1 (x) J23 maps R12 (x) Z into R12 (x) k^n, which J12 (x) 1
    kills, and X (x) R23 goes to 0 by (ii).  Conversely E v = 0 puts
    (1 (x) J23) v in ker(J12 (x) 1) = R12 (x) k^n, and applying 1 (x) K23
    (e_i |-> g_i, the generators of Z), which fixes v modulo X (x) R23 and
    sends R12 (x) k^n into R12 (x) Z, puts v in the relation span.
    Through the left legs J12 goes first.  An all-zero v over F_p, the
    residual of an identity that holds, gives the zero stack of that shape
    with no product.
    (iii) also makes the push-through of ``TripleQuotient`` descend.  When
    a premise fails, the classes come from a ``TripleQuotient``, which
    raises ``DescentError`` where R23 does not descend."""
    f, v = field, field.residual(lhs, rhs)
    c = v.shape[-1]
    if (leg12.exact and leg23.exact and leg12.left == leg23.left
            and _commute(f, leg23.P, leg12.Q)):
        order = [(leg12, 0), (leg23, 1)]
        if f.p and not v.any():  # an identity that holds: no class to compute
            dims = list(v.shape[:3])
            for leg, axis in order:  # each leg trades its read axis for k^n
                dims[axis + (not leg.left)] = len(leg.dual)
            return f.zeros((c, math.prod(dims)))
        for leg, axis in order if leg12.left else order[::-1]:
            v = leg.apply(v, axis)
        return np.moveaxis(v, -1, 0).reshape(c, math.prod(v.shape[:-1]))
    trip = TripleQuotient(
        f, v.shape[:3], list(zip(leg12.P, leg12.Q)), list(zip(leg23.P, leg23.Q)))
    return trip.project(v.reshape(math.prod(v.shape[:3]), c)).T


def add_triple(rep, check_id, f, lhs, rhs, leg12, leg23, labels):
    """Add the residual of ``triple_classes`` to ``rep``, or a skip where the
    triple quotient does not exist: the two actions on the middle leg do
    not commute, which a noncommutative base allows."""
    try:
        rep.add_residual(check_id, triple_classes(f, lhs, rhs, leg12, leg23), labels)
    except DescentError:
        rep.skip(check_id, "middle-leg actions do not commute")


def _commute(field, p, q):
    """Whether p_a q_b = q_b p_a for every pair of matrices of the stacks."""
    pq = field.contract(p, q, (2, 1))  # [a, y, b, y'']
    return field.equal(pq, field.contract(q, p, (2, 1)).transpose(2, 1, 0, 3))


class TripleQuotient:
    """Iterated quotient of X (x) Y (x) Z by two adjacent balancing relations.

    The (1,2) relation is quotiented first; the (2,3) relation operators are
    pushed through that quotient (``DescentError`` where they do not
    descend), then quotiented in turn.  ``project`` maps ambient vectors of
    length d1*d2*d3 to coordinates on the double quotient.  Its relation
    matrices have d1*d2*d3 columns, so ``triple_classes`` builds one only
    where the leg embeddings' premises fail.
    """

    def __init__(self, field, dims, rel12, rel23):
        self.field = field
        self.d1, self.d2, self.d3 = dims
        self.q1 = balanced_tensor(
            field, self.d1, [m for m, _ in rel12], self.d2, [m for _, m in rel12]
        )
        # 1 (x) m2 on X (x) Y, for each m2 of the (2,3) relations
        m2s = np.asarray([m for m, _ in rel23])
        amb = field.contract(field.eye(self.d1), m2s, 0).transpose(2, 0, 3, 1, 4)
        n = self.d1 * self.d2
        pushed = self.q1.induced_op(amb.reshape(len(m2s), n, n))
        self.q2 = balanced_tensor(
            field, self.q1.dim, list(pushed), self.d3, [m for _, m in rel23]
        )
        self.dim = self.q2.dim

    def project(self, v):
        """Coordinates on the double quotient of v, or of every column of a
        matrix v."""
        v = np.asarray(v)
        step = self.field.matmul(self.q1.project_mat, v.reshape(self.d1 * self.d2, -1))
        return self.q2.project(step.reshape((self.q1.dim * self.d3,) + v.shape[1:]))


def project_stack(q, lhs, rhs, lead=1):
    """``q.project`` of lhs - rhs for every vector of the stacks ``lhs``
    and ``rhs`` (a Quotient or a TripleQuotient q), the two sides of an
    identity: the first ``lead`` axes of lhs index the vectors and the rest
    flatten to ambient coordinates; rhs has as many entries, with the same
    leading axes.  The difference is ``Field.residual``'s, unreduced over
    F_p, which the projection reduces; an all-zero one over F_p projects to
    the zero block with no product.  Returns the leading axes followed by
    the quotient coordinates."""
    lhs = np.asarray(lhs)
    shape = lhs.shape[:lead]
    n, amb = math.prod(shape), math.prod(lhs.shape[lead:])
    cols = q.field.residual(lhs.reshape(n, amb), np.reshape(rhs, (n, amb))).T
    if q.field.p and not cols.any():  # an identity that holds
        return q.field.zeros(shape + (q.dim,))
    return q.project(cols).T.reshape(shape + (q.dim,))
