"""Finite-dimensional algebras given by structure constants, plus the
balanced-tensor quotient machinery used throughout.
"""

import numpy as np

from .linalg import Quotient, kron_vec, unit_vector
from .report import Report

__all__ = [
    "AlgebraPresentation",
    "check_action",
    "tensor_product",
    "enveloping_square",
    "balanced_tensor",
    "TripleQuotient",
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
        return unit_vector(self.field, self.dim, i)

    def mult(self, x, y):
        t = np.tensordot(np.asarray(x), self.mul, axes=(0, 0))
        return self.field.mod(np.tensordot(np.asarray(y), t, axes=(0, 0)))

    def left_mult(self, x):
        """Matrix of v -> x * v."""
        return self.field.mod(np.tensordot(np.asarray(x), self.mul, axes=(0, 0)).T)

    def right_mult(self, x):
        """Matrix of v -> v * x."""
        return self.field.mod(np.tensordot(np.asarray(x), self.mul, axes=(0, 1)).T)

    @property
    def basis_left_mults(self):
        if self._lmults is None:
            self._lmults = [self.left_mult(self.basis(i)) for i in range(self.dim)]
        return self._lmults

    @property
    def basis_right_mults(self):
        if self._rmults is None:
            self._rmults = [self.right_mult(self.basis(i)) for i in range(self.dim)]
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

    def check(self, name="algebra"):
        """Verify unit and associativity axioms."""
        rep = Report(name)
        f = self.field
        lhs_unit = self.left_mult(self.unit)
        rhs_unit = self.right_mult(self.unit)
        rep.add("unit.left", f.equal(lhs_unit, f.eye(self.dim)))
        rep.add("unit.right", f.equal(rhs_unit, f.eye(self.dim)))
        # (e_i e_j) e_k vs e_i (e_j e_k), contracted in bulk
        left = f.mod(np.tensordot(self.mul, self.mul, axes=([2], [0])))
        right = f.mod(np.tensordot(self.mul, self.mul, axes=([2], [1])))
        right = np.transpose(right, (2, 0, 1, 3))
        ok = f.equal(left, right)
        witness = None
        if not ok:
            bad = np.argwhere(f.mod(left - right))
            i, j, k = bad[0][:3]
            witness = f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})"
        rep.add("associativity", ok, witness)
        return rep

    def format_elem(self, v):
        f = self.field
        terms = []
        for i, c in enumerate(np.asarray(v)):
            c = f.canon(c)
            if c == f.zero:
                continue
            if c == f.one:
                terms.append(self.labels[i])
            else:
                terms.append(f"{f.format(c)}*{self.labels[i]}")
        return " + ".join(terms) if terms else "0"


def check_action(alg, mats, contravariant=False, name="action"):
    """Check that basis matrices define a module structure over ``alg``.

    ``mats[i]`` represents the action of basis element ``e_i``; with
    ``contravariant=True`` the composition rule is reversed
    (rho(a) rho(b) = rho(b a)), as for right actions written on the left.
    """
    rep = Report(name)
    f = alg.field
    n = mats[0].shape[0]
    unit_mat = sum_action(f, mats, alg.unit)
    rep.add("action.unit", f.equal(unit_mat, f.eye(n)))
    ok = True
    witness = None
    for i in range(alg.dim):
        for j in range(alg.dim):
            prod = alg.mult(alg.basis(i), alg.basis(j))
            comp = (
                f.matmul(mats[j], mats[i])
                if contravariant
                else f.matmul(mats[i], mats[j])
            )
            if not f.equal(comp, sum_action(f, mats, prod)):
                ok = False
                witness = f"composition fails at basis pair ({i}, {j})"
                break
        if not ok:
            break
    rep.add("action.composition", ok, witness)
    return rep


def sum_action(field, mats, coeffs):
    """Linear combination of action matrices with given coefficients."""
    out = field.zeros(mats[0].shape)
    for i, c in enumerate(np.asarray(coeffs)):
        if c != field.zero:
            out = out + c * mats[i]
    return field.mod(out)


def pair_and_act(field, action, funcs, lift, u_first=True):
    """The maps m -> <g, m_U> . m_M, one per functional g in the stack
    ``funcs`` (n x dA x dU), with M a left A-module through ``action`` (one
    matrix per A-basis index).  ``lift`` has one column per m, each in
    U (x) M when ``u_first`` and in M (x) U otherwise.  Returns the
    n x dM x (columns of lift) stack."""
    f = field
    act = np.asarray(action)
    dm, du = act.shape[1], np.shape(funcs)[2]
    legs = np.asarray(lift).reshape((du, dm, -1) if u_first else (dm, du, -1))
    if not u_first:
        legs = legs.swapaxes(0, 1)
    # vals[g, a, i, j]: the e_a-coefficient of <g, U-leg> on the term e_i of column j
    vals = f.mod(np.tensordot(funcs, legs, axes=(2, 0)))
    return f.mod(np.tensordot(vals, act, axes=([1, 2], [0, 2]))).swapaxes(1, 2)


def tensor_product(a, b):
    """Tensor product algebra on the kron-ordered basis (i, j) -> i*dimB + j."""
    f = a.field
    mul = f.mod(
        np.einsum("ikm,jln->ijklmn", a.mul, b.mul).reshape(
            a.dim * b.dim, a.dim * b.dim, a.dim * b.dim
        )
        if f.kind == "prime"
        else _tensor_mul_obj(a, b)
    )
    labels = [f"{x}(x){y}" for x in a.labels for y in b.labels]
    return AlgebraPresentation(f, mul, kron_vec(f, a.unit, b.unit), labels)


def _tensor_mul_obj(a, b):
    d = a.dim * b.dim
    mul = a.field.zeros((d, d, d))
    for i in range(a.dim):
        for k in range(a.dim):
            prod_a = a.mul[i, k]
            for j in range(b.dim):
                for l in range(b.dim):
                    mul[i * b.dim + j, k * b.dim + l] = np.outer(
                        prod_a, b.mul[j, l]
                    ).reshape(-1)
    return mul


def enveloping_square(a):
    """A (x) A^op."""
    return tensor_product(a, a.opposite())


def balanced_tensor(field, dim_m, mats_m, dim_n, mats_n):
    """Quotient of M (x) N by the span of (P_a m)(x)n - m(x)(Q_a n).

    ``mats_m`` / ``mats_n`` are the per-basis action matrices P_a, Q_a.
    """
    gens = []
    eye_m = field.eye(dim_m)
    eye_n = field.eye(dim_n)
    for p, q in zip(mats_m, mats_n):
        block = np.kron(p.T, eye_n) - np.kron(eye_m, q.T)
        gens.append(field.mod(block))
    if gens:
        stacked = np.concatenate(gens, axis=0)
        rows = [stacked[i] for i in range(stacked.shape[0])]
    else:
        rows = []
    return Quotient(field, dim_m * dim_n, rows)


class TripleQuotient:
    """Iterated quotient of X (x) Y (x) Z by two adjacent balancing relations.

    The (1,2) relation is quotiented first; the (2,3) relation operators are
    pushed through that quotient (they act on different sides of Y and so
    descend), then quotiented in turn.  ``project`` maps ambient vectors of
    length d1*d2*d3 to coordinates on the double quotient.
    """

    def __init__(self, field, dims, rel12, rel23):
        self.field = field
        self.d1, self.d2, self.d3 = dims
        self.q1 = balanced_tensor(
            field, self.d1, [m for m, _ in rel12], self.d2, [m for _, m in rel12]
        )
        eye1 = field.eye(self.d1)
        pushed = []
        for m2, m3 in rel23:
            amb = field.mod(np.kron(eye1, m2))
            pushed.append((self.q1.induced_op(amb), m3))
        self.q2 = balanced_tensor(
            field, self.q1.dim, [m for m, _ in pushed], self.d3, [m for _, m in pushed]
        )
        self.dim = self.q2.dim

    def project(self, v):
        f = self.field
        step = np.asarray(v).reshape(self.d1 * self.d2, self.d3)
        step = f.matmul(self.q1.project_mat, step)
        return self.q2.project(step.reshape(-1))
