"""Known-answer bialgebroid families, generated in the benchmark's own code.

Three families, each a standard Hopf algebroid whose answers are known in
advance (Böhm, "Hopf algebroids", Handbook of Algebra 6, 2009):

* ``trunc``: ``bgd.fixtures.rank_n_truncated(p, n)``, the restricted
  enveloping algebra of a rank-n abelian Lie-Rinehart algebra over
  F_p[t]/(t^p); d = p^(n+1).  Hopf on both sides, Frobenius, not separable.
* ``pair``: the pair-groupoid algebra M_n(k) over A = k^n; s = t send e_i to
  the diagonal idempotent e_ii, Delta(e_ij) = e_ij (x) e_ij and
  eps(e_ij) = e_i; d = n^2.  Hopf, Frobenius and separable.
* ``env``: the enveloping bialgebroid A (x) A^op over A = k[x]/(x^m);
  s(a) = a(x)1, t(b) = 1(x)b, Delta(a(x)b) = (a(x)1) (x)_A (1(x)b) and
  eps(a(x)b) = ab; d = m^2.  Hopf and Frobenius, not separable.

``scramble`` applies a seeded monomial change of basis (a permutation plus
nonzero scalars) to U and to A.  It keeps sparsity and every check status;
only the coordinates the program sees move.
"""

from fractions import Fraction

import numpy as np

from bgd.algebra import AlgebraPresentation, tensor_product
from bgd.bialgebroid import LeftBialgebroid
from bgd.fixtures import rank_n_truncated
from bgd.linalg import Field, invert

# Scalars of the basis change over Q: small, so that Fraction sizes, and with
# them the cost of the rationals workload, do not swing with the seed.
_Q_SCALARS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))


def field_of(spec):
    return Field.rationals() if spec == "Q" else Field.prime(int(spec))


def pair(field, n):
    """The pair-groupoid algebra M_n(k) over k^n; e_ij has index i*n + j."""
    f = field
    d = n * n
    triples = [(i * n + j, j * n + k, i * n + k, 1)
               for i in range(n) for j in range(n) for k in range(n)]
    unit = [1 if i == j else 0 for i in range(n) for j in range(n)]
    labels = [f"e{i}{j}" for i in range(n) for j in range(n)]
    u = AlgebraPresentation.from_triples(f, d, triples, unit, labels)
    a = AlgebraPresentation.from_triples(
        f, n, [(i, i, i, 1) for i in range(n)], [1] * n,
        [f"p{i}" for i in range(n)])
    s = f.zeros((d, n))
    counit = f.zeros((n, d))
    delta = f.zeros((d * d, d))
    for i in range(n):
        s[i * n + i, i] = f.one
        for j in range(n):
            g = i * n + j
            counit[i, g] = f.one
            delta[g * d + g, g] = f.one
    return LeftBialgebroid(a, u, s, s, delta, counit, name=f"pair-n{n}")


def truncated_line(field, m):
    """k[x]/(x^m) on the monomial basis."""
    triples = [(i, j, i + j, 1) for i in range(m) for j in range(m) if i + j < m]
    return AlgebraPresentation.from_triples(
        field, m, triples, [1] + [0] * (m - 1),
        [f"x^{i}" if i else "1" for i in range(m)])


def env(field, m):
    """A (x) A^op over A = k[x]/(x^m); x^i (x) x^j has index i*m + j."""
    f = field
    a = truncated_line(f, m)
    u = tensor_product(a, a.opposite())
    d = m * m
    s = f.zeros((d, m))
    t = f.zeros((d, m))
    counit = f.zeros((m, d))
    delta = f.zeros((d * d, d))
    for i in range(m):
        s[i * m, i] = f.one
        t[i, i] = f.one
        for j in range(m):
            if i + j < m:
                counit[i + j, i * m + j] = f.one
            delta[(i * m) * d + j, i * m + j] = f.one
    return LeftBialgebroid(a, u, s, t, delta, counit, name=f"env-m{m}")


def build(family, field_spec, size):
    """The unscrambled presentation of a subject: ``field_spec`` is "Q" or
    a prime; ``size`` is n for pair and trunc, m for env."""
    if family == "trunc":
        return rank_n_truncated(int(field_spec), size)
    f = field_of(field_spec)
    return pair(f, size) if family == "pair" else env(f, size)


def _monomial(field, rng, n):
    """A random monomial change of basis: new e'_i = c_i * e_perm[i].

    Returns (perm, c, matrix whose column i is c_i * e_perm[i])."""
    perm = rng.permutation(n)
    if field.kind == "prime":
        scal = [field.canon(int(c)) for c in rng.integers(1, field.p, size=n)]
    else:
        scal = [_Q_SCALARS[k] for k in rng.integers(0, len(_Q_SCALARS), size=n)]
    mat = field.zeros((n, n))
    for i in range(n):
        mat[perm[i], i] = scal[i]
    return perm, scal, mat


def _rebase_algebra(alg, perm, scal):
    """The same algebra on the basis e'_i = c_i e_perm[i]:
    mul'[i, j, k] = c_i c_j mul[perm i, perm j, perm k] / c_k."""
    f = alg.field
    c = f.array(scal)
    cinv = f.array([f.inv(x) for x in scal])
    mul = alg.mul[np.ix_(perm, perm, perm)]
    mul = f.mod(mul * c[:, None, None])
    mul = f.mod(mul * c[None, :, None])
    mul = f.mod(mul * cinv[None, None, :])
    unit = f.mod(alg.unit[perm] * cinv)
    labels = [alg.labels[k] + "'" for k in perm]
    return AlgebraPresentation(f, mul, unit, labels)


def scramble(b, rng):
    """Apply a random monomial change of basis to U and to A."""
    f = b.field
    du, da = b.U.dim, b.A.dim
    perm_u, c_u, pu = _monomial(f, rng, du)
    perm_a, c_a, pa = _monomial(f, rng, da)
    pu_inv, pa_inv = invert(f, pu), invert(f, pa)
    u = _rebase_algebra(b.U, perm_u, c_u)
    a = _rebase_algebra(b.A, perm_a, c_a)
    mm = f.matmul
    s = mm(mm(pu_inv, b.s_map), pa)
    t = mm(mm(pu_inv, b.t_map), pa)
    counit = mm(mm(pa_inv, b.counit), pu)
    delta = mm(mm(np.kron(pu_inv, pu_inv), b.delta), pu)
    return LeftBialgebroid(a, u, s, t, f.mod(delta), counit, name=b.name)
