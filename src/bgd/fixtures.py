"""Small worked examples used by the test suite and the CLI presets."""

from .algebra import AlgebraPresentation, tensor_product
from .bialgebroid import ComodulePresentation, LeftBialgebroid
from .lie_rinehart import RestrictedLieRinehart, crossed_product, restricted_enveloping
from .linalg import Field

__all__ = [
    "base_trivial",
    "primitive_f2",
    "cyclic_group",
    "group_f3",
    "monoid_non_hopf",
    "truncated_polynomials",
    "rank1_dual_numbers_lr",
    "rank_n_truncated_lr",
    "abelian_lr",
    "crossed_rank2_lr",
    "rank1_dual_numbers",
    "rank_n_truncated",
    "abelian_n",
    "crossed_rank2",
    "pair",
    "env",
    "group_q3",
    "FIXTURES",
    "LR_FIXTURES",
    "Q_FIXTURES",
]


def _scalar_field_algebra(field):
    return AlgebraPresentation.from_triples(field, 1, [(0, 0, 0, 1)], [1], ["1"])


def base_trivial(p=2):
    """U = A = F_p[t]/(t^p) with s = t = id and delta(u) = u (x) 1.

    Every structure map is induced by the base algebra itself; the two
    tensor-quotient legs collapse to A.
    """
    a, _ = truncated_polynomials(p)
    f, d = a.field, p
    delta = f.zeros((d * d, d))
    for i in range(d):
        delta[i * d + 0, i] = f.one
    return LeftBialgebroid(a, a, f.eye(d), f.eye(d), delta, f.eye(d), name="base-trivial")


def primitive_f2():
    """U = F_2[X]/(X^2) over A = F_2, X primitive."""
    f = Field.prime(2)
    a = _scalar_field_algebra(f)
    u = AlgebraPresentation.from_triples(
        f, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0], ["1", "X"]
    )
    s = f.array([[1], [0]])
    delta = f.zeros((4, 2))
    delta[0, 0] = 1  # delta(1) = 1 (x) 1
    delta[1, 1] = 1  # delta(X) = 1 (x) X + X (x) 1
    delta[2, 1] = 1
    counit = f.array([[1, 0]])
    return LeftBialgebroid(a, u, s, s, delta, counit, name="primitive-f2")


def _monoid_algebra(field, table, labels, name):
    """The monoid algebra k[M] over A = k, every element grouplike:
    e_i e_j = e_table[i][j], e_0 the unit, delta(e_i) = e_i (x) e_i and
    eps(e_i) = 1."""
    f, d = field, len(table)
    u = AlgebraPresentation.from_triples(
        f, d, [(i, j, k, 1) for i, row in enumerate(table) for j, k in enumerate(row)],
        [1] + [0] * (d - 1), labels)
    delta = f.zeros((d * d, d))
    for i in range(d):
        delta[(d + 1) * i, i] = f.one
    s = f.array([[1]] + [[0]] * (d - 1))
    return LeftBialgebroid(_scalar_field_algebra(f), u, s, s, delta,
                           f.array([[1] * d]), name=name)


def cyclic_group(field, n, name):
    """The group algebra k[Z/n], g grouplike; semisimple exactly when n is
    invertible in k."""
    labels = ["1", "g"] + [f"g^{i}" for i in range(2, n)]
    return _monoid_algebra(field, [[(i + j) % n for j in range(n)] for i in range(n)],
                           labels, name)


def group_f3():
    """Group algebra F_3[Z/2], g grouplike."""
    return cyclic_group(Field.prime(3), 2, "group-f3")


def monoid_non_hopf():
    """Monoid algebra F_2[{1, e}] with e^2 = e, e grouplike-like but not
    invertible; a bialgebra whose Hopf-Galois maps are not bijective."""
    return _monoid_algebra(Field.prime(2), [[0, 1], [1, 1]], ["1", "e"], "monoid-non-hopf")


def pair(field, n):
    """The pair groupoid M_n(k) over k^n: s = t send p_i to e_ii,
    Delta(e_ij) = e_ij (x) e_ij, eps(e_ij) = p_i; e_ij has index n i + j."""
    f, d, r = field, n * n, range(n)
    u = AlgebraPresentation.from_triples(
        f, d, [(n * i + j, n * j + k, n * i + k, 1) for i in r for j in r for k in r],
        [int(i == j) for i in r for j in r])
    a = AlgebraPresentation.from_triples(f, n, [(i, i, i, 1) for i in r], [1] * n)
    s, counit, delta = f.zeros((d, n)), f.zeros((n, d)), f.zeros((d * d, d))
    for i in r:
        s[(n + 1) * i, i] = f.one
        for g in range(n * i, n * i + n):
            counit[i, g] = delta[(d + 1) * g, g] = f.one
    return LeftBialgebroid(a, u, s, s, delta, counit, name=f"pair-{f}-{n}")


def env(field, m):
    """A (x) A^op over A = k[x]/(x^m): s(a) = a (x) 1, t(b) = 1 (x) b,
    Delta(a (x) b) = (a (x) 1) (x) (1 (x) b), eps(a (x) b) = ab;
    x^i (x) x^j has index m i + j."""
    f, d, r = field, m * m, range(m)
    a = AlgebraPresentation.from_triples(
        f, m, [(i, j, i + j, 1) for i in r for j in r if i + j < m], [1] + [0] * (m - 1))
    s, t = f.zeros((d, m)), f.zeros((d, m))
    counit, delta = f.zeros((m, d)), f.zeros((d * d, d))
    for i in r:
        s[m * i, i] = t[i, i] = f.one
        for j in r:
            if i + j < m:
                counit[i + j, m * i + j] = f.one
            delta[d * m * i + j, m * i + j] = f.one
    return LeftBialgebroid(
        a, tensor_product(a, a.opposite()), s, t, delta, counit, name=f"env-{f}-{m}")


def group_q3():
    """Group algebra Q[Z/3], g grouplike; semisimple, since 3 is invertible."""
    return cyclic_group(Field.rationals(), 3, "group-Q-3")


def regular_comodule(b, side):
    """U itself as a comodule over itself via the coproduct."""
    if side == "left":
        action = b.Ls  # a |> u = s(a) u
    else:
        action = b.Lt  # u <| a = t(a) u, a right action written on the left
    return ComodulePresentation(b, side, action, b.delta, name=f"{b.name}-regular")


def trivial_comodule(b, side):
    """The base A with coaction a -> 1 (x) a (resp. a (x) 1)."""
    f, d = b.field, b.A.dim
    if side == "left":
        action = b.A.basis_left_mults
        co = f.contract(b.U.unit, f.eye(d), 0)  # [x, m, n]
    else:
        action = b.A.basis_right_mults
        co = f.contract(f.eye(d), b.U.unit, 0).swapaxes(1, 2)  # [m, x, n]
    return ComodulePresentation(b, side, action, co.reshape(b.U.dim * d, d), name=f"{b.name}-base")


def truncated_polynomials(p):
    """A = F_p[t]/(t^p) with its derivation d/dt."""
    f = Field.prime(p)
    triples = [(i, j, i + j, 1) for i in range(p) for j in range(p) if i + j < p]
    a = AlgebraPresentation.from_triples(
        f, p, triples, [1] + [0] * (p - 1), [f"t^{i}" if i else "1" for i in range(p)]
    )
    ddt = f.zeros((p, p))
    for i in range(1, p):
        ddt[i - 1, i] = i % p
    return a, ddt


def rank1_dual_numbers_lr(p=2):
    """L = A d/dt over A = F_p[t]/(t^p), with d/dt^[p] = 0."""
    a, ddt = truncated_polynomials(p)
    f = a.field
    return RestrictedLieRinehart(
        a, 1, f.zeros((1, 1, 1, p)), [ddt], f.zeros((1, 1, p)),
        name=f"dual-numbers-p{p}",
    )


def rank_n_truncated_lr(p, n):
    """Free rank-n abelian L over F_p[t]/(t^p); only the first generator
    carries the derivation d/dt, all p-operations vanish."""
    a, ddt = truncated_polynomials(p)
    f = a.field
    anchors = [ddt] + [f.zeros((p, p)) for _ in range(n - 1)]
    return RestrictedLieRinehart(
        a, n, f.zeros((n, n, n, p)), anchors, f.zeros((n, n, p)),
        name=f"rank{n}-truncated-p{p}",
    )


def abelian_lr(p, n):
    """Abelian rank-n restricted Lie algebra over A = F_p (trivial anchor)."""
    f = Field.prime(p)
    a = _scalar_field_algebra(f)
    return RestrictedLieRinehart(
        a, n, f.zeros((n, n, n, 1)), [f.zeros((1, 1))] * n, f.zeros((n, n, 1)),
        name=f"abelian{n}-p{p}",
    )


def crossed_rank2_lr():
    """Crossed product A (x) g for A = F_2[t]/(t^2) and g 2-dimensional
    abelian restricted, acting by sigma(X1) = d/dt, sigma(X2) = 0, with
    X1^[2] = 0 and X2^[2] = X2."""
    a, ddt = truncated_polynomials(2)
    f = a.field
    g_bracket = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    g_pops = [[0, 0], [0, 1]]
    sigma = [ddt, f.zeros((2, 2))]
    return crossed_product(a, 2, g_bracket, g_pops, sigma, name="crossed-p2")


def rank1_dual_numbers(p=2):
    return restricted_enveloping(rank1_dual_numbers_lr(p))


def rank_n_truncated(p, n):
    return restricted_enveloping(rank_n_truncated_lr(p, n))


def abelian_n(p=2, n=2):
    return restricted_enveloping(abelian_lr(p, n))


def crossed_rank2():
    return restricted_enveloping(crossed_rank2_lr())


FIXTURES = {
    "base-trivial": base_trivial,
    "primitive-f2": primitive_f2,
    "group-f3": group_f3,
    "monoid-non-hopf": monoid_non_hopf,
    "rank1-dual-numbers": rank1_dual_numbers,
    "rank1-dual-numbers-p3": lambda: rank1_dual_numbers(3),
    "abelian-n": abelian_n,
    "crossed": crossed_rank2,
}

LR_FIXTURES = {
    "rank1-dual-numbers": lambda: rank1_dual_numbers_lr(2),
    "rank1-dual-numbers-p3": lambda: rank1_dual_numbers_lr(3),
    "abelian-n": lambda: abelian_lr(2, 2),
    "crossed": crossed_rank2_lr,
}

# Fixtures over Q, kept out of the CLI presets.
Q_FIXTURES = {
    "pair-Q-2": lambda: pair(Field.rationals(), 2),
    "env-Q-2": lambda: env(Field.rationals(), 2),
    "group-Q-3": group_q3,
}
