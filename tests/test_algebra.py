from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lib_golden import CASES

from bgd import algebra, duals
from bgd.algebra import (
    AlgebraPresentation,
    LegEmbedding,
    TripleQuotient,
    balanced_relations,
    balanced_tensor,
    check_action,
    pair_and_act,
    tensor_product,
    triple_classes,
)
from bgd.fixtures import FIXTURES, env, group_q3, pair, regular_comodule, truncated_polynomials
from bgd.bialgebroid import LeftBialgebroid, check_left_bialgebroid
from bgd.linalg import DescentError, Field

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
QQ = Field.rationals()


def dual_numbers(f):
    # k[X]/(X^2)
    return AlgebraPresentation.from_triples(
        f, 2, [(0, 0, 0, f.one), (0, 1, 1, f.one), (1, 0, 1, f.one)],
        f.array([1, 0]), labels=["1", "X"],
    )


def test_algebra_axioms_pass():
    a = dual_numbers(F3)
    rep = a.check()
    assert rep.ok


def test_broken_associativity_caught():
    f = F2
    mul = f.zeros((3, 3, 3))
    mul[0, :, :] = f.eye(3)
    mul[:, 0, :] = f.eye(3)
    mul[1, 1, 2] = f.one  # e1 e1 = e2
    mul[1, 2, 0] = f.one  # e1 e2 = 1, so (e1 e1) e1 = 0 but e1 (e1 e1) = 1
    a = AlgebraPresentation(f, mul, f.array([1, 0, 0]))
    rep = a.check()
    assert not rep.ok
    assert any(i.check_id.endswith("associativity") for i in rep.failures)


def test_unit_failure_witnessed():
    a = dual_numbers(F2)
    rep = AlgebraPresentation(a.field, a.mul, a.field.array([0, 1])).check()
    assert any("unit" in i.check_id for i in rep.failures)


def test_truncated_polynomials_derivation():
    for p in (2, 3, 5):
        a, d = truncated_polynomials(p)
        assert a.check().ok
        assert a.is_commutative()
        f = a.field
        # d is a derivation: d(xy) = d(x)y + x d(y) on basis pairs
        for i in range(a.dim):
            for j in range(a.dim):
                x, y = a.basis(i), a.basis(j)
                lhs = f.matmul(d, a.mult(x, y))
                rhs = a.mult(f.matmul(d, x), y) + a.mult(x, f.matmul(d, y))
                assert f.equal(lhs, f.mod(rhs))


def test_opposite_involution():
    a = dual_numbers(F3)
    assert np.array_equal(a.opposite().opposite().mul, a.mul)


def test_tensor_product_algebra():
    a = dual_numbers(F2)
    t = tensor_product(a, a)
    assert t.dim == 4
    assert t.check().ok
    assert tensor_product(a, a.opposite()).check().ok


@given(st.sampled_from([2, 3]), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_left_right_mult_compatible(p, i, j):
    a, _ = truncated_polynomials(max(p, 2))
    i, j = i % a.dim, j % a.dim
    x, y = a.basis(i), a.basis(j)
    f = a.field
    assert f.equal(f.matmul(a.left_mult(x), y), f.matmul(a.right_mult(y), x))


def test_balanced_tensor_dimension():
    # A (x)_A A over a dim-d algebra collapses to dimension d
    a, _ = truncated_polynomials(3)
    q = balanced_tensor(
        a.field, a.dim, a.basis_right_mults, a.dim, a.basis_left_mults
    )
    assert q.dim == a.dim


def test_balanced_tensor_projection_respects_relations():
    b = FIXTURES["primitive-f2"]()
    f, d = b.field, b.U.dim
    q = b.T0
    # t(a)u (x) v and u (x) s(a)v project equally
    for a in range(b.A.dim):
        for i in range(d):
            for j in range(d):
                left = f.zeros(d * d)
                lu = f.matmul(b.Lt[a], b.U.basis(i))
                for k in np.nonzero(lu)[0]:
                    left[k * d + j] = lu[k]
                right = f.zeros(d * d)
                sv = f.matmul(b.Ls[a], b.U.basis(j))
                for k in np.nonzero(sv)[0]:
                    right[i * d + k] = sv[k]
                assert f.equal(q.project(left), q.project(right))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F5, QQ]), st.integers(0, 3), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 2**32 - 1))
def test_balanced_relations_match_kron(f, count, m, n, seed):
    # the placed blocks equal the kron rows kron(P_a^T, I) - kron(I, Q_a^T)
    rng = np.random.default_rng(seed)
    ps = [f.array(rng.integers(-4, 5, size=(m, m))) for _ in range(count)]
    qs = [f.array(rng.integers(-4, 5, size=(n, n))) for _ in range(count)]
    got = balanced_relations(f, m, ps, n, qs)
    want = [f.mod(np.kron(p.T, f.eye(n)) - np.kron(f.eye(m), q.T)) for p, q in zip(ps, qs)]
    want = np.concatenate(want) if want else f.zeros((0, m * n))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    if f is QQ:
        assert all(type(x) is Fraction for x in got.ravel().tolist())


def test_check_action_rejects_wrong_composition():
    a = dual_numbers(F2)
    mats = [a.field.eye(2), a.field.eye(2)]  # trivial "action" is not one
    rep = check_action(a, mats, name="bogus")
    assert not rep.ok


def _sparse_pairs(vec, d1, d2, field):
    """Nonzero entries of a vector of a d1 x d2 tensor as (i, j, coeff)."""
    out = []
    for idx in np.nonzero(np.asarray(vec))[0]:
        c = field.canon(vec[idx])
        if c != field.zero:
            out.append((idx // d2, idx % d2, c))
    return out


def _sum_action(field, mats, coeffs):
    """Linear combination of action matrices with given coefficients."""
    out = field.zeros(mats[0].shape)
    for i, c in enumerate(np.asarray(coeffs)):
        if c != field.zero:
            out = out + c * mats[i]
    return field.mod(out)


def _pair_and_act_loop(f, action, funcs, lift, du, dm, u_first):
    """Reference: the per-column loop over the nonzero coaction terms."""
    out = []
    for g in funcs:
        mat = f.zeros((dm, lift.shape[1]))
        for j in range(lift.shape[1]):
            col = f.zeros(dm)
            pairs = _sparse_pairs(lift[:, j], du, dm, f) if u_first else [
                (k, i, c) for i, k, c in _sparse_pairs(lift[:, j], dm, du, f)
            ]
            for k, i, c in pairs:
                col = col + c * _sum_action(f, action, f.mod(g[:, k]))[:, i]
            mat[:, j] = f.mod(col)
        out.append(mat)
    return out


@given(
    st.sampled_from([F2, F5, QQ]),
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
    st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_pair_and_act_matches_loop(f, da, du, dm, n, cols, u_first, seed):
    rng = np.random.default_rng(seed)

    def draw(*shape):
        nums = rng.integers(-3, 4, size=shape)
        if f.kind == "prime":
            return f.array(nums)
        dens = rng.integers(1, 4, size=shape)
        return f.array(np.vectorize(Fraction, otypes=[object])(nums, dens))

    action = list(draw(da, dm, dm))
    funcs = draw(n, da, du)
    lift = draw(du * dm, cols)
    got = pair_and_act(f, action, funcs, lift, u_first)
    want = _pair_and_act_loop(f, action, funcs, lift, du, dm, u_first)
    assert got.shape == (n, dm, cols)
    for g, w in zip(got, want):
        assert np.array_equal(f.mod(g), w)


def _triple_shapes(b):
    """(name, dims, leg12, leg23) of the five triple tensors the batteries
    decide classes in, on b and its regular left comodule, through the
    legs the batteries build."""
    d = b.U.dim
    com = regular_comodule(b, "left")
    t0, t1 = b.leg("Lt", over="Ls", u_first=False), b.leg("Rt", over="Lt", u_first=False)
    return [
        ("coassociative", (d, d, d), t0, t0),
        ("sch4", (d, d, d), t0, t1),
        ("sch5", (d, d, d), t1, t0),
        ("Tch5", (com.dim, d, d), b.leg(com.induced_action, over="Ls", u_first=False), t0),
        ("comodule.coassociative", (d, d, com.dim), b.leg("Ls", over="Lt", u_first=True),
         com.leg),
    ]


def _dual_basis_shapes(b):
    """The triples of ``_triple_shapes`` through the dual bases xi (T0 and
    Tch5) and zeta (T1 and the comodule legs), with one slot per basis
    element of U: the legs where U has no free basis over A."""
    f, d = b.field, b.U.dim
    com = regular_comodule(b, "left")
    # a dual basis is a basis with the identity as its generators
    xi, zeta = (None if x is None else (x, f.eye(d))
                for x in (duals.s_dual_basis(b), duals.s_dual_basis(b.coop())))
    t0 = LegEmbedding(f, b.Lt, b.Ls, xi)
    t1 = LegEmbedding(f, b.Rt, b.Lt, zeta)
    return [
        ("coassociative", (d, d, d), t0, t0),
        ("sch4", (d, d, d), t0, t1),
        ("sch5", (d, d, d), t1, t0),
        ("Tch5", (com.dim, d, d), LegEmbedding(f, com.induced_action, b.Ls, xi), t0),
        ("comodule.coassociative", (d, d, com.dim),
         LegEmbedding(f, b.Lt, b.Ls, zeta, left=True),
         LegEmbedding(f, b.Lt, com.action, zeta, left=True)),
    ]


def _draw(f, rng, *shape):
    nums = rng.integers(-2, 3, size=shape)
    if f.kind == "prime":
        return f.array(nums)
    dens = rng.integers(1, 3, size=shape)
    return f.array(np.vectorize(Fraction, otypes=[object])(nums, dens))


def _relation_element(f, rng, dims, leg12, leg23):
    """A random element of R12 (x) Z + X (x) R23."""
    v = f.zeros(dims)
    for _ in range(3):
        x, y, z = (_draw(f, rng, n) for n in dims)
        a = rng.integers(len(leg12.P))
        p, q = leg12.P[a], leg12.Q[a]
        v = v + np.multiply.outer(np.multiply.outer(f.matmul(p, x), y), z)
        v = v - np.multiply.outer(np.multiply.outer(x, f.matmul(q, y)), z)
        a = rng.integers(len(leg23.P))
        p, q = leg23.P[a], leg23.Q[a]
        v = v + np.multiply.outer(np.multiply.outer(x, f.matmul(p, y)), z)
        v = v - np.multiply.outer(np.multiply.outer(x, y), f.matmul(q, z))
    return f.mod(v)


EMBED_CASES = sorted(FIXTURES) + ["trunc-2-2", "trunc-3-1", "env-Q-2"]


@pytest.mark.parametrize("case", EMBED_CASES)
def test_triple_embedding_matches_quotient(case, monkeypatch):
    b = CASES[case]()
    f = b.field
    rng = np.random.default_rng(sorted(CASES).index(case))
    for name, dims, leg12, leg23 in _triple_shapes(b) + _dual_basis_shapes(b):
        assert leg12.exact and leg23.exact, (case, name)
        cols = [_relation_element(f, rng, dims, leg12, leg23) for _ in range(2)]
        for rel in cols[:2]:
            bad = rel.copy()
            idx = tuple(int(rng.integers(n)) for n in dims)
            bad[idx] = f.add(bad[idx], f.one)
            cols.append(bad)
        cols += [_draw(f, rng, *dims) for _ in range(2)]
        v = f.mod(np.stack(cols, axis=-1))
        want = TripleQuotient(
            f, dims, list(zip(leg12.P, leg12.Q)), list(zip(leg23.P, leg23.Q)),
        ).project(v.reshape(-1, len(cols))).T
        # the embedding decides, with no triple quotient built
        monkeypatch.setattr(algebra, "TripleQuotient", None)
        # v as the difference of two sides, one of them drawn at random
        rhs = _draw(f, rng, *dims, len(cols))
        got = triple_classes(f, f.add(v, rhs), rhs, leg12, leg23)
        monkeypatch.undo()
        zero = [f.is_zero(row) for row in got]
        assert zero == [f.is_zero(row) for row in want], (case, name)
        assert zero[:2] == [True, True], (case, name)


def _premises_by_hand(leg):
    """Premises (i) and (ii) of a LegEmbedding, from their statements:
    sum_i paired(phi_i(y)) g_i = y, and J kills every relation generator."""
    f = leg.field
    act, paired = (leg.Q, leg.P) if leg.left else (leg.P, leg.Q)
    dy = paired.shape[1]
    for y in range(dy):
        back = f.zeros(dy)
        for i in range(len(leg.dual)):
            for a in range(len(paired)):
                back = back + leg.dual[i, a, y] * f.matmul(paired[a], leg.gens[:, i])
        if not f.equal(back, np.eye(dy, dtype=int)[y]):
            return False
    dx, dy = leg.P.shape[1], leg.Q.shape[1]
    gens = balanced_tensor(f, dx, leg.P, dy, leg.Q).rel.rows
    return f.is_zero(leg.apply(gens.T.reshape(dx, dy, -1), 0))


@pytest.mark.parametrize("case", EMBED_CASES + [
    "crossed-bad-t", "crossed-bad-s", "rank1-dual-numbers-bad-t", "trunc-2-2-bad-s"])
def test_leg_premises_match_their_statements(case):
    b = CASES[case]()
    shapes = _triple_shapes(b) + _dual_basis_shapes(b)
    for leg in [leg for _, _, *pair in shapes for leg in pair]:
        if leg.dual is not None:
            assert leg.exact == _premises_by_hand(leg), case


@pytest.mark.parametrize("case", ["crossed-bad-t", "rank1-dual-numbers-bad-s"])
def test_triple_embedding_declines(case):
    b = CASES[case]()
    assert not b.leg("Lt", over="Ls", u_first=False).exact
    if case == "rank1-dual-numbers-bad-s":
        assert duals.functionals(b) == [] and duals.s_dual_basis(b) is None


def test_dual_basis_needs_no_coproduct():
    b = CASES["rank1-dual-numbers-bad-delta"]()
    f, xi = b.field, duals.s_dual_basis(b)
    # sum_i s(xi_i(u)) e_i = u, though U_* (which needs Delta) cannot be built
    assert f.equal(f.contract(np.asarray(b.Ls), xi, ([0, 2], [1, 0])), f.eye(b.U.dim))
    with pytest.raises(ValueError):
        duals._s_side_dual_basis(b)


def test_zero_residual_classes_match_the_exact_path(monkeypatch):
    # an identity that holds over F_p: its classes are the zero stack of
    # the shape and dtype the leg products give a nonzero residual
    b = pair(F5, 3)
    f, rng = b.field, np.random.default_rng(0)
    sides = set()
    for name, dims, leg12, leg23 in _triple_shapes(b):
        assert leg12.exact and leg23.exact and leg12.left == leg23.left, name
        sides.add(leg12.left)
        lhs = _draw(f, rng, *dims, 4)
        want = triple_classes(f, lhs, f.mod(lhs - 1), leg12, leg23)
        assert want.any(), name
        monkeypatch.setattr(LegEmbedding, "apply", None)
        got = triple_classes(f, lhs, lhs.copy(), leg12, leg23)
        monkeypatch.undo()
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert not got.any(), name
    assert sides == {False, True}


def test_check_applies_no_leg_to_a_zero_residual(monkeypatch):
    b = pair(F5, 3)
    zero, apply = [], LegEmbedding.apply

    def watch(leg, v, axis):
        zero.append(not np.asarray(v).any())
        return apply(leg, v, axis)

    monkeypatch.setattr(LegEmbedding, "apply", watch)
    rep = check_left_bialgebroid(b)
    statuses = {i.check_id: i.status for i in rep.items}
    assert rep.ok and statuses["coproduct.coassociative"] == "pass"
    assert True not in zero


def _envelope(a):
    """A (x) A^op over A: s(a) = a (x) 1, t(b) = 1 (x) b,
    Delta(a (x) b) = s(a) (x) t(b), eps(a (x) b) = ab."""
    f, n = a.field, a.dim
    # s[:, i] = e_i (x) 1, t[:, i] = 1 (x) e_i, delta[:, (i, j)] = s_i (x) t_j
    s = f.contract(f.eye(n), a.unit, 0).reshape(n, n * n).T
    t = f.contract(a.unit, f.eye(n), 0).swapaxes(0, 1).reshape(n, n * n).T
    delta = f.contract(s, t, 0).transpose(0, 2, 1, 3).reshape(n**4, n * n)
    counit = a.mul.reshape(n * n, n).T
    return LeftBialgebroid(a, tensor_product(a, a.opposite()), s, t, delta, counit)


def triangular_envelope():
    """The envelope of the upper triangular 2 x 2 matrices (e11, e12, e22)
    over F_2, a left and right Hopf bialgebroid over a noncommutative base."""
    tri = AlgebraPresentation.from_triples(
        F2, 3, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 2, 1, 1), (2, 2, 2, 1)], [1, 0, 1])
    return _envelope(tri)


def test_triple_embedding_needs_commuting_middle():
    # on the triangular envelope both legs of sch5 embed, but t(a) and t(b)
    # on the middle leg do not commute, so the classes come from a
    # TripleQuotient, whose push-through fails
    b = triangular_envelope()
    assert check_left_bialgebroid(b).ok
    leg12, leg23 = b.leg("Rt", over="Lt", u_first=False), b.leg("Lt", over="Ls", u_first=False)
    assert leg12.exact and leg23.exact
    d = b.U.dim
    with pytest.raises(DescentError):
        triple_classes(F2, F2.zeros((d, d, d, 1)), F2.zeros((d, d, d, 1)), leg12, leg23)


@pytest.mark.parametrize("build", [
    lambda: env(F5, 2), lambda: pair(F5, 2), lambda: env(QQ, 2), lambda: pair(QQ, 2),
    group_q3, FIXTURES["crossed"],
])
def test_batched_mults_match_products(build):
    # the stacks are read off mul in one step; each matrix is still the
    # product by one element
    b = build()
    f, u = b.field, b.U
    for stack, mult, elems in (
            (u.basis_left_mults, u.left_mult, f.eye(u.dim)),
            (u.basis_right_mults, u.right_mult, f.eye(u.dim)),
            (b.Ls, u.left_mult, b.s_map.T), (b.Lt, u.left_mult, b.t_map.T),
            (b.Rs, u.right_mult, b.s_map.T), (b.Rt, u.right_mult, b.t_map.T)):
        assert len(stack) == len(elems)
        for m, x in zip(stack, elems):
            assert f.equal(m, mult(x))
    # the basis stacks are copies, not views of mul
    assert not np.shares_memory(u.basis_left_mults, u.mul)
    assert not np.shares_memory(u.basis_right_mults, u.mul)
