from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bgd.algebra import (
    AlgebraPresentation,
    balanced_tensor,
    check_action,
    enveloping_square,
    pair_and_act,
    tensor_product,
)
from bgd.fixtures import FIXTURES, truncated_polynomials
from bgd.linalg import Field

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
    assert enveloping_square(a).check().ok


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
