import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgd import linalg
from bgd.algebra import AlgebraPresentation
from bgd.linalg import (
    Field,
    FieldError,
    Quotient,
    SingularMatrixError,
    Subspace,
    invert,
    kernel_basis,
    rank,
    solve_affine,
    solve_matrix_equation,
)

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
QQ = Field.rationals()

def rand_matrix(field, rows, cols, draw):
    if field.kind == "prime":
        return field.array([[draw % field.p for draw in row] for row in draw_ints(rows, cols, draw)])
    return field.array(draw_ints(rows, cols, draw))


def draw_ints(rows, cols, data):
    it = iter(data)
    return [[next(it) for _ in range(cols)] for _ in range(rows)]


def test_rref_mod_known():
    m = np.array([[2, 4, 1], [1, 2, 3], [0, 0, 4]], dtype=np.int64)
    r, piv = linalg.rref(F5, m)
    assert piv == [0, 2]
    assert r.tolist() == [[1, 2, 0], [0, 0, 1]]
    assert (r >= 0).all() and (r < 5).all()


def test_rref_mod_large_prime_is_fast():
    # rref inverts each pivot on its own, so its cost does not grow with p
    p = 1000003
    f = Field.prime(p)
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(10):
        m = f.array(rng.integers(1, p, size=(2, 2)))  # invertible for this seed
        r, piv = linalg.rref(f, np.concatenate([m, f.eye(2)], axis=1))
        assert piv == [0, 1]
        assert np.array_equal(r[:, 2:], invert(f, m))
        assert f.equal(f.matmul(m, r[:, 2:]), f.eye(2))
    assert time.perf_counter() - start < 1.0


def test_rref_mod_zero_and_identity():
    r, piv = linalg.rref(F3, np.zeros((3, 3), dtype=np.int64))
    assert piv == [] and r.shape == (0, 3)
    r, piv = linalg.rref(F2, np.eye(4, dtype=np.int64))
    assert piv == [0, 1, 2, 3]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([F2, F3, F5, QQ]), st.data())
def test_rank_nullity(rows, cols, field, data):
    raw = data.draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    m = field.array(raw)
    r = rank(field, m)
    ker = kernel_basis(field, m)
    assert r + len(ker) == cols
    for v in ker:
        assert field.is_zero(field.matmul(m, v))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from([F3, F5, QQ]), st.data())
def test_solve_affine_consistent(n, field, data):
    raw = data.draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    x_raw = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    m = field.array(raw)
    x = field.array(x_raw)
    b = field.matmul(m, x)
    sol = solve_affine(field, m, b)
    assert sol is not None
    part, homs = sol
    assert field.equal(field.matmul(m, part), b)
    diff = field.mod(x - part)
    span = Subspace(field, n, homs)
    assert span.contains(diff)


def test_solve_affine_inconsistent():
    assert solve_affine(F2, F2.array([[1, 1], [1, 1]]), F2.array([0, 1])) is None


BLOCK_FIELDS = st.sampled_from([F2, F5, QQ])


def _draw_matrix(field, data, rows, cols):
    raw = data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ))
    return field.array(raw) if rows else field.zeros((0, cols))


def _same(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(1, 5), st.integers(1, 4), BLOCK_FIELDS, st.data())
def test_block_reduce_matches_columns(ngens, ncols, k, field, data):
    gens = _draw_matrix(field, data, ngens, ncols)
    sub = Subspace(field, ncols, list(gens))
    v = _draw_matrix(field, data, ncols, k)
    block = sub.reduce(v)
    for j in range(k):
        assert _same(block[:, j], sub.reduce(v[:, j]))
    assert sub.contains(v) == all(sub.contains(v[:, j]) for j in range(k))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), BLOCK_FIELDS, st.data())
def test_block_solve_matches_columns(rows, cols, k, field, data):
    m = _draw_matrix(field, data, rows, cols)
    # each column is either in the image of m or arbitrary
    x = _draw_matrix(field, data, cols, k)
    free = _draw_matrix(field, data, rows, k)
    pick = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    b = field.matmul(m, x)
    for j in range(k):
        if pick[j]:
            b[:, j] = free[:, j]
    block = solve_affine(field, m, b)
    per_col = [solve_affine(field, m, b[:, j]) for j in range(k)]
    if any(sol is None for sol in per_col):
        assert block is None
        return
    part, homs = block
    for j, (p, h) in enumerate(per_col):
        assert _same(part[:, j], p)
        assert len(h) == len(homs) and all(_same(u, w) for u, w in zip(h, homs))
    assert field.equal(field.matmul(m, part), b)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), BLOCK_FIELDS, st.data())
def test_kernel_basis_is_homogeneous_part(rows, cols, field, data):
    m = _draw_matrix(field, data, rows, cols)
    x = _draw_matrix(field, data, cols, 1)[:, 0]
    _, homs = solve_affine(field, m, field.matmul(m, x))
    ker = kernel_basis(field, m)
    assert len(ker) == len(homs)
    assert all(_same(u, w) for u, w in zip(ker, homs))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.booleans(),
    BLOCK_FIELDS, st.data(),
)
def test_solve_matrix_equation_solutions_satisfy(r, c, neq, consistent, field, data):
    x0 = _draw_matrix(field, data, r, c)
    eqs = []
    for _ in range(neq):
        out_r, out_c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        terms = [
            (_draw_matrix(field, data, out_r, r), _draw_matrix(field, data, c, out_c))
            for _ in range(data.draw(st.integers(1, 2)))
        ]
        if consistent:
            t = field.mod(sum(field.matmul(field.matmul(p, x0), q) for p, q in terms))
        else:
            t = _draw_matrix(field, data, out_r, out_c)
        eqs.append((terms, t))
    sol = solve_matrix_equation(field, (r, c), eqs)
    if consistent:
        assert sol is not None
    if sol is None:
        return
    part, homs = sol
    for x in [part] + [field.mod(part + h) for h in homs]:
        assert x.shape == (r, c)
        for terms, t in eqs:
            got = sum(field.matmul(field.matmul(p, x), q) for p, q in terms)
            assert field.equal(field.mod(got), t)
    for h in homs:
        for terms, _ in eqs:
            got = sum(field.matmul(field.matmul(p, h), q) for p, q in terms)
            assert field.is_zero(field.mod(got))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.sampled_from([F3, F5, QQ]), st.data())
def test_invert_roundtrip(n, field, data):
    raw = data.draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    m = field.array(raw)
    if rank(field, m) < n:
        with pytest.raises(SingularMatrixError):
            invert(field, m)
        return
    mi = invert(field, m)
    assert field.equal(field.matmul(m, mi), field.eye(n))


def test_rationals_exact():
    m = QQ.array([[1, 2], [3, 4]])
    mi = invert(QQ, m)
    assert mi[0, 0] == Fraction(-2)
    assert mi[1, 0] == Fraction(3, 2)


def test_quotient_projection_section():
    # quotient of F_3^4 by span{e0 - e1, e2}
    q = Quotient(F3, 4, [F3.array([1, 2, 0, 0]), F3.array([0, 0, 1, 0])])
    assert q.dim == 2
    for _ in range(3):
        v = F3.array([2, 1, 2, 0])
        assert np.array_equal(q.project(q.section(q.project(v))), q.project(v))
    # relation vectors project to zero
    assert F3.is_zero(q.project(F3.array([1, 2, 0, 0])))
    # projection matrix agrees with project()
    v = F3.array([1, 1, 1, 1])
    assert np.array_equal(F3.matmul(q.project_mat, v), q.project(v))


def test_quotient_induced_op_descent():
    q = Quotient(F2, 2, [F2.array([1, 1])])
    swap = F2.array([[0, 1], [1, 0]])
    assert q.descends(swap)
    assert q.induced_op(swap).tolist() == [[1]]
    bad = F2.array([[1, 0], [0, 0]])
    assert not q.descends(bad)
    with pytest.raises(ValueError):
        q.induced_op(bad)
    # a map between two quotients: F_2^3 / <e0 + e1>  ->  F_2^2 / <e0 + e1>
    dom = Quotient(F2, 3, [F2.array([1, 1, 0])])
    fold = F2.array([[0, 1, 1], [1, 0, 0]])  # e0 -> e1, e1 -> e0, e2 -> e0
    assert q.descends(fold, dom)
    assert q.induced_op(fold, dom).tolist() == [[1, 1]]
    skew = F2.array([[1, 0, 0], [0, 0, 1]])  # e0 + e1 -> e0, not a relation
    assert not q.descends(skew, dom)
    with pytest.raises(ValueError):
        q.induced_op(skew, dom)


def test_tensor_leg_ops():
    v = F3.array([1, 2])
    w = F3.array([0, 1, 2])
    t = F3.contract(v, w, 0).reshape(-1)
    assert t.tolist() == [0, 1, 2, 0, 2, 1]
    m = F3.array([[1, 1], [0, 2]])
    assert np.array_equal(
        F3.matmul(m, t.reshape(2, 3)).reshape(-1), F3.contract(F3.matmul(m, v), w, 0).reshape(-1)
    )


def test_matmul_does_not_overflow_below_2_31():
    # (p - 1)^2 * 4 overflows int64; the contraction sums in chunks
    p = 2**31 - 1
    f = Field.prime(p)
    a = f.array([[p - 1] * 4])
    assert f.matmul(a, a.T).tolist() == [[4]]


def exact_contract(a, b, axes, p):
    """The contraction in python ints, reduced into [0, p)."""
    return np.asarray(
        np.tensordot(np.asarray(a).astype(object), np.asarray(b).astype(object), axes) % p)


def assert_reduced(got, want, p):
    got = np.asarray(got)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert ((got >= 0) & (got < p)).all() and got.tolist() == want.tolist()


# 94906249: (p - 1)^2 fits below 2^53 once, so a float sum takes one term
@given(
    st.sampled_from([2, 5, 1000003, 94906249, 2**31 - 1]),
    st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_contract_matches_exact_sum(p, n, k1, k2, m, seed):
    f = Field.prime(p)
    rng = np.random.default_rng(seed)
    # entries in (-p, p), as in an unreduced difference
    a = rng.integers(1 - p, p, size=(n, k1, k2))
    b = rng.integers(1 - p, p, size=(k2, m, k1))
    assert_reduced(f.contract(a, b, ([1, 2], [2, 0])), exact_contract(a, b, ([1, 2], [2, 0]), p), p)
    assert_reduced(f.matmul(a[:, 0], b[:, :, 0]), exact_contract(a[:, 0], b[:, :, 0], 1, p), p)


@pytest.mark.parametrize("p", [1000003, 94906249, 2**31 - 1])
def test_contract_at_the_exact_sum_bound(p):
    # f.chunk products of magnitude (p - 1)^2 are the most one partial sum
    # may take (2^53 in float64, 2^63 - 1 in int64); one more splits the sum
    f = Field.prime(p)
    rng = np.random.default_rng(p)
    for terms in (f.chunk, f.chunk + 1):
        signs = rng.choice([-1, 1], size=(3, terms))
        for a in ((p - 1) * np.ones((2, terms), dtype=np.int64),
                  (p - 1) * signs[:2], (p - 1) * signs[1:]):
            b = (p - 1) * signs.T
            assert_reduced(f.matmul(a, b), exact_contract(a, b, 1, p), p)
        # (p - 1)^2 + 1 has its lowest bit set, so a float64 sum of two
        # products over 94906249 would round it
        a = np.full(terms, p - 1)
        a[-1] = 1
        assert_reduced(f.matmul(a, a), exact_contract(a, a, 1, p), p)


@pytest.mark.parametrize("p", [2, 94906249, 2**31 - 1])
def test_contract_with_zero_size_axes(p):
    f = Field.prime(p)
    cases = [
        ((0, 3), (3, 4), 1), ((3, 0), (0, 4), 1), ((3, 4), (4, 0), 1),
        ((0,), (0, 2), 1), ((2, 0, 3), (3, 0), ([1, 2], [1, 0])),
        ((2, 3, 0), (0, 3), (2, 0)), ((2, 0), (0, 5, 2), 1),
    ]
    for chunk in (f.chunk, 1):
        f.chunk = chunk
        for sa, sb, axes in cases:
            a, b = np.ones(sa, dtype=np.int64), np.ones(sb, dtype=np.int64)
            assert_reduced(f.contract(a, b, axes), exact_contract(a, b, axes, p), p)


@pytest.mark.parametrize("p", [5, 94906249, 2**31 - 1])
def test_contract_by_chunks_matches_exact_sum(p):
    # a chunk longer than the field's own could pass the exact bound, so
    # the forced chunks stop there (1 term over 94906249, 2 over 2^31 - 1)
    f = Field.prime(p)
    rng = np.random.default_rng(p)
    cases = [
        ((40, 6), (6, 7), 1),
        ((6, 5), (5, 40), 1),
        ((9,), (9, 30), 1),
        ((5, 4, 3, 6), (6, 3, 8), ([2, 3], [1, 0])),
    ]
    for chunk in sorted({min(c, f.chunk) for c in (1, 2, 7)}):
        f.chunk = chunk
        for sa, sb, axes in cases:
            a, b = rng.integers(1 - p, p, size=sa), rng.integers(1 - p, p, size=sb)
            assert_reduced(f.contract(a, b, axes), exact_contract(a, b, axes, p), p)


# columns of the 300 x 300 products below that are checked against python
# ints, whose own product would take seconds whole
EXACT_COLUMNS = [0, 1, 77, 150, 298, 299]


@pytest.mark.parametrize("p", [5, 94906249, 2**31 - 1])
def test_dense_product_past_one_block(p):
    # a dense product of 90,000-entry operands, one chunk over F_5 and 300
    # and 150 chunks over the two large primes
    f = Field.prime(p)
    rng = np.random.default_rng(p)
    a, b = rng.integers(1 - p, p, size=(2, 300, 300))
    got = f.matmul(a, b)
    assert_reduced(got[:, EXACT_COLUMNS], exact_contract(a, b[:, EXACT_COLUMNS], 1, p), p)


def test_dense_rational_product_past_one_block():
    # numerators below 2^24: k max|N_a| max|N_b| passes 2^53 for k = 300,
    # so the int64 numerators are summed in float64 chunks of 2^53 // top
    rng = np.random.default_rng(0)
    na, nb = (rng.integers(-2**24 + 1, 2**24, size=(300, 300)) for _ in range(2))
    na[0, 0] = nb[0, 0] = 2**24 - 1
    top = (2**24 - 1) ** 2
    assert 300 * top > 2**53 and linalg._summation(top)[1] < 300
    got = QQ.matmul(QQ.array(na), QQ.array(nb))
    want = na.astype(object) @ nb[:, EXACT_COLUMNS].astype(object)
    assert_fractions(got[:, EXACT_COLUMNS], QQ.array(want))


def test_contract_small_prime_is_fast():
    # float64 BLAS takes about 0.01 s here; the int64 product about 0.9 s
    f = Field.prime(5)
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, 5, size=(2, 625, 625))
    f.contract(a[:8], b[:, :8])
    start = time.perf_counter()
    got = f.contract(a, b)
    assert time.perf_counter() - start < 0.5
    assert np.array_equal(got, (a @ b) % 5)


def test_contract_rationals_is_fast():
    # float64 BLAS takes about 0.04 s here; multiplying and adding the
    # 1.7M terms as Fractions took about 9 s
    rng = np.random.default_rng(0)
    a, b = (QQ.array([[Fraction(int(n), int(d)) for n, d in zip(nr, dr)]
                      for nr, dr in zip(rng.integers(-9, 10, size=(120, 120)),
                                        rng.integers(1, 5, size=(120, 120)))])
            for _ in range(2))
    QQ.matmul(a[:8], b[:, :8])
    start = time.perf_counter()
    got = QQ.matmul(a, b)
    assert time.perf_counter() - start < 0.5
    assert got[3, 5] == sum(a[3, i] * b[i, 5] for i in range(120))


def rational_array(rng, shape, size, dens):
    """Fractions n/d with |n| < size (a python int of any size) and d drawn
    from 1..dens, as an object array."""
    out = np.empty(math.prod(shape), dtype=object)
    out[:] = [Fraction(int(rng.integers(-2**62, 2**62)) * size // 2**62,
                       int(rng.integers(1, dens + 1))) for _ in range(out.size)]
    return out.reshape(shape)


def assert_fractions(got, want):
    """got is the result over Q of a product or a difference: an object
    array of ``Fraction``s equal to the plain-Fraction result ``want`` (a
    ``Fraction`` where want is a scalar), whose zero entries are all one
    shared ``Fraction(0)``."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == object
        assert got.shape == want.shape
        got, want = got.ravel().tolist(), want.ravel().tolist()
    else:
        got, want = [got], [want]
    assert all(type(x) is Fraction for x in got) and got == want
    assert len({id(x) for x in got if x == 0}) <= 1


def q_operand(rng, shape, size, dens, density, zero):
    """An operand over Q of ``shape``: Fractions n/d with |n| < size and d
    up to dens at ``density`` of the entries, and ``zero`` elsewhere (the
    shared zero of ``QQ.array`` for None, or a zero built apart from it)."""
    a = rational_array(rng, shape, size, dens)
    a[rng.random(shape) >= density] = 0 if zero is None else zero
    return QQ.array(a) if zero is None else a


# numerators below 10 take the float64 product; 2^20 and 2^40 pass 2^53
# once two of them meet, and 2^200 passes int64; dens 10^6 draws
# denominators with a large lcm; pair routes every product that fits 2^53
# through _pair_product
@given(
    st.sampled_from([10, 2**20, 2**40, 2**200]), st.sampled_from([1, 4, 12, 10**6]),
    st.sampled_from([0, 0.1, 0.5, 1]), st.sampled_from([None, Fraction(0), 0]),
    st.integers(0, 3), st.integers(0, 4), st.integers(1, 4), st.integers(0, 3),
    st.booleans(), st.booleans(), st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_rational_contract_matches_exact_sum(
        size, dens, density, zero, n, k1, k2, m, mixed, pair, seed):
    rng = np.random.default_rng(seed)
    a = q_operand(rng, (n, k1, k2), size, dens, density, zero)
    # an int64 operand beside an object one, as an unreduced int array may be
    b = (rng.integers(-9, 10, size=(k2, m, k1)) * (rng.random((k2, m, k1)) < density) if mixed
         else q_operand(rng, (k2, m, k1), size, dens, density, zero))
    exact = b.astype(object)
    with pytest.MonkeyPatch.context() as mp:
        if pair:
            for name in ("PAIR_FLOOR", "SPARSE_COST", "PAIR_WORDS"):
                mp.setattr(linalg, name, 0)
        for axes in (([1, 2], [2, 0]), ([1], [2]), 1):
            assert_fractions(QQ.contract(a, b, axes), np.tensordot(a, exact, axes))
        if k1:
            assert_fractions(QQ.matmul(a[:, 0], b[:, :, 0]), a[:, 0] @ exact[:, :, 0])
        if n and m and k1:
            assert_fractions(QQ.matmul(b[0, 0], a[0]), exact[0, 0] @ a[0])
            # a vector times a vector is a Fraction; a full contraction a 0-d array
            assert_fractions(QQ.matmul(a[0, 0], exact[:, 0, 0]), a[0, 0] @ exact[:, 0, 0])
            assert_fractions(QQ.contract(a[0], b[:, 0].T, 2), np.tensordot(a[0], exact[:, 0].T, 2))
    # differences: equal shapes, broadcast ones, and an int64 operand
    ints = rng.integers(-3, 4, size=a.shape) * (rng.random(a.shape) < density)
    for x, y in ((a, a.copy()), (a[..., :1], a[..., -1:]), (a, a[:1]), (a, ints), (ints, a)):
        want = x - y
        assert_fractions(QQ.sub(x, y), want)
        assert QQ.equal(x, y) == (x.shape == y.shape and not np.any(want))
        assert QQ.is_zero(QQ.sub(x, y)) == (not np.any(want))
    assert QQ.is_zero(a) == (not np.any(a))


# -- residuals: the two sides of an identity -------------------------------


@given(st.sampled_from([2, 5, 2**31 - 1]), st.integers(0, 4), st.integers(0, 4),
       st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_prime_residual_is_the_unreduced_difference(p, m, n, broadcast, seed):
    # no reduction: a - b itself, in (-p, p), which contract reads as it is
    f = Field.prime(p)
    rng = np.random.default_rng(seed)
    a = f.array(rng.integers(0, p, size=(m, n)))
    b = f.array(rng.integers(0, p, size=(min(m, 1), n) if broadcast else (m, n)))
    got = f.residual(a, b)
    assert _same(got, a - b)
    assert (np.abs(got) < p).all()
    c = f.array(rng.integers(0, p, size=(n, 3)))
    assert_reduced(f.contract(got, c), exact_contract(a - b, c, 1, p), p)
    assert_reduced(f.contract(c.T, got.T), exact_contract(c.T, (a - b).T, 1, p), p)


@given(
    st.sampled_from([10, 2**20, 2**200]), st.sampled_from([1, 12, 10**6]),
    st.sampled_from([0, 0.5, 1]), st.sampled_from([None, Fraction(0), 0]),
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_rational_residual_matches_fractions(size, dens, density, zero, m, n, seed):
    rng = np.random.default_rng(seed)
    a = q_operand(rng, (m, n), size, dens, density, zero)
    b = q_operand(rng, (m, n), size, dens, density, zero)
    ints = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) < density)
    # equal shapes, equal sides, broadcast shapes, and an int64 operand
    for x, y in ((a, b), (a, a.copy()), (a, b[:1]), (a[:, :1], b), (a, ints), (ints, a)):
        got = QQ.residual(x, y)
        assert_fractions(got, x - y)
        assert all(z is linalg._ZERO for z in got.ravel().tolist() if z == 0)


def test_rational_contract_at_the_exact_sum_bound():
    # 2^25 * 2^25 = 2^50, so eight such products reach 2^53 and a ninth
    # passes it; 2^53 + 1 has its lowest bit set, so a float64 sum of the
    # nine would round it
    big = 2**25
    for terms in (8, 9):
        for den in (1, 3):
            a = QQ.array([Fraction(big, den)] * (terms - 1) + [Fraction(1, den)])
            b = QQ.array([Fraction(big, den)] * terms)
            assert_fractions(QQ.matmul(a, a), a @ a)
            assert_fractions(QQ.matmul(a[None], b[:, None]), a[None] @ b[:, None])
    a = QQ.array([big] * 8 + [1])
    assert QQ.matmul(a, a) == 2**53 + 1


def test_rational_contract_of_an_all_zero_operand():
    # float() of a numerator above about 1e308 raises, so neither this
    # product nor the one of two huge operands may take the float64 path
    huge = QQ.array([[10**400, Fraction(1, 3)], [2, 10**309]])
    zero = QQ.zeros((2, 2))
    assert_fractions(QQ.matmul(zero, huge), zero @ huge)
    assert_fractions(QQ.contract(huge, zero, ([0], [1])), np.tensordot(huge, zero, ([0], [1])))
    assert_fractions(QQ.matmul(huge, huge), huge @ huge)
    assert_fractions(QQ.matmul(huge[0], np.zeros(2, dtype=np.int64)), Fraction(0))


def test_rational_contract_with_zero_size_axes():
    cases = [
        ((0, 3), (3, 4), 1), ((3, 0), (0, 4), 1), ((3, 4), (4, 0), 1),
        ((0,), (0, 2), 1), ((2, 0, 3), (3, 0), ([1, 2], [1, 0])),
        ((2, 3, 0), (0, 3), (2, 0)), ((2, 0), (0, 5, 2), 1),
    ]
    for sa, sb, axes in cases:
        a, b = QQ.array(np.ones(sa, dtype=np.int64)), QQ.array(np.ones(sb, dtype=np.int64))
        want = np.tensordot(a, b, axes)
        want[...] = Fraction(0)
        assert_fractions(QQ.contract(a, b, axes), want)


def test_rational_contract_of_int_operands_is_exact():
    # non-object operands are read as Fractions, not multiplied in their
    # own dtype, where 2^33 wraps in int32 and 2^65 in int64
    i32 = np.array([2**30, 2**30], dtype=np.int32)
    assert_fractions(QQ.matmul(i32, np.array([4, 4], dtype=np.int32)), Fraction(2**33))
    assert_fractions(QQ.matmul(np.array([2**62, 2**62]), np.array([4, 4])), Fraction(2**65))
    assert_fractions(QQ.matmul(np.array([0.5, 1.0]), [2, 2]), Fraction(3))
    a = np.arange(6, dtype=np.int64).reshape(2, 3)
    for got, want in ((QQ.matmul(a, a.T), a @ a.T),
                      (QQ.contract(a, a, ([0], [0])), np.tensordot(a, a, ([0], [0])))):
        assert_fractions(got, QQ.array(want))


# every kind of array the API accepts, with the exact values it holds: over
# Q as given, over F_p with integer floats and Fractions only
BOUNDARY = {
    "int32": lambda q: np.array([2**31 - 1, -2**31, 7], dtype=np.int32),
    "int64": lambda q: np.array([2**63 - 1, -2**63, -1]),
    "uint64": lambda q: np.array([2**64 - 1, 2**63, 5], dtype=np.uint64),
    "bool": lambda q: np.array([True, False, True]),
    "float": lambda q: np.array([0.5 if q else 2.0, -3.0, 2.0**70]),
    "object": lambda q: np.array([Fraction(1 if q else 6, 3), 2**70, -4], dtype=object),
    "object-float": lambda q: np.array([0.5 if q else 2.0, -3.0, 2.0**70], dtype=object),
    "python-int": lambda q: [2**70, -2**65, 2**63],
}


@pytest.mark.parametrize("kind", sorted(BOUNDARY))
def test_rational_methods_are_exact_on_every_kind(kind):
    x = BOUNDARY[kind](True)
    want = [Fraction(v) for v in np.asarray(x).tolist()]
    ref, w = QQ.array(want), QQ.array([1, 2, 3])
    assert_fractions(QQ.array(x), ref)
    assert np.asarray(QQ.mod(x)).tolist() == want
    for diff in (QQ.sub(x, w), QQ.residual(x, w)):
        assert_fractions(diff, ref - w)
    assert_fractions(QQ.sub(w, x), w - ref)
    assert_fractions(QQ.matmul(x, w), ref @ w)
    assert_fractions(QQ.contract(x, x, 0), np.multiply.outer(ref, ref))
    assert QQ.equal(x, ref) and not QQ.equal(x, ref + 1)
    assert not QQ.is_zero(x) and QQ.is_zero(np.zeros_like(np.asarray(x)))
    assert QQ.key(QQ.mod(x)) == QQ.key(ref)
    if kind == "object-float":
        floats = np.array([0.5, 1], dtype=object)
        assert QQ.matmul(floats, np.array([1, 1], dtype=object)) == Fraction(3, 2)
        assert QQ.key(floats[:1]) == QQ.key(np.array([Fraction(1, 2)], dtype=object))


@pytest.mark.parametrize("kind", sorted(BOUNDARY))
def test_prime_entry_is_exact_on_every_kind(kind):
    # the way into F_p; its other methods take int64 as field elements, in
    # (-p, p), as Field.contract and Field.residual say, and read every
    # other kind exactly
    x = BOUNDARY[kind](False)
    want = [int(v) % 5 for v in np.asarray(x).tolist()]
    for got in (F5.array(x), F5.mod(x), F5.sub(x, 0)):
        assert got.dtype == np.int64 and got.tolist() == want
    if kind != "int64":
        assert F5.matmul(x, [1, 2, 3]) == (want[0] + 2 * want[1] + 3 * want[2]) % 5
        assert F5.neg(x).tolist() == [-v % 5 for v in want]
        assert F5.equal(x, want) and not F5.equal(x, np.add(want, 1))
        assert F5.is_zero(F5.residual(x, want)) and F5.is_zero(x) == (not any(want))
    if kind == "uint64":  # values that wrap in uint64 arithmetic
        u64 = lambda *v: np.array(v, dtype=np.uint64)
        assert F5.matmul(u64(2**64 - 1), [1]) == 0 and F5.neg(u64(1)).tolist() == [4]
        assert not F5.equal(u64(1), u64(2**64 - 4))
        assert F5.residual(u64(0), u64(1)).tolist() == [-1]
        assert F5.sub(u64(0), u64(1)).tolist() == [4] == F5.sub(u64(2**64 - 1), [1]).tolist()
    if kind == "object":
        assert not F5.is_zero(np.array([2**70], dtype=object))


def test_prime_array_boundary_values():
    with pytest.raises(FieldError):
        F5.array([2.5])
    with pytest.raises(FieldError):
        F5.mod(np.array([[1, 0], [Fraction(1, 2), 3]], dtype=object))
    assert F5.array(np.array([2**64 - 1], dtype=np.uint64)).tolist() == [0]
    assert F5.array([2**70]).tolist() == [4]
    # from linalg.DIVIDE_FLOOR entries the reduction runs in place, on a
    # copy: never on the caller's array
    for x in (np.arange(-3000, 3000), np.arange(-3000, 3000, dtype=np.int32)):
        keep = x.copy()
        for got in (F5.array(x), F5.mod(x), F5.sub(x, 0)):
            assert got.dtype == np.int64 and np.array_equal(got, keep % 5)
        assert np.array_equal(x, keep)


def test_rational_structure_maps_of_int64_stay_exact():
    # mul given as int64 is read as Fractions by the constructor's
    # Field.mod, so products of it do not wrap
    a = AlgebraPresentation(QQ, np.array([[[2**40]]]), QQ.array([1]))
    x = np.array([2**40])
    assert a.mul.dtype == object
    assert_fractions(a.mult(a.mult(x, x), x), QQ.array([2**200]))


# -- Q products by nonzero pairs and Q row reduction -----------------------


def test_rational_pair_product_on_sparse_operands():
    # 256 x 64 by 64 x 256 is 2^22 multiply-adds, past linalg.PAIR_FLOOR,
    # with about a hundred nonzero pairs: it runs through _pair_product
    rng = np.random.default_rng(7)
    runs, pair = [], linalg._pair_product

    def watch(p, a, b, top=None):
        out = pair(p, a, b, top)
        runs.append(out is not None)
        return out

    # k top <= 2^53 pairs; 2^25 numerators sum past 2^53 in int64, and
    # 2^200 ones take the python-int product
    for size, dens in ((10, 12), (2**20, 1), (2**25, 1), (2**200, 12)):
        a = q_operand(rng, (256, 64), size, dens, 0.005, None)
        b = q_operand(rng, (64, 256), size, dens, 0.005, Fraction(0))
        want = np.full((256, 256), Fraction(0), dtype=object)
        for i, t in zip(*np.nonzero(a)):
            for j in np.flatnonzero(b[t]):
                want[i, j] += a[i, t] * b[t, j]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_pair_product", watch)
            assert_fractions(QQ.matmul(a, b), want)
    assert runs == [True, True, False]


def test_rational_rref_reads_every_kind_of_entry():
    # shared and separately built zeros, ints, floats and Fractions, and an
    # int64 matrix over Q, give the rows of the dense loop on QQ.array(m)
    m = np.array([[0, Fraction(0), QQ.zero, 2, 0.5],
                  [Fraction(1, 3), 0.0, 1, QQ.zero, Fraction(0)],
                  [QQ.zero] * 5,
                  [Fraction(2, 3), 0, 1, 2, 0.5]], dtype=object)
    assert_same_rref(QQ, m)
    assert_same_rref(QQ, np.array([[0, 2, 4], [1, 0, 3], [1, 2, 7]]))
    with pytest.raises((TypeError, ValueError)):
        linalg.rref(QQ, np.array([[None, 1]], dtype=object))


def test_field_rejects_primes_from_2_31_at_once():
    start = time.perf_counter()
    for p in (2**31, 2**61 - 1):
        with pytest.raises(FieldError):
            Field.prime(p)
    assert time.perf_counter() - start < 1.0
    assert Field.prime(2**31 - 1).p == 2**31 - 1


# -- the sparse-first rref against the dense loop ---------------------------

P31 = Field.prime(2**31 - 1)


def reference_rref(field, m):
    """The dense Gauss-Jordan loop on its own."""
    return linalg._gauss_jordan(field, field.array(np.asarray(m)))


def assert_same_rref(field, m):
    rows, pivots = linalg.rref(field, m)
    want_rows, want_pivots = reference_rref(field, m)
    assert pivots == want_pivots
    assert rows.shape == want_rows.shape and np.array_equal(rows, want_rows)
    if field.kind == "prime":
        assert rows.dtype == np.int64
    else:
        assert rows.dtype == object
        assert all(type(x) is Fraction for x in rows.ravel().tolist())


@st.composite
def rref_inputs(draw):
    """(field, matrix): sparse, dense, rank-deficient, or a sparse head on a
    dense tail, the shape that hands over to the dense loop part-way;
    entries in (-p, p) or up to 2^40 over F_p, ints and Fractions over Q."""
    field = draw(st.sampled_from([F2, F5, P31, QQ]))
    kind = draw(st.sampled_from(["sparse", "dense", "low-rank", "handoff"]))
    # dense and hand-off inputs are small or reach past linalg.DENSE_STEP
    # basis entries; sparse ones are read in one python pass up to
    # linalg.ROW_PASS entries and in numpy blocks past it
    if kind in ("dense", "handoff"):
        nrows, ncols = (draw(st.integers(0, 4) | st.integers(12, 24)) * k for k in (1, 2))
    else:
        nrows, ncols = (draw(st.integers(0, 9) | st.integers(12, 40)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = field.p or 7
    if kind == "low-rank":  # wide or tall with rank at most k
        k = draw(st.integers(0, 3))
        m = field.matmul(rng.integers(0, top, size=(nrows, k)),
                         rng.integers(0, top, size=(k, ncols)))
    else:
        m = rng.integers(1, top, size=(nrows, ncols))
        m *= rng.random((nrows, ncols)) < {"sparse": 0.15, "dense": 0.9}.get(kind, 0.9)
        if kind == "handoff":
            head = min(nrows, ncols, draw(st.integers(1, 3)))
            m[:head] = np.eye(head, ncols, dtype=np.int64) * rng.integers(1, top, size=(head, 1))
    if field.kind == "prime":
        shift = draw(st.sampled_from(["reduced", "negative", "large"]))
        if shift == "negative":
            m = m - top * (rng.random(m.shape) < 0.5)
        elif shift == "large":
            m = m + top * rng.integers(0, 2**40 // top, size=m.shape)
        return field, np.asarray(m, dtype=np.int64)
    out = np.empty(np.shape(m), dtype=object)
    out.reshape(-1)[:] = [Fraction(int(x), int(rng.integers(1, 4))) if rng.random() < 0.5
                          else int(x) for x in np.asarray(m).reshape(-1).tolist()]
    return field, out


@settings(max_examples=300, deadline=None)
@given(rref_inputs())
def test_rref_matches_the_dense_loop(case):
    field, m = case
    before = m.copy()
    assert_same_rref(field, m)
    assert np.array_equal(m, before)  # the handoff reduces a copy in place


def test_rref_of_empty_and_zero_shapes():
    for field in (F2, F5, P31, QQ):
        for shape in ((0, 0), (0, 4), (4, 0), (3, 5)):
            assert_same_rref(field, np.zeros(shape, dtype=np.int64))
        # multiples of p are zero in F_p; only Q keeps them
        assert_same_rref(field, np.full((2, 3), 2 * (field.p or 1), dtype=np.int64))


def test_rref_hands_over_to_the_dense_loop_part_way(monkeypatch):
    # two sparse rows enter the sparse basis, then dense rows fill it in
    rng = np.random.default_rng(3)
    m = np.concatenate([np.eye(2, 40, dtype=np.int64),
                        rng.integers(1, 5, size=(30, 40))])
    handed = []
    dense = linalg._gauss_jordan

    def watch(field, w):
        handed.append(w.copy())
        return dense(field, w)

    monkeypatch.setattr(linalg, "_gauss_jordan", watch)
    linalg.rref(F5, m)
    monkeypatch.undo()
    assert len(handed) == 1
    w = handed[0]
    # the dense loop gets the sparse basis, in RREF, then the rows not yet
    # inserted, as they were
    k = len(w) - next(n for n in range(len(m)) if not np.array_equal(w[-n - 1], m[-n - 1]))
    assert 2 < k < len(m)
    assert linalg._gauss_jordan(F5, w[:k].copy())[0].tolist() == w[:k].tolist()
    assert_same_rref(F5, m)


def test_rref_counts_once_through_the_dense_handoff(monkeypatch):
    # perfbench counts rref calls and cells by wrapping linalg.rref, so a
    # reduction that hands over to the dense loop must stay one call
    calls, handed = [], []
    rref, dense = linalg.rref, linalg._gauss_jordan
    monkeypatch.setattr(linalg, "rref", lambda f, m: calls.append(np.shape(m)) or rref(f, m))
    monkeypatch.setattr(linalg, "_gauss_jordan",
                        lambda f, w: handed.append(w.shape) or dense(f, w))
    m = np.random.default_rng(0).integers(0, 5, size=(64, 128))
    sub = Subspace(F5, 128, list(m))
    assert calls == [(64, 128)] and len(handed) == 1
    assert sub.dim == 64


def test_rational_array_converts_every_entry():
    a = QQ.array([[0, 2, Fraction(1, 3)], [0.5, 0.0, -7]])
    assert a.tolist() == [[0, 2, Fraction(1, 3)], [Fraction(1, 2), 0, -7]]
    assert all(type(x) is Fraction for x in a.ravel().tolist())
    assert QQ.array(3)[()] == 3 and type(QQ.array(0)[()]) is Fraction
    assert QQ.array(np.zeros((0, 3))).shape == (0, 3)
    for bad in ([None, 1], ["", 1]):
        with pytest.raises((TypeError, ValueError)):
            QQ.array(bad)


# -- products by nonzero pairs against the dense path ----------------------


@st.composite
def pair_inputs(draw):
    """(p, a, b): a vector or matrix a and b with entries in (-p, p), any
    density from all-zero to full, axes that may be empty, and int32
    entries, whose products would wrap in int32."""
    p = draw(st.sampled_from([2, 5, 2**31 - 1]))
    m, k, n = (draw(st.integers(0, 9)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    shape_a = (k,) if draw(st.booleans()) else (m, k)
    shape_b = (k,) if draw(st.booleans()) else (k, n)
    a, b = ((rng.integers(1 - p, p, size=s) * (rng.random(s) < draw(st.sampled_from([0, 0.1, 0.5, 1]))))
            .astype(dtype) for s in (shape_a, shape_b))
    return p, a, b


@settings(max_examples=300, deadline=None)
@given(pair_inputs(), st.sampled_from([None, 0, 1]))
def test_pair_product_matches_dense_and_exact(case, over):
    # over: None leaves FLOAT_EXACT as it is; 0 puts k (p - 1) at the bound
    # of exact float64 bin sums, which the pair path takes, and 1 just past it
    p, a, b = case
    f = Field.prime(p)
    k = a.shape[-1]
    want = exact_contract(a, b, 1, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "PAIR_FLOOR", 0)
        mp.setattr(linalg, "SPARSE_COST", 0)
        mp.setattr(linalg, "PAIR_WORDS", 0)
        if over is not None:
            mp.setattr(linalg, "FLOAT_EXACT", k * (p - 1) - over)
        got = linalg._pair_product(p, a if a.ndim == 2 else a[None], b if b.ndim == 2 else b[:, None])
        assert (got is None) == (over == 1)
        if got is not None:
            assert_reduced(got.reshape(want.shape), want, p)
        assert_reduced(f.matmul(a, b), want, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "PAIR_FLOOR", math.inf)
        assert_reduced(f.matmul(a, b), want, p)


def test_pair_path_runs_on_structure_tensors_only(monkeypatch):
    from bgd import bialgebroid
    from bgd.fixtures import rank_n_truncated

    # the shapes of the products that the pair path computes
    runs, pair = [], linalg._pair_product

    def watch(p, a, b, top=None):
        out = pair(p, a, b, top)
        if out is not None:
            runs.append((a.shape, b.shape))
        return out

    monkeypatch.setattr(linalg, "_pair_product", watch)
    multiplicativity, seen = bialgebroid.multiplicativity, []

    def watched(*args):
        before = len(runs)
        out = multiplicativity(*args)
        seen.extend(runs[before:])
        return out

    monkeypatch.setattr(bialgebroid, "multiplicativity", watched)
    b = rank_n_truncated(2, 4)  # d = 32, monomial basis
    rep = bialgebroid.check_left_bialgebroid(b)
    assert rep.ok and seen
    f, rng = b.field, np.random.default_rng(0)
    del runs[:]
    # a dense random product of the largest shape the pair path took
    shape_a, shape_b = max(seen, key=lambda s: s[0][0] * s[0][1] * s[1][1])
    a, b = rng.integers(0, 2, size=shape_a), rng.integers(0, 2, size=shape_b)
    assert np.array_equal(f.matmul(a, b), a @ b % 2)
    # below the multiply-add floor: 2^18 of them
    eye = np.eye(64, dtype=np.int64)
    assert np.array_equal(f.matmul(eye, eye), eye)
    # past the buffer guards: 8 nonzeros that make 16 pairs, more than
    # the 4 x 4 result holds, and 128 nonzeros that make one pair for each
    # entry of the 64 x 64 result
    for m, k in ((4, 2**17), (64, 2**8)):
        a = np.zeros((m, k), dtype=np.int64)
        a[:, 0] = 1
        assert np.array_equal(f.matmul(a, a.T), np.ones((m, m)))
    assert runs == []
    # past the 2^53 guard on the bin sums of k terms below p
    one = np.eye(2**10, dtype=np.int64)
    assert np.array_equal(f.matmul(one, one), one) and len(runs) == 1
    monkeypatch.setattr(linalg, "FLOAT_EXACT", 2**10 - 1)
    assert np.array_equal(f.matmul(one, one), one) and len(runs) == 1


# -- the fixed cost of a product: int64 products and reduction ------------


def test_product_bounds_are_where_the_paths_meet():
    # the dims of the test below reach both sides of each bound
    assert linalg.INT_WORK == 64 * 64 and linalg.DIVIDE_FLOOR == 32 * 32


# m x n from 1 to 4096 entries, either side of DIVIDE_FLOOR (31 x 33 just
# below, 32 x 32 at it), and m k n either side of INT_WORK
@given(
    st.sampled_from([2, 5, 2**31 - 1, None]), st.sampled_from([1, 3, 31, 32, 33, 64]),
    st.sampled_from([1, 2, 3, 4, 8]), st.sampled_from([1, 3, 31, 32, 33, 64]),
    st.sampled_from([np.int32, np.int64]), st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_products_either_side_of_the_bounds_are_exact(p, m, k, n, dtype, seed):
    rng = np.random.default_rng(seed)
    top = 2**31 - 1 if p is None else p
    # entries in (-p, p), as residuals have, in int32 or int64
    a, b = (rng.integers(1 - top, top, size=s).astype(dtype) for s in ((m, k), (k, n)))
    if p is None:
        # Fractions beside an integer operand; the numerators are multiplied
        # by the same kernel, with no modulus
        a = QQ.array(np.vectorize(Fraction, otypes=[object])(a, rng.integers(1, 4, size=a.shape)))
        want = a @ b.astype(object)
        assert_fractions(QQ.matmul(a, b), want)
        got = QQ.contract(a.reshape(m, 1, k), b.reshape(k, 1, n), ([1, 2], [1, 0]))
        assert_fractions(got, want)
        return
    f, want = Field.prime(p), exact_contract(a, b, 1, p)
    assert_reduced(f.matmul(a, b), want, p)
    assert_reduced(f.contract(a.reshape(m, 1, k), b.reshape(k, 1, n), ([1, 2], [1, 0])), want, p)
    assert_reduced(f.matmul(a[0], b), want[0], p)


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_int64_products_stop_at_the_int64_bound(k, monkeypatch):
    # k (p - 1)^2 fits int64 for k <= 2 only: 2 (p - 1)^2 = 2^63 - 2^34 + 8
    p = 2**31 - 1
    f = Field.prime(p)
    assert f.chunk == 2 and (k * (p - 1) ** 2 <= 2**63 - 1) == (k <= 2)
    terms, chunk_product = [], linalg._chunk_product

    def watch(a, b, p, dtype):
        terms.append(a.shape[-1])
        return chunk_product(a, b, p, dtype)

    monkeypatch.setattr(linalg, "_chunk_product", watch)
    for sign in (1, -1):
        a, b = np.full((3, k), p - 1), np.full((k, 3), sign * (p - 1))
        want = exact_contract(a, b, 1, p)
        if k > 2:  # a @ b in int64 wraps
            assert ((a @ b) % p).tolist() != want.tolist()
        assert_reduced(f.matmul(a, b), want, p)
    # no int64 product of the kernel sums more than 2 terms
    assert terms and max(terms) <= 2


@given(st.sampled_from([2, 5, 2**31 - 1]),
       st.sampled_from([(), (0,), (7,), (1023,), (1024,), (40, 99), (2**16 + 5,)]),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_reduce_matches_remainder(p, shape, wide, strided, seed):
    rng = np.random.default_rng(seed)
    # both signs, up to the whole int64 range, whose ends are included
    hi = 2**63 - 1 if wide else p * p
    x = rng.integers(-hi, hi, size=shape, dtype=np.int64, endpoint=True)
    if wide and x.size >= 2:
        x.reshape(-1)[:2] = -2**63, 2**63 - 1
    if strided and x.ndim == 2:
        x = x[:, ::2]
    want = x % p
    got = linalg._reduce(x.copy(), p)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
