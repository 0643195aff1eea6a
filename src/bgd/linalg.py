"""Exact linear algebra over F_p and Q.

Scalars over a prime field are python ints in ``[0, p)`` stored in int64
numpy arrays, into which ``Field.array`` reduces integer input of any dtype
and size exactly.  The other F_p methods take an int64 operand as field
elements and read one of any other dtype through ``Field.array``
(``Field._read``).  Rationals are :class:`fractions.Fraction` in object
arrays.  One Gauss-Jordan elimination (``rref``) serves both fields.  It is
sparse first: rows enter one at a time into a fully reduced basis of sparse
rows ``{column: scalar}``, so a row costs work in its nonzeros only.  The
matrices the batteries reduce come from monomial presentations and are
nearly empty (a 2064 x 129 relation matrix with 1587 nonzeros), where one
whole-row numpy operation per pivot would cost more than the row itself.
Where the basis fills in past ``FILL_IN`` of rank x columns, sparse rows
cost more than dense ones, and the basis and the rows not yet inserted go
to a dense Gauss-Jordan loop on whole numpy rows (``_gauss_jordan``), as in
the sparse-then-dense rank computations of Dumas and Villard (CASC 2002).
The basis is written over the rows already read, so the input is held in
the field once, as the dense loop alone holds it.  Over Q the sparse rows
are read straight off the input, each entry once (``_rational_rows``), and
only the rows that reach the dense loop are converted into the field.  RREF
is unique, so the two paths give the same rows.

Products over F_p (``Field.contract``) run in float64 through BLAS, as in
FFLAS (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008): with entries in
(-p, p), a sum of at most 2^53 / (p - 1)^2 products has every partial sum
an integer of magnitude at most 2^53, which float64 represents exactly
whatever the summation order, so casting the result back to int64 and
reducing once is exact.  For p above about 9.49e7 a single product can
pass 2^53 and the product runs in int64 instead.  A longer sum runs as one
product of the whole operands per chunk of that many terms.  Most
products are small, where a call costs more than its arithmetic: so each
shape of a contraction is planned once (``_plan``), a product of at most
``INT_WORK`` multiply-adds within one chunk skips the float64 casts, and
F_p has one reduction, ``_reduce``: from ``DIVIDE_FLOOR`` entries it takes
x - (x // p) p, faster than numpy's int64 ``%``.

The structure tensors of a monomial presentation are nearly empty, and so
are most products of them: 625 x 625 by 625 x 625 with 125 nonzero pairs
a[i, t] b[t, j].  Over F_p such a product pairs the nonzeros instead
(``_pair_product``): each nonzero a[i, t] meets the nonzeros of row t of b
through numpy ``repeat``/``bincount`` index arithmetic, each pair is
multiplied exactly in int64 (|ab| < 2^62) and reduced where k such
products could pass 2^53, and the pairs are summed per output entry in
float64, exact while k (p - 1) <= 2^53 for k terms.  Only the output
entries some pair reaches are written.  It runs for at least
``PAIR_FLOOR`` multiply-adds when the pairs number at most
1 / ``SPARSE_COST`` of them and its arrays of one word per pair fit the
dense result (``PAIR_WORDS``); every other product runs dense, and both
give the same reduced int64 array.

Over Q, arrays are object arrays of ``Fraction``s from the first ``Field``
call on: ``Field.array`` and ``Field.mod``, through which the structure
maps enter, and the tops of ``contract``, ``sub`` and ``rref`` make them of
any other operand.  Every zero entry that ``linalg`` builds is one shared
``Fraction(0)``.  A product, a difference or a zero test reads each operand
once, on its nonzeros: the shared zero is skipped by identity, with no call
of ``Fraction.__bool__``, and the other entries give integer numerators
over one lcm denominator, int64 while ``terms * max|N_a| * max|N_b|`` fits
and python ints above it.  int64 numerators are multiplied by the F_p
integer kernel (``_int_product``: chunks of terms, or ``_pair_product``)
with no modulus, and python ints by numpy's object product, exact for any
size.  Where F_p reduces mod p, Q divides once by the product of the two
denominators, and only the nonzero entries of a result become
``Fraction``s.  ``Field.equal`` compares two arrays as lists, entry by
entry and by identity first, so shared zeros cost nothing.

The two sides of an identity become its residual in one place,
``Field.residual``.  Over F_p it is their integer difference, unreduced:
its entries lie in (-p, p), which the product that reads it accepts and
reduces.  Over Q it is ``Field.sub``, whose zeros are the shared one, and
which returns the zero array at once when the two sides are equal, as
they are wherever the identity holds.
"""

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, repeat
from operator import is_, is_not

import numpy as np

# both fields reduce rows in python dicts and numpy arrays, with no
# compiled kernel of their own
BACKEND = "numpy"

__all__ = [
    "Field",
    "FieldError",
    "SingularMatrixError",
    "DescentError",
    "Subspace",
    "Quotient",
    "BACKEND",
    "rref",
    "rank",
    "kernel_basis",
    "solve_affine",
    "solve_matrix_equation",
    "is_invertible",
    "invert",
]


class FieldError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


class DescentError(ValueError):
    """An ambient matrix does not map relations into relations."""


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# Largest prime accepted: every product of two reduced scalars must fit
# in an int64, and trial division stays below 46341 steps.
MAX_PRIME = 2**31
# float64 holds every integer of magnitude up to 2^53 exactly
FLOAT_EXACT = 2**53
# entries of the row blocks that rref reads off its input at a time
SLAB = 2**16
# rref hands over to the dense loop once its sparse basis holds more than
# FILL_IN of rank x columns nonzero entries, and more than DENSE_STEP.
# Dense inputs need the handoff: random dense matrices of up to 256 x 512
# over F_5, F_(2^31-1) and Q reduce about 5 times faster with it.  Small
# bases need the floor: the small matrices of the perfbench workloads are
# dense for their size, and with no floor their rref inputs take 1.5 times
# as long.  Both timings are flat, within their noise, for DENSE_STEP from
# 64 to 512 and FILL_IN from 0.05 to 0.4.
FILL_IN = 0.1
DENSE_STEP = 128
# rref reads a matrix of at most ROW_PASS entries in one python pass over
# its rows, which costs less than the numpy calls of one block below about
# 256 entries (5 against 9 to 14 us on a 9 x 3 matrix)
ROW_PASS = 128
# Field.contract over F_p pairs nonzeros (_pair_product) for a product of
# at least PAIR_FLOOR multiply-adds whose nonzero pairs number at most
# 1 / SPARSE_COST of them, and whose index arrays, PAIR_WORDS words per
# pair and per operand nonzero, fit the m x n words of the dense result.
# For k > SPARSE_COST / PAIR_WORDS the buffer rule is the tighter: the
# pairs must number fewer than one per PAIR_WORDS output entries.
# On the F_p products of one pass of the quotients, elements and cli-small
# workloads (best of 3 per product), each total is flat within its noise
# for SPARSE_COST from 8 to 4096, and for PAIR_FLOOR from 2^19 to 2^20;
# from 2^21 quotients and elements take 1.7 to 2.2 times as long, and
# below 2^19 cli-small takes up to 1.7 times as long.  Dense random products
# stop at the count_nonzero test: over F_5, 256 x 512 by 512 x 256 and
# 625^3 take 1 to 6% longer than the dense path alone (medians of 41 to 61
# interleaved runs, whose own spread is about 5%).
PAIR_FLOOR = 2**20
SPARSE_COST = 32
PAIR_WORDS = 6
# numpy's int64 product has no BLAS: reduced over F_5 it beats the float64
# round trip below 4096 multiply-adds (4^3: 1.9 against 2.9 us), is even at
# 4096 (16^3: 5.0 against 4.3) and loses above (32x16x32: 14 against 8.6);
# a cli-small or elements pass is flat for INT_WORK from 1024 to 8192
INT_WORK = 4096
# % against _reduce, int64 entries of both signs: 0.81 against 0.85 us at 64
# entries, 3.9 against 3.7 at 1024, 490 against 82 at 65536; of 0, 256,
# 1024, 4096 and never, a cli-small or quotients pass is fastest at 1024
DIVIDE_FLOOR = 1024
# entries _reduce and _chunk_product's in-place cast take at a time: their
# temporaries stay at 128 KiB (2^16 raised the elements peak by 1.1 MB)
BLOCK = 2**14
# the one Fraction(0) that the Q arrays built here hold at every zero entry
_ZERO = Fraction(0)


class Field:
    """A prime field F_p (p < 2^31) or the rationals Q."""

    __slots__ = ("kind", "p", "dtype", "chunk")

    def __init__(self, kind, p=None):
        if kind == "prime":
            if p is not None and p >= MAX_PRIME:
                raise FieldError(f"prime too large: {p} (must be below 2^31)")
            if p is None or not _is_prime(p):
                raise FieldError(f"not a prime: {p!r}")
        elif kind != "rationals":
            raise FieldError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p
        self.dtype = self.chunk = None
        if p is not None:
            # products of two reduced scalars run in float64 while one fits
            # in its 53-bit significand; chunk is how many of them a partial
            # sum may take
            self.dtype, self.chunk = _summation((p - 1) ** 2)

    @classmethod
    def prime(cls, p):
        return cls("prime", p)

    @classmethod
    def rationals(cls):
        return cls("rationals")

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"F_{self.p}" if self.kind == "prime" else "Q"

    # -- scalars ---------------------------------------------------------

    @property
    def zero(self):
        return 0 if self.kind == "prime" else _ZERO

    @property
    def one(self):
        return 1 if self.kind == "prime" else Fraction(1)

    def canon(self, x):
        if self.kind == "prime":
            return int(x) % self.p
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "prime" else a + b

    def sub(self, a, b):
        """a - b in the field, for scalars or arrays (broadcast as numpy
        does).  Over Q an array difference is taken on integer numerators
        over one common denominator, and only its nonzero entries become
        ``Fraction``s (see ``_numerators``); two equal arrays give the zero
        array with no numerators read."""
        if self.kind == "prime":
            return _reduce(self.residual(a, b), self.p)
        if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
            return a - b
        a, b = self._read(a), self._read(b)
        if self.equal(a, b):
            return self.zeros(a.shape)
        num_a, num_b, den = _common(a, b)
        return _fractions(num_a - num_b, den)

    def residual(self, lhs, rhs):
        """lhs - rhs of an identity, as the next product reads it: over
        F_p the integer difference, unreduced, whose entries lie in (-p, p)
        for lhs and rhs in [0, p), as ``contract`` and ``Quotient.project``
        accept them; over Q ``sub``, on integer numerators, with the
        shared zero at every zero entry.  F_p adds no reduction here, as a
        residual is reduced by the product that reads it."""
        if self.kind == "prime":
            return np.subtract(self._read(lhs), self._read(rhs))
        return self.sub(lhs, rhs)

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "prime" else a * b

    def neg(self, a):
        return -self._read(a) % self.p if self.kind == "prime" else -a

    def inv(self, a):
        if self.kind == "prime":
            a = a % self.p
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def parse(self, s):
        """Parse a scalar from its string form ("2", "-1/3", "1.5", ...).
        Over F_p a non-integer n/m is n * m^-1, and ZeroDivisionError is
        raised when p divides m."""
        try:
            x = int(s)
        except ValueError:
            x = Fraction(s)
        if self.kind == "rationals":
            return Fraction(x) if x else _ZERO
        if isinstance(x, int):
            return x % self.p
        return self.canon(x.numerator * self.inv(x.denominator))

    def format(self, x):
        return str(x)

    # -- arrays ----------------------------------------------------------

    def array(self, data):
        """data as an array of the field, exactly: over F_p int64 in [0, p)
        (FieldError for an entry that is no integer), over Q ``Fraction``s."""
        if self.kind == "prime":
            a = np.asarray(data)
            if a.dtype.kind in "biu" and a.dtype != np.uint64:
                # _reduce works in place from DIVIDE_FLOOR entries: on a copy
                return _reduce(a.astype(np.int64, copy=a.size >= DIVIDE_FLOOR), self.p)
            flat = a.ravel().tolist()  # python ints of any size, floats, ...
            try:
                ints = [int(x) for x in flat]
            except (OverflowError, ValueError):  # int of an infinity or a nan
                raise FieldError("an entry is not a finite number") from None
            if ints != flat:
                raise FieldError("an entry is not an integer")
            return np.array([x % self.p for x in ints], dtype=np.int64).reshape(a.shape)
        # Fractions are kept as they are and zeros share one Fraction(0), so
        # only nonzero non-Fraction entries build a Fraction of their own
        a = np.array(data, dtype=object)
        out = np.empty(a.shape, dtype=object)
        try:
            out.reshape(-1)[:] = [x if type(x) is Fraction else Fraction(x) if x != 0 else _ZERO
                                  for x in a.reshape(-1).tolist()]
        except (OverflowError, ValueError):  # Fraction of an infinity or a nan
            raise FieldError("an entry is not a finite number") from None
        return out

    def zeros(self, shape):
        if self.kind == "prime":
            return np.zeros(shape, dtype=np.int64)
        return np.full(shape, _ZERO, dtype=object)

    def eye(self, n):
        m = self.zeros((n, n))
        for i in range(n):
            m[i, i] = self.one
        return m

    def mod(self, a):
        """a in the field: ``array``, but over Q an object array as it is."""
        return self.array(a) if self.p else self._read(a)

    def _read(self, a):
        """An operand as the kernels take it: an array of the field's dtype
        (int64 over F_p, object over Q) as it is, any other through ``array``."""
        a = np.asarray(a)
        return a if a.dtype == (np.int64 if self.p else object) else self.array(a)

    def contract(self, a, b, axes=1):
        """``np.tensordot(a, b, axes)`` reduced into the field.  Over F_p the
        int64 entries of a and b must lie in (-p, p), and other operands are
        read through ``array`` (``_read``); the result is ``int64`` in
        [0, p).  The operands are transposed and reshaped to one matrix
        product as ``_plan`` says, which ``_int_product`` runs in int64
        (at most ``INT_WORK`` multiply-adds), in float64 through BLAS
        while ``terms * (p - 1)^2 <= 2^53`` (the FFLAS bound, above), in
        chunks of terms past it, or by nonzero pairs (``_pair_product``).
        Over Q the operands are read as ``Fraction``s (``_read``) and give an
        object array of them, whose integer numerators run through the same
        products (see ``_rational_product``)."""
        a, b = self._read(a), self._read(b)
        product = self._product if self.p else _rational_product
        if axes == 1 and 1 <= a.ndim <= 2 and 1 <= b.ndim <= 2:
            # a matrix or vector product, which needs no reshaping
            return product(a, b)
        if not isinstance(axes, int):
            axes = tuple(x if isinstance(x, int) else tuple(x) for x in axes)
        order_a, order_b, (m, k, n), shape = _plan(a.shape, b.shape, axes)
        a, b = a.transpose(order_a).reshape(m, k), b.transpose(order_b).reshape(k, n)
        return product(a, b).reshape(shape)

    def _product(self, a, b):
        """``a @ b`` mod p for a vector or matrix a and b (``_int_product``)."""
        return _int_product(a, b, self.p, self.dtype, self.chunk)

    def matmul(self, a, b):
        return self.contract(a, b, 1)

    def equal(self, a, b):
        """Whether a and b have one shape and equal entries in the field.
        Over Q the operands are compared as lists, which compare entries by
        identity first: two shared zeros cost no call of
        ``Fraction.__eq__``."""
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            return False
        if self.kind == "prime":
            return self.is_zero(self.residual(a, b))
        return a.ravel().tolist() == b.ravel().tolist()

    def is_zero(self, a):
        """Whether every entry of a is zero in the field.  Over F_p, p
        divides x exactly when fmod(x, p) is 0, whatever the sign of x, so
        no entry is reduced into [0, p).  Over Q only the entries that are
        not the shared zero are tested (see ``_numerators``)."""
        if self.kind == "prime":
            return not np.fmod(self._read(a), self.p).any()
        flat = np.asarray(a).ravel().tolist()
        return not any(compress(flat, map(is_not, flat, repeat(_ZERO))))

    def key(self, a):
        """A hashable key of the array a, equal for arrays of one dtype and
        shape with equal entries: over F_p its bytes, over Q its nonzero
        integer numerators over their common denominator (``_numerators``),
        so that no ``Fraction`` is hashed."""
        a = np.asarray(a)
        if self.kind == "prime":
            return a.dtype.str, a.shape, a.tobytes()
        at, nums, den = _numerators(a)
        return a.dtype.str, a.shape, tuple((i, n) for i, n in zip(at, nums) if n), den


@lru_cache(maxsize=4096)
def _plan(shape_a, shape_b, axes):
    """(order_a, order_b, (m, k, n), out_shape): a transposed to order_a
    (its free axes, then the contracted ones) reshapes to m x k, b to
    order_b to k x n, and their product to out_shape, as ``np.tensordot``
    over ``axes`` (hashable) contracts."""
    na, nb = len(shape_a), len(shape_b)
    if isinstance(axes, int):
        ax_a, ax_b = list(range(na - axes, na)), list(range(axes))
    else:
        ax_a, ax_b = (
            [x % n] if isinstance(x, int) else [i % n for i in x]
            for x, n in zip(axes, (na, nb))
        )
    free_a = [i for i in range(na) if i not in ax_a]
    free_b = [i for i in range(nb) if i not in ax_b]
    dims_a, dims_b = [shape_a[i] for i in free_a], [shape_b[i] for i in free_b]
    mkn = math.prod(dims_a), math.prod(shape_a[i] for i in ax_a), math.prod(dims_b)
    return free_a + ax_a, ax_b + free_b, mkn, tuple(dims_a + dims_b)


def _summation(top):
    """(dtype, chunk) for summing products of integers of magnitude at most
    ``top``: float64 holds every integer up to 2^53, so it sums 2^53 // top
    of them at a time; past top = 2^53 the products run in int64, (2^63 - 1)
    // top at a time."""
    top = max(1, top)
    if top <= FLOAT_EXACT:
        return np.float64, FLOAT_EXACT // top
    return np.int64, (2**63 - 1) // top


def _int_product(a, b, p, dtype, chunk, top=None):
    """``a @ b`` for integer arrays, a vector or matrix a (m x k) and b
    (k x n): reduced into [0, p) for a prime p, whose entries lie in
    (-p, p), or the exact product for p None, which Q's numerators take
    (see ``_rational_product``); int64 either way.  A product of at least
    ``PAIR_FLOOR`` multiply-adds may pair its nonzeros (``_pair_product``).
    Otherwise the k terms are summed in chunks of at most ``chunk``, which
    ``dtype`` sums exactly (``_summation``), each chunk one product of the
    whole operands, cast to int64.  Over F_p each chunk is reduced below
    p < 2^31, so the int64 sum of fewer than 2^32 chunks holds them, and is
    reduced once; without p the caller keeps k * top <= 2^63 - 1, so the
    int64 sum holds every partial sum, for ``top`` a bound on
    |a[i, t] b[t, j]| ((p - 1)^2 by default).  A single chunk of at most
    ``INT_WORK`` multiply-adds runs in int64, which sums ``chunk`` terms
    exactly whatever ``dtype`` is, so it skips the float64 casts."""
    work, k = a.size * math.prod(b.shape[1:]), a.shape[-1]
    if work >= PAIR_FLOOR:
        out = _pair_product(p, a if a.ndim == 2 else a[None], b if b.ndim == 2 else b[:, None], top)
        if out is not None:
            return out.reshape(a.shape[:-1] + b.shape[1:])
    if k <= chunk:
        return _chunk_product(a, b, p, np.int64 if work <= INT_WORK else dtype)
    out = _chunk_product(a[..., :chunk], b[:chunk], p, dtype)
    for lo in range(chunk, k, chunk):
        out += _chunk_product(a[..., lo:lo + chunk], b[lo:lo + chunk], p, dtype)
    return _reduce(out, p) if p else out


def _chunk_product(a, b, p, dtype):
    """``a @ b`` in ``dtype``, cast to int64 and reduced into [0, p) for a
    prime p: exact when ``dtype`` sums the terms exactly.  A float64 result
    past ``BLOCK`` entries is cast in place by blocks, so one copy is held."""
    out = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    if dtype is np.float64 and out.size > BLOCK:
        flat = out.reshape(-1)
        for lo in range(0, flat.size, BLOCK):
            flat.view(np.int64)[lo:lo + BLOCK] = flat[lo:lo + BLOCK]
        out = out.view(np.int64)
    else:
        out = out.astype(np.int64, copy=False)
    return _reduce(out, p) if p else out


def _reduce(x, p):
    """x mod p for an int64 scalar or array x: from ``DIVIDE_FLOOR``
    entries as x - (x // p) p, by blocks of ``BLOCK`` and in place for a
    C-contiguous x, as numpy divides int64 by a scalar through libdivide."""
    if x.size < DIVIDE_FLOOR:
        return x % p
    flat = x.reshape(-1)
    for lo in range(0, flat.size, BLOCK):
        part = flat[lo:lo + BLOCK]
        part -= part // p * p
    return flat.reshape(x.shape)


def _pair_product(p, a, b, top=None):
    """``a @ b`` for integer matrices a (m x k) and b (k x n) with
    |a[i, t] b[t, j]| <= top, reduced into [0, p) for a prime p (where top
    defaults to (p - 1)^2, for entries in (-p, p)) or exact for p None,
    by pairing every nonzero a[i, t] with the nonzeros of row t of b; None
    when the dense product is the cheaper one (see ``PAIR_FLOOR``, which
    the caller tests) or when the sums could pass 2^53.  Each pair is
    multiplied exactly in int64, and the pairs are summed per output entry
    in float64.  An entry takes at most k terms, so its partial sums are
    integers of magnitude at most 2^53, which float64 holds exactly, while
    k top <= 2^53, or over F_p once the products are reduced below p and
    k (p - 1) <= 2^53."""
    (m, k), n = a.shape, b.shape[1]
    work = m * k * n
    top = (p - 1) ** 2 if top is None else top
    reduce = k * top > FLOAT_EXACT
    if reduce and (p is None or k * (p - 1) > FLOAT_EXACT):
        return None
    na, nb = np.count_nonzero(a), np.count_nonzero(b)
    # (m - nnz a[:, t]) (n - nnz b[t, :]) >= 0 for every t, so there are at
    # least n na + m nb - m k n pairs: dense operands stop here
    if (n * na + m * nb - work) * SPARSE_COST > work or PAIR_WORDS * (na + nb) > m * n:
        return None
    ia, ta = divmod(np.flatnonzero(a != 0), k)  # of a bool array: fast
    tb, jb = divmod(np.flatnonzero(b != 0), n)
    per_row = np.bincount(tb, minlength=k)
    reps = per_row[ta]
    pairs = int(reps.sum())
    if pairs * SPARSE_COST > work or PAIR_WORDS * pairs > m * n:
        return None
    # b's nonzeros come row by row, so pair q of a[ia[e], ta[e]] takes b's
    # nonzero number start[ta[e]] + q - first[e]
    start = np.cumsum(per_row) - per_row
    first = np.cumsum(reps) - reps
    at = np.repeat(start[ta] - first, reps)
    seq = np.arange(pairs)
    at += seq
    vals = np.repeat(a[ia, ta].astype(np.int64), reps)
    vals *= b[tb, jb].astype(np.int64)[at]
    if reduce:
        vals = _reduce(vals, p)
    keys = np.repeat(ia * n, reps)
    keys += jb[at]
    del at
    # one of the pairs that land in an output entry stands for it; np.zeros
    # commits only the pages written, so a nearly empty result stays small
    out = np.zeros(m * n, dtype=np.int64)
    out[keys] = seq
    rep = out[keys]
    lead = np.flatnonzero(rep == seq)
    del seq
    sums = np.bincount(rep, weights=vals)[lead].astype(np.int64)
    out[keys[lead]] = _reduce(sums, p) if p else sums
    return out.reshape(m, n)


def _numerators(a):
    """(at, nums, den) for an array a over Q: the flat indices ``at`` of
    the entries that may be nonzero, their integer numerators ``nums``
    over ``den``, the lcm of their denominators (python ints; den is 1
    with no entry).  An object array is read once, on its nonzeros: an
    entry that is the shared ``Fraction(0)`` is skipped by identity, which
    costs no call of ``Fraction.__bool__``, and every other entry is read,
    a zero built elsewhere as well, whose numerator is 0.  An array of
    shared zeros only, as the residual of an identity that holds is, takes
    one identity pass that builds no index.  An integer array is its own
    numerators; a float or other number is read exactly as a Fraction."""
    if a.dtype != object:
        at = np.flatnonzero(a)
        return at, a.reshape(-1)[at].tolist(), 1
    flat = a.ravel().tolist()
    if all(map(is_, flat, repeat(_ZERO))):
        return [], [], 1
    at = list(compress(range(len(flat)), map(is_not, flat, repeat(_ZERO))))
    vals = [flat[i] for i in at]
    try:
        den = math.lcm(*{x.denominator for x in vals})
    except AttributeError:  # a float or another number: read exactly
        return _numerators(Field.rationals().array(a))
    if den == 1:
        return at, [x.numerator for x in vals], 1
    return at, [x.numerator * (den // x.denominator) for x in vals], den


def _dense(at, nums, shape, dtype):
    """The integer array of ``shape`` holding ``nums`` at the flat indices
    ``at`` and 0 elsewhere, in ``dtype`` (int64, or object for python ints
    of any size)."""
    out = np.zeros(math.prod(shape), dtype=dtype)
    out[at] = nums
    return out.reshape(shape)


def _fractions(num, den):
    """The object array num / den for an integer array num (int64 or
    python ints), with a ``Fraction`` built for each nonzero entry only
    and the shared ``Fraction(0)`` at every other."""
    flat = num.reshape(-1)
    out = np.empty(flat.size, dtype=object)
    out.fill(_ZERO)
    at = flat.nonzero()[0]
    vals = flat[at].tolist()
    out[at] = [Fraction(x) for x in vals] if den == 1 else [Fraction(x, den) for x in vals]
    return out.reshape(num.shape)


def _common(a, b):
    """(N_a, N_b, den): the numerators of the object arrays a and b
    (broadcast to one shape) over one denominator, as int64 arrays while
    the sum of their largest magnitudes fits, and as python ints otherwise."""
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    (at_a, num_a, den_a), (at_b, num_b, den_b) = _numerators(a), _numerators(b)
    den = math.lcm(den_a, den_b)
    if den != den_a:
        num_a = [x * (den // den_a) for x in num_a]
    if den != den_b:
        num_b = [x * (den // den_b) for x in num_b]
    top = max(map(abs, num_a), default=0) + max(map(abs, num_b), default=0)
    dtype = np.int64 if top <= 2**63 - 1 else object
    return _dense(at_a, num_a, a.shape, dtype), _dense(at_b, num_b, b.shape, dtype), den


def _rational_product(a, b):
    """``a @ b`` over Q for object arrays, a vector or matrix a (m x k) and
    b (k x n): an object array of ``Fraction``s (a ``Fraction`` for two
    vectors).  Each operand is read once, on its nonzeros, as integer
    numerators over the lcm of its denominators (``_numerators``).  While
    k max|N_a| max|N_b| <= 2^63 - 1 the numerators are int64 and run through
    the F_p products (``_int_product``, with no modulus), and otherwise they
    are python ints; the result is divided once by the product of the two
    denominators, and only its nonzero entries become ``Fraction``s."""
    shape = a.shape[:-1] + b.shape[1:]
    (at_a, num_a, den_a), (at_b, num_b, den_b) = _numerators(a), _numerators(b)
    top = max(map(abs, num_a), default=0) * max(map(abs, num_b), default=0)
    if not top:  # an all-zero operand, whose partner may not fit int64
        out = np.full(shape, _ZERO, dtype=object)
        return out if shape else out[()]
    dtype = np.int64 if a.shape[-1] * top <= 2**63 - 1 else object
    num_a, num_b = _dense(at_a, num_a, a.shape, dtype), _dense(at_b, num_b, b.shape, dtype)
    if dtype is object:
        out = num_a @ num_b
    else:
        out = _int_product(num_a, num_b, None, *_summation(top), top)
    out = _fractions(np.asarray(out), den_a * den_b)
    return out if shape else out[()]


def rref(field, m):
    """Reduced row echelon form by Gauss-Jordan elimination.  Returns
    (nonzero rows, pivot columns), ``int64`` rows over F_p and rows of
    ``Fraction``s over Q.

    The rows of m enter one at a time into a basis that is kept in RREF,
    stored as sparse rows keyed by their pivots.  An incoming row is
    reduced in one pass against the pivots in its support; a new pivot is
    normalized and cleared from the basis rows that hold its column.  The
    loop stops once the rank reaches the number of columns, and hands the
    basis and the rows left to ``_gauss_jordan`` once the basis holds more
    than ``FILL_IN`` of rank x columns nonzero entries and more than
    ``DENSE_STEP``."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    nrows, ncols = m.shape
    p = field.p
    w = field.mod(m)  # over Q m itself where it is an object array
    basis = {}  # pivot column -> row, zero at every other pivot column
    seen = set()  # columns that some basis row has held
    fill = 0  # nonzero entries of the basis
    for i, v in _sparse_rows(w) if p else _rational_rows(w):
        v = _reduced(v, basis, p)
        if not v:
            continue
        c = min(v)
        if v[c] != 1:
            a = field.inv(v[c])
            v = {j: x * a % p for j, x in v.items()} if p else {j: x * a for j, x in v.items()}
        if c in seen:
            for row in basis.values():
                if c in row:
                    fill -= len(row)
                    _subtract(row, row[c], v, p)
                    fill += len(row)
        seen.update(v)
        basis[c] = v
        fill += len(v)
        if len(basis) == ncols:
            break
        if fill > max(FILL_IN * len(basis) * ncols, DENSE_STEP) and i + 1 < nrows:
            # the rows already read hold at least as many as the basis:
            # the basis goes over the last of them, in place over F_p; over
            # Q only these rows and the rest are converted
            lo = i + 1 - len(basis)
            w = w[lo:] if p else field.array(w[lo:])
            w[:len(basis)] = field.zero
            _place(basis, w[:len(basis)])
            return _gauss_jordan(field, w)
    out = field.zeros((len(basis), ncols))
    _place(basis, out)
    return out, sorted(basis)


def _sparse_rows(w):
    """(row index, {column: scalar}) for every nonzero row of w.  Rows are
    read in blocks of ``SLAB`` entries, so a dense w that goes to the dense
    loop after a few rows is not turned into python scalars whole, and a
    long sparse one takes few blocks.  A w of at most ``ROW_PASS`` entries
    is read by one python pass over its rows instead, which costs less than
    the numpy calls of one block."""
    if w.size <= ROW_PASS:
        for i, row in enumerate(w.tolist()):
            if v := {j: x for j, x in enumerate(row) if x}:
                yield i, v
        return
    width = max(1, w.shape[1])
    step = max(1, SLAB // width)
    for lo in range(0, len(w), step):
        flat = w[lo:lo + step].reshape(-1)
        at = flat.nonzero()[0]
        rows, cols = divmod(at, width)
        cuts = (np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist()
        rows, cols, vals = rows.tolist(), cols.tolist(), flat[at].tolist()
        for a, b in zip([0] + cuts, cuts + [len(cols)] if cols else []):
            yield lo + rows[a], dict(zip(cols[a:b], vals[a:b]))


def _rational_rows(m):
    """(row index, {column: Fraction}) for every nonzero row of an object
    matrix m over Q, reading each entry once: an entry that is the shared
    ``Fraction(0)`` is skipped by identity, and a ``Fraction`` is built only
    for a nonzero entry that is not one already, as ``Field.array`` builds
    it."""
    width = max(1, m.shape[1])
    flat = m.ravel().tolist()
    row, v = 0, {}
    for at in compress(range(len(flat)), map(is_not, flat, repeat(_ZERO))):
        x = flat[at]
        if type(x) is not Fraction:
            if x == 0:
                continue
            x = Fraction(x)
        elif not x:
            continue
        i, j = divmod(at, width)
        if i != row:
            if v:
                yield row, v
            row, v = i, {}
        v[j] = x
    if v:
        yield row, v


def _reduced(v, basis, p):
    """The sparse row v minus its components along the basis rows whose
    pivots it holds, with its zeros dropped.  The basis is in RREF, so
    subtracting one basis row puts nothing at another pivot, and one pass
    leaves v zero at every pivot."""
    hit = [c for c in v if c in basis]
    if not hit:
        return v
    for c in hit:
        a = v[c]
        for j, x in basis[c].items():
            v[j] = v.get(j, 0) - a * x
    if p:
        return {j: y for j, x in v.items() if (y := x % p)}
    return {j: x for j, x in v.items() if x}


def _subtract(row, a, v, p):
    """row -= a v in place for sparse rows, dropping the zeros."""
    for j, x in v.items():
        y = row.get(j, 0) - a * x
        if p:
            y %= p
        if y:
            row[j] = y
        else:
            del row[j]


def _place(basis, out):
    """Write the sparse basis into the zero array out, its rows in pivot
    order."""
    pivots = sorted(basis)
    if pivots:
        out[[r for r, c in enumerate(pivots) for _ in basis[c]],
            [j for c in pivots for j in basis[c]]] = [
            x for c in pivots for x in basis[c].values()]


def _gauss_jordan(field, w):
    """``rref`` of w, whose entries are already reduced into the field, by
    Gauss-Jordan elimination on whole numpy rows; w is overwritten."""
    mod, one = field.mod, field.one
    nrows, ncols = w.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(w[r:, c])[0]
        if not nz.size:
            continue
        piv = r + int(nz[0])
        if piv != r:
            w[[r, piv]] = w[[piv, r]]
        # rows r.. vanish left of column c, so only columns c.. change
        row = w[r, c:]
        if row[0] != one:
            row = w[r, c:] = mod(row * field.inv(field.canon(row[0])))
        col = w[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            w[hit, c:] = mod(w[hit, c:] - np.outer(col[hit], row))
        pivots.append(c)
        r += 1
    return w[:r].copy(), pivots


def rank(field, m):
    return len(rref(field, m)[1])


def kernel_basis(field, m):
    """Basis of the right null space {v : m v = 0}, as a list of vectors."""
    m = np.asarray(m)
    return _null_basis(field, *rref(field, m), m.shape[1])


def _null_basis(field, r, pivots, ncols):
    """Null-space basis read off an rref whose first ``ncols`` columns are
    the matrix: one vector per free column."""
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    k = field.zeros((ncols, len(free)))
    k[free, range(len(free))] = field.one
    k[pivots, :] = field.neg(r[:, free])
    return [k[:, i].copy() for i in range(len(free))]


def solve_affine(field, m, b):
    """Solve m x = b, or m X = B column by column for a matrix B, with one
    rref.  Returns (particular, homogeneous basis), or None when some
    column has no solution."""
    m = np.asarray(m)
    b = np.asarray(b)
    rhs = b.reshape(-1, 1) if b.ndim == 1 else b
    ncols = m.shape[1]
    r, pivots = rref(field, np.concatenate([m, rhs], axis=1))
    if pivots and pivots[-1] >= ncols:
        return None
    x = field.zeros((ncols, rhs.shape[1]))
    x[pivots] = r[:, ncols:]
    return (x[:, 0] if b.ndim == 1 else x), _null_basis(field, r, pivots, ncols)


def solve_matrix_equation(field, shape, equations):
    """Solve sum_k P_k X Q_k = T for X of the given shape, one equation per
    ``(terms, T)`` with ``terms = [(P_k, Q_k), ...]``.  X is flattened row
    by row, so each equation is the block sum_k kron(P_k, Q_k^T), one
    contraction over the stacked term axis k.  Returns (particular,
    homogeneous basis) as matrices of ``shape``, or None."""
    rows = [_kron_sum(field, terms) for terms, _ in equations]
    rhs = [np.asarray(t).reshape(-1) for _, t in equations]
    sol = solve_affine(field, np.concatenate(rows), np.concatenate(rhs))
    if sol is None:
        return None
    return sol[0].reshape(shape), [h.reshape(shape) for h in sol[1]]


def _kron_sum(field, terms):
    """sum_k kron(P_k, Q_k^T) for same-shape terms: entry [(i, j), (k, l)]
    is sum_t P_t[i, k] Q_t[l, j]."""
    ps, qs = (np.stack(leg) for leg in zip(*terms))
    (_, m, n), (_, r, c) = ps.shape, qs.shape
    return field.contract(ps, qs, (0, 0)).transpose(0, 3, 1, 2).reshape(m * c, n * r)


def invert(field, m):
    m = np.asarray(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise SingularMatrixError("not square")
    aug = np.concatenate([m, field.eye(n)], axis=1)
    r, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return r[:, n:]


def is_invertible(field, m):
    """Whether m is square of full rank."""
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and rank(field, m) == m.shape[0]


class Subspace:
    """Row space of a generator list, kept in reduced row echelon form."""

    def __init__(self, field, ncols, gens=()):
        self.field = field
        self.ncols = ncols
        gens = [np.asarray(g) for g in gens]
        if gens:
            self.rows, self.pivots = rref(field, np.stack(gens))
        else:
            self.rows = field.zeros((0, ncols))
            self.pivots = []

    @property
    def dim(self):
        return len(self.pivots)

    def reduce(self, v):
        """Canonical residual of v modulo the subspace (zeros at pivots); a
        matrix v has all its columns reduced at once."""
        v = np.asarray(v)
        if not self.pivots:
            return self.field.mod(v.copy())
        # rows.T @ v[pivots], written so that a vector (where .T is a
        # no-op) takes the cheaper vector-times-matrix product
        return self.field.sub(v, self.field.contract(v[self.pivots].T, self.rows).T)

    def contains(self, v):
        """Whether v (every column of a matrix v) lies in the subspace."""
        return self.field.is_zero(self.reduce(v))


class Quotient:
    """Quotient of a free module k^N by a relation span R, with explicit
    projection/section in the standard basis.

    The quotient basis is indexed by ``coords``, the non-pivot columns of
    the relation rref: e_j is one of them exactly when e_j is not in
    R + span{e_k : k > j}.  ``project_mat`` writes every e_m modulo R in
    that basis and ``section_mat`` puts coordinates back at ``coords``, so
    project(section(q)) = q and ker(project) = R.

    ``Quotient(field, ambient_dim, relation_gens)`` row-reduces the
    relation generators; ``Quotient.from_kernel`` reads the same quotient,
    with the same ``coords`` and ``project_mat``, off a matrix whose kernel
    is R.
    """

    def __init__(self, field, ambient_dim, relation_gens=()):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rel = Subspace(field, ambient_dim, relation_gens)
        pivot_set = set(self.rel.pivots)
        self.coords = [j for j in range(ambient_dim) if j not in pivot_set]
        self.dim = len(self.coords)

    @classmethod
    def from_kernel(cls, field, emb):
        """The quotient of k^N (N the columns of emb) by R = ker emb, from
        one rref of emb with its columns reversed.  Column j is a pivot of
        the relation rref iff e_j is in R + span{e_k : k > j}, iff emb e_j
        is in span{emb e_k : k > j}: so ``coords`` are the pivots of
        rref(emb[:, ::-1]) read back.  The row of that rref
        with its pivot at c writes every emb e_m in the basis emb e_c, and
        emb is injective on the quotient, so it is row c of
        ``project_mat``.  The rref has rank dim, where the relation rref
        has rank N - dim."""
        emb = np.asarray(emb)
        n = emb.shape[1]
        q = cls(field, n)  # k^N itself, until its relations are read off emb
        rows, pivots = rref(field, emb[:, ::-1])
        q.coords = [n - 1 - j for j in reversed(pivots)]
        q.dim = len(q.coords)
        q.project_mat = np.ascontiguousarray(rows[::-1, ::-1])
        del q.rel  # read back off project_mat on demand
        return q

    @cached_property
    def rel(self):
        """The relation span R in reduced row echelon form.  Its pivots are
        the columns outside ``coords``, and the row with pivot p is e_p
        minus the class of e_p in the quotient basis; RREF is unique, so a
        quotient built ``from_kernel`` gets the same rows on demand."""
        f, n = self.field, self.ambient_dim
        keep = set(self.coords)
        pivots = [j for j in range(n) if j not in keep]
        rows = f.zeros((len(pivots), n))
        rows[range(len(pivots)), pivots] = f.one
        rows[:, self.coords] = f.neg(self.project_mat[:, pivots].T)
        rel = Subspace(f, n)
        rel.rows, rel.pivots = rows, pivots
        return rel

    def project(self, v):
        """Quotient coordinates of v, or of every column of a matrix v (its
        entries in (-p, p) over F_p, as for ``Field.contract``)."""
        return self.field.matmul(self.project_mat, v)

    def section(self, q):
        v = self.field.zeros(self.ambient_dim)
        v[self.coords] = q
        return v

    @cached_property
    def project_mat(self):
        f, rel = self.field, self.rel
        p = f.zeros((self.dim, self.ambient_dim))
        p[range(self.dim), self.coords] = f.one
        p[:, rel.pivots] = f.neg(rel.rows[:, self.coords].T)
        return p

    @cached_property
    def section_mat(self):
        s = self.field.zeros((self.ambient_dim, self.dim))
        s[self.coords, range(self.dim)] = self.field.one
        return s

    def _pushed(self, op, dom):
        """(P op, whether op descends) for the ambient matrix op (or stack)
        from ``dom`` to this quotient's ambient space, P this quotient's
        ``project_mat``; P op is [coordinate, stack axes..., dom ambient].
        R_dom is the image of 1 - S P_dom, for S and P_dom the section and
        projection of dom, so op descends iff P op = (P op S) P_dom, and
        P op S is the columns ``dom.coords`` of P op."""
        f = self.field
        pop = f.contract(self.project_mat, op, (1, -2))
        back = f.contract(pop[..., dom.coords], dom.project_mat, (-1, 0))
        return pop, f.equal(pop, back)

    def descends(self, op, dom=None):
        """True if the ambient matrix op (every matrix of a stack op) maps
        the relation span of ``dom`` (default: this quotient) into the
        relation span of this one."""
        return self._pushed(op, self if dom is None else dom)[1]

    def induced_op(self, op, dom=None):
        """Matrix of the map dom -> self that the ambient matrix op induces
        (dom defaults to this quotient), or the stack of them for a stack
        op; DescentError if op does not descend."""
        dom = self if dom is None else dom
        pop, ok = self._pushed(op, dom)
        if not ok:
            raise DescentError("operator does not descend to the quotient")
        return np.moveaxis(pop[..., dom.coords], 0, -2)
