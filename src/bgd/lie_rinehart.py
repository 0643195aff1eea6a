"""Restricted Lie-Rinehart algebras over F_p, their restricted enveloping
bialgebroids and jet algebroids.

A restricted Lie-Rinehart algebra here is a free A-module L = A^n with a
bracket given by structure constants f_{ij}^k in A, an anchor sending each
generator to a derivation of A, and a p-operation on the generators.
The restricted enveloping algebra has k-basis {a_r e^alpha} with
alpha in [0, p-1]^n (PBW; Rinehart, Trans. AMS 108, 1963).  Straightening

    e_i (a Y)        = a (e_i Y) + anchor_i(a) Y
    e_i e_j Y (j<i)  = e_j (e_i Y) + [e_i, e_j] Y
    e_i^p Y          = iota(e_i^[p]) Y

gives e_i e^alpha for each generator and exponent; the other products and
the coproduct compose multiplication matrices (``restricted_enveloping``).
"""

import numpy as np

from .algebra import AlgebraPresentation, project_stack
from .bialgebroid import LeftBialgebroid
from .duals import left_dual
from .report import Report

__all__ = [
    "RestrictedLieRinehart",
    "restricted_enveloping",
    "jet_algebroid",
    "jet_lambda_coords",
    "crossed_product",
]


class RestrictedLieRinehart:
    """Structure constants of a restricted Lie-Rinehart algebra.

    bracket[i, j, k] in A is the e_k-coefficient of [e_i, e_j];
    anchors[i] is the derivation matrix of omega(e_i) on A;
    pops[i, k] in A is the e_k-coefficient of e_i^[p].

    An element x of L = A^n is an n x dA array, x[i] its e_i-coefficient;
    labels names the generators e1..en.
    anchor_tensor[i, a] is the derivation matrix of omega(a_a e_i), and
    bracket_tensor[i, a, j, b, k, c] is the e_c-coordinate of the slot k
    of [a_a e_i, a_b e_j]: the bracket as a k-bilinear map on L.
    """

    def __init__(self, base, n, bracket, anchors, pops, name="L"):
        self.A = base
        self.field = f = base.field
        if f.kind != "prime":
            raise ValueError("restricted structures require a prime field")
        self.p = f.p
        self.n = n
        da = base.dim
        self.bracket = f.mod(np.asarray(bracket).reshape(n, n, n, da))
        self.anchors = f.mod(np.asarray(anchors).reshape(n, da, da))
        self.pops = f.mod(np.asarray(pops).reshape(n, n, da))
        self.name = name
        self.labels = [f"e{i + 1}" for i in range(n)]
        mul = base.mul
        # omega(a e_i) = L_a omega_i, indexed [i, a, t, b]
        self.anchor_tensor = f.contract(self.anchors, mul, (1, 1)).transpose(0, 2, 3, 1)
        # [x, y]_k = sum_ij x_i y_j c_ijk + omega_x(y_k) 1 - omega_y(x_k): the
        # structure term indexed [i, j, k, a, b, c], the anchor terms with a
        # Kronecker delta putting them into slot k
        structure = f.contract(self.bracket, f.contract(mul, mul, (2, 0)), (3, 2))
        one = base.right_mult(base.unit)
        eye = f.eye(n)
        left = f.contract(f.contract(self.anchor_tensor, one, (2, 1)), eye, 0)
        right = f.contract(self.anchor_tensor, eye, 0)
        self.bracket_tensor = f.mod(
            structure.transpose(0, 3, 1, 4, 2, 5)
            + left.transpose(0, 1, 4, 2, 5, 3)
            - right.transpose(4, 3, 0, 1, 5, 2)
        )

    def anchor_of(self, x):
        """Derivation matrix of an L-element x (shape n x dA), or the stack
        of them for a stack of elements."""
        return self.field.contract(x, self.anchor_tensor, ([-2, -1], [0, 1]))

    def bracket_of(self, x, y):
        """[x, y] for L-elements, via the Leibniz rule in both slots.  For
        stacks x and y the result is the table of brackets, indexed by the
        stack axes of x, then those of y."""
        f = self.field
        xy = f.contract(f.contract(x, self.bracket_tensor, ([-2, -1], [0, 1])), y,
                        ([-4, -3], [-2, -1]))
        lead = np.ndim(x) - 2
        return np.moveaxis(xy, (lead, lead + 1), (-2, -1))

    def check(self):
        rep = Report(self.name)
        f, a_, n = self.field, self.A, self.n
        rep.extend(a_.check(), "base.")
        rep.add_residual(
            "base.commutative", f.sub(a_.mul, a_.mul.swapaxes(0, 1)), [a_.labels] * 2)

        gens = self.labels
        e = f.contract(f.eye(n), a_.unit, 0)  # the generators, e[i] = e_i
        br = self.bracket_of(e, e)  # [e_i, e_j]
        rep.add_residual("bracket.alternating", _diag(br, 1), [gens])
        rep.add_residual("bracket.antisymmetric", f.mod(br + br.swapaxes(0, 1)), [gens] * 2)
        # [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]
        jac = self.bracket_of(e, br)
        rep.add_residual(
            "bracket.jacobi", f.mod(jac + np.moveaxis(jac, 2, 0) + np.moveaxis(jac, 0, 2)),
            [gens] * 3,
        )

        # omega_i(e_r e_s) - omega_i(e_r) e_s - e_r omega_i(e_s)
        w, mul = self.anchors, a_.mul
        lhs = np.moveaxis(f.contract(w, mul, (2, 2)), 1, -1)
        rhs = f.contract(w, mul, (1, 0)) + f.contract(w, mul, (1, 1)).swapaxes(1, 2)
        rep.add_residual("anchor.derivation", f.sub(lhs, rhs), [gens, a_.labels, a_.labels])

        # omega([e_i, e_j]) - [omega_i, omega_j]
        comp = f.contract(w, w, (2, 1)).transpose(0, 2, 1, 3)  # omega_i omega_j
        rep.add_residual(
            "anchor.morphism", f.sub(self.anchor_of(br), comp - comp.swapaxes(0, 1)), [gens] * 2
        )

        # omega(e_i^[p]) - omega_i^p
        wp = np.broadcast_to(f.eye(a_.dim), w.shape)
        for _ in range(self.p):
            wp = _diag(f.contract(wp, w, (2, 1)), 2)
        rep.add_residual("anchor.restricted", f.sub(self.anchor_of(self.pops), wp), [gens])

        # [e_i^[p], e_j] - ad(e_i)^p (e_j)
        ad = np.broadcast_to(e, (n,) + e.shape)
        for _ in range(self.p):
            ad = _diag(self.bracket_of(e, ad), 1)
        rep.add_residual("pop.adjoint", f.sub(self.bracket_of(self.pops, e), ad), [gens] * 2)
        return rep


def _diag(t, axis):
    """The entries of t whose indices on axes 0 and ``axis`` agree, indexed
    by that common index first."""
    return np.moveaxis(np.diagonal(t, 0, 0, axis), -1, 0)


def _powers(alg, x, n):
    """x^n for every element of the stack x (one element per row)."""
    out = np.broadcast_to(alg.unit, x.shape)
    for _ in range(n):
        out = _diag(alg.products(out.T, x.T), 1)
    return out


class _Envelope:
    """Straightening engine for the restricted enveloping algebra."""

    def __init__(self, lr):
        self.lr = lr
        self.f = lr.field
        self.p = lr.p
        self.n = lr.n
        self.da = lr.A.dim
        self.dim = self.da * self.p**self.n
        self._pow_memo = {}

    def index(self, r, alpha):
        code = 0
        for a in alpha:
            code = code * self.p + a
        return r * self.p**self.n + code

    def decode(self, idx):
        r, code = divmod(idx, self.p**self.n)
        alpha = []
        for _ in range(self.n):
            code, a = divmod(code, self.p)
            alpha.append(a)
        return r, tuple(reversed(alpha))

    def amul(self, avec, elem):
        """Multiply an element on the left by a in A (PBW coefficients)."""
        out = {}
        left = self.lr.A.left_mult(avec)
        for (r, alpha), c in elem.items():
            prod = left[:, r]
            for t in np.nonzero(prod)[0]:
                key = (int(t), alpha)
                out[key] = self.f.add(out.get(key, 0), self.f.mul(c, prod[t]))
        return {k: v for k, v in out.items() if v != 0}

    def unit_elem(self, alpha):
        out = {}
        for r in np.nonzero(self.lr.A.unit)[0]:
            out[(int(r), alpha)] = self.f.canon(self.lr.A.unit[r])
        return out

    def gen_pow(self, i, beta):
        """e_i . e^beta as a straightened element."""
        key = (i, beta)
        if key in self._pow_memo:
            return self._pow_memo[key]
        nz = [j for j in range(self.n) if beta[j] > 0]
        if not nz or i < nz[0]:
            out = self.unit_elem(_bump(beta, i))
        elif i == nz[0] and beta[i] + 1 < self.p:
            out = self.unit_elem(_bump(beta, i))
        elif i == nz[0]:
            rest = _drop(beta, i, self.p - 1)
            out = {}
            for k in range(self.n):
                out = _acc(self.f, out, self.amul(self.lr.pops[i, k], self.gen_pow(k, rest)))
        else:
            j = nz[0]
            rest = _drop(beta, j, 1)
            inner = self.gen_pow(i, rest)
            out = self.gen_mult(j, inner)
            for k in range(self.n):
                out = _acc(
                    self.f, out,
                    self.amul(self.lr.bracket[i, j, k], self.gen_pow(k, rest)),
                )
        self._pow_memo[key] = out
        return out

    def gen_mult(self, i, elem):
        """e_i . elem for an arbitrary straightened element."""
        out = {}
        a_ = self.lr.A
        for (r, alpha), c in elem.items():
            main = self.amul(a_.basis(r), self.gen_pow(i, alpha))
            out = _acc(self.f, out, {k: self.f.mul(v, c) for k, v in main.items()})
            dvec = self.f.mod(self.lr.anchors[i][:, r])
            for t in np.nonzero(dvec)[0]:
                key = (int(t), alpha)
                out[key] = self.f.add(out.get(key, 0), self.f.mul(c, dvec[t]))
        return {k: v for k, v in out.items() if v != 0}

    def to_vec(self, elem):
        v = self.f.zeros(self.dim)
        for (r, alpha), c in elem.items():
            v[self.index(r, alpha)] = c
        return v


def _bump(beta, i):
    out = list(beta)
    out[i] += 1
    return tuple(out)


def _drop(beta, i, amount):
    out = list(beta)
    out[i] -= amount
    return tuple(out)


def _acc(f, dst, src):
    for k, v in src.items():
        nv = f.add(dst.get(k, 0), v)
        if nv == 0:
            dst.pop(k, None)
        else:
            dst[k] = nv
    return dst


def restricted_enveloping(lr):
    """The restricted enveloping algebra of lr as a left bialgebroid.

    k-basis a_r e^alpha; s = t = the inclusion of A; the generators are
    primitive; eps(a e^alpha) = a if alpha = 0 and 0 otherwise.

    G_i, the matrix of ``_Envelope.gen_mult(i, .)``, has column (r, alpha)
    a_r (e_i e^alpha) + omega_i(a_r) e^alpha; e^alpha acts as op(alpha) =
    G_k op(alpha - e_k), k its first nonzero index, row (r, alpha) of ``mul``
    is (L_{a_r} op(alpha))^T, and Delta(a_r e^alpha) is Delta(a_r e^(alpha -
    e_k)) times e_k (x) 1 + 1 (x) e_k, k the last nonzero index.
    """
    eng = _Envelope(lr)
    f, a_, n = lr.field, lr.A, lr.n
    da, d = a_.dim, eng.dim
    size = d // da  # p^n exponents alpha, in the order of their codes
    alphas = [eng.decode(c)[1] for c in range(size)]
    step = [size // lr.p ** (k + 1) for k in range(n)]  # code of e_k
    straight = np.stack([[eng.to_vec(eng.gen_pow(i, al)) for al in alphas] for i in range(n)])
    # [i, alpha, beta, r, t]: the a_t e^beta coefficient of a_r (e_i e^alpha)
    moved = f.contract(straight.reshape(n, size, da, size), a_.mul, (2, 1))
    # [i, t, r, beta, alpha]: omega_i(a_r) e^alpha
    anchor = f.contract(lr.anchors, f.eye(size), 0)
    gmats = f.mod(moved.transpose(0, 4, 2, 3, 1) + anchor.transpose(0, 1, 3, 2, 4))
    gmats = gmats.reshape(n, d, d)
    ops = f.zeros((size, d, d))
    ops[0] = f.eye(d)
    for c in range(1, size):
        k = next(i for i, x in enumerate(alphas[c]) if x)
        ops[c] = f.matmul(gmats[k], ops[c - step[k]])
    # [r, t, alpha, beta, j]: the a_t e^beta coefficient of a_r e^alpha e_j
    mul = f.contract(a_.mul, ops.reshape(size, da, size, d), (1, 1))
    del ops  # each d^3 array is freed once read, which keeps the peak low at large d
    monos = ["".join(f"e{k + 1}" + (f"^{a}" if a > 1 else "") for k, a in enumerate(al) if a)
             for al in alphas]
    labels = [f"{x}*{mono}" if mono else x for x in a_.labels for mono in monos]
    unit = eng.to_vec(eng.unit_elem((0,) * n))
    total = AlgebraPresentation(f, mul.transpose(0, 2, 4, 1, 3).reshape(d, d, d), unit, labels)
    del mul

    s_map = f.zeros((d, da))
    s_map[::size] = f.eye(da)
    counit = s_map.T.copy()

    gens = [eng.to_vec(eng.unit_elem(_bump((0,) * n, i))) for i in range(n)]
    rgens = [total.right_mult(g) for g in gens]
    # [x, y, (r, alpha)]: the lift of Delta(a_r e^alpha) to U (x) U, whose
    # columns for one alpha are delta[:, :, code::size]; Delta(a_r) = a_r (x) 1
    delta = f.zeros((d, d, d))
    delta[::size, :, ::size] = f.contract(a_.right_mult(a_.unit), unit, 0).swapaxes(1, 2)
    for c in range(1, size):
        k = max(i for i, x in enumerate(alphas[c]) if x)
        lift, rk = delta[:, :, c - step[k]::size], rgens[k]
        delta[:, :, c::size] = f.mod(
            f.contract(rk, lift, (1, 0)) + f.contract(lift, rk, (1, 1)).swapaxes(1, 2))

    b = LeftBialgebroid(lr.A, total, s_map, s_map, delta.reshape(d * d, d), counit,
                        name=f"U({lr.name})")
    b._cache["lr"] = lr
    b._cache["lr_engine"] = eng
    b._cache["lr_gens"] = gens
    return b


# the reason given where a bialgebroid does not come from restricted_enveloping
NO_LR_DATA = "no Lie-Rinehart data"


def enveloping_report(b):
    """Extra consistency checks tying the envelope back to its input:
    generators are primitive, D^p = D^[p] holds, and the Hochschild-type
    formula (aD)^p = a^p D^[p] + (a omega_D)^{p-1}(a) D holds in U.  A
    bialgebroid not built by ``restricted_enveloping`` (one read from a
    spec, say) has no Lie-Rinehart data, and its three items are skipped."""
    rep = Report(b.name)
    if "lr" not in b._cache:
        for check_id in ("generators.primitive", "pop.power_rule", "pop.hochschild"):
            rep.skip(check_id, NO_LR_DATA)
        return rep
    lr = b._cache["lr"]
    f, a_, n, p = lr.field, lr.A, lr.n, lr.p
    u, d = b.U, b.U.dim
    gens = lr.labels
    e = np.stack(b._cache["lr_gens"])
    # the inclusion of L: incl[k, a] = s(a_a) e_k = (a_a 1) e_k
    incl = u.products(b.s_map, e.T).swapaxes(0, 1)

    # Delta(e_i) - e_i (x) 1 - 1 (x) e_i in U (x)_A U
    lift = f.contract(e, b.delta, (1, 1)).reshape(n, d, d)
    prim = f.add(f.contract(e, u.unit, 0), np.moveaxis(f.contract(u.unit, e, 0), 1, 0))
    rep.add_residual("generators.primitive", project_stack(b.T0, lift, prim), [gens])

    # e_i^p - iota(e_i^[p])
    power = f.sub(_powers(u, e, p), f.contract(lr.pops, incl, ([1, 2], [0, 1])))
    rep.add_residual("pop.power_rule", power, [gens])

    # (a e_i)^p - a^p e_i^[p] - (a omega_i)^{p-1}(a) e_i for a = a_r
    da = a_.dim
    lhs = _powers(u, incl.reshape(n * da, d), p).reshape(n, da, d)
    # a_r^p pops[i, k], indexed [r, c, i, k], sent into U
    ap = f.contract(f.contract(_powers(a_, f.eye(da), p), a_.mul, (1, 0)), lr.pops, (1, 2))
    rhs = f.contract(ap, incl, ([3, 1], [0, 1])).swapaxes(0, 1)
    acted = np.tile(f.eye(da), (n, 1))  # row (i, r) is a_r
    deriv = lr.anchor_tensor.reshape(n * da, da, da)
    for _ in range(p - 1):
        acted = _diag(f.contract(deriv, acted, (2, 1)), 2)
    acted = f.contract(acted.reshape(n, da, da), a_.right_mult(a_.unit), (2, 1))
    rhs = rhs + _diag(f.contract(acted, incl, (2, 1)), 2)
    rep.add_residual("pop.hochschild", f.sub(lhs, rhs), [gens, a_.labels])
    return rep


def jet_algebroid(b):
    """The jet algebroid of a restricted enveloping algebra: its left dual
    U_*, a right bialgebroid (a ``DualBialgebroid``), which
    ``as_left_bialgebroid()`` reads as a (commutative) left one."""
    return left_dual(b)


def jet_lambda_coords(b, dual=None):
    """Coordinates of the jet generators lambda_i (dual to the e_i) in the
    dual basis: <lambda_i, a e^alpha> = a if alpha = 1_i else 0.  Raises
    ValueError on a bialgebroid without Lie-Rinehart data."""
    if "lr" not in b._cache:
        raise ValueError(NO_LR_DATA)
    dual = dual or left_dual(b)
    eng = b._cache["lr_engine"]
    lr = b._cache["lr"]
    f = b.field
    out = []
    for i in range(lr.n):
        func = f.zeros((lr.A.dim, b.U.dim))
        for r in range(lr.A.dim):
            func[r, eng.index(r, _bump((0,) * lr.n, i))] = f.one
        out.append(dual.coords_of(func))
    return out


def crossed_product(base, n, g_bracket, g_pops, sigma, name="AxG"):
    """The crossed-product Lie-Rinehart structure A (x) g for a restricted
    Lie algebra g acting on A by derivations sigma."""
    f = base.field
    da = base.dim
    bracket = f.zeros((n, n, n, da))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                bracket[i, j, k] = f.canon(g_bracket[i][j][k]) * base.unit
    pops = f.zeros((n, n, da))
    for i in range(n):
        for k in range(n):
            pops[i, k] = f.canon(g_pops[i][k]) * base.unit
    anchors = [f.mod(np.asarray(m)) for m in sigma]
    return RestrictedLieRinehart(base, n, bracket, anchors, pops, name=name)
