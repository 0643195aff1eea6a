"""The balanced-tensor quotients read off the leg embeddings are the
quotients built from relation rows, entry for entry.

Every balanced tensor of U with a module is the quotient of a leg
embedding ``b.leg``: U_<| (x)_A |>U, >U (x)_{Aop} U_<|, the comodule
tensors and the >U (x)_{Aop} N of ``bgd.hopf_modules``.
``LegEmbedding.quotient`` builds it from the matrix of J
(``Quotient.from_kernel``) when the leg's premises hold, and from
``balanced_tensor`` otherwise.  Here every such quotient is compared with
``balanced_tensor`` on the same relations:
``coords``, ``project_mat``, ``section_mat`` and the relation rref must
agree in dtype, shape and every entry, and ``descends``/``induced_op``
must agree with the relation-row descent test, ``DescentError`` included.
"""

import argparse
import itertools
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_lib_golden import CASES, CLEAN

from bgd import algebra, bialgebroid, duals, hopf_modules
from bgd.algebra import AlgebraPresentation, LegEmbedding, balanced_tensor, free_basis
from bgd.bialgebroid import LeftBialgebroid, check_comodule, check_left_bialgebroid
from bgd.cli import HANDLERS
from bgd.fixtures import FIXTURES, pair, rank_n_truncated, regular_comodule, trivial_comodule
from bgd.hopf import comodule_translation_report, side_switch, translation_report
from bgd.hopf_modules import build_u_star_hopf_module, check_hopf_module
from bgd.linalg import DescentError, Field, Quotient, invert, kernel_basis, rank

# the benchmark's known-answer families, imported from its own directory
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import families  # noqa: E402

F2, F3, F5, QQ = Field.prime(2), Field.prime(3), Field.prime(5), Field.rationals()

# the golden cases (with pair and env over Q at n = 2), and pair and env
# over F_5
SUBJECTS = dict(CASES)
for _n in (2, 3):
    SUBJECTS[f"pair-F5-{_n}"] = lambda n=_n: families.pair(F5, n)
    SUBJECTS[f"env-F5-{_n}"] = lambda n=_n: families.env(F5, n)

# the corrupted golden cases whose squares, regular comodule tensors or
# module tensors have a leg whose premises fail: a corrupted s or t breaks
# the free basis or premise (ii) on the leg that pairs with it
FALLBACK = {
    case: sites for case, sites in {
        "crossed-bad-s": {"T0", "T2", "com-right"},
        "crossed-bad-t": {"T0", "T1", "coop-T0", "com-left", "com-right", "ll-base",
                          "comparison-dom", "fundamental-ll"},
        "rank1-dual-numbers-bad-s": {"T0", "coop-T0", "com-left", "com-right"},
        "rank1-dual-numbers-bad-t": {"T0", "coop-T0", "com-left", "com-right", "ll-base",
                                     "comparison-dom", "fundamental-ll"},
        "trunc-2-2-bad-s": {"T0", "T2", "coop-T0", "com-left", "com-right"},
        "trunc-2-2-bad-t": {"T0", "coop-T0", "com-left", "com-right", "ll-base"},
    }.items()
}


def _relation_built(leg):
    return balanced_tensor(leg.field, leg.P.shape[1], leg.P, leg.Q.shape[1], leg.Q)


def _entries(a):
    return (a.dtype, a.shape, [(type(x), x) for x in a.ravel().tolist()])


def _assert_same(q, r):
    assert (q.ambient_dim, q.dim, q.coords) == (r.ambient_dim, r.dim, r.coords)
    for name in ("project_mat", "section_mat"):
        assert _entries(getattr(q, name)) == _entries(getattr(r, name)), name
    assert q.rel.pivots == r.rel.pivots
    assert _entries(q.rel.rows) == _entries(r.rel.rows)


def _ref_descends(cod, op, dom):
    """The descent test on relation rows: op maps every relation row of
    dom into the relation span of cod."""
    return cod.rel.contains(cod.field.contract(op, dom.rel.rows, (-1, 1)))


def _ref_induced(cod, op, dom):
    f = cod.field
    return f.matmul(cod.project_mat, f.matmul(op, dom.section_mat))


def _assert_same_descent(q, r, op, q_dom, r_dom):
    """q/q_dom and r/r_dom are the same quotients built two ways."""
    want = _ref_descends(r, op, r_dom)
    assert q.descends(op, q_dom) == want == r.descends(op, r_dom)
    if want:
        assert _entries(q.induced_op(op, q_dom)) == _entries(_ref_induced(r, op, r_dom))
    else:
        with pytest.raises(DescentError):
            q.induced_op(op, q_dom)


def _legs(b):
    """(site, leg) of every balanced tensor a battery reads off a leg."""
    out = [("T0", b.leg("Lt", over="Ls", u_first=False)),
           ("T0-left", b.leg("Ls", over="Lt", u_first=True)),
           ("T1", b.leg("Rt", over="Lt", u_first=False)),
           ("T2", b.coop().leg("Rt", over="Lt", u_first=False)),
           ("coop-T0", b.coop().leg("Lt", over="Ls", u_first=False))]
    for side in ("left", "right"):
        com = regular_comodule(b, side).as_left()
        c = com.b
        out.append((f"com-{side}", com.leg))
        # the domain N (x)^A |>U of the comodule Hopf-Galois map, as built by
        # hopf.comodule_alpha
        out.append((f"cdom-{side}", c.leg(com.induced_action, over="Ls", u_first=False)))
    out.append(("com-base", trivial_comodule(b, "left").leg))
    return out + _module_legs(b)


def _module_legs(b):
    """(site, leg) of the >U (x)_{Aop} N the ``fundamental`` command builds
    in ``hopf_modules``, on the modules it passes them."""
    f, right_a = b.field, b.A.basis_right_mults
    t_left = f.contract(b.t_map, np.asarray(b.U.basis_left_mults), (0, 0))  # a -> t(a) on U
    ll = hopf_modules.ll_hopf_module_from_base_module(b, right_a)
    acts = hopf_modules._cov_data(ll, b.t_map)[1]  # a -> t(a) on the coinvariants
    return [(site, b.leg(action, over="Rt", u_first=True)) for site, action in (
        ("ll-base", right_a), ("comparison-dom", t_left), ("fundamental-ll", acts))]


@pytest.mark.parametrize("case", sorted(SUBJECTS))
def test_leg_quotients_equal_relation_quotients(case):
    b = SUBJECTS[case]()
    for site, leg in _legs(b):
        _assert_same(leg.quotient, _relation_built(leg))
    # the battery's cached quotients are the leg quotients
    assert b.T0 is b.leg("Lt", over="Ls", u_first=False).quotient
    assert b.T1 is b.leg("Rt", over="Lt", u_first=False).quotient
    assert b.T2 is b.coop().T1 and b.coop().T2 is b.T1
    com = regular_comodule(b, "left")
    assert com.quotient is com.leg.quotient
    fallback = {site for site, leg in _legs(b)
                if not leg.exact and site in ("T0", "T1", "T2", "coop-T0", "com-left",
                                              "com-right", "ll-base", "comparison-dom",
                                              "fundamental-ll")}
    if case in CLEAN:
        assert fallback == FALLBACK.get(case, set()), case
    else:
        assert not fallback, case


@pytest.mark.parametrize("case", sorted(SUBJECTS))
def test_leg_quotients_descend_as_relation_quotients(case):
    b = SUBJECTS[case]()
    f, d = b.field, b.U.dim
    rng = np.random.default_rng(sorted(SUBJECTS).index(case))
    built = {site: (leg.quotient, _relation_built(leg)) for site, leg in _legs(b)}
    # alpha_l: T1 -> T0, u (x) v |-> u_1 (x) u_2 v, as in hopf.alpha_left
    amb = f.contract(b.delta3, b.U.mul, (1, 0)).transpose(0, 3, 1, 2).reshape(d * d, d * d)
    (q0, r0), (q1, r1) = built["T0"], built["T1"]
    _assert_same_descent(q0, r0, amb, q1, r1)
    # the comodule Hopf-Galois map of the regular left comodule, as in
    # hopf.comodule_alpha
    co = b.delta.reshape(d, d, d)
    amb = f.contract(co, b.U.mul, (0, 0)).transpose(3, 0, 1, 2).reshape(d * d, d * d)
    (qc, rc), (qd, rd) = built["com-left"], built["cdom-left"]
    _assert_same_descent(qc, rc, amb, qd, rd)
    for q, r in built.values():
        n = q.ambient_dim
        _assert_same_descent(q, r, f.eye(n), q, r)
        op = f.mod(f.array(rng.integers(-1, 2, size=(n, n))))
        _assert_same_descent(q, r, op, q, r)
        _assert_same_descent(q, r, f.matmul(f.matmul(q.section_mat, q.project_mat), op), q, r)


@pytest.mark.parametrize("case", ["group-f3", "rank1-dual-numbers", "crossed", "trunc-2-2",
                                  "pair-F5-3", "env-Q-2"])
def test_no_relation_matrix_when_premises_hold(case, monkeypatch):
    b = SUBJECTS[case]()

    def refuse(*args):
        raise AssertionError("balanced_tensor called")

    monkeypatch.setattr(algebra, "balanced_tensor", refuse)
    for q in (b.T0, b.T1, b.T2, b.coop().T0):
        assert q.dim * b.A.dim == q.ambient_dim
    assert check_left_bialgebroid(b).ok
    assert translation_report(b).ok
    for side in ("left", "right"):
        com = regular_comodule(b, side)
        assert check_comodule(com).ok
        assert comodule_translation_report(com).ok
    rep, _ = HANDLERS["fundamental"](b, argparse.Namespace(side=None, element=None))
    assert rep.items and not [i for i in rep.items if i.status == "fail"]


# the functions that build a balanced tensor from relation rows on these
# inputs: none, since the >U (x)_{Aop} N of hopf_modules are read off legs
RELATION_ROW_SITES = set()


@pytest.mark.parametrize("case", sorted(FIXTURES) + ["pair-F5-3", "env-Q-2"])
def test_relation_rows_only_at_module_sites(case, monkeypatch):
    # every CLI handler, with each call of balanced_tensor recorded by the
    # function that makes it: a battery that falls back to relation rows on
    # one of these inputs fails here
    b = FIXTURES[case]() if case in FIXTURES else SUBJECTS[case]()
    callers = set()

    def recorded(*args):
        callers.add(sys._getframe(1).f_code.co_name)
        return balanced_tensor(*args)

    monkeypatch.setattr(algebra, "balanced_tensor", recorded)
    for command, handler in HANDLERS.items():
        for side in ("left", "right"):
            try:
                handler(b, argparse.Namespace(side=side, element=None))
            except ValueError:  # the CLI's exit 2, e.g. a map that is not bijective
                pass
    assert callers == RELATION_ROW_SITES, case


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F3, F5, QQ]), st.data())
def test_from_kernel_equals_relation_quotient(field, data):
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 7))
    raw = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    emb = field.array(raw) if rows else field.zeros((0, cols))
    _assert_same(Quotient.from_kernel(field, emb),
                 Quotient(field, cols, kernel_basis(field, emb)))


def _stack(field, data, n, dim):
    raw = data.draw(st.lists(st.integers(-2, 2), min_size=n * dim * dim,
                             max_size=n * dim * dim))
    return field.array(np.array(raw).reshape(n, dim, dim))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F3, QQ]), st.booleans(), st.data())
def test_failed_premises_fall_back_to_relation_rows(field, left, data):
    # random action stacks and functionals, which rarely form a dual basis
    da, dx, dy = (data.draw(st.integers(1, 3)) for _ in range(3))
    p, q = _stack(field, data, da, dx), _stack(field, data, da, dy)
    dual_leg = dx if left else dy
    raw = data.draw(st.lists(st.integers(-2, 2), min_size=dual_leg * da * dual_leg,
                             max_size=dual_leg * da * dual_leg))
    dual = field.array(np.array(raw).reshape(dual_leg, da, dual_leg))
    leg = LegEmbedding(field, p, q, (dual, field.eye(dual_leg)), left=left)
    assume(not leg.exact)
    got, want = leg.quotient, _relation_built(leg)
    _assert_same(got, want)
    n = dx * dy
    op = field.array(np.array(data.draw(st.lists(
        st.integers(-2, 2), min_size=n * n, max_size=n * n))).reshape(n, n))
    _assert_same_descent(got, want, op, got, want)


# pair, env and trunc over F_5 and Q (trunc, a restricted enveloping
# algebra, exists over F_p only)
FREE = {
    "pair-F5-3": lambda: families.pair(F5, 3),
    "pair-Q-2": lambda: families.pair(QQ, 2),
    "env-F5-3": lambda: families.env(F5, 3),
    "env-Q-2": lambda: families.env(QQ, 2),
    "trunc-F5-1": lambda: rank_n_truncated(5, 1),
    "trunc-2-2": lambda: rank_n_truncated(2, 2),
}


@pytest.mark.parametrize("case", sorted(FREE))
def test_legs_run_on_free_basis_slots(case):
    # r = dU / dA slots on every leg: a silent fall back to the dual basis
    # (dU slots) fails here
    b = FREE[case]()
    d, r = b.U.dim, b.U.dim // b.A.dim
    com = regular_comodule(b, "left")
    for site, leg in _legs(b) + [("calpha", com.dom_leg)]:
        assert leg.exact, site
        assert leg.dual.shape == (r, b.A.dim, d) and leg.gens.shape == (d, r), site
    # nor was the dual basis solved for
    assert "xi" not in b._cache and "xi" not in b.coop()._cache


def _verdicts(b):
    reps = [check_left_bialgebroid(b), translation_report(b)]
    reps += [check_comodule(regular_comodule(b, side)) for side in ("left", "right")]
    return [[(i.check_id, i.status, i.witness) for i in rep.items] for rep in reps]


@pytest.mark.parametrize("build", [lambda: families.pair(F5, 3), lambda: families.env(QQ, 2)],
                         ids=["pair-F5-3", "env-Q-2"])
def test_search_miss_takes_relation_rows(build, monkeypatch):
    # where free_basis finds nothing, no leg is exact: the quotients come
    # from relation rows, the triples from TripleQuotient, and every
    # verdict is the one the free-basis legs give
    want = _verdicts(build())
    monkeypatch.setattr(bialgebroid, "free_basis", lambda field, mats: None)
    b = build()
    for site, leg in _legs(b):
        assert not leg.exact, site
        _assert_same(leg.quotient, _relation_built(leg))
    assert _verdicts(b) == want


@pytest.mark.parametrize("name", ["group-f3", "crossed"])
def test_pair_shares_free_bases_and_legs(name, monkeypatch):
    # fundamental, translate and dual search each U-side stack once, and
    # build each leg once, per bialgebroid and co-opposite: a balanced tensor
    # asked for again, under either one's names, gets the leg already built
    # (group-f3 has s = t, so Ls = Lt there; crossed has s != t)
    b = FIXTURES[name]()
    f, searched, built, store = b.field, [], [], []
    search, init, leg = bialgebroid.free_basis, LegEmbedding.__init__, LeftBialgebroid.leg

    def spy_leg(self, action, **kw):
        # the pair whose store the leg goes to, kept alive so that no id is reused
        store.append(self._legs)
        return leg(self, action, **kw)

    def spy_search(field, mats):
        searched.append((id(store[-1]), f.key(mats)))
        return search(field, mats)

    def spy_init(self, field, mats_x, mats_y, basis, left=False):
        u_side, action = (mats_x, mats_y) if left else (mats_y, mats_x)
        built.append((id(store[-1]), f.key(u_side), f.key(action), left))
        init(self, field, mats_x, mats_y, basis, left=left)

    monkeypatch.setattr(LeftBialgebroid, "leg", spy_leg)
    monkeypatch.setattr(bialgebroid, "free_basis", spy_search)
    monkeypatch.setattr(LegEmbedding, "__init__", spy_init)
    for command in ("fundamental", "translate", "dual"):
        HANDLERS[command](b, argparse.Namespace(side=None, element=None))
    assert searched and len(set(searched)) == len(searched)
    assert built and len(set(built)) == len(built)
    assert b.leg("Ls", over="Lt", u_first=True) is b.coop().leg("Lt", over="Ls", u_first=True)
    if name == "group-f3":
        assert b.leg("Ls", over="Lt", u_first=True) is b.leg("Lt", over="Ls", u_first=True)


def test_free_basis_picks_the_same_generators():
    for build in (lambda: families.pair(F5, 3), lambda: families.env(QQ, 2)):
        one, two = build(), build()
        for x, y in ((one, two), (one.coop(), two.coop())):
            got, want = (z.leg("Lt", over="Ls", u_first=False) for z in (x, y))
            assert _entries(got.dual) == _entries(want.dual)
            assert _entries(got.gens) == _entries(want.gens)


def _greedy_free_basis(f, mats):
    """The search of ``free_basis`` as it was written before it skipped
    candidates: each candidate in turn, kept when its orbit adds dA to the
    rank of the orbits kept.  Also returns, for each candidate tried, the
    number of nonzero rows of its block (row a: mats_a g)."""
    da, dy = mats.shape[:2]
    r = dy // da
    rng = np.random.default_rng(0)
    lo, hi = (0, f.p) if f.kind == "prime" else (-1, 2)
    cands = itertools.chain(f.eye(dy), (
        f.array(rng.integers(lo, hi, size=dy)) for _ in range(algebra._FREE_BASIS_TRIES * r)))
    kept, rows = [], []
    for g in cands:
        orbits = f.contract(mats, np.stack(kept + [g], axis=1), (2, 0))  # [a, y, i]
        rows.append(np.count_nonzero(orbits[:, :, -1].any(axis=1)))
        if rank(f, orbits.transpose(0, 2, 1).reshape(-1, dy)) == da * (len(kept) + 1):
            kept.append(g)
            if len(kept) == r:
                break
    gens = np.stack(kept, axis=1)
    m = f.contract(mats, gens, (2, 0)).transpose(1, 2, 0).reshape(dy, dy)
    return invert(f, m).reshape(r, da, dy), gens, rows


@pytest.mark.parametrize("field, n", [(F5, 3), (QQ, 2)], ids=["F5-3", "Q-2"])
def test_free_basis_skips_blocks_of_low_rank(field, n, monkeypatch):
    # on pair, s(A) e_ij = k e_ij: the block of a basis vector has one
    # nonzero row, fewer than dA = n, so it is skipped without a reduction,
    # and the generators are those of the unskipped search
    mats = np.asarray(pair(field, n).Ls)
    calls, rref = [], algebra.rref
    monkeypatch.setattr(algebra, "rref", lambda f, m: calls.append(m) or rref(f, m))
    phi, gens = free_basis(field, mats)
    monkeypatch.undo()
    want_phi, want_gens, rows = _greedy_free_basis(field, mats)
    assert _entries(phi) == _entries(want_phi) and _entries(gens) == _entries(want_gens)
    assert rows[:n * n] == [1] * (n * n)
    assert len(calls) == sum(k >= n for k in rows)


def _split(field, m):
    """k^m, m orthogonal idempotents."""
    return AlgebraPresentation.from_triples(
        field, m, [(i, i, i, 1) for i in range(m)], [1] * m)


def test_projective_not_free_keeps_the_dual_basis():
    # A = k x k on k^3 by diag(1, 0, 0) and diag(0, 1, 1): projective, not
    # free, since dA does not divide dY; the dual basis phi_0(y) = y_0 p_0,
    # phi_1(y) = y_1 p_1, phi_2(y) = y_2 p_1 has n = dY = 3 slots
    for f in (F5, QQ):
        a = _split(f, 2)
        q = f.array([np.diag([1, 0, 0]), np.diag([0, 1, 1])])
        assert free_basis(f, q) is None
        dual = f.zeros((3, 2, 3))
        dual[0, 0, 0] = dual[1, 1, 1] = dual[2, 1, 2] = f.one
        leg = LegEmbedding(f, np.asarray(a.basis_right_mults), q, (dual, f.eye(3)))
        assert leg.exact
        _assert_same(leg.quotient, _relation_built(leg))


def groupoid(field):
    """The groupoid algebra of a point (object 0) and the pair groupoid on
    objects 1 and 2, k x M_2(k) over A = k^3, with arrows e00, e11, e12,
    e21, e22: s = t send p_i to e_ii, Delta(e_ij) = e_ij (x) e_ij and
    eps(e_ij) = p_i.  U is projective over s(A), a sum of copies of A p_0,
    A p_1 and A p_2, but not free, since dA = 3 does not divide d = 5."""
    f = field
    arrows = [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
    d, n = len(arrows), 3
    index = {arrow: g for g, arrow in enumerate(arrows)}
    triples = [(index[i, j], index[j, k], index[i, k], 1)
               for i, j in arrows for jj, k in arrows if j == jj]
    u = AlgebraPresentation.from_triples(
        f, d, triples, [int(i == j) for i, j in arrows], [f"e{i}{j}" for i, j in arrows])
    a = _split(f, n)
    s, counit, delta = f.zeros((d, n)), f.zeros((n, d)), f.zeros((d * d, d))
    for g, (i, j) in enumerate(arrows):
        counit[i, g] = delta[g * d + g, g] = f.one
        if i == j:
            s[g, i] = f.one
    return LeftBialgebroid(a, u, s, s, delta, counit, name="groupoid")


# the items the bounded integral search fails on the groupoid over Q: the
# six Frobenius conditions, and so the system search
GROUPOID_Q_FROBENIUS = {
    "frobenius.dual-right-integrals-free-rank-one",
    "frobenius.integrals-free-rank-one",
    "frobenius.pairing-iso-from-dual-integral",
    "frobenius.pairing-iso-from-integral-s-dual",
    "frobenius.pairing-iso-from-t-dual-integral",
    "frobenius.pairing-iso-from-integral-t-dual",
    "frobenius.system-found",
}


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_groupoid_is_projective_not_free(field):
    b = groupoid(field)
    assert free_basis(field, b.Ls) is None and free_basis(field, b.coop().Ls) is None
    assert duals._s_side_dual_basis(b) is not None
    assert duals._s_side_dual_basis(b.coop()) is not None


@pytest.mark.parametrize("command", ["check", "translate", "maschke", "quasi-frobenius",
                                     "dual", "fundamental", "frobenius"])
@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_groupoid_batteries(field, command):
    rep, _ = HANDLERS[command](groupoid(field), argparse.Namespace(side=None, element=None))
    failed = {i.check_id for i in rep.items if i.status != "pass"}
    missed = GROUPOID_Q_FROBENIUS if (field, command) == (QQ, "frobenius") else set()
    assert rep.items and failed == missed


def test_groupoid_dual_basis_serves_without_a_free_basis():
    # side_switch and the U^* Hopf module need a dual basis over t(A), not
    # a free basis
    b = groupoid(F5)
    for side in ("left", "right"):
        com = regular_comodule(b, side)
        switched = side_switch(com)
        assert switched.side != side and check_comodule(switched).ok
        back = side_switch(switched)
        assert back.side == side and F5.equal(back.coaction, com.coaction)
    assert check_hopf_module(build_u_star_hopf_module(b)).ok


def _unit_triangular(field, data, n, lower):
    m = np.eye(n, dtype=int)
    for i in range(n):
        for j in range(n):
            if (i > j) if lower else (i < j):
                m[i, j] = data.draw(st.integers(-2, 2))
    return field.array(m)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F5, QQ]), st.sampled_from(["split", "trunc"]),
       st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
def test_free_basis_of_a_free_module(field, kind, m, r, left, data):
    # Y = A^r under a random change of basis c, A = k^m or k[x]/(x^m)
    a = (_split if kind == "split" else families.truncated_line)(field, m)
    n = m * r
    c = field.matmul(_unit_triangular(field, data, n, True),
                     _unit_triangular(field, data, n, False))
    block = np.zeros((m, n, n), dtype=object)
    for i in range(r):
        block[:, i * m:(i + 1) * m, i * m:(i + 1) * m] = a.basis_left_mults
    mats = field.contract(field.contract(c, field.array(block), (1, 1)), invert(field, c),
                          (2, 0)).transpose(1, 0, 2)
    found = free_basis(field, mats)
    assert found is not None
    phi, gens = found
    assert phi.shape == (r, m, n) and gens.shape == (n, r)
    # A is commutative, so its multiplications act from either side: the
    # balanced tensor A (x)_A Y, or Y (x)_A A through the left leg
    reg = np.asarray(a.basis_left_mults)
    leg = (LegEmbedding(field, mats, reg, found, left=True) if left
           else LegEmbedding(field, reg, mats, found))
    assert leg.exact
    _assert_same(leg.quotient, _relation_built(leg))
