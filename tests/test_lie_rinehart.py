import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgd.bialgebroid import check_left_bialgebroid, check_right_bialgebroid
from bgd.fixtures import (
    FIXTURES,
    LR_FIXTURES,
    abelian_lr,
    rank1_dual_numbers,
    rank1_dual_numbers_lr,
    rank_n_truncated_lr,
)
from bgd.hopf import is_left_hopf, is_right_hopf, translate_left
from bgd.jsonio import export_spec, parse_spec
from bgd.lie_rinehart import (
    RestrictedLieRinehart,
    _Envelope,
    enveloping_report,
    jet_algebroid,
    jet_lambda_coords,
    restricted_enveloping,
)

ENV = ["rank1-dual-numbers", "rank1-dual-numbers-p3", "abelian-n", "crossed"]


@pytest.mark.parametrize("name", list(LR_FIXTURES))
def test_lr_axioms(name):
    lr = LR_FIXTURES[name]()
    rep = lr.check()
    assert rep.ok, rep.to_text()


def test_lr_axioms_detect_bad_anchor():
    lr = rank1_dual_numbers_lr(2)
    bad = RestrictedLieRinehart(
        lr.A, 1, lr.bracket, [lr.field.eye(lr.A.dim)], lr.pops
    )
    rep = bad.check()
    by_id = {i.check_id: i.status for i in rep.items}
    assert by_id["anchor.derivation"] == "fail"
    assert not rep.ok


def test_lr_axioms_detect_bad_pop():
    lr = rank1_dual_numbers_lr(2)
    pops = lr.field.zeros((1, 1, lr.A.dim))
    pops[0, 0] = lr.A.unit  # claims (d/dt)^[2] = d/dt, but (d/dt)^2 = 0
    bad = RestrictedLieRinehart(lr.A, 1, lr.bracket, lr.anchors, pops)
    by_id = {i.check_id: i.status for i in bad.check().items}
    assert by_id["anchor.restricted"] == "fail"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_bracket_antisymmetric_on_elements(a0, a1, b0, b1):
    lr = LR_FIXTURES["crossed"]()
    f = lr.field
    x = f.mod(np.array([[a0, a1], [b0, a0]], dtype=np.int64))
    y = f.mod(np.array([[b1, a0], [a1, b0]], dtype=np.int64))
    assert f.is_zero(f.mod(lr.bracket_of(x, y) + lr.bracket_of(y, x)))
    lhs = lr.anchor_of(lr.bracket_of(x, y))
    wx, wy = lr.anchor_of(x), lr.anchor_of(y)
    assert f.equal(lhs, f.mod(f.matmul(wx, wy) - f.matmul(wy, wx)))


@pytest.mark.parametrize("name", ENV)
def test_enveloping_is_left_bialgebroid(name):
    b = FIXTURES[name]()
    rep = check_left_bialgebroid(b)
    assert rep.ok, rep.to_text()


@pytest.mark.parametrize("name", ENV)
def test_enveloping_is_two_sided_hopf(name):
    b = FIXTURES[name]()
    assert is_left_hopf(b)
    assert is_right_hopf(b)


def test_enveloping_dimension_and_labels():
    b = FIXTURES["rank1-dual-numbers-p3"]()
    assert b.U.dim == 9  # dim A * p^n = 3 * 3
    assert "1" in b.U.labels


@pytest.mark.parametrize("name", ENV)
def test_enveloping_report(name):
    b = FIXTURES[name]()
    rep = enveloping_report(b)
    assert rep.ok, rep.to_text()
    by_id = {i.check_id: i.status for i in rep.items}
    assert by_id["pop.power_rule"] == "pass"
    assert by_id["pop.hochschild"] == "pass"


def test_envelope_read_from_a_spec_has_no_lie_rinehart_data():
    # a spec keeps the bialgebroid but not the Lie-Rinehart algebra behind it
    b = parse_spec(export_spec(rank1_dual_numbers()))
    rep = enveloping_report(b)
    assert [(i.check_id, i.status, i.witness) for i in rep.items] == [
        (check_id, "skipped", "no Lie-Rinehart data")
        for check_id in ("generators.primitive", "pop.power_rule", "pop.hochschild")
    ]
    with pytest.raises(ValueError, match="no Lie-Rinehart data"):
        jet_lambda_coords(b)


@pytest.mark.parametrize("name", ENV)
def test_translation_closed_form_on_generators(name):
    # u_+ (x) u_- = D (x) 1 - 1 (x) D for every primitive generator D
    b = FIXTURES[name]()
    f, d = b.field, b.U.dim
    for g in b._cache["lr_gens"]:
        got = b.T1.project(translate_left(b, g))
        expect = f.mod(
            np.outer(g, b.U.unit).reshape(-1) - np.outer(b.U.unit, g).reshape(-1)
        )
        assert np.array_equal(got, b.T1.project(expect))


@pytest.mark.parametrize("name", ENV)
def test_translation_closed_form_on_base_elements(name):
    # u_+ (x) u_- = s(a) (x) s(b) when u = s(a)t(b)
    b = FIXTURES[name]()
    f = b.field
    for r in range(b.A.dim):
        for q in range(b.A.dim):
            sa = f.matmul(b.s_map, b.A.basis(r))
            tb = f.matmul(b.t_map, b.A.basis(q))
            sb = f.matmul(b.s_map, b.A.basis(q))
            got = b.T1.project(translate_left(b, b.U.mult(sa, tb)))
            expect = b.T1.project(np.outer(sa, sb).reshape(-1))
            assert np.array_equal(got, expect)


@pytest.mark.parametrize("name", ENV)
def test_jet_is_commutative_right_bialgebroid(name):
    b = FIXTURES[name]()
    jet = jet_algebroid(b)
    assert jet.U.is_commutative()
    rep = check_right_bialgebroid(jet)
    assert rep.ok, rep.to_text()


@pytest.mark.parametrize("name", ENV)
def test_jet_reads_as_left_bialgebroid(name):
    b = FIXTURES[name]()
    lb = jet_algebroid(b).as_left_bialgebroid()
    rep = check_left_bialgebroid(lb)
    assert rep.ok, rep.to_text()


@pytest.mark.parametrize("name", ENV)
def test_jet_lambda_generators_pair_correctly(name):
    b = FIXTURES[name]()
    jet = jet_algebroid(b)
    lr, eng = b._cache["lr"], b._cache["lr_engine"]
    f = b.field
    lams = jet_lambda_coords(b, jet)
    for i, lam in enumerate(lams):
        func = jet.functional(lam)
        for idx in range(b.U.dim):
            r, alpha = eng.decode(idx)
            one_i = tuple(1 if k == i else 0 for k in range(lr.n))
            expect = b.A.basis(r) if alpha == one_i else f.zeros(b.A.dim)
            assert np.array_equal(func[:, idx], expect)
    # a stack of coordinate vectors gives a stack of functionals and back
    stack = jet.functional(np.stack(lams))
    assert np.array_equal(stack[0], jet.functional(lams[0]))
    assert np.array_equal(jet.coords_of(stack), np.stack(lams, axis=1))


def test_jet_lambda_powers_vanish():
    # lambda_i^p kills every PBW monomial since exponents stay below p
    for name in ["rank1-dual-numbers", "rank1-dual-numbers-p3", "crossed"]:
        b = FIXTURES[name]()
        jet = jet_algebroid(b)
        p = b.field.p
        for lam in jet_lambda_coords(b, jet):
            assert b.field.is_zero(jet.U.power(lam, p))


def _straightened(lr):
    """``mul`` and ``delta`` of the envelope of lr, each product
    straightened term by term with ``_Envelope.gen_mult`` and each
    coproduct lift multiplied out factor by factor."""
    eng, f, a_, n = _Envelope(lr), lr.field, lr.A, lr.n
    d = eng.dim
    mul = f.zeros((d, d, d))
    for i in range(d):
        r, alpha = eng.decode(i)
        for j in range(d):
            y = {eng.decode(j): 1}
            for k in reversed(range(n)):
                for _ in range(alpha[k]):
                    y = eng.gen_mult(k, y)
            mul[i, j] = eng.to_vec(eng.amul(a_.basis(r), y))
    unit = eng.to_vec(eng.unit_elem((0,) * n))
    rgens = []
    for k in range(n):
        g = eng.to_vec(eng.unit_elem(tuple(int(i == k) for i in range(n))))
        rgens.append(f.contract(g, mul, (0, 1)).T)
    delta = f.zeros((d * d, d))
    for idx in range(d):
        r, alpha = eng.decode(idx)
        t = f.mod(np.outer(eng.to_vec(eng.amul(a_.basis(r), eng.unit_elem((0,) * n))), unit))
        for k in range(n):
            for _ in range(alpha[k]):
                t = f.mod(f.matmul(rgens[k], t) + f.matmul(t, rgens[k].T))
        delta[:, idx] = t.reshape(-1)
    return mul, delta


def _corrupted(lr, key, seed):
    """lr with one entry of its bracket, of one anchor or of its
    p-operation moved by a nonzero scalar chosen by ``seed``."""
    f, rng = lr.field, np.random.default_rng(seed)
    data = {"bracket": lr.bracket.copy(), "anchors": lr.anchors.copy(), "pops": lr.pops.copy()}
    m = data[key]
    idx = tuple(int(rng.integers(k)) for k in m.shape)
    m[idx] = f.canon(m[idx] + int(rng.integers(1, f.p)))
    return RestrictedLieRinehart(lr.A, lr.n, data["bracket"], data["anchors"], data["pops"])


_ENVELOPE_CASES = dict(LR_FIXTURES)
_ENVELOPE_CASES["trunc-2-3"] = lambda: rank_n_truncated_lr(2, 3)
_ENVELOPE_CASES["trunc-3-2"] = lambda: rank_n_truncated_lr(3, 2)
_ENVELOPE_CASES["abelian-3-2"] = lambda: abelian_lr(3, 2)
for _name in ("crossed", "trunc-3-2", "rank1-dual-numbers-p3"):
    for _seed, _key in enumerate(("bracket", "anchors", "pops") * 2):
        _ENVELOPE_CASES[f"{_name}-bad-{_key}-{_seed}"] = (
            lambda c=_name, k=_key, sd=_seed: _corrupted(_ENVELOPE_CASES[c](), k, sd))


@pytest.mark.parametrize("case", list(_ENVELOPE_CASES))
def test_envelope_products_match_straightening(case):
    lr = _ENVELOPE_CASES[case]()
    b = restricted_enveloping(lr)
    mul, delta = _straightened(lr)
    for got, want in ((b.U.mul, mul), (b.delta, delta)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
