import itertools

import numpy as np
import pytest

from bgd.algebra import AlgebraPresentation
from bgd.fixtures import FIXTURES, env, pair, regular_comodule, trivial_comodule
from bgd.hopf import (
    alpha_left,
    alpha_right,
    comodule_is_bijective,
    comodule_translation_report,
    is_left_hopf,
    is_right_hopf,
    side_switch,
    translate_left,
    translate_left_mat,
    translate_right_mat,
    translation_report,
)
from bgd.duals import left_dual, right_dual, s_lower_star
from bgd.linalg import Field
from bgd.bialgebroid import LeftBialgebroid, check_comodule, coinvariants

HOPF = [
    "base-trivial", "primitive-f2", "group-f3",
    "rank1-dual-numbers", "rank1-dual-numbers-p3", "abelian-n", "crossed",
]
COOP = [n + "-coop" for n in HOPF]


def _preset(name):
    """A preset, or the co-opposite of one for a name ending in -coop."""
    b = FIXTURES[name.removesuffix("-coop")]()
    return b.coop() if name.endswith("-coop") else b


@pytest.mark.parametrize("name", HOPF)
def test_two_sided_hopf(name):
    b = FIXTURES[name]()
    assert is_left_hopf(b)
    assert is_right_hopf(b)


def test_monoid_bialgebroid_is_not_hopf():
    b = FIXTURES["monoid-non-hopf"]()
    assert not is_left_hopf(b)
    assert not is_right_hopf(b)
    rep = translation_report(b)
    assert all(i.status == "skipped" for i in rep.items)


@pytest.mark.parametrize("name", HOPF + COOP)
def test_translation_identity_suites(name):
    b = _preset(name)
    rep = translation_report(b)
    assert rep.ok, [i.check_id for i in rep.failures]
    ids = {i.check_id for i in rep.items}
    assert {f"sch{k}" for k in range(1, 10)} <= ids
    assert {f"tch{k}" for k in range(1, 10)} <= ids


@pytest.mark.parametrize("name", HOPF)
def test_translation_report_ignores_coproduct_lift(name):
    # adding T0 relations to the lift of delta leaves every class unchanged
    b = FIXTURES[name]()
    f, d = b.field, b.U.dim
    rows = b.T0.rel.rows
    want = [(i.check_id, i.status) for i in translation_report(b).items]
    rng = np.random.default_rng(7)
    for _ in range(3):
        c = f.mod(rng.integers(0, f.p, size=(rows.shape[0], d)))
        delta = f.mod(b.delta + f.matmul(rows.T, c))
        other = LeftBialgebroid(b.A, b.U, b.s_map, b.t_map, delta, b.counit)
        got = [(i.check_id, i.status) for i in translation_report(other).items]
        assert got == want


def test_coop_is_an_involution_sharing_quotients():
    b = env(Field.prime(5), 2)
    c = b.coop()
    assert c.coop() is b
    assert c.T1 is b.T2 and c.T2 is b.T1
    assert c.Ls is b.Lt and c.Rt is b.Rs
    crossed = FIXTURES["crossed"]()
    assert crossed.coop() is crossed


def _function_algebra_s3():
    """k^{S_3} over k = F_3, p_g p_h = [g = h] p_g and delta(p_g) the sum of
    p_h (x) p_k over hk = g: commutative with s = t, not cocommutative."""
    f, g = Field.prime(3), list(itertools.permutations(range(3)))
    d = len(g)
    u = AlgebraPresentation.from_triples(f, d, [(i, i, i, 1) for i in range(d)], [1] * d)
    a = AlgebraPresentation.from_triples(f, 1, [(0, 0, 0, 1)], [1])
    delta = f.zeros((d * d, d))
    for h, x in enumerate(g):
        for k, y in enumerate(g):
            delta[h * d + k, g.index(tuple(x[j] for j in y))] = f.one
    s, counit = f.array([[1]] * d), f.array([[int(x == g[0]) for x in g]])
    return LeftBialgebroid(a, u, s, s, delta, counit, name="k^S3")


# name: (builder, whether it is its own co-opposite, whether deciding that builds T0)
COOP_SUBJECTS = {
    # u(L): the lift of delta is not flip-symmetric, so T0 decides
    "crossed": (FIXTURES["crossed"], True, True),
    "rank1-dual-numbers": (FIXTURES["rank1-dual-numbers"], True, True),
    "pair-F5-3": (lambda: pair(Field.prime(5), 3), True, False),
    "group-f3": (FIXTURES["group-f3"], True, False),
    "env-F5-2": (lambda: env(Field.prime(5), 2), False, False),  # s != t
    "k^S3": (_function_algebra_s3, False, True),
}


@pytest.mark.parametrize("name", COOP_SUBJECTS)
def test_own_coop_shares_every_right_structure(name):
    build, own, t0 = COOP_SUBJECTS[name]
    b = build()
    assert (b.Ls is b.Lt) == (b.Rs is b.Rt) == b.field.equal(b.s_map, b.t_map)
    assert (b.coop() is b) == own and b.coop().coop() is b
    assert ("T0" in b._cache) == t0
    if own:
        assert alpha_right(b) is alpha_left(b)
        assert translate_right_mat(b) is translate_left_mat(b)
        assert right_dual(b).tensor is left_dual(b).tensor


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ["group-f3", "rank1-dual-numbers"])
def test_comodule_reports_leave_no_reference_cycle(name, side):
    # a comodule holds its twin over b.coop() weakly, as b holds b.coop(),
    # so reference counting frees b, the comodule and the twin
    import gc
    import weakref

    b = FIXTURES[name]()
    gc.collect()
    gc.disable()
    try:
        com = regular_comodule(b, side)
        comodule_translation_report(com)
        if side == "left":
            side_switch(com)
        refs = [weakref.ref(x) for x in (b, com, com.coop())]
        del b, com
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_primitive_translation_closed_form():
    # X primitive: X_+ (x) X_- = X (x) 1 + 1 (x) X over F_2
    b = FIXTURES["primitive-f2"]()
    v = translate_left(b, b.U.basis(1))
    assert list(v) == [0, 1, 1, 0]


def test_grouplike_translation_closed_form():
    # g group-like with g^2 = 1: g_+ (x) g_- = g (x) g
    b = FIXTURES["group-f3"]()
    v = translate_left(b, b.U.basis(1))
    # the only nonzero entry is e_1 (x) e_1, index 1 * 2 + 1
    assert np.nonzero(v)[0].tolist() == [3] and v[3] == 1


def test_translate_is_section_of_galois_map():
    # applying u_+ (x) u_- -> u_+(1) (x) u_+(2) u_- returns u (x) 1 (sch2)
    b = FIXTURES["rank1-dual-numbers"]()
    rep = translation_report(b, side="left")
    assert rep.ok


@pytest.mark.parametrize("name", ["primitive-f2", "group-f3", "rank1-dual-numbers"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_comodule_translation_suites(name, side):
    b = FIXTURES[name]()
    for com in (regular_comodule(b, side), trivial_comodule(b, side)):
        assert comodule_is_bijective(com)
        rep = comodule_translation_report(com)
        assert rep.ok, [i.check_id for i in rep.failures]


def test_comodule_suite_labels_skip_fourth_item():
    b = FIXTURES["primitive-f2"]()
    rep = comodule_translation_report(regular_comodule(b, "left"))
    ids = {i.check_id for i in rep.items}
    assert not any(i.endswith("4") for i in ids)
    assert len([i for i in ids if i[-1].isdigit()]) == 7


@pytest.mark.parametrize(
    "name", ["primitive-f2", "group-f3", "rank1-dual-numbers"] + COOP
)
def test_side_switch_roundtrip(name):
    b = _preset(name)
    for side in ("left", "right"):
        com = regular_comodule(b, side)
        switched = side_switch(com)
        assert check_comodule(switched).ok
        back = side_switch(switched)
        assert check_comodule(back).ok
        # the double switch preserves coinvariants
        f = b.field
        cov0 = coinvariants(com)
        cov2 = coinvariants(back)
        assert len(cov0) == len(cov2)
        from bgd.linalg import solve_affine

        span = np.stack(cov2, axis=1)
        for v in cov0:
            assert solve_affine(f, span, v) is not None


def test_side_switch_requires_hopf():
    b = FIXTURES["monoid-non-hopf"]()
    for side in ("left", "right"):
        with pytest.raises(ValueError):
            side_switch(regular_comodule(b, side))


def test_mirrored_paths_name_alpha_r():
    # these are computed on b.coop(); the error must still name alpha_r of b
    b = FIXTURES["monoid-non-hopf"]()
    for call in (
        lambda: translate_right_mat(b),
        lambda: s_lower_star(b),
        lambda: side_switch(regular_comodule(b, "left")),
    ):
        with pytest.raises(ValueError, match=r"^alpha_r of monoid-non-hopf is not bijective$"):
            call()


@pytest.mark.parametrize("name", ["group-f3", "rank1-dual-numbers", "monoid-non-hopf"])
def test_one_reduction_decides_and_inverts_alpha(name, monkeypatch):
    # is_left_hopf reduces alpha_l once; translate_left_mat lifts that
    # inverse and drops it, keeping the verdict
    from bgd import hopf, linalg
    b = FIXTURES[name]()
    for q in (b.T0, b.T1):
        q.section_mat, q.project_mat
    alpha = hopf.alpha_left(b)
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda f, m: calls.append(np.shape(m)) or rref(f, m))
    left = is_left_hopf(b)
    if left:
        hopf.translate_left_mat(b)
        assert "_inverse" not in vars(b._cache["alpha_l"])
    else:
        with pytest.raises(ValueError, match="not bijective"):
            hopf.translate_left_mat(b)
    assert is_left_hopf(b) is left
    assert calls == [(len(alpha), 2 * len(alpha))]


def test_comodule_inverse_is_dropped_once_lifted():
    from bgd import hopf
    com = regular_comodule(FIXTURES["group-f3"](), "right")
    assert comodule_is_bijective(com)
    hopf.comodule_translate_mat(com)
    assert "_inverse" not in vars(com.as_left()._cache["calpha"])
    assert comodule_is_bijective(com)
    assert comodule_translation_report(com).ok
