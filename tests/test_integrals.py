import numpy as np
import pytest

from bgd.algebra import AlgebraPresentation
from bgd.fixtures import FIXTURES
from bgd.integrals import (
    IntegralSpace,
    counit_splitting,
    integral_invariance_check,
    left_integrals,
    maschke_report,
    normalized_left_integral,
    right_integrals,
    right_integrals_of_left,
    separability_check,
)
from bgd.duals import left_dual
from bgd.linalg import Field

HOPF = [
    "base-trivial", "primitive-f2", "group-f3",
    "rank1-dual-numbers", "rank1-dual-numbers-p3", "abelian-n", "crossed",
]
ALL = HOPF + ["monoid-non-hopf"]


def _is_integral(b, l):
    f = b.field
    l = f.mod(np.asarray(l))
    for i in range(b.U.dim):
        e = b.U.basis(i)
        lhs = b.U.mult(e, l)
        rhs = b.U.mult(b.s_of(b.eps(e)), l)
        if not f.equal(lhs, rhs):
            return False
    return True


def test_nilpotent_generator_spans_integrals():
    b = FIXTURES["primitive-f2"]()
    sp = left_integrals(b)
    assert sp.dim == 1
    assert list(sp.basis[0]) == [0, 1]  # the square-zero generator
    assert normalized_left_integral(b) is None
    assert separability_check(b) is None
    assert counit_splitting(b) is None


def test_group_algebra_integrals_and_separability():
    b = FIXTURES["group-f3"]()
    sp = left_integrals(b)
    assert sp.dim == 1
    assert list(sp.basis[0]) == [1, 1]  # 1 + g
    norm = normalized_left_integral(b)
    assert norm is not None
    assert list(b.field.mod(norm)) == [2, 2]  # 2 + 2g
    assert separability_check(b) is not None
    assert counit_splitting(b) is not None


def test_whole_base_is_integral_space_when_total_equals_base():
    b = FIXTURES["base-trivial"]()
    sp = left_integrals(b)
    assert sp.dim == b.A.dim
    assert sp.free_rank_one
    norm = normalized_left_integral(b)
    assert norm is not None and b.field.equal(b.field.mod(norm), b.U.unit)


def test_monoid_algebra_has_normalized_integral():
    b = FIXTURES["monoid-non-hopf"]()
    sp = left_integrals(b)
    assert sp.dim == 1
    assert normalized_left_integral(b) is not None
    assert separability_check(b) is not None


@pytest.mark.parametrize("name", ALL)
def test_kernel_members_satisfy_defining_property(name):
    b = FIXTURES[name]()
    sp = left_integrals(b)
    for v in sp.basis:
        assert _is_integral(b, v)


@pytest.mark.parametrize("name", HOPF)
def test_invariance_agrees_with_membership_on_probes(name):
    b = FIXTURES[name]()
    f = b.field
    sp = left_integrals(b)
    probes = [b.U.basis(i) for i in range(b.U.dim)]
    probes += [f.mod(v) for v in sp.basis]
    for i in range(b.U.dim - 1):
        probes.append(f.mod(b.U.basis(i) + b.U.basis(i + 1)))
    if sp.dim:
        probes.append(f.mod(sp.basis[0] + b.U.basis(0)))
    for u in probes:
        assert integral_invariance_check(b, u)[0] == sp.contains(u)


def test_invariance_negative_witness():
    b = FIXTURES["primitive-f2"]()
    ok, wit = integral_invariance_check(b, b.U.unit)
    assert not ok
    assert wit == "X"


def test_invariance_rejects_non_hopf():
    b = FIXTURES["monoid-non-hopf"]()
    with pytest.raises(ValueError):
        integral_invariance_check(b, b.U.basis(1))


@pytest.mark.parametrize("name", ALL)
def test_integral_space_closed_under_base_action(name):
    b = FIXTURES[name]()
    f = b.field
    sp = left_integrals(b)
    for v in sp.basis:
        for a in range(b.A.dim):
            assert sp.contains(f.matmul(b.Rt[a], v))
            assert sp.contains(f.matmul(b.Rs[a], v))
            # both right multiplications agree on integrals
            assert f.equal(f.matmul(b.Rt[a], v), f.matmul(b.Rs[a], v))


@pytest.mark.parametrize("name", ALL)
def test_mirror_integrals(name):
    b = FIXTURES[name]()
    f = b.field
    sp = right_integrals_of_left(b)
    for v in sp.basis:
        for i in range(b.U.dim):
            e = b.U.basis(i)
            assert f.equal(b.U.mult(v, e), b.U.mult(v, b.s_of(b.eps(e))))


@pytest.mark.parametrize("name", HOPF)
def test_dual_right_integrals_space(name):
    b = FIXTURES[name]()
    w = left_dual(b)
    sp = right_integrals(w)
    assert sp.side == "right"
    # members satisfy the right-integral law inside the dual algebra
    f = b.field
    for v in sp.basis:
        for i in range(w.dim):
            e = np.eye(w.dim, dtype=np.int64)[i]
            lhs = w.U.mult(f.mod(v), e)
            rhs = w.U.mult(f.mod(v), f.matmul(w.s_map, f.matmul(w.counit, e)))
            assert f.equal(lhs, rhs)


@pytest.mark.parametrize("name", ALL)
def test_maschke_equivalence(name):
    b = FIXTURES[name]()
    rep = maschke_report(b)
    by_id = {i.check_id: i.status for i in rep.items}
    assert by_id["maschke.equivalence"] == "pass"
    assert by_id["integrals.defining"] == "pass"


def test_maschke_positive_and_negative_oracles():
    pos = maschke_report(FIXTURES["group-f3"]())
    ids = {i.check_id: i.status for i in pos.items}
    assert ids["maschke.separable"] == "pass"
    assert ids["maschke.normalized-integral"] == "pass"
    assert ids["maschke.counit-splits"] == "pass"
    neg = maschke_report(FIXTURES["primitive-f2"]())
    ids = {i.check_id: i.status for i in neg.items}
    assert ids["maschke.separable"] == "fail"
    assert ids["maschke.normalized-integral"] == "fail"
    assert ids["maschke.counit-splits"] == "fail"
    assert ids["maschke.equivalence"] == "pass"


@pytest.mark.parametrize("name", ["rank1-dual-numbers", "rank1-dual-numbers-p3", "crossed"])
def test_enveloping_integrals_free_rank_one(name):
    b = FIXTURES[name]()
    sp = left_integrals(b)
    assert sp.dim == b.A.dim
    assert sp.free_rank_one
    assert sp.contains(sp.generator)


@pytest.mark.parametrize("command", ["maschke", "frobenius", "quasi-frobenius"])
@pytest.mark.parametrize("name", ["group-f3", "rank1-dual-numbers", "monoid-non-hopf"])
def test_integral_space_built_once(command, name, monkeypatch):
    # each command reads b's left integral space from b's cache
    import argparse

    from bgd import integrals
    from bgd.cli import HANDLERS

    built = []
    init = integrals.IntegralSpace.__init__

    def spy(self, side, base, basis, action):
        built.append((side, base))
        init(self, side, base, basis, action)
    monkeypatch.setattr(integrals.IntegralSpace, "__init__", spy)
    b = FIXTURES[name]()
    HANDLERS[command](b, argparse.Namespace(side=None, element=None))
    assert [side for side, base in built if base is b.A] == ["left"]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_split_test_runs_only_where_read(name, monkeypatch):
    # maschke and frobenius never read projective_summand, so they run no
    # split test; integrals and quasi-frobenius read it on one space each
    import argparse

    from bgd import integrals
    from bgd.cli import HANDLERS

    runs = []
    split = integrals.IntegralSpace._split_test
    monkeypatch.setattr(integrals.IntegralSpace, "_split_test",
                        lambda self: runs.append(self.side) or split(self))
    want = {"maschke": [], "frobenius": [], "integrals": ["left"], "quasi-frobenius": ["left"]}
    for command, sides in want.items():
        runs.clear()
        HANDLERS[command](FIXTURES[name](), argparse.Namespace(side=None, element=None))
        assert runs == sides, command
    runs.clear()
    HANDLERS["integrals"](FIXTURES[name](), argparse.Namespace(side="right", element=None))
    assert runs == ["right"]


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 4), (0, 3)])
def test_cyclic_group_is_separable_exactly_when_n_is_invertible(p, n):
    # k[Z/n] has the normalized integral (1/n) sum g^i exactly when p does not divide n
    from bgd.fixtures import cyclic_group
    from bgd.linalg import Field

    field = Field.prime(p) if p else Field.rationals()
    rep = maschke_report(cyclic_group(field, n, f"Z{n}"))
    status = {i.check_id: i.status for i in rep.items}
    ok = p == 0 or n % p != 0
    assert status["maschke.normalized-integral"] == ("pass" if ok else "fail")
    assert status["maschke.equivalence"] == "pass"


def test_zero_integral_span_contains_only_zero():
    f = Field.prime(2)
    k = AlgebraPresentation(f, [[[1]]], [1])
    spc = IntegralSpace("left", k, [], f.zeros((1, 1, 1)))
    assert spc.contains(f.zeros(1)) and not spc.contains(f.array([1]))


def test_generator_search_with_no_combination_to_try():
    # over F_2 a one-dimensional span has no combination past its basis
    # vector; where that vector generates nothing, there is no generator
    f = Field.prime(2)
    k = AlgebraPresentation(f, [[[1]]], [1])
    spc = IntegralSpace("left", k, [f.array([1])], f.zeros((1, 1, 1)))
    assert spc.generator is None and not spc.free_rank_one
