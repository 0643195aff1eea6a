import numpy as np
import pytest

from bgd.bialgebroid import (
    LeftBialgebroid,
    check_comodule,
    check_left_bialgebroid,
    coinvariants,
)
from bgd.fixtures import FIXTURES, regular_comodule, trivial_comodule

SMALL = ["base-trivial", "primitive-f2", "group-f3", "monoid-non-hopf"]


@pytest.mark.parametrize("name", list(FIXTURES))
def test_axiom_battery(name):
    b = FIXTURES[name]()
    rep = check_left_bialgebroid(b)
    assert rep.ok, [i.check_id for i in rep.failures]


def test_unit_items_name_where_they_fail():
    b = FIXTURES["rank1-dual-numbers"]()
    f = b.field
    s_map, counit = b.s_map.copy(), b.counit.copy()
    s_map[3, 0] = f.canon(s_map[3, 0] + 1)  # s(1) gains a term in e3
    counit[1, 0] = f.canon(counit[1, 0] + 1)  # eps(1) gains a term in e1
    for s, eps, check_id, where in ((s_map, b.counit, "source.unit", b.U.labels[3]),
                                    (b.s_map, counit, "counit.unit", b.A.labels[1])):
        bad = LeftBialgebroid(b.A, b.U, s, b.t_map, b.delta, eps)
        item = {i.check_id: i for i in check_left_bialgebroid(bad).items}[check_id]
        assert item.status == "fail" and item.where == where, item
        assert f"FAIL {check_id} (at {where})" in check_left_bialgebroid(bad).to_text()


@pytest.mark.parametrize("name", SMALL)
def test_coop_battery(name):
    b = FIXTURES[name]().coop()
    assert check_left_bialgebroid(b).ok


def test_corrupted_coproduct_fails_with_witness():
    b = FIXTURES["primitive-f2"]()
    delta = b.field.mod(np.array(b.delta))
    delta[0, 1] = b.field.one  # make delta(X) non-counital
    bad = LeftBialgebroid(b.A, b.U, b.s_map, b.t_map, delta, b.counit)
    rep = check_left_bialgebroid(bad)
    assert not rep.ok
    assert any(i.witness for i in rep.failures)


def test_corrupted_target_fails():
    b = FIXTURES["group-f3"]()
    bad = LeftBialgebroid(b.A, b.U, b.s_map, b.field.mod(b.t_map * 2),
                          b.delta, b.counit)
    assert not check_left_bialgebroid(bad).ok


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("side", ["left", "right"])
def test_regular_and_trivial_comodules(name, side):
    b = FIXTURES[name]()
    assert check_comodule(regular_comodule(b, side)).ok
    assert check_comodule(trivial_comodule(b, side)).ok


def test_comodule_broken_coaction_fails():
    b = FIXTURES["primitive-f2"]()
    com = regular_comodule(b, "left")
    com.coaction = b.field.mod(com.coaction + 0)
    com.coaction[0, 1] += b.field.one
    com._cache.clear()
    assert not check_comodule(com).ok


@pytest.mark.parametrize("name", SMALL)
def test_regular_coinvariants_are_source_image(name):
    # coinvariants of U under its coproduct = s(A)
    b = FIXTURES[name]()
    cov = coinvariants(regular_comodule(b, "left"))
    f = b.field
    span = np.stack(cov, axis=1)
    assert len(cov) == b.A.dim
    from bgd.linalg import solve_affine

    for a in range(b.A.dim):
        assert solve_affine(f, span, b.s_of(b.A.basis(a))) is not None


def test_trivial_comodule_coinvariants_everything():
    b = FIXTURES["group-f3"]()
    cov = coinvariants(trivial_comodule(b, "left"))
    assert len(cov) == b.A.dim


def test_failing_identities_say_where_in_text_only():
    b = FIXTURES["rank1-dual-numbers"]()
    delta = b.delta.copy()
    delta[13, 2] = b.field.mod(delta[13, 2] + 1)  # one term of delta(t^1)
    bad = LeftBialgebroid(b.A, b.U, b.s_map, b.t_map, delta, b.counit, name="bad")
    rep = check_left_bialgebroid(bad)
    text = rep.to_text()
    assert ("FAIL coproduct.multiplicative: delta(e1 e2) != delta(e1) delta(e2)"
            " (at 1*e1, t^1)") in text
    assert "FAIL coproduct.takeuchi (at t^1, t^1)" in text
    assert "FAIL coproduct.coassociative (at t^1)" in text
    assert all("where" not in item for item in rep.to_dict()["items"])


def test_failing_action_names_the_basis_pair():
    b = FIXTURES["rank1-dual-numbers"]()
    s_map = b.s_map.copy()
    s_map[3, 1] = b.field.mod(s_map[3, 1] + 1)  # s(t) picks up a t*e1 term
    bad = LeftBialgebroid(b.A, b.U, s_map, b.t_map, b.delta, b.counit, name="bad")
    rep = check_comodule(regular_comodule(bad, "left"))
    assert ("FAIL comodule.action.composition: composition fails at basis pair"
            " (1, 1) (at t^1, t^1)") in rep.to_text()


def test_right_comodule_reads_its_legs_through_as_left():
    com = regular_comodule(FIXTURES["group-f3"](), "right")
    for attr in ("leg", "dom_leg"):
        with pytest.raises(ValueError, match="as_left"):
            getattr(com, attr)


@pytest.mark.parametrize("command", ["check", "translate", "integrals", "maschke", "frobenius",
                                     "quasi-frobenius", "dual", "fundamental"])
@pytest.mark.parametrize("name", ["group-f3", "rank1-dual-numbers"])
def test_commands_leave_no_reference_cycle(command, name):
    # b, its co-opposite and its duals are freed by reference counting
    # once the caller drops b, not only by the cycle collector: a command
    # builds its caches in b, and they refer back to b at most weakly
    import argparse
    import gc
    import weakref

    from bgd.cli import HANDLERS

    b = FIXTURES[name]()
    gc.collect()
    gc.disable()
    try:
        HANDLERS[command](b, argparse.Namespace(side=None, element=None))
        refs = [weakref.ref(x) for x in (b, b.coop())]
        del b
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
