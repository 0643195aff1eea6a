import numpy as np
import pytest

from bgd.bialgebroid import coinvariants
from bgd.duals import left_dual
from bgd.fixtures import FIXTURES
from bgd.hopf_modules import (
    HopfModulePresentation,
    build_u_lower_star_hopf_module,
    build_u_star_hopf_module,
    check_hopf_module,
    comparison_map,
    fundamental_ll,
    fundamental_rl,
    ll_hopf_module_from_base_module,
    ll_hopf_module_from_module,
    rl_hopf_module_from_base_module,
)
from bgd.integrals import right_integrals
from bgd.linalg import rank

HOPF = [
    "base-trivial", "primitive-f2", "group-f3",
    "rank1-dual-numbers", "rank1-dual-numbers-p3", "abelian-n", "crossed",
]
SMALL = ["base-trivial", "primitive-f2", "group-f3", "rank1-dual-numbers", "abelian-n", "crossed"]


@pytest.mark.parametrize("name", HOPF)
def test_standard_examples_are_hopf_modules(name):
    b = FIXTURES[name]()
    rl = rl_hopf_module_from_base_module(b, b.A.basis_left_mults)
    assert check_hopf_module(rl).ok
    ll = ll_hopf_module_from_base_module(b, b.A.basis_right_mults)
    assert check_hopf_module(ll).ok
    diag = ll_hopf_module_from_module(b, b.U.basis_left_mults)
    assert check_hopf_module(diag).ok


@pytest.mark.parametrize("name", SMALL)
def test_dual_hopf_modules(name):
    b = FIXTURES[name]()
    assert check_hopf_module(build_u_star_hopf_module(b)).ok
    assert check_hopf_module(build_u_lower_star_hopf_module(b)).ok


def test_broken_compatibility_is_caught():
    b = FIXTURES["primitive-f2"]()
    good = rl_hopf_module_from_base_module(b, b.A.basis_left_mults)
    # trivial action on the same comodule breaks the compatibility law
    f = b.field
    bad_action = [f.eye(good.dim) for _ in range(b.U.dim)]
    bad = HopfModulePresentation(b, "RL", bad_action, good.comodule, name="broken")
    rep = check_hopf_module(bad)
    assert not rep.ok


@pytest.mark.parametrize("name", HOPF)
def test_comparison_map_invertible(name):
    b = FIXTURES[name]()
    _, inv = comparison_map(b, b.U.basis_left_mults)
    assert inv


def test_comparison_map_not_invertible_without_hopf():
    b = FIXTURES["monoid-non-hopf"]()
    _, inv = comparison_map(b, b.U.basis_left_mults)
    assert not inv


@pytest.mark.parametrize("name", HOPF)
def test_fundamental_theorem_right_left(name):
    b = FIXTURES[name]()
    rl = rl_hopf_module_from_base_module(b, b.A.basis_left_mults)
    gamma, eta, verified = fundamental_rl(b, rl)
    assert verified


@pytest.mark.parametrize("name", HOPF)
def test_fundamental_theorem_left_left(name):
    b = FIXTURES[name]()
    ll = ll_hopf_module_from_base_module(b, b.A.basis_right_mults)
    gamma, iso = fundamental_ll(b, ll)
    assert iso


@pytest.mark.parametrize("name", SMALL)
def test_fundamental_theorem_on_dual_modules(name):
    b = FIXTURES[name]()
    for mod in (build_u_star_hopf_module(b), build_u_lower_star_hopf_module(b)):
        gamma, iso = fundamental_ll(b, mod)
        assert iso


@pytest.mark.parametrize("name", SMALL)
def test_coinvariants_of_s_side_dual_are_dual_right_integrals(name):
    b = FIXTURES[name]()
    f = b.field
    cov = coinvariants(build_u_lower_star_hopf_module(b).comodule)
    sp = right_integrals(left_dual(b))
    assert len(cov) == sp.dim
    if sp.dim:
        cv = np.stack(cov, axis=1)
        sm = sp.span_matrix()
        r = rank(f, cv)
        assert r == rank(f, sm) == rank(f, np.hstack([cv, sm]))


@pytest.mark.parametrize("name", ["group-f3", "rank1-dual-numbers", "abelian-n"])
def test_fundamental_builds_u_star_once(name, monkeypatch):
    # the s-side module is transported from the t-side one, which the
    # t-dual item has built already
    import argparse

    from bgd import hopf_modules
    from bgd.cli import HANDLERS

    calls = []
    build = hopf_modules._u_star_maps
    monkeypatch.setattr(hopf_modules, "_u_star_maps", lambda b: calls.append(b) or build(b))
    b = FIXTURES[name]()
    rep, _ = HANDLERS["fundamental"](b, argparse.Namespace(side=None, element=None))
    assert any(i.check_id == "fundamental.s-dual-iso" for i in rep.items)
    assert calls == [b]
