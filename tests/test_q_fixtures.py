"""Every battery on the fixtures over Q, against their known answers.

The three ``Q_FIXTURES`` are Hopf on both sides and Frobenius; ``M_2(Q)``
over ``Q^2`` and ``Q[Z/3]`` are separable, while ``Q[x]/(x^2) (x)
Q[x]/(x^2)^op`` is not (it is not semisimple).  So every item passes,
except the three separability items of ``maschke`` on the envelope.

Where the bounded generator search of ``IntegralSpace`` misses the free
generator over Q, the battery is a strict xfail that names the items the
miss fails; an exact decision of "free of rank one" turns them into passes.
"""

import argparse

import pytest

from bgd.cli import HANDLERS
from bgd.fixtures import Q_FIXTURES

NOT_SEPARABLE = {"env-Q-2"}
SEPARABILITY = ("maschke.normalized-integral", "maschke.separable", "maschke.counit-splits")

BATTERIES = {
    "check": ("total.associativity", "coproduct.coassociative"),
    "translate": tuple(f"{s}ch{i}" for s in "st" for i in range(1, 10)),
    "integrals.left": ("integrals.free-rank-one", "integrals.projective-summand"),
    "integrals.right": ("integrals.free-rank-one", "integrals.projective-summand"),
    "maschke": SEPARABILITY + ("maschke.equivalence",),
    "frobenius": ("frobenius.conditions-agree", "frobenius.system-verified"),
    "quasi-frobenius": ("quasi-frobenius.projective-integrals",),
    "dual.left": ("coproduct.coassociative", "dual.pairing-maps-inverse"),
    "dual.right": ("coproduct.coassociative", "dual.pairing-maps-inverse"),
    "fundamental": ("fundamental.mixed-roundtrip", "fundamental.evaluation-iso",
                    "fundamental.comparison-iso", "fundamental.t-dual-iso",
                    "fundamental.s-dual-iso"),
}

# (fixture, battery) -> the items that the bounded search fails there
BOUNDED_SEARCH = {
    ("pair-Q-2", "integrals.left"): {"integrals.free-rank-one"},
    ("pair-Q-2", "integrals.right"): {"integrals.free-rank-one"},
    ("pair-Q-2", "frobenius"): {
        "frobenius.dual-right-integrals-free-rank-one",
        "frobenius.integrals-free-rank-one",
        "frobenius.pairing-iso-from-dual-integral",
        "frobenius.pairing-iso-from-integral-s-dual",
        "frobenius.pairing-iso-from-t-dual-integral",
        "frobenius.pairing-iso-from-integral-t-dual",
        "frobenius.system-found",
        # reported only once a system is found
        "frobenius.system-verified",
    },
}


class BoundedSearchMiss(AssertionError):
    """The only wrong items are those the bounded search is known to fail."""


def _cases():
    for name in Q_FIXTURES:
        for battery in BATTERIES:
            missed = BOUNDED_SEARCH.get((name, battery))
            marks = () if missed is None else pytest.mark.xfail(
                strict=True, raises=BoundedSearchMiss,
                reason="bounded integral search misses over Q: " + ", ".join(sorted(missed)))
            yield pytest.param(name, battery, marks=marks, id=f"{name}-{battery}")


@pytest.mark.parametrize("name, battery", _cases())
def test_battery_on_q_fixture(name, battery):
    b = Q_FIXTURES[name]()
    command, _, side = battery.partition(".")
    rep, _ = HANDLERS[command](b, argparse.Namespace(side=side or None, element=None))
    got = {i.check_id: i.status for i in rep.items}
    want = {k: "fail" for k in SEPARABILITY} if name in NOT_SEPARABLE else {}
    wrong = {k for k, status in got.items() if status != want.get(k, "pass")}
    wrong |= set(BATTERIES[battery]) - set(got)
    if wrong and wrong <= BOUNDED_SEARCH.get((name, battery), set()):
        raise BoundedSearchMiss(sorted(wrong))
    assert not wrong, {k: got.get(k, "missing") for k in sorted(wrong)}
