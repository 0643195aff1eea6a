"""Known-answer census: small algebras whose verdicts are textbook facts.

* Group algebras k[G] of S_3, Z_2^2, D_4, A_4 (closures of permutation
  generators) and Z_5, over F_2, F_3 and F_5: bialgebras that are Hopf on
  both sides and Frobenius, with integrals free of rank one, and separable
  exactly when p does not divide |G| (Maschke).
* Every monoid table of order 2 and 3 with unit 0, over F_2: a bialgebra,
  left Hopf exactly when the monoid is a group.
* Restricted enveloping algebras u(g) over A = k: Hopf on both sides and
  Frobenius, and separable exactly when g is a torus (Hochschild, Proc.
  AMS 5, 1954).

The subjects are built here from their definitions.
"""

import itertools

import numpy as np
import pytest

from bgd.bialgebroid import check_left_bialgebroid
from bgd.fixtures import _monoid_algebra, _scalar_field_algebra, cyclic_group
from bgd.frobenius import frobenius_conditions_report, frobenius_system
from bgd.hopf import is_left_hopf, is_right_hopf
from bgd.integrals import left_integrals, maschke_report, right_integrals_of_left
from bgd.lie_rinehart import RestrictedLieRinehart, restricted_enveloping
from bgd.linalg import Field

# the order of each group and its generators as permutations of 0..n-1
GROUPS = {
    "S3": (6, [(1, 0, 2), (1, 2, 0)]),
    "Z2^2": (4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
    "D4": (8, [(1, 2, 3, 0), (0, 3, 2, 1)]),
    "A4": (12, [(1, 2, 0, 3), (1, 0, 3, 2)]),
    "Z5": (5, None),
}
PRIMES = (2, 3, 5)


def _permutation_group(field, name, gens):
    """k[G] for the closure of ``gens`` under composition, identity first."""
    ident = tuple(range(len(gens[0])))
    elems, todo = [ident], [ident]
    while todo:
        g = todo.pop()
        for h in gens:
            gh = tuple(g[i] for i in h)
            if gh not in elems:
                elems.append(gh)
                todo.append(gh)
    index = {g: i for i, g in enumerate(elems)}
    table = [[index[tuple(g[i] for i in h)] for h in elems] for g in elems]
    return _monoid_algebra(field, table, [f"g{i}" for i in range(len(elems))], name)


def _group(name, p):
    f = Field.prime(p)
    if name == "Z5":
        return cyclic_group(f, 5, "Z5")
    return _permutation_group(f, name, GROUPS[name][1])


def _separable(b):
    return {i.check_id: i.ok for i in maschke_report(b).items}["maschke.separable"]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", list(GROUPS))
def test_group_algebras(name, p):
    b, order = _group(name, p), GROUPS[name][0]
    assert b.U.dim == order
    assert check_left_bialgebroid(b).ok
    assert is_left_hopf(b) and is_right_hopf(b)
    assert frobenius_system(b) is not None and frobenius_conditions_report(b).ok
    assert left_integrals(b).free_rank_one and right_integrals_of_left(b).free_rank_one
    assert _separable(b) == (order % p != 0), (name, order, p)


def _monoid_tables(n):
    """Every associative table on 0..n-1 with 0 as its unit."""
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    for values in itertools.product(range(n), repeat=len(cells)):
        table = [[j if i == 0 else i if j == 0 else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(cells, values):
            table[i][j] = v
        if all(table[table[i][j]][k] == table[i][table[j][k]]
               for i in range(n) for j in range(n) for k in range(n)):
            yield table


MONOIDS = [t for n in (2, 3) for t in _monoid_tables(n)]


def _is_group(table):
    return all(0 in row for row in table)


def test_monoid_census_counts():
    # 2 tables of order 2 and 11 of order 3 with unit 0; one group of each order
    assert len(MONOIDS) == 13
    assert sum(map(_is_group, MONOIDS)) == 2


@pytest.mark.parametrize("table", MONOIDS, ids=str)
def test_monoid_algebras(table):
    b = _monoid_algebra(Field.prime(2), table, [f"m{i}" for i in range(len(table))], "M")
    assert check_left_bialgebroid(b).ok
    assert is_left_hopf(b) == _is_group(table)


def _restricted(p, n, bracket=(), pops=()):
    """A restricted Lie algebra over A = k with basis e_1..e_n: ``bracket``
    holds (i, j, k, c) for [e_i, e_j] += c e_k (and [e_j, e_i] -= c e_k),
    ``pops`` holds (i, k, c) for e_i^[p] += c e_k."""
    f = Field.prime(p)
    br, pm = np.zeros((n, n, n, 1), dtype=np.int64), np.zeros((n, n, 1), dtype=np.int64)
    for i, j, k, c in bracket:
        br[i, j, k, 0] += c
        br[j, i, k, 0] -= c
    for i, k, c in pops:
        pm[i, k, 0] += c
    a = _scalar_field_algebra(f)
    return RestrictedLieRinehart(a, n, br, [f.zeros((1, 1))] * n, pm)


# name -> (n, bracket, p-map, is a torus)
LIE = {
    "torus-1": (1, (), [(0, 0, 1)], True),
    "torus-2": (2, (), [(0, 0, 1), (1, 1, 1)], True),
    "zero-p-map-1": (1, (), (), False),
    "mixed-2": (2, (), [(0, 0, 1)], False),
    # [h, e] = e, h^[p] = h, e^[p] = 0
    "aff2": (2, [(0, 1, 1, 1)], [(0, 0, 1)], False),
    # [x, y] = z, zero p-map
    "heisenberg": (3, [(0, 1, 2, 1)], (), False),
}


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name", list(LIE))
def test_restricted_envelopes(name, p):
    n, bracket, pops, torus = LIE[name]
    lr = _restricted(p, n, bracket, pops)
    assert lr.check().ok, lr.check().to_text()
    b = restricted_enveloping(lr)
    assert check_left_bialgebroid(b).ok
    assert is_left_hopf(b) and is_right_hopf(b)
    assert frobenius_system(b) is not None
    assert _separable(b) == torus, (name, p)
