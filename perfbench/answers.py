"""Known answers: what every request must report, derived from mathematics.

Each subject (a generated family member or a CLI preset) has a few
properties that fix the expected status of the report items: whether it is
Hopf on both sides, Frobenius, separable over A.  None of them is read off
the program's output.

* pair-groupoid algebras M_n(k) over k^n: Hopf, Frobenius, separable (M_n(k)
  is a separable k-algebra, hence separable over any subalgebra).
* enveloping bialgebroids A (x) A^op over k[x]/(x^m), m >= 2: Hopf,
  Frobenius, not separable (A (x) A^op is not semisimple).
* rank_n_truncated(p, n): restricted enveloping algebra of a rank-n abelian
  Lie-Rinehart algebra over F_p[t]/(t^p).  Hopf and Frobenius.  For n = 1 it
  is the restricted Weyl algebra, isomorphic to M_p(F_p), hence separable;
  for n >= 2 it has the factor F_p[X]/(X^p) with X primitive, whose
  integral X^(p-1) has counit 0, so it is not separable.
* The presets, from their documented constructions (``bgd.fixtures``).

Two defects of the program are known; a request whose answer deviates in
exactly the way one of them predicts is a failed request that is explained.
"""

PASS, FAIL, SKIP = "pass", "fail", "skipped"

# The two known defects, by the name results and BENCHMARK.json use.
BOUNDED_SEARCH = "bounded-integral-search"
WRONG_EXIT = "wrong-exit-code"
DEFECTS = {
    BOUNDED_SEARCH: "IntegralSpace._candidates searches generators only over "
                    "F_p with p^(dim A) <= 2048: integrals.free-rank-one and the "
                    "Frobenius items fail over Q and larger fields",
    WRONG_EXIT: "bgd fundamental exits 2 (unparseable input) on a valid "
                "non-Hopf spec such as the monoid-non-hopf preset",
}

# Presets: U.dim, A.dim, field, Hopf (both sides), Frobenius, separable.
PRESETS = {
    # U = A = F_2[t]/(t^2), trivial structure: Hopf, separable (l = 1).
    "base-trivial": dict(d=2, dim_a=2, field="2", hopf=True, frobenius=True,
                         separable=True),
    # F_2[X]/(X^2), X primitive: a Hopf algebra whose integral X has eps 0.
    "primitive-f2": dict(d=2, dim_a=1, field="2", hopf=True, frobenius=True,
                         separable=False),
    # F_3[Z/2]: semisimple group algebra, 2 is invertible mod 3.
    "group-f3": dict(d=2, dim_a=1, field="3", hopf=True, frobenius=True,
                     separable=True),
    # F_2[{1, e}], e^2 = e grouplike: a bialgebra, not Hopf; as an algebra
    # k x k, separable, with integral e (eps(e) = 1).
    "monoid-non-hopf": dict(d=2, dim_a=1, field="2", hopf=False, frobenius=True,
                            separable=True),
    # restricted Weyl algebras (rank_n_truncated with n = 1): separable.
    "rank1-dual-numbers": dict(d=4, dim_a=2, field="2", hopf=True, frobenius=True,
                               separable=True),
    "rank1-dual-numbers-p3": dict(d=9, dim_a=3, field="3", hopf=True,
                                  frobenius=True, separable=True),
    # u(g), g abelian of rank 2 with zero p-map: F_2[X1, X2]/(X1^2, X2^2).
    "abelian-n": dict(d=4, dim_a=1, field="2", hopf=True, frobenius=True,
                      separable=False),
    # (restricted Weyl algebra in X1) (x) F_2[X2]/(X2^2 - X2): separable.
    "crossed": dict(d=8, dim_a=2, field="2", hopf=True, frobenius=True,
                    separable=True),
}

INTEGRAL_ITEMS = ("integrals.computed", "integrals.free-rank-one",
                  "integrals.projective-summand")
FROBENIUS_ITEMS = (
    "frobenius.dual-right-integrals-free-rank-one",
    "frobenius.integrals-free-rank-one",
    "frobenius.pairing-iso-from-dual-integral",
    "frobenius.pairing-iso-from-integral-s-dual",
    "frobenius.pairing-iso-from-t-dual-integral",
    "frobenius.pairing-iso-from-integral-t-dual",
    "frobenius.conditions-agree",
    "frobenius.system-found",
    "frobenius.system-verified",
)
SEPARABILITY_ITEMS = ("maschke.normalized-integral", "maschke.separable",
                      "maschke.counit-splits")


def family_props(family, field, size):
    """Properties of a generated family member (see the module docstring)."""
    if family == "pair":
        return dict(d=size * size, dim_a=size, field=field, hopf=True,
                    frobenius=True, separable=True)
    if family == "env":
        return dict(d=size * size, dim_a=size, field=field, hopf=True,
                    frobenius=True, separable=False)
    p = int(field)
    return dict(d=p ** (size + 1), dim_a=p, field=field, hopf=True,
                frobenius=True, separable=size == 1)


class Expected:
    """Expected exit code and item statuses of one request.

    ``statuses`` maps check ids to their status; ids not listed must have
    ``default`` (None: any status).  ``required`` ids must be reported.
    ``exit_code`` None means any code other than 2, the code for
    unparseable input.
    """

    def __init__(self, exit_code, statuses=None, default=PASS, required=()):
        self.exit_code = exit_code
        self.statuses = dict(statuses or {})
        self.default = default
        self.required = tuple(required)

    def problems(self, code, items):
        """Deviations of an observed (exit code, [(check_id, status)])."""
        out = []
        if self.exit_code is None:
            if code == 2:
                out.append(("exit", "not 2", code))
        elif code != self.exit_code:
            out.append(("exit", self.exit_code, code))
        seen = {}
        for cid, status in items:
            seen[cid] = status
            want = self.statuses.get(cid, self.default)
            if want is not None and status != want:
                out.append(("status", cid, want, status))
        for cid in self.required:
            if cid not in seen:
                out.append(("missing", cid))
        return out


def expected(props, command):
    """The known answer of ``command`` on a subject with ``props``."""
    hopf, d = props["hopf"], props["d"]
    if command == "check":
        return Expected(0, required=("total.associativity", "coproduct.coassociative"))
    if command == "translate":
        if not hopf:
            return Expected(0, {"translate.left": SKIP, "translate.right": SKIP},
                            default=None, required=("translate.left", "translate.right"))
        ids = [f"sch{i}" for i in range(1, 10)] + [f"tch{i}" for i in range(1, 10)]
        return Expected(0, required=ids)
    if command == "integrals":
        ok = props["frobenius"]
        return Expected(0 if ok else 1, {"integrals.free-rank-one": PASS if ok else FAIL},
                        required=INTEGRAL_ITEMS)
    if command == "maschke":
        if props["separable"]:
            req = SEPARABILITY_ITEMS + (("maschke.splitting-from-integral",) if hopf else ())
            return Expected(0, required=req)
        return Expected(1, {k: FAIL for k in SEPARABILITY_ITEMS},
                        required=SEPARABILITY_ITEMS + ("maschke.equivalence",))
    if command == "frobenius":
        if not hopf:
            # For a bialgebra that is not Hopf the Frobenius criteria need
            # not agree; only the system and the integrals are determined.
            return Expected(1, {"frobenius.integrals-free-rank-one": PASS,
                                "frobenius.system-found": PASS,
                                "frobenius.system-verified": PASS,
                                "frobenius.conditions-agree": FAIL},
                            default=None, required=FROBENIUS_ITEMS)
        return Expected(0, required=FROBENIUS_ITEMS)
    if command == "quasi-frobenius":
        return Expected(0, required=("quasi-frobenius.projective-integrals",))
    if command == "dual":
        # the CLI checks the dual's coassociativity only while dim U <= 9
        statuses = {} if d <= 9 else {"coproduct.coassociative": SKIP}
        req = ("coproduct.coassociative",) + (("dual.pairing-maps-inverse",) if hopf else ())
        return Expected(0, statuses, required=req)
    if command == "fundamental":
        if not hopf:
            return Expected(None, {"fundamental.duals": SKIP}, default=None)
        return Expected(0, required=("fundamental.mixed-roundtrip",
                                     "fundamental.evaluation-iso",
                                     "fundamental.comparison-iso",
                                     "fundamental.t-dual-iso",
                                     "fundamental.s-dual-iso"))
    if command == "example":
        return Expected(0, default=None)
    raise ValueError(f"no known answer for command {command!r}")


def _searchable(props):
    """Whether the bounded generator search covers this base algebra."""
    field = props["field"]
    return field != "Q" and int(field) ** props["dim_a"] <= 2048


def explain(props, command, problems):
    """The known defect that accounts for every problem, or None."""
    if not problems:
        return None
    if (command in ("integrals", "frobenius") and props["frobenius"]
            and not _searchable(props)):
        allowed = {"integrals.free-rank-one", "frobenius.system-found",
                   *(k for k in FROBENIUS_ITEMS if "free-rank-one" in k or "iso" in k)}
        if all((p[0] == "exit" and p[1:] == (0, 1))
               or (p[0] == "status" and p[1] in allowed and p[3] == FAIL)
               or p == ("missing", "frobenius.system-verified")
               for p in problems):
            return BOUNDED_SEARCH
    if command == "fundamental" and not props["hopf"] and problems == [("exit", "not 2", 2)]:
        return WRONG_EXIT
    return None
