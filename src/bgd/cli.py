"""Command-line front end: `bgd <command> <spec.json|--preset NAME> ...`."""

import argparse
import sys

import numpy as np

from .bialgebroid import check_left_bialgebroid, check_right_bialgebroid
from .duals import left_dual, right_dual, s_dual_basis, s_lower_star, s_upper_star
from .fixtures import FIXTURES
from .frobenius import frobenius_conditions_report, frobenius_system, quasi_frobenius_check
from .hopf import (
    comodule_is_bijective,
    is_left_hopf,
    is_right_hopf,
    translate_left,
    translate_right,
    translation_report,
)
from .hopf_modules import (
    build_u_lower_star_hopf_module,
    build_u_star_hopf_module,
    check_hopf_module,
    comparison_map,
    fundamental_ll,
    fundamental_rl,
    ll_hopf_module_from_base_module,
    rl_hopf_module_from_base_module,
)
from .integrals import (
    left_integrals,
    maschke_report,
    normalized_left_integral,
    right_integrals_of_left,
)
from .jsonio import SpecError, dumps_canonical, export_spec, load_spec
from .report import Report

COMMANDS = (
    "check",
    "integrals",
    "maschke",
    "frobenius",
    "quasi-frobenius",
    "translate",
    "dual",
    "fundamental",
    "example",
)


def _tensor_str(b, vec):
    f, d = b.field, b.U.dim
    terms = []
    for idx in np.nonzero(np.asarray(vec))[0]:
        c = f.canon(vec[idx])
        lab = f"{b.U.labels[idx // d]}(x){b.U.labels[idx % d]}"
        terms.append(lab if c == f.one else f"{f.format(c)}*{lab}")
    return " + ".join(terms) if terms else "0"


def _cmd_check(b, args):
    rep = check_left_bialgebroid(b)
    return rep, {}


def _cmd_integrals(b, args):
    side = args.side or "left"
    spc = left_integrals(b) if side == "left" else right_integrals_of_left(b)
    rep = Report(f"{b.name} {side} integrals")
    rep.add("integrals.computed", True)
    rep.add("integrals.free-rank-one", spc.free_rank_one)
    rep.add("integrals.projective-summand", spc.projective_summand)
    data = {
        "side": side,
        "dimension": spc.dim,
        "basis": [b.U.format_elem(v) for v in spc.basis],
        "generator": None
        if spc.generator is None
        else b.U.format_elem(spc.generator),
    }
    return rep, data


def _cmd_maschke(b, args):
    rep = maschke_report(b)
    norm = normalized_left_integral(b)
    data = {
        "separable": norm is not None,
        "normalized_integral": None if norm is None else b.U.format_elem(norm),
    }
    if norm is None:
        data["reason"] = "counit vanishes on the left integral span"
    return rep, data


def _cmd_frobenius(b, args):
    rep = frobenius_conditions_report(b)
    sysm = frobenius_system(b)
    rep.add("frobenius.system-found", sysm is not None)
    if sysm is not None:
        rep.add("frobenius.system-verified", sysm.verify(b))
    data = {"frobenius": sysm is not None}
    if sysm is not None:
        f = b.field
        data["t0"] = b.U.format_elem(sysm.t0)
        data["theta"] = [[f.format(x) for x in row] for row in sysm.theta]
        data["tensor"] = " + ".join(
            f"({b.U.format_elem(x)}) (x) ({b.U.format_elem(y)})"
            for x, y in sysm.pairs
        )
    return rep, data


def _cmd_quasi_frobenius(b, args):
    rep = quasi_frobenius_check(b)
    spc = left_integrals(b)
    return rep, {
        "dimension": spc.dim,
        "projective": spc.projective_summand,
    }


def _cmd_translate(b, args):
    rep, data = Report(f"{b.name} translation"), {}
    for side in [args.side] if args.side else ["left", "right"]:
        sub, more = _guarded(f"translate.{side}", _translate, b, side, args.element)
        rep.extend(sub)
        data.update(more)
    return rep, data


def _translate(b, side, element):
    """One side's translation report, and its translation of ``element``."""
    if not (is_left_hopf(b) if side == "left" else is_right_hopf(b)):
        rep = Report(f"{b.name} translation")
        rep.skip(f"translate.{side}", f"the {side} Hopf-Galois map is not bijective")
        return rep, {}
    rep, data = translation_report(b, side=side), {}
    if element:
        u = _parse_element(b, element)
        vec = translate_left(b, u) if side == "left" else translate_right(b, u)
        data[f"{side}_translation"] = _tensor_str(b, vec)
    return rep, data


def _cmd_dual(b, args):
    side = args.side or "left"
    if s_dual_basis(b if side == "left" else b.coop()) is None:
        rep, over = Report(f"{b.name} dual"), "s" if side == "left" else "t"
        rep.skip("dual.coproduct", f"U is not finitely generated projective over {over}(A)")
        return rep, {"side": side}
    dual = left_dual(b) if side == "left" else right_dual(b)
    rep = check_right_bialgebroid(dual, with_triples=b.U.dim <= 9)
    data = {"side": side, "dimension": dual.dim}
    if is_left_hopf(b) and is_right_hopf(b):
        f = b.field
        up, lo = s_upper_star(b), s_lower_star(b)
        rep.add(
            "dual.pairing-maps-inverse",
            f.equal(f.matmul(up, lo), f.eye(up.shape[0]))
            and f.equal(f.matmul(lo, up), f.eye(lo.shape[0])),
        )
    return rep, data


def _cmd_fundamental(b, args):
    rep = Report(f"{b.name} structure theorems")
    rl = rl_hopf_module_from_base_module(b, b.A.basis_left_mults)
    rep.extend(check_hopf_module(rl))
    if comodule_is_bijective(rl.comodule):
        _, _, ok = fundamental_rl(b, rl)
        rep.add("fundamental.mixed-roundtrip", ok)
    else:
        rep.skip(
            "fundamental.mixed-roundtrip",
            "comodule Hopf-Galois map is not bijective",
        )
    ll = ll_hopf_module_from_base_module(b, b.A.basis_right_mults)
    _, iso = fundamental_ll(b, ll)
    rep.add("fundamental.evaluation-iso", iso)
    _, dinv = comparison_map(b, b.U.basis_left_mults)
    rep.add("fundamental.comparison-iso", dinv)
    if is_left_hopf(b) and is_right_hopf(b):
        for build, tag in (
            (build_u_star_hopf_module, "t-dual"),
            (build_u_lower_star_hopf_module, "s-dual"),
        ):
            mod = build(b)
            rep.extend(check_hopf_module(mod))
            _, iso = fundamental_ll(b, mod)
            rep.add(f"fundamental.{tag}-iso", iso)
    else:
        rep.skip("fundamental.duals", "total algebra is not two-sided Hopf")
    return rep, {}


HANDLERS = {
    "check": _cmd_check,
    "integrals": _cmd_integrals,
    "maschke": _cmd_maschke,
    "frobenius": _cmd_frobenius,
    "quasi-frobenius": _cmd_quasi_frobenius,
    "translate": _cmd_translate,
    "dual": _cmd_dual,
    "fundamental": _cmd_fundamental,
}


def _guarded(check_id, run, b, *args):
    """run(b, *args), a command's (report, data), or where it raises a
    ValueError and b is no left bialgebroid, a report that skips ``check_id``
    naming the failing axioms.  A ValueError on a left bialgebroid is a bug."""
    try:
        return run(b, *args)
    except SpecError:
        raise
    except ValueError:
        bad = [i.check_id for i in check_left_bialgebroid(b).failures]
        if not bad:
            raise
        rep = Report(b.name)
        rep.skip(check_id, f"not a left bialgebroid, failing {', '.join(bad)}")
        return rep, {}


def _parse_element(b, text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != b.U.dim:
        raise SpecError("--element", f"expected {b.U.dim} coordinates")
    f = b.field
    v = f.zeros(b.U.dim)
    for i, p in enumerate(parts):
        try:
            v[i] = f.parse(p)
        except Exception:
            raise SpecError("--element", f"bad scalar {p!r}")
    return f.mod(v)


def _load(args):
    if args.preset:
        if args.preset not in FIXTURES:
            raise SpecError(
                "--preset",
                f"unknown preset {args.preset!r}; known: "
                + ", ".join(sorted(FIXTURES)),
            )
        return FIXTURES[args.preset]()
    if not args.spec:
        raise SpecError("usage", "a spec file or --preset is required")
    return load_spec(args.spec)


def _emit(command, subject, rep, data, fmt):
    doc = {
        "command": command,
        "subject": subject,
        "items": [
            {"check_id": i.check_id, "status": i.status, "witness": i.witness}
            for i in rep.items
        ],
        "data": data,
    }
    if fmt == "json":
        print(dumps_canonical(doc), end="")
    else:
        print(rep.to_text())
        for key, val in data.items():
            print(f"{key}: {val}")
    return 1 if any(i.status == "fail" for i in rep.items) else 0


def _parser():
    parser = argparse.ArgumentParser(
        prog="bgd",
        description="exact checks for finite-dimensional left bialgebroids",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("spec", nargs="?", help="JSON presentation file")
    parser.add_argument("--side", choices=["left", "right"])
    parser.add_argument("--element", help="comma-separated coordinates")
    parser.add_argument("--preset", help="named built-in presentation")
    parser.add_argument("--format", choices=["json", "text"], default="text")
    return parser


# built once: building it takes about ten times as long as a parse
_PARSER = _parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "example":
            name = args.preset or "rank1-dual-numbers"
            if name not in FIXTURES:
                raise SpecError("--preset", f"unknown preset {name!r}")
            print(dumps_canonical(export_spec(FIXTURES[name]())), end="")
            return 0
        b = _load(args)
        rep, data = _guarded(args.command, HANDLERS[args.command], b, args)
        return _emit(args.command, b.name, rep, data, args.format)
    except SpecError as exc:
        print(f"bgd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
