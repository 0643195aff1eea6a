"""JSON loading/export of bialgebroid presentations with exact scalars."""

import json

import numpy as np

from .algebra import AlgebraPresentation
from .bialgebroid import LeftBialgebroid
from .linalg import Field


class SpecError(ValueError):
    """A structured loading error carrying a JSON-path location."""

    def __init__(self, where, message):
        self.where = where
        super().__init__(f"{where}: {message}")


def _need(doc, key, where):
    if not isinstance(doc, dict):
        raise SpecError(where, "expected a JSON object")
    if key not in doc:
        raise SpecError(where, f"missing key '{key}'")
    return doc[key]


def _parse_field(doc):
    kind = _need(doc, "kind", "field")
    if kind == "prime":
        p = _need(doc, "p", "field")
        if isinstance(p, bool) or not isinstance(p, int):
            raise SpecError("field.p", "expected an integer")
        try:
            return Field.prime(p)
        except Exception as exc:
            raise SpecError("field.p", str(exc))
    if kind == "rationals":
        return Field.rationals()
    raise SpecError("field.kind", f"unknown field kind {kind!r}")


def _parse_scalar(f, s, where):
    try:
        return f.parse(str(s))
    except Exception:
        raise SpecError(where, f"bad scalar {s!r}")


def _parse_row(f, data, where, seen):
    """The scalars of data, each distinct string parsed once (``seen``)."""
    for j, s in enumerate(data):
        if str(s) not in seen:
            seen[str(s)] = _parse_scalar(f, s, f"{where}[{j}]")
    return [seen[str(s)] for s in data]


def _array(f, scalars, shape):
    """The array of ``shape`` holding the parsed ``scalars`` in C order, as
    ``Field.array`` would build it, but read once: over F_p they are
    reduced already, and over Q they are ``Fraction``s and the shared zero."""
    if f.kind == "prime":
        return np.array(scalars, dtype=np.int64).reshape(shape)
    out = np.empty(len(scalars), dtype=object)
    out[:] = scalars
    return out.reshape(shape)


def _parse_matrix(f, data, shape, where):
    if not isinstance(data, list) or len(data) != shape[0]:
        raise SpecError(where, f"expected {shape[0]} rows")
    scalars, seen = [], {}
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise SpecError(f"{where}[{i}]", f"expected {shape[1]} entries")
        scalars += _parse_row(f, row, f"{where}[{i}]", seen)
    return _array(f, scalars, shape)


def parse_vector(f, data, n, where):
    """The vector of the n scalars listed in ``data``, or a SpecError at ``where``."""
    if not isinstance(data, list) or len(data) != n:
        raise SpecError(where, f"expected {n} entries")
    return _array(f, _parse_row(f, data, where, {}), (n,))


def _parse_algebra(f, doc, where):
    dim = _need(doc, "dim", where)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim <= 0:
        raise SpecError(f"{where}.dim", "expected a positive integer")
    unit = parse_vector(f, _need(doc, "unit", where), dim, f"{where}.unit")
    mul = _need(doc, "mul", where)
    if not isinstance(mul, list):
        raise SpecError(f"{where}.mul", "expected a list of [i, j, k, coeff]")
    triples = []
    for n, t in enumerate(mul):
        if not isinstance(t, list) or len(t) != 4:
            raise SpecError(f"{where}.mul[{n}]", "expected [i, j, k, coeff]")
        i, j, k, c = t
        for idx, v in (("i", i), ("j", j), ("k", k)):
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < dim:
                raise SpecError(f"{where}.mul[{n}]", f"index {idx} is no integer in range")
        triples.append((i, j, k, _parse_scalar(f, c, f"{where}.mul[{n}]")))
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or len(labels) != dim
        or not all(isinstance(x, str) for x in labels)
    ):
        raise SpecError(f"{where}.labels", f"expected {dim} string labels")
    return AlgebraPresentation.from_triples(f, dim, triples, unit, labels=labels)


def parse_spec(doc):
    """Build a left bialgebroid from a parsed JSON document."""
    f = _parse_field(_need(doc, "field", "document"))
    algs = _need(doc, "algebras", "document")
    if not isinstance(algs, dict):
        raise SpecError("algebras", "expected a JSON object")
    parsed = {
        name: _parse_algebra(f, adoc, f"algebras.{name}")
        for name, adoc in algs.items()
    }
    bdoc = _need(doc, "bialgebroid", "document")
    base_name = _need(bdoc, "base", "bialgebroid")
    total_name = _need(bdoc, "total", "bialgebroid")
    for nm in (base_name, total_name):
        if not isinstance(nm, str) or nm not in parsed:
            raise SpecError("bialgebroid", f"unknown algebra name {nm!r}")
    A, U = parsed[base_name], parsed[total_name]
    s = _parse_matrix(f, _need(bdoc, "s", "bialgebroid"), (U.dim, A.dim),
                      "bialgebroid.s")
    t = _parse_matrix(f, _need(bdoc, "t", "bialgebroid"), (U.dim, A.dim),
                      "bialgebroid.t")
    counit = _parse_matrix(f, _need(bdoc, "counit", "bialgebroid"),
                           (A.dim, U.dim), "bialgebroid.counit")
    delta = _parse_matrix(f, _need(bdoc, "delta", "bialgebroid"),
                          (U.dim * U.dim, U.dim), "bialgebroid.delta")
    name = doc.get("name", total_name)
    if not isinstance(name, str):
        raise SpecError("name", "expected a string")
    return LeftBialgebroid(A, U, s, t, delta, counit, name=name)


def load_spec(path):
    try:
        fh = open(path)
    except OSError as exc:
        raise SpecError("document", f"cannot read {path!r}: {exc.strerror}")
    with fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError("document", f"malformed JSON: {exc}")
    if not isinstance(doc, dict):
        raise SpecError("document", "expected a JSON object")
    return parse_spec(doc)


def _fmt_matrix(f, m):
    return [[f.format(x) for x in row] for row in np.asarray(m)]


def export_spec(b):
    """The canonical JSON document of a bialgebroid (inverse of parse_spec)."""
    f = b.field
    field_doc = {"kind": "prime", "p": f.p} if f.kind == "prime" else {
        "kind": "rationals"
    }

    def alg_doc(alg):
        # the nonzero structure constants, in C order of (i, j, k)
        triples = [[int(i), int(j), int(k), f.format(alg.mul[i, j, k])]
                   for i, j, k in np.argwhere(alg.mul)]
        return {
            "dim": alg.dim,
            "unit": [f.format(x) for x in alg.unit],
            "mul": triples,
            "labels": list(alg.labels),
        }

    return {
        "name": b.name,
        "field": field_doc,
        "algebras": {"A": alg_doc(b.A), "U": alg_doc(b.U)},
        "bialgebroid": {
            "base": "A",
            "total": "U",
            "s": _fmt_matrix(f, b.s_map),
            "t": _fmt_matrix(f, b.t_map),
            "counit": _fmt_matrix(f, b.counit),
            "delta": _fmt_matrix(f, b.delta),
        },
    }


def dumps_canonical(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
