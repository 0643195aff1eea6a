"""In-memory span tracer that wraps calls into bgd's public layers.

Spans are recorded from the benchmark's side of each layer boundary: the
tracer replaces functions and methods with timing wrappers and undoes that
on ``uninstall``.  A name imported with ``from .algebra import
balanced_tensor`` is bound separately in every module that imports it, so
each binding of a wrapped function object is replaced; methods are wrapped
on their class.

Each span is (name, start, end, parent span, request id), kept in flat
arrays until the run ends and then written to one .npz file.  Counters
that belong to a boundary (rref cells, balanced-tensor relation rows,
quotient ambient sizes) are recorded by the same wrapper.
"""

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

from bgd import (algebra, bialgebroid, duals, frobenius, hopf, hopf_modules,
                 integrals, jsonio, lie_rinehart, linalg)

# Layers whose spans count wherever they occur (set-up and I/O); every other
# layer counts only inside request spans.
SETUP_LAYERS = ("lie_rinehart.envelope", "jsonio.load", "jsonio.dump")


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _rref_cells(tr, args, kwargs):
    shape = np.shape(_arg(args, kwargs, 1, "m"))
    tr.add("linalg.rref.cells", int(np.prod(shape)) if len(shape) == 2 else 0)


def _bt_rows(tr, args, kwargs):
    dim_m, mats_m, dim_n = (_arg(args, kwargs, i, k)
                            for i, k in ((1, "dim_m"), (2, "mats_m"), (3, "dim_n")))
    tr.add("algebra.balanced_tensor.relation_rows", len(mats_m) * dim_m * dim_n)


def _quotient_ambient(tr, args, kwargs):
    # args[0] is the Quotient being built
    tr.maximum("linalg.Quotient.ambient_max", int(_arg(args, kwargs, 2, "ambient_dim")))


def _targets():
    """(span name, owner, attribute, counter) for every wrapped boundary."""
    out = [
        ("linalg.rref", linalg, "rref", _rref_cells),
        ("linalg.Subspace.reduce", linalg.Subspace, "reduce", None),
        ("linalg.Quotient.build", linalg.Quotient, "__init__", _quotient_ambient),
        ("linalg.Quotient.project", linalg.Quotient, "project", None),
        ("linalg.Field.matmul", linalg.Field, "matmul", None),
        ("algebra.balanced_tensor", algebra, "balanced_tensor", _bt_rows),
        ("algebra.TripleQuotient.build", algebra.TripleQuotient, "__init__", None),
        ("algebra.TripleQuotient.project", algebra.TripleQuotient, "project", None),
        ("algebra.mult", algebra.AlgebraPresentation, "mult", None),
        ("bialgebroid.check", bialgebroid, "check_left_bialgebroid", None),
        ("hopf.alpha", hopf, "alpha_left", None),
        ("hopf.alpha", hopf, "alpha_right", None),
        ("hopf.alpha", hopf, "comodule_alpha", None),
        ("hopf.translation", hopf, "translation_report", None),
        ("hopf.translation", hopf, "translate_left_mat", None),
        ("hopf.translation", hopf, "translate_right_mat", None),
        ("hopf.translation", hopf, "comodule_translate_mat", None),
        ("hopf.translation", hopf, "comodule_translation_report", None),
        ("duals.build", duals, "left_dual", None),
        ("duals.build", duals, "right_dual", None),
        ("duals.pairing", duals, "s_upper_star", None),
        ("duals.pairing", duals, "s_lower_star", None),
        ("frobenius", frobenius.FrobeniusSystem, "verify", None),
        ("lie_rinehart.envelope", lie_rinehart, "restricted_enveloping", None),
        ("jsonio.load", jsonio, "load_spec", None),
        ("jsonio.load", jsonio, "parse_spec", None),
        ("jsonio.dump", jsonio, "export_spec", None),
        ("jsonio.dump", jsonio, "dumps_canonical", None),
    ]
    # every public function of the battery modules
    for name, mod in (("integrals", integrals), ("hopf_modules", hopf_modules),
                      ("frobenius", frobenius)):
        for attr, val in sorted(vars(mod).items()):
            if (callable(val) and not attr.startswith("_") and not isinstance(val, type)
                    and getattr(val, "__module__", None) == mod.__name__):
                out.append((name, mod, attr, None))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counters = {}
        self.maxima = {}
        self._stack = []
        self._current_request = -1
        self._undo = []

    # -- recording ------------------------------------------------------------

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def maximum(self, key, n):
        self.maxima[key] = max(self.maxima.get(key, 0), n)

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._current_request)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, request=-1):
        """A top-level span: a request (with its id) or the set-up."""
        self._current_request = request
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self._current_request = -1

    def _wrap(self, name, fn, counter):
        tracer = self
        calls_key = name + ".calls"
        anywhere = name in SETUP_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if anywhere or tracer._current_request >= 0:
                tracer.counters[calls_key] = tracer.counters.get(calls_key, 0) + 1
                if counter is not None:
                    counter(tracer, args, kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- installation -----------------------------------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "bgd" or k.startswith("bgd.")) and m is not None]
        for name, owner, attr, counter in _targets():
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, orig, counter))
                self._undo.append((owner, attr, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def self_times(self):
        """Per span name: (self seconds, inclusive seconds) over the request
        spans; for the set-up layers, over every span."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            if self.request[i] < 0 and name not in SETUP_LAYERS:
                continue
            dur = self.end[i] - self.start[i]
            s, inc = out.get(name, (0.0, 0.0))
            # nested spans of one name count once in the inclusive time
            p = self.parent[i]
            nested = p >= 0 and self.names[self.name_id[p]] == name
            out[name] = (s + dur - child[i], inc + (0.0 if nested else dur))
        return out

    def dump(self, path):
        """Write every span (name, start, end, parent, request) to an .npz
        file: ``names`` holds the span names that ``name_id`` indexes."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent), request=np.array(self.request))
