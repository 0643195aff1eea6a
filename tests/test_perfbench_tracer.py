"""The benchmark's span tracer still finds every layer it wraps.

``perfbench/tracer.py`` replaces named functions and methods of ``bgd``
with timing wrappers.  A renamed or re-signatured boundary would make
``--trace 1`` fail or record nothing, so this installs the tracer on the
current package, runs ``bgd check``, ``bgd translate`` and ``bgd fundamental``
inside a request span, and checks that every target was wrapped, recorded
and restored.
"""

import pathlib
import sys

from bgd import cli

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_and_restores_every_target(capsys):
    targets = tracer._targets()
    originals = [(owner, attr, _current(owner, attr)) for _, owner, attr, _ in targets]
    tr = tracer.Tracer()
    tr.install()
    try:
        for owner, attr, orig in originals:
            wrapped = _current(owner, attr)
            assert wrapped is not orig and wrapped.__wrapped__ is orig, attr
        with tr.span("request", request=0):
            for command in ("check", "translate", "fundamental"):
                code = cli.main([command, "--preset", "rank1-dual-numbers", "--format", "json"])
                assert code == 0, command
    finally:
        tr.uninstall()
    for owner, attr, orig in originals:
        assert _current(owner, attr) is orig, attr
    capsys.readouterr()
    for key in ("bialgebroid.check.calls", "hopf.translation.calls", "hopf.alpha.calls",
                "hopf_modules.calls", "linalg.rref.calls", "linalg.rref.cells",
                "linalg.Quotient.project.calls"):
        assert tr.counters.get(key, 0) > 0, key
    # the premises hold on this preset, so no relation matrix is built, not
    # even for the >U (x)_{Aop} N of the structure theorems
    assert tr.counters.get("algebra.balanced_tensor.calls", 0) == 0
    names = set(tr.self_times())
    assert {"bialgebroid.check", "hopf.translation", "hopf_modules", "linalg.rref"} <= names
