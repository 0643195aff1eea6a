"""Sweep of the command line over every library-golden case.

Each case of ``test_lib_golden.CASES`` is exported as a spec file and run
through ``bgd.cli.main`` in process with every command variant of
``test_cli.VARIANTS``, in both output formats: 24 x 10 x 2 = 480 runs.
Then ``translate --element`` runs once per case and format on seeded
coordinates, since no other run passes an element.  Each run prints one
line:

    case  command-and-options  format  exit-code  sha256(stdout)  sha256(stderr)

A refactoring that is meant to leave the command line unchanged prints the
same lines before and after.  The script exits 1 if any run raises or
exits 2 (every spec here parses).  Run it from the root of a checkout:

    PYTHONPATH=src python tests/cli_sweep.py > sweep.txt

pytest does not collect it (its name does not start with ``test_``).
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
from test_cli import VARIANTS
from test_lib_golden import CASES

from bgd import cli
from bgd.jsonio import dumps_canonical, export_spec


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv):
    """(exit code, or the name of the exception raised; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a raise is what the sweep reports
            code = f"raises:{type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def _element(b, seed):
    """Seeded coordinates of an element of U, as ``--element`` takes them
    (passed as ``--element=...``, so that a leading minus sign is no option)."""
    f, rng = b.field, np.random.default_rng(seed)
    lo, hi = (0, f.p) if f.kind == "prime" else (-2, 3)
    return ",".join(str(int(x)) for x in rng.integers(lo, hi, size=b.U.dim))


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed, (case, build) in enumerate(CASES.items()):
            b = build()
            spec = str(Path(tmp) / f"{case}.json")
            Path(spec).write_text(dumps_canonical(export_spec(b)))
            for variant in [*VARIANTS, ["translate", f"--element={_element(b, seed)}"]]:
                for fmt in ("json", "text"):
                    code, out, err = _run([variant[0], spec, *variant[1:], "--format", fmt])
                    bad += code not in (0, 1)
                    print(case, " ".join(variant), fmt, code, _sha(out), _sha(err), sep="\t")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
