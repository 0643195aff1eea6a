"""Golden check of the fixed CLI contract: exit codes and canonical JSON.

Every command runs on every preset with ``--side`` unset, ``left`` and
``right``, all with ``--format json``.  ``cli_golden.json`` stores the exit
code and the sha256 of stdout of each run, so a refactoring that changes a
``check_id``, a status or a byte of the canonical document fails here.

Regenerate (only when the contract is meant to change) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from bgd.cli import COMMANDS, main
from bgd.fixtures import FIXTURES

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
SIDES = (None, "left", "right")


def _argv(command, preset, side):
    argv = [command, "--preset", preset, "--format", "json"]
    return argv if side is None else argv + ["--side", side]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _sweep():
    for command in COMMANDS:
        for preset in sorted(FIXTURES):
            for side in SIDES:
                yield " ".join(_argv(command, preset, side))


def test_golden_covers_the_sweep():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(_sweep())


@pytest.mark.parametrize("key", sorted(_sweep()))
def test_cli_output_matches_golden(key):
    want = json.loads(GOLDEN.read_text())[key]
    assert _run(key.split()) == want, f"output changed; rerun: bgd {key}"


if __name__ == "__main__":
    runs = {key: _run(key.split()) for key in _sweep()}
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
