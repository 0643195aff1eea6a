"""The four workloads: which inputs each generates and which requests it runs.

A subject is (family, field, size): ``trunc`` takes the prime as its field
and n as its size (d = p^(n+1)); ``pair`` takes n (d = n^2) and ``env``
takes m (d = m^2).  The fields of ``pair`` and ``env`` over F_p keep
p^(dim A) <= 2048 wherever integrals are computed, so that only the
rationals workload meets the bounded integral search.
"""

from answers import PRESETS

COMMANDS = ("check", "integrals", "maschke", "frobenius", "quasi-frobenius",
            "translate", "dual", "fundamental")

MID_FP = (("trunc", "2", 2), ("trunc", "3", 1), ("trunc", "2", 3),
          ("pair", "5", 3), ("pair", "5", 4), ("env", "5", 3), ("env", "5", 4))
SMALL_FP = (("trunc", "2", 2), ("trunc", "3", 1), ("pair", "5", 2),
            ("pair", "5", 3), ("env", "5", 2), ("env", "5", 3))
PAIR_25 = ("pair", "5", 5)
# elements keeps d = 16 on trunc only (fundamental there is the costliest
# per-element request), so that one pass fits the run time
ELEMENTS = MID_FP[:4] + (("env", "5", 3),)

# name -> (why, subjects to generate, [(subject, command)] or "cli")
WORKLOADS = {
    "quotients": (
        "check with the coassociativity triple quotient and translate on "
        "d = 8-16, plus check on pair at d = 25: balanced tensors, triple "
        "quotients and per-vector projection",
        MID_FP + (PAIR_25,),
        [(s, c) for s in MID_FP for c in ("check", "translate")]
        + [(PAIR_25, "check")],
    ),
    "elements": (
        "dual, fundamental, frobenius, maschke, integrals and quasi-frobenius "
        "on d = 8-9 and trunc at d = 16: per-element loops and multiplication",
        ELEMENTS,
        [(s, c) for s in ELEMENTS for c in ("dual", "fundamental", "frobenius",
                                             "maschke", "integrals", "quasi-frobenius")],
    ),
    "cli-small": (
        "in-process bgd CLI, JSON output, every command on the 8 presets and "
        "on generated spec files with d <= 9: fixed per-call costs",
        SMALL_FP,
        "cli",
    ),
    "rationals": (
        "check, translate, integrals and frobenius over Q at d = 4, check on "
        "pair at d = 9: the Fraction object-array path",
        (("pair", "Q", 2), ("env", "Q", 2), ("pair", "Q", 3)),
        [(s, c) for s in (("pair", "Q", 2), ("env", "Q", 2))
         for c in ("check", "translate", "integrals", "frobenius")]
        + [(("pair", "Q", 3), "check")],
    ),
}


def subject_name(subject):
    family, field, size = subject
    return f"{family}-{'Q' if field == 'Q' else 'F' + field}-{size}"


def cli_requests(subjects):
    """Every command on every preset, and every command but ``example`` on
    every generated spec file."""
    out = [(("preset", name), c) for name in PRESETS for c in COMMANDS + ("example",)]
    out += [(s, c) for s in subjects for c in COMMANDS]
    return out
