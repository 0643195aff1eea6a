"""Smoke test of the benchmark itself, at the smallest rungs.

    python3 perfbench/smoke.py        (from the root of a bgd checkout)

Checks that
* every generated presentation has the dimensions of the known-answer
  table and gives the table's answer on every command (a deviation must be
  one of the known defects);
* two different seeds give the same status vectors, so the seeded change of
  basis leaves the answers unchanged;
* BENCHMARK.json lists exactly the workloads and metrics the benchmark
  prints.
Exits 1 on the first failed check.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import answers  # noqa: E402
import families  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from bgd.jsonio import export_spec, parse_spec  # noqa: E402
from worker import Request, run_handler  # noqa: E402

SMALLEST = (("trunc", "2", 1), ("trunc", "2", 2), ("pair", "5", 2),
            ("env", "5", 2), ("pair", "Q", 2), ("env", "Q", 2))
SEEDS = (11, 12)


def fail(msg):
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def statuses(subject, seed):
    """{command: (exit code, [(check_id, status)])} for one seeded subject."""
    rng = np.random.default_rng(seed)
    pres = parse_spec(export_spec(families.scramble(families.build(*subject), rng)))
    props = answers.family_props(*subject)
    if (pres.U.dim, pres.A.dim) != (props["d"], props["dim_a"]):
        fail(f"{subject}: dims {(pres.U.dim, pres.A.dim)} != table")
    out = {}
    for command in workloads.COMMANDS:
        element = ",".join("1" for _ in range(props["d"])) if command == "translate" else None
        req = Request(0, subject, command, props, element)
        code, items, _ = run_handler(req, {subject: pres})
        problems = answers.expected(props, command).problems(code, items)
        if problems and answers.explain(props, command, problems) is None:
            fail(f"{subject} {command} seed {seed}: {problems}")
        out[command] = (code, items)
    return out


def _named(rows):
    return [(r["name"], r["unit"]) for r in rows]


def main():
    for subject in SMALLEST:
        first, second = (statuses(subject, s) for s in SEEDS)
        if first != second:
            fail(f"{subject}: status vectors differ between seeds {SEEDS}")
        print(f"smoke: ok {workloads.subject_name(subject)}")
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if _named(bench["end_to_end"]) != list(metrics.END_TO_END):
        fail("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if _named(bench["per_layer"]) != list(metrics.PER_LAYER):
        fail("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    print("smoke: ok BENCHMARK.json")


if __name__ == "__main__":
    main()
