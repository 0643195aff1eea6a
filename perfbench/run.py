"""The bgd benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a bgd checkout; it uses the sources under ``src``.
Workloads: quotients, elements, cli-small, rationals (see ``workloads.py``).

Each run starts fresh single-threaded worker processes (``worker.py``).
With ``--trace 0``, ``SETUP_REPEATS`` of them only set up, and one sets up,
runs an untimed warm-up on small requests and then runs the workload's
request list in closed-loop passes, one client, until ``--seconds`` would
be exceeded.  With ``--trace 1`` one worker warms up, runs one untraced
pass and then one traced pass (see ``tracer.py``).
Every answer is checked against the known-answer table (``answers.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics without
tracing, per-layer metrics with it).  Lines before it give the same numbers
for people, with the reported-only metrics (failure fraction, median and
tail request latency with its percentile and sample count) and the known
defects hit.  A full record (environment stamp,
requests, per-pass times) goes to ``.perfbench-work/results/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from answers import DEFECTS
from metrics import END_TO_END, REPORTED
from workloads import WORKLOADS

SETUP_REPEATS = 4
BUDGET_S = 170.0
WORK_DIR = ".perfbench-work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    paths = [os.path.abspath("src"), os.path.abspath("perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _spawn(args, workdir, out, deadline, setup_only=False):
    """Run one worker to completion and return its result document."""
    cmd = [sys.executable, os.path.join("perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    subprocess.run(cmd, env=_child_env(), stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(out) as fh:
        return json.load(fh)


def tail(samples):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or the maximum when that percentile would lie below the
    median (fewer than 20 samples)."""
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return 100.0, s[-1]
    return 100.0 * (n - 10) / n, s[n - 11]


def end_to_end(res, setups):
    """End-to-end metrics of an untraced run, and the reported-only ones.
    Request latencies are per-request medians over the passes."""
    lats = res["latencies"]
    per_req = [statistics.median(p[i] for p in lats) for i in range(len(lats[0]))]
    pct, tail_s = tail(per_req)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["passes"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "fail_frac": res["failed"] / res["attempted"],
        "req_p50_ms": 1000.0 * statistics.median(per_req),
        "req_tail_ms": 1000.0 * tail_s,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    reported = {name: {"value": values[name], "unit": unit} for name, unit in REPORTED}
    notes = {"tail_percentile": pct, "latency_samples": len(per_req),
             "passes": len(res["passes"]), "setup_samples": len(setups)}
    return metrics, reported, notes


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join("src", "bgd", "__init__.py")):
        print("perfbench: src/bgd not found; run from the root of a bgd checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = os.path.join(WORK_DIR, "results")
    workdir = os.path.join(WORK_DIR, f"run-{tag}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_REPEATS):
                sub = os.path.join(workdir, f"setup{k}")
                doc = _spawn(args, sub, os.path.join(workdir, f"setup{k}.json"),
                             deadline, setup_only=True)
                setups.append(doc["setup_s"])
        res = _spawn(args, os.path.join(workdir, "main"),
                     os.path.join(workdir, "main.json"), deadline)
        setups.append(res["setup_s"])
        if args.trace:
            metrics, reported, notes = res["per_layer"], {}, {}
            spans = os.path.join(results, f"{tag}-spans.npz")
            shutil.move(res["spans_file"], spans)
            res["spans_file"] = spans
        else:
            metrics, reported, notes = end_to_end(res, setups)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    correct = not res["unexplained"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": WORKLOADS[args.workload][0],
              "correct": correct, "metrics": metrics, "reported": reported,
              "notes": notes,
              "setup_samples": setups, **res}
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    env = res["environment"]
    print(f"# {args.workload} seed={args.seed} backend={env['bgd.BACKEND']} "
          f"numpy={env['numpy']} python={env['python']} nproc={env['nproc']}")
    for name, m in {**metrics, **reported}.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if notes:
        print(f"# req_tail_ms is p{notes['tail_percentile']:.1f} of "
              f"{notes['latency_samples']} per-request medians over "
              f"{notes['passes']} passes; setup_s is the median of "
              f"{notes['setup_samples']} set-ups")
    print(f"# {failed} of {attempted} requests failed")
    for name, n in sorted(res["defects"].items()):
        print(f"# known defect {name}: {n} failed requests; {DEFECTS[name]}")
    for bad in res["unexplained"]:
        print(f"# WRONG ANSWER: {json.dumps(bad)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
