"""One workload process: set up, run the request list, check every answer.

Started by ``run.py`` as a fresh single-threaded process:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawned T --workdir DIR --out FILE [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before the spawn,
so set-up time counts from process start, imports included.  The result is
written as JSON to ``--out``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import zlib

import numpy as np

import bgd
from bgd import cli, jsonio
from bgd.algebra import AlgebraPresentation
from bgd.bialgebroid import LeftBialgebroid

import answers
import families
import workloads
from metrics import PER_LAYER
from tracer import Tracer

WARMUP_MAX_D = 9


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


class Request:
    __slots__ = ("index", "subject", "command", "props", "element", "argv")

    def __init__(self, index, subject, command, props, element, argv=None):
        self.index = index
        self.subject = subject
        self.command = command
        self.props = props
        self.element = element
        self.argv = argv

    def stamp(self):
        """Environment stamp of the request: subject, field, d, dim A, command."""
        kind = self.subject[0]
        return {"subject": self.subject[1] if kind == "preset"
                else workloads.subject_name(self.subject),
                "family": kind, "field": self.props["field"], "d": self.props["d"],
                "dim_a": self.props["dim_a"], "command": self.command}


def _element(rng, props):
    """A nonzero --element vector for translate."""
    d = props["d"]
    if props["field"] == "Q":
        vals = [int(x) for x in rng.integers(-3, 4, size=d)]
    else:
        vals = [int(x) for x in rng.integers(0, int(props["field"]), size=d)]
    if not any(vals):
        vals[0] = 1
    return ",".join(str(v) for v in vals)


def setup(workload, seed, workdir):
    """Generate the workload's inputs from the seed, export them as spec
    JSON files and read them back.  Returns (loaded subjects, requests)."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    _, subjects, plan = workloads.WORKLOADS[workload]
    os.makedirs(workdir, exist_ok=True)
    loaded, paths = {}, {}
    for subj in subjects:
        pres = families.scramble(families.build(*subj), rng)
        path = os.path.join(workdir, workloads.subject_name(subj) + ".json")
        with open(path, "w") as fh:
            fh.write(jsonio.dumps_canonical(jsonio.export_spec(pres)))
        loaded[subj] = jsonio.load_spec(path)
        paths[subj] = path
    pairs = workloads.cli_requests(subjects) if plan == "cli" else plan
    requests = []
    for subj, command in pairs:
        props = (answers.PRESETS[subj[1]] if subj[0] == "preset"
                 else answers.family_props(*subj))
        element = _element(rng, props) if command == "translate" else None
        argv = None
        if plan == "cli":
            src = ["--preset", subj[1]] if subj[0] == "preset" else [paths[subj]]
            argv = ([command] + src + ["--format", "json"]
                    + (["--element", element] if element else []))
        requests.append(Request(len(requests), subj, command, props, element, argv))
    order = rng.permutation(len(requests))
    requests = [requests[i] for i in order]
    return loaded, requests


def _fresh(pres):
    """A new presentation object on the loaded arrays, with empty caches."""
    f = pres.field
    base = AlgebraPresentation(f, pres.A.mul, pres.A.unit, pres.A.labels)
    total = AlgebraPresentation(f, pres.U.mul, pres.U.unit, pres.U.labels)
    return LeftBialgebroid(base, total, pres.s_map, pres.t_map, pres.delta,
                           pres.counit, name=pres.name)


def run_handler(req, loaded):
    """Run a command's handler on a fresh copy of the loaded spec."""
    pres = _fresh(loaded[req.subject])
    ns = argparse.Namespace(side=None, element=req.element)
    rep, _ = cli.HANDLERS[req.command](pres, ns)
    code = 1 if any(i.status == "fail" for i in rep.items) else 0
    return code, [(i.check_id, i.status) for i in rep.items], None


def run_cli(req, loaded):
    """``bgd.cli.main`` in process, capturing its canonical JSON output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(req.argv))
    text = out.getvalue()
    items = []
    if code != 2 and req.command != "example":
        items = [(i["check_id"], i["status"]) for i in json.loads(text)["items"]]
    return code, items, text


def _judge(req, outcome, reference):
    """The list of deviations from the known answer (empty when right)."""
    if isinstance(outcome, Exception):
        return [("exception", f"{type(outcome).__name__}: {outcome}")]
    code, items, text = outcome
    problems = answers.expected(req.props, req.command).problems(code, items)
    if req.command == "example" and code == 0:
        doc = json.loads(text)
        if doc["algebras"]["U"]["dim"] != req.props["d"]:
            problems.append(("example", "U.dim", doc["algebras"]["U"]["dim"]))
    if reference is not None and text != reference:
        problems.append(("unstable-json",))
    return problems


class Tally:
    """Attempted and failed requests, failures explained by a known defect,
    and the unexplained ones (which make the run incorrect)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.defects = {}
        self.unexplained = []

    def record(self, req, problems):
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        defect = answers.explain(req.props, req.command, problems)
        if defect is None:
            self.unexplained.append({**req.stamp(), "problems": [list(p) for p in problems]})
        else:
            self.defects[defect] = self.defects.get(defect, 0) + 1


def run_pass(requests, loaded, execute, tally, outputs, tracer=None):
    """One closed-loop pass over the request list with a single client.
    Returns (wall seconds, per-request latencies in list order)."""
    lat = []
    t0 = time.perf_counter()
    for req in requests:
        t = time.perf_counter()
        try:
            if tracer is None:
                outcome = execute(req, loaded)
            else:
                with tracer.span("cli." + req.command, request=req.index):
                    outcome = execute(req, loaded)
        except Exception as exc:  # a crash is a failed request, not a crashed run
            outcome = exc
        lat.append(time.perf_counter() - t)
        reference = None
        if not isinstance(outcome, Exception) and outcome[2] is not None:
            # the first pass's output is the reference for later passes
            reference = outputs.setdefault(req.index, outcome[2])
        tally.record(req, _judge(req, outcome, reference))
    return time.perf_counter() - t0, lat


def _warmup(requests):
    """The smallest request of each (family, command) with d <= 9, run
    untimed: the first call of a code path pays for lazy imports and
    interpreter warm-up, which a long-lived caller pays once."""
    smallest = {}
    for r in sorted(requests, key=lambda r: r.props["d"]):
        if r.props["d"] <= WARMUP_MAX_D:
            smallest.setdefault((r.subject[0], r.command), r)
    return list(smallest.values())


def _layer_metrics(tracer, traced_wall, untraced_wall):
    times = tracer.self_times()
    counts = {**tracer.counters, **tracer.maxima}
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            val = traced_wall / untraced_wall - 1.0
        elif name == "linalg.rref.share":
            val = times.get("linalg.rref", (0.0, 0.0))[0] / traced_wall
        elif name.startswith("cli."):
            val = times.get(name[:-2], (0.0, 0.0))[1]
        elif name.endswith(".self_s"):
            val = times.get(name[:-7], (0.0, 0.0))[0]
        else:
            val = counts.get(name, 0)
        out[name] = {"value": val, "unit": unit}
    return out


def main(argv=None):
    args = _args(argv)
    loaded, requests = setup(args.workload, args.seed, os.path.join(args.workdir, "spec"))
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if args.setup_only:
        _write(args.out, result)
        return 0

    execute = run_cli if workloads.WORKLOADS[args.workload][2] == "cli" else run_handler
    tally, outputs = Tally(), {}
    run_pass(_warmup(requests), loaded, execute, Tally(), outputs)
    if not args.trace:
        walls, lats = [], []
        t_start = time.monotonic()
        while True:
            wall, lat = run_pass(requests, loaded, execute, tally, outputs)
            walls.append(wall)
            lats.append(lat)
            elapsed = time.monotonic() - t_start
            if elapsed + statistics.median(walls) > args.seconds:
                break
        result["passes"] = walls
        result["latencies"] = lats
    else:
        untraced_wall, _ = run_pass(requests, loaded, execute, tally, outputs)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("setup"):
                loaded2, requests2 = setup(args.workload, args.seed,
                                           os.path.join(args.workdir, "spec-traced"))
            traced_wall, _ = run_pass(requests2, loaded2, execute, tally, outputs, tracer)
        finally:
            tracer.uninstall()
        result["per_layer"] = _layer_metrics(tracer, traced_wall, untraced_wall)
        result["passes"] = [untraced_wall]
        spans = os.path.join(args.workdir, "spans.npz")
        tracer.dump(spans)
        result["spans_file"] = spans
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=tally.attempted, failed=tally.failed, defects=tally.defects,
        unexplained=tally.unexplained,
        requests=[r.stamp() for r in requests],
        environment={
            "bgd.BACKEND": bgd.BACKEND,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
    )
    _write(args.out, result)
    return 0


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
