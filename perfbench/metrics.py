"""Metric names and units; BENCHMARK.json lists the same ones.

Which end-to-end metric each layer should move:

* the quotient layer (algebra.balanced_tensor.*, algebra.TripleQuotient.*,
  linalg.Subspace.reduce.*, linalg.Quotient.*) moves wall_s and peak_rss_mb
  on quotients, stays near flat on elements, must not raise req_p50_ms on
  cli-small, and moves wall_s on rationals through its Fraction cost;
* linalg.rref.* moves wall_s on quotients; linalg.rref.share decides
  whether a compiled row-reduction kernel is worth keeping;
* algebra.mult.* and linalg.Field.matmul.calls move wall_s on elements;
* lie_rinehart.envelope.self_s and jsonio.load.self_s move setup_s;
* jsonio.dump.self_s and cli.* move req_p50_ms and req_tail_ms on cli-small.
"""

from workloads import COMMANDS

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Printed with the end-to-end metrics but not in BENCHMARK.json: a failure
# fraction is 0 on most workloads, and on the single-pass workloads a
# request percentile is one measurement of one small request.
REPORTED = (
    ("fail_frac", "ratio"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
)

PER_LAYER = (
    ("linalg.rref.calls", "count"),
    ("linalg.rref.cells", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.share", "ratio"),
    ("linalg.Subspace.reduce.calls", "count"),
    ("linalg.Subspace.reduce.self_s", "s"),
    ("linalg.Quotient.build.calls", "count"),
    ("linalg.Quotient.build.self_s", "s"),
    ("linalg.Quotient.ambient_max", "count"),
    ("linalg.Quotient.project.calls", "count"),
    ("linalg.Quotient.project.self_s", "s"),
    ("linalg.Field.matmul.calls", "count"),
    ("linalg.Field.matmul.self_s", "s"),
    ("algebra.balanced_tensor.calls", "count"),
    ("algebra.balanced_tensor.relation_rows", "count"),
    ("algebra.balanced_tensor.self_s", "s"),
    ("algebra.TripleQuotient.build.calls", "count"),
    ("algebra.TripleQuotient.build.self_s", "s"),
    ("algebra.TripleQuotient.project.calls", "count"),
    ("algebra.TripleQuotient.project.self_s", "s"),
    ("algebra.mult.calls", "count"),
    ("algebra.mult.self_s", "s"),
    ("bialgebroid.check.self_s", "s"),
    ("hopf.alpha.self_s", "s"),
    ("hopf.translation.self_s", "s"),
    ("duals.build.self_s", "s"),
    ("duals.pairing.self_s", "s"),
    ("integrals.self_s", "s"),
    ("hopf_modules.self_s", "s"),
    ("frobenius.self_s", "s"),
    ("lie_rinehart.envelope.self_s", "s"),
    ("jsonio.load.self_s", "s"),
    ("jsonio.dump.self_s", "s"),
) + tuple((f"cli.{c}.s", "s") for c in COMMANDS + ("example",)) + (
    ("trace.overhead_frac", "ratio"),
)
