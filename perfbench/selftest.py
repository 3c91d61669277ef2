"""Checker self-test: every check must flag an injected wrong value.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Exits 0 when each check accepts the true
outputs and flags every injected mismatch, and when BENCHMARK.json lists
exactly the metrics run.py reports.  Takes a few seconds.
"""
from __future__ import annotations

import json
import os
import sys

import checks
import run
from tracer import Tracer
from worker import import_altrace

FAILURES: list[str] = []


def expect(name: str, flagged: list[str], want_flag: bool) -> None:
    ok = bool(flagged) == want_flag
    print("%-58s %s" % (name, "ok" if ok else "WRONG (%s)" % (flagged or "not flagged")))
    if not ok:
        FAILURES.append(name)


def synthetic() -> None:
    ref = {5: (0.25, 40), 7: (-0.125, 38), 11: None}
    good = [[5, 0.25, 40], [7, -0.125, 38]]
    expect("points: true outputs pass", checks.compare_points("t", good, ref), False)
    expect("points: average off by 1e-9 relative", checks.compare_points("t", [[5, 0.25 * (1 + 1e-9), 40], good[1]], ref), True)
    expect("points: count off by one", checks.compare_points("t", [[5, 0.25, 41], good[1]], ref), True)
    expect("points: point missing", checks.compare_points("t", good[:1], ref), True)
    expect("points: point the reference skips", checks.compare_points("t", good + [[11, 0.0, 3]], ref), True)
    rep = {"argmax_ell": 223, "max_abs_sum": 1.5, "max_abs_diff": 2.5}
    expect("cancel: true report passes", checks.compare_cancellation(rep, dict(rep)), False)
    expect("cancel: argmax ell differs", checks.compare_cancellation(rep, dict(rep, argmax_ell=227)), True)
    expect("cancel: max |A+ + A-| differs", checks.compare_cancellation(rep, dict(rep, max_abs_sum=1.5000001)), True)
    expect("rounds: a later round differs", checks.compare_rounds({"a": [[2, 0.5, 3]]}, {"a": [[2, 0.5, 4]]}), True)
    q = checks.check_query
    expect("query: clean classnum payload passes", q("classnum", (-23,), 0, {"agree": True}, None), False)
    expect("query: nonzero exit status", q("classnum", (-23,), 1, {"agree": True}, None), True)
    expect("query: agree = False", q("classnum", (-23,), 0, {"agree": False}, None), True)
    expect("query: cross_path_mismatch = True", q("trace", (2, 11, 1, 1, 2), 0, {"cross_path_mismatch": True}, None), True)
    expect("query: delta differs from in-process", q("delta", (4, 13, 1, 5), 0, {"delta": -1}, -2), True)
    expect("query: twist delta differs from in-process", q("twist", (4, 5, 1, 27), 0, {"delta": 1}, 0), True)


def injected(mods: dict) -> None:
    """Real outputs checked against their references, then with a wrong value
    injected into the program or a table lookup past the table's bound."""
    murmur, trace = mods["murmur"], mods["trace"]
    spec = murmur.parse_family("I:M=1", k=2)
    ell = 7
    ref = {ell: checks.wq_point(trace, "I:M=1", 2, 40, ell)}

    def scan():
        return [[p.ell, p.average, p.count] for p in murmur.scan_WQ(spec, [ell], 40)]

    expect("scan: real I:M=1 point matches its reference", checks.compare_points("I", scan(), ref), False)
    real = trace.t_new_squarefree

    def wrong(k, q, m, l):
        return real(k, q, m, l) + (1 if q == 41 else 0)

    trace.t_new_squarefree = wrong
    try:
        expect("scan: injected wrong trace at N = 41 is flagged", checks.compare_points("I", scan(), ref), True)
    finally:
        trace.t_new_squarefree = real
    classnum = mods["classnum"]
    classnum.get_table(1000)
    tracer = Tracer(table_bound=1000)
    tracer.install(mods)
    try:
        classnum.hurwitz12_ext(-999)
        expect("table: lookups inside the table pass", run.table_check(tracer.totals()), False)
        classnum.hurwitz12_ext(-1003)
        expect("table: a lookup past the table bound is flagged", run.table_check(tracer.totals()), True)
    finally:
        tracer.close()
    rep = murmur.cancellation_diag(2, 40)
    got = {"argmax_ell": rep.argmax_ell, "max_abs_sum": rep.max_abs_sum, "max_abs_diff": rep.max_abs_diff}
    expect("cancel: real report matches its reference", checks.compare_cancellation(got, checks.cancellation(trace, 2, 40)), False)


def benchmark_json() -> None:
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect("BENCHMARK.json end_to_end == run.py END_TO_END", [] if e2e == run.END_TO_END else ["differs"], False)
    expect("BENCHMARK.json per_layer == run.py PER_LAYER", [] if layers == run.PER_LAYER else ["differs"], False)
    workloads = tuple(w["name"] for w in spec["workloads"])
    expect("BENCHMARK.json workloads == run.py workloads", [] if workloads == tuple(run.SEGMENTS) else ["differs"], False)


def main() -> int:
    synthetic()
    injected(import_altrace(os.getcwd()))
    benchmark_json()
    print("%d check(s) misbehaved" % len(FAILURES) if FAILURES else "all checks flag injected mismatches")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
