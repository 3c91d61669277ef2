"""One round of the scan or verify workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload scan|verify --seed N --trace 0|1 --reference 0|1

Run from the root of a checkout; altrace is imported from ./src.  Prints one
JSON object: set-up and per-segment times (wall, and normalized as in
calib.py: set-up on the ALU loop, segments on the OBJECTS loop), the
outputs (scan) or check counts (verify), memory and cache sizes, and with
--trace 1 the per-function counters and spans.
--reference 1 (scan) also recomputes a seeded sample of the outputs through
the other trace path.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import sys
import time

import checks
import inputs
from calib import ALU, OBJECTS, Clock
from tracer import Tracer

SIEVE_PROBE = 9_699_690  # 2*3*...*23: its factorization builds the sieve
MODULES = ("arith", "classnum", "murmur", "signs", "trace", "twist")


def import_altrace(root: str, *extra: str) -> dict:
    """Import altrace from root/src (never from an installed copy); extra
    module names are imported first, so their import time covers the package."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "altrace", "__init__.py")):
        raise SystemExit("no altrace package under %s" % src)
    sys.path.insert(0, src)
    mods = {name: importlib.import_module("altrace." + name) for name in extra + MODULES}
    where = os.path.abspath(mods["arith"].__file__)
    if not where.startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("altrace imported from %s, not from %s" % (where, src))
    return mods


def cache_size(fn) -> int:
    """currsize of a functools cache; 0 once the function is no longer cached."""
    info = getattr(fn, "cache_info", None)
    return info().currsize if info else 0


class Segments:
    """Times the segments of a round on a Clock, each inside a tracer span."""

    def __init__(self, clock: Clock, tracer: Tracer | None):
        self.clock = clock
        self.tracer = tracer

    def run(self, name: str, fn):
        if self.tracer is None:
            return self.clock.measure(name, fn)
        with self.tracer.segment(name):
            return self.clock.measure(name, fn)


# ---------------------------------------------------------------------------
# scan


def run_scan(mods: dict, spec: dict, seg: Segments) -> dict:
    murmur = mods["murmur"]

    def rows(points):
        return [[p.ell, p.average, p.count] for p in points]

    def wq(family: str, k: int, ell_max: int, x: int):
        return rows(murmur.scan_WQ(murmur.parse_family(family, k=k), (2, ell_max), x))

    x, x2, ell_max = spec["X"], spec["X_divsum"], spec["ell_max"]
    out = {}

    def sqf_scan():
        out["I:M=1"] = wq("I:M=1", 2, ell_max, x)
        out["III:r=2,idx=1,2"] = wq("III:r=2,idx=1,2", 4, ell_max, x)

    seg.run("sqf_scan", sqf_scan)
    out["II:Q=1,M=all"] = seg.run("divsum_scan", lambda: wq("II:Q=1,M=all", 2, spec["ell_max_divsum"], x2))
    out["III:r=2 eps=+-"] = seg.run(
        "eig_scan", lambda: rows(murmur.scan_eigenspace(murmur.parse_family("III:r=2", k=2), (1, -1), (2, ell_max), x))
    )
    rep = seg.run("cancel", lambda: murmur.cancellation_diag(2, spec["X_cancel"], workers=2))
    out["cancel"] = {"argmax_ell": rep.argmax_ell, "max_abs_sum": rep.max_abs_sum, "max_abs_diff": rep.max_abs_diff}
    return out


SCAN_CHECKS = (
    # output key, family, weight, window key
    ("I:M=1", "I:M=1", 2, "X"),
    ("III:r=2,idx=1,2", "III:r=2,idx=1,2", 4, "X"),
    ("II:Q=1,M=all", "II:Q=1,M=all", 2, "X_divsum"),
)


def scan_reference(mods: dict, spec: dict, out: dict) -> tuple[int, list[str]]:
    """Recompute a seeded sample of points and the cancellation report."""
    trace = mods["trace"]
    rng = random.Random(spec["sample_seed"])
    attempted, bad = 0, []
    for key, family, k, xkey in SCAN_CHECKS:
        ells = rng.sample(sorted(r[0] for r in out[key]), inputs.SCAN_SAMPLE_ELLS)
        ref = {ell: checks.wq_point(trace, family, k, spec[xkey], ell) for ell in ells}
        attempted += 2 * len(ells)
        bad += checks.compare_points(key, out[key], ref)
    key = "III:r=2 eps=+-"
    ells = rng.sample(sorted(r[0] for r in out[key]), inputs.SCAN_SAMPLE_ELLS)
    ref = {ell: checks.eig_point(trace, 2, (1, -1), spec["X"], ell) for ell in ells}
    attempted += 2 * len(ells)
    bad += checks.compare_points(key, out[key], ref)
    attempted += 3
    bad += checks.compare_cancellation(out["cancel"], checks.cancellation(trace, 2, spec["X_cancel"]))
    return attempted, bad


# ---------------------------------------------------------------------------
# verify


def run_verify(mods: dict, spec: dict, seg: Segments) -> tuple[int, list[str]]:
    """Every comparison is one check; returns (checks, mismatches)."""
    classnum, signs, trace, twist = mods["classnum"], mods["signs"], mods["trace"], mods["twist"]
    checked, bad = 0, []

    def delta_grid():
        nonlocal checked
        for k, q, r, m in spec["grid"]:
            d = signs.delta(k, q, r, m)
            t = trace.t_new(k, q, r, m, 1)
            res = signs.equidistribution_predicate(k, q, r, m)
            checked += 2
            if d != t:
                bad.append("delta %r: closed form %d, divisor sum %d" % ((k, q, r, m), d, t))
            if res.value != d:
                bad.append("predicate %r: value %d != delta %d" % ((k, q, r, m), res.value, d))
            if res.covered:
                checked += 1
                sign = res.predicted_sign
                if (sign == 0 and d != 0) or (sign not in (None, 0) and (d == 0 or (d > 0) != (sign > 0))):
                    bad.append("predicate %r: sign %r vs delta %d" % ((k, q, r, m), sign, d))

    def sqf_paths():
        nonlocal checked
        for k, q, m, ell in spec["sqf"]:
            sqf = trace.t_new_squarefree(k, q, m, ell)
            div = trace.t_new(k, q, 1, m, ell)
            checked += 1
            if sqf != div:
                bad.append("sqf %r: squarefree %d, divisor sum %d" % ((k, q, m, ell), sqf, div))
            if m == 1 and 4 * ell < q:
                checked += 1
                fricke = trace.t_full_fricke(k, q, ell)
                if fricke != sqf:
                    bad.append("fricke %r: %d != %d" % ((k, q, ell), fricke, sqf))

    def twist_pairing():
        nonlocal checked
        for k, q, r, m in spec["twist"]:
            chars = twist.quadtwist_characters(k, q, r, m)
            checked += 1
            if not chars:
                bad.append("twist %r: no pairing character" % ((k, q, r, m),))
                continue
            d = signs.delta(k, q, r, m)
            checked += 1
            if d != 0:
                bad.append("twist %r: paired but delta %d" % ((k, q, r, m), d))
            # the pairing also kills every trace at ell with chi(ell) = 1 (ell = 1 included)
            chi = chars[0]
            for ell in range(1, inputs.TWIST_ELL_MAX + 1):
                if math.gcd(ell, q * m) == 1 and chi(ell) == 1:
                    checked += 1
                    t = trace.t_new(k, q, r, m, ell)
                    if t != 0:
                        bad.append("twist %r: chi(%d) = 1 but trace %d" % ((k, q, r, m), ell, t))

    def classnum_oracle():
        nonlocal checked
        for disc in spec["discs"]:
            h = classnum.hurwitz12(disc)
            o = classnum.hurwitz12_oracle(disc)
            e = classnum.ht12(1, disc)
            checked += 2
            if h != o or e != h:
                bad.append("classnum %d: hurwitz12 %d, oracle %d, ht12 %d" % (disc, h, o, e))

    for fn in (delta_grid, sqf_paths, twist_pairing, classnum_oracle):
        seg.run(fn.__name__, fn)
    return checked, bad


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("scan", "verify"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = inputs.scan_inputs(args.seed) if args.workload == "scan" else inputs.verify_inputs(args.seed)

    setup_clock = Clock(ALU)
    parts: dict[str, float] = {}
    state: dict = {}

    def setup():
        t0 = time.perf_counter()
        state["mods"] = import_altrace(os.getcwd())
        t1 = time.perf_counter()
        state["mods"]["arith"].factor(SIEVE_PROBE)
        t2 = time.perf_counter()
        parts.update(import_s=t1 - t0, spf_build_s=t2 - t1, table_build_s=0.0)
        if args.workload == "scan":
            state["table"] = state["mods"]["classnum"].get_table(spec["table_bound"])
            parts["table_build_s"] = time.perf_counter() - t2

    setup_clock.measure("setup", setup)
    mods, table = state["mods"], state.get("table")

    tracer = None
    if args.trace:
        tracer = Tracer(table_bound=table.bound if table is not None else 0)
        tracer.install(mods)
    clock = Clock(OBJECTS)
    seg = Segments(clock, tracer)
    result: dict = {"setup_parts": parts}
    errors: list[str] = []
    try:
        if args.workload == "scan":
            result["outputs"] = run_scan(mods, spec, seg)
            result["attempted"] = 4
        else:
            checked, bad = run_verify(mods, spec, seg)
            result["attempted"] = checked
            errors += bad
    except Exception as exc:  # the round fails; the parent counts it
        errors.append("%s: %s" % (type(exc).__name__, exc))
        result.setdefault("attempted", 1)
    if tracer is not None:
        tracer.close()
        result.update(trace=tracer.totals(), spans=tracer.span_dump(), dropped_spans=tracer.dropped_spans)
    if args.reference and "outputs" in result:
        try:
            attempted, bad = scan_reference(mods, spec, result["outputs"])
        except Exception as exc:
            attempted, bad = 1, ["reference: %s: %s" % (type(exc).__name__, exc)]
        result["attempted"] += attempted
        errors += bad

    import numpy

    result.update(
        wall={**setup_clock.wall, **clock.wall},
        norm={**setup_clock.norm, **clock.norm},
        errors=errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        factor_cache_size=cache_size(mods["arith"].factor),
        class_number_cache_size=cache_size(mods["classnum"].class_number),
        table_mb=table.h12.nbytes / 2**20 if table is not None else 0.0,
        numpy=numpy.__version__,
        python=sys.version.split()[0],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
