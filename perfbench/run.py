#!/usr/bin/env python3
"""The altrace benchmark: three seeded workloads, end-to-end metrics from
untraced runs and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload scan|verify|query --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout; altrace is imported from ./src.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1.  The lines above it print the same run
under the workloads' own metric names, and the full record (stamp, every
round, spans) is written to perfbench/out/.  --all runs every workload,
untraced and traced, and prints every metric.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import inputs
from calib import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
PROBE = os.path.join(HERE, "cli_probe.py")

CHILD_TIMEOUT = 60  # seconds allowed for one round or query (a round takes ~5 s)
MIN_ROUNDS = 3  # untraced scan/verify rounds per run, whatever --seconds says
MIN_PAIRS = 1  # (untraced, traced) round pairs per traced run
MIN_QUERIES = 24
SETUP_PROBES = 5  # fresh import + sieve processes timed per query run
TRACE_PASS = 8  # plan entries per traced query pass, so passes are comparable

SEGMENTS = {
    "scan": ("sqf_scan", "divsum_scan", "eig_scan", "cancel"),
    "verify": ("delta_grid", "sqf_paths", "twist_pairing", "classnum_oracle"),
    "query": inputs.QUERY_KINDS,
}

# the metrics BENCHMARK.json lists, with units
END_TO_END = {"setup_s": "s", "seg1_s": "s", "seg2_s": "s", "seg3_s": "s", "seg4_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "arith.spf_build_s": "s",
    "arith.factor_cache_size": "count",
    "classnum.class_number_cache_size": "count",
    "classnum.table_mb": "MB",
    "classnum.table_build_s": "s",
    "classnum.hurwitz12_ext.calls": "count",
    "classnum.hurwitz12_ext.self_s": "s",
    "classnum.hurwitz12_ext.per_call_us": "us",
    "classnum.table_hit_ratio": "ratio",
    "classnum.fallback_calls": "count",
    "classnum.fallback_s": "s",
    "classnum.hurwitz12_oracle.self_s": "s",
    "classnum.ht12.calls": "count",
    "classnum.ht12.self_s": "s",
    "trace.t_new_squarefree.calls": "count",
    "trace.t_new_squarefree.self_s": "s",
    "trace.t_new_squarefree.per_call_us": "us",
    "trace.t_new_squarefree.distinct_ratio": "ratio",
    "trace.t_new.calls": "count",
    "trace.t_new.self_s": "s",
    "trace.t_new.per_call_us": "us",
    "trace.t_full_fricke.calls": "count",
    "trace.t_full_fricke.self_s": "s",
    "signs.delta.calls": "count",
    "signs.delta.self_s": "s",
    "signs.delta.per_call_us": "us",
    "signs.equidistribution_predicate.calls": "count",
    "signs.equidistribution_predicate.self_s": "s",
    "signs.equidistribution_predicate.per_call_us": "us",
    "twist.quadtwist_characters.calls": "count",
    "twist.quadtwist_characters.self_s": "s",
    "twist.quadtwist_characters.per_call_us": "us",
    "signs.dim_new.calls": "count",
    "signs.dim_new.self_s": "s",
    "signs.dim_new.distinct_ratio": "ratio",
    "murmur.scan_WQ.self_s": "s",
    "murmur.scan_eigenspace.self_s": "s",
    "murmur.cancellation_diag.self_s": "s",
    "murmur.level_evals": "count",
    "murmur.points": "count",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "bench.trace_overhead_s": "s",
    "bench.trace_overhead_pct": "%",
}

NAMED_UNITS = {
    "query_tail_percentile": "%",
    "query_samples": "count",
    "verify_checks_per_s": "1/s",
    "factor_cache_size": "count",
    "class_number_cache_size": "count",
    "table_mb": "MB",
}

ARITH_NOTE = (
    "arith is measured only through the sieve build and cache sizes: its functions are "
    "imported by name into the other modules, so the wrappers cannot see calls to them"
)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> tuple[dict | None, str]:
    """Run a Python child to completion; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return None, "%s timed out after %ds" % (" ".join(argv[:3]), CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "%s exited %d: %s" % (" ".join(argv[:3]), proc.returncode, proc.stderr.strip()[-400:])
    try:
        return json.loads(lines[-1]), ""
    except ValueError:
        return None, "%s printed no JSON" % " ".join(argv[:3])


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(errors)
        self.attempted = max(self.attempted, self.failed)
        self.errors += errors[: max(0, 20 - len(self.errors))]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return (s[-1] if s else 0.0), 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# per-layer metrics from the tracer's totals


def layer_metrics(t: dict, extra: dict) -> dict:
    fn = t["fn"]

    def f(name: str, i: int):
        return fn.get(name, (0, 0.0, 0.0))[i]

    def per_call_us(name: str) -> float:
        return 1e6 * f(name, 1) / f(name, 0) if f(name, 0) else 0.0

    def distinct(name: str) -> float:
        return t["distinct"].get(name, 0) / f(name, 0) if f(name, 0) else 0.0

    need = t["need_h"]
    m = {
        "arith.spf_build_s": extra.get("spf_build_s", 0.0),
        "arith.factor_cache_size": extra.get("factor_cache_size", 0),
        "classnum.class_number_cache_size": extra.get("class_number_cache_size", 0),
        "classnum.table_mb": extra.get("table_mb", 0.0),
        "classnum.table_build_s": extra.get("table_build_s", 0.0),
        "classnum.hurwitz12_ext.calls": f("classnum.hurwitz12_ext", 0),
        "classnum.hurwitz12_ext.self_s": f("classnum.hurwitz12_ext", 2),
        "classnum.hurwitz12_ext.per_call_us": per_call_us("classnum.hurwitz12_ext"),
        "classnum.table_hit_ratio": (need - t["fallback_calls"]) / need if need else 0.0,
        "classnum.fallback_calls": t["fallback_calls"],
        "classnum.fallback_s": t["fallback_s"],
        "classnum.hurwitz12_oracle.self_s": f("classnum.hurwitz12_oracle", 2),
        "classnum.ht12.calls": f("classnum.ht12", 0),
        "classnum.ht12.self_s": f("classnum.ht12", 2),
        "trace.t_new_squarefree.distinct_ratio": distinct("trace.t_new_squarefree"),
        # t_new_level only picks an auxiliary prime and calls t_new
        "trace.t_new.calls": f("trace.t_new", 0),
        "trace.t_new.self_s": f("trace.t_new", 2) + f("trace.t_new_level", 2),
        "trace.t_new.per_call_us": per_call_us("trace.t_new"),
        "trace.t_full_fricke.calls": f("trace.t_full_fricke", 0),
        "trace.t_full_fricke.self_s": f("trace.t_full_fricke", 2),
        "signs.dim_new.calls": f("signs.dim_new", 0),
        "signs.dim_new.self_s": f("signs.dim_new", 2),
        "signs.dim_new.distinct_ratio": distinct("signs.dim_new"),
        "murmur.level_evals": t["level_evals"],
        "murmur.points": extra.get("points", 0),
        "cli.import_ms": extra.get("import_ms", 0.0),
        "cli.command_ms": extra.get("command_ms", 0.0),
    }
    for name in ("trace.t_new_squarefree", "signs.delta", "signs.equidistribution_predicate", "twist.quadtwist_characters"):
        m[name + ".calls"] = f(name, 0)
        m[name + ".self_s"] = f(name, 2)
        m[name + ".per_call_us"] = per_call_us(name)
    for name in ("murmur.scan_WQ", "murmur.scan_eigenspace", "murmur.cancellation_diag"):
        m[name + ".self_s"] = f(name, 2)
    return m


def table_check(t: dict) -> list[str]:
    """A scan must find every class number in its table: a fallback means the
    run timed the ~2000x slower per-discriminant path."""
    if t["need_h"] and not t["fallback_calls"]:
        return []
    return ["scan: table_hit_ratio %.6f < 1.0 (%d fallbacks)" % (layer_metrics(t, {})["classnum.table_hit_ratio"], t["fallback_calls"])]


def median_metrics(dicts: list[dict]) -> dict:
    return {key: median(d[key] for d in dicts) for key in dicts[0]} if dicts else {}


# ---------------------------------------------------------------------------
# scan and verify: one fresh interpreter per round


def run_batch(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    tally = Tally()
    plain: list[dict] = []
    with_trace: list[dict] = []
    first_outputs = None
    deadline = time.monotonic() + seconds
    n = 0
    while n < (MIN_PAIRS if traced else MIN_ROUNDS) or time.monotonic() < deadline:
        n += 1
        for tr in (0, 1) if traced else (0,):
            reference = int(workload == "scan" and first_outputs is None and tr == 0)
            res, err = run_child(
                [WORKER, "--workload", workload, "--seed", str(seed), "--trace", str(tr), "--reference", str(reference)]
            )
            if res is None:
                tally.add(1, [err])
                continue
            tally.add(res["attempted"], res["errors"])
            if "outputs" in res:
                if first_outputs is None:
                    first_outputs = res["outputs"]
                else:
                    tally.add(1, checks.compare_rounds(first_outputs, res["outputs"]))
            if tr and workload == "scan":
                tally.add(1, table_check(res["trace"]))
            (with_trace if tr else plain).append(res)
    segs = SEGMENTS[workload]
    timed = [r for r in plain if all(seg in r["norm"] for seg in segs)]
    if not timed:
        raise RuntimeError("no %s round completed: %s" % (workload, "; ".join(tally.errors[:3])))
    e2e = {
        "setup_s": median(r["norm"]["setup"] for r in timed),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in timed),
    }
    named = {"setup_s": (e2e["setup_s"], median(r["wall"]["setup"] for r in timed))}
    if workload == "verify":
        named["verify_checks_per_s"] = (
            median(r["attempted"] / sum(r["norm"][seg] for seg in segs) for r in timed),
            median(r["attempted"] / sum(r["wall"][seg] for seg in segs) for r in timed),
        )
    for i, seg in enumerate(segs, 1):
        e2e["seg%d_s" % i] = median(r["norm"][seg] for r in timed)
        named[seg + "_s"] = (e2e["seg%d_s" % i], median(r["wall"][seg] for r in timed))
    named["peak_rss_mb"] = (e2e["peak_rss_mb"], None)
    for key in ("factor_cache_size", "class_number_cache_size", "table_mb"):
        named[key] = (median(r[key] for r in timed), None)

    layers = {}
    traced_ok = [r for r in with_trace if all(seg in r["norm"] for seg in segs)]
    if traced and not traced_ok:
        raise RuntimeError("no traced %s round completed: %s" % (workload, "; ".join(tally.errors[:3])))
    if traced_ok:
        per_round = []
        for r in traced_ok:
            extra = dict(r["setup_parts"])
            extra.update(
                factor_cache_size=r["factor_cache_size"],
                class_number_cache_size=r["class_number_cache_size"],
                table_mb=r["table_mb"],
                points=sum(len(v) for k, v in r.get("outputs", {}).items() if k != "cancel"),
            )
            per_round.append(layer_metrics(r["trace"], extra))
        layers = median_metrics(per_round)
        work_plain = median(sum(r["norm"][seg] for seg in segs) for r in timed)
        work_traced = median(sum(r["norm"][seg] for seg in segs) for r in traced_ok)
        layers["bench.trace_overhead_s"] = work_traced - work_plain
        layers["bench.trace_overhead_pct"] = 100.0 * (work_traced - work_plain) / work_plain
    return {
        "tally": tally,
        "e2e": e2e,
        "named": named,
        "layers": layers,
        "rounds": plain,
        "traced_rounds": with_trace,
        "numpy": plain[0]["numpy"],
    }


# ---------------------------------------------------------------------------
# query: one fresh CLI process per query, one at a time (closed loop, 1 client)


def cli_query(argv: list[str]) -> tuple[int, dict | None]:
    """(exit status, JSON payload) of one `altrace ... --json` process."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "altrace.cli", *argv, "--json"],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return -1, None
    return proc.returncode, parse_payload(proc.stdout)


def parse_payload(text: str) -> dict | None:
    try:
        return json.loads(text)
    except ValueError:
        return None


def in_process_deltas(keys: set[tuple]) -> dict[tuple, int]:
    """signs.delta for each (k, q, r, M), computed in this process after the timed queries."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from altrace import signs

    return {key: signs.delta(*key) for key in keys}


def check_queries(tally: Tally, done: list[tuple]) -> None:
    want = in_process_deltas({key for kind, key, _, payload in done if kind in ("delta", "twist") and payload})
    for kind, key, code, payload in done:
        tally.add(1, checks.check_query(kind, key, code, payload, want.get(key)))


def run_query(seed: int, seconds: float, traced: bool) -> dict:
    plan = inputs.query_inputs(seed)
    deadline = time.monotonic() + seconds
    out = (run_query_traced if traced else run_query_plain)(plan, deadline)
    check_queries(out["tally"], out.pop("done"))
    return out


def run_query_plain(plan: list, deadline: float) -> dict:
    tally = Tally()
    setups = []
    numpy_version = "unknown"
    for _ in range(SETUP_PROBES):
        res, err = run_child([PROBE, "--setup-only"])
        if res is None:
            tally.add(1, [err])
        else:
            setups.append((res["setup_norm_s"], res["import_s"] + res["spf_build_s"]))
            numpy_version = res["numpy"]
    if not setups:
        raise RuntimeError("no set-up probe completed: %s" % "; ".join(tally.errors[:3]))
    clock = Clock()
    norm: dict[str, list[float]] = {kind: [] for kind in inputs.QUERY_KINDS}
    wall: dict[str, list[float]] = {kind: [] for kind in inputs.QUERY_KINDS}
    done = []  # (kind, key, exit status, payload), checked after the timed loop
    while len(done) < MIN_QUERIES or time.monotonic() < deadline:
        kind, argv, key = plan[len(done) % len(plan)]
        (code, payload), w, n = clock.time(lambda: cli_query(argv))
        norm[kind].append(n)
        wall[kind].append(w)
        done.append((kind, key, code, payload))
    every = [x for kind in norm for x in norm[kind]]
    every_wall = [x for kind in wall for x in wall[kind]]
    tail_v, tail_p, count = tail(every)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    e2e = {"setup_s": median(s[0] for s in setups), "peak_rss_mb": peak}
    for i, kind in enumerate(inputs.QUERY_KINDS, 1):
        e2e["seg%d_s" % i] = median(norm[kind])
    named = {
        "query_p50_ms": (1000 * median(every), 1000 * median(every_wall)),
        "query_tail_ms": (1000 * tail_v, 1000 * tail(every_wall)[0]),
        "query_tail_percentile": (tail_p, None),
        "query_samples": (count, None),
        "setup_s": (e2e["setup_s"], median(s[1] for s in setups)),
    }
    for kind in inputs.QUERY_KINDS:
        named["%s_p50_ms" % kind] = (1000 * median(norm[kind]), 1000 * median(wall[kind]))
    named["peak_rss_mb"] = (peak, None)
    return {
        "tally": tally,
        "done": done,
        "e2e": e2e,
        "named": named,
        "layers": {},
        "latency_s": {"normalized": norm, "wall": wall},
        "numpy": numpy_version,
    }


def merge_totals(totals: list[dict]) -> dict:
    """Sum Tracer.totals() of several processes."""
    merged = {"fn": {}, "distinct": {}, "need_h": 0, "fallback_calls": 0, "fallback_s": 0.0, "level_evals": 0}
    for t in totals:
        for name, rec in t["fn"].items():
            acc = merged["fn"].setdefault(name, [0, 0.0, 0.0])
            for j in range(3):
                acc[j] += rec[j]
        for name, count in t["distinct"].items():
            merged["distinct"][name] = merged["distinct"].get(name, 0) + count
        for key in ("need_h", "fallback_calls", "fallback_s", "level_evals"):
            merged[key] += t[key]
    return merged


def run_query_traced(plan: list, deadline: float) -> dict:
    """Passes over the first TRACE_PASS plan entries, each query run plain and traced."""
    tally = Tally()
    clock = Clock()
    done, passes, plain_t, probe_t = [], [], [], []
    while len(passes) < MIN_PAIRS or time.monotonic() < deadline:
        probes = []
        for kind, argv, key in plan[:TRACE_PASS]:
            (code, payload), _, norm = clock.time(lambda: cli_query(argv))
            plain_t.append(norm)
            done.append((kind, key, code, payload))
            (res, err), _, norm = clock.time(lambda: run_child([PROBE, "--trace", "--", *argv, "--json"]))
            probe_t.append(norm)
            if res is None:
                tally.add(1, [err])
                continue
            done.append((kind, key, res["code"], parse_payload(res["stdout"])))
            probes.append(res)
        if probes:
            passes.append(probes)
    if not passes:
        raise RuntimeError("no traced query completed: %s" % "; ".join(tally.errors[:3]))
    per_pass = []
    for probes in passes:
        extra = {
            "spf_build_s": median(p["spf_build_s"] for p in probes),
            "factor_cache_size": median(p["factor_cache_size"] for p in probes),
            "class_number_cache_size": median(p["class_number_cache_size"] for p in probes),
            "import_ms": 1000 * median(p["import_s"] for p in probes),
            "command_ms": 1000 * median(p["command_s"] for p in probes),
        }
        per_pass.append(layer_metrics(merge_totals([p["trace"] for p in probes]), extra))
    layers = median_metrics(per_pass)
    overhead = median(probe_t) - median(plain_t)
    layers["bench.trace_overhead_s"] = overhead
    layers["bench.trace_overhead_pct"] = 100.0 * overhead / median(plain_t)
    return {"tally": tally, "done": done, "layers": layers, "numpy": passes[0][0]["numpy"]}


# ---------------------------------------------------------------------------
# stamping, reporting


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def sizes(workload: str, seed: int) -> dict:
    if workload == "scan":
        return inputs.scan_inputs(seed)
    if workload == "verify":
        return {key: len(val) for key, val in inputs.verify_inputs(seed).items()}
    return {"plan": inputs.QUERY_PLAN, "disc_max": inputs.QUERY_DISC_MAX, "trace_pass": TRACE_PASS}


def report(args, res: dict, stamp: dict) -> dict:
    tally: Tally = res["tally"]
    units = END_TO_END if not args.trace else PER_LAYER
    values = res["e2e"] if not args.trace else res["layers"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print("altrace benchmark: workload=%s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    if not args.trace:
        print("  %-24s %14s %14s" % ("metric", "normalized", "wall"))
        for name, (value, wall) in res["named"].items():
            unit = NAMED_UNITS.get(name) or ("ms" if name.endswith("_ms") else "MB" if name.endswith("_mb") else "s")
            print("  %-24s %14.6g %14s %s" % (name, value, "" if wall is None else "%.6g" % wall, unit))
        print("  %-24s %14.6g (failed %d / attempted %d)" % ("fail_frac", tally.failed / tally.attempted, tally.failed, tally.attempted))
        segs = ", ".join("seg%d = %s" % (i, s) for i, s in enumerate(SEGMENTS[args.workload], 1))
        print("  BENCHMARK.json names: %s; times are normalized (perfbench/calib.py)" % segs)
    else:
        for name, unit in PER_LAYER.items():
            print("  %-46s %14.6g %s" % (name, values[name], unit))
        print("  note: " + ARITH_NOTE)
    for err in tally.errors:
        print("  FAILED: " + err)
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def save(args, res: dict, stamp: dict, result: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"stamp": stamp, "result": result, "named": res.get("named"), "errors": res["tally"].errors}
    for key in ("rounds", "traced_rounds", "latency_s"):
        if key in res:
            record[key] = res[key]
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    code = 0
    for workload in SEGMENTS:
        for trace in (0, 1):
            argv = [sys.argv[0], "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
            code = subprocess.run([sys.executable, *argv, "--trace", str(trace)], cwd=ROOT).returncode or code
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(SEGMENTS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "altrace", "__init__.py")):
        print("run.py: no altrace sources under %s/src; run from the root of a checkout" % ROOT, file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload is required without --all")
    try:
        if args.workload == "query":
            res = run_query(args.seed, args.seconds, bool(args.trace))
        else:
            res = run_batch(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    stamp = {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": res.get("numpy", "unknown"),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "sizes": sizes(args.workload, args.seed),
    }
    result = report(args, res, stamp)
    save(args, res, stamp, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
