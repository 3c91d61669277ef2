"""One altrace CLI query in a fresh interpreter, timed layer by layer.

    python3 perfbench/cli_probe.py [--trace] -- <altrace arguments>
    python3 perfbench/cli_probe.py --setup-only

Run from the root of a checkout.  Times ``import altrace.cli``, the sieve
build (forced before the command, so the command time excludes it) and
``cli.main``; with --trace the timing wrappers are installed before the
sieve build.  Import plus sieve is also reported normalized (calib.py).  The
command's stdout is captured and returned in the JSON line this prints.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

from worker import SIEVE_PROBE, cache_size, import_altrace
from calib import Clock
from tracer import Tracer


def main() -> int:
    argv = sys.argv[1:]
    setup_only = "--setup-only" in argv
    traced = "--trace" in argv
    command = argv[argv.index("--") + 1 :] if "--" in argv else []

    clock = Clock()
    state: dict = {}

    def setup():
        t0 = time.perf_counter()
        state["mods"] = mods = import_altrace(os.getcwd(), "cli")
        t1 = time.perf_counter()
        if traced:
            state["tracer"] = Tracer()
            state["tracer"].install(mods)
        t2 = time.perf_counter()
        mods["arith"].factor(SIEVE_PROBE)
        state.update(import_s=t1 - t0, spf_build_s=time.perf_counter() - t2)

    clock.measure("setup", setup)
    mods, tracer = state["mods"], state.get("tracer")
    arith, classnum, cli = mods["arith"], mods["classnum"], mods["cli"]
    out = {"import_s": state["import_s"], "spf_build_s": state["spf_build_s"], "setup_norm_s": clock.norm["setup"]}
    if not setup_only:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(command)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        out["command_s"] = time.perf_counter() - t0
        out["code"] = code
        out["stdout"] = buf.getvalue()
    if tracer is not None:
        tracer.close()
        out["trace"] = tracer.totals()
    import numpy

    out.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        factor_cache_size=cache_size(arith.factor),
        class_number_cache_size=cache_size(classnum.class_number),
        numpy=numpy.__version__,
        python=sys.version.split()[0],
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
